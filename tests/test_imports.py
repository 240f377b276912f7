"""Imports: every top-level import in the package's modules is used by that
module, `import qshannon` loads no SciPy, no module imports scipy.linalg, and
the optimizers import scipy.optimize on first use behind a rebindable
`capacity.minimize`.  Also: `linalg._unchecked` is used only by the
functions allowed to build unchecked results.

Imports on a line marked `# noqa: F401` are deliberate re-exports (the
package `__init__`) and are exempt."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qshannon
from qshannon import capacity, channels, measure, suites

SRC = Path(qshannon.__file__).resolve().parent.parent
TESTS = Path(__file__).resolve().parent
HEAVY_SCIPY = ("scipy.optimize", "scipy.linalg", "scipy.stats", "scipy.integrate")

MODULES = sorted(Path(qshannon.__file__).parent.glob("*.py"))


def unused_imports(path: Path) -> list[str]:
    source = path.read_text()
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if "noqa: F401" in lines[node.lineno - 1] or (
                isinstance(node, ast.ImportFrom) and node.module == "__future__"):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in imported.items()
            if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_top_level_imports(path):
    assert unused_imports(path) == []


def scipy_linalg_imports(path: Path) -> list[str]:
    """Every import of scipy.linalg in the module, at any depth."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = [f"{node.module}.{alias.name}" for alias in node.names] + [node.module]
        else:
            continue
        if any(n == "scipy.linalg" or n.startswith("scipy.linalg.") for n in names):
            found.append(f"{path.name}:{node.lineno}")
    return found


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_scipy_linalg_import(path):
    assert scipy_linalg_imports(path) == []


# the functions that build results with linalg._unchecked: each derives them
# from states and channels that were validated already
UNCHECKED_PRODUCERS = {
    "linalg.py": {"restrict", "density", "maximally_mixed", "tensor", "partial_trace",
                  "partial_trace_pure", "haar_random_pure", "random_mixed_state", "purify"},
    "channels.py": {"apply", "dilate_state", "complementary", "compose"},
    "entropy.py": {"gibbs_free_energy"},
}


def unchecked_uses(path: Path) -> list[tuple[str, int]]:
    """(enclosing function, line) of every use of the name `_unchecked` in the
    module, its definition aside; an import counts as a use in "<module>"."""
    found = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.Import, ast.ImportFrom)):
                found.extend(("<module>", child.lineno) for alias in child.names
                             if "_unchecked" in (alias.name.split(".")[-1], alias.asname))
            elif (isinstance(child, ast.Name) and child.id == "_unchecked") or (
                    isinstance(child, ast.Attribute) and child.attr == "_unchecked"):
                found.append((func, child.lineno))
            is_def = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
            visit(child, getattr(child, "name", "<lambda>") if is_def else func)

    visit(ast.parse(path.read_text()), "<module>")
    return found


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_unchecked_constructor_only_in_producers(path):
    producers = UNCHECKED_PRODUCERS.get(path.name, set())
    # a module with producers may import the name; cli.py and suites.py have none
    allowed = producers | {"<module>"} if producers else set()
    uses = unchecked_uses(path)
    assert [f"{path.name}:{line} in {func}" for func, line in uses if func not in allowed] == []
    # and every listed producer uses it, so the list stays exact
    assert {func for func, _ in uses} - {"<module>"} == producers


def run_fresh(code: str, **env_vars: str) -> str:
    """stdout of `code` run in a new interpreter that imports qshannon from
    this source tree and the test modules from this directory, with
    `env_vars` added to the environment."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), str(TESTS)]), **env_vars}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_import_loads_no_heavy_scipy():
    code = ("import sys\n"
            "import qshannon, qshannon.cli, qshannon.suites\n"
            f"print(sorted(m for m in {HEAVY_SCIPY!r} if m in sys.modules))")
    assert run_fresh(code) == "[]"


# each call reaches scipy.optimize, first imported inside it; the values are
# those of the eager import, bit for bit
FIRST_USE = {
    "accessible_info": ("from qshannon import measure, suites\n"
                        "r = measure.optimize_accessible_info(suites.trine_ensemble(), 3,"
                        " restarts=3, seed=5)\n"
                        "print(repr(r.value))", "0.584962500706439"),
    "q1_zero": ("from qshannon import capacity\n"
                "print(repr(capacity.depolarizing_q1_zero()))", "0.1892896249152316"),
}


def test_entanglement_assisted_capacity_loads_no_scipy():
    code = ("import sys\n"
            "from qshannon import capacity, channels\n"
            "r = capacity.entanglement_assisted_capacity(channels.amplitude_damping(0.3))\n"
            "print(r.converged, sorted(m for m in sys.modules if m.startswith('scipy')))")
    assert run_fresh(code) == "True []"


def test_classical_capacity_loads_no_scipy():
    # the uniform input is optimal for the BSC; the asymmetric binary
    # channel takes Newton steps
    code = ("import sys\n"
            "from qshannon import capacity, channels\n"
            "r = capacity.blahut_arimoto(channels.bsc(0.11))\n"
            "z = capacity.blahut_arimoto([[0.9, 0.2], [0.1, 0.8]])\n"
            "print(r.converged, z.converged and z.iterations > 0,"
            " sorted(m for m in sys.modules if m.startswith('scipy')))")
    assert run_fresh(code) == "True True []"


def test_is_degradable_loads_no_scipy():
    # completely dephasing is not onto, so this runs the degrading-map barrier
    code = ("import sys\n"
            "from qshannon import channels\n"
            "r = channels.is_degradable(channels.completely_dephasing(2))\n"
            "print(r, sorted(m for m in sys.modules if m.startswith('scipy')))")
    assert run_fresh(code) == "True []"


@pytest.mark.parametrize("case", sorted(FIRST_USE))
def test_optimizers_import_scipy_on_first_use(case):
    code, expected = FIRST_USE[case]
    guard = ("import sys\n"
             "assert not any(m.startswith('scipy') for m in sys.modules)\n")
    assert run_fresh(guard + code) == expected


def test_capacity_minimize_is_scipys():
    from scipy.optimize import minimize

    assert capacity.minimize is minimize
    with pytest.raises(AttributeError):
        capacity.maximize


CAPACITY_RUNS = {
    "Q1": lambda ch, r: capacity.one_shot_quantum_capacity(ch, restarts=r, seed=3),
    "CE": lambda ch, r: capacity.entanglement_assisted_capacity(ch, restarts=r, seed=3),
    "chi": lambda ch, r: capacity.holevo_chi_channel(ch, ensemble_size=2, restarts=r, seed=3),
    "accessible_info": lambda ch, r: measure.optimize_accessible_info(suites.trine_ensemble(), 3,
                                                                      restarts=r, seed=3),
}


@pytest.mark.parametrize("quantity", sorted(CAPACITY_RUNS))
def test_rebound_minimize_sees_every_restart(quantity):
    # an outside tracer rebinds capacity.minimize between calls; C_E runs no
    # L-BFGS, so it makes no call, and accessible information (which ignores
    # the channel) runs its restarts through the same seam
    run, restarts = CAPACITY_RUNS[quantity], 3
    expected = 0 if quantity == "CE" else restarts
    channel = channels.amplitude_damping(0.3)
    before = run(channel, restarts).value
    original, calls = capacity.minimize, []

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    capacity.minimize = counting
    try:
        traced = run(channel, restarts).value
    finally:
        capacity.minimize = original
    assert len(calls) == expected
    assert traced == before
    assert run(channel, restarts).value == before
    assert len(calls) == expected
