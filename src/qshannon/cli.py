"""Command-line front end: one experiment per invocation, reproducible from a
JSON config plus flag overrides, with CSV or schema-validated JSON reports.

Exit codes: 0 success, 1 a verification check failed, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from importlib import resources

RESERVED_KEYS = {"command", "seed", "trials", "out", "format", "tol", "params"}
COMMANDS = ("entropy", "capacity", "compress", "concentrate", "measure",
            "decouple", "blackhole", "suite")


class UsageError(Exception):
    pass


def parse_matrix(entries):
    """Nested lists with innermost [re, im] pairs -> complex ndarray."""
    import numpy as np

    a = np.asarray(entries, dtype=float)
    if a.ndim < 2 or a.shape[-1] != 2:
        raise UsageError("matrices are nested arrays with innermost [re, im] pairs")
    return a[..., 0] + 1j * a[..., 1]


def _sig12(x) -> str:
    return f"{float(x):.12g}"


def _flatten(results: dict, prefix: str = ""):
    for key, val in results.items():
        name = f"{prefix}{key}"
        if isinstance(val, dict):
            yield from _flatten(val, f"{name}.")
        elif isinstance(val, (list, tuple)):
            for i, v in enumerate(val):
                if isinstance(v, (int, float)):
                    yield f"{name}[{i}]", v
        elif isinstance(val, bool):
            yield name, int(val)
        elif isinstance(val, (int, float)):
            yield name, val


def default_csv_rows(results: dict) -> list[str]:
    rows = ["name,value"]
    for name, val in _flatten(results):
        rows.append(f"{name},{_sig12(val)}")
    return rows


# ---------------------------------------------------------------------------
# command handlers: params -> (results dict, csv rows or None, check_failed)
# ---------------------------------------------------------------------------

def run_entropy(params, seed, trials, tol):
    from . import entropy as ent
    from .linalg import density_from_matrix

    if "probs" in params:
        p = params["probs"]
        results = {"shannon_entropy": ent.shannon_entropy(p)}
        if "ref_probs" in params:
            results["relative_entropy"] = ent.relative_entropy_classical(
                p, params["ref_probs"])
        return results, None, False
    if "state" in params:
        rho = density_from_matrix(parse_matrix(params["state"]))
        results = {
            "von_neumann_entropy": ent.von_neumann_entropy(rho),
            "purity": float((rho.matrix @ rho.matrix).trace().real),
            "eigenvalues": [float(v) for v in rho.eigenvalues()],
        }
        return results, None, False
    raise UsageError("entropy needs 'probs' or 'state' in params")


def run_capacity(params, seed, trials, tol):
    from . import capacity as cap

    family = params.get("family")
    if family is None:
        raise UsageError("capacity needs 'family' in params")
    grid = params.get("grid", [0.0, 0.1, 0.25, 0.4])
    which = tuple(params.get("which", ["C1", "CE", "Q1"]))
    rows = cap.capacity_sweep(family, grid, which,
                              restarts=int(params.get("restarts", 6)),
                              seed=seed if seed is not None else 19)
    results = {"rows": [{"family": r.family, "p": r.p, "quantity": r.quantity,
                         "value": r.value, "err": r.err, "converged": r.converged}
                        for r in rows]}
    return results, cap.sweep_to_csv_rows(rows), False


SCHUMACHER3 = {
    "probs": [0.5, 0.5],
    "states": [[[1.0, 0.0], [0.0, 0.0]],
               [[0.7071067811865476, 0.0], [0.7071067811865476, 0.0]]],
    "n": 3,
    "delta": 0.5,
}


def run_compress(params, seed, trials, tol):
    import numpy as np

    from . import coding

    if params.get("example") == "schumacher3qubit":
        params = {**SCHUMACHER3, **{k: v for k, v in params.items() if k != "example"}}
    if "probs" not in params or "states" not in params:
        raise UsageError("compress needs 'example' or 'probs'+'states' in params")
    states = [parse_matrix(s).reshape(-1) for s in params["states"]]
    ensemble = list(zip(params["probs"], states))
    n = int(params.get("n", 3))
    if "rate" in params:
        rep = coding.schumacher_sim(ensemble, n, rate=float(params["rate"]))
    else:
        spec = coding.TypicalitySpec(n, float(params.get("delta", 0.5)))
        rep = coding.schumacher_sim(ensemble, n, spec=spec)
    results = {"fidelity": rep.fidelity, "weight": rep.weight, "dim": rep.dim,
               "rate": rep.rate, "lower_bound": rep.lower_bound}
    if rep.ky_fan_bound is not None:
        results["ky_fan_bound"] = rep.ky_fan_bound
    return results, None, False


def run_concentrate(params, seed, trials, tol):
    from . import coding

    rep = coding.concentration_sim(float(params.get("p", 0.2)),
                                   int(params.get("n", 40)),
                                   trials if trials else 10_000,
                                   seed if seed is not None else 41)
    results = {"mean_log2_schmidt_rank": rep.mean_log2_d, "rate": rep.rate,
               "exact_mean_log2_schmidt_rank": rep.exact_mean_log2_d,
               "chi2_pvalue": rep.chi2_pvalue,
               "histogram": {str(k): v for k, v in sorted(rep.histogram.items())}}
    return results, None, False


def run_measure(params, seed, trials, tol):
    from . import measure as mea
    from . import suites

    example = params.get("example")
    if example == "trine":
        ensemble = suites.trine_ensemble()
        povm = suites.trine_exclusion_povm()
        from .entropy import holevo_chi
        results = {"accessible_info": mea.accessible_info(ensemble, povm),
                   "holevo_chi": holevo_chi(ensemble)}
        return results, None, False
    if example == "peres_wootters":
        res = suites.check_peres_wootters()
        return dict(res.details), None, not res.passed
    if example == "haar_gain" or "d" in params:
        rep = mea.haar_information_gain(int(params.get("d", 2)),
                                        trials if trials else 10_000,
                                        seed if seed is not None else 71)
        results = {"exact_nats": rep.exact_nats, "exact_bits": rep.exact_bits,
                   "estimate_nats": rep.estimate_nats,
                   "estimate_bits": rep.estimate_bits,
                   "mc_stderr_nats": rep.mc_stderr_nats, "trials": rep.trials}
        return results, None, False
    raise UsageError("measure needs example in {trine, peres_wootters, haar_gain}")


def run_decouple(params, seed, trials, tol):
    import numpy as np

    from . import decoupling as dec
    from .linalg import DensityOperator, SubsystemLayout

    dims = params.get("dims")
    if not dims or "A1" not in dims or "A2" not in dims:
        raise UsageError("decouple needs params.dims with A1 and A2")
    d1, d2 = int(dims["A1"]), int(dims["A2"])
    de = int(params.get("e_dim", 1))
    if min(d1, d2, de) < 1:
        raise UsageError(f"decouple needs A1, A2 and e_dim >= 1, got {d1}, {d2}, {de}")
    da = d1 * d2
    if de > 1:
        from ._rng import stream
        sigma = dec.random_sigma_ae(da, de, stream(seed if seed is not None else 7, 0))
    else:
        m = np.zeros((da, da), dtype=complex)
        m[0, 0] = 1.0
        sigma = DensityOperator(m, SubsystemLayout((da,), ("A",)))
    rep = dec.decoupling_experiment(dec.DecouplingTrialSet(
        sigma, (d1, d2), trials if trials else 500,
        seed if seed is not None else 7))
    results = {"mean_l1": rep.mean_l1, "bound": rep.bound,
               "mc_stderr": rep.mc_stderr, "satisfied": rep.satisfied()}
    return results, None, not rep.satisfied()


def run_blackhole(params, seed, trials, tol):
    from . import decoupling as dec

    rep = dec.black_hole_mirror(int(params.get("n", 10)), int(params.get("k", 2)),
                                int(params.get("c", 2)),
                                params.get("age", "old"),
                                trials if trials else 300,
                                seed if seed is not None else 423)
    results = {"fidelity_estimate": rep.fidelity_estimate, "target": rep.target,
               "mean_l1": rep.mean_l1, "mc_stderr": rep.mc_stderr,
               "emitted_qubits": rep.emitted_qubits,
               "meets_target": rep.meets_target()}
    return results, None, not rep.meets_target()


def run_suite(params, seed, trials, tol):
    from . import suites

    name = params.get("name", "golden")
    checks = suites.run_suite(name)
    for res in checks:
        print(res.line())
    failed = not all(r.passed for r in checks)
    results = {"suite": name,
               "checks": {r.name: bool(r.passed) for r in checks},
               "passed": not failed}
    csv_rows = ["check,passed"] + [f"{r.name},{int(r.passed)}" for r in checks]
    return results, csv_rows, failed


HANDLERS = {
    "entropy": run_entropy,
    "capacity": run_capacity,
    "compress": run_compress,
    "concentrate": run_concentrate,
    "measure": run_measure,
    "decouple": run_decouple,
    "blackhole": run_blackhole,
    "suite": run_suite,
}


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------

def load_schema() -> dict:
    with resources.files("qshannon").joinpath("report_schema.json").open() as f:
        return json.load(f)


def _sanitize(obj):
    """Make results JSON-serializable (numpy scalars, inf -> string)."""
    import numpy as np

    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        x = float(obj)
        return x if math.isfinite(x) else repr(x)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    return obj


def emit_report(config: dict, results: dict, csv_rows, out, fmt: str,
                wall_time: float) -> None:
    if fmt == "csv":
        rows = csv_rows if csv_rows is not None else default_csv_rows(results)
        text = "\n".join(rows) + "\n"
    else:
        report = {"config": config, "results": _sanitize(results),
                  "wall_time": wall_time}
        import jsonschema

        jsonschema.validate(report, load_schema())
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if out:
        with open(out, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="qshannon",
        description="Numerical experiments in quantum Shannon theory.")
    p.add_argument("command", nargs="?", choices=COMMANDS,
                   help="experiment to run (may also come from --config)")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--seed", type=int, help="RNG seed")
    p.add_argument("--trials", type=int, help="Monte Carlo trial count")
    p.add_argument("--out", help="output path (default: stdout)")
    p.add_argument("--format", choices=["csv", "json"], dest="fmt",
                   help="report format (default json)")
    p.add_argument("--tol", type=float, help="numerical tolerance override")
    # convenience shorthands for the common param-free invocations
    p.add_argument("--name", help="suite name (suite command)")
    p.add_argument("--example", help="named example (compress/measure commands)")
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    cfg = {}
    if args.config:
        try:
            with open(args.config) as f:
                cfg = json.load(f)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"error: cannot read config: {exc}", file=sys.stderr)
            return 2
        if not isinstance(cfg, dict):
            print(f"error: config must be a JSON object, got {type(cfg).__name__}",
                  file=sys.stderr)
            return 2
        if not isinstance(cfg.get("params", {}), dict):
            print("error: config params must be a JSON object", file=sys.stderr)
            return 2

    command = args.command or cfg.get("command")
    if command not in COMMANDS:
        print(f"error: no command given (choose from {', '.join(COMMANDS)})",
              file=sys.stderr)
        return 2

    params = dict(cfg.get("params", {}))
    params.update({k: v for k, v in cfg.items() if k not in RESERVED_KEYS})
    if args.name is not None:
        params["name"] = args.name
    if args.example is not None:
        params["example"] = args.example

    seed = args.seed if args.seed is not None else cfg.get("seed")
    trials = args.trials if args.trials is not None else cfg.get("trials")
    if trials is not None and (type(trials) is not int or trials < 1):
        print(f"error: trials must be a positive integer, got {trials!r}", file=sys.stderr)
        return 2
    if seed is not None and type(seed) is not int:
        print(f"error: seed must be an integer, got {seed!r}", file=sys.stderr)
        return 2
    tol = args.tol if args.tol is not None else cfg.get("tol")
    fmt = args.fmt or cfg.get("format") or "json"
    out = args.out or cfg.get("out")

    full_config = {"command": command, "params": _sanitize(params),
                   "seed": seed, "trials": trials, "tol": tol, "format": fmt}

    start = time.perf_counter()
    try:
        results, csv_rows, failed = HANDLERS[command](params, seed, trials, tol)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    wall = time.perf_counter() - start

    emit_report(full_config, results, csv_rows, out, fmt, wall)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
