"""Tracing from outside the program: wrappers around the public functions of
each qshannon module and around the numpy.linalg kernels they call.

`Tracer.install()` rebinds every reference to a wrapped function in every
loaded qshannon module (names imported with `from .linalg import ...` are
bound in several namespaces), plus three `__post_init__` validators and the
`minimize` that `qshannon.capacity` imported.  `uninstall()` restores them.

Each wrapped call records a span (name, start, end, parent, round) in memory
and updates per-name totals: calls, inclusive seconds, and self seconds (the
span's duration minus the time covered by its child spans).
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

import numpy as np

# modules whose public functions are wrapped, with the layer prefix they get
LAYERS = {"qshannon.linalg": "linalg", "qshannon.entropy": "entropy",
          "qshannon.channels": "channels", "qshannon.capacity": "capacity",
          "qshannon.measure": "measure", "qshannon.coding": "coding",
          "qshannon.decoupling": "decoupling", "qshannon._rng": "rng"}
# the CLI is traced at its entry point only, so cli.main's self time holds
# argument parsing, dispatch, report building and schema validation
CLI_ENTRY = ("qshannon.cli", "main", "cli.main")
CONSTRUCTORS = (("qshannon.linalg", "DensityOperator", "linalg.density_operator"),
                ("qshannon.channels", "KrausChannel", "channels.kraus_channel"),
                ("qshannon.measure", "POVM", "measure.povm"))
KERNELS = {"qr": "lapack.qr", "eigvalsh": "lapack.eigvalsh", "eigh": "lapack.eigh"}
MONTE_CARLO = ("decoupling.decoupling_experiment", "decoupling.expected_M_check",
               "decoupling.projected_decoupling_experiment",
               "decoupling.random_subsystem_entropy", "decoupling.black_hole_mirror_batch")
CAPACITY_CALLS = ("capacity.one_shot_quantum_capacity",
                  "capacity.entanglement_assisted_capacity", "capacity.holevo_chi_channel")
WASTE_TOL = 1e-9


def qr_gflop(a, mode: str = "reduced") -> float:
    """Householder QR flops, computed from the shape (not measured): factor
    plus forming the reduced Q; complex arithmetic counts four real flops."""
    a = np.asarray(a)
    m, n = a.shape[-2:]
    k = min(m, n)
    big = max(m, n)
    factor = 2 * big * k * k - 2 * k ** 3 / 3
    form_q = 0.0 if mode in ("r", "raw") else 2 * m * k * k - 2 * k ** 3 / 3
    batch = int(np.prod(a.shape[:-2])) if a.ndim > 2 else 1
    scale = 4 if np.iscomplexobj(a) else 1
    return batch * scale * (factor + form_q) / 1e9


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[tuple[int, float, float, int, int]] = []
        self.calls: list[int] = []
        self.total: list[float] = []
        self.self_time: list[float] = []
        self.counters: dict[str, float] = {}
        self.round = -1
        self._stack: list[list] = []     # [name id, start, child time, span index, state]
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.total.append(0.0)
            self.self_time.append(0.0)
        return i

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def _enter(self, nid: int) -> list:
        parent = self._stack[-1][3] if self._stack else -1
        index = len(self.spans)
        self.spans.append((nid, 0.0, 0.0, parent, self.round))
        frame = [nid, 0.0, 0.0, index, None]
        self._stack.append(frame)
        frame[1] = time.perf_counter()
        return frame

    def _exit(self, frame: list) -> None:
        end = time.perf_counter()
        nid, start, child, index, _ = frame
        self._stack.pop()
        dur = end - start
        self.spans[index] = (nid, start, end, self.spans[index][3], self.round)
        self.calls[nid] += 1
        self.total[nid] += dur
        self.self_time[nid] += dur - child
        if self._stack:
            self._stack[-1][2] += dur

    def enclosing(self, names) -> list | None:
        ids = {self._ids[n] for n in names if n in self._ids}
        for frame in reversed(self._stack):
            if frame[0] in ids:
                return frame
        return None

    def wrap(self, fn, name: str, after=None):
        nid = self._id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self._enter(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(frame)
            if after is not None:
                after(result, args, kwargs)
            return result

        return traced

    # -- per-function extras ---------------------------------------------

    def _trials_hook(self, fn):
        sig = inspect.signature(fn)

        def after(result, args, kwargs):
            bound = sig.bind(*args, **kwargs).arguments
            trials = bound["t"].trials if "t" in bound else bound["trials"]
            self.count("decoupling.trials", trials)
        return after

    def _qr_hook(self, result, args, kwargs):
        self.count("lapack.qr.gflop", qr_gflop(args[0], kwargs.get("mode", "reduced")))

    def _ba_hook(self, result, args, kwargs):
        self.count("capacity.blahut_arimoto.iterations", result.iterations)

    def _traced_minimize(self, minimize):
        objective_id = self._id("capacity.objective")
        lbfgs = self.wrap(minimize, "capacity.lbfgs")

        def traced_minimize(fun, x0, *args, **kwargs):
            def objective(*a, **k):
                frame = self._enter(objective_id)
                try:
                    return fun(*a, **k)
                finally:
                    self._exit(frame)

            res = lbfgs(objective, x0, *args, **kwargs)
            self.count("capacity.lbfgs.iterations", int(res.nit))
            self.count("capacity.restarts")
            owner = self.enclosing(CAPACITY_CALLS)
            if owner is not None:
                best = owner[4]
                value = -float(res.fun)
                if best is not None and value <= best + WASTE_TOL:
                    self.count("capacity.restarts.wasted")
                owner[4] = value if best is None else max(best, value)
            return res

        return traced_minimize

    # -- installing --------------------------------------------------------

    def _replacements(self) -> dict[int, tuple]:
        """Map id(original) -> (original, wrapper) for every function to be traced."""
        repl: dict[int, tuple] = {}
        for modname, layer in LAYERS.items():
            mod = sys.modules.get(modname)
            if mod is None:
                continue
            for attr, fn in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != modname):
                    continue
                name = f"{layer}.{attr}"
                if name == "linalg.partial_trace_pure":
                    name = "linalg.partial_trace"     # both partial traces, one metric
                after = None
                if name in MONTE_CARLO:
                    after = self._trials_hook(fn)
                elif name == "capacity.blahut_arimoto":
                    after = self._ba_hook
                repl[id(fn)] = (fn, self.wrap(fn, name, after))
        modname, attr, name = CLI_ENTRY
        mod = sys.modules.get(modname)
        if mod is not None:
            fn = getattr(mod, attr)
            repl[id(fn)] = (fn, self.wrap(fn, name))
        return repl

    def _set(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        repl = self._replacements()
        for modname, mod in list(sys.modules.items()):
            if modname != "qshannon" and not modname.startswith("qshannon."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = repl.get(id(value))
                if hit is not None and hit[0] is value:
                    self._set(mod, attr, hit[1])
        for modname, cls, name in CONSTRUCTORS:
            klass = getattr(sys.modules[modname], cls)
            self._set(klass, "__post_init__", self.wrap(klass.__post_init__, name))
        cap = sys.modules.get("qshannon.capacity")
        if cap is not None:
            self._set(cap, "minimize", self._traced_minimize(cap.minimize))
        for kernel, name in KERNELS.items():
            after = self._qr_hook if kernel == "qr" else None
            self._set(np.linalg, kernel, self.wrap(getattr(np.linalg, kernel), name, after))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- results -------------------------------------------------------------

    def stat(self, name: str, kind: str) -> float:
        i = self._ids.get(name)
        if i is None:
            return 0
        return {"calls": self.calls, "self_s": self.self_time, "total_s": self.total}[kind][i]

    def dump(self, path) -> None:
        """Write the spans as arrays: name id, start, end, parent index, round."""
        arr = np.array(self.spans, dtype=[("name", "i4"), ("start", "f8"), ("end", "f8"),
                                          ("parent", "i8"), ("round", "i4")])
        np.savez(path, spans=arr, names=np.array(self.names))
