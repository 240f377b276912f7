"""qshannon benchmark: four workloads of rounds of public qshannon calls.

    python3 perfbench/run.py --workload {haar_small,mirror,optimize,coding}
                             --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; qshannon is imported from ./src.
A run makes a fixed work budget of round(S * ROUNDS_PER_SECOND) timed rounds
(about S seconds at the reference commit), after one untimed warm-up round,
on one BLAS thread.  Every round's outputs are checked against the
benchmark's own computations, outside the timed region.

--trace 0 prints the end-to-end metrics (setup_s, wall_s, op_p50_s,
peak_rss_mb); --trace 1 repeats the same rounds with wrappers around the
public qshannon functions and numpy.linalg kernels and prints the per-layer
metrics.  The last line of stdout is the JSON result; the line before it is
the run's provenance.  Files go to perfbench/out/.
"""

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "QSHANNON_THREADS")
for _var in THREAD_VARS:          # before numpy loads, here and in every probe
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_PROBES = 5        # fresh interpreters per untraced run; setup_s is their median
IMPORT_PROBES = 3       # fresh interpreters under -X importtime per traced run
PROBE_TIMEOUT_S = 60


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


# ---------------------------------------------------------------------------
# set-up probes
# ---------------------------------------------------------------------------

def parse_importtime(stderr: str) -> dict[str, float]:
    """Cumulative import seconds per module from `python -X importtime`."""
    out = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        out.setdefault(parts[2].strip(), int(parts[1]) / 1e6)
    return out


def run_probe(args, rounds: int, outdir: Path, importtime: bool):
    cmd = [sys.executable, *(("-X", "importtime") if importtime else ()),
           str(HERE / "probe.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--rounds", str(rounds), "--outdir", str(outdir)]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr[-2000:]}")
    ready = float(proc.stdout.strip().splitlines()[-1])
    return ready - start, parse_importtime(proc.stderr) if importtime else {}


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------

def git_commit():
    """HEAD of a git checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = git / ref
        if path.is_file():
            return path.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "qshannon").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def provenance(args) -> dict:
    import numpy
    import scipy

    deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return {
        "cpus": sorted(os.sched_getaffinity(0)),
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": blas.get("openblas configuration"),
                 "lapack": deps.get("lapack", {}).get("name")},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(),
        "source_sha256": source_digest(),
    }


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

def identical(a, b) -> bool:
    """Bit-for-bit equality of nested outputs (NaN equals NaN)."""
    import numpy as np

    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and all(
            identical(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return (isinstance(b, (list, tuple)) and len(a) == len(b)
                and all(identical(x, y) for x, y in zip(a, b)))
    if isinstance(a, (np.ndarray, float, np.floating)):
        return np.array_equal(np.asarray(a), np.asarray(b), equal_nan=True)
    return a == b


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------

def attempt(workload, inp, log):
    try:
        return workload.run(inp)
    except Exception:  # a raising call fails its round; the run goes on
        log.append(traceback.format_exc(limit=8))
        return None


def run(args, rounds: int, rundir: Path):
    import workloads
    from probe import setup

    workload = workloads.WORKLOADS[args.workload]
    log: list[str] = []
    report = {"rounds": rounds, "messages": log}

    probes = [run_probe(args, rounds, rundir / f"probe{i}", importtime=bool(args.trace))
              for i in range(IMPORT_PROBES if args.trace else SETUP_PROBES)]
    report["probe_setup_s"] = [s for s, _ in probes]

    inputs = setup(workload, args.seed, rounds, rundir / "main")
    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()

    outs = [attempt(workload, inputs[0], log)]           # warm-up, untimed
    gc.collect()
    if tracer:
        tracer.install()
    times, cpu_times = [], []
    start = time.perf_counter()
    for r in range(1, rounds + 1):
        if tracer:
            tracer.round = r
        t0, c0 = time.perf_counter(), time.process_time()
        outs.append(attempt(workload, inputs[r], log))
        times.append(time.perf_counter() - t0)
        cpu_times.append(time.process_time() - c0)
    wall = time.perf_counter() - start
    if tracer:
        tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    report["wall_s"] = wall
    report["round_s"] = times
    report["round_cpu_s"] = cpu_times

    # checks, outside the timed region
    failed, correct = 0, True
    for r, (inp, out) in enumerate(zip(inputs, outs)):
        if out is None:
            failed += 1
            continue
        msgs = workload.check(inp, out)
        if msgs:
            failed += 1
            correct = False
            log.extend(f"round {r}: {m}" for m in msgs)
    done = [o for o in outs if o is not None]
    run_msgs = workload.check_run(done) if done else []
    if run_msgs:
        correct = False
        log.extend(run_msgs)
    if outs[1] is not None:
        again = attempt(workload, inputs[1], log)
        if again is None or not identical(workload.repeatable(outs[1]),
                                          workload.repeatable(again)):
            correct = False
            log.append("determinism: round 1 did not repeat bit for bit")

    if tracer:
        from metrics import per_layer
        imports = {m: statistics.median(p[1].get(m, 0.0) for p in probes)
                   for m in {m for p in probes for m in p[1]}}
        metrics = per_layer(tracer, imports)
        tracer.dump(OUT / f"spans-{args.workload}.npz")
    else:
        metrics = {"setup_s": statistics.median(report["probe_setup_s"]),
                   "wall_s": wall,
                   "op_p50_s": statistics.median(times),
                   "peak_rss_mb": peak_rss_mb}
    return {"correct": correct, "attempted": len(outs), "failed": failed,
            "metrics": metrics}, report


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qshannon" / "__init__.py").is_file():
        print(f"error: no qshannon sources at {SRC.relative_to(ROOT)}/qshannon; "
              "run from the root of a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    from metrics import unit
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; have "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    rounds = max(1, round(args.seconds * workloads.WORKLOADS[args.workload].ROUNDS_PER_SECOND))
    OUT.mkdir(exist_ok=True)
    rundir = OUT / f"run-{args.workload}-{os.getpid()}"
    try:
        result, report = run(args, rounds, rundir)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    prov = provenance(args)
    result["metrics"] = {name: {"value": value, "unit": unit(name)}
                         for name, value in result["metrics"].items()}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"provenance": prov, "result": result, "report": report}, indent=1))
    for msg in report["messages"]:
        print(msg, file=sys.stderr)
    print(json.dumps({"provenance": prov}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
