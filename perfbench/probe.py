"""Set-up probe: one fresh interpreter that imports qshannon and everything a
workload's calls import lazily, makes the workload's inputs, and prints the
CLOCK_MONOTONIC time at which it was ready.  run.py starts several and takes
the median of (ready time - spawn time) as setup_s.

    python3 perfbench/probe.py --workload NAME --seed N --rounds R --outdir DIR
"""

import argparse
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def setup(workload, seed: int, rounds: int, outdir: Path) -> list:
    """Import qshannon and the workload's lazy imports; make the inputs of the
    warm-up round (0) and of timed rounds 1..rounds."""
    import importlib

    import workloads
    workloads.qs()
    for mod in workload.LAZY_IMPORTS:
        importlib.import_module(mod)
    outdir.mkdir(parents=True, exist_ok=True)
    return [workload.make_inputs(seed, r, outdir) for r in range(rounds + 1)]


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--rounds", type=int, required=True)
    p.add_argument("--outdir", required=True)
    args = p.parse_args()
    sys.path.insert(0, str(SRC))
    import workloads
    setup(workloads.WORKLOADS[args.workload], args.seed, args.rounds, Path(args.outdir))
    print(repr(time.monotonic()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
