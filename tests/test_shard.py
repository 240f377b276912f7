"""The sharded trial loop (`_rng.run_trials`): forked workers over contiguous
trial ranges give the in-process values bit for bit, are sized from the CPU
affinity and the BLAS thread setting, and are used only for large trials.
Every stacked experiment runs through it."""

import json
import multiprocessing
import os
import subprocess
import sys
import textwrap
import threading
from pathlib import Path

import numpy as np
import pytest

from qshannon import _rng, cli
from qshannon import decoupling as dec
from qshannon import measure as mea
from qshannon.channels import amplitude_damping
from qshannon.linalg import SubsystemLayout, haar_random_pure, random_mixed_state

SRC = Path(__file__).resolve().parents[1] / "src"
BLAS_ONE = {var: "1" for var in _rng._BLAS_VARS}


def _pid_kernel(scale, lo, hi):
    """Trial indices times `scale`, and the process that computed each."""
    return np.array([np.arange(lo, hi) * scale, np.full(hi - lo, os.getpid())])


def _raising_kernel(lo, hi):
    raise ValueError(f"bad range {lo}:{hi}")


# ---------------------------------------------------------------------------
# bit identity of the sharded experiments, in a fresh interpreter on one BLAS
# thread
# ---------------------------------------------------------------------------

SHARD_SCRIPT = textwrap.dedent("""
    import json, multiprocessing, os, sys, threading
    import numpy as np
    from qshannon import _rng, coding, decoupling as dec, measure as mea
    from qshannon.channels import amplitude_damping
    from qshannon.linalg import DensityOperator, SubsystemLayout, haar_random_pure

    cases, lowered, one_cpu = json.loads(sys.argv[1])
    if one_cpu:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if lowered:
        _rng.SHARD_ENTRIES = 1
    pools = []

    class CountingPool(_rng.ProcessPoolExecutor):
        def __init__(self, workers, **kwargs):
            pools.append(workers)
            super().__init__(workers, **kwargs)

    def pure(d):
        m = np.zeros((d, d), dtype=complex)
        m[0, 0] = 1.0
        return DensityOperator(m, SubsystemLayout((d,), ("A",)))

    # every run_trials result, as the experiments' modules see it
    per_trial = []
    for mod in (dec, mea, coding):
        def recorded(*args, _run=mod.run_trials):
            out = _run(*args)
            per_trial.append(out.tobytes().hex())
            return out
        mod.run_trials = recorded

    def run(kind, n, age, trials):
        if kind == "mirror":
            return dec.black_hole_mirror_batch(n, 2, [2, 3], age, trials, 77)
        if kind == "projected":
            psi = haar_random_pure(SubsystemLayout((n, 2), ("R", "A")), _rng.stream(17, 0))
            return [dec.projected_decoupling_experiment(psi, amplitude_damping(0.3), 2,
                                                        trials, 29)]
        if kind == "entropy":
            return [dec.random_subsystem_entropy(n, 2, trials, 37)]
        if kind == "gain":
            return [mea.haar_information_gain(n, trials, 41)]
        if kind == "bsc":
            return [coding.bsc_random_code_sim(0.1, n, 0.3, trials, 5)]
        sigma = pure(n) if age == "pure" else dec.random_sigma_ae(n, 2, _rng.stream(5, 0))
        return [dec.decoupling_experiment(dec.DecouplingTrialSet(sigma, (2, n // 2), trials, 11))]

    def summary(reps):
        floats = [[v.hex() for v in vars(r).values() if isinstance(v, float)] for r in reps]
        out = [per_trial[:], floats]
        per_trial.clear()
        return out

    before = (threading.active_count(), len(multiprocessing.active_children()))
    _rng.ProcessPoolExecutor = CountingPool
    sharded = [summary(run(*case)) for case in cases]
    after = (threading.active_count(), len(multiprocessing.active_children()))
    _rng.shard_workers = lambda trials, entries: 1     # the kernel over [0, trials)
    serial = [summary(run(*case)) for case in cases]
    print(json.dumps({"same": [a == b for a, b in zip(sharded, serial)], "pools": pools,
                      "cpus": len(os.sched_getaffinity(0)), "before": before, "after": after}))
""")


def run_shard_script(cases, lowered=False, one_cpu=False) -> dict:
    env = {**os.environ, **BLAS_ONE, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", SHARD_SCRIPT,
                           json.dumps([cases, lowered, one_cpu])],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.parametrize("lowered,cases", [
    (False, [["mirror", 9, "old", 3], ["mirror", 9, "old", 5], ["decouple", 512, "pure", 3]]),
    (True, [["mirror", 6, "old", 3], ["mirror", 6, "old", 5], ["mirror", 8, "young", 3],
            ["mirror", 8, "young", 5], ["decouple", 8, "ae", 5], ["projected", 8, "", 5],
            ["entropy", 8, "", 5], ["gain", 16, "", 5], ["bsc", 10, "", 7]]),
], ids=["large_trials", "threshold_lowered"])
def test_sharded_runs_are_bit_identical_to_serial_kernel(lowered, cases):
    out = run_shard_script(cases, lowered)
    assert out["same"] == [True] * len(cases)
    expected = [min(case[-1], out["cpus"]) for case in cases]
    assert out["pools"] == [w for w in expected if w > 1]
    assert out["after"] == out["before"]


def test_one_cpu_runs_in_process():
    out = run_shard_script([["mirror", 9, "old", 3]], one_cpu=True)
    assert out["cpus"] == 1 and out["pools"] == [] and out["same"] == [True]


# ---------------------------------------------------------------------------
# the pool itself: order, errors, clean-up
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("trials,workers", [(5, 2), (7, 3), (2, 2)])
def test_ranges_join_in_trial_order(monkeypatch, trials, workers):
    monkeypatch.setattr(_rng, "shard_workers", lambda t, e: workers)
    before = (threading.active_count(), len(multiprocessing.active_children()))
    out = _rng.run_trials(_pid_kernel, trials, _rng.SHARD_ENTRIES, 3)
    assert np.array_equal(out[0], np.arange(trials) * 3)
    assert os.getpid() not in out[1]
    assert (threading.active_count(), len(multiprocessing.active_children())) == before


@pytest.mark.parametrize("trials", [0, 1])
def test_too_few_trials_refused_before_a_pool(monkeypatch, trials):
    monkeypatch.setattr(_rng, "shard_workers", lambda t, e: 2)
    monkeypatch.setattr(_rng, "ProcessPoolExecutor", _no_pool)
    with pytest.raises(ValueError, match="at least 2 trials"):
        _rng.run_trials(_raising_kernel, trials, _rng.SHARD_ENTRIES)


def test_worker_value_error_reaches_caller(monkeypatch):
    monkeypatch.setattr(_rng, "shard_workers", lambda t, e: 2)
    with pytest.raises(ValueError, match="bad range"):
        _rng.run_trials(_raising_kernel, 4, _rng.SHARD_ENTRIES)
    assert multiprocessing.active_children() == []


# ---------------------------------------------------------------------------
# the worker count, and when a run stays in process
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("env,trials,workers", [
    ({"OPENBLAS_NUM_THREADS": "1"}, 8, 4),
    ({"OPENBLAS_NUM_THREADS": "1"}, 3, 3),
    ({"OMP_NUM_THREADS": "2"}, 8, 2),
    ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "x", "MKL_NUM_THREADS": "2"}, 8, 2),
    ({"MKL_NUM_THREADS": "3"}, 8, 1),
    ({"OPENBLAS_NUM_THREADS": "8"}, 8, 1),
    ({}, 8, 1),
], ids=["blas1", "few_trials", "omp2", "first_positive", "blas3", "oversubscribed", "unset"])
def test_worker_count_from_affinity_and_blas(monkeypatch, env, trials, workers):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    for var in _rng._BLAS_VARS:
        monkeypatch.delenv(var, raising=False)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    assert _rng.shard_workers(trials, _rng.SHARD_ENTRIES) == workers
    assert _rng.shard_workers(trials, _rng.SHARD_ENTRIES - 1) == 1


def test_blas_default_runs_in_process(monkeypatch):
    for var in _rng._BLAS_VARS:
        monkeypatch.delenv(var, raising=False)
    out = _rng.run_trials(_pid_kernel, 4, 2 ** 20, 1)
    assert set(out[1].astype(int).tolist()) == {os.getpid()}


def test_second_thread_runs_in_process(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    assert _rng.shard_workers(4, 2 ** 20) == 4
    stop = threading.Event()
    other = threading.Thread(target=stop.wait)
    other.start()
    try:
        assert _rng.shard_workers(4, 2 ** 20) == 1
        out = _rng.run_trials(_pid_kernel, 4, 2 ** 20, 1)
        assert set(out[1].astype(int).tolist()) == {os.getpid()}
    finally:
        stop.set()
        other.join(timeout=10)
    assert not other.is_alive()


def _no_pool(*args, **kwargs):
    raise AssertionError("a process pool was created")


def test_small_runs_create_no_pool(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setattr(_rng, "ProcessPoolExecutor", _no_pool)
    # the CLI's n = 8 old hole and the young n = 10 hole
    cfg = tmp_path / "blackhole.json"
    cfg.write_text(json.dumps({"n": 8, "k": 2, "c": 2, "age": "old"}))
    assert cli.main(["blackhole", "--config", str(cfg), "--trials", "2", "--seed", "5"]) in (0, 1)
    assert capsys.readouterr().err == ""
    dec.black_hole_mirror(10, 2, 2, "young", 2, 9)
    # the small Haar experiments at their largest everyday sizes
    sigma = dec.random_sigma_ae(16, 4, _rng.stream(3, 0))
    dec.decoupling_experiment(dec.DecouplingTrialSet(sigma, (4, 4), 4, 5))
    mixed = random_mixed_state(SubsystemLayout((16,), ("A",)), _rng.stream(4, 0), env_dim=4)
    dec.decoupling_experiment(dec.DecouplingTrialSet(mixed, (8, 2), 4, 5))
    dec.expected_M_check(2, 2, 4, 6)
    psi = haar_random_pure(SubsystemLayout((4, 2), ("R", "A")), _rng.stream(5, 0))
    dec.projected_decoupling_experiment(psi, amplitude_damping(0.3), 2, 4, 7)
    for d1, d2 in ((8, 2), (4, 4)):
        dec.random_subsystem_entropy(d1, d2, 4, 8)
    for d in (2, 16):
        mea.haar_information_gain(d, 4, 9)


@pytest.mark.parametrize("numpy_first", [False, True])
def test_thread_cap_is_set_only_before_numpy_loads(numpy_first):
    # BLAS reads its thread variables when numpy loads; set later, they
    # would misstate its threads and oversubscribe the CPUs once sharded
    code = ("import os" + ("; import numpy" if numpy_first else "") + "\n"
            "from qshannon import _rng\n"
            "print(os.environ.get('OPENBLAS_NUM_THREADS'), _rng.shard_workers(64, 2 ** 20),"
            " len(os.sched_getaffinity(0)))")
    env = {k: v for k, v in os.environ.items() if k not in _rng._BLAS_VARS}
    env.update(QSHANNON_THREADS="1", PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    blas, workers, cpus = proc.stdout.split()
    if numpy_first:
        assert (blas, workers) == ("None", "1")
    else:
        assert (blas, int(workers)) == ("1", int(cpus))
