"""The one memory cap, `_rng.MAX_ENTRIES`: a run whose largest per-trial or
setup array has more complex entries is refused with a ValueError before any
draw or setup array, and the `qshannon` command exits 2 on it, and on any
MemoryError, with one stderr line."""

import json
import os
import resource
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest

import qshannon
from qshannon import _rng, linalg
from qshannon import decoupling as dec
from qshannon import measure as mea
from qshannon.channels import identity_channel
from qshannon.linalg import PureState, SubsystemLayout


class Drawn(Exception):
    """Raised in place of the Haar draw: the run got past every check."""


@pytest.fixture
def no_draws(monkeypatch):
    def drawn(*args):
        raise Drawn
    # haar_isometries and haar_states both draw through normal_pairs
    monkeypatch.setattr(linalg, "normal_pairs", drawn)
    monkeypatch.setattr(_rng, "_CAN_SHARD", False)


def _basis_pure(d_r, d_a):
    amps = np.zeros(d_r * d_a, dtype=complex)
    amps[0] = 1.0
    return PureState(amps, SubsystemLayout((d_r, d_a), ("R", "A")))


HOLES = {
    "old_hole_n14": lambda: dec.black_hole_mirror_batch(14, 1, [2], "old", 2, 1),
    "old_hole_huge_n": lambda: dec.black_hole_mirror_batch(10 ** 9, 1, [2], "old", 2, 1),
    "subsystem_1x2^14": lambda: dec.random_subsystem_entropy(1, 2 ** 14, 2, 1),
    "moments_8x16": lambda: dec.expected_M_check(8, 16, 2, 1),
    "info_gain_2^25": lambda: mea.haar_information_gain(2 ** 25, 2, 1),
}


@pytest.mark.parametrize("run", HOLES.values(), ids=HOLES.keys())
def test_hole_refused_before_any_work(no_draws, run):
    _assert_refused_at_once(run)


def test_projected_decoupling_refused_before_sigma_re(no_draws):
    # sigma_RE would be (|R||E|)^2 = 2^26 complex entries, 1 GiB
    psi = _basis_pure(2 ** 13, 2)
    channel = identity_channel(2)
    _assert_refused_at_once(lambda: dec.projected_decoupling_experiment(psi, channel, 2, 2, 1))


def _assert_refused_at_once(run):
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(ValueError, match="dimension guard"):
            run()
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20
    assert elapsed < 1.0


ADMITTED = {
    "old_hole_n12": lambda: dec.black_hole_mirror_batch(12, 1, [2], "old", 2, 1),
    "young_hole_n22_k2": lambda: dec.black_hole_mirror_batch(22, 2, [0], "young", 2, 1),
    "subsystem_4096x4096": lambda: dec.random_subsystem_entropy(4096, 4096, 2, 1),
    "info_gain_2^24": lambda: mea.haar_information_gain(2 ** 24, 2, 1),
}


@pytest.mark.parametrize("run", ADMITTED.values(), ids=ADMITTED.keys())
def test_largest_admitted_shapes_reach_the_draw(no_draws, run):
    with pytest.raises(Drawn):
        run()


def test_cap_is_inclusive():
    _rng.check_entries(_rng.MAX_ENTRIES)
    with pytest.raises(ValueError, match="dimension guard"):
        _rng.check_entries(_rng.MAX_ENTRIES + 1)


def _kernel(a, b):
    raise AssertionError("kernel ran")


def test_run_trials_checks_entries_before_the_kernel():
    with pytest.raises(ValueError, match="dimension guard"):
        _rng.run_trials(_kernel, 2, _rng.MAX_ENTRIES + 1)


@pytest.mark.parametrize("d1,d2", [(1, 1), (0, 2), (2, 0), (-1, -2), (-2, 2)])
def test_moment_check_refuses_degenerate_factors(d1, d2):
    with pytest.raises(ValueError, match="factors >= 1 and"):
        dec.expected_M_check(d1, d2, 3, 1)


@pytest.mark.parametrize("d1,d2", [(2, 1), (1, 2)])
def test_moment_check_admits_one_trivial_factor(d1, d2):
    rep = dec.expected_M_check(d1, d2, 3, 1)
    assert rep.empirical_mean.shape == (4, 4)


def _limit_address_space():
    # about 2 GiB in the child only, so a regression fails fast there
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


def _run_cli(tmp_path, config, *argv):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config))
    src = os.path.dirname(os.path.dirname(qshannon.__file__))
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
    return subprocess.run([sys.executable, "-m", "qshannon.cli", "--config", str(path), *argv],
                          capture_output=True, text=True, env=env, timeout=120,
                          preexec_fn=_limit_address_space)


@pytest.mark.parametrize("config,argv,word", [
    ({"command": "decouple", "dims": {"A1": 1024, "A2": 1024}}, ["--trials", "2"],
     "dimension guard"),
    ({"command": "blackhole", "n": 14, "k": 1, "trials": 2}, [], "dimension guard"),
    ({"command": "concentrate"}, ["--trials", str(10 ** 12)], "allocate"),
], ids=["decouple_1024x1024", "blackhole_n14", "concentrate_memory_error"])
def test_cli_exits_2_with_one_line(tmp_path, config, argv, word):
    proc = _run_cli(tmp_path, config, *argv)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1, proc.stderr
    assert word in proc.stderr
