"""Counter-based random number streams, and `run_trials`, the one loop over
the trials of every stacked Monte Carlo experiment.

Every stochastic routine in the package draws from a Philox stream keyed by
(seed, stream index).  Trial t of a Monte Carlo run uses stream(seed, t), so
per-trial results do not depend on how `run_trials` cuts the trials into
chunks or shards them across processes, at a fixed BLAS thread setting.

A trial loop need not construct stream(seed, t) for each trial:
`keyed_stream(seed, t)` re-keys one Philox generator per thread to the
state stream(seed, t) starts from and returns it, so the trial's draws are
the same numbers at a fraction of the cost.  The returned generator is
valid only until the next re-key on the same thread.
"""

import math
import multiprocessing
# a fork pool's first start imports these two; load them with the package
import multiprocessing.popen_fork  # noqa: F401
import multiprocessing.synchronize  # noqa: F401
import os
import threading
from concurrent.futures import ProcessPoolExecutor

import numpy as np

_KEY_MASK = 0xFFFFFFFFFFFFFFFF

# bound on the complex entries of one stacked per-trial array in a chunk of
# trials; a trial larger than this runs alone
CHUNK_ENTRIES = 2 ** 12

# a run is sharded across forked workers only when one trial's largest
# stacked array has at least this many complex entries (the 512 x 512 QR);
# below it a pool's start-up costs more than it saves
SHARD_ENTRIES = 2 ** 18

# a run is refused when one trial's largest stacked array has more complex
# entries: at a peak of about 90 bytes an entry (old hole, n = 9-11), 1.4 GB
MAX_ENTRIES = 2 ** 24

_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_CAN_SHARD = ("fork" in multiprocessing.get_all_start_methods()
             and hasattr(os, "sched_getaffinity"))

_local = threading.local()


def stream(seed: int, index: int = 0) -> np.random.Generator:
    """Return the generator for stream `index` of the run keyed by `seed`."""
    key = np.array([int(seed) & _KEY_MASK, int(index) & _KEY_MASK], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _keyed_generator():
    """This thread's Philox generator and the plain-list state that
    `keyed_stream` and `normal_pairs` re-key it from, made once per thread:
    a new Philox gathers OS entropy before its key is set."""
    try:
        return _local.keyed
    except AttributeError:
        bitgen = np.random.Philox(key=0)
        state = {"bit_generator": "Philox", "state": {"counter": [0, 0, 0, 0], "key": [0, 0]},
                 "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
        _local.keyed = bitgen, np.random.Generator(bitgen), state
        return _local.keyed


def keyed_stream(seed: int, index: int = 0) -> np.random.Generator:
    """This thread's generator, re-keyed to the state stream(seed, index)
    starts from (key (seed, index), counter 0, empty buffer): it makes the
    draws stream(seed, index) makes.  It is valid only until the next
    re-key on the same thread (a keyed_stream or normal_pairs call)."""
    bitgen, gen, state = _keyed_generator()
    key = state["state"]["key"]
    key[0] = int(seed) & _KEY_MASK
    key[1] = int(index) & _KEY_MASK
    bitgen.state = state
    return gen


def normal_pairs(seed: int, start: int, stop: int,
                 shape: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """(re, im) arrays of shape (stop - start, *shape) whose row t - start
    holds the two draws stream(seed, t).standard_normal(shape) makes in turn.

    One Philox generator is re-keyed for every trial, as `keyed_stream`
    does, with the seed half of the key set once for the whole range, and
    makes one draw of shape (2, *shape): the generator just continues from
    the first half into the second, as it does between two draws."""
    bitgen, gen, state = _keyed_generator()
    key = state["state"]["key"]
    key[0] = int(seed) & _KEY_MASK
    buf = np.empty((stop - start, 2) + tuple(shape))
    for row, t in enumerate(range(start, stop)):
        key[1] = t & _KEY_MASK
        bitgen.state = state
        gen.standard_normal(out=buf[row])
    return buf[:, 0], buf[:, 1]


def trial_chunks(stop: int, entries: int, start: int = 0):
    """Contiguous trial ranges [a, b) that cover range(start, stop).  A chunk
    holds as many trials as keep a stacked array of `entries` complex entries
    per trial within CHUNK_ENTRIES, and at least one."""
    step = max(1, CHUNK_ENTRIES // entries)
    for a in range(start, stop, step):
        yield a, min(a + step, stop)


def _blas_threads(cpus: int) -> int:
    """Threads each BLAS call may use: the first positive integer among the
    BLAS thread variables, else every CPU (the BLAS default)."""
    for var in _BLAS_VARS:
        try:
            threads = int(os.environ.get(var, ""))
        except ValueError:
            continue
        if threads > 0:
            return threads
    return cpus


def shard_workers(trials: int, entries: int) -> int:
    """Forked worker processes for a run of `trials` trials whose largest
    stacked per-trial array has `entries` complex entries; 1 means in process.

    Workers times BLAS threads never exceeds the CPUs this process may run
    on, so with BLAS left at its default (every CPU) nothing is sharded.  A
    run is kept in process below SHARD_ENTRIES, where fork is unavailable,
    while another Python thread is alive (fork copies no thread but the
    caller's), and inside a worker (which may not fork again)."""
    if (entries < SHARD_ENTRIES or not _CAN_SHARD or threading.active_count() > 1
            or multiprocessing.current_process().daemon):
        return 1
    cpus = len(os.sched_getaffinity(0))
    return max(1, min(trials, cpus // _blas_threads(cpus)))


def _run_range(kernel, args: tuple, entries: int, lo: int, hi: int) -> np.ndarray:
    """The chunks of trials lo..hi-1, run one by one and joined in trial order."""
    return np.concatenate([kernel(*args, a, b) for a, b in trial_chunks(hi, entries, lo)], -1)


def run_trials(kernel, trials: int, entries: int, *args) -> np.ndarray:
    """The per-trial values of trials 0..trials-1, along the last axis.  One
    call kernel(*args, a, b) computes each `trial_chunks` chunk a..b-1, where
    `entries` is the kernel's largest stacked per-trial array, and the chunks
    are joined in trial order.  `check_trials` and `check_entries` refuse first.

    When `shard_workers` gives more than one worker, [0, trials) is split
    into one contiguous range per worker, and each worker runs its range's
    chunks.  Since trial t draws from stream(seed, t), the result is
    bit-identical to the in-process run.  The kernel must be a module-level
    function; the pool lives only for this call.  Validate the arguments
    before calling: an exception raised in a worker is raised again here."""
    check_trials(trials)
    check_entries(entries)
    workers = shard_workers(trials, entries)
    if workers == 1:
        return _run_range(kernel, args, entries, 0, trials)
    cut = [trials * i // workers for i in range(workers + 1)]
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
        parts = [pool.submit(_run_range, kernel, args, entries, *r) for r in zip(cut, cut[1:])]
        return np.concatenate([part.result() for part in parts], axis=-1)


def check_trials(trials: int) -> None:
    """Refuse a Monte Carlo run too small to give a sample standard error."""
    if trials < 2:
        raise ValueError(f"a Monte Carlo standard error needs at least 2 trials, got {trials}")


def check_entries(entries: int) -> None:
    """Refuse a run that needs an array of more than MAX_ENTRIES complex entries."""
    if entries > MAX_ENTRIES:
        raise ValueError(f"dimension guard: {entries} complex entries exceed the cap {MAX_ENTRIES}")


def stderr(x: np.ndarray) -> float:
    """Sample standard error of the mean of the per-trial values x."""
    return float(x.std(ddof=1) / math.sqrt(x.size))


def as_generator(seed_or_rng) -> np.random.Generator:
    """Accept either an integer seed or an existing Generator."""
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return stream(int(seed_or_rng))
