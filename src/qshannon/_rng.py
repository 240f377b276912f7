"""Counter-based random number streams.

Every stochastic routine in the package draws from a Philox stream keyed by
(seed, stream index).  Trial t of a Monte Carlo run uses stream(seed, t), so
results are reproducible regardless of how trials are batched or sharded.
"""

import numpy as np

_KEY_MASK = 0xFFFFFFFFFFFFFFFF

# bound on the complex entries of one stacked per-trial array in a chunk of
# trials; a trial larger than this runs alone
CHUNK_ENTRIES = 2 ** 12


def stream(seed: int, index: int = 0) -> np.random.Generator:
    """Return the generator for stream `index` of the run keyed by `seed`."""
    key = np.array([np.uint64(seed & _KEY_MASK),
                    np.uint64(index & _KEY_MASK)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def normal_pairs(seed: int, start: int, stop: int,
                 shape: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """(re, im) arrays of shape (stop - start, *shape) whose row t - start
    holds the two draws stream(seed, t).standard_normal(shape) makes in turn.

    One Philox generator is re-keyed for every trial (key (seed, t), counter
    0, empty buffer), which is the state stream(seed, t) starts from, at a
    fraction of the cost of building a generator per trial."""
    bitgen = np.random.Philox(key=0)
    gen = np.random.Generator(bitgen)
    state = bitgen.state
    state["state"]["counter"] = np.zeros(4, dtype=np.uint64)
    state.update(buffer_pos=4, has_uint32=0, uinteger=0)
    re = np.empty((stop - start,) + tuple(shape))
    im = np.empty_like(re)
    for row, t in enumerate(range(start, stop)):
        state["state"]["key"] = np.array([seed & _KEY_MASK, t & _KEY_MASK], dtype=np.uint64)
        bitgen.state = state
        gen.standard_normal(out=re[row])
        gen.standard_normal(out=im[row])
    return re, im


def trial_chunks(trials: int, entries: int):
    """Contiguous trial ranges [a, b) that cover range(trials).  A chunk holds
    as many trials as keep a stacked array of `entries` complex entries per
    trial within CHUNK_ENTRIES, and at least one."""
    step = max(1, CHUNK_ENTRIES // entries)
    for a in range(0, trials, step):
        yield a, min(a + step, trials)


def check_trials(trials: int) -> None:
    """Refuse a Monte Carlo run too small to give a sample standard error."""
    if trials < 2:
        raise ValueError(f"a Monte Carlo standard error needs at least 2 trials, got {trials}")


def as_generator(seed_or_rng) -> np.random.Generator:
    """Accept either an integer seed or an existing Generator."""
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return stream(int(seed_or_rng))
