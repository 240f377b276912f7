"""Counter-based random number streams.

Every stochastic routine in the package draws from a Philox stream keyed by
(seed, stream index).  Trial t of a Monte Carlo run uses stream(seed, t), so
results are reproducible regardless of how trials are sharded across workers.
"""

import numpy as np


def stream(seed: int, index: int = 0) -> np.random.Generator:
    """Return the generator for stream `index` of the run keyed by `seed`."""
    key = np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF),
                    np.uint64(index & 0xFFFFFFFFFFFFFFFF)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def check_trials(trials: int) -> None:
    """Refuse a Monte Carlo run too small to give a sample standard error."""
    if trials < 2:
        raise ValueError(f"a Monte Carlo standard error needs at least 2 trials, got {trials}")


def as_generator(seed_or_rng) -> np.random.Generator:
    """Accept either an integer seed or an existing Generator."""
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return stream(int(seed_or_rng))
