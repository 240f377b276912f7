import os

# one BLAS thread, set before numpy loads: test values then do not depend on
# the host's core count, and the large Monte Carlo checks shard across CPUs
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest

from qshannon._rng import stream
from qshannon.linalg import (
    DensityOperator,
    SubsystemLayout,
    haar_random_pure,
    layout,
    random_mixed_state,
)


@pytest.fixture
def rng():
    return stream(987654321, 0)


def random_state(dims, labels, seed, index=0, env_dim=None):
    lay = SubsystemLayout(tuple(dims), tuple(labels))
    kwargs = {} if env_dim is None else {"env_dim": env_dim}
    return random_mixed_state(lay, stream(seed, index), **kwargs)


def random_pure(dims, labels, seed, index=0):
    lay = SubsystemLayout(tuple(dims), tuple(labels))
    return haar_random_pure(lay, stream(seed, index))
