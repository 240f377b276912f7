"""Numerical toolkit for the computable core of quantum Shannon theory:
entropies and their inequalities, channels and capacities, typicality-based
coding simulators, generalized measurements, and decoupling experiments.
"""

__version__ = "0.1.0"

import os
import sys

# QSHANNON_THREADS caps BLAS threads.  BLAS reads its variables once, when
# numpy loads; set later, they would misstate its threads, and
# `_rng.shard_workers` sizes its worker count from them.
if os.environ.get("QSHANNON_THREADS") and "numpy" not in sys.modules:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS"):
        os.environ.setdefault(_var, os.environ["QSHANNON_THREADS"])

from .linalg import (  # noqa: F401
    DensityOperator,
    PureState,
    SubsystemLayout,
    density_from_matrix,
    haar_random_pure,
    haar_random_unitary,
    layout,
    maximally_mixed,
    partial_trace,
    purify,
    qubits,
    random_mixed_state,
    schmidt_decomposition,
    tensor,
    trace_distance,
)
from .entropy import (  # noqa: F401
    bipartite_entropies,
    coherent_information,
    conditional_mutual_classical,
    conditional_mutual_quantum,
    holevo_chi,
    relative_entropy_classical,
    relative_entropy_quantum,
    shannon_entropy,
    von_neumann_entropy,
)
from .channels import (  # noqa: F401
    KrausChannel,
    amplitude_damping,
    apply,
    bsc,
    choi_matrix,
    complementary,
    compose,
    degrading_map,
    depolarizing,
    dilate,
    erasure,
    is_degradable,
)
from .capacity import (  # noqa: F401
    blahut_arimoto,
    capacity_sweep,
    entanglement_assisted_capacity,
    holevo_chi_channel,
    one_shot_quantum_capacity,
)
from .measure import (  # noqa: F401
    POVM,
    accessible_info,
    entropic_uncertainty,
    haar_information_gain,
    pretty_good_measurement,
)
from .coding import (  # noqa: F401
    TypicalitySpec,
    bsc_random_code_sim,
    concentration_sim,
    schumacher_projector,
    schumacher_sim,
    slepian_wolf_sim,
    typical_set_census,
)
from .decoupling import (  # noqa: F401
    black_hole_mirror,
    decoupling_bound,
    decoupling_experiment,
    expected_M_check,
    random_subsystem_entropy,
)
