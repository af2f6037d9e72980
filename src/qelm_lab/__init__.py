"""qelm_lab: a desk-scale laboratory for quantum extreme learning machines
under configurable noise, with error mitigation and uncertainty metrics."""

__version__ = "0.1.0"

import os

# One BLAS thread unless the caller set a count: the walks' products are
# small, so OpenBLAS's own threads double their CPU time and save no wall
# time, and --jobs runs repeats in threads of its own. This must run before
# numpy loads BLAS; it cannot act in a process that imported numpy first.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

from .circuit import (  # noqa: E402, F401
    Circuit,
    Gate,
    compose,
    fold_to_scale,
    from_text,
    inverse,
    to_text,
)
from .noise import (  # noqa: E402, F401
    KrausChannel,
    NoiseProfile,
    bundled_profile,
    channel_for_gate,
    load_profile,
    zero_noise_profile,
)
from .simulator import (  # noqa: E402, F401
    DensityMatrix,
    OutcomeDistribution,
    ShotCounts,
    StateVector,
    measure_distribution,
    run_ideal,
    run_noisy,
    sample,
)
