"""qelm_lab: a desk-scale laboratory for quantum extreme learning machines
under configurable noise, with error mitigation and uncertainty metrics."""

__version__ = "0.1.0"

from .circuit import (  # noqa: F401
    Circuit,
    Gate,
    compose,
    fold_to_scale,
    from_text,
    inverse,
    to_text,
)
from .noise import (  # noqa: F401
    KrausChannel,
    NoiseProfile,
    bundled_profile,
    channel_for_gate,
    load_profile,
    zero_noise_profile,
)
from .simulator import (  # noqa: F401
    DensityMatrix,
    OutcomeDistribution,
    ShotCounts,
    StateVector,
    measure_distribution,
    run_ideal,
    run_noisy,
    sample,
)
