"""walkops: ratio limits, boundary kernels and Fock-window operators of
random walks on finitely generated groups, at finite truncation."""

import os

# walkops makes no multithreaded BLAS call, and an idle OpenBLAS worker spins
# for ~0.1 s of CPU after numpy loads: pin one thread before the first import.
if not {"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"} & os.environ.keys():
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

from ._backend import BACKEND as kernel_backend
from .groups import (
    FreeGroup,
    GroupDescriptor,
    LamplighterGroup,
    LatticeGroup,
    ProductGroup,
    descriptor_from_string,
)
from .measures import (
    RadialMeasure,
    ScaledMeasure,
    convolve,
    parse_measure,
    radial_reduce,
    validate_measure,
)
from .powers import (
    PowersCache,
    convolution_powers,
    export_cache_json,
    import_cache_json,
    is_aperiodic,
)
from .ratiolimit import (
    BoundConstants,
    KernelEntry,
    KernelTable,
    bound_constants,
    boundary_trace,
    closed_form_H_free_isotropic,
    detect_radical,
    estimate_H,
    ratio_metric,
    log_ratio_sequence,
)
from .spectral import (
    GreenValue,
    MartinTable,
    SpectralEstimate,
    green,
    local_limit_exponent,
    martin_kernel,
    spectral_radius,
)

__version__ = "0.1.0"
