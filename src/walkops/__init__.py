"""walkops: ratio limits, boundary kernels and Fock-window operators of
random walks on finitely generated groups, at finite truncation."""

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
    radial_convolve,
    radial_reduce,
    tree_sphere_count,
    validate_measure,
)
from .powers import (
    PowersCache,
    convolution_powers,
    export_cache_json,
    import_cache_json,
    is_aperiodic,
    transition,
)
from .ratiolimit import (
    BoundConstants,
    ClosedFormFreeTable,
    ConstantKernelTable,
    KernelEntry,
    KernelTable,
    bound_constants,
    boundary_trace,
    cartesian_H,
    closed_form_H_free_isotropic,
    cocycle_check,
    detect_radical,
    estimate_H,
    martin_vs_ratio,
    ratio_metric,
    ratio_sequence,
    rho_harmonicity_check,
    srlp_diagnostic,
)
from .spectral import (
    GreenValue,
    MartinTable,
    SpectralEstimate,
    green,
    local_limit_exponent,
    martin_kernel,
    martin_metric,
    spectral_radius,
)

__version__ = "0.1.0"
