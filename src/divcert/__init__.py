"""divcert: exact dominance tests and diversification certificates.

Finite distributions with rational data, compared and certified without
any floating point: stochastic dominance of first and second order,
Expected Shortfall, the Kantorovich transport metric, and constructive
witnesses (permutation-weight certificates, martingale couplings, slack
lifts and truncation decompositions) that verify by exact arithmetic.
"""

from .certify import (
    CertificationError,
    DecompositionResult,
    LiftResult,
    MeansDifferError,
    SsdViolatedError,
    certify_bundle,
    certify_div1,
    decompose_ssd,
    lift_delta_gamma,
    mps_coupling,
    t_transform_chain,
)
from .dist import (
    DEFAULT_GRID_CAP,
    GridCapError,
    JointDist,
    SimpleDist,
    UniformGrid,
    as_rational,
    common_refinement,
    convex_combination,
    dirac,
    from_samples,
    mixture,
    quantize_values,
)
from .dominance import (
    MartingaleCoupling,
    PermutationCertificate,
    TTransform,
    check_fsd,
    check_majorization,
    check_ssd,
    fsd_violation,
    majorization_violation,
    verify_div1_certificate,
    verify_div2_instance,
    verify_mps_coupling,
)
from .risk import (
    ESCurve,
    es_curve,
    expected_shortfall,
    ssd_gap,
    ssd_violation,
)
from .transport import kantorovich, kantorovich_cdf

__version__ = "0.1.0"

__all__ = [
    "CertificationError",
    "DecompositionResult",
    "DEFAULT_GRID_CAP",
    "ESCurve",
    "GridCapError",
    "JointDist",
    "LiftResult",
    "MartingaleCoupling",
    "MeansDifferError",
    "PermutationCertificate",
    "SimpleDist",
    "SsdViolatedError",
    "TTransform",
    "UniformGrid",
    "as_rational",
    "certify_bundle",
    "certify_div1",
    "check_fsd",
    "check_majorization",
    "check_ssd",
    "common_refinement",
    "convex_combination",
    "decompose_ssd",
    "dirac",
    "es_curve",
    "expected_shortfall",
    "from_samples",
    "fsd_violation",
    "kantorovich",
    "kantorovich_cdf",
    "lift_delta_gamma",
    "majorization_violation",
    "mixture",
    "mps_coupling",
    "quantize_values",
    "ssd_gap",
    "ssd_violation",
    "t_transform_chain",
    "verify_div1_certificate",
    "verify_div2_instance",
    "verify_mps_coupling",
]
