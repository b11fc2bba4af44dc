"""Nonsmooth differential calculus toolkit.

First-order set-valued approximation certificates and their calculus,
convex-cone transversality and separation verdicts, ODE flows of Lipschitz
vector fields, and mollification/sampling estimators for generalized
Jacobians and set-valued Lie brackets, wired to a scenario-driven CLI.
"""

from .certificates import (
    CurveData,
    QdqCertificate,
    VerificationReport,
    absvalue_certificate,
    absvalue_qdq,
    abundant_membership,
    abundant_transfer,
    combine_certificates,
    compose_certificates,
    curve_certificate,
    curve_qdq,
    falsify_curve_qdq,
    minimal_curve_qdq,
    one_sided_derivatives,
    singleton_qdq_check,
    verify_certificate,
)
from .cones import (
    ConvexCone,
    PairAnalysis,
    SeparationCertificate,
    analyze_pair,
    analyze_pairs,
    conic_hull,
    image_cone,
    is_full_space,
    polar_cone,
)
from .core import (
    BlowUpError,
    DimensionMismatchError,
    DomainEscapeError,
    EstimatorFailedError,
    GammaSet,
    InexactHausdorffError,
    LinearMap,
    NonFiniteValueError,
    OperatorSet,
    convex_hull_points,
    dist_to_operator_set,
    hausdorff_distance,
)
from .flows import Box, FlowSolverConfig, VectorField, default_config, flow, \
    multiflow_commutator
from .nonsmooth import (
    MollifierConfig,
    bracket_flow_direction,
    clarke_jacobian_estimate,
    fd_jacobian,
    lie_bracket_pointwise,
    mollify,
    set_lie_bracket_estimate,
)
from .separation import (
    MultiCone,
    ProbeReport,
    build_multicone,
    local_separation_probe,
    open_mapping_probe,
    separation_verdict,
)

__version__ = "0.1.0"
