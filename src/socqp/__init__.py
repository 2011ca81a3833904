"""Second-order cone relaxations of uniform and structured nonconvex QCQPs.

Builds the relaxations, certifies when they are exact (hidden convexity),
recovers exact or provably approximate solutions, and computes Chebyshev
centers of ball intersections with approximation certificates.
"""

from .chebyshev import (
    ChebyshevResult,
    beck_center,
    chebyshev_certified,
    gamma_balls,
    gamma_upper,
)
from .conesolver import ConeProgram, SocBlock, SolveOptions, SolverResult, solve
from .errors import SocqpError
from .linalg import SymMatrix
from .model import (
    BallIntersection,
    Bound,
    QcqpInstance,
    UqInstance,
    ilp_to_uq,
    translate_origin,
    uq_as_qcqp,
)
from .pipeline import solve_instance
from .recover import (
    ApproxCertificate,
    ApproxTrace,
    TightenTrace,
    approx_uq,
    gamma_uq,
    least_gamma,
    round_uq,
    tau_bar,
    tighten_qcqp,
    tighten_uq,
)
from .reformulate import (
    CertificateReport,
    ReformulationMeta,
    build_cr,
    build_cr2,
    build_etrs,
    build_socp_uq,
    build_trs,
    build_ttrs,
    build_vtrs,
    build_wd,
    certify_strong_duality,
    check_as3,
    check_condition_c,
    check_condition_cc,
    check_indefinite,
    dual_value,
    lift_set_onesided,
    lift_set_twosided,
    split_indefinite,
    wd_units,
)

__version__ = "0.1.0"

__all__ = [
    "ApproxCertificate",
    "ApproxTrace",
    "BallIntersection",
    "Bound",
    "CertificateReport",
    "ChebyshevResult",
    "ConeProgram",
    "QcqpInstance",
    "ReformulationMeta",
    "SocBlock",
    "SocqpError",
    "SolveOptions",
    "SolverResult",
    "SymMatrix",
    "TightenTrace",
    "UqInstance",
    "approx_uq",
    "beck_center",
    "build_cr",
    "build_cr2",
    "build_etrs",
    "build_socp_uq",
    "build_trs",
    "build_ttrs",
    "build_vtrs",
    "build_wd",
    "certify_strong_duality",
    "chebyshev_certified",
    "check_as3",
    "check_condition_c",
    "check_condition_cc",
    "check_indefinite",
    "dual_value",
    "gamma_balls",
    "gamma_uq",
    "gamma_upper",
    "ilp_to_uq",
    "least_gamma",
    "lift_set_onesided",
    "lift_set_twosided",
    "round_uq",
    "solve",
    "solve_instance",
    "split_indefinite",
    "tau_bar",
    "tighten_qcqp",
    "tighten_uq",
    "translate_origin",
    "uq_as_qcqp",
    "wd_units",
]
