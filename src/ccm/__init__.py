"""Contraction-metric output-feedback control synthesis toolkit.

Pipeline: polynomial system models -> sum-of-squares feasibility programs
-> embedded semidefinite solver -> certified constant metrics -> explicit
polynomial controller/observer laws -> closed-loop simulation.

Module map:

    poly     sparse multivariate polynomials, Jacobians, line integrals
    sdp      dense interior-point SDP solver (homogeneous self-dual)
    sos      SOS constraint compilation and Gram certificates
    synth    controller/observer metric synthesis + pointwise verification
    geom     constant-metric distances and measurement-set projection
    realize  executable control/observer laws, ISS constants and envelope
    sim      one closed-loop core (open / state / output feedback), one RK4
             loop (RK45 for cross-checks), ISS bound integration, CSV traces
    cli      `ccm` command line (synthesize / verify / simulate / report)
"""

from .geom import MeasurementProjector, distance
from .poly import (
    Polynomial,
    PolyMatrix,
    jacobian,
    line_integral_unit,
    poly_from_text,
    poly_to_text,
)
from .realize import ControlLaw, ObserverLaw
from .sdp import (
    SdpProblem,
    SdpSolution,
    SdpStatus,
    SolveOptions,
    check_solution,
    solve,
)
from .sim import (
    SimConfig,
    SimTrace,
    decay_rate,
    iss_bound,
    limit_cycle_state,
    moore_greitzer,
    overshoot,
    run_open_loop,
    run_output_feedback,
    run_state_feedback,
)
from .sos import SosCertificate, SosConstraint, check_certificate, gram_basis, is_sos
from .synth import (
    ControllerMetric,
    ObserverMetric,
    Role,
    SystemModel,
    synthesize,
    verify_pointwise,
)

__version__ = "0.1.0"

__all__ = [
    "ControlLaw",
    "ControllerMetric",
    "MeasurementProjector",
    "ObserverLaw",
    "ObserverMetric",
    "PolyMatrix",
    "Polynomial",
    "Role",
    "SdpProblem",
    "SdpSolution",
    "SdpStatus",
    "SimConfig",
    "SimTrace",
    "SolveOptions",
    "SosCertificate",
    "SosConstraint",
    "SystemModel",
    "check_certificate",
    "check_solution",
    "decay_rate",
    "distance",
    "gram_basis",
    "is_sos",
    "iss_bound",
    "jacobian",
    "limit_cycle_state",
    "line_integral_unit",
    "moore_greitzer",
    "overshoot",
    "poly_from_text",
    "poly_to_text",
    "run_open_loop",
    "run_output_feedback",
    "run_state_feedback",
    "solve",
    "synthesize",
    "verify_pointwise",
]
