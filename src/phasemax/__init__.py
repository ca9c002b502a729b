"""Anchored convex relaxation for phase retrieval.

Recovers a complex signal from noisy squared-magnitude measurements by
maximizing correlation with an anchor vector over the intersection of slab
constraints, with spectral anchor initialization, a matrix-free primal-dual
solver, and computable forms of the supporting recovery theory.
"""

from .numerics import (
    RngStream,
    phase_align_error,
    real_inner,
    sample_complex_gaussian,
    sample_rademacher,
)
from .measurements import (
    CodedDiffractionEnsemble,
    DenseEnsemble,
    NoiseModel,
    Observations,
    observe,
)
from .anchor import anchor_correlation, spectral_anchor
from .solver import (
    SolverConfig,
    feasibility_residual,
    solve_phasemax,
)
from .theory import (
    GeometryContext,
    check_certificate,
    empirical_pmin,
    in_C_delta,
    in_Cprime_delta,
    in_R_delta,
    measurement_cut_probability,
    pmin_lower_bound,
    rayleigh_normal_cdf,
    sample_complexity,
    sauer_bound,
    sauer_bound_loose,
    vc_deviation_bound,
)
from .experiments import (
    SweepConfig,
    run_cdp_demo,
    run_sweep,
    run_verify,
)

__version__ = "0.1.0"

__all__ = [
    "RngStream",
    "phase_align_error",
    "real_inner",
    "sample_complex_gaussian",
    "sample_rademacher",
    "CodedDiffractionEnsemble",
    "DenseEnsemble",
    "NoiseModel",
    "Observations",
    "observe",
    "anchor_correlation",
    "spectral_anchor",
    "SolverConfig",
    "feasibility_residual",
    "solve_phasemax",
    "GeometryContext",
    "check_certificate",
    "empirical_pmin",
    "in_C_delta",
    "in_Cprime_delta",
    "in_R_delta",
    "measurement_cut_probability",
    "pmin_lower_bound",
    "rayleigh_normal_cdf",
    "sample_complexity",
    "sauer_bound",
    "sauer_bound_loose",
    "vc_deviation_bound",
    "SweepConfig",
    "run_cdp_demo",
    "run_sweep",
    "run_verify",
]
