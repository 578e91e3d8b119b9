"""Simulation and verification lab for a quasilinear SPDE on the torus.

The equation is du/dt - div A(grad u) = dv/dt + div j with periodic
boundary conditions, driven by the stochastic heat solution v of a
trace-class Gaussian noise.  The package samples v exactly in law by
spectral synthesis, solves for the difference w = u - v with a
conservative flux-form scheme, estimates parabolic Hoelder norms, and
runs seeded Monte Carlo campaigns over noise realizations.
"""

from .config import ConfigError, ExperimentConfig, config_hash, parse_config, serialize
from .hoelder import (
    C2_EQUIVALENCE,
    HoelderReport,
    c1alpha_seminorm,
    centered_gradient,
    seminorm_dyadic,
    seminorm_naive,
)
from .mc_harness import (
    CampaignFailure,
    CovarianceCheck,
    GapStudy,
    IncrementScalingFit,
    McRecord,
    McStats,
    TailFit,
    covariance_check,
    increment_scaling_fit,
    regularity_gap_study,
    run_campaign,
    tail_fit,
)
from .nonlinearity import (
    EllipticityReport,
    Nonlinearity,
    builtin,
    verify_ellipticity,
)
from .solver import (
    GRAD_V_NEGATED,
    ContractionReport,
    SolverConfig,
    Trajectory,
    contraction_test,
    solve,
)
from .spectral_noise import (
    CovarianceSpec,
    Field,
    ModeSet,
    NoisePath,
    choose_kmax,
    covariance_closed_form,
    evaluate_field,
    make_mode_set,
    read_qspd,
    sample_mode_states,
    write_qspd,
)

__version__ = "0.1.0"

__all__ = [
    "C2_EQUIVALENCE",
    "CampaignFailure",
    "ConfigError",
    "ContractionReport",
    "CovarianceCheck",
    "CovarianceSpec",
    "EllipticityReport",
    "ExperimentConfig",
    "Field",
    "GRAD_V_NEGATED",
    "GapStudy",
    "HoelderReport",
    "IncrementScalingFit",
    "McRecord",
    "McStats",
    "ModeSet",
    "NoisePath",
    "Nonlinearity",
    "SolverConfig",
    "TailFit",
    "Trajectory",
    "builtin",
    "c1alpha_seminorm",
    "centered_gradient",
    "choose_kmax",
    "config_hash",
    "contraction_test",
    "covariance_check",
    "covariance_closed_form",
    "evaluate_field",
    "increment_scaling_fit",
    "make_mode_set",
    "parse_config",
    "read_qspd",
    "regularity_gap_study",
    "run_campaign",
    "sample_mode_states",
    "seminorm_dyadic",
    "seminorm_naive",
    "serialize",
    "solve",
    "tail_fit",
    "verify_ellipticity",
    "write_qspd",
]
