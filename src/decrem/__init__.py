"""Seed densities with programmed decrement profiles for absorbed diffusions.

Given a diffusion on a box with absorption at the boundary, a horizon T
and a nonnegative profile gamma, the toolkit constructs a probability
density rho and a constant alpha > 0 such that the absorbed-process
density p satisfies

    p(., 0) = p(., T) + alpha * gamma.

The construction solves (I - Q) zeta = gamma where Q is the absorbed
transition operator over [0, T], then normalizes: alpha = 1 / mass(zeta),
rho = alpha * zeta.  Everything is verified a posteriori by re-evolving
rho with half the time steps and extrapolating to a refined step, which
also estimates the seed's time error.
"""

from .errors import (
    CapExceeded,
    ConfigError,
    EllipticityViolation,
    GammaNegative,
    GammaZero,
    LinearSolveFailure,
    NegativityViolation,
    NoConvergence,
    NotADensity,
    ResidualTooLarge,
    ShapeMismatch,
    ToolkitError,
    VerificationFailed,
)
from .fredholm import (
    OperatorMatrix,
    ResolventReport,
    SpectralEstimate,
    assemble_Q,
    propagator_action,
    resolvent_dense,
    singular_values,
    solve_resolvent,
    spectral_radius,
)
from .grid import DensityField, DomainGrid, make_grid, mass, norm_sup
from .kolmogorov import (
    SolverConfig,
    Trajectory,
    evolve,
    mass_curve,
    save_trajectory,
)
from .model import (
    DiffusionModel,
    constant_model,
    eval_a,
    load_tabulated,
    load_tabulated_series,
    ou_model,
    tabulated_model,
)
from .montecarlo import (
    MCEstimate,
    ParticleEnsemble,
    default_dt,
    estimate_density,
    sample_initial,
    simulate,
)
from .seedpipe import (
    SeedSolution,
    TargetProfile,
    VerificationReport,
    load_solution,
    realize_gamma,
    run_seed,
    verify_seed,
)

__version__ = "0.1.0"

__all__ = [
    "CapExceeded",
    "ConfigError",
    "DensityField",
    "DiffusionModel",
    "DomainGrid",
    "EllipticityViolation",
    "GammaNegative",
    "GammaZero",
    "LinearSolveFailure",
    "MCEstimate",
    "NegativityViolation",
    "NoConvergence",
    "NotADensity",
    "OperatorMatrix",
    "ParticleEnsemble",
    "ResidualTooLarge",
    "ResolventReport",
    "SeedSolution",
    "ShapeMismatch",
    "SolverConfig",
    "SpectralEstimate",
    "TargetProfile",
    "ToolkitError",
    "Trajectory",
    "VerificationFailed",
    "VerificationReport",
    "assemble_Q",
    "constant_model",
    "default_dt",
    "estimate_density",
    "eval_a",
    "evolve",
    "load_solution",
    "load_tabulated",
    "load_tabulated_series",
    "make_grid",
    "mass",
    "mass_curve",
    "norm_sup",
    "ou_model",
    "propagator_action",
    "realize_gamma",
    "resolvent_dense",
    "run_seed",
    "sample_initial",
    "save_trajectory",
    "simulate",
    "singular_values",
    "solve_resolvent",
    "spectral_radius",
    "tabulated_model",
    "verify_seed",
]
