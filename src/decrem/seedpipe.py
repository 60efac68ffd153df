"""Seed construction: an initial density whose absorbed evolution loses a
programmed profile.

Given a nonnegative decrement profile gamma, solve (I - Q) zeta = gamma,
normalize rho = zeta / integral(zeta) and set alpha = 1 / integral(zeta).
Evolving rho to time T then satisfies p(., 0) - p(., T) = alpha * gamma up
to solver tolerances.  The profile enters only through its shape: it is
rescaled to unit sup before solving, so rho and the reported alpha are
invariant under gamma -> c * gamma and alpha always multiplies the profile
as exported in ``decrement.csv``.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    GammaNegative,
    GammaZero,
    NegativityViolation,
    ResidualTooLarge,
    VerificationFailed,
)
from .fredholm import ResolventReport, solve_resolvent
from .grid import DensityField, _write_json, mass, norm_sup
from .kolmogorov import _Stepper, evolve, mass_curve

GAMMA_KINDS = ("eigenmode", "bump", "tiles", "csv")


@dataclass(frozen=True)
class TargetProfile:
    """A validated decrement profile: nonnegative, not identically zero."""

    kind: str
    field: DensityField


def _validate_gamma(kind, field):
    v = field.values
    if np.any(v < 0.0):
        i = int(np.argmin(v))
        raise GammaNegative(
            f"gamma takes value {v[i]:.6g} < 0 at node {i}; the decrement "
            "profile must be nonnegative"
        )
    if not np.any(v > 0.0):
        raise GammaZero("gamma is identically zero")
    return TargetProfile(kind=kind, field=field)


def realize_gamma(grid, spec):
    """Build a :class:`TargetProfile` from a config mapping.

    Kinds: ``eigenmode`` (product of half-period sines), ``bump``
    (indicator of a sub-box), ``tiles`` (piecewise constants on a regular
    partition, row-major values), ``csv`` (field file).
    """
    kind = spec.get("kind")
    if kind not in GAMMA_KINDS:
        raise ValueError(f"unknown gamma kind {kind!r}, expected one of {GAMMA_KINDS}")
    if kind == "eigenmode":
        def fn(*coords):
            out = 1.0
            for k, c in enumerate(coords):
                out = out * np.sin(
                    np.pi * (c - grid.lo[k]) / (grid.hi[k] - grid.lo[k])
                )
            return out

        field = DensityField.from_function(grid, fn)
        # sampled sine is positive at every cell center; clip stray round-off
        field = field.with_values(np.maximum(field.values, 0.0))
    elif kind == "bump":
        lo = np.asarray(spec["lo"], dtype=float)
        hi = np.asarray(spec["hi"], dtype=float)
        value = float(spec.get("value", 1.0))
        pts = grid.nodes()
        inside = np.all((pts >= lo) & (pts < hi), axis=1)
        field = DensityField(grid, np.where(inside, value, 0.0))
    elif kind == "tiles":
        shape = tuple(int(s) for s in spec["shape"])
        if len(shape) != grid.dim:
            raise ValueError(f"tiles shape {shape} does not match dim {grid.dim}")
        values = np.asarray(spec["values"], dtype=float).reshape(shape)
        pts = grid.nodes()
        idx = []
        for k in range(grid.dim):
            width = (grid.hi[k] - grid.lo[k]) / shape[k]
            ik = np.floor((pts[:, k] - grid.lo[k]) / width).astype(int)
            idx.append(np.clip(ik, 0, shape[k] - 1))
        field = DensityField(grid, values[tuple(idx)])
    else:
        field = DensityField.from_csv(grid, spec["file"])
    return _validate_gamma(kind, field)


@dataclass
class SeedSolution:
    """Everything :func:`run_seed` produces, ready for export."""

    gamma: TargetProfile  # sup-normalized profile actually solved for
    u0: DensityField
    uT: DensityField
    rho: DensityField
    alpha: float
    residual: float
    negativity: float
    resolvent: ResolventReport
    mass_curve: list
    decrement: DensityField

    def save(self, directory):
        """Write rho/u0/uT/decrement CSVs and report.json; returns file names."""
        os.makedirs(directory, exist_ok=True)
        names = ["rho.csv", "u0.csv", "uT.csv", "decrement.csv"]
        self.rho.to_csv(os.path.join(directory, "rho.csv"))
        self.u0.to_csv(os.path.join(directory, "u0.csv"))
        self.uT.to_csv(os.path.join(directory, "uT.csv"))
        self.decrement.to_csv(os.path.join(directory, "decrement.csv"))
        report = {
            "alpha": self.alpha,
            "residual": self.residual,
            "negativity": self.negativity,
            "iterations": self.resolvent.iterations,
            "method": self.resolvent.method,
            "mass_curve": [[t, m] for t, m in self.mass_curve],
        }
        _write_json(os.path.join(directory, "report.json"), report)
        return names + ["report.json"]


def _unit_sup(field):
    """The profile rescaled to unit sup, the shape both checks measure."""
    return field.with_values(field.values / norm_sup(field))


def _decrement(model, grid, config, rho, alpha, gamma, T, step=None):
    """Evolve rho over [0, T] once, through ``step`` if given: the sup
    residual of p(., 0) - p(., T) = alpha * gamma for a unit-sup ``gamma``,
    the decrement p(., 0) - p(., T) and the mass curve."""
    traj = evolve(model, grid, config, rho, 0.0, T, step=step)
    decrement = traj.states[0] - traj.states[-1]
    residual = float(np.abs(decrement - alpha * gamma.values).max())
    return residual, DensityField(grid, decrement), mass_curve(traj)


def run_seed(
    model,
    grid,
    config,
    gamma,
    T,
    tol=1e-6,
    resolvent_tol=None,
    resolvent_max_iter=200,
    eps_neg=None,
):
    """Construct the seed density for a decrement profile.

    ``tol`` bounds the end-to-end sup residual of p(., 0) - p(., T) =
    alpha * gamma, measured on the sup-normalized profile.  The resolvent
    is solved tighter (default ``min(1e-9, tol * 1e-3)``) so the recomputed
    trajectory stays within budget.
    """
    if isinstance(gamma, DensityField):
        gamma = _validate_gamma("csv", gamma)
    if config.scheme != "implicit-euler":
        raise ValueError(
            "seed construction requires the positivity-certified implicit-euler scheme"
        )
    gamma = TargetProfile(gamma.kind, _unit_sup(gamma.field))
    if resolvent_tol is None:
        resolvent_tol = min(1e-9, tol * 1e-3)
    # the construction march below goes through the same operator, so it
    # reuses the factor the resolvent's applications made; the stepper dies
    # with this call, before any refined check allocates its own
    step = _Stepper(model, grid, config, 0.0, T)
    report = solve_resolvent(
        model, grid, config, gamma.field, T,
        tol=resolvent_tol, max_iter=resolvent_max_iter, step=step,
    )
    u0 = report.zeta.values.copy()
    if eps_neg is None:
        eps_neg = 1e-10 * max(float(u0.max()), 0.0)
    worst = float(min(u0.min(), 0.0))
    if worst < -eps_neg:
        raise NegativityViolation(
            f"u(., 0) reaches {worst:.3e} < -eps_neg = {-eps_neg:.3e}; "
            "refine the grid or use the monotone scheme"
        )
    u0[(u0 < 0.0)] = 0.0
    u0_field = DensityField(grid, u0)
    total = mass(u0_field)
    if not total > 0.0:
        raise NegativityViolation("u(., 0) carries no mass after clamping")
    alpha = 1.0 / total
    rho = DensityField(grid, alpha * u0)
    residual, decrement, curve = _decrement(
        model, grid, config, rho, alpha, gamma.field, T, step
    )
    if residual > tol:
        raise ResidualTooLarge(
            f"decrement residual {residual:.3e} exceeds tol {tol:g}",
            residual=residual,
        )
    return SeedSolution(
        gamma=gamma,
        u0=u0_field,
        uT=report.q_zeta,
        rho=rho,
        alpha=alpha,
        residual=residual,
        negativity=worst,
        resolvent=report,
        mass_curve=curve,
        decrement=decrement,
    )


def check_contract(model, grid, config, rho, alpha, gamma, T, tol):
    """Re-measure the decrement of a stored solution on the construction's
    own time grid, as :func:`run_seed` measured it, and raise
    :class:`VerificationFailed` when its residual exceeds ``tol`` (or is not
    finite).  The refined check of :func:`verify_seed` cannot see a
    residual under its O(dt) floor; this one can."""
    residual = _decrement(model, grid, config, rho, alpha, _unit_sup(gamma), T)[0]
    if not residual <= tol:
        raise VerificationFailed(
            f"stored rho and alpha miss the decrement on the {config.n_steps}-step "
            f"grid by {residual:.3e} > residual_tol {tol:g}"
        )


@dataclass
class VerificationReport:
    """Outcome of independently re-evolving a seed density."""

    residual_refined: float
    mass_decreasing: bool
    mass_curve: list
    passed: bool

    def to_json_dict(self, residual_stored):
        """verification.json: the refined check beside the residual that
        the construction stored."""
        return {
            "residual_stored": residual_stored,
            "residual_refined": self.residual_refined,
            "mass_decreasing": self.mass_decreasing,
            "mass_curve": [[t, m] for t, m in self.mass_curve],
            "passed": self.passed,
        }


def verify_seed(model, grid, config, rho, alpha, gamma, T, tol=5e-3):
    """Re-evolve rho over [0, T] with doubled n_steps and re-measure the
    decrement against ``alpha`` times ``gamma`` rescaled to unit sup, as
    :func:`run_seed` measures it.

    The refined march does not share the construction's time grid, so its
    residual floor is the first-order-in-dt difference between the two
    discrete operators rather than the resolvent tolerance; ``tol`` must
    sit above that floor (about 3e-3 for 64 implicit-euler steps over
    T=0.5, shrinking linearly in dt).  A tampered rho or alpha shows up as
    a residual an order of magnitude beyond it.  The mass curve of the
    refined trajectory must decrease strictly.
    """
    refined = replace(config, n_steps=2 * config.n_steps)
    residual, _, curve = _decrement(model, grid, refined, rho, alpha, _unit_sup(gamma), T)
    masses = np.array([m for _, m in curve])
    decreasing = bool(np.all(np.diff(masses) < 0.0))
    return VerificationReport(
        residual_refined=residual,
        mass_decreasing=decreasing,
        mass_curve=curve,
        passed=residual <= tol and decreasing,
    )


def load_solution(grid, directory):
    """Reload what verification of a saved solution directory reads: rho,
    u0 and the report, as written.  The profile to check against comes from
    the run config, not from the stored decrement.

    A file that is missing or does not parse raises
    :class:`VerificationFailed` naming it; a field table that does not
    match ``grid`` raises ShapeMismatch.
    """

    def read(name, parse):
        path = os.path.join(directory, name)
        try:
            return parse(path)
        except (OSError, ValueError) as exc:  # ValueError: bad JSON, number or encoding
            raise VerificationFailed(f"cannot read {path}: {exc}") from exc

    def field(path):
        return DensityField.from_csv(grid, path)

    def report(path):
        with open(path) as fh:
            return json.load(fh)

    return read("rho.csv", field), read("u0.csv", field), read("report.json", report)
