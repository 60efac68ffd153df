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
from .grid import DensityField, DomainGrid, _write_json, mass, norm_sup
from .kolmogorov import _step_times, evolve, mass_curve

GAMMA_KINDS = ("eigenmode", "bump", "tiles", "csv")


@dataclass(frozen=True)
class TargetProfile:
    """A validated decrement profile: finite, nonnegative, not identically zero."""

    field: DensityField


def _validate_gamma(field):
    v = field.values
    if not np.all(np.isfinite(v)):
        i = int(np.argmin(np.isfinite(v)))
        raise ValueError(f"gamma takes value {v[i]} at node {i}; it must be finite")
    if np.any(v < 0.0):
        i = int(np.argmin(v))
        raise GammaNegative(
            f"gamma takes value {v[i]:.6g} < 0 at node {i}; the decrement "
            "profile must be nonnegative"
        )
    if not np.any(v > 0.0):
        raise GammaZero("gamma is identically zero")
    return TargetProfile(field)


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
        if lo.shape != (grid.dim,) or hi.shape != (grid.dim,):
            raise ValueError(
                f"bump lo {lo.tolist()} and hi {hi.tolist()} need {grid.dim} entries each"
            )
        value = float(spec.get("value", 1.0))
        pts = grid.nodes()
        inside = np.all((pts >= lo) & (pts < hi), axis=1)
        field = DensityField(grid, np.where(inside, value, 0.0))
    elif kind == "tiles":
        shape = tuple(int(s) for s in spec["shape"])
        if len(shape) != grid.dim or min(shape) < 1:
            raise ValueError(f"tiles shape {shape} needs {grid.dim} entries >= 1")
        values = np.asarray(spec["values"], dtype=float).reshape(shape)
        # the tiles as cells of a coarse grid; make_grid would refuse < 4 per axis
        tiles = DomainGrid(grid.dim, grid.lo, grid.hi, shape)
        field = DensityField(grid, values.ravel()[tiles.cell_index(grid.nodes())])
    else:
        field = DensityField.from_csv(grid, spec["file"])
    return _validate_gamma(field)


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


def _decrement(model, grid, config, rho, alpha, gamma, T):
    """Evolve rho over [0, T] once: the sup residual of p(., 0) - p(., T) =
    alpha * gamma for a unit-sup ``gamma``, the decrement p(., 0) - p(., T)
    and the mass curve."""
    traj = evolve(model, grid, config, rho, 0.0, T)
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
    is solved tighter (default ``min(1e-9, tol * 1e-3)``) so that residual
    stays within budget.

    When the clamp of u0 removes nothing, rho = alpha * zeta and the
    resolvent's last application marched zeta: the decrement is
    rho - alpha * Q zeta, the mass curve alpha times that march's masses.
    Otherwise rho is marched once, through the resolvent's kept stepper.
    """
    if isinstance(gamma, DensityField):
        gamma = _validate_gamma(gamma)
    gamma = TargetProfile(_unit_sup(gamma.field))
    if resolvent_tol is None:
        resolvent_tol = min(1e-9, tol * 1e-3)
    report = solve_resolvent(
        model, grid, config, gamma.field, T, tol=resolvent_tol, max_iter=resolvent_max_iter
    )
    u0 = report.zeta.values.copy()
    if eps_neg is None:
        eps_neg = 1e-10 * max(float(u0.max()), 0.0)
    worst = float(min(u0.min(), 0.0))
    if worst < -eps_neg:
        raise NegativityViolation(
            f"u(., 0) reaches {worst:.3e} < -eps_neg = {-eps_neg:.3e}; "
            "refine the grid"
        )
    u0[(u0 < 0.0)] = 0.0
    u0_field = DensityField(grid, u0)
    total = mass(u0_field)
    if not total > 0.0:
        raise NegativityViolation("u(., 0) carries no mass after clamping")
    alpha = 1.0 / total
    rho = DensityField(grid, alpha * u0)
    if worst == 0.0:
        decrement = DensityField(grid, rho.values - alpha * report.q_zeta.values)
        residual = float(np.abs(decrement.values - alpha * gamma.field.values).max())
        curve = list(zip(_step_times(config, 0.0, T).tolist(), (alpha * report.masses).tolist()))
    else:
        residual, decrement, curve = _decrement(model, grid, config, rho, alpha, gamma.field, T)
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
    finite).  The Richardson check of :func:`verify_seed` cannot see a
    residual under its O(dt) floor; this one can.  Returns the K-grid
    decrement, which :func:`verify_seed` takes as ``decrement``."""
    residual, decrement, _ = _decrement(model, grid, config, rho, alpha, _unit_sup(gamma), T)
    if not residual <= tol:
        raise VerificationFailed(
            f"stored rho and alpha miss the decrement on the {config.n_steps}-step "
            f"grid by {residual:.3e} > residual_tol {tol:g}"
        )
    return decrement


@dataclass
class VerificationReport:
    """Outcome of independently re-evolving a seed density."""

    residual_refined: float
    time_error_est: float
    mass_decreasing: bool
    mass_curve: list
    passed: bool

    def to_json_dict(self, residual_stored):
        """verification.json: the Richardson check beside the residual that
        the construction stored."""
        return {
            "residual_stored": residual_stored,
            "residual_refined": self.residual_refined,
            "time_error_est": self.time_error_est,
            "mass_decreasing": self.mass_decreasing,
            "mass_curve": [[t, m] for t, m in self.mass_curve],
            "passed": self.passed,
        }


def verify_seed(model, grid, config, rho, alpha, gamma, T, tol=5e-3, decrement=None):
    """Check a seed against the continuous-time contract by Richardson
    extrapolation from one coarser march.

    ``decrement`` is the decrement ``d_K`` of ``rho`` on the construction's
    K-step grid (marched here when not given).  Re-evolving ``rho`` with
    ``K' = K // 2`` steps gives ``d_K'``; implicit Euler is first order, so
    ``e = (d_K' - d_K) K' / (K - K')`` estimates the K grid's time error
    ``d_K - d``, and ``time_error_est = max|e|`` reports it.  The gated
    ``residual_refined = max|d_K - e/2 - alpha gamma|``, with ``gamma``
    rescaled to unit sup as :func:`run_seed` measures it, predicts the
    residual of a march with ``2K`` steps.  It keeps the K-grid contract
    residual too, so a tampered rho or alpha shows up an order of magnitude
    beyond its O(dt) floor; ``tol`` must sit above that floor (about 3e-3
    for 64 steps over T=0.5, shrinking linearly in dt).  The mass curve of
    the coarse trajectory must decrease strictly.

    K = 1 has no coarser grid: ValueError.
    """
    coarse = config.n_steps // 2
    if coarse < 1:
        raise ValueError("verification needs n_steps >= 2: its coarse march takes n_steps // 2")
    gamma = _unit_sup(gamma)
    if decrement is None:
        decrement = _decrement(model, grid, config, rho, alpha, gamma, T)[1]
    d_K = decrement.values
    _, d_coarse, curve = _decrement(
        model, grid, replace(config, n_steps=coarse), rho, alpha, gamma, T
    )
    e = (d_coarse.values - d_K) * (coarse / (config.n_steps - coarse))
    residual = float(np.abs(d_K - 0.5 * e - alpha * gamma.values).max())
    masses = np.array([m for _, m in curve])
    decreasing = bool(np.all(np.diff(masses) < 0.0))
    return VerificationReport(
        residual_refined=residual,
        time_error_est=float(np.abs(e).max()),
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
