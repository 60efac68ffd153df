"""The time-T solution operator Q and the resolvent solve (I - Q) zeta = gamma.

Q maps an initial field to the absorbed-process field at time T.  Applied
matrix-free it is one march of the forward solver; assembled densely
(diagnostic path, size-capped) its columns are the responses to unit-mass
cell densities, i.e. a discretization of the absorbed-process kernel
G(x, y, T, 0).  Column masses are then survival probabilities and must lie
strictly inside (0, 1).

The resolvent solve is restarted GMRES (Saad & Schultz 1986) on I - Q with
the matrix-free application.  The eigenvalues of Q are about e^{-lambda_k T}
and cluster at 0, so a few Krylov steps reach the tolerance at any horizon,
where the Neumann series would contract only at e^{-lambda_1 T}.  The
applications of Q over one grid, config and T share one kept factor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import LinearOperator, gmres

from .errors import CapExceeded, NoConvergence
from .grid import DensityField, _write_json
from .kolmogorov import PANEL, SCHEME, _march, _stepper_for


@dataclass
class OperatorMatrix:
    """Dense kernel matrix of Q on a grid of N nodes.

    ``matrix[i, j]`` is the density at node i after evolving a unit of mass
    placed in cell j, so the action on a coefficient vector u is
    ``cell_volume * matrix @ u``.
    """

    matrix: np.ndarray
    grid: object
    T: float
    n_steps: int

    def column_masses(self):
        return self.matrix.sum(axis=0) * self.grid.cell_volume

    def coefficient_action(self):
        """Matrix acting on flat field vectors."""
        return self.grid.cell_volume * self.matrix

    def save(self, path_base):
        """Write ``<base>.bin`` (float64, little endian, column major) and
        ``<base>.json`` describing it."""
        n = self.grid.n
        np.asarray(self.matrix, "<f8").T.tofile(path_base + ".bin")
        sidecar = {
            "n": n,
            "dtype": "<f8",
            "order": "column-major",
            "grid": {
                "dim": self.grid.dim,
                "lo": list(self.grid.lo),
                "hi": list(self.grid.hi),
                "n_cells": list(self.grid.n_cells),
            },
            "scheme": SCHEME,
            "T": self.T,
            "n_steps": self.n_steps,
        }
        _write_json(path_base + ".json", sidecar)
        return [path_base + ".bin", path_base + ".json"]


@dataclass
class ResolventReport:
    """Outcome of a resolvent solve."""

    zeta: DensityField
    iterations: int
    residual_norm: float
    method: str
    # of the application that checked the residual: Q zeta, its march's K + 1 masses
    q_zeta: DensityField
    masses: np.ndarray


@dataclass
class SpectralEstimate:
    """Power-iteration estimate of the spectral radius of Q."""

    value: float
    converged: bool
    iterations: int


def propagator_action(model, grid, config, T, record=False):
    """Q over [0, T] as a callable on flat vectors or (n, m) blocks of them,
    for power and Krylov iterations and the dense assembly.

    The model is certified here, where its stepper over [0, T] is fetched or
    built, not at the first call.  A time-homogeneous model keeps that
    stepper, so all calls march through one factor; each call still arms the
    positivity clamp from the sign of its own input, so it returns the bits
    of a march on a fresh stepper.  With ``record`` a call returns every
    state of its march, the last row being Q v.
    """
    _stepper_for(model, grid, config, 0.0, T)
    return lambda v: _march(model, grid, config, v, 0.0, T, record)[1]


def _check_cap(grid, cap):
    """CapExceeded unless the dense assembly on ``grid`` fits in ``cap`` nodes."""
    if grid.n > cap:
        raise CapExceeded(f"grid has {grid.n} nodes, dense assembly capped at {cap}")


def assemble_Q(model, grid, config, T, cap=4096):
    """Dense diagnostic assembly of Q, one column per unit-mass cell density.

    Applies :func:`propagator_action` to the unit masses ``PANEL`` cells at
    a time, all panels through one stepper, the one a power iteration over
    the same T left kept, and writes each panel's columns into the N x N
    result, which is column-major as :meth:`OperatorMatrix.save` writes it.
    """
    _check_cap(grid, cap)
    n = grid.n
    act = propagator_action(model, grid, config, T)
    Q = np.empty((n, n), order="F")
    for j in range(0, n, PANEL):
        m = min(PANEL, n - j)
        units = np.zeros((n, m))
        units[j + np.arange(m), np.arange(m)] = 1.0 / grid.cell_volume
        Q[:, j : j + m] = act(units)
    return OperatorMatrix(matrix=Q, grid=grid, T=float(T), n_steps=config.n_steps)


def spectral_radius(act, n, tol=1e-6, max_iter=200):
    """Power iteration for the spectral radius of Q.

    ``act`` applies Q to flat vectors of length ``n``; the start vector is
    a seeded normal draw.  For nonsymmetric operators the reported value is
    the magnitude of the Rayleigh quotient averaged over the last few
    iterates; ``converged`` records whether the averaged value stabilized to
    ``tol`` relative change.
    """
    rng = np.random.default_rng(0)
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    history = []
    prev = None
    for k in range(1, max_iter + 1):
        w = act(v)
        nw = np.linalg.norm(w)
        if nw < 1e-300:
            return SpectralEstimate(value=0.0, converged=True, iterations=k)
        history.append(abs(float(v @ w)))
        est = float(np.mean(history[-5:]))
        if prev is not None and abs(est - prev) <= tol * max(est, 1e-300):
            return SpectralEstimate(value=est, converged=True, iterations=k)
        prev = est
        v = w / nw
    return SpectralEstimate(value=prev, converged=False, iterations=max_iter)


def resolvent_dense(opmat, gamma):
    """Dense LU solve of (I - Q) zeta = gamma; the cross-check route."""
    Q = opmat.coefficient_action()
    zeta = np.linalg.solve(np.eye(Q.shape[0]) - Q, gamma.values)
    return DensityField(opmat.grid, zeta)


def singular_values(opmat):
    """Singular values of the coefficient action, largest first: those of
    the kernel matrix scaled by the cell volume, with no scaled N x N copy."""
    return opmat.grid.cell_volume * np.linalg.svd(opmat.matrix, compute_uv=False)


def solve_resolvent(model, grid, config, gamma, T, tol=1e-10, max_iter=200):
    """Solve (I - Q) zeta = gamma by restarted GMRES on I - Q.

    ``iterations`` counts every application of Q, the one that checks the
    final relative L2 residual included, and never exceeds ``max_iter``:
    a GMRES cycle of restart length m applies Q m + 1 times, so m is capped
    to fit the budget.  A final residual above ``tol`` raises NoConvergence.
    Every application marches through the model's kept stepper, and keeps
    its states until the next, for the report's masses.
    """
    act = propagator_action(model, grid, config, T, record=True)  # certifies first
    if max_iter < 2:
        raise ValueError("max_iter must be at least 2: one Krylov step and its check")
    g = np.array(gamma.values, dtype=float)
    n = g.size
    applies, last = 0, None  # last: (v, the states of its march) of the latest application

    def apply(v):
        nonlocal applies, last
        applies += 1
        last = None  # one march's states alive at a time
        last = (v.copy(), act(v))
        return last[1][-1]

    restart = min(30, n, max_iter - 1)
    zeta, _ = gmres(
        LinearOperator((n, n), matvec=lambda v: v - apply(v), dtype=float),
        g,
        rtol=tol,
        atol=0.0,
        restart=restart,
        maxiter=max_iter // (restart + 1),
    )
    # every GMRES cycle ends by applying I - Q to its iterate: that last
    # application is the residual check; gamma = 0 returns before any
    if last is None or not np.array_equal(last[0], zeta):
        apply(zeta)
    states = last[1]
    qz = states[-1]
    final_res = float(np.linalg.norm(zeta - qz - g)) / max(float(np.linalg.norm(g)), 1e-300)
    if final_res > tol:
        raise NoConvergence(
            f"resolvent solve stopped at residual {final_res:.3e} > tol {tol:g} "
            f"after {applies} operator applications"
        )
    return ResolventReport(
        zeta=DensityField(grid, zeta),
        iterations=applies,
        residual_norm=final_res,
        method="krylov",
        q_zeta=DensityField(grid, qz),
        masses=states.sum(axis=1) * grid.cell_volume,
    )
