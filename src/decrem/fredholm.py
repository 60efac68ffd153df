"""The time-T solution operator Q and the resolvent solve (I - Q) zeta = gamma.

Q maps an initial field to the absorbed-process field at time T.  Applied
matrix-free it is one march of the forward solver; assembled densely
(diagnostic path, size-capped) its columns are the responses to unit-mass
cell densities, i.e. a discretization of the absorbed-process kernel
G(x, y, T, 0).  Column masses are then survival probabilities and must lie
strictly inside (0, 1).

The resolvent solve iterates zeta <- gamma + Q zeta, which contracts because
the operator loses mass; when contraction stalls it falls back to restarted
GMRES on I - Q using the same matrix-free application.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import LinearOperator, gmres

from .errors import CapExceeded, NoConvergence
from .grid import DensityField
from .kolmogorov import _march, _Stepper
from .model import check_ellipticity


@dataclass
class OperatorMatrix:
    """Dense kernel matrix of Q on a grid of N nodes.

    ``matrix[i, j]`` is the density at node i after evolving a unit of mass
    placed in cell j, so the action on a coefficient vector u is
    ``cell_volume * matrix @ u``.
    """

    matrix: np.ndarray
    grid: object
    scheme: str
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
        self.matrix.astype("<f8").T.tofile(path_base + ".bin")
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
            "scheme": self.scheme,
            "T": self.T,
            "n_steps": self.n_steps,
        }
        with open(path_base + ".json", "w") as fh:
            json.dump(sidecar, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return [path_base + ".bin", path_base + ".json"]

    @classmethod
    def load(cls, path_base, grid):
        with open(path_base + ".json") as fh:
            sidecar = json.load(fh)
        n = sidecar["n"]
        if n != grid.n:
            raise ValueError(f"operator size {n} does not match grid size {grid.n}")
        raw = np.fromfile(path_base + ".bin", dtype="<f8")
        matrix = raw.reshape((n, n), order="F").astype(float)
        return cls(
            matrix=matrix,
            grid=grid,
            scheme=sidecar["scheme"],
            T=sidecar["T"],
            n_steps=sidecar["n_steps"],
        )


@dataclass
class ResolventReport:
    """Outcome of a resolvent solve."""

    zeta: DensityField
    iterations: int
    residual_norm: float
    method: str


@dataclass
class SpectralEstimate:
    """Power-iteration estimate of the spectral radius of Q."""

    value: float
    converged: bool
    iterations: int


def apply_Q(model, grid, config, xi, T, s=0.0):
    """One matrix-free application of the time-T solution operator."""
    if model.delta is None:
        check_ellipticity(model, grid, times=(s, T))
    final = _march(model, grid, config, xi.values, s, T, record=False)[1]
    return DensityField(grid, final)


def propagator_action(model, grid, config, T, s=0.0):
    """Q as a callable on flat vectors, for power iteration and Krylov use."""
    if model.delta is None:
        check_ellipticity(model, grid, times=(s, T))
    return lambda v: _march(model, grid, config, v, s, T, record=False)[1]


def assemble_Q(model, grid, config, T, s=0.0, cap=4096):
    """Dense diagnostic assembly of Q, one column per unit-mass cell density.

    Drives the stepping core of :func:`apply_Q` on the identity block scaled
    to unit mass: every step back-substitutes all N columns through the same
    factored step matrix, with the same residual check and clamp, so column
    j is :func:`apply_Q` of the unit mass in cell j up to round-off.  Each
    step replaces the block, so at most two N x N blocks are alive at once.
    """
    n = grid.n
    if n > cap:
        raise CapExceeded(f"grid has {n} nodes, dense assembly capped at {cap}")
    if model.delta is None:
        check_ellipticity(model, grid, times=(s, T))
    step = _Stepper(model, grid, config, s, T, nonnegative=True)
    X = np.eye(n) / grid.cell_volume
    for k in range(config.n_steps):
        X = step(k, X)
    return OperatorMatrix(
        matrix=X, grid=grid, scheme=config.scheme, T=float(T), n_steps=config.n_steps
    )


def spectral_radius(op, n=None, tol=1e-6, max_iter=200, seed=0):
    """Power iteration for the spectral radius of Q.

    ``op`` is either an :class:`OperatorMatrix` or a callable on flat
    vectors (pass ``n`` for the vector length).  For nonsymmetric operators
    the reported value is the magnitude of the Rayleigh quotient averaged
    over the last few iterates; ``converged`` records whether the averaged
    value stabilized to ``tol`` relative change.
    """
    if isinstance(op, OperatorMatrix):
        mat = op.coefficient_action()
        act = lambda v: mat @ v
        n = mat.shape[0]
    else:
        act = op
        if n is None:
            raise ValueError("n is required for a matrix-free operator")
    rng = np.random.default_rng(seed)
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
    """Singular values of the coefficient action, largest first."""
    return np.linalg.svd(opmat.coefficient_action(), compute_uv=False)


def solve_resolvent(model, grid, config, gamma, T, tol=1e-10, max_iter=200):
    """Solve (I - Q) zeta = gamma by mass-loss contraction with a Krylov net.

    Iterates zeta <- gamma + Q zeta until the relative L2 residual drops
    below ``tol``.  If the residual ratio stays >= 0.999 for five straight
    iterations the remaining budget goes to restarted GMRES on I - Q.
    ``iterations`` counts applications of Q; the reported residual is
    recomputed from the returned iterate with one extra application.
    """
    act = propagator_action(model, grid, config, T)
    g = np.array(gamma.values, dtype=float)
    gnorm = float(np.linalg.norm(g))
    scale = max(gnorm, 1e-300)
    zeta = g.copy()
    applies = 0
    stall = 0
    prev_res = None
    method = "neumann"
    while applies < max_iter:
        qz = act(zeta)
        applies += 1
        new = g + qz
        res = float(np.linalg.norm(new - zeta)) / scale
        zeta = new
        if res <= tol:
            break
        if prev_res is not None and res >= 0.999 * prev_res:
            stall += 1
        else:
            stall = 0
        prev_res = res
        if stall >= 5:
            method = "krylov"
            break
    if method == "krylov" and applies < max_iter:
        n = g.size
        counter = {"applies": 0}

        def matvec(v):
            counter["applies"] += 1
            return v - act(v)

        op = LinearOperator((n, n), matvec=matvec, dtype=float)
        restart = min(30, n)
        budget = max_iter - applies
        x, _ = gmres(
            op,
            g,
            x0=zeta,
            rtol=tol * 0.5,
            atol=0.0,
            restart=restart,
            maxiter=max(1, budget // restart),
        )
        zeta = x
        applies += counter["applies"]
    final_res = float(np.linalg.norm(zeta - act(zeta) - g)) / scale
    if final_res > tol:
        raise NoConvergence(
            f"resolvent solve stopped at residual {final_res:.3e} > tol {tol:g} "
            f"after {applies} operator applications ({method})"
        )
    return ResolventReport(
        zeta=DensityField(grid, zeta),
        iterations=applies,
        residual_norm=final_res,
        method=method,
    )
