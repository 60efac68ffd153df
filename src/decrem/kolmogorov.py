"""Forward equation solver for the absorbed process density.

Discretizes A p = sum_ij d2(a_ij p)/dx_i dx_j - sum_i d(f_i p)/dx_i on the
cell-centered grid.  Diffusion terms use central second differences of the
product a*p with odd reflection across the boundary faces, which pins the
zero Dirichlet value on the faces themselves.  Drift terms use first-order
upwind flux splitting with no inflow through the faces.  With the
implicit-euler scheme the step matrix I - dt*A_h is an M-matrix (columnwise
diagonally dominant, nonpositive off-diagonal), so the exact step preserves
nonnegativity and strictly loses mass; mixed-derivative terms in 2-d break
that structure and are flagged.

Every time step solves (I - dt_eff*A_h) p_new = rhs by back-substitution
through a sparse LU factorization of the step matrix: implicit Euler takes
dt_eff = dt and rhs = p, Crank-Nicolson dt_eff = dt/2 and
rhs = p + dt/2 * A_h p.  The sparse generator is probed from the stencil and
factored once per operator for time-homogeneous models, however many marches
go through it, and once per step for tabulated series.  Each solve is
checked a posteriori: a singular factor, a non-finite solution or a column
whose relative residual exceeds ``linear_solver_tol`` raises
:class:`LinearSolveFailure`.  Negative round-off from the solve is projected
out only when the march input is nonnegative and the scheme is monotone,
where the exact solution is provably nonnegative.
"""

from __future__ import annotations

import csv
import itertools
import json
import os
from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix, identity
from scipy.sparse.linalg import splu

from .errors import LinearSolveFailure
from .grid import DensityField, mass
from .model import check_ellipticity, eval_a

SCHEMES = ("implicit-euler", "crank-nicolson")


@dataclass(frozen=True)
class SolverConfig:
    """Time-stepping parameters shared by every operator in the package."""

    n_steps: int
    scheme: str = "implicit-euler"
    linear_solver_tol: float = 1e-10

    def __post_init__(self):
        if self.n_steps < 1:
            raise ValueError("n_steps must be at least 1")
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}, expected {SCHEMES}")
        if not 0.0 < self.linear_solver_tol < 1.0:
            raise ValueError("linear_solver_tol must be in (0, 1)")


@dataclass
class Trajectory:
    """Solution snapshots p(., t_k) for t_0 = s < ... < t_K = T."""

    grid: object
    times: np.ndarray
    fields: list
    scheme: str
    positivity_certified: bool


class _Stencil:
    """Discrete generator at one evaluation time."""

    def __init__(self, model, grid, t):
        self.grid = grid
        self.dim = grid.dim
        pts = grid.nodes()
        a = eval_a(model, pts, t)
        f = model.drift_at(pts, t)
        shape = grid.shape
        if grid.dim == 1:
            self.a = a[:, 0, 0].reshape(shape)
            fx = f[:, 0].reshape(shape)
            self.fxp = np.maximum(fx, 0.0)
            self.fxm = np.maximum(-fx, 0.0)
            self.has_mixed = False
        else:
            self.a11 = a[:, 0, 0].reshape(shape)
            self.a22 = a[:, 1, 1].reshape(shape)
            self.a12 = a[:, 0, 1].reshape(shape)
            fx = f[:, 0].reshape(shape)
            fy = f[:, 1].reshape(shape)
            self.fxp = np.maximum(fx, 0.0)
            self.fxm = np.maximum(-fx, 0.0)
            self.fyp = np.maximum(fy, 0.0)
            self.fym = np.maximum(-fy, 0.0)
            self.has_mixed = bool(np.any(self.a12 != 0.0))
        self.h = grid.h

    def apply(self, values):
        """A_h applied to a flat field vector."""
        g = self.grid
        p = values.reshape(g.shape)
        h = self.h
        if self.dim == 1:
            q = self.a * p
            out = np.empty_like(q)
            out[1:-1] = q[2:] - 2.0 * q[1:-1] + q[:-2]
            out[0] = q[1] - 3.0 * q[0]
            out[-1] = q[-2] - 3.0 * q[-1]
            out /= h[0] ** 2
            gp = self.fxp * p
            gm = self.fxm * p
            out -= (self.fxp + self.fxm) * p / h[0]
            out[1:] += gp[:-1] / h[0]
            out[:-1] += gm[1:] / h[0]
            return out.reshape(-1)

        out = np.zeros_like(p)
        q = self.a11 * p
        out[1:-1, :] += (q[2:, :] - 2.0 * q[1:-1, :] + q[:-2, :]) / h[0] ** 2
        out[0, :] += (q[1, :] - 3.0 * q[0, :]) / h[0] ** 2
        out[-1, :] += (q[-2, :] - 3.0 * q[-1, :]) / h[0] ** 2
        q = self.a22 * p
        out[:, 1:-1] += (q[:, 2:] - 2.0 * q[:, 1:-1] + q[:, :-2]) / h[1] ** 2
        out[:, 0] += (q[:, 1] - 3.0 * q[:, 0]) / h[1] ** 2
        out[:, -1] += (q[:, -2] - 3.0 * q[:, -1]) / h[1] ** 2
        if self.has_mixed:
            # Four-point cross stencil on the odd extension of a12*p.  The
            # corner ghosts are reflected twice and come back with plus sign.
            q = self.a12 * p
            qp = np.zeros((p.shape[0] + 2, p.shape[1] + 2))
            qp[1:-1, 1:-1] = q
            qp[0, 1:-1] = -q[0, :]
            qp[-1, 1:-1] = -q[-1, :]
            qp[1:-1, 0] = -q[:, 0]
            qp[1:-1, -1] = -q[:, -1]
            qp[0, 0] = q[0, 0]
            qp[0, -1] = q[0, -1]
            qp[-1, 0] = q[-1, 0]
            qp[-1, -1] = q[-1, -1]
            out += 2.0 * (
                qp[2:, 2:] - qp[2:, :-2] - qp[:-2, 2:] + qp[:-2, :-2]
            ) / (4.0 * h[0] * h[1])
        gp = self.fxp * p
        gm = self.fxm * p
        out -= (self.fxp + self.fxm) * p / h[0]
        out[1:, :] += gp[:-1, :] / h[0]
        out[:-1, :] += gm[1:, :] / h[0]
        gp = self.fyp * p
        gm = self.fym * p
        out -= (self.fyp + self.fym) * p / h[1]
        out[:, 1:] += gp[:, :-1] / h[1]
        out[:, :-1] += gm[:, 1:] / h[1]
        return out.reshape(-1)

    def matrix(self):
        """Sparse matrix of :meth:`apply`, probed with one field per color.

        Nodes are colored by their index modulo 3 per axis, so within any
        3x3 neighborhood the colors are distinct and every entry can be read
        off from one of the (at most 9) probe applications.
        """
        shape = self.grid.shape
        idx = np.indices(shape).reshape(self.dim, -1)
        color = np.ravel_multi_index(idx % 3, (3,) * self.dim)
        probes = np.array(
            [self.apply((color == c).astype(float)) for c in range(3**self.dim)]
        )
        rows, cols, vals = [], [], []
        for off in itertools.product((-1, 0, 1), repeat=self.dim):
            nbr = idx + np.array(off)[:, None]
            ok = np.all((nbr >= 0) & (nbr < np.array(shape)[:, None]), axis=0)
            i = np.flatnonzero(ok)
            j = np.ravel_multi_index(nbr[:, ok], shape)
            rows.append(i)
            cols.append(j)
            vals.append(probes[color[j], i])
        n = self.grid.n
        mat = coo_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(n, n),
        ).tocsr()
        mat.eliminate_zeros()
        return mat


def build_stencil(model, grid, t):
    if model.dim != grid.dim:
        raise ValueError(f"model dim {model.dim} != grid dim {grid.dim}")
    return _Stencil(model, grid, t)


def apply_A(model, grid, field, t):
    """Discrete generator applied to one field."""
    st = build_stencil(model, grid, t)
    return DensityField(grid, st.apply(field.values))


class _Stepper:
    """The stepping core: ``step(k, p)`` advances a flat field vector, or an
    n-by-m block of them, from ``times[k]`` to ``times[k + 1]``.

    One stepper serves any number of marches over its times and keeps its
    factor between them for time-homogeneous models.  :meth:`start` begins
    a march: with the monotone scheme, nonnegative data arm the positivity
    clamp, which stays off while a factored step has had an a12 term.
    """

    def __init__(self, model, grid, config, s, T):
        if not T > s:
            raise ValueError(f"need s < T, got s={s}, T={T}")
        self.model = model
        self.grid = grid
        self.dt = (T - s) / config.n_steps
        self.times = s + self.dt * np.arange(config.n_steps + 1)
        self.implicit = config.scheme == "implicit-euler"
        self.tol = config.linear_solver_tol
        self.clamp = False
        self.mixed = False
        self.lu = None

    def start(self, nonnegative):
        self.clamp = self.implicit and nonnegative
        if self.model.time_dependent:
            self.mixed = False  # every step of the march is factored anew

    def _factor(self, k):
        t = self.times[k + 1] if self.implicit else self.times[k] + 0.5 * self.dt
        st = build_stencil(self.model, self.grid, t)
        self.mixed |= st.has_mixed
        self.A = st.matrix()
        dt_eff = self.dt if self.implicit else 0.5 * self.dt
        self.M = identity(self.grid.n, format="csr") - dt_eff * self.A
        try:
            self.lu = splu(self.M.tocsc())
        except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
            raise LinearSolveFailure(
                f"step matrix at t={t:g} could not be factored: {exc}"
            ) from exc

    def __call__(self, k, p):
        if self.lu is None or self.model.time_dependent:
            self._factor(k)
        rhs = p if self.implicit else p + 0.5 * self.dt * (self.A @ p)
        x = self.lu.solve(rhs)
        self._check(rhs, x, k)
        if self.clamp and not self.mixed:
            # The exact M-matrix step maps nonnegative to nonnegative, so
            # any negative entry is round-off of the solve.
            np.maximum(x, 0.0, out=x)
        return x

    def _check(self, rhs, x, k):
        """Relative 2-norm residual of the solve, column by column; a block
        goes 64 columns at a time so it never gets a full-size temporary."""
        tol2 = self.tol**2
        if x.ndim == 1:
            d = rhs - self.M @ x
            ok = d @ d <= tol2 * (rhs @ rhs)
        else:
            ok = True
            for j in range(0, x.shape[1], 64):
                r = rhs[:, j : j + 64]
                d = r - self.M @ x[:, j : j + 64]
                sq = np.einsum("ij,ij->j", d, d)
                ok &= bool(np.all(sq <= tol2 * np.einsum("ij,ij->j", r, r)))
        # the comparisons are written so that a NaN residual fails too
        if not ok:
            raise LinearSolveFailure(
                f"solve at step {k} missed relative residual {self.tol:g}"
            )


def _march(model, grid, config, values, s, T, record, step=None):
    """Advance a flat field vector from s to T through the stepping core;
    ``step`` passes a stepper, and so its factor, on from an earlier march."""
    if step is None:
        step = _Stepper(model, grid, config, s, T)
    step.start(bool(np.all(values >= 0.0)))
    p = np.array(values, dtype=float)
    fields = [p] if record else None
    for k in range(config.n_steps):
        p = step(k, p)
        if record:
            fields.append(p)
    return step.times, fields if record else p


def evolve(model, grid, config, rho, s, T):
    """Evolve the density ``rho`` from time s to T, keeping every snapshot.

    Positivity is certified when the scheme is implicit-euler and no
    factored step had an a12 term."""
    if rho.grid is not grid and rho.grid != grid:
        raise ValueError("field does not live on the given grid")
    if not np.all(np.isfinite(rho.values)):
        raise ValueError("initial field has non-finite values")
    if model.delta is None:
        check_ellipticity(model, grid, times=(s, T))
    step = _Stepper(model, grid, config, s, T)
    times, raw = _march(model, grid, config, rho.values, s, T, record=True, step=step)
    fields = [DensityField(grid, v) for v in raw]
    return Trajectory(
        grid=grid,
        times=times,
        fields=fields,
        scheme=config.scheme,
        positivity_certified=step.implicit and not step.mixed,
    )


def mass_curve(traj):
    """Masses along the trajectory as (time, mass) pairs."""
    return [(float(t), mass(f)) for t, f in zip(traj.times, traj.fields)]


def stable_time_step(model, grid, t=0.0):
    """Heuristic dt = h_min^2 / (2 dim max||a||) for crank-nicolson comfort."""
    pts = grid.nodes()
    a = eval_a(model, pts, t)
    if grid.dim == 1:
        a_max = float(np.max(np.abs(a[:, 0, 0])))
    else:
        a_max = float(np.max(np.abs(np.linalg.eigvalsh(a))))
    return min(grid.h) ** 2 / (2.0 * grid.dim * a_max)


def generator_matrix(model, grid, t):
    """Sparse matrix of the discrete generator at time ``t``: exactly the
    matrix of :func:`apply_A`, boundary folding included."""
    return build_stencil(model, grid, t).matrix()


def save_trajectory(traj, directory):
    """Export snapshots, a JSON manifest and the mass curve.

    Returns the list of file paths written, relative to ``directory``.
    """
    os.makedirs(directory, exist_ok=True)
    names = []
    for k, f in enumerate(traj.fields):
        name = f"field_{k:05d}.csv"
        f.to_csv(os.path.join(directory, name))
        names.append(name)
    manifest = {
        "times": [float(t) for t in traj.times],
        "files": names,
        "scheme": traj.scheme,
        "positivity_certified": traj.positivity_certified,
    }
    with open(os.path.join(directory, "trajectory.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(os.path.join(directory, "mass_curve.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time", "mass"])
        for t, m in mass_curve(traj):
            writer.writerow([repr(t), repr(m)])
    return names + ["trajectory.json", "mass_curve.csv"]
