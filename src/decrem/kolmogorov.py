"""Forward equation solver for the absorbed process density.

Discretizes A p = sum_ij d2(a_ij p)/dx_i dx_j - sum_i d(f_i p)/dx_i on the
cell-centered grid.  Diffusion terms use central second differences of the
product a*p with odd reflection across the boundary faces, which pins the
zero Dirichlet value on the faces themselves.  Drift terms use first-order
upwind flux splitting with no inflow through the faces.  Time is stepped by
implicit Euler, the one scheme: its step matrix I - dt*A_h is an M-matrix
(columnwise diagonally dominant, nonpositive off-diagonal), so the exact
step preserves nonnegativity and strictly loses mass.  A scheme that keeps
positivity for every dt is at most first order (Bolley & Crouzeix 1978), so
no higher-order scheme is offered.  Mixed-derivative terms in 2-d break the
M-matrix structure and are flagged.

Every assembly of A_h first certifies that 2a = beta beta^T is finite and
positive definite at every node, and a stepper certifies its ends s and T
too, so a march is certified wherever a step reads the coefficients.

Every time step from t_k to t_{k+1} solves M p_new = p with the step
matrix M = I - dt*A_h(t_{k+1}).  The sparse generator is assembled straight
from the coefficient arrays, one grid-shaped array of entries per stencil
offset, and M gets a sparse LU factorization once per stepper for
time-homogeneous models and once per step for tabulated series.  M is
structurally symmetric, so SuperLU orders it by minimum degree on M + M^T
in symmetric mode, about a third less fill than its default.  Each solve
is checked a posteriori: a singular factor, a non-finite solution or a
column whose relative residual exceeds ``linear_solver_tol`` raises
:class:`LinearSolveFailure`.

A time-homogeneous operator on at most ``DENSE_MAX_N`` nodes steps through
the dense inverse S = M^-1, formed once from the factor, so every step is
one matrix-vector product instead of a back-substitution and a residual
check.  S is kept only under a certificate that bounds the relative residual
of every product S @ p, round-off included, by ``linear_solver_tol``;
otherwise, for tabulated series and on larger grids the steps go through the
factor as above.  Either way one loop, :meth:`_Stepper.march`, takes every
step of a march of a vector or of an (n, m) block of them: it fills a
(steps, n) or (steps, n, m) buffer a chunk of steps at a time, checking the
finiteness of a chunk of dense products once at its end and each factored
step, a chunk of one, by its residual.  :func:`evolve` keeps that buffer,
read-only, as the trajectory's states and takes the mass curve from one
row sum over it.  Negative round-off is projected out only when the march
input is nonnegative and no step has an a12 term, where the exact solution
is provably nonnegative.

This module alone decides which marches share a factor: a time-homogeneous
model keeps its latest stepper (``model.stepper``) with its A_h, factor and
certified inverse, a march over the same grid, config, s and T reuses it,
and any other march builds a stepper that takes A_h from the kept one on
the same grid and replaces it.  A tabulated series' steppers are not kept.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix, identity
from scipy.sparse.linalg import splu

from .errors import EllipticityViolation, LinearSolveFailure
from .grid import DensityField, _write_json, _write_rows
from .model import eval_a

#: The time scheme, as ``operator.json`` and ``trajectory.json`` record it.
SCHEME = "implicit-euler"

#: Largest node count that steps through a dense inverse.  Measured on one
#: CPU: at n = 100 a dense step takes about a third of a sparse one and
#: forming the inverse is repaid within about 40 steps, at n = 256 only
#: after about 200 steps, and at n = 512 the dense step is the slower one.
DENSE_MAX_N = 128

#: Steps of a dense march between two finiteness checks of its products;
#: a march without ``record`` buffers no more rows than this.
_CHUNK = 32

#: Columns per block: :func:`fredholm.assemble_Q` marches unit masses in
#: panels this wide, and a factored block step checks its residual by them.
PANEL = 64


def _check_finite(products, k0):
    """Raise :class:`LinearSolveFailure` naming the first step whose product
    is not finite; ``products[j]`` is the product of step ``k0 + j``."""
    finite = np.isfinite(products.reshape(len(products), -1)).all(axis=1)
    if not finite.all():
        raise LinearSolveFailure(f"solve at step {k0 + int(np.argmin(finite))} is not finite")


@dataclass(frozen=True)
class SolverConfig:
    """Time-stepping parameters shared by every operator in the package."""

    n_steps: int
    linear_solver_tol: float = 1e-10

    def __post_init__(self):
        if self.n_steps < 1:
            raise ValueError("n_steps must be at least 1")
        if not 0.0 < self.linear_solver_tol < 1.0:
            raise ValueError("linear_solver_tol must be in (0, 1)")


@dataclass
class Trajectory:
    """Solution snapshots p(., t_k) for t_0 = s < ... < t_K = T.

    ``states`` is the read-only (K + 1, n) array the march filled, row k
    holding p(., t_k) in flat order; :attr:`fields` wraps each row in a
    :class:`DensityField` only when it is read."""

    grid: object
    times: np.ndarray
    states: np.ndarray
    masses: np.ndarray  # mass(fields[k]), bit for bit
    positivity_certified: bool

    @property
    def fields(self):
        return [DensityField(self.grid, v) for v in self.states]


def _span(n, d):
    """Slices along one axis of n cells: the rows r whose neighbour r + d
    is inside, and those neighbours."""
    if d > 0:
        return slice(0, n - 1), slice(1, n)
    if d < 0:
        return slice(1, n), slice(0, n - 1)
    return slice(None), slice(None)


def _reach(n, s):
    """Where step s of the cross stencil lands along one axis: the inside
    neighbour, or at the face the row's odd reflection (own column, sign flipped)."""
    dst, src = _span(n, s)
    face = slice(n - 1, n) if s > 0 else slice(0, 1)
    return (dst, src, s, 1.0), (face, face, 0, -1.0)


def _certify(a, pts, t):
    """The ellipticity certificate: ``a``, the (n, dim, dim) diffusion matrix
    at the nodes ``pts`` and time ``t``, unless 2a = beta beta^T is not
    finite and positive definite at some node; then EllipticityViolation."""
    bbT = 2.0 * a
    eigs = bbT[:, 0, 0] if a.shape[1] == 1 else np.linalg.eigvalsh(bbT)[:, 0]
    k = int(np.argmin(eigs))  # the first NaN, if there is one
    # an overflowing beta gives inf (or NaN), which is no certificate either
    if not 0.0 < eigs[k] < np.inf:
        raise EllipticityViolation(
            f"beta beta^T has smallest eigenvalue {eigs[k]:.3e}, not finite and "
            f"positive, at x={pts[k]}, t={t}",
            x=pts[k], t=float(t), eigenvalue=float(eigs[k]),
        )
    return a


def build_stencil(model, grid, t):
    """CSR matrix of A_h at time ``t`` and whether it has an a12 term;
    the coefficients are certified elliptic first.

    ``w[o]`` holds, per row r, the entry in column r + o; each entry adds up
    its terms in one fixed order: diffusion per axis, cross term, drift.
    """
    if model.dim != grid.dim:
        raise ValueError(f"model dim {model.dim} != grid dim {grid.dim}")
    dim, shape, h = grid.dim, grid.shape, grid.h
    pts = grid.nodes()
    a = _certify(eval_a(model, pts, t), pts, t).reshape(shape + (dim, dim))
    f = model.drift_at(pts, t).reshape(shape + (dim,))
    offsets = list(itertools.product((-1, 0, 1), repeat=dim))
    w = {o: np.zeros(shape) for o in offsets}
    center = (0,) * dim

    def along(k, sl):
        return (slice(None),) * k + (sl,) + (slice(None),) * (dim - k - 1)

    def couple(k, d, values):
        """Add values[r + d e_k] to row r in column r + d e_k."""
        dst, src = _span(shape[k], d)
        offset = tuple(d * (i == k) for i in range(dim))
        w[offset][along(k, dst)] += values[along(k, src)]

    for k in range(dim):
        # central second difference of a_kk p; the odd reflection of the
        # ghost folds -a/h^2 into the face diagonal
        ak = a[..., k, k]
        coef = np.full(shape, -2.0)
        coef[along(k, slice(0, 1))] = coef[along(k, slice(-1, None))] = -3.0
        w[center] += coef * ak / (h[k] * h[k])
        couple(k, 1, ak / (h[k] * h[k]))
        couple(k, -1, ak / (h[k] * h[k]))
    mixed = dim == 2 and bool(np.any(a[..., 0, 1] != 0.0))
    if mixed:
        # four-point cross stencil on the odd extension of a12 p; a corner
        # ghost is reflected twice and comes back with plus sign
        scale = 4.0 * h[0] * h[1]
        for s0, s1 in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
            for d0, r0, o0, f0 in _reach(shape[0], s0):
                for d1, r1, o1, f1 in _reach(shape[1], s1):
                    term = s0 * s1 * f0 * f1 * a[r0, r1, 0, 1]
                    w[o0, o1][d0, d1] += 2.0 * term / scale
    for k in range(dim):
        # first-order upwind flux with no inflow through the faces
        fp = np.maximum(f[..., k], 0.0)
        fm = np.maximum(-f[..., k], 0.0)
        w[center] -= (fp + fm) / h[k]
        couple(k, -1, fp / h[k])
        couple(k, 1, fm / h[k])
    idx = np.arange(grid.n).reshape(shape)
    parts = []
    for o in offsets:
        dst, src = zip(*map(_span, shape, o))
        parts.append((w[o][dst].ravel(), idx[dst].ravel(), idx[src].ravel()))
    vals, rows, cols = map(np.concatenate, zip(*parts))
    mat = coo_matrix((vals, (rows, cols)), shape=(grid.n, grid.n)).tocsr()
    mat.eliminate_zeros()
    return mat, mixed


class _Stepper:
    """The stepping core: :meth:`march` advances a flat field vector, or an
    n-by-m block of them, over every implicit-Euler step from ``times[0]``
    to ``times[-1]``, through the certified dense inverse where there is one
    and through the sparse factor with a residual check otherwise.

    One stepper serves any number of marches over its times.  For a
    time-homogeneous model it holds A_h, built or taken from the model's
    kept stepper on the same grid, then the factor and, on small grids, the
    certified inverse; it takes the kept one's place and holds no reference
    back to the model, so the two are freed without the cyclic collector.
    Construction certifies ellipticity at s and T: through A_h, or directly
    for a time-dependent model, which is read at every step; the steps read
    the coefficients at ``times[1:]`` only, so s is certified here or nowhere.
    """

    def __init__(self, model, grid, config, s, T):
        if not T > s:
            raise ValueError(f"need s < T, got s={s}, T={T}")
        self.key = (grid, config, s, T)
        self.grid = grid
        self.dt = (T - s) / config.n_steps
        self.times = _step_times(config, s, T)
        self.tol = config.linear_solver_tol
        self.mixed = False
        self.lu = None
        self.inverse = None
        self.series = model if model.time_dependent else None  # read at every step
        if model.time_dependent:
            pts = grid.nodes()
            for t in (s, T):
                _certify(eval_a(model, pts, t), pts, t)
            return
        kept = model.stepper  # its generator: A_h and whether it has an a12 term
        same = kept is not None and kept.grid == grid
        self.generator = kept.generator if same else build_stencil(model, grid, s)
        model.stepper = self

    def _factor(self, k):
        t = self.times[k + 1]
        series = self.series
        A, mixed = self.generator if series is None else build_stencil(series, self.grid, t)
        self.mixed |= mixed
        self.M = identity(self.grid.n, format="csr") - self.dt * A
        try:
            # M is structurally symmetric; default partial pivoting
            self.lu = splu(
                self.M.tocsc(), permc_spec="MMD_AT_PLUS_A", options={"SymmetricMode": True}
            )
        except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
            raise LinearSolveFailure(
                f"step matrix at t={t:g} could not be factored: {exc}"
            ) from exc
        if self.series is None and self.grid.n <= DENSE_MAX_N:
            self.inverse = self._certified_inverse()

    def _certified_inverse(self):
        """S = M^-1 from the factor, or None if S cannot be certified.

        A computed x = S @ p has the residual p - M x = (I - M S) p
        minus M times the product's round-off, which is at most
        gamma_n |S| |p| entrywise.  The computed I - M S is off by the
        same amount again, and Frobenius norms bound 2-norms, so the bound
        below caps the relative residual of every dense step.
        """
        n = self.grid.n
        S = self.lu.solve(np.eye(n))
        R = self.M @ S
        R.flat[:: n + 1] -= 1.0  # M S - I, the same norm as I - M S
        eps = np.finfo(float).eps
        gamma = n * eps / (1.0 - n * eps)
        bound = np.linalg.norm(R) + 2.0 * gamma * (
            np.linalg.norm(self.M.data) * np.linalg.norm(S)
        )
        # written so that a NaN bound fails too
        return S if bound <= self.tol else None

    def march(self, values, record):
        """March the flat vector, or (n, m) block, ``values`` over every step.

        The states go through one buffer, a chunk of steps at a time: with
        ``record`` it holds all K + 1 states and is returned; otherwise it
        holds one chunk, restarted from its last state, and the final state
        is returned.  Under the certified dense inverse step k writes S @ p
        with no check of its own, and the finiteness of a chunk's products,
        taken before the clamp so that a -inf it would zero still counts, is
        checked once per chunk of at most ``_CHUNK`` steps; a bad product
        raises :class:`LinearSolveFailure` naming the first bad step.
        Otherwise every chunk is one step, whose two rows swap instead of
        restarting: factored anew for a time-dependent model, solved through
        the factor and checked by :meth:`_check`.  Negative round-off is
        clamped only when ``values`` is nonnegative and no step so far had an
        a12 term, where the exact solution is provably nonnegative.
        """
        if self.series is not None:
            self.mixed = False  # every step of the march is factored anew
        elif self.lu is None:
            self._factor(0)
        S = self.inverse
        K = len(self.times) - 1
        chunk = 1 if S is None else min(K, _CHUNK)
        states = np.empty((K + 1 if record else chunk + 1,) + np.shape(values))
        states[0] = values
        clamp = bool(np.all(states[0] >= 0.0)) and not self.mixed
        # a dense step's products before the clamp, for the finiteness check
        raw = np.empty((chunk,) + states.shape[1:]) if clamp and S is not None else None
        last = 0
        for k0 in range(0, K, chunk):
            m = min(chunk, K - k0)
            if record:
                block = states[k0 : k0 + m + 1]
            elif chunk == 1:  # the two rows take turns, so no state is copied
                block = states[::-1] if k0 % 2 else states
            else:
                states[0] = states[last]
                block = states[: m + 1]
            products = block[1:] if raw is None else raw[:m]
            for x, out, nxt in zip(block[:-1], products, block[1:]):
                if S is not None:
                    np.dot(S, x, out=out)
                else:  # a chunk of one: this is step k0
                    if self.series is not None:
                        self._factor(k0)
                        clamp = clamp and not self.mixed
                    # SuperLU returns F-ordered blocks; the row takes a C-ordered copy
                    out[...] = self.lu.solve(x)
                    self._check(x, out, k0)
                if clamp:
                    # The exact M-matrix step maps nonnegative to nonnegative,
                    # so any negative entry is round-off of the solve.
                    np.maximum(out, 0.0, out=nxt)
            if S is not None:
                _check_finite(products, k0)
            last = m
        return states if record else states[K % 2 if chunk == 1 else last].copy()

    def _check(self, rhs, x, k):
        """Relative 2-norm residual of the solve, column by column; a block
        goes ``PANEL`` columns at a time so it never gets a full-size temporary."""
        tol2 = self.tol**2
        if x.ndim == 1:
            d = rhs - self.M @ x
            ok = d @ d <= tol2 * (rhs @ rhs)
        else:
            ok = True
            for j in range(0, x.shape[1], PANEL):
                r = rhs[:, j : j + PANEL]
                d = r - self.M @ x[:, j : j + PANEL]
                sq = np.einsum("ij,ij->j", d, d)
                ok &= bool(np.all(sq <= tol2 * np.einsum("ij,ij->j", r, r)))
        # the comparisons are written so that a NaN residual fails too
        if not ok:
            raise LinearSolveFailure(
                f"solve at step {k} missed relative residual {self.tol:g}"
            )


def _step_times(config, s, T):
    """t_0 = s < ... < t_K = T, the times of every march over [s, T]."""
    return s + (T - s) / config.n_steps * np.arange(config.n_steps + 1)


def _stepper_for(model, grid, config, s, T):
    """The model's kept stepper if it is over ``(grid, config, s, T)``, else
    a new one, which a time-homogeneous model keeps in its place."""
    kept = model.stepper
    same = kept is not None and kept.key == (grid, config, s, T)
    return kept if same else _Stepper(model, grid, config, s, T)


def _march(model, grid, config, values, s, T, record):
    """Advance a flat field vector, or an (n, m) block of them, from s to T
    by :meth:`_Stepper.march` on :func:`_stepper_for`'s stepper.

    Returns the stepper and, with ``record``, the (K + 1,) + ``values.shape``
    array of every state, else the final state."""
    step = _stepper_for(model, grid, config, s, T)
    return step, step.march(values, record)


def evolve(model, grid, config, rho, s, T):
    """Evolve the density ``rho`` from time s to T, keeping every snapshot
    and its mass; a time-homogeneous model keeps the stepper, as every
    :func:`_march` does.

    Positivity is certified when no step had an a12 term."""
    if rho.grid is not grid and rho.grid != grid:
        raise ValueError("field does not live on the given grid")
    if not np.all(np.isfinite(rho.values)):
        raise ValueError("initial field has non-finite values")
    step, states = _march(model, grid, config, rho.values, s, T, record=True)
    states.setflags(write=False)
    return Trajectory(
        grid=grid,
        times=step.times,
        states=states,
        masses=states.sum(axis=1) * grid.cell_volume,
        positivity_certified=not step.mixed,
    )


def mass_curve(traj):
    """Masses along the trajectory as (time, mass) pairs."""
    return [(float(t), float(m)) for t, m in zip(traj.times, traj.masses)]


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
        "scheme": SCHEME,
        "positivity_certified": traj.positivity_certified,
    }
    _write_json(os.path.join(directory, "trajectory.json"), manifest)
    _write_rows(
        os.path.join(directory, "mass_curve.csv"),
        ["time", "mass"],
        ([repr(t), repr(m)] for t, m in mass_curve(traj)),
    )
    return names + ["trajectory.json", "mass_curve.csv"]
