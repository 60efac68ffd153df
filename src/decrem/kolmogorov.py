"""Forward equation solver for the absorbed process density.

Discretizes A p = sum_ij d2(a_ij p)/dx_i dx_j - sum_i d(f_i p)/dx_i on the
cell-centered grid.  Diffusion terms use central second differences of the
product a*p with odd reflection across the boundary faces, which pins the
zero Dirichlet value on the faces themselves.  Drift terms use first-order
upwind flux splitting with no inflow through the faces.  Time is stepped by
implicit Euler, the one scheme: its step matrix I - dt*A_h is an M-matrix
(columnwise diagonally dominant, nonpositive off-diagonal), so the step
preserves nonnegativity, in floating point too with no clamp (see
:func:`_march`), and strictly loses mass.  A scheme that keeps positivity
for every dt is at most first order (Bolley & Crouzeix 1978), so no
higher-order scheme is offered.  Mixed-derivative terms in 2-d break the
M-matrix structure and are flagged.

Every assembly of A_h first certifies that 2a = beta beta^T is finite and
positive definite at every node, in 2-d by the closed form of the smaller
eigenvalue of a 2 x 2 matrix, and every :class:`Propagator` certifies its
ends s and T when it is built, so a march is certified wherever a step
reads the coefficients.

Every time step from t_k to t_{k+1} solves M p_new = p with the step
matrix M = I - dt*A_h(t_{k+1}).  The sparse generator is written straight
into the compressed-column arrays that SuperLU takes, from one grid-shaped
array of entries per stencil offset, and M is formed in them: its data is
-(dt*a) off the diagonal and 1.0 - dt*a on it, the bits of I - dt*A_h, and
it shares A_h's index arrays, so no step goes through a sparse-format
conversion.  Measured on one CPU, the two steps of a seed op, at K and
K/2 steps, take about 0.32 ms on 16 cells and 1.1 ms on 10 x 10 nodes.
M gets a sparse LU factorization, in SuperLU's symmetric mode with
minimum degree ordering on M + M^T, about a third less fill than its
default, since M is structurally symmetric.  Each solve is checked a
posteriori: a singular factor, a non-finite solution or a column whose
relative residual exceeds ``linear_solver_tol`` raises
:class:`LinearSolveFailure`.  A time-homogeneous operator on at most
``DENSE_MAX_N`` nodes steps through the dense inverse S = M^-1, formed once
from the factor and used only under a certificate that bounds the relative
residual of every product S @ p, round-off included, by
``linear_solver_tol``.  One loop, :func:`_march`, takes every step of a
march, with one buffer rule: a vector steps through K + 1 rows when its
states are kept and two when they are not, an (n, m) block of vectors in
its own storage.  :func:`evolve` keeps the K + 1 states, read-only, as
the trajectory.

A :class:`Propagator` owns the steps of one march over [s, T]: it factors
each when first needed and keeps them within ``KEEP_BYTES``.  A model
keeps its latest propagator, which every :func:`_march` over the same
grid, config, s and T goes through.
"""

from __future__ import annotations

import itertools
import math
import os
import weakref
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csc_matrix
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

#: Columns per panel: :func:`_march` steps a block, the kernel of
#: :func:`fredholm.assemble_Q`, this many columns at a time, so a step
#: holds a few n x PANEL temporaries beside it.  Measured on one CPU, the
#: SuperLU solve of the 28 x 28 factor takes 13-15 us per column at 32
#: and at 64 alike, so the narrower panel costs no time.
PANEL = 32

#: Bytes of the steps one propagator keeps, 12 per nonzero of each sparse
#: matrix and 8 per entry of a dense inverse; its first step is kept past
#: it.  A series keeps all 128 steps of a march on 32 x 32 nodes and 38 on
#: 64 x 64, for about 65 MB more peak RSS (README has the measurements).
KEEP_BYTES = 64 << 20


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


def _cols(n, o):
    """The columns c along one axis of n cells whose row c + o is inside."""
    return slice(max(-o, 0), n - max(o, 0))


def _reach(n, s):
    """Where step s of the cross stencil lands along one axis, as columns,
    row offset and sign: the inside neighbour, or at the face the column's
    odd reflection (its own row, sign flipped)."""
    face = slice(n - 1, n) if s > 0 else slice(0, 1)
    return (_cols(n, -s), -s, 1.0), (face, 0, -1.0)


def _certify(a, pts, t):
    """The ellipticity certificate: ``a``, the (n, dim, dim) diffusion matrix
    at the nodes ``pts`` and time ``t``, unless 2a = beta beta^T is not
    finite and positive definite at some node; then EllipticityViolation.

    In 2-d the smallest eigenvalue of [[p, q], [q, r]] is det / lambda_max,
    each product divided by lambda_max, floored at the smallest normal
    float, first.  As no eigenvalue of beta beta^T exceeds lambda_max in
    size, up to round-off, no product overflows, a near-singular matrix
    keeps its sign and an all-zero matrix gives 0."""
    bbT = 2.0 * a
    eigs = bbT[:, 0, 0]
    if a.shape[1] == 2:
        p, q, r = eigs, bbT[:, 0, 1], bbT[:, 1, 1]
        with np.errstate(invalid="ignore", over="ignore"):  # inf - inf is NaN: no certificate
            top = np.maximum(0.5 * (p + r) + np.hypot(0.5 * (p - r), q), np.finfo(float).tiny)
            eigs = p / top * r - q / top * q
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
    """A_h at time ``t`` as a CSC matrix, whether it has an a12 term, and
    where each column's diagonal entry sits in its data; the coefficients
    are certified elliptic first.

    ``w[o]`` holds, per column c, the entry in row c + o; each entry adds up
    its terms in one fixed order: diffusion per axis, cross term, drift.
    The offsets run in the order of their rows, so a column's nonzero
    entries in offset order are its compressed column.  The diagonal is
    stored even where it is 0.0, so M = I - dt*A_h shares A_h's structure.
    """
    if model.dim != grid.dim:
        raise ValueError(f"model dim {model.dim} != grid dim {grid.dim}")
    dim, shape, h, n = grid.dim, grid.shape, grid.h, grid.n
    pts = grid.nodes()
    a = _certify(eval_a(model, pts, t), pts, t).reshape(shape + (dim, dim))
    f = model.drift_at(pts, t).reshape(shape + (dim,))
    offsets = list(itertools.product((-1, 0, 1), repeat=dim))
    entries = np.zeros(shape + (len(offsets),))
    w = {o: entries[..., i] for i, o in enumerate(offsets)}
    center = (0,) * dim

    def along(k, sl):
        return (slice(None),) * k + (sl,) + (slice(None),) * (dim - k - 1)

    def couple(k, o, values):
        """Add values[c] to column c in row c + o e_k."""
        cols = along(k, _cols(shape[k], o))
        w[tuple(o * (i == k) for i in range(dim))][cols] += values[cols]

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
            for c0, o0, f0 in _reach(shape[0], s0):
                for c1, o1, f1 in _reach(shape[1], s1):
                    term = s0 * s1 * f0 * f1 * a[c0, c1, 0, 1]
                    w[o0, o1][c0, c1] += 2.0 * term / scale
    for k in range(dim):
        # first-order upwind flux with no inflow through the faces
        fp = np.maximum(f[..., k], 0.0)
        fm = np.maximum(-f[..., k], 0.0)
        w[center] -= (fp + fm) / h[k]
        couple(k, 1, fp / h[k])
        couple(k, -1, fm / h[k])
    entries, m = entries.reshape(n, -1), len(offsets)
    keep = entries != 0.0  # an entry outside the grid stays 0.0
    keep[:, m // 2] = True
    before = np.zeros(n * m + 1, dtype=np.int32)  # the kept entries before each one
    np.cumsum(keep, out=before[1:])
    shift = [sum(o[k] * math.prod(shape[k + 1 :]) for k in range(dim)) for o in offsets]
    rows = np.arange(n, dtype=np.int32)[:, None] + np.array(shift, dtype=np.int32)
    A = csc_matrix((entries[keep], rows[keep], before[::m].copy()), shape=(n, n))
    return A, mixed, before[m // 2 :: m]


@dataclass
class _Step:
    """One step matrix M = I - dt*A_h(t): whether A_h has an a12 term, M,
    its sparse factor and the certified dense inverse or None."""

    mixed: bool
    M: object
    lu: object
    inverse: object


def _certified_inverse(M, lu, tol):
    """S = M^-1 from the factor ``lu``, or None if S cannot be certified.

    A computed x = S @ p has the residual p - M x = (I - M S) p
    minus M times the product's round-off, which is at most
    gamma_n |S| |p| entrywise.  The computed I - M S is off by the
    same amount again, and Frobenius norms bound 2-norms, so the bound
    below caps the relative residual of every dense step by ``tol``.
    """
    n = M.shape[0]
    S = lu.solve(np.eye(n))
    R = M @ S
    R.flat[:: n + 1] -= 1.0  # M S - I, the same norm as I - M S
    eps = np.finfo(float).eps
    gamma = n * eps / (1.0 - n * eps)
    rounding = 2.0 * gamma * (np.linalg.norm(M.data) * np.linalg.norm(S))
    bound = np.linalg.norm(R) + rounding
    # written so that a NaN bound fails too
    return S if bound <= tol else None


def _check(M, tol, rhs, x, k):
    """Relative 2-norm residual of the solve ``x`` of step ``k``: of the
    vector, or of each column of the panel."""
    d = rhs - M @ x
    sq = np.einsum("i...,i...->...", d, d)
    # the comparison is written so that a NaN residual fails too
    if not np.all(sq <= tol**2 * np.einsum("i...,i...->...", rhs, rhs)):
        raise LinearSolveFailure(f"solve at step {k} missed relative residual {tol:g}")


def _step_times(config, s, T):
    """t_0 = s < ... < t_K = T, the times of every march over [s, T]."""
    return s + (T - s) / config.n_steps * np.arange(config.n_steps + 1)


class Propagator:
    """The implicit-Euler march of ``model`` on ``grid`` over [s, T]: its
    read-only step times, its certificate, and ``steps``, k to the kept
    step to t_{k+1}.  Several can be held and marched at once.

    Built, it certifies both ends.  A time-homogeneous model's one step,
    to every t_{k+1}, is factored here from ``stencil``, its A_h, built at
    s or handed over as ``_stencil`` by a propagator on the same grid.  A
    series' steps read the coefficients at t_1, ..., t_K only, so s is
    certified directly and t_K through ``stencil``, A_h(t_K), which its
    step to t_K takes.  Each step is factored when first needed and kept
    while the kept bytes stay within ``KEEP_BYTES``, the first always.  It
    refers to its model weakly, so a model and the propagator in its slot
    go without the cycle collector, and it marches only while the model
    lives.
    """

    def __init__(self, model, grid, config, s, T, _stencil=None):
        if not T > s:
            raise ValueError(f"need s < T, got s={s}, T={T}")
        self.model, self.grid, self.config = weakref.proxy(model), grid, config
        self.s, self.T, self.dt = s, T, (T - s) / config.n_steps
        self.times = _step_times(config, s, T)
        self.times.setflags(write=False)
        self.steps, self.kept = {}, 0
        if model.time_dependent:
            pts = grid.nodes()
            _certify(eval_a(model, pts, s), pts, s)
            self.stencil = build_stencil(model, grid, self.times[-1])
        else:
            self.stencil = _stencil or build_stencil(model, grid, s)
            self.step(0)

    def step(self, k):
        """The step to t_{k+1}, kept or built now.

        M is formed in A_h's compressed arrays and shares its index arrays:
        -(dt*a) off the diagonal and 1.0 - dt*a on it, the bits of
        I - dt*A_h, as x - y is x + (-y).  Only a time-homogeneous step on
        at most ``DENSE_MAX_N`` nodes forms the certified inverse, and only
        its bytes count A_h, which a series' steps do not keep.
        """
        if k in self.steps:
            return self.steps[k]
        series = self.model.time_dependent
        t = self.times[k + 1] if series else self.s
        last = not series or k == len(self.times) - 2
        A, mixed, diag = self.stencil if last else build_stencil(self.model, self.grid, t)
        M = csc_matrix((A.data * -self.dt, A.indices, A.indptr), shape=A.shape)
        M.data[diag] += 1.0
        try:
            # M is structurally symmetric; default partial pivoting
            lu = splu(M, permc_spec="MMD_AT_PLUS_A", options={"SymmetricMode": True})
        except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
            raise LinearSolveFailure(
                f"step matrix at t={t:g} could not be factored: {exc}"
            ) from exc
        dense = not series and self.grid.n <= DENSE_MAX_N
        inverse = _certified_inverse(M, lu, self.config.linear_solver_tol) if dense else None
        size = 12 * (lu.nnz + M.nnz + (0 if series else A.nnz)) + getattr(inverse, "nbytes", 0)
        step = _Step(mixed, M, lu, inverse)
        if not self.steps or self.kept + size <= KEEP_BYTES:
            self.steps[k] = step
            self.kept += size
        return step

    def march(self, values, record):
        """March the flat vector ``values``, or the (n, m) block ``values``
        in its own storage, over every step from s to T: the stepping core.

        Under the certified dense inverse S a step is the product S @ p,
        otherwise a solve through the step's factor, checked by
        :func:`_check`.  A block is stepped ``PANEL`` columns at a time, and
        each panel's new state, its product checked finite or its solve
        checked, is written back in place.  A vector steps through ``rows``
        states, K + 1 with ``record`` and 2 without: step k reads row
        k % rows and writes row (k + 1) % rows.  Under S only the final
        state is checked finite: one non-finite entry of p makes every entry
        of S @ p non-finite, so a bad step leaves every later state bad.
        The error names the first bad step, read from the recorded states;
        an unrecorded march is replayed recorded to find it.  Nothing is
        clamped: without an a12 term M is strictly column-dominant, so
        SuperLU pivots on its diagonal, L and U keep the M-matrix signs,
        and the solve and S @ p of a nonnegative state add up nonnegative
        terms only.

        Returns the times, whether a step had an a12 term, and the states
        (all K + 1 with ``record``, else the final one), or the block itself.
        """
        K, tol, mixed = self.config.n_steps, self.config.linear_solver_tol, False
        one = None if self.model.time_dependent else self.step(0)
        S = None if one is None else one.inverse
        block = np.ndim(values) == 2
        if not block:
            rows = K + 1 if record else 2
            states = np.empty((rows,) + np.shape(values))
            states[0] = values
        for k in range(K):
            step = one or self.step(k)
            mixed |= step.mixed
            if block:
                for j in range(0, values.shape[1], PANEL):
                    x = values[:, j : j + PANEL]
                    new = step.lu.solve(x) if S is None else S @ x
                    if S is None:
                        _check(step.M, tol, x, new, k)
                    elif not np.isfinite(new).all():
                        raise LinearSolveFailure(f"solve at step {k} is not finite")
                    x[...] = new
                continue
            x, out = states[k % rows], states[(k + 1) % rows]
            if S is None:
                out[...] = step.lu.solve(x)
                _check(step.M, tol, x, out, k)
            else:
                S.dot(x, out=out)
        if block:
            return self.times, mixed, values
        if S is not None and not np.isfinite(states[K % rows]).all():
            if not record:  # replayed keeping every state, which raises there
                states = self.march(values, True)[2]
            bad = int(np.argmin(np.isfinite(states[1:]).all(axis=1)))
            raise LinearSolveFailure(f"solve at step {bad} is not finite")
        return self.times, mixed, states if record else states[K % rows].copy()


def _propagator(model, grid, config, s, T):
    """The model's latest propagator if it has this grid, config, s and T,
    else a new one in its place: the old one goes before the new one
    factors, and hands a time-homogeneous model's A_h over on the same grid."""
    prop, model.propagator = model.propagator, None
    if prop is None or (prop.grid, prop.config, prop.s, prop.T) != (grid, config, s, T):
        same = prop is not None and prop.grid == grid and not model.time_dependent
        stencil, prop = prop.stencil if same else None, None  # the old one goes here
        prop = Propagator(model, grid, config, s, T, stencil)
    model.propagator = prop
    return prop


def _march(model, grid, config, values, s, T, record):
    """:meth:`Propagator.march` through the model's propagator for [s, T],
    the one entry of every march in the package."""
    return _propagator(model, grid, config, s, T).march(values, record)


def evolve(model, grid, config, rho, s, T):
    """Evolve the density ``rho`` from time s to T, keeping every snapshot
    and its mass, through the model's propagator, as every :func:`_march`.

    Positivity is certified when no step had an a12 term."""
    if rho.grid is not grid and rho.grid != grid:
        raise ValueError("field does not live on the given grid")
    if not np.all(np.isfinite(rho.values)):
        raise ValueError("initial field has non-finite values")
    times, mixed, states = _march(model, grid, config, rho.values, s, T, record=True)
    states.setflags(write=False)
    return Trajectory(
        grid=grid,
        times=times,
        states=states,
        masses=states.sum(axis=1) * grid.cell_volume,
        positivity_certified=not mixed,
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
