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
eigenvalue of a 2 x 2 matrix, and every march certifies its ends s and T
too, unless a kept step already carries that certificate, so a march is
certified wherever a step reads the coefficients.

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

This module alone decides which marches share a factor, by the one keep
rule of :func:`_step`.
"""

from __future__ import annotations

import itertools
import math
import os
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

#: Bytes of the steps one model keeps, 12 per nonzero of each sparse matrix
#: and 8 per entry of a dense inverse; the first step of a size is kept past
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
    """One step matrix M = I - dt*A_h(t): A_h as :func:`build_stencil`
    returned it (None for a tabulated series, whose steps never share it),
    whether it has an a12 term, M, its sparse factor, the certified dense
    inverse or None, and ``kept``, the bytes of its model's kept steps up to
    it, itself included.  It holds no reference back to the model, so both
    go without the cycle collector."""

    stencil: object
    mixed: bool
    M: object
    lu: object
    inverse: object
    kept: int


def _step(model, grid, tol, dt, t, stencil=None):
    """The step of size ``dt`` to time ``t``: the model's kept one, or new.

    A model keeps the steps of one ``(grid, tol, dt)`` at a time in
    ``model.steps``, a tabulated series one per t and a time-homogeneous
    model one, whose A_h is built at ``t``.  A new step size drops the kept
    steps before it factors; a time-homogeneous model first takes A_h from
    them if the grid is the same.  ``stencil``, if given, is
    :func:`build_stencil` at ``t``, built by the caller.  M is formed in
    A_h's compressed arrays and shares its index arrays: -(dt*a) off the
    diagonal and 1.0 - dt*a on it, the bits of I - dt*A_h, as x - y is
    x + (-y).  Only a time-homogeneous step on at most ``DENSE_MAX_N``
    nodes forms the certified inverse.  A step is kept if it is the first
    of its size or the kept bytes stay within ``KEEP_BYTES``.
    """
    series = model.time_dependent
    key = (grid, tol, dt, t if series else None)
    steps = model.steps
    if key in steps:
        return steps[key]
    old_key = next(iter(steps), None)
    if old_key is not None and not series and old_key[0] == grid:
        stencil = steps[old_key].stencil
    if old_key is not None and old_key[:3] != key[:3]:
        steps.clear()
    A, mixed, diag = stencil = stencil or build_stencil(model, grid, t)
    M = csc_matrix((A.data * -dt, A.indices, A.indptr), shape=A.shape)
    M.data[diag] += 1.0
    try:
        # M is structurally symmetric; default partial pivoting
        lu = splu(M, permc_spec="MMD_AT_PLUS_A", options={"SymmetricMode": True})
    except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
        raise LinearSolveFailure(
            f"step matrix at t={t:g} could not be factored: {exc}"
        ) from exc
    inverse = None
    if series:
        stencil = None  # only a time-homogeneous model shares its A_h
    elif grid.n <= DENSE_MAX_N:
        inverse = _certified_inverse(M, lu, tol)
    nnz = lu.nnz + M.nnz + (0 if stencil is None else A.nnz)
    kept = 12 * nnz + (0 if inverse is None else inverse.nbytes)
    if steps:
        kept += next(reversed(steps.values())).kept
    step = _Step(stencil, mixed, M, lu, inverse, kept)
    if not steps or kept <= KEEP_BYTES:
        steps[key] = step
    return step


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


def _steps(model, grid, config, s, T):
    """The times t_0 = s < ... < t_K = T of a march and, as a function of k,
    its step to t_{k+1}: a time-homogeneous model's one step, fetched here
    for its certificate and by each march from the model's kept steps, or
    a series' step at each time.  Ellipticity is certified at s and T
    here, through A_h for a time-homogeneous model.  A series' steps read
    the coefficients at t_1, ..., t_K only, so s is certified directly, here
    or nowhere, and t_K through A_h(t_K), which its step to t_K then takes.
    A series skips an end whose certificate a kept step carries: its step
    to t_K certified t_K when it was built, and its step to t_1 came from a
    march with this dt through t_1, which certified every time up to t_1,
    s included."""
    if not T > s:
        raise ValueError(f"need s < T, got s={s}, T={T}")
    times = _step_times(config, s, T)
    dt = (T - s) / config.n_steps
    tol = config.linear_solver_tol
    if model.time_dependent:
        if (grid, tol, dt, times[1]) not in model.steps:
            pts = grid.nodes()
            _certify(eval_a(model, pts, s), pts, s)
        # A_h(t_K) for the step to t_K, or False (no stencil) where that step is kept
        end = (grid, tol, dt, times[-1]) not in model.steps and build_stencil(model, grid, times[-1])
        return times, lambda k: _step(model, grid, tol, dt, times[k + 1], k == len(times) - 2 and end)
    _step(model, grid, tol, dt, s)  # the one step, fetched here for its certificate
    return times, lambda k: _step(model, grid, tol, dt, s)


def _march(model, grid, config, values, s, T, record, steps=None):
    """March the flat vector ``values``, or the (n, m) block ``values`` in
    its own storage, over every implicit-Euler step from s to T: the
    stepping core.  ``steps``, if given, is what :func:`_steps` returned for
    this march, which then certifies nothing again.

    A time-homogeneous model's one step is fetched once, a tabulated
    series' step of each time once.  Under the certified dense inverse S a
    step is the product S @ p, otherwise a solve through the step's
    factor, checked by :func:`_check`.  A block is stepped ``PANEL``
    columns at a time, and each panel's new state, its product checked
    finite or its solve checked, is written back in place.  A vector steps
    through ``rows`` states, K + 1 with ``record`` and 2 without: step k
    reads row k % rows and writes row (k + 1) % rows.  Under S only the
    final state is checked finite: one non-finite entry of p makes every
    entry of S @ p non-finite, so a bad step leaves every later state bad.
    The error names the first bad step, read from the recorded states; an
    unrecorded march is replayed recorded to find it.  Nothing is clamped:
    without an a12 term M is strictly column-dominant, so SuperLU pivots
    on its diagonal, L and U keep the M-matrix signs, and the solve and
    S @ p of a nonnegative state add up nonnegative terms only.

    Returns the times, whether a step had an a12 term, and the states
    (all K + 1 with ``record``, else the final one), or the block itself.
    """
    times, step_at = steps or _steps(model, grid, config, s, T)
    K, tol, mixed = config.n_steps, config.linear_solver_tol, False
    kept = None if model.time_dependent else step_at(0)
    S = None if kept is None else kept.inverse
    block = np.ndim(values) == 2
    if not block:
        rows = K + 1 if record else 2
        states = np.empty((rows,) + np.shape(values))
        states[0] = values
    for k in range(K):
        step = kept or step_at(k)
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
        return times, mixed, values
    if S is not None and not np.isfinite(states[K % rows]).all():
        if not record:  # replayed keeping every state, which raises there
            states = _march(model, grid, config, values, s, T, True, (times, step_at))[2]
        bad = int(np.argmin(np.isfinite(states[1:]).all(axis=1)))
        raise LinearSolveFailure(f"solve at step {bad} is not finite")
    return times, mixed, states if record else states[K % rows].copy()


def evolve(model, grid, config, rho, s, T):
    """Evolve the density ``rho`` from time s to T, keeping every snapshot
    and its mass; the model keeps the steps, as every :func:`_march` does.

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
