import gc
import itertools
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import coo_matrix, identity
from scipy.sparse.linalg import splu

from decrem import (
    DensityField,
    EllipticityViolation,
    LinearSolveFailure,
    SolverConfig,
    constant_model,
    eval_a,
    evolve,
    make_grid,
    mass,
    mass_curve,
    ou_model,
    propagator_action,
    tabulated_model,
)
from decrem import kolmogorov
from decrem.kolmogorov import (
    DENSE_MAX_N,
    PANEL,
    Propagator,
    _check,
    _march,
    build_stencil,
)
from conftest import sampled_sine

DECAY_1 = np.exp(-np.pi**2 / 2)  # e^{-pi^2/2} ~ 0.0071918834


def _reference_apply(model, grid, t, values):
    """The matrix-free A_h that the assembly replaced, kept as its
    reference: diffusion per axis, the cross term, drift per axis."""
    pts = grid.nodes()
    a = eval_a(model, pts, t)
    f = model.drift_at(pts, t)
    p = values.reshape(grid.shape)
    h = grid.h
    if grid.dim == 1:
        q = a[:, 0, 0].reshape(grid.shape) * p
        out = np.empty_like(q)
        out[1:-1] = q[2:] - 2.0 * q[1:-1] + q[:-2]
        out[0] = q[1] - 3.0 * q[0]
        out[-1] = q[-2] - 3.0 * q[-1]
        out /= h[0] ** 2
    else:
        out = np.zeros_like(p)
        q = a[:, 0, 0].reshape(grid.shape) * p
        out[1:-1, :] += (q[2:, :] - 2.0 * q[1:-1, :] + q[:-2, :]) / h[0] ** 2
        out[0, :] += (q[1, :] - 3.0 * q[0, :]) / h[0] ** 2
        out[-1, :] += (q[-2, :] - 3.0 * q[-1, :]) / h[0] ** 2
        q = a[:, 1, 1].reshape(grid.shape) * p
        out[:, 1:-1] += (q[:, 2:] - 2.0 * q[:, 1:-1] + q[:, :-2]) / h[1] ** 2
        out[:, 0] += (q[:, 1] - 3.0 * q[:, 0]) / h[1] ** 2
        out[:, -1] += (q[:, -2] - 3.0 * q[:, -1]) / h[1] ** 2
        a12 = a[:, 0, 1].reshape(grid.shape)
        if np.any(a12 != 0.0):
            q = a12 * p
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
    for k in range(grid.dim):
        fk = f[:, k].reshape(grid.shape)
        fp = np.maximum(fk, 0.0)
        fm = np.maximum(-fk, 0.0)
        out -= (fp + fm) * p / h[k]
        lo = (slice(None),) * k + (slice(None, -1),)
        hi = (slice(None),) * k + (slice(1, None),)
        out[hi] += (fp * p)[lo] / h[k]
        out[lo] += (fm * p)[hi] / h[k]
    return out.reshape(-1)


def _reference_matrix(model, grid, t):
    """Sparse matrix of :func:`_reference_apply`, probed with one field per
    color: nodes are colored by their index modulo 3 per axis, so within
    any 3x3 neighborhood the colors are distinct."""
    shape = grid.shape
    idx = np.indices(shape).reshape(grid.dim, -1)
    color = np.ravel_multi_index(idx % 3, (3,) * grid.dim)
    probes = np.array(
        [
            _reference_apply(model, grid, t, (color == c).astype(float))
            for c in range(3**grid.dim)
        ]
    )
    rows, cols, vals = [], [], []
    for off in itertools.product((-1, 0, 1), repeat=grid.dim):
        nbr = idx + np.array(off)[:, None]
        ok = np.all((nbr >= 0) & (nbr < np.array(shape)[:, None]), axis=0)
        i = np.flatnonzero(ok)
        j = np.ravel_multi_index(nbr[:, ok], shape)
        rows.append(i)
        cols.append(j)
        vals.append(probes[color[j], i])
    mat = coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(grid.n, grid.n),
    ).tocsr()
    mat.eliminate_zeros()
    return mat


def _assert_bit_identical(model, grid, t):
    A = build_stencil(model, grid, t)[0].tocsr()
    ref = _reference_matrix(model, grid, t)
    for part in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(A, part), getattr(ref, part)), part


def test_apply_A_zero_field(grid128, heat):
    A = build_stencil(heat, grid128, 0.0)[0]
    assert not np.any(A @ np.zeros(grid128.n))


def test_apply_A_eigenfunction(heat):
    # A sin(pi x) = -(pi^2/2) sin(pi x) for a = 1/2
    grid = make_grid(1, [0.0], [1.0], [256])
    f = sampled_sine(grid)
    out = build_stencil(heat, grid, 0.0)[0] @ f.values
    expected = -(np.pi**2 / 2) * f.values
    assert np.linalg.norm(out - expected) <= 1e-3 * np.linalg.norm(expected)
    mid = np.argmin(np.abs(grid.axis_centers(0) - 0.5))
    assert out[mid] == pytest.approx(-4.9348, rel=1e-3)


def test_apply_A_hand_stencil():
    # 8 cells on (0,1), a = 1/2, f = 2, p = 1.  Hand evaluation:
    # diffusion folds -a/h^2 into both boundary cells (odd reflection),
    # upwind drift removes 2*p/h at the inflow cell and nothing elsewhere
    # (the outflow face flux cancels the upwind difference).
    grid = make_grid(1, [0.0], [1.0], [8])
    model = constant_model([2.0], [[1.0]])
    out = build_stencil(model, grid, 0.0)[0] @ np.ones(8)
    expected = np.zeros(8)
    expected[0] = -2.0 * 0.5 * 64.0 - 2.0 * 8.0  # -64 diffusion, -16 drift
    expected[-1] = -2.0 * 0.5 * 64.0
    assert np.array_equal(out, expected)


def test_evolve_zero_is_zero(grid64, heat):
    zero = DensityField(grid64, np.zeros(grid64.n))
    traj = evolve(heat, grid64, SolverConfig(n_steps=8), zero, 0.0, 0.5)
    for f in traj.fields:
        assert not np.any(f.values)


def test_eigenmode_decay(heat):
    grid = make_grid(1, [0.0], [1.0], [256])
    config = SolverConfig(n_steps=2048)
    rho = sampled_sine(grid)
    traj = evolve(heat, grid, config, rho, 0.0, 1.0)
    expected = DECAY_1 * rho.values
    err = np.linalg.norm(traj.fields[-1].values - expected)
    assert err <= 1e-2 * np.linalg.norm(expected)
    mid = np.argmin(np.abs(grid.axis_centers(0) - 0.5))
    assert traj.fields[-1].values[mid] == pytest.approx(0.007192, rel=1e-2)


def test_point_mass_vs_image_series(heat):
    # odd cell count puts a cell center exactly at 1/2
    grid = make_grid(1, [0.0], [1.0], [255])
    h = grid.h[0]
    values = np.zeros(grid.n)
    values[grid.n // 2] = 1.0 / h
    T = 0.02
    config = SolverConfig(n_steps=500)
    traj = evolve(heat, grid, config, DensityField(grid, values), 0.0, T)

    # method of images for absorption at {0,1}: sum of signed Gaussians
    # centered at reflections of x0=1/2, variance 2 a T = T
    x = grid.axis_centers(0)
    var = T
    p = np.zeros_like(x)
    for k in range(-8, 9):
        p += np.exp(-((x - (2 * k + 0.5)) ** 2) / (2 * var))
        p -= np.exp(-((x - (2 * k - 0.5)) ** 2) / (2 * var))
    p /= np.sqrt(2 * np.pi * var)
    sup_err = np.abs(traj.fields[-1].values - p).max() / p.max()
    assert sup_err <= 0.03


def test_convergence_order_in_dt(heat):
    grid = make_grid(1, [0.0], [1.0], [64])
    tol = SolverConfig(n_steps=1).linear_solver_tol
    rho = sampled_sine(grid)
    # discrete-in-space eigenvalue, so only the time error remains
    lam = 2.0 * 0.5 * (1.0 - np.cos(np.pi * grid.h[0])) / grid.h[0] ** 2
    exact = np.exp(-lam * 0.5) * rho.values

    def error(n_steps):
        config = SolverConfig(n_steps=n_steps, linear_solver_tol=1e-13)
        final = evolve(heat, grid, config, rho, 0.0, 0.5).fields[-1]
        return np.abs(final.values - exact).max()

    e_ie = [error(k) for k in (16, 32, 64)]
    ratios = [e_ie[i] / e_ie[i + 1] for i in range(2)]
    assert all(1.7 <= r <= 2.4 for r in ratios)  # first order: ratio ~ 2


def test_mass_curve_of_eigenmode(heat):
    grid = make_grid(1, [0.0], [1.0], [256])
    config = SolverConfig(n_steps=2048)
    traj = evolve(heat, grid, config, sampled_sine(grid), 0.0, 1.0)
    curve = mass_curve(traj)
    for t, m in curve[:: len(curve) // 16]:
        assert m == pytest.approx((2.0 / np.pi) * np.exp(-np.pi**2 * t / 2), rel=2e-2)


def test_mass_strictly_decreasing_implicit_euler(grid64, heat):
    rng = np.random.default_rng(23)
    for _ in range(10):
        rho = DensityField(grid64, rng.random(64))
        traj = evolve(heat, grid64, SolverConfig(n_steps=16), rho, 0.0, 0.25)
        masses = np.array([m for _, m in mass_curve(traj)])
        assert np.all(np.diff(masses) < 0.0)


def test_positivity_random_fields(grid64):
    model = ou_model(1.5, [0.5], 1.0)
    rng = np.random.default_rng(31)
    config = SolverConfig(n_steps=16)
    for _ in range(20):
        rho = DensityField(grid64, rng.random(64))
        traj = evolve(model, grid64, config, rho, 0.0, 0.25)
        assert traj.positivity_certified
        for f in traj.fields:
            assert f.values.min() >= 0.0


def test_semigroup_property(grid64, heat):
    rho = sampled_sine(grid64)
    whole = evolve(heat, grid64, SolverConfig(n_steps=32), rho, 0.0, 0.5).fields[-1]
    half = evolve(heat, grid64, SolverConfig(n_steps=16), rho, 0.0, 0.25).fields[-1]
    again = evolve(heat, grid64, SolverConfig(n_steps=16), half, 0.25, 0.5).fields[-1]
    assert np.allclose(whole.values, again.values, rtol=0.0, atol=1e-10)


def test_unsolvable_step_raises(heat):
    # no factored solve meets a relative residual of 1e-20: that is a
    # LinearSolveFailure at the first step, not a crash or a quiet result
    grid = make_grid(1, [0.0], [1.0], [32])
    config = SolverConfig(n_steps=8, linear_solver_tol=1e-20)
    with pytest.raises(LinearSolveFailure, match="step 0"):
        evolve(heat, grid, config, sampled_sine(grid), 0.0, 0.5)


def test_evolve_rejects_bad_input(grid64, heat):
    rho = DensityField(grid64, np.ones(64))
    with pytest.raises(ValueError):
        evolve(heat, grid64, SolverConfig(n_steps=4), rho, 1.0, 0.5)
    bad = DensityField(grid64, np.ones(64))
    object.__setattr__(bad, "values", np.full(64, np.nan))
    with pytest.raises(ValueError):
        evolve(heat, grid64, SolverConfig(n_steps=4), bad, 0.0, 0.5)
    other = make_grid(1, [0.0], [2.0], [64])
    with pytest.raises(ValueError):
        evolve(heat, other, SolverConfig(n_steps=4), rho, 0.0, 0.5)


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(n_steps=0)
    with pytest.raises(TypeError):  # one time scheme: there is no option
        SolverConfig(n_steps=4, scheme="explicit-euler")
    with pytest.raises(ValueError):
        SolverConfig(n_steps=4, linear_solver_tol=2.0)


def test_generator_matrix_matches_apply(grid64):
    # the assembled matrix equals the probed matrix-free stencil bit for bit
    grid2 = make_grid(2, [0.0, -0.5], [1.0, 1.2], [9, 7])
    _assert_bit_identical(constant_model([0.0], [[1.0]]), grid64, 0.0)
    _assert_bit_identical(ou_model(2.0, [0.3], 1.0), grid64, 0.0)
    drifted = constant_model([0.2, -0.1], [[1.0, 0.0], [0.0, 0.7]])
    _assert_bit_identical(drifted, grid2, 0.0)
    rng = np.random.default_rng(41)
    grid = make_grid(2, [0.0, 0.0], [1.0, 1.0], [10, 7])
    series = [
        (rng.normal(size=(grid.n, 2)), rng.normal(size=(grid.n, 2, 2)) + 2 * np.eye(2))
        for _ in range(2)
    ]
    table = tabulated_model(grid, [0.0, 1.0], series)
    for t in (0.0, 0.37):
        _assert_bit_identical(table, grid, t)


def test_generator_matrix_2d_mixed():
    grid = make_grid(2, [0.0, 0.0], [1.0, 1.0], [8, 8])
    cases = ((1.0, [[1.0, 0.4], [0.0, 1.0]]), (-1.0, [[1.0, -0.4], [0.2, 1.0]]))
    for sign, beta in cases:
        model = constant_model([0.1, -0.2], beta)
        assert np.sign(eval_a(model, grid.nodes(), 0.0)[0, 0, 1]) == sign
        _assert_bit_identical(model, grid, 0.0)


def _assert_step_is_the_sparse_chain(model, grid, t, dt):
    """A_h and the step matrix M of the one step of a new propagator over
    [t, t + dt] carry the bits, the canonical structure and the nnz of the
    sparse chain they replaced: the probed A_h at the step's time, and
    M = identity(n) - dt*A_h converted to CSC, with the propagator's dt."""
    prop = Propagator(model, grid, SolverConfig(n_steps=1), t, t + dt)
    ref = _reference_matrix(model, grid, prop.times[1])  # a homogeneous model reads no t
    ref_M = (identity(grid.n, format="csr") - prop.dt * ref).tocsc()
    # the one step takes the propagator's A_h: a series' A_h(T), else A_h
    M, A = prop.step(0).M, prop.stencil[0]
    for mat, want in ((A.tocsr(), ref), (A, ref.tocsc()), (M, ref_M)):
        assert mat.format == want.format and mat.nnz == want.nnz
        assert mat.has_sorted_indices and np.all(mat.data != 0.0)
        for part in ("indptr", "indices", "data"):
            got, exp = getattr(mat, part), getattr(want, part)
            assert got.dtype == exp.dtype and got.tobytes() == exp.tobytes(), part
    for part in ("indptr", "indices"):
        assert np.shares_memory(getattr(M, part), getattr(A, part)), part


@pytest.mark.parametrize("dt", [1e-3, 0.3 / 128, 0.7])
def test_step_matrix_is_the_sparse_chain(dt):
    # 1-d and 2-d, zero and nonzero drift, an a12 term, a tabulated series
    rng = np.random.default_rng(43)
    grid1 = make_grid(1, [0.0], [1.0], [16])
    grid2 = make_grid(2, [0.0, -0.5], [1.0, 1.2], [9, 7])
    cases = [
        (constant_model([0.0], [[1.0]]), grid1),
        (ou_model(2.0, [0.3], 1.0), grid1),
        (constant_model([0.0, 0.0], [[1.0, 0.0], [0.0, 0.7]]), grid2),
        (constant_model([0.2, -0.1], [[1.0, 0.0], [0.0, 0.7]]), grid2),
        (constant_model([0.1, -0.2], [[1.0, -0.4], [0.2, 1.0]]), grid2),
        (_random_series(grid2, rng, cross=True), grid2),
    ]
    for model, grid in cases:
        for t in (0.0, 0.13):
            _assert_step_is_the_sparse_chain(model, grid, t, dt)


@settings(max_examples=50, deadline=None)
@given(
    dim=st.sampled_from([1, 2]),
    drift=st.lists(st.floats(-20.0, 20.0), min_size=2, max_size=2),
    beta=st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4),
    dt=st.floats(1e-5, 2.0),
)
def test_step_matrix_is_the_sparse_chain_property(dim, drift, beta, dt):
    beta = np.reshape(beta, (2, 2))[:dim, :dim] + 2.5 * np.eye(dim)
    grid = make_grid(dim, [0.0] * dim, [1.0] * dim, [6, 5][:dim])
    _assert_step_is_the_sparse_chain(constant_model(drift[:dim], beta), grid, 0.0, dt)


def test_column_sums_certify_mass_loss(grid64, heat):
    # columns of A sum to <= 0, strictly < 0 next to the boundary, and its
    # off-diagonals are >= 0; this is what makes I - dt*A an M-matrix
    A = build_stencil(heat, grid64, 0.0)[0]
    sums = np.asarray(A.sum(axis=0)).ravel()
    assert np.all(sums <= 1e-9)
    assert sums[0] < -1.0 and sums[-1] < -1.0
    assert np.allclose(sums[1:-1], 0.0, atol=1e-9)
    # the drifted, axis-aligned 2-d model of the seed-2d benchmark
    grid = make_grid(2, [0.0, 0.0], [1.0, 1.0], [10, 10])
    drifted = constant_model([0.2, -0.1], [[1.0, 0.0], [0.0, 0.7]])
    for model, g in ((heat, grid64), (drifted, grid)):
        A = build_stencil(model, g, 0.0)[0].tocoo()
        assert np.all(A.data[A.row != A.col] >= 0.0)
        sums = np.asarray(A.sum(axis=0)).ravel()
        assert np.all(sums <= 1e-9 * abs(A).max())


@st.composite
def _axis_aligned_case(draw):
    """A random grid of 1 or 2 axes and a constant, linear-drift,
    tabulated or 3-sample tabulated series model with diagonal beta, so
    a12 == 0."""
    dim = draw(st.sampled_from([1, 2]))
    n_cells = draw(st.lists(st.integers(4, 12), min_size=dim, max_size=dim))
    lo = draw(st.lists(st.floats(-2.0, 1.0), min_size=dim, max_size=dim))
    width = draw(st.lists(st.floats(0.05, 4.0), min_size=dim, max_size=dim))
    grid = make_grid(dim, lo, np.add(lo, width), n_cells)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    family = draw(st.sampled_from(["constant", "linear-drift", "tabulated", "series"]))
    beta = np.diag(rng.uniform(0.05, 3, dim))
    if family == "constant":
        model = constant_model(rng.uniform(-5, 5, dim), beta)
    elif family == "linear-drift":
        center = np.add(lo, rng.uniform(0, 1, dim) * width)
        model = ou_model(rng.uniform(0, 5, dim), center, beta)
    else:
        times = [0.0, 0.1, 0.3] if family == "series" else [0.0]
        samples = []
        for _ in times:
            beta = np.zeros((grid.n, dim, dim))
            beta[:, range(dim), range(dim)] = rng.uniform(0.05, 3, (grid.n, dim))
            samples.append((rng.uniform(-5, 5, (grid.n, dim)), beta))
        model = tabulated_model(grid, times, samples)
    return model, grid


@settings(max_examples=60, deadline=None)
@given(
    case=_axis_aligned_case(), dt=st.floats(1e-4, 1.0), seed=st.integers(0, 2**32 - 1)
)
def test_axis_aligned_generator_is_monotone(case, dt, seed):
    # off-diagonals >= 0 and column sums <= 0 (to round-off) make
    # I - dt*A an M-matrix, so one implicit-Euler step keeps data >= 0
    model, grid = case
    A = build_stencil(model, grid, 0.0)[0].tocoo()
    assert np.all(A.data[A.row != A.col] >= 0.0)
    sums = np.asarray(A.sum(axis=0)).ravel()
    size = np.asarray(abs(A).sum(axis=0)).ravel()
    assert np.all(sums <= 1e-14 * size)
    rng = np.random.default_rng(seed)
    values = rng.random(grid.n)
    values[values < 0.3] = 0.0
    values[rng.integers(grid.n)] = 1.0  # at least one positive entry
    config = SolverConfig(n_steps=1)
    out = _march(model, grid, config, values, 0.0, dt, record=False)[2]
    assert not np.signbit(out).any()
    # why the march needs no clamp: M is strictly column-dominant, so
    # SuperLU pivots on its diagonal, L and U keep the M-matrix signs, and
    # a solve of nonnegative data adds up nonnegative terms only, -0.0 included
    (step,) = model.propagator.steps.values()
    lu = step.lu
    assert np.array_equal(lu.perm_r, lu.perm_c)
    for factor in (lu.L.tocoo(), lu.U.tocoo()):
        assert np.all(factor.data[factor.row != factor.col] <= 0.0)
    assert np.all(lu.U.diagonal() > 0.0)
    x = lu.solve(values)
    _check(step.M, config.linear_solver_tol, values, x, 0)
    assert not np.signbit(x).any()
    # a unit-mass panel, as assemble_Q marches it
    m = min(PANEL, grid.n)
    units = np.zeros((grid.n, m))
    units[np.arange(m), np.arange(m)] = 1.0 / grid.cell_volume
    assert not np.signbit(lu.solve(units)).any()


@settings(max_examples=60, deadline=None)
@given(case=_axis_aligned_case(), dt=st.floats(1e-4, 1.0))
def test_inverse_without_a12_is_nonnegative(case, dt):
    # M is strictly column-dominant, so SuperLU factors it without row
    # exchanges and L and U keep the M-matrix signs: every entry of
    # S = lu.solve(I) is a sum of nonnegative terms, >= 0 in floating point
    # too, and a dense step of a nonnegative state needs no clamp; no entry
    # is -0.0 either
    model, grid = case
    _march(model, grid, SolverConfig(n_steps=1), np.ones(grid.n), 0.0, dt, record=False)
    (step,) = model.propagator.steps.values()
    S = step.lu.solve(np.eye(grid.n))
    assert not np.signbit(S).any()
    assert step.inverse is None or np.array_equal(step.inverse, S)


def test_mixed_term_voids_certificate():
    grid = make_grid(2, [0.0, 0.0], [1.0, 1.0], [8, 8])
    model = constant_model([0.0, 0.0], [[1.0, 0.4], [0.0, 1.0]])
    rho = DensityField(grid, np.ones(grid.n))
    traj = evolve(model, grid, SolverConfig(n_steps=8), rho, 0.0, 0.1)
    assert not traj.positivity_certified
    aligned = constant_model([0.0, 0.0], [[1.0, 0.0], [0.0, 1.0]])
    traj = evolve(aligned, grid, SolverConfig(n_steps=8), rho, 0.0, 0.1)
    assert traj.positivity_certified


def test_2d_product_eigenmode_decay():
    grid = make_grid(2, [0.0, 0.0], [1.0, 1.0], [24, 24])
    model = constant_model([0.0, 0.0], np.eye(2))
    config = SolverConfig(n_steps=3072)
    rho = DensityField.from_function(
        grid, lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)
    )
    traj = evolve(model, grid, config, rho, 0.0, 0.3)
    ratio = traj.fields[-1].values / rho.values
    assert ratio.mean() == pytest.approx(np.exp(-np.pi**2 * 0.3), rel=1e-2)
    assert ratio.std() <= 1e-6 * ratio.mean()  # still an exact eigenvector


def _splu_solve(M):
    """The solve of a march's factor: SuperLU in the symmetric ordering."""
    return splu(M.tocsc(), permc_spec="MMD_AT_PLUS_A", options={"SymmetricMode": True}).solve


def _dense_solve(M):
    """A solve that shares nothing with a march's factor: LAPACK's dense LU."""
    dense = M.toarray()
    return lambda rhs: np.linalg.solve(dense, rhs)


def _reference_march(model, grid, config, values, s, T, factor=_splu_solve):
    """The per-step sparse march: solves through ``factor`` of I - dt*A_h,
    formed once for a time-homogeneous model and at every step for a
    tabulated series."""
    dt = (T - s) / config.n_steps
    times = s + dt * np.arange(config.n_steps + 1)
    solve = None
    p = np.array(values, dtype=float)
    for k in range(config.n_steps):
        if solve is None or model.time_dependent:
            A = build_stencil(model, grid, times[k + 1])[0]
            solve = factor(identity(grid.n, format="csr") - dt * A)
        p = solve(p)
    return p


def _dense_cases():
    heat = constant_model([0.0], [[1.0]])
    drifted = constant_model([0.2, -0.1], [[1.0, 0.0], [0.0, 0.7]])
    mixed = constant_model([0.1, -0.2], [[1.0, 0.4], [0.0, 1.0]])
    return {
        "heat-1d-64": (heat, make_grid(1, [0.0], [1.0], [64])),
        "drifted-2d-10x10": (drifted, make_grid(2, [0.0, 0.0], [1.0, 1.0], [10, 10])),
        "mixed-2d-8x8": (mixed, make_grid(2, [0.0, 0.0], [1.0, 1.0], [8, 8])),
    }


@pytest.mark.parametrize("sign", ["nonnegative", "mixed-sign"])
@pytest.mark.parametrize("case", sorted(_dense_cases()))
def test_dense_march_matches_sparse_reference(case, sign):
    model, grid = _dense_cases()[case]
    config = SolverConfig(n_steps=32)
    values = np.random.default_rng(7).random(grid.n)
    if sign == "mixed-sign":
        values -= 0.4
    out = _march(model, grid, config, values, 0.0, 0.3, record=False)[2]
    (step,) = model.propagator.steps.values()
    assert step.inverse is not None
    ref = _reference_march(model, grid, config, values, 0.0, 0.3)
    assert np.abs(out - ref).max() <= 1e-12 * np.abs(ref).max()
    # the certificate bounds the relative residual of every dense step
    d = values - step.M @ (step.inverse @ values)
    assert np.linalg.norm(d) <= config.linear_solver_tol * np.linalg.norm(values)


def _random_series(grid, rng, cross):
    """A 3-sample tabulated series over [0, 0.2] with random drift and a
    beta near the identity, with an a12 term only when ``cross``."""
    samples = []
    for _ in range(3):
        drift = rng.normal(size=(grid.n, 2))
        beta = np.eye(2) + 0.3 * rng.normal(size=(grid.n, 2, 2))
        if not cross:
            beta[:, 0, 1] = beta[:, 1, 0] = 0.0
        samples.append((drift, beta))
    return tabulated_model(grid, [0.0, 0.1, 0.2], samples)


def test_sparse_path_is_unchanged(monkeypatch):
    # a tabulated series and a grid above the cap never form the inverse,
    # and march bit for bit as the per-step sparse reference, ending in
    # either row of the two-row buffer
    def no_inverse(M, lu, tol):
        raise AssertionError("dense inverse formed")

    monkeypatch.setattr(kolmogorov, "_certified_inverse", no_inverse)
    rng = np.random.default_rng(43)
    grid = make_grid(2, [0.0, 0.0], [1.0, 1.0], [6, 7])
    table = _random_series(grid, rng, cross=True)
    big = make_grid(1, [0.0], [1.0], [DENSE_MAX_N + 1])
    drifted = constant_model([0.3], [[1.0]])
    for (model, g), n_steps in itertools.product(((table, grid), (drifted, big)), (15, 16)):
        config = SolverConfig(n_steps=n_steps)
        values = rng.random(g.n)
        for v in (values, values - 0.5):
            out = _march(model, g, config, v, 0.0, 0.25, record=False)[2]
            ref = _reference_march(model, g, config, v, 0.0, 0.25)
            assert np.array_equal(out, ref)


@settings(max_examples=30, deadline=None)
@given(
    case=st.sampled_from(["constant-1d", "series-2d", "series-2d-a12"]),
    seed=st.integers(0, 2**32 - 1),
    shift=st.sampled_from([0.0, 0.5]),
)
def test_sparse_march_matches_dense_solves(case, seed, shift):
    # the factored steps against a march whose every step is a dense
    # LAPACK solve: nothing of the ordering or of SuperLU is shared
    rng = np.random.default_rng(seed)
    if case == "constant-1d":
        grid = make_grid(1, [0.0], [1.0], [DENSE_MAX_N + 1 + int(rng.integers(64))])
        model = constant_model([rng.normal()], [[0.5 + rng.random()]])
    else:
        grid = make_grid(2, [0.0, 0.0], [1.0, 1.0], [6, 7])
        model = _random_series(grid, rng, cross=case.endswith("a12"))
    config = SolverConfig(n_steps=16)
    values = rng.random(grid.n) - shift
    out = _march(model, grid, config, values, 0.0, 0.2, record=False)[2]
    for step in model.propagator.steps.values():
        assert step.lu is not None and step.inverse is None
    ref = _reference_march(model, grid, config, values, 0.0, 0.2, factor=_dense_solve)
    assert np.abs(out - ref).max() <= 1e-12 * np.abs(ref).max()


def test_uncertified_inverse_falls_back(heat):
    grid = make_grid(1, [0.0], [1.0], [32])
    values = sampled_sine(grid).values
    _march(heat, grid, SolverConfig(n_steps=8), values, 0.0, 0.5, record=False)
    (step,) = heat.propagator.steps.values()
    assert step.inverse is not None
    # no inverse meets a relative residual of 1e-20: the steps go through
    # the sparse factor and its check, which raises
    config = SolverConfig(n_steps=8, linear_solver_tol=1e-20)
    with pytest.raises(LinearSolveFailure, match="step 0"):
        _march(heat, grid, config, values, 0.0, 0.5, record=False)
    (step,) = heat.propagator.steps.values()
    assert step.lu is not None and step.inverse is None


def _dense_reference(step, n_steps, values):
    """Every state of the per-step dense march through a kept step: S @ p."""
    p = np.array(values, dtype=float)
    rows = [p]
    for _ in range(n_steps):
        p = step.inverse @ p
        rows.append(p)
    return np.array(rows)


@pytest.mark.parametrize("record", [True, False])
@pytest.mark.parametrize("sign", ["nonnegative", "mixed-sign"])
@pytest.mark.parametrize("n_steps", [1, 37, 64], ids=["one-step", "odd", "even"])
@pytest.mark.parametrize("case", sorted(_dense_cases()))
def test_buffered_march_matches_per_step_dense(case, n_steps, sign, record):
    # a vector steps through K + 1 rows or two, step k from row k % rows to
    # row (k + 1) % rows: one step, and an unrecorded march ending in
    # either of its two rows; one step size, which every case certifies
    model, grid = _dense_cases()[case]
    config = SolverConfig(n_steps=n_steps)
    values = np.random.default_rng(11).random(grid.n)
    if sign == "mixed-sign":
        values -= 0.4
    out = _march(model, grid, config, values, 0.0, 0.005 * n_steps, record=record)[2]
    (step,) = model.propagator.steps.values()
    assert step.inverse is not None
    ref = _dense_reference(step, n_steps, values)
    assert np.array_equal(out, ref if record else ref[-1])


def test_negative_zero_input_keeps_its_sign_through_the_factor(heat):
    # nothing is clamped, so the one sign bit a march can keep is that of an
    # input that is -0.0 in every entry: each factored solve adds up -0.0
    # terms only; one positive entry leaves no sign bit set
    grid = make_grid(1, [0.0], [1.0], [DENSE_MAX_N + 3])
    config = SolverConfig(n_steps=4)
    zeros = np.full(grid.n, -0.0)
    out = _march(heat, grid, config, zeros, 0.0, 0.1, record=True)[2]
    assert not out.any() and np.signbit(out).all()
    zeros[grid.n // 2] = 1.0
    out = _march(heat, grid, config, zeros, 0.0, 0.1, record=True)[2]
    assert not np.signbit(out[1:]).any()


@pytest.mark.parametrize("case", ["dense", "sparse"])
def test_mass_curve_is_per_field_mass(case, heat):
    n = 40 if case == "dense" else DENSE_MAX_N + 3
    grid = make_grid(1, [0.0], [1.0], [n])
    rho = DensityField(grid, np.random.default_rng(5).random(n))
    traj = evolve(heat, grid, SolverConfig(n_steps=35), rho, 0.0, 0.2)
    expected = [(float(t), mass(f)) for t, f in zip(traj.times, traj.fields)]
    assert [(t, m.hex()) for t, m in mass_curve(traj)] == [
        (t, m.hex()) for t, m in expected
    ]


def _poisoned(n, k, sign):
    """A dense inverse on n nodes whose product at step k is sign * inf and
    finite before, on the all-ones input: S = 2 I except that row 0 reads
    sign * a * x[1] with a * 2**(k-1) < max < a * 2**k."""
    S = 2.0 * np.eye(n)
    S[0, 0] = 0.0
    S[0, 1] = sign * (np.finfo(float).max / 2.0**k) * 1.5
    return S


def test_dense_step_rejects_non_finite(heat):
    grid = make_grid(1, [0.0], [1.0], [16])
    config = SolverConfig(n_steps=68)
    ones = np.ones(grid.n)
    # a bad step inside the march and a bad last step, and a bad first
    # entry of the input fails step 0; a -inf stays in the state like a
    # +inf; an unrecorded march, checked at its end only, and a block,
    # stepped in place a step at a time, name the same step
    cases = itertools.product((39, config.n_steps - 1), (-1.0, 1.0), (True, False, "block"))
    for k, sign, record in cases:
        heat.propagator = None  # a step made afresh
        _march(heat, grid, config, ones, 0.0, 0.5, record=False)
        (step,) = heat.propagator.steps.values()
        assert step.inverse is not None
        step.inverse = _poisoned(grid.n, k, sign)
        values = np.ones((grid.n, 3), order="F") if record == "block" else ones
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            LinearSolveFailure, match=f"solve at step {k} is not"
        ):
            _march(heat, grid, config, values, 0.0, 0.5, record=record is True)
    bad = ones.copy()
    bad[3] = np.nan
    fresh = constant_model([0.0], [[1.0]])  # heat keeps the poisoned step
    with pytest.raises(LinearSolveFailure, match="solve at step 0 is not"):
        _march(fresh, grid, config, bad, 0.0, 0.5, record=False)


def _count_builds(monkeypatch):
    calls = []

    def counted(model, grid, t):
        calls.append(t)
        return build_stencil(model, grid, t)

    monkeypatch.setattr(kolmogorov, "build_stencil", counted)
    return calls


def test_homogeneous_generator_is_built_once_per_grid(monkeypatch, heat):
    # K, then K/2, then K again on one model: each step size factors anew and
    # replaces the kept step, all three share the model's A_h, and the
    # march bits stay those of steps made afresh; a repeat reuses the kept
    # step, and another grid builds its own A_h
    grid = make_grid(1, [0.0], [1.0], [24])
    rho = sampled_sine(grid)
    fresh = [
        evolve(constant_model([0.0], [[1.0]]), grid, SolverConfig(n_steps=k), rho, 0.0, 0.3)
        for k in (16, 8, 16)
    ]
    calls = _count_builds(monkeypatch)
    factors = []

    def counted(*args, **kwargs):
        factors.append(1)
        return splu(*args, **kwargs)

    monkeypatch.setattr(kolmogorov, "splu", counted)
    kept = []
    for ref in fresh:
        config = SolverConfig(n_steps=len(ref.times) - 1)
        traj = evolve(heat, grid, config, rho, 0.0, 0.3)
        assert traj.states.tobytes() == ref.states.tobytes()
        assert heat.propagator.config == config and list(heat.propagator.steps) == [0]
        kept.extend(heat.propagator.steps.values())
    assert (len(factors), len(calls)) == (3, 1)
    assert kept[0] is not kept[2]
    evolve(heat, grid, config, rho, 0.0, 0.3)
    assert list(heat.propagator.steps.values()) == [kept[2]] and len(factors) == 3
    other = make_grid(1, [0.0], [1.0], [20])
    evolve(heat, other, SolverConfig(n_steps=4), sampled_sine(other), 0.0, 0.3)
    assert len(calls) == 2
    assert heat.propagator.grid == other


def test_model_and_kept_step_need_no_cycle_collector():
    # the propagator in the model's slot refers to the model weakly and its
    # kept step not at all, so all three go with the model's last outside
    # reference, the cyclic collector off
    grid = make_grid(1, [0.0], [1.0], [16])
    gc.disable()
    try:
        model = constant_model([0.3], [[1.0]])
        evolve(model, grid, SolverConfig(n_steps=4), sampled_sine(grid), 0.0, 0.5)
        (step,) = model.propagator.steps.values()
        assert step.inverse is not None
        refs = weakref.ref(model), weakref.ref(model.propagator), weakref.ref(step)
        del model, step
        assert [r() for r in refs] == [None, None, None]
    finally:
        gc.enable()


def _kept_bytes(prop):
    """The bytes of a series propagator's kept steps, 12 per nonzero of
    each sparse matrix a step holds and 8 per entry of its inverse."""
    total = 0
    for s in prop.steps.values():
        total += 12 * (s.lu.nnz + s.M.nnz) + (0 if s.inverse is None else s.inverse.nbytes)
    return total


def test_kept_steps_stay_within_the_byte_budget(monkeypatch):
    # a series keeps its steps while they fit the budget and marches through
    # the others without keeping them, with the bits of a march that keeps
    # all; the first step of a size is kept past any budget, so a
    # time-homogeneous model factors once per step size even at 0 bytes
    grid = make_grid(2, [0.0, 0.0], [1.0, 1.0], [6, 7])
    config = SolverConfig(n_steps=16)
    values = np.random.default_rng(45).random(grid.n)

    def table():
        return _random_series(grid, np.random.default_rng(46), cross=False)

    keeps_all = table()
    ref = _march(keeps_all, grid, config, values, 0.0, 0.2, record=True)[2]
    assert len(keeps_all.propagator.steps) == 16
    budget = _kept_bytes(keeps_all.propagator) // 3
    monkeypatch.setattr(kolmogorov, "KEEP_BYTES", budget)
    model = table()
    for _ in range(2):
        assert np.array_equal(_march(model, grid, config, values, 0.0, 0.2, record=True)[2], ref)
        prop = model.propagator
        assert 1 < len(prop.steps) < 16 and _kept_bytes(prop) == prop.kept <= budget
    monkeypatch.setattr(kolmogorov, "KEEP_BYTES", 0)
    factors = []
    splu = kolmogorov.splu

    def counted(*args, **kwargs):
        factors.append(1)
        return splu(*args, **kwargs)

    monkeypatch.setattr(kolmogorov, "splu", counted)
    heat = constant_model([0.0], [[1.0]])
    big = make_grid(1, [0.0], [1.0], [DENSE_MAX_N + 1])
    for _ in range(2):
        _march(heat, big, config, np.ones(big.n), 0.0, 0.2, record=False)
    assert len(factors) == 1 and len(heat.propagator.steps) == 1


def _count_fetches(monkeypatch):
    calls = []
    step = Propagator.step

    def counted(self, k):
        calls.append(k)
        return step(self, k)

    monkeypatch.setattr(Propagator, "step", counted)
    return calls


@pytest.mark.parametrize("case", ["sparse", "dense", "series"])
def test_march_fetches_a_homogeneous_step_once(monkeypatch, case):
    # a march fetches a time-homogeneous model's one step once, whatever K,
    # from the propagator that the first march built; a series' steps once each
    if case == "sparse":
        grid, K = make_grid(1, [0.0], [1.0], [DENSE_MAX_N + 1]), 16
        model = constant_model([0.3], [[1.0]])
    elif case == "dense":
        grid, K = make_grid(2, [0.0, 0.0], [1.0, 1.0], [10, 10]), 128
        model = constant_model([0.2, -0.1], [[1.0, 0.0], [0.0, 0.7]])
    else:
        grid, K = make_grid(2, [0.0, 0.0], [1.0, 1.0], [6, 7]), 8
        model = _random_series(grid, np.random.default_rng(48), cross=False)
    config = SolverConfig(n_steps=K)
    _march(model, grid, config, np.ones(grid.n), 0.0, 0.2, record=False)
    if case != "series":
        (step,) = model.propagator.steps.values()
        assert (step.inverse is None) == (case == "sparse")
    calls = _count_fetches(monkeypatch)
    for record in (False, True):
        calls.clear()
        _march(model, grid, config, np.ones(grid.n), 0.0, 0.2, record=record)
        assert calls == ([0] if case != "series" else list(range(K)))


def test_propagator_dropped_from_the_slot_frees_its_factors_first(monkeypatch, heat):
    # a march at a new step size replaces the model's propagator, which goes
    # with its steps before the new one factors, the cyclic collector off;
    # a time-homogeneous model hands its A_h over on the same grid
    grid = make_grid(1, [0.0], [1.0], [16])
    table_grid = make_grid(1, [0.0], [1.0], [8])
    series = [(np.zeros((8, 1)), np.ones((8, 1, 1)))] * 3
    table = tabulated_model(table_grid, [0.0, 0.25, 0.5], series)
    gc.disable()
    try:
        for model, g in ((heat, grid), (table, table_grid)):
            _march(model, g, SolverConfig(n_steps=8), np.ones(g.n), 0.0, 0.5, record=False)
            old = [weakref.ref(model.propagator)]
            old += [weakref.ref(s) for s in model.propagator.steps.values()]
            A = model.propagator.stencil
            alive = []
            splu = kolmogorov.splu

            def counted(*args, **kwargs):
                alive.append(any(r() is not None for r in old))
                return splu(*args, **kwargs)

            monkeypatch.setattr(kolmogorov, "splu", counted)
            _march(model, g, SolverConfig(n_steps=4), np.ones(g.n), 0.0, 0.5, record=False)
            monkeypatch.setattr(kolmogorov, "splu", splu)
            assert len(old) == (2 if model is heat else 9)
            assert alive == [False] * (1 if model is heat else 4)
            assert (model.propagator.stencil is A) == (model is heat)
    finally:
        gc.enable()


@pytest.mark.parametrize("case", ["dense", "sparse", "series"])
def test_two_propagators_alive_together_factor_once_each(monkeypatch, case):
    # propagators at K and K/2 on one model, held at once and applied in
    # either order, factor each of their steps once and march the bits of
    # a march on steps made afresh
    if case == "series":
        grid = make_grid(2, [0.0, 0.0], [1.0, 1.0], [6, 7])
    else:
        grid = make_grid(1, [0.0], [1.0], [24 if case == "dense" else DENSE_MAX_N + 1])

    def model():
        if case == "series":
            return _random_series(grid, np.random.default_rng(49), cross=False)
        return constant_model([0.3], [[1.0]])

    values = np.random.default_rng(50).random(grid.n)
    configs = [SolverConfig(n_steps=16), SolverConfig(n_steps=8)]
    fresh = [_march(model(), grid, c, values, 0.0, 0.2, record=False)[2] for c in configs]
    factors = []
    splu = kolmogorov.splu
    monkeypatch.setattr(kolmogorov, "splu", lambda *a, **k: factors.append(1) or splu(*a, **k))
    shared = model()
    props = [Propagator(shared, grid, c, 0.0, 0.2) for c in configs]
    for i in (1, 0, 1, 0):
        assert props[i].march(values, False)[2].tobytes() == fresh[i].tobytes()
    assert len(factors) == (24 if case == "series" else 2)
    assert shared.propagator is None  # built by hand, neither is the model's


def test_tabulated_series_builds_the_generator_every_step(monkeypatch):
    # once per step of each step size; the series keeps the steps of its
    # latest step size, one per step time, and a repeat builds none
    rng = np.random.default_rng(44)
    grid = make_grid(1, [0.0], [1.0], [12])
    series = [(rng.normal(size=(grid.n, 1)), np.ones((grid.n, 1, 1))) for _ in range(2)]
    table = tabulated_model(grid, [0.0, 0.3], series)
    calls = _count_builds(monkeypatch)
    rho = DensityField(grid, rng.random(grid.n))
    for n_steps in (6, 10, 10):
        config = SolverConfig(n_steps=n_steps)
        traj = evolve(table, grid, config, rho, 0.0, 0.3)
    assert len(calls) == 16
    assert table.propagator.config == config and list(table.propagator.steps) == list(range(10))


def test_trajectory_fields_are_its_states(heat):
    grid = make_grid(1, [0.0], [1.0], [16])
    traj = evolve(heat, grid, SolverConfig(n_steps=5), sampled_sine(grid), 0.0, 0.2)
    assert traj.states.shape == (6, grid.n)
    assert not traj.states.flags.writeable
    assert [f.values.tobytes() for f in traj.fields] == [v.tobytes() for v in traj.states]


@pytest.mark.parametrize(
    "beta, smallest",
    [
        ([[1.0]], 1.0),
        ([[1.0, 0.0], [0.0, 2.0]], 1.0),  # beta beta^T = diag(1, 4)
        ([[1.0, 1.0], [0.0, 0.0]], 0.0),  # singular
        ([[1e200]], np.inf),  # beta beta^T overflows to inf
        (1e200 * np.eye(2), np.nan),  # eigvalsh of the overflow gives NaN
    ],
    ids=["unit-1d", "diag-2d", "singular-2d", "overflow-1d", "overflow-2d"],
)
def test_build_stencil_certifies_ellipticity(beta, smallest):
    dim = len(beta)
    grid = make_grid(dim, [0.0] * dim, [1.0] * dim, [8] * dim)
    model = constant_model([0.0] * dim, beta)
    if 0.0 < smallest < np.inf:
        assert build_stencil(model, grid, 0.0)[0].shape == (grid.n, grid.n)
        return
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
        EllipticityViolation
    ) as err:
        _march(model, grid, SolverConfig(n_steps=4), np.ones(grid.n), 0.0, 1.0, record=False)
    eig = err.value.eigenvalue
    assert eig <= 0.0 if np.isfinite(smallest) else not np.isfinite(eig)
    assert err.value.t == 0.0 and err.value.x.shape == (dim,)
    assert model.propagator is None  # no propagator is kept without a certificate


def _rotated(low, high, angle):
    """The symmetric 2 x 2 matrix with eigenvalues ``low`` and ``high``,
    turned by ``angle``."""
    c, s = np.cos(angle), np.sin(angle)
    turn = np.array([[c, -s], [s, c]])
    return turn @ np.diag([low, high]) @ turn.T


def _assert_certificate_matches_eigvalsh(bbT, expect=None):
    """The closed-form certificate of the one-node 2 x 2 matrix beta
    beta^T = ``bbT`` passes or fails as ``expect`` says, by default as the
    sign of eigvalsh's smallest eigenvalue says where it is more than a few
    ulps of the largest from 0; when it fails it names that eigenvalue to
    those few ulps."""
    low, high = np.linalg.eigvalsh(bbT)
    ulps = 32 * np.finfo(float).eps * max(abs(low), abs(high))
    if expect is None:
        expect = "pass" if low > ulps else "fail" if low < -ulps else None
    try:
        kolmogorov._certify(0.5 * bbT[None], np.zeros((1, 2)), 0.0)
    except EllipticityViolation as err:
        assert expect != "pass"
        assert err.eigenvalue <= 0.0 and abs(err.eigenvalue - low) <= ulps
    else:
        assert expect != "fail"


@pytest.mark.parametrize(
    "bbT, expect",
    [
        (_rotated(1e-12, 1.0, 0.3), "pass"),
        (_rotated(1e-290, 1e-280, 1.1), "pass"),
        (np.diag([1e300, 1e-300]), "pass"),
        (_rotated(-1e-8, 1e4, 0.7), "fail"),
        (np.array([[1.0, 1.0 - 2**-30], [1.0 - 2**-30, 1.0]]), "pass"),
        (np.array([[1.0, 1.0 + 2**-30], [1.0 + 2**-30, 1.0]]), "fail"),
        (np.array([[4.0, 2.0], [2.0, 1.0]]), "fail"),
        (np.zeros((2, 2)), "fail"),
        (np.array([[1e300, 5e299], [5e299, 1e300]]), "pass"),
    ],
    ids=["graded", "graded-tiny", "graded-range", "graded-indefinite",
         "near-singular", "near-singular-indefinite", "singular", "zero", "large"],
)
def test_closed_form_certificate_matches_eigvalsh(bbT, expect):
    _assert_certificate_matches_eigvalsh(bbT, expect)


@settings(max_examples=200, deadline=None)
@given(
    scales=st.lists(st.floats(-300.0, 300.0), min_size=2, max_size=2),
    negative=st.booleans(),
    angle=st.floats(0.0, np.pi),
)
def test_closed_form_certificate_matches_eigvalsh_property(scales, negative, angle):
    # |lambda_min| <= lambda_max, as for every beta beta^T up to round-off
    low, high = 10.0 ** np.sort(scales)
    _assert_certificate_matches_eigvalsh(_rotated(-low if negative else low, high, angle))


@pytest.mark.parametrize(
    "bbT",
    [
        [[1e308, 1e308], [1e308, 1e308]],  # lambda_max overflows; singular
        [[np.inf, 0.0], [0.0, 1.0]],
        [[np.inf, np.inf], [np.inf, np.inf]],
        [[np.nan, 0.0], [0.0, 1.0]],
    ],
    ids=["overflowing-max", "inf", "inf-all", "nan"],
)
def test_closed_form_certificate_refuses_overflow(bbT):
    # the 2-d case of test_build_stencil_certifies_ellipticity without its
    # errstate: the certificate itself warns of nothing
    with pytest.raises(EllipticityViolation) as err:
        kolmogorov._certify(0.5 * np.array([bbT]), np.zeros((1, 2)), 0.0)
    assert not 0.0 < err.value.eigenvalue < np.inf


def _series(where):
    """A tabulated series over [0, 0.5] sampled at 0, 0.25 and 0.5 whose
    beta is 0 at the sample ``where`` and 1 at the others."""
    grid = make_grid(1, [0.0], [1.0], [8])
    samples = [(np.zeros((8, 1)), np.full((8, 1, 1), float(t != where))) for t in (0.0, 0.25, 0.5)]
    return tabulated_model(grid, [0.0, 0.25, 0.5], samples), grid


@pytest.mark.parametrize("where", [0.0, 0.5])
def test_march_certifies_series_ends(monkeypatch, where):
    # no step evaluates the coefficients at s: a propagator certifies both
    # ends when it is built, before any step, s directly and T through the
    # A_h(T) that its step to T takes
    table, grid = _series(where)
    calls = _count_builds(monkeypatch)
    with pytest.raises(EllipticityViolation) as err:
        Propagator(table, grid, SolverConfig(n_steps=8), 0.0, 0.5)
    assert err.value.t == where and err.value.eigenvalue == 0.0
    assert calls == ([] if where == 0.0 else [0.5])


def test_kept_series_is_not_certified_again(monkeypatch):
    # every step of the march is kept, and its steps to t_1 and t_K carry
    # the certificates of both ends, so a second application reads no
    # coefficients at all
    table, grid = _series(None)
    act = propagator_action(table, grid, SolverConfig(n_steps=8), 0.5)
    first = act(np.ones(grid.n))
    calls = []

    def counted(model, pts, t):
        calls.append(t)
        return eval_a(model, pts, t)

    monkeypatch.setattr(kolmogorov, "eval_a", counted)
    assert np.array_equal(act(np.ones(grid.n)), first)
    assert calls == []


@pytest.mark.parametrize("budget", [kolmogorov.KEEP_BYTES, 0])
@pytest.mark.parametrize("s", [0.0, 0.25])
def test_series_propagator_reads_each_time_once(monkeypatch, s, budget):
    # built, a series propagator reads the coefficients at s, to certify
    # it, and at T, for the A_h(T) that its step to T takes; a march then
    # reads each other step time once, as it builds and factors that step,
    # and keeps the step if it fits the budget, the first always; the next
    # march reads and factors only the steps that were not kept
    table, grid = _series(None)
    monkeypatch.setattr(kolmogorov, "KEEP_BYTES", budget)
    calls, factors, splu = [], [], kolmogorov.splu

    def counted(model, pts, t):
        calls.append(t)
        return eval_a(model, pts, t)

    monkeypatch.setattr(kolmogorov, "eval_a", counted)
    monkeypatch.setattr(kolmogorov, "splu", lambda *a, **k: factors.append(1) or splu(*a, **k))
    prop = Propagator(table, grid, SolverConfig(n_steps=8), s, 0.5)
    assert calls == [s, 0.5] and factors == []
    first = prop.march(np.ones(grid.n), False)[2]
    assert calls[2:] == list(prop.times[1:-1]) and len(factors) == 8
    kept = list(range(8)) if budget else [0]
    assert list(prop.steps) == kept
    calls.clear()
    factors.clear()
    assert prop.march(np.ones(grid.n), False)[2].tobytes() == first.tobytes()
    rebuilt = [k for k in range(8) if k not in kept]
    assert calls == [prop.times[k + 1] for k in rebuilt if k < 7]
    assert len(factors) == len(rebuilt)


def test_series_degenerate_inside_fails_at_the_step_that_reads_it(monkeypatch):
    # implicit euler with 8 steps evaluates t = 0.0625 k, so step 3
    # builds A_h at the degenerate sample t = 0.25, after three steps and
    # the preamble's A_h(t_K)
    table, grid = _series(0.25)
    calls = _count_builds(monkeypatch)
    with pytest.raises(EllipticityViolation) as err:
        _march(table, grid, SolverConfig(n_steps=8), np.ones(grid.n), 0.0, 0.5, record=False)
    assert err.value.t == 0.25
    assert calls == [0.5, 0.0625, 0.125, 0.1875, 0.25]
