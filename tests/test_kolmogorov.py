import gc
import itertools
import weakref
from types import SimpleNamespace

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
    tabulated_model,
)
from decrem.kolmogorov import (
    _CHUNK,
    DENSE_MAX_N,
    _march,
    _Stepper,
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
    A = build_stencil(model, grid, t)[0]
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
    table = tabulated_model(grid, None, None, times=[0.0, 1.0], series=series)
    for t in (0.0, 0.37):
        _assert_bit_identical(table, grid, t)


def test_generator_matrix_2d_mixed():
    grid = make_grid(2, [0.0, 0.0], [1.0, 1.0], [8, 8])
    cases = ((1.0, [[1.0, 0.4], [0.0, 1.0]]), (-1.0, [[1.0, -0.4], [0.2, 1.0]]))
    for sign, beta in cases:
        model = constant_model([0.1, -0.2], beta)
        assert np.sign(eval_a(model, grid.nodes(), 0.0)[0, 0, 1]) == sign
        _assert_bit_identical(model, grid, 0.0)


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
    """A random grid of 1 or 2 axes and a constant, linear-drift or
    tabulated model with diagonal beta, so a12 == 0."""
    dim = draw(st.sampled_from([1, 2]))
    n_cells = draw(st.lists(st.integers(4, 12), min_size=dim, max_size=dim))
    lo = draw(st.lists(st.floats(-2.0, 1.0), min_size=dim, max_size=dim))
    width = draw(st.lists(st.floats(0.05, 4.0), min_size=dim, max_size=dim))
    grid = make_grid(dim, lo, np.add(lo, width), n_cells)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    family = draw(st.sampled_from(["constant", "linear-drift", "tabulated"]))
    beta = np.diag(rng.uniform(0.05, 3, dim))
    if family == "constant":
        model = constant_model(rng.uniform(-5, 5, dim), beta)
    elif family == "linear-drift":
        center = np.add(lo, rng.uniform(0, 1, dim) * width)
        model = ou_model(rng.uniform(0, 5, dim), center, beta)
    else:
        beta = np.zeros((grid.n, dim, dim))
        beta[:, range(dim), range(dim)] = rng.uniform(0.05, 3, (grid.n, dim))
        model = tabulated_model(grid, rng.uniform(-5, 5, (grid.n, dim)), beta)
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
    values = np.random.default_rng(seed).random(grid.n)
    values[values < 0.3] = 0.0
    config = SolverConfig(n_steps=1)
    assert np.all(_march(model, grid, config, values, 0.0, dt, record=False)[1] >= 0.0)
    # the clamp of the march only removes round-off of the solve: the
    # unclamped step through the factor is nonnegative to the solver tolerance
    step = _Stepper(model, grid, config, 0.0, dt)
    step._factor(0)
    raw = step.lu.solve(values)
    step._check(values, raw, 0)
    assert raw.min() >= -config.linear_solver_tol * np.abs(raw).max()


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
    """The solve of the stepper's factor: SuperLU in the symmetric ordering."""
    return splu(M.tocsc(), permc_spec="MMD_AT_PLUS_A", options={"SymmetricMode": True}).solve


def _dense_solve(M):
    """A solve that shares nothing with the stepper's factor: LAPACK's dense LU."""
    dense = M.toarray()
    return lambda rhs: np.linalg.solve(dense, rhs)


def _reference_march(model, grid, config, values, s, T, factor=_splu_solve):
    """The per-step sparse march: solves through ``factor`` of I - dt*A_h,
    formed once for a time-homogeneous model and at every step for a
    tabulated series, then the positivity clamp."""
    dt = (T - s) / config.n_steps
    times = s + dt * np.arange(config.n_steps + 1)
    clamp = bool(np.all(values >= 0.0))
    mixed = False
    solve = None
    p = np.array(values, dtype=float)
    for k in range(config.n_steps):
        if solve is None or model.time_dependent:
            A, m = build_stencil(model, grid, times[k + 1])
            mixed |= m
            solve = factor(identity(grid.n, format="csr") - dt * A)
        p = solve(p)
        if clamp and not mixed:
            np.maximum(p, 0.0, out=p)
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
    step = _Stepper(model, grid, config, 0.0, 0.3)
    out = step.march(values, record=False)
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
    return tabulated_model(grid, None, None, times=[0.0, 0.1, 0.2], series=samples)


def test_sparse_path_is_unchanged(monkeypatch):
    # a tabulated series and a grid above the cap never form the inverse,
    # and march bit for bit as the per-step sparse reference, ending in
    # either row of the two-row buffer
    def no_inverse(self):
        raise AssertionError("dense inverse formed")

    monkeypatch.setattr(_Stepper, "_certified_inverse", no_inverse)
    rng = np.random.default_rng(43)
    grid = make_grid(2, [0.0, 0.0], [1.0, 1.0], [6, 7])
    table = _random_series(grid, rng, cross=True)
    big = make_grid(1, [0.0], [1.0], [DENSE_MAX_N + 1])
    drifted = constant_model([0.3], [[1.0]])
    for (model, g), n_steps in itertools.product(((table, grid), (drifted, big)), (15, 16)):
        config = SolverConfig(n_steps=n_steps)
        values = rng.random(g.n)
        for v in (values, values - 0.5):
            out = _march(model, g, config, v, 0.0, 0.25, record=False)[1]
            ref = _reference_march(model, g, config, v, 0.0, 0.25)
            assert np.array_equal(out, ref)


def _shifted(solve):
    """``solve`` with its result moved down by 1e-13 of its largest entry,
    well inside the residual check of a factored step."""
    def shifted(rhs):
        x = solve(rhs)
        return x - 1e-13 * np.abs(x).max()
    return shifted


@pytest.mark.parametrize("sign", ["nonnegative", "mixed-sign"])
def test_factored_clamp_bites_wherever_armed(monkeypatch, sign):
    # the exact factored step rarely leaves round-off to clamp; a shifted
    # solve leaves some wherever a unit mass at one end has not yet spread
    grid = make_grid(1, [0.0], [1.0], [DENSE_MAX_N + 1])
    model = constant_model([0.3], [[1.0]])
    config = SolverConfig(n_steps=4)
    values = np.zeros(grid.n)
    values[0] = 1.0
    if sign == "mixed-sign":
        values[-1] = -1e-3
    factor = _Stepper._factor

    def shifted_factor(self, k):
        factor(self, k)
        self.lu = SimpleNamespace(solve=_shifted(self.lu.solve))

    monkeypatch.setattr(_Stepper, "_factor", shifted_factor)
    out = _march(model, grid, config, values, 0.0, 0.001, record=False)[1]
    ref = _reference_march(
        model, grid, config, values, 0.0, 0.001, factor=lambda M: _shifted(_splu_solve(M))
    )
    assert np.array_equal(out, ref)
    assert (out.min() == 0.0) == (sign == "nonnegative")


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
    step = _Stepper(model, grid, config, 0.0, 0.2)
    out = step.march(values, record=False)
    assert step.lu is not None and step.inverse is None
    ref = _reference_march(model, grid, config, values, 0.0, 0.2, factor=_dense_solve)
    assert np.abs(out - ref).max() <= 1e-12 * np.abs(ref).max()


def test_uncertified_inverse_falls_back(heat):
    grid = make_grid(1, [0.0], [1.0], [32])
    values = sampled_sine(grid).values
    step = _Stepper(heat, grid, SolverConfig(n_steps=8), 0.0, 0.5)
    step.march(values, record=False)
    assert step.inverse is not None
    # no inverse meets a relative residual of 1e-20: the steps go through
    # the sparse factor and its check, which raises
    config = SolverConfig(n_steps=8, linear_solver_tol=1e-20)
    step = _Stepper(heat, grid, config, 0.0, 0.5)
    with pytest.raises(LinearSolveFailure, match="step 0"):
        step.march(values, record=False)
    assert step.lu is not None and step.inverse is None


def _dense_reference(step, values):
    """Every state of the per-step dense march on a factored stepper: S @ p,
    then the positivity clamp, armed when ``values`` is nonnegative and the
    step has no a12 term."""
    clamp = bool(np.all(values >= 0.0))
    p = np.array(values, dtype=float)
    rows = [p]
    for _ in range(len(step.times) - 1):
        p = step.inverse @ p
        if clamp and not step.mixed:
            np.maximum(p, 0.0, out=p)
        rows.append(p)
    return np.array(rows)


@pytest.mark.parametrize("record", [True, False])
@pytest.mark.parametrize("sign", ["nonnegative", "mixed-sign"])
@pytest.mark.parametrize(
    "n_steps",
    [_CHUNK - 3, 2 * _CHUNK, 2 * _CHUNK + 5],
    ids=["part-chunk", "whole-chunks", "chunks-and-tail"],
)
@pytest.mark.parametrize("case", sorted(_dense_cases()))
def test_buffered_march_matches_per_step_dense(case, n_steps, sign, record):
    # fewer steps than one chunk, a multiple of it, and more steps than a
    # multiple: every way the chunk loop can end
    model, grid = _dense_cases()[case]
    config = SolverConfig(n_steps=n_steps)
    values = np.random.default_rng(11).random(grid.n)
    if sign == "mixed-sign":
        values -= 0.4
    step = _Stepper(model, grid, config, 0.0, 0.3)
    out = step.march(values, record=record)
    assert step.inverse is not None
    ref = _dense_reference(step, values)
    assert np.array_equal(out, ref if record else ref[-1])
    # the inverse of an M-matrix is nonnegative, so the clamp rarely bites;
    # a shifted S makes it bite wherever it is armed
    step.inverse = step.inverse - 0.05 * step.inverse.max()
    out = step.march(values, record=record)
    ref = _dense_reference(step, values)
    assert np.array_equal(out, ref if record else ref[-1])


@pytest.mark.parametrize("case", ["dense", "sparse"])
def test_mass_curve_is_per_field_mass(case, heat):
    n = 40 if case == "dense" else DENSE_MAX_N + 3
    grid = make_grid(1, [0.0], [1.0], [n])
    rho = DensityField(grid, np.random.default_rng(5).random(n))
    traj = evolve(heat, grid, SolverConfig(n_steps=_CHUNK + 3), rho, 0.0, 0.2)
    expected = [(float(t), mass(f)) for t, f in zip(traj.times, traj.fields)]
    assert [(t, m.hex()) for t, m in mass_curve(traj)] == [
        (t, m.hex()) for t, m in expected
    ]


def _poisoned(step, k, sign):
    """A dense inverse whose product at step k is sign * inf and finite
    before, on the all-ones input: S = 2 I except that row 0 reads
    sign * a * x[1] with a * 2**(k-1) < max < a * 2**k."""
    n = step.grid.n
    S = 2.0 * np.eye(n)
    S[0, 0] = 0.0
    S[0, 1] = sign * (np.finfo(float).max / 2.0**k) * 1.5
    return S


def test_dense_step_rejects_non_finite(heat):
    grid = make_grid(1, [0.0], [1.0], [16])
    config = SolverConfig(n_steps=2 * _CHUNK + 4)
    ones = np.ones(grid.n)
    # the first bad step lies in the second chunk, and a bad first entry
    # of the input fails step 0; -inf is what the clamp of the
    # nonnegative march would have turned into 0
    k = _CHUNK + 7
    # the clamp is armed on this input: over the k finite steps of the
    # negative poison, row 0 of every state is clamped to 0
    step = _Stepper(heat, grid, SolverConfig(n_steps=k), 0.0, 0.5)
    step.march(ones, record=False)
    step.inverse = _poisoned(step, k, -1.0)
    assert not step.march(ones, record=True)[1:, 0].any()
    for sign, record in itertools.product((-1.0, 1.0), (True, False)):
        step = _Stepper(heat, grid, config, 0.0, 0.5)
        step.march(ones, record=False)
        assert step.inverse is not None
        step.inverse = _poisoned(step, k, sign)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            LinearSolveFailure, match=f"solve at step {k} is not"
        ):
            step.march(ones, record=record)
    bad = ones.copy()
    bad[3] = np.nan
    fresh = constant_model([0.0], [[1.0]])  # heat keeps the poisoned stepper
    with pytest.raises(LinearSolveFailure, match="solve at step 0 is not"):
        _march(fresh, grid, config, bad, 0.0, 0.5, record=False)


def _count_builds(monkeypatch):
    from decrem import kolmogorov

    calls = []

    def counted(model, grid, t):
        calls.append(t)
        return build_stencil(model, grid, t)

    monkeypatch.setattr(kolmogorov, "build_stencil", counted)
    return calls


def test_homogeneous_generator_is_built_once_per_grid(monkeypatch, heat):
    # K, then K/2, then K again on one model: each operator factors anew and
    # replaces the kept stepper, all three share the model's A_h, and the
    # march bits stay those of fresh steppers; a repeat reuses the kept
    # stepper, and another grid builds its own A_h
    from decrem import kolmogorov

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
        assert heat.stepper.key == (grid, config, 0.0, 0.3)
        kept.append(heat.stepper)
    assert (len(factors), len(calls)) == (3, 1)
    assert kept[0] is not kept[2]
    evolve(heat, grid, config, rho, 0.0, 0.3)
    assert heat.stepper is kept[2] and len(factors) == 3
    other = make_grid(1, [0.0], [1.0], [20])
    evolve(heat, other, SolverConfig(n_steps=4), sampled_sine(other), 0.0, 0.3)
    assert len(calls) == 2
    assert heat.stepper.grid == other


def test_model_and_kept_stepper_need_no_cycle_collector():
    # the kept stepper holds no reference back to its model, so the two go
    # with the model's last outside reference, the cyclic collector off
    grid = make_grid(1, [0.0], [1.0], [16])
    gc.disable()
    try:
        model = constant_model([0.3], [[1.0]])
        evolve(model, grid, SolverConfig(n_steps=4), sampled_sine(grid), 0.0, 0.5)
        assert model.stepper.inverse is not None
        refs = weakref.ref(model), weakref.ref(model.stepper)
        del model
        assert [r() for r in refs] == [None, None]
    finally:
        gc.enable()


def test_tabulated_series_builds_the_generator_every_step(monkeypatch):
    rng = np.random.default_rng(44)
    grid = make_grid(1, [0.0], [1.0], [12])
    series = [(rng.normal(size=(grid.n, 1)), np.ones((grid.n, 1, 1))) for _ in range(2)]
    table = tabulated_model(grid, None, None, times=[0.0, 0.3], series=series)
    calls = _count_builds(monkeypatch)
    rho = DensityField(grid, rng.random(grid.n))
    for n_steps in (6, 10):
        evolve(table, grid, SolverConfig(n_steps=n_steps), rho, 0.0, 0.3)
    assert len(calls) == 16
    assert table.stepper is None


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
        _Stepper(model, grid, SolverConfig(n_steps=4), 0.0, 1.0)
    eig = err.value.eigenvalue
    assert eig <= 0.0 if np.isfinite(smallest) else not np.isfinite(eig)
    assert err.value.t == 0.0 and err.value.x.shape == (dim,)
    assert model.stepper is None  # no stepper is kept without a certificate


def _series(where):
    """A tabulated series over [0, 0.5] sampled at 0, 0.25 and 0.5 whose
    beta is 0 at the sample ``where`` and 1 at the others."""
    grid = make_grid(1, [0.0], [1.0], [8])
    samples = [(np.zeros((8, 1)), np.full((8, 1, 1), float(t != where))) for t in (0.0, 0.25, 0.5)]
    return tabulated_model(grid, None, None, times=[0.0, 0.25, 0.5], series=samples), grid


@pytest.mark.parametrize("where", [0.0, 0.5])
def test_stepper_certifies_series_ends(monkeypatch, where):
    # no step evaluates the coefficients at s: the stepper certifies both
    # ends when it is built, before any A_h
    table, grid = _series(where)
    calls = _count_builds(monkeypatch)
    with pytest.raises(EllipticityViolation) as err:
        _Stepper(table, grid, SolverConfig(n_steps=8), 0.0, 0.5)
    assert err.value.t == where and err.value.eigenvalue == 0.0
    assert calls == []


def test_series_degenerate_inside_fails_at_the_step_that_reads_it(monkeypatch):
    # implicit euler with 8 steps evaluates t = 0.0625 k, so step 3
    # builds A_h at the degenerate sample t = 0.25, after three steps
    table, grid = _series(0.25)
    step = _Stepper(table, grid, SolverConfig(n_steps=8), 0.0, 0.5)
    calls = _count_builds(monkeypatch)
    with pytest.raises(EllipticityViolation) as err:
        step.march(np.ones(grid.n), record=False)
    assert err.value.t == 0.25
    assert calls == [0.0625, 0.125, 0.1875, 0.25]
