import numpy as np
import pytest

from decrem import (
    DensityField,
    LinearSolveFailure,
    SolverConfig,
    apply_A,
    constant_model,
    evolve,
    generator_matrix,
    make_grid,
    mass,
    mass_curve,
    norm_l2,
    ou_model,
    stable_time_step,
)
from conftest import sampled_sine

DECAY_1 = np.exp(-np.pi**2 / 2)  # e^{-pi^2/2} ~ 0.0071918834


def test_apply_A_zero_field(grid128, heat):
    out = apply_A(heat, grid128, DensityField.zeros(grid128), 0.0)
    assert not np.any(out.values)


def test_apply_A_eigenfunction(heat):
    # A sin(pi x) = -(pi^2/2) sin(pi x) for a = 1/2
    grid = make_grid(1, [0.0], [1.0], [256])
    f = sampled_sine(grid)
    out = apply_A(heat, grid, f, 0.0)
    expected = -(np.pi**2 / 2) * f.values
    assert norm_l2(out.with_values(out.values - expected)) <= 1e-3 * norm_l2(
        out.with_values(expected)
    )
    mid = np.argmin(np.abs(grid.axis_centers(0) - 0.5))
    assert out.values[mid] == pytest.approx(-4.9348, rel=1e-3)


def test_apply_A_hand_stencil():
    # 8 cells on (0,1), a = 1/2, f = 2, p = 1.  Hand evaluation:
    # diffusion folds -a/h^2 into both boundary cells (odd reflection),
    # upwind drift removes 2*p/h at the inflow cell and nothing elsewhere
    # (the outflow face flux cancels the upwind difference).
    grid = make_grid(1, [0.0], [1.0], [8])
    model = constant_model([2.0], [[1.0]])
    ones = DensityField(grid, np.ones(8))
    out = apply_A(model, grid, ones, 0.0)
    expected = np.zeros(8)
    expected[0] = -2.0 * 0.5 * 64.0 - 2.0 * 8.0  # -64 diffusion, -16 drift
    expected[-1] = -2.0 * 0.5 * 64.0
    assert np.array_equal(out.values, expected)


def test_apply_A_linear(grid64, heat):
    rng = np.random.default_rng(17)
    model = ou_model(1.0, [0.4], 1.0)
    for _ in range(25):
        u = rng.standard_normal(64)
        v = rng.standard_normal(64)
        c = float(rng.standard_normal())
        left = apply_A(model, grid64, DensityField(grid64, u + c * v), 0.0).values
        right = (
            apply_A(model, grid64, DensityField(grid64, u), 0.0).values
            + c * apply_A(model, grid64, DensityField(grid64, v), 0.0).values
        )
        assert np.allclose(left, right, rtol=0.0, atol=1e-9 * max(1.0, abs(c)))


def test_evolve_zero_is_zero(grid64, heat):
    traj = evolve(heat, grid64, SolverConfig(n_steps=8), DensityField.zeros(grid64), 0.0, 0.5)
    for f in traj.fields:
        assert not np.any(f.values)


def test_eigenmode_decay_crank_nicolson(heat):
    grid = make_grid(1, [0.0], [1.0], [256])
    config = SolverConfig(n_steps=512, scheme="crank-nicolson")
    rho = sampled_sine(grid)
    traj = evolve(heat, grid, config, rho, 0.0, 1.0)
    expected = DECAY_1 * rho.values
    err = norm_l2(rho.with_values(traj.fields[-1].values - expected))
    assert err <= 1e-2 * norm_l2(rho.with_values(expected))
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

    def error(scheme, n_steps):
        config = SolverConfig(n_steps=n_steps, scheme=scheme, linear_solver_tol=1e-13)
        final = evolve(heat, grid, config, rho, 0.0, 0.5).fields[-1]
        return np.abs(final.values - exact).max()

    e_cn = [error("crank-nicolson", k) for k in (16, 32, 64)]
    ratios = [e_cn[i] / e_cn[i + 1] for i in range(2)]
    assert all(3.0 <= r <= 5.5 for r in ratios)  # second order: ratio ~ 4

    e_ie = [error("implicit-euler", k) for k in (16, 32, 64)]
    ratios = [e_ie[i] / e_ie[i + 1] for i in range(2)]
    assert all(1.7 <= r <= 2.4 for r in ratios)  # first order: ratio ~ 2


def test_mass_curve_of_eigenmode(heat):
    grid = make_grid(1, [0.0], [1.0], [256])
    config = SolverConfig(n_steps=512, scheme="crank-nicolson")
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
    with pytest.raises(ValueError):
        SolverConfig(n_steps=4, scheme="explicit-euler")
    with pytest.raises(ValueError):
        SolverConfig(n_steps=4, linear_solver_tol=2.0)


def test_generator_matrix_matches_apply(grid64):
    model = ou_model(2.0, [0.3], 1.0)
    A = generator_matrix(model, grid64, 0.0)
    rng = np.random.default_rng(41)
    for _ in range(10):
        v = rng.standard_normal(64)
        direct = apply_A(model, grid64, DensityField(grid64, v), 0.0).values
        # entries scale like 1/h^2, so compare in units of the field size
        assert np.allclose(A @ v, direct, rtol=0.0, atol=1e-13 / grid64.h[0] ** 2)


def test_generator_matrix_2d_mixed():
    grid = make_grid(2, [0.0, 0.0], [1.0, 1.0], [8, 8])
    model = constant_model([0.1, -0.2], [[1.0, 0.4], [0.0, 1.0]])
    A = generator_matrix(model, grid, 0.0)
    rng = np.random.default_rng(43)
    for _ in range(10):
        v = rng.standard_normal(grid.n)
        direct = apply_A(model, grid, DensityField(grid, v), 0.0).values
        assert np.allclose(A @ v, direct, rtol=0.0, atol=1e-11)


def test_column_sums_certify_mass_loss(grid64, heat):
    # columns of A sum to <= 0, strictly < 0 next to the boundary, and its
    # off-diagonals are >= 0; this is what makes I - dt*A an M-matrix
    A = generator_matrix(heat, grid64, 0.0)
    sums = np.asarray(A.sum(axis=0)).ravel()
    assert np.all(sums <= 1e-9)
    assert sums[0] < -1.0 and sums[-1] < -1.0
    assert np.allclose(sums[1:-1], 0.0, atol=1e-9)
    # the drifted, axis-aligned 2-d model of the seed-2d benchmark
    grid = make_grid(2, [0.0, 0.0], [1.0, 1.0], [10, 10])
    drifted = constant_model([0.2, -0.1], [[1.0, 0.0], [0.0, 0.7]])
    for model, g in ((heat, grid64), (drifted, grid)):
        A = generator_matrix(model, g, 0.0).tocoo()
        assert np.all(A.data[A.row != A.col] >= 0.0)
        sums = np.asarray(A.sum(axis=0)).ravel()
        assert np.all(sums <= 1e-9 * abs(A).max())


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
    config = SolverConfig(n_steps=96, scheme="crank-nicolson")
    rho = DensityField.from_function(
        grid, lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)
    )
    traj = evolve(model, grid, config, rho, 0.0, 0.3)
    ratio = traj.fields[-1].values / rho.values
    assert ratio.mean() == pytest.approx(np.exp(-np.pi**2 * 0.3), rel=1e-2)
    assert ratio.std() <= 1e-6 * ratio.mean()  # still an exact eigenvector


def test_stable_time_step_value(grid64, heat):
    # h^2 / (2 * dim * a) with a = 1/2 gives exactly h^2
    assert stable_time_step(heat, grid64) == pytest.approx(grid64.h[0] ** 2)
