import numpy as np
import pytest
from scipy.linalg import expm

from decrem import seedpipe
from decrem import (
    DensityField,
    GammaNegative,
    GammaZero,
    SolverConfig,
    constant_model,
    evolve,
    load_solution,
    make_grid,
    mass,
    realize_gamma,
    run_seed,
    verify_seed,
)
from decrem.kolmogorov import build_stencil
from conftest import apply_Q, sampled_sine

ALPHA_ORACLE = (1.0 - np.exp(-np.pi**2 / 2)) * np.pi / 2  # ~1.5595


def test_realize_eigenmode(grid128):
    profile = realize_gamma(grid128, {"kind": "eigenmode"})
    x = grid128.axis_centers(0)
    assert np.allclose(profile.field.values, np.sin(np.pi * x))
    assert profile.field.values.min() >= 0.0


def test_realize_bump(grid128):
    profile = realize_gamma(grid128, {"kind": "bump", "lo": [0.4], "hi": [0.6]})
    x = grid128.axis_centers(0)
    expected = ((x >= 0.4) & (x < 0.6)).astype(float)
    assert np.array_equal(profile.field.values, expected)


def test_realize_tiles_2d():
    grid = make_grid(2, [0.0, 0.0], [1.0, 1.0], [8, 8])
    profile = realize_gamma(
        grid, {"kind": "tiles", "shape": [2, 2], "values": [1.0, 0.0, 0.0, 2.0]}
    )
    v = profile.field.values.reshape(grid.shape)
    assert np.all(v[:4, :4] == 1.0)
    assert np.all(v[:4, 4:] == 0.0)
    assert np.all(v[4:, :4] == 0.0)
    assert np.all(v[4:, 4:] == 2.0)


def test_realize_csv(tmp_path, grid128):
    f = sampled_sine(grid128)
    f.to_csv(tmp_path / "gamma.csv")
    profile = realize_gamma(grid128, {"kind": "csv", "file": str(tmp_path / "gamma.csv")})
    assert np.array_equal(profile.field.values, f.values)


def test_realize_rejects_negative_and_zero(grid128):
    with pytest.raises(GammaNegative):
        realize_gamma(
            grid128, {"kind": "tiles", "shape": [4], "values": [1.0, 0.5, -0.1, 0.2]}
        )
    with pytest.raises(GammaZero):
        realize_gamma(grid128, {"kind": "tiles", "shape": [4], "values": [0, 0, 0, 0]})
    with pytest.raises(ValueError):
        realize_gamma(grid128, {"kind": "wavelet"})
    # a tile count below 1 is a bad value (exit 2), not an internal error
    for shape, values in (([0], []), ([-3], [1.0, 2.0, 3.0])):
        with pytest.raises(ValueError, match="entries >= 1"):
            realize_gamma(grid128, {"kind": "tiles", "shape": shape, "values": values})


def test_run_seed_eigenmode_closed_form(heat, grid128):
    config = SolverConfig(n_steps=256)
    gamma = realize_gamma(grid128, {"kind": "eigenmode"})
    sol = run_seed(heat, grid128, config, gamma, 1.0)
    assert sol.alpha == pytest.approx(ALPHA_ORACLE, rel=2e-2)
    assert mass(sol.rho) == pytest.approx(1.0, abs=1e-12)
    assert sol.rho.values.min() >= 0.0
    assert sol.residual <= 1e-6
    # rho is the eigenmode up to O(lambda_1) distortion
    expected = (np.pi / 2) * sampled_sine(grid128).values
    assert np.abs(sol.rho.values - expected).max() <= 2e-2 * expected.max()


def test_run_seed_decrement_is_programmed(heat, grid128):
    config = SolverConfig(n_steps=128)
    gamma = realize_gamma(grid128, {"kind": "bump", "lo": [0.4], "hi": [0.6]})
    sol = run_seed(heat, grid128, config, gamma, 0.5)
    # decrement.csv content: p0 - pT == alpha * normalized gamma
    target = sol.alpha * sol.gamma.field.values
    assert np.abs(sol.decrement.values - target).max() <= 1e-6
    assert sol.u0.values.min() >= 0.0
    masses = np.array([m for _, m in sol.mass_curve])
    assert np.all(np.diff(masses) < 0.0)


def test_run_seed_scale_equivariance(heat, grid128):
    config = SolverConfig(n_steps=128)
    base = realize_gamma(grid128, {"kind": "eigenmode"})
    results = []
    for c in (0.1, 1.0, 10.0):
        gamma = base.field.with_values(c * base.field.values)
        results.append(run_seed(heat, grid128, config, gamma, 0.5))
    ref = results[1]
    for sol in (results[0], results[2]):
        assert sol.alpha == pytest.approx(ref.alpha, rel=1e-8)
        assert np.allclose(
            sol.rho.values, ref.rho.values, rtol=0.0, atol=1e-8 * ref.rho.values.max()
        )


def test_run_seed_rejects_zero_and_negative(heat, grid128):
    config = SolverConfig(n_steps=64)
    with pytest.raises(GammaZero):
        run_seed(heat, grid128, config, DensityField(grid128, np.zeros(grid128.n)), 0.5)
    bad = DensityField(grid128, np.linspace(-0.1, 1.0, 128))
    with pytest.raises(GammaNegative):
        run_seed(heat, grid128, config, bad, 0.5)


def test_mass_loss_inequality_split_fields(heat, grid64):
    # Q is an L1 contraction with strict mass loss: applied to the positive
    # and negative parts of a signed field separately, it keeps strictly
    # less L1 mass than the field had
    rng = np.random.default_rng(29)
    config = SolverConfig(n_steps=16)
    for _ in range(20):
        u = rng.standard_normal(64)
        u_plus = DensityField(grid64, np.maximum(u, 0.0))
        u_minus = DensityField(grid64, np.maximum(-u, 0.0))
        total = np.abs(u).sum()
        out = (
            np.abs(apply_Q(heat, grid64, config, u_plus, 0.25).values).sum()
            + np.abs(apply_Q(heat, grid64, config, u_minus, 0.25).values).sum()
        )
        assert out < total


def test_verify_seed_passes_and_detects_tamper(heat, grid128):
    config = SolverConfig(n_steps=256)
    gamma = realize_gamma(grid128, {"kind": "eigenmode"})
    sol = run_seed(heat, grid128, config, gamma, 1.0)
    gamma = sol.gamma.field
    report = verify_seed(heat, grid128, config, sol.rho, sol.alpha, gamma, 1.0, tol=1e-3)
    assert report.passed
    assert report.mass_decreasing
    assert report.residual_refined <= 1e-3

    # +0.01 in one cell: the re-evolution residual must grow and fail
    tampered_values = sol.rho.values.copy()
    tampered_values[64] += 0.01
    tampered = DensityField(grid128, tampered_values)
    bad = verify_seed(heat, grid128, config, tampered, sol.alpha, gamma, 1.0, tol=1e-3)
    assert bad.residual_refined > report.residual_refined
    assert not bad.passed


@pytest.mark.parametrize(
    "n_cells, T, n_steps", [(16, 0.05, 16), (32, 0.5, 32), (64, 0.05, 15), (32, 0.5, 15)]
)
def test_time_error_estimate_matches_exact_semi_discrete_gap(heat, n_cells, T, n_steps):
    # the exact semi-discrete decrement of rho is rho - exp(T A_h) rho; the
    # Richardson estimate from the K // 2 march must be within 10 % of the
    # K grid's gap to it, for even and odd K
    grid = make_grid(1, [0.0], [1.0], [n_cells])
    config = SolverConfig(n_steps=n_steps)
    sol = run_seed(heat, grid, config, realize_gamma(grid, {"kind": "eigenmode"}), T)
    report = verify_seed(
        heat, grid, config, sol.rho, sol.alpha, sol.gamma.field, T, decrement=sol.decrement
    )
    A = build_stencil(heat, grid, 0.0)[0].toarray()
    exact = sol.rho.values - expm(T * A) @ sol.rho.values
    gap = float(np.abs(sol.decrement.values - exact).max())
    assert report.time_error_est == pytest.approx(gap, rel=0.1)
    assert len(report.mass_curve) == n_steps // 2 + 1


def test_verify_seed_marches_the_construction_grid_when_not_given(heat, grid64):
    # the Python API without ``decrement`` marches it: the same report
    config = SolverConfig(n_steps=33)
    sol = run_seed(heat, grid64, config, realize_gamma(grid64, {"kind": "eigenmode"}), 0.3)
    args = (heat, grid64, config, sol.rho, sol.alpha, sol.gamma.field, 0.3)
    assert verify_seed(*args) == verify_seed(*args, decrement=sol.decrement)


def test_verify_seed_needs_a_coarser_grid(heat, grid64):
    rho = DensityField(grid64, np.ones(64))
    with pytest.raises(ValueError, match="n_steps >= 2"):
        verify_seed(heat, grid64, SolverConfig(n_steps=1), rho, 1.0, rho, 0.5)


def test_solution_save_load_round_trip(tmp_path, heat, grid128):
    config = SolverConfig(n_steps=128)
    gamma = realize_gamma(grid128, {"kind": "bump", "lo": [0.3], "hi": [0.5]})
    sol = run_seed(heat, grid128, config, gamma, 0.5)
    names = sol.save(tmp_path)
    assert set(names) == {"rho.csv", "u0.csv", "uT.csv", "decrement.csv", "report.json"}
    rho, u0, report = load_solution(grid128, tmp_path)
    assert np.array_equal(rho.values, sol.rho.values)
    assert np.array_equal(u0.values, sol.u0.values)
    for name in ("uT", "decrement"):
        stored = DensityField.from_csv(grid128, tmp_path / f"{name}.csv")
        assert np.array_equal(stored.values, getattr(sol, name).values)
    assert report["alpha"] == sol.alpha
    assert report["residual"] == sol.residual
    assert report["method"] == sol.resolvent.method
    assert len(report["mass_curve"]) == config.n_steps + 1


def _count_evolves(monkeypatch):
    """The step counts of the marches that seedpipe makes through evolve."""
    evolves = []
    evolve = seedpipe.evolve

    def counted(model, grid, config, *args, **kwargs):
        evolves.append(config.n_steps)
        return evolve(model, grid, config, *args, **kwargs)

    monkeypatch.setattr(seedpipe, "evolve", counted)
    return evolves


@pytest.mark.parametrize("n_cells", [[10, 10], [160]])
def test_unclamped_seed_takes_its_decrement_from_the_resolvent(monkeypatch, n_cells):
    # nothing is clamped, so run_seed marches nothing after the resolvent:
    # rho, alpha, u0 and uT have the bits of a solve whose applications
    # march without recording their states, on the dense path (100 nodes)
    # and on the sparse one (160); the decrement, its residual and the mass
    # curve agree with a march of rho on a fresh stepper to round-off
    # (measured: 2.7e-16 of max|decrement|, masses 4.5e-16)
    from decrem import fredholm

    dim = len(n_cells)
    grid = make_grid(dim, [0.0] * dim, [1.0] * dim, n_cells)
    model = constant_model([0.2, -0.1][:dim], np.diag([1.0, 0.7][:dim]))
    gamma = realize_gamma(grid, {"kind": "bump", "lo": [0.2] * dim, "hi": [0.65] * dim})
    config = SolverConfig(n_steps=48)
    evolves = _count_evolves(monkeypatch)
    sol = run_seed(model, grid, config, gamma, 0.3)
    assert sol.negativity == 0.0 and evolves == []
    march = fredholm._march

    def unrecorded(model, grid, config, values, s, T, record):
        step, final = march(model, grid, config, values, s, T, record=False)
        return step, final[None]

    monkeypatch.setattr(fredholm, "_march", unrecorded)
    ref = run_seed(model, grid, config, gamma, 0.3)
    assert sol.alpha == ref.alpha
    for name in ("rho", "u0", "uT"):
        assert getattr(sol, name).values.tobytes() == getattr(ref, name).values.tobytes()
    residual, decrement, curve = seedpipe._decrement(
        model, grid, config, sol.rho, sol.alpha, sol.gamma.field, 0.3
    )
    assert evolves == [48]
    scale = 1e-15 * np.abs(decrement.values).max()
    assert np.abs(sol.decrement.values - decrement.values).max() <= scale
    assert abs(sol.residual - residual) <= scale
    assert [t for t, _ in sol.mass_curve] == [t for t, _ in curve]
    assert np.abs(np.subtract(sol.mass_curve, curve)[:, 1]).max() <= 1e-15


def test_clamped_seed_marches_rho_once(monkeypatch):
    # the a12 term breaks the M-matrix and zeta dips below zero near a
    # corner; the clamped rho is no longer alpha * zeta, so run_seed marches
    # it once, and gets the bits of that march on a fresh stepper
    grid = make_grid(2, [0.0, 0.0], [1.0, 1.0], [8, 8])
    model = constant_model([0.0, 0.0], np.array([[1.0, 0.0], [0.9, 0.436]]))
    gamma = realize_gamma(grid, {"kind": "bump", "lo": [0.1, 0.1], "hi": [0.3, 0.3]})
    config = SolverConfig(n_steps=64)
    evolves = _count_evolves(monkeypatch)
    sol = run_seed(model, grid, config, gamma, 0.5, tol=1e-3, eps_neg=1e-4)
    assert evolves == [64]
    assert -6e-6 < sol.negativity < -5.8e-6
    assert 3.6e-4 < sol.residual < 3.8e-4
    residual, decrement, curve = seedpipe._decrement(
        model, grid, config, sol.rho, sol.alpha, sol.gamma.field, 0.5
    )
    assert sol.residual == residual
    assert sol.decrement.values.tobytes() == decrement.values.tobytes()
    assert sol.mass_curve == curve


@pytest.mark.parametrize("n_cells", [[10, 10], [160]])
def test_decrement_matches_per_field_reference(n_cells):
    # the decrement, its residual and the mass curve come from the march's
    # state rows with the bits that DensityField snapshots of them give
    dim = len(n_cells)
    grid = make_grid(dim, [0.0] * dim, [1.0] * dim, n_cells)
    model = constant_model([0.2, -0.1][:dim], np.diag([1.0, 0.7][:dim]))
    config = SolverConfig(n_steps=40)
    rng = np.random.default_rng(8)
    rho = DensityField(grid, rng.random(grid.n))
    gamma = DensityField(grid, rng.random(grid.n))
    residual, decrement, curve = seedpipe._decrement(model, grid, config, rho, 0.7, gamma, 0.3)
    traj = evolve(model, grid, config, rho, 0.0, 0.3)
    fields = [DensityField(grid, v) for v in traj.states]
    expected = fields[0].values - fields[-1].values
    assert decrement.values.tobytes() == expected.tobytes()
    assert residual == float(np.abs(expected - 0.7 * gamma.values).max())
    assert [(t, m.hex()) for t, m in curve] == [
        (float(t), mass(f).hex()) for t, f in zip(traj.times, fields)
    ]
