import hashlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.random import Generator, Philox
from scipy.special import ndtri

from decrem import (
    DensityField,
    DiffusionModel,
    NotADensity,
    constant_model,
    default_dt,
    estimate_density,
    make_grid,
    mass,
    ou_model,
    sample_initial,
    simulate,
    tabulated_model,
)
from decrem.montecarlo import ParticleEnsemble, _strictly_inside
from conftest import sampled_sine


def normalized_sine(grid):
    f = sampled_sine(grid)
    return f.with_values(f.values / mass(f))


def uniform_density(grid):
    return DensityField(grid, np.full(grid.n, 1.0 / (grid.n * grid.cell_volume)))


def reference_normals(seed, step, n, dim):
    """The stream contract written out: uniforms of counter block
    ``step << 128``, particle i in slots [i*dim, (i+1)*dim), through ndtri."""
    bg = Philox(key=seed & ((1 << 128) - 1), counter=step << 128)
    u = Generator(bg).random((n, dim))
    return ndtri(np.maximum(u, 5e-324))


def simulate_all_particles(model, grid, ensemble, T, dt):
    """Reference stepper: every particle draws, evaluates and moves at every
    step, and only the alive mask decides who keeps the move."""
    pos = ensemble.positions.copy()
    alive = ensemble.alive.copy()
    n, dim = pos.shape
    t = ensemble.t
    k = ensemble.step_offset
    while t < T - 1e-14 * max(1.0, abs(T)):
        step = min(dt, T - t)
        z = reference_normals(ensemble.seed, k, n, dim)
        f = model.drift_at(pos, t)
        b = model.beta_at(pos, t)
        if dim == 1:
            move = f[:, 0] * step + b[:, 0, 0] * np.sqrt(step) * z[:, 0]
            new = pos[:, 0] + move
            pos[alive, 0] = new[alive]
        else:
            move = f * step + np.sqrt(step) * np.einsum("nij,nj->ni", b, z)
            pos[alive] = (pos + move)[alive]
        alive &= _strictly_inside(pos, grid)
        t += step
        k += 1
    return pos, alive, k


def test_sample_initial_single_cell(grid64):
    values = np.zeros(64)
    values[10] = 1.0 / grid64.cell_volume
    rho = DensityField(grid64, values)
    ens = sample_initial(rho, 500, seed=1)
    lo = grid64.lo[0] + 10 * grid64.h[0]
    assert np.all(ens.positions[:, 0] >= lo)
    assert np.all(ens.positions[:, 0] < lo + grid64.h[0])
    assert np.all(ens.alive)


def test_sample_initial_rejects_non_density(grid64):
    with pytest.raises(NotADensity):
        sample_initial(DensityField(grid64, np.full(64, -1.0)), 10, seed=0)
    with pytest.raises(NotADensity):
        sample_initial(DensityField(grid64, np.full(64, 2.0)), 10, seed=0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_sample_initial_rejects_non_finite_density(grid64, bad):
    values = np.full(64, 1.0)
    values[5] = bad
    with pytest.raises(NotADensity, match="not finite at cell 5"):
        sample_initial(DensityField(grid64, values), 10, seed=0)


def test_sample_initial_uniform_binomial(grid64):
    n = 100000
    rho = DensityField(grid64, np.ones(64))
    ens = sample_initial(rho, n, seed=12)
    counts = np.bincount(
        np.floor((ens.positions[:, 0]) / grid64.h[0]).astype(int), minlength=64
    )
    p = 1.0 / 64
    sigma = np.sqrt(n * p * (1 - p))
    assert np.all(np.abs(counts - n * p) <= 4 * sigma)


def test_sample_initial_sine_mean(grid256):
    n = 100000
    rho = normalized_sine(grid256)
    ens = sample_initial(rho, n, seed=3)
    # mean of (pi/2) sin(pi x) on (0,1) is 1/2; std is sqrt(1/4 - 2/pi^2)
    std = np.sqrt(0.25 - 2.0 / np.pi**2)
    assert ens.positions[:, 0].mean() == pytest.approx(0.5, abs=4 * std / np.sqrt(n))


def test_sampling_deterministic(grid64):
    rho = normalized_sine(grid64)
    a = sample_initial(rho, 1000, seed=77)
    b = sample_initial(rho, 1000, seed=77)
    assert np.array_equal(a.positions, b.positions)
    c = sample_initial(rho, 1000, seed=78)
    assert not np.array_equal(a.positions, c.positions)


def test_normals_are_pure_function_of_seed_and_step(grid64, heat):
    pos = np.linspace(0.02, 0.98, 200).reshape(-1, 1)
    ens = ParticleEnsemble(pos, np.ones(200, dtype=bool), seed=123, t=0.0, step_offset=5)
    a = simulate(heat, grid64, ens, 2e-3, dt=1e-3)
    assert np.array_equal(a.positions, simulate(heat, grid64, ens, 2e-3, dt=1e-3).positions)
    for other in (replace(ens, seed=124), replace(ens, step_offset=6)):
        assert not np.array_equal(a.positions, simulate(heat, grid64, other, 2e-3, dt=1e-3).positions)
    # particle streams are prefixes: more particles extend, not reshuffle
    head = replace(ens, positions=pos[:100], alive=ens.alive[:100])
    assert np.array_equal(simulate(heat, grid64, head, 2e-3, dt=1e-3).positions, a.positions[:100])
    # absorbed rows keep their slots: the survivors read the same normals
    alive = np.zeros(200, dtype=bool)
    alive[[0, 3, 4, 57, 99]] = True
    sparse = simulate(heat, grid64, replace(ens, alive=alive), 2e-3, dt=1e-3)
    assert np.array_equal(sparse.positions[alive], a.positions[alive])
    assert np.array_equal(sparse.positions[~alive], pos[~alive])


def _time_dependent_table():
    grid = make_grid(2, [0.0, 0.0], [1.0, 1.2], [10, 12])
    rng = np.random.default_rng(4)
    mixed = np.array([[0.9, 0.3], [-0.2, 0.6]])
    series = [
        (
            rng.uniform(-1.0, 1.0, (grid.n, 2)),
            mixed * rng.uniform(0.5, 1.5, (grid.n, 1, 1)),
        )
        for _ in range(3)
    ]
    return tabulated_model(grid, [0.0, 0.05, 0.12], series), grid


def _surviving_steps_cases():
    grid1 = make_grid(1, [0.0], [1.0], [64])
    grid2 = make_grid(2, [0.0, 0.0], [1.0, 1.2], [10, 12])
    heat = constant_model([0.0], [[1.0]])
    const2 = constant_model([0.8, -0.5], [[0.9, 0.3], [-0.2, 0.6]])
    ou1 = ou_model(1.5, [0.4], [[0.9]])  # drift varies, beta is fixed
    ou = ou_model([1.5, 0.7], [0.4, 0.6], [[0.9, 0.3], [-0.2, 0.6]])
    table, grid_t = _time_dependent_table()
    # (model, grid, particles, T, dt, expected steps); 0.37 / 7e-3 leaves
    # a shortened last step
    return {
        "heat-1d": (heat, grid1, 3000, 0.3, 1e-3, 300),
        "heat-1d-short-last-step": (heat, grid1, 3000, 0.37, 7e-3, 53),
        "ou-1d-short-last-step": (ou1, grid1, 3000, 0.37, 7e-3, 53),
        "constant-2d-offdiag-beta": (const2, grid2, 3000, 0.2, 1e-3, 200),
        "ou-2d-offdiag-beta": (ou, grid2, 3000, 0.2, 1e-3, 200),
        "tabulated-series-2d": (table, grid_t, 3000, 0.2, 2e-3, 100),
    }


@pytest.mark.parametrize("case", sorted(_surviving_steps_cases()))
def test_simulate_matches_all_particle_stepper(case):
    model, grid, n, T, dt, steps = _surviving_steps_cases()[case]
    ens = sample_initial(uniform_density(grid), n, seed=17)
    out = simulate(model, grid, ens, T, dt=dt)
    pos, alive, k = simulate_all_particles(model, grid, ens, T, dt)
    assert out.step_offset == k == steps
    assert np.array_equal(out.positions, pos)
    assert np.array_equal(out.alive, alive)
    assert 0 < alive.sum() < n
    # entering with absorbed particles: they neither draw nor move
    later = simulate(model, grid, out, 2 * T, dt=dt)
    pos, alive, k = simulate_all_particles(model, grid, out, 2 * T, dt)
    assert later.step_offset == k == 2 * steps
    assert np.array_equal(later.positions, pos)
    assert np.array_equal(later.alive, alive)


def test_simulate_matches_all_particle_stepper_at_high_exit_rates():
    # after the first step, beta 2 moves a particle about 0.2 per step of
    # 1e-2, so many exit at each step; a drift of 1e3 throws out every
    # particle beyond 0.9 at once and, from t = 0.05 on, every particle
    grid = make_grid(1, [0.0], [1.0], [16])
    model = DiffusionModel(
        1,
        lambda pts, t: np.where((pts > 0.9) | (t > 0.045), 1e3, 0.0),
        lambda pts, t: np.broadcast_to(0.1 if t < 0.005 else 2.0, (pts.shape[0], 1, 1)),
        time_dependent=True,
    )
    pos = np.concatenate([np.linspace(0.2, 0.85, 400), np.full(50, 0.95)])[:, None]
    ens = ParticleEnsemble(pos, np.ones(450, dtype=bool), seed=5, t=0.0)
    out = simulate(model, grid, ens, 0.08, dt=1e-2)
    ref_pos, ref_alive, k = simulate_all_particles(model, grid, ens, 0.08, 1e-2)
    assert out.step_offset == k == 8
    assert np.array_equal(out.positions, ref_pos)
    assert np.array_equal(out.alive, ref_alive)
    # the reference's alive mask after each step shows which exits the run had
    alive = [ens.alive]
    for j in range(1, 9):
        alive.append(simulate_all_particles(model, grid, ens, j * 1e-2, 1e-2)[1])
    exits = [np.flatnonzero(a & ~b) for a, b in zip(alive, alive[1:])]
    # step 1: the exits are the highest slots, so they leave no holes among
    # the rows in slot order, and the last survivor's slot drops to 399
    assert np.array_equal(exits[0], np.arange(400, 450))
    # steps 2 to 5: many exits each, the highest survivor among them at least once
    assert all(e.size >= 20 for e in exits[1:5])
    assert any(np.flatnonzero(a)[-1] in e for a, e in zip(alive[1:5], exits[1:5]))
    # step 6: every survivor exits
    assert alive[5].sum() > 1 and not alive[6].any()


def _coefficient_reads_cases():
    grid1 = make_grid(1, [0.0], [1.0], [64])
    grid2 = make_grid(2, [0.0, 0.0], [1.0, 1.2], [10, 12])
    table = tabulated_model(
        grid1, [0.0], [(np.linspace(-1.0, 1.0, 64)[:, None], np.full((64, 1, 1), 0.8))]
    )
    # the model of the high exit rate test: its beta has stride 0 along the
    # points but changes with t
    varying = DiffusionModel(
        1,
        lambda pts, t: np.where((pts > 0.9) | (t > 0.045), 1e3, 0.0),
        lambda pts, t: np.broadcast_to(0.1 if t < 0.005 else 2.0, (pts.shape[0], 1, 1)),
        time_dependent=True,
    )
    # (model, grid, T, dt, drift_at calls, beta_at calls); 20 steps, the
    # last one shortened, which ends before the drift of 1e3 at t > 0.045
    # empties the box
    return {
        "constant-1d": (constant_model([0.3], [[1.0]]), grid1, 0.0195, 1e-3, 1, 1),
        "constant-2d": (constant_model([0.8, -0.5], [[0.9, 0.3], [-0.2, 0.6]]), grid2, 0.0195, 1e-3, 1, 1),
        "ou-1d": (ou_model(1.5, [0.4], [[0.9]]), grid1, 0.0195, 1e-3, 20, 1),
        "tabulated-1d": (table, grid1, 0.0195, 1e-3, 20, 20),
        "time-dependent-1d": (varying, grid1, 0.0195, 1e-3, 20, 20),
    }


@pytest.mark.parametrize("case", sorted(_coefficient_reads_cases()))
def test_coefficient_reads_per_simulate_call(case):
    # a time-homogeneous coefficient with stride 0 along the points is read
    # once per call; any other coefficient at every step
    model, grid, T, dt, drift_calls, beta_calls = _coefficient_reads_cases()[case]
    calls = {"drift_at": 0, "beta_at": 0}
    for name in calls:
        at = getattr(model, name)

        def counted(x, t, at=at, name=name):
            calls[name] += 1
            return at(x, t)

        setattr(model, name, counted)
    ens = sample_initial(uniform_density(grid), 2000, seed=3)
    out = simulate(model, grid, ens, T, dt=dt)
    assert out.step_offset == 20 and out.alive.any()
    assert calls == {"drift_at": drift_calls, "beta_at": beta_calls}
    calls.update(drift_at=0, beta_at=0)
    simulate(model, grid, out, 2 * T, dt=dt)  # each call reads afresh
    assert calls == {"drift_at": drift_calls, "beta_at": beta_calls}


def _digest(ensemble):
    return hashlib.sha256(ensemble.positions.tobytes() + ensemble.alive.tobytes()).hexdigest()


# SHA-256 of positions and alive after T and after continuing to 2T; they pin
# the particle stream and the step arithmetic, whatever the implementation
_GOLDEN = {
    "constant-2d-offdiag-beta": (
        "12313a133048a314034c14d9db1b4c13937a911e4c9d64c4da1444cd7c65d954",
        "ca08543c25c1ca04105d005e530071d7dde92435d827069e1260a73137a191d6",
    ),
    "heat-1d": (
        "cae8675c154d1061d9ea7f80bbdf512392195104c48be5d3dec6b59b450065a0",
        "1ce0b89235e8cbc3ec425e7349df8de7531898811aa0763cb00cacb29a2884fe",
    ),
    "heat-1d-short-last-step": (
        "84016994154e150e68fa19cc5dcd931f4108c35c1e944ea835206bba783f2daf",
        "4d4f58246c7af4c2aee9140d3ae56006859175eb630cced4554f274356ae294c",
    ),
    "ou-1d-short-last-step": (
        "7f65ea15371ce9af607e41a644db19bd9397670fa0ee1b44c045aee0a25a86f6",
        "81170a1e5b4406165848040996f30408bcf327fcc8630b61d31a9d3531c11fdd",
    ),
    "ou-2d-offdiag-beta": (
        "520731aa4401cbd2851ff04b556a1ee30a2edb0756d34533163792cc223122ef",
        "03c1b83954fbd8e426c8413d338958b80642e6523ffac0cdfa0213c0644dfa7e",
    ),
    "tabulated-series-2d": (
        "f97537e995dfc10a90ab5d400868fa627280460c0780ca4335546b173cab12c0",
        "09da41b59508efe9f47005b2f920123f0acbfed1e92b428921d1743dca92139f",
    ),
}


@pytest.mark.parametrize("case", sorted(_GOLDEN))
def test_simulate_golden_digests(case):
    model, grid, n, T, dt, _ = _surviving_steps_cases()[case]
    ens = sample_initial(uniform_density(grid), n, seed=17)
    first = simulate(model, grid, ens, T, dt=dt)
    later = simulate(model, grid, first, 2 * T, dt=dt)
    assert (_digest(first), _digest(later)) == _GOLDEN[case]


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**130),
    n=st.integers(1, 500),
    dim=st.sampled_from([1, 2]),
    step_offset=st.integers(0, 2**40),
    steps=st.integers(1, 12),
    data_seed=st.integers(0, 2**32 - 1),
)
def test_simulate_equals_reference_stepper(seed, n, dim, step_offset, steps, data_seed):
    if dim == 1:
        grid = make_grid(1, [0.0], [1.0], [16])
        model = constant_model([0.4], [[1.3]])
    else:
        grid = make_grid(2, [0.0, 0.0], [1.0, 1.2], [10, 12])
        model = ou_model([1.5, 0.7], [0.4, 0.6], [[0.9, 0.3], [-0.2, 0.6]])
    rng = np.random.default_rng(data_seed)
    pos = rng.uniform(grid.lo, grid.hi, (n, dim))
    absorbed = rng.random(n) < rng.random()  # a random share is absorbed up front
    ens = ParticleEnsemble(pos, ~absorbed, seed=seed, t=0.0, step_offset=step_offset)
    dt = 2e-3
    out = simulate(model, grid, ens, steps * dt, dt=dt)
    ref_pos, ref_alive, k = simulate_all_particles(model, grid, ens, steps * dt, dt)
    assert out.step_offset == k == step_offset + steps
    assert np.array_equal(out.positions, ref_pos)
    assert np.array_equal(out.alive, ref_alive)


def test_simulate_fully_absorbed_ensemble(grid64, heat):
    pos = np.linspace(-0.5, 1.5, 40).reshape(-1, 1)
    ens = ParticleEnsemble(
        positions=pos, alive=np.zeros(40, dtype=bool), seed=3, t=0.0
    )
    out = simulate(heat, grid64, ens, 0.1, dt=1e-3)
    assert out.step_offset == 100
    assert np.array_equal(out.positions, pos)
    assert not out.alive.any()


def test_step_count_free_of_round_off(grid64, heat):
    # 0.5 / 1e-4 steps accumulate t short of T by ~1e-13, which must not
    # cost a 5001st sliver step
    rho = normalized_sine(grid64)
    ens = sample_initial(rho, 1000, seed=5)
    direct = simulate(heat, grid64, ens, 0.5, dt=1e-4)
    assert direct.step_offset == 5000
    part = simulate(heat, grid64, ens, 0.3, dt=1e-4)
    assert part.step_offset == 3000
    cont = simulate(heat, grid64, part, 0.5, dt=1e-4)
    assert cont.step_offset == 5000
    assert np.array_equal(cont.alive, direct.alive)
    assert np.allclose(cont.positions, direct.positions, atol=1e-12)


def test_simulate_deterministic_and_extendable(grid64, heat):
    rho = normalized_sine(grid64)
    dt = 1e-3
    a = simulate(heat, grid64, sample_initial(rho, 2000, seed=5), 0.3, dt=dt)
    b = simulate(heat, grid64, sample_initial(rho, 2000, seed=5), 0.3, dt=dt)
    assert np.array_equal(a.positions, b.positions)
    assert np.array_equal(a.alive, b.alive)
    # continuing the same ensemble reuses later counter blocks only
    c = simulate(heat, grid64, a, 0.5, dt=dt)
    d = simulate(heat, grid64, sample_initial(rho, 2000, seed=5), 0.5, dt=dt)
    assert np.array_equal(c.alive, d.alive)
    assert np.allclose(c.positions, d.positions, atol=1e-12)


def test_survival_monotone_in_horizon(grid64, heat):
    rho = normalized_sine(grid64)
    ens = sample_initial(rho, 5000, seed=9)
    s1 = simulate(heat, grid64, ens, 0.2, dt=1e-3).alive.mean()
    s2 = simulate(heat, grid64, ens, 0.4, dt=1e-3).alive.mean()
    assert s2 < s1


def test_brownian_moments_on_huge_domain():
    # absorption is negligible on (-100, 100) at T=1
    grid = make_grid(1, [-100.0], [100.0], [400])
    model = constant_model([0.0], [[1.0]])
    n = 100000
    values = np.zeros(400)
    values[200] = 1.0 / grid.cell_volume  # all mass in the cell [0, 0.5)
    ens = sample_initial(DensityField(grid, values), n, seed=21)
    start = ens.positions.copy()
    out = simulate(model, grid, ens, 1.0, dt=1e-2)
    disp = out.positions[:, 0] - start[:, 0]
    assert out.alive.mean() == 1.0
    assert np.var(disp) == pytest.approx(1.0, rel=5e-2)
    assert disp.mean() == pytest.approx(0.0, abs=5.0 / np.sqrt(n))


def test_drifted_mean_on_huge_domain():
    grid = make_grid(1, [-100.0], [100.0], [400])
    model = constant_model([2.0], [[1.0]])
    n = 100000
    values = np.zeros(400)
    values[200] = 1.0 / grid.cell_volume
    ens = sample_initial(DensityField(grid, values), n, seed=22)
    start = ens.positions.copy()
    out = simulate(model, grid, ens, 1.0, dt=1e-2)
    disp = out.positions[:, 0] - start[:, 0]
    assert disp.mean() == pytest.approx(2.0, abs=5.0 / np.sqrt(n))


def test_simulate_validates_arguments(grid64, heat):
    rho = normalized_sine(grid64)
    ens = sample_initial(rho, 10, seed=0)
    with pytest.raises(ValueError):
        simulate(heat, grid64, ens, 0.0)
    with pytest.raises(ValueError):
        simulate(heat, grid64, ens, 0.5, dt=-1.0)
    with pytest.raises(ValueError):
        simulate(heat, grid64, ens, 0.5, dt=1.0)


def test_absorbed_particles_frozen(grid64, heat):
    rho = normalized_sine(grid64)
    ens = simulate(heat, grid64, sample_initial(rho, 3000, seed=13), 0.3, dt=1e-3)
    dead = ~ens.alive
    assert dead.any()
    later = simulate(heat, grid64, ens, 0.6, dt=1e-3)
    assert np.array_equal(ens.positions[dead], later.positions[dead])
    # absorption is permanent
    assert not later.alive[dead].any()


def test_estimate_density_trivial_cases(grid64):
    # everyone absorbed
    pos = np.full((50, 1), -1.0)
    ens = ParticleEnsemble(
        positions=pos, alive=np.zeros(50, dtype=bool), seed=0, t=1.0
    )
    est = estimate_density(ens, grid64)
    assert est.survival == 0.0
    assert not np.any(est.histogram.values)
    # everyone alive in one cell
    pos = np.full((50, 1), grid64.axis_centers(0)[7])
    ens = ParticleEnsemble(
        positions=pos, alive=np.ones(50, dtype=bool), seed=0, t=1.0
    )
    est = estimate_density(ens, grid64)
    assert est.survival == 1.0
    assert est.histogram.values[7] == pytest.approx(1.0 / grid64.cell_volume)
    assert mass(est.histogram) == pytest.approx(1.0)


def test_histogram_mass_equals_survival(grid64, heat):
    rho = normalized_sine(grid64)
    ens = simulate(heat, grid64, sample_initial(rho, 4000, seed=31), 0.25, dt=1e-3)
    est = estimate_density(ens, grid64)
    assert mass(est.histogram) == pytest.approx(est.survival, abs=1e-12)
    assert est.n == 4000


def test_default_dt_bounds(grid64, heat):
    dt = default_dt(heat, grid64, T=10.0)
    assert dt <= grid64.h[0] ** 2 / 2.0
    assert default_dt(heat, grid64, T=1e-6) == pytest.approx(1e-9)


def test_estimate_save_round_trip(tmp_path, grid64, heat):
    rho = normalized_sine(grid64)
    ens = simulate(heat, grid64, sample_initial(rho, 1000, seed=2), 0.2, dt=1e-3)
    est = estimate_density(ens, grid64)
    names = est.save(tmp_path)
    assert set(names) == {"density.csv", "mc.json"}
    import json

    report = json.loads((tmp_path / "mc.json").read_text())
    assert set(report) == {"n", "survival", "dt", "seed"}
    assert report["n"] == 1000
    assert report["seed"] == 2
