import dataclasses
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from decrem import (
    CapExceeded,
    DensityField,
    NoConvergence,
    SolverConfig,
    assemble_Q,
    constant_model,
    make_grid,
    mass,
    propagator_action,
    realize_gamma,
    resolvent_dense,
    run_seed,
    singular_values,
    solve_resolvent,
    spectral_radius,
    tabulated_model,
)
from decrem import fredholm, kolmogorov
from decrem.kolmogorov import PANEL
from conftest import apply_Q, diagonal_series, sampled_sine

DECAY_1 = np.exp(-np.pi**2 / 2)


def test_apply_Q_zero(grid64, heat):
    zero = DensityField(grid64, np.zeros(grid64.n))
    out = apply_Q(heat, grid64, SolverConfig(n_steps=16), zero, 0.5)
    assert not np.any(out.values)


def test_apply_Q_eigen_decay(heat):
    grid = make_grid(1, [0.0], [1.0], [256])
    config = SolverConfig(n_steps=2048)
    xi = sampled_sine(grid)
    out = apply_Q(heat, grid, config, xi, 1.0)
    err = np.linalg.norm(out.values - DECAY_1 * xi.values)
    assert err <= 1e-2 * DECAY_1 * np.linalg.norm(xi.values)


def test_apply_Q_loses_mass(grid64, heat):
    rng = np.random.default_rng(7)
    config = SolverConfig(n_steps=16)
    for _ in range(20):
        xi = DensityField(grid64, rng.random(64))
        out = apply_Q(heat, grid64, config, xi, 0.25)
        assert mass(out) < mass(xi)


def test_assembled_matches_matrix_free(qhat128, heat, grid128):
    config = SolverConfig(n_steps=128)
    rng = np.random.default_rng(19)
    act = qhat128.coefficient_action()
    for _ in range(5):
        v = rng.random(128)
        direct = apply_Q(heat, grid128, config, DensityField(grid128, v), 0.5)
        assert np.allclose(act @ v, direct.values, rtol=0.0, atol=1e-8)


def test_Q_of_sampled_sine_closed_form(qhat128, heat, grid128):
    # v = sin(pi x) on the cell centres is an exact eigenvector of A_h with
    # lambda_h = -(4a/h^2) sin^2(pi h/2), a = 1/2, so K implicit-euler steps
    # scale it by (1 - dt lambda_h)^(-K); an oracle independent of the solver
    h = grid128.h[0]
    lam = -(2.0 / h**2) * np.sin(np.pi * h / 2.0) ** 2
    v = sampled_sine(grid128).values
    expected = (1.0 - (0.5 / 128) * lam) ** (-128) * v
    config = SolverConfig(n_steps=128)
    direct = apply_Q(heat, grid128, config, sampled_sine(grid128), 0.5)
    assembled = qhat128.coefficient_action() @ v
    for got in (direct.values, assembled):
        assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)


def test_assembled_columns_are_kernel_slices(qhat128, heat, grid128):
    # column j is the response to a unit of mass concentrated in cell j
    config = SolverConfig(n_steps=128)
    j = 40
    delta = np.zeros(128)
    delta[j] = 1.0 / grid128.cell_volume
    out = apply_Q(heat, grid128, config, DensityField(grid128, delta), 0.5)
    assert np.allclose(qhat128.matrix[:, j], out.values, rtol=0.0, atol=1e-8)


def test_assembled_positivity_and_column_masses(qhat128):
    assert qhat128.matrix.min() >= 0.0
    cm = qhat128.column_masses()
    assert cm.min() > 0.0
    assert cm.max() < 1.0


def test_assembled_symmetric_for_self_adjoint(heat):
    # pure diffusion on a uniform grid gives a symmetric kernel matrix
    grid = make_grid(1, [0.0], [1.0], [16])
    opmat = assemble_Q(heat, grid, SolverConfig(n_steps=64), 0.1)
    scale = np.abs(opmat.matrix).max()
    assert np.abs(opmat.matrix - opmat.matrix.T).max() <= 1e-6 * scale


def test_assembled_long_horizon_vanishes(heat):
    grid = make_grid(1, [0.0], [1.0], [4])
    opmat = assemble_Q(heat, grid, SolverConfig(n_steps=512), 5.0)
    assert np.abs(opmat.matrix).max() <= 1e-8


def test_assembly_cap(heat):
    grid = make_grid(1, [0.0], [1.0], [64])
    with pytest.raises(CapExceeded):
        assemble_Q(heat, grid, SolverConfig(n_steps=8), 0.5, cap=32)


def test_operator_matrix_save_load_round_trip(tmp_path, qhat128, grid128):
    # operator.bin is the kernel as column-major little-endian float64
    base = str(tmp_path / "qhat")
    qhat128.save(base)
    sidecar = json.loads(open(base + ".json").read())
    n = sidecar["n"]
    assert n == grid128.n
    assert (sidecar["dtype"], sidecar["order"]) == ("<f8", "column-major")
    loaded = np.fromfile(base + ".bin", dtype="<f8").reshape((n, n), order="F")
    assert np.array_equal(loaded, qhat128.matrix)
    assert sidecar["scheme"] == "implicit-euler"
    assert sidecar["T"] == qhat128.T
    assert sidecar["n_steps"] == qhat128.n_steps


def test_spectral_radius_decay_oracles(heat, grid128):
    config = SolverConfig(n_steps=2048)
    est = spectral_radius(propagator_action(heat, grid128, config, 1.0), n=grid128.n)
    assert est.converged
    assert est.value == pytest.approx(DECAY_1, rel=2e-2)

    config = SolverConfig(n_steps=64)
    est = spectral_radius(propagator_action(heat, grid128, config, 0.1), n=grid128.n)
    assert est.converged
    assert est.value == pytest.approx(np.exp(-np.pi**2 / 20), rel=2e-2)


def test_spectral_radius_of_assembled(qhat128):
    est = spectral_radius(lambda v: qhat128.coefficient_action() @ v, n=qhat128.grid.n)
    # implicit euler at K=128 overestimates the decay; stay within its bias
    assert est.converged
    assert est.value == pytest.approx(np.exp(-np.pi**2 / 4), rel=5e-2)


def test_spectral_radius_zero_operator(heat):
    grid = make_grid(1, [0.0], [1.0], [4])
    opmat = assemble_Q(heat, grid, SolverConfig(n_steps=512), 5.0)
    est = spectral_radius(lambda v: opmat.coefficient_action() @ v, n=grid.n)
    assert est.value <= 1e-8


def test_resolvent_zero_gamma(grid64, heat):
    report = solve_resolvent(
        heat, grid64, SolverConfig(n_steps=16), DensityField(grid64, np.zeros(grid64.n)), 0.5
    )
    assert not np.any(report.zeta.values)
    assert report.iterations == 1
    assert report.residual_norm == 0.0


def test_resolvent_eigenmode_closed_form(heat, grid128):
    # zeta = gamma / (1 - lambda_1); gamma is an eigenvector of Q, so one
    # Krylov step holds the solution
    config = SolverConfig(n_steps=256)
    gamma = sampled_sine(grid128)
    report = solve_resolvent(heat, grid128, config, gamma, 1.0, tol=1e-10)
    expected = gamma.values / (1.0 - DECAY_1)
    err = np.linalg.norm(report.zeta.values - expected)
    assert err <= 1e-2 * np.linalg.norm(expected)
    assert report.method == "krylov"
    assert report.iterations <= 5


def test_resolvent_bump_residual(heat, grid128):
    config = SolverConfig(n_steps=128)
    gamma = realize_gamma(grid128, {"kind": "bump", "lo": [0.4], "hi": [0.6]})
    report = solve_resolvent(heat, grid128, config, gamma.field, 0.5, tol=1e-8)
    assert report.residual_norm <= 1e-8


def test_resolvent_agrees_with_dense_lu(qhat128, heat, grid128):
    config = SolverConfig(n_steps=128)
    gamma = realize_gamma(grid128, {"kind": "bump", "lo": [0.4], "hi": [0.6]})
    report = solve_resolvent(heat, grid128, config, gamma.field, 0.5, tol=1e-10)
    dense = resolvent_dense(qhat128, gamma.field)
    err = np.linalg.norm(report.zeta.values - dense.values)
    assert err <= 1e-7 * np.linalg.norm(dense.values)


def _count_Q(monkeypatch):
    """Record every march made through fredholm: one per application of Q."""
    calls = []
    march = fredholm._march

    def counted(*args, **kwargs):
        calls.append(1)
        return march(*args, **kwargs)

    monkeypatch.setattr(fredholm, "_march", counted)
    return calls


def test_assembly_marches_panels_through_Q(heat, monkeypatch):
    # 150 nodes: four full panels and one of 22 columns, every step taken
    # once by one march of the kernel, panel by panel
    grid = make_grid(1, [0.0], [1.0], [150])
    config = SolverConfig(n_steps=6)
    applied = _count_Q(monkeypatch)
    steps = []
    check = kolmogorov._check

    def counted_check(M, tol, rhs, x, k):
        steps.append(k)
        return check(M, tol, rhs, x, k)

    # every factored step checks its residual once
    monkeypatch.setattr(kolmogorov, "_check", counted_check)
    opmat = assemble_Q(heat, grid, config, 0.2)
    assert len(applied) == 1
    panels = -(-grid.n // PANEL)
    assert panels == 5
    assert steps == [k for k in range(config.n_steps) for _ in range(panels)]
    j = 140
    delta = np.zeros(grid.n)
    delta[j] = 1.0 / grid.cell_volume
    direct = propagator_action(heat, grid, config, 0.2)(delta)
    assert np.allclose(opmat.matrix[:, j], direct, rtol=0.0, atol=1e-12)


def test_assembly_peak_memory_below_two_blocks():
    # the 28 x 28 grid, drift and horizon of the spectrum benchmark
    grid = make_grid(2, [0.0, 0.0], [1.0, 1.0], [28, 28])
    model = constant_model([0.2, -0.1], [[1.0, 0.0], [0.0, 0.7]])
    config = SolverConfig(n_steps=4)
    assemble_Q(model, grid, config, 0.5)  # the kept generator is no part of the peak
    tracemalloc.start()
    try:
        assemble_Q(model, grid, config, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * grid.n**2 * 8


def test_assembly_peak_memory_below_the_kernel_and_four_panels():
    # the kernel is its own march buffer: beside it a step holds a panel's
    # solve, its residual and their temporaries
    grid = make_grid(2, [0.0, 0.0], [1.0, 1.0], [28, 28])
    model = constant_model([0.2, -0.1], [[1.0, 0.0], [0.0, 0.7]])
    config = SolverConfig(n_steps=4)
    assemble_Q(model, grid, config, 0.5)  # the kept generator is no part of the peak
    tracemalloc.start()
    try:
        assemble_Q(model, grid, config, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < grid.n**2 * 8 + 4 * grid.n * PANEL * 8


@pytest.mark.parametrize("case", ["dense-10x10", "sparse-12x12", "series-10x12"])
def test_assembled_kernel_is_Q_of_each_unit_mass(case, monkeypatch):
    # every column of the kernel, marched in its own storage a panel at a
    # time, holds the bits of a march of its unit mass alone; the series
    # keeps only its first step, so the assembly and each march factor anew
    drifted = constant_model([0.2, -0.1], [[1.0, 0.0], [0.0, 0.7]])
    if case == "series-10x12":
        monkeypatch.setattr(kolmogorov, "KEEP_BYTES", 0)
        grid = make_grid(2, [0.0, 0.0], [1.0, 1.2], [10, 12])
        model = diagonal_series(grid)
    else:
        n = 10 if case == "dense-10x10" else 12
        grid, model = make_grid(2, [0.0, 0.0], [1.0, 1.0], [n, n]), drifted
    config = SolverConfig(n_steps=16)
    Q = assemble_Q(model, grid, config, 0.3).matrix
    (first, *_) = model.propagator.steps.values()
    assert (first.inverse is not None) == (case == "dense-10x10")
    units = np.eye(grid.n) / grid.cell_volume
    act = propagator_action(model, grid, config, 0.3)
    columns = np.column_stack([act(u) for u in units])
    if first.inverse is None:
        assert np.array_equal(Q, columns)
    else:
        # a dense step of a vector is a BLAS matrix-vector product, whose
        # last bits may differ from those of the matrix product that steps
        # the kernel: the kernel holds the bits of S^K times the unit masses
        ref = units
        for _ in range(config.n_steps):
            ref = first.inverse @ ref
        assert np.array_equal(Q, ref)
        assert np.abs(Q - columns).max() <= 1e-14 * np.abs(Q).max()


def test_series_assembly_factors_each_step_once(monkeypatch):
    # a budget of 0 bytes keeps only the first step of the series, and the
    # assembly still fetches, so factors, each of its K steps once
    monkeypatch.setattr(kolmogorov, "KEEP_BYTES", 0)
    calls = []
    splu = kolmogorov.splu

    def counted(*args, **kwargs):
        calls.append(1)
        return splu(*args, **kwargs)

    monkeypatch.setattr(kolmogorov, "splu", counted)
    grid = make_grid(2, [0.0, 0.0], [1.0, 1.2], [10, 12])
    config = SolverConfig(n_steps=24)
    assemble_Q(diagonal_series(grid), grid, config, 0.3)
    assert len(calls) == config.n_steps


def test_resolvent_respects_budget(heat, grid64, monkeypatch):
    # a bump is no eigenvector of Q, so one Krylov step can not reach 1e-14
    gamma = realize_gamma(grid64, {"kind": "bump", "lo": [0.4], "hi": [0.6]})
    applied = _count_Q(monkeypatch)
    with pytest.raises(NoConvergence, match="after 2 operator applications"):
        solve_resolvent(
            heat, grid64, SolverConfig(n_steps=8), gamma.field, 0.5, tol=1e-14, max_iter=2
        )
    assert len(applied) <= 2
    with pytest.raises(ValueError):
        solve_resolvent(heat, grid64, SolverConfig(n_steps=8), gamma.field, 0.5, max_iter=1)


@pytest.mark.parametrize("max_iter", [3, 5, 13, 24])
def test_resolvent_budget_below_grid_size(heat, grid64, monkeypatch, max_iter):
    # n = 64 and a restart length of 30 would overrun each of these budgets;
    # at T = 0.001 the solve needs 20 applications of Q
    gamma = realize_gamma(grid64, {"kind": "bump", "lo": [0.4], "hi": [0.6]})
    config = SolverConfig(n_steps=8)
    applied = _count_Q(monkeypatch)
    if max_iter < 20:
        with pytest.raises(NoConvergence):
            solve_resolvent(heat, grid64, config, gamma.field, 0.001, max_iter=max_iter)
    else:
        report = solve_resolvent(heat, grid64, config, gamma.field, 0.001, max_iter=max_iter)
        assert report.iterations == len(applied)
        assert report.iterations <= max_iter
        assert report.residual_norm <= 1e-10
    assert len(applied) <= max_iter


@pytest.mark.parametrize("T", [0.02, 0.01, 0.001])
def test_short_horizon_seed_converges(heat, T):
    # Q contracts only at e^{-pi^2 T / 2} here; GMRES still converges
    grid = make_grid(1, [0.0], [1.0], [32])
    config = SolverConfig(n_steps=32)
    gamma = realize_gamma(grid, {"kind": "bump", "lo": [0.4], "hi": [0.6]})
    sol = run_seed(heat, grid, config, gamma, T)
    assert sol.resolvent.method == "krylov"
    assert sol.resolvent.residual_norm <= 1e-9
    assert sol.residual <= 1e-6
    zeta = resolvent_dense(assemble_Q(heat, grid, config, T), sol.gamma.field)
    assert sol.alpha == pytest.approx(1.0 / mass(zeta), rel=1e-6)


def _property_cases():
    """(model, grid, config, T): monotone 1-D with and without drift, a
    time-dependent table, and a 2-D mixed term."""
    g1 = make_grid(1, [0.0], [1.0], [12])
    g2 = make_grid(2, [0.0, 0.0], [1.0, 1.0], [5, 4])
    ramp = tabulated_model(
        g1,
        [0.0, 0.2],
        [
            (np.zeros((12, 1)), np.ones((12, 1, 1))),
            (np.full((12, 1), 1.5), np.full((12, 1, 1), 0.5)),
        ],
    )
    return [
        (constant_model([0.0], [[1.0]]), g1, SolverConfig(n_steps=6), 0.05),
        (constant_model([2.0], [[0.5]]), g1, SolverConfig(n_steps=5), 0.3),
        (ramp, g1, SolverConfig(n_steps=4), 0.2),
        (constant_model([0.3, -0.2], [[1.0, 0.4], [0.0, 0.8]]), g2, SolverConfig(n_steps=3), 0.1),
    ]


PROPERTY_CASES = _property_cases()


def _fields(n, lo=-1.0):
    return arrays(np.float64, n, elements=st.floats(lo, 1.0, allow_subnormal=False))


@settings(max_examples=40, deadline=None)
@given(case=st.sampled_from(range(len(PROPERTY_CASES))), data=st.data())
def test_propagator_action_is_apply_Q_and_linear(case, data):
    model, grid, config, T = PROPERTY_CASES[case]
    u = data.draw(_fields(grid.n), label="u")
    v = data.draw(_fields(grid.n, lo=0.0), label="v")
    a, b = data.draw(st.tuples(st.floats(-2, 2), st.floats(-2, 2)), label="a, b")
    act = propagator_action(model, grid, config, T)
    once = lambda w: apply_Q(model, grid, config, DensityField(grid, w), T).values
    # the shared factor and the per-application clamp give the bits of a
    # fresh march, whatever the order and sign of the inputs
    for w in (v, u, v, u):
        assert np.array_equal(act(w), once(w))
    combo = act(a * u + b * v)
    scale = abs(a) * np.linalg.norm(act(u)) + abs(b) * np.linalg.norm(act(v))
    assert np.linalg.norm(combo - a * act(u) - b * act(v)) <= 1e-12 * scale


@settings(max_examples=40, deadline=None)
@given(case=st.sampled_from(range(3)), data=st.data())
def test_Q_keeps_sign_and_loses_mass(case, data):
    # monotone cases only: implicit Euler without an a12 term
    model, grid, config, T = PROPERTY_CASES[case]
    v = data.draw(_fields(grid.n, lo=0.0), label="v")
    out = propagator_action(model, grid, config, T)(v)
    assert np.all(out >= 0.0)
    field = DensityField(grid, v)
    assert mass(DensityField(grid, out)) <= mass(field)
    if np.any(v > 0.0):
        assert mass(DensityField(grid, out)) < mass(field)


def test_singular_values_decay(qhat128):
    # singular_values takes the kernel it is given, so the shared fixture
    # gives a copy
    sv = singular_values(dataclasses.replace(qhat128, matrix=qhat128.matrix.copy()))
    assert sv[0] > 0.0
    assert np.all(np.diff(sv) <= 1e-12)
    # absorbed heat kernel: sigma_k ~ e^{-k^2 pi^2 T / 2} drops fast
    assert sv[0] / sv[3] >= 10.0


def test_singular_values_take_the_kernel(tmp_path):
    # a drift makes Q nonsymmetric, so its singular values are not its
    # eigenvalues; 400 nodes make the kernel large beside the SVD's O(N)
    # workspace
    grid = make_grid(2, [0.0, 0.0], [1.0, 1.0], [20, 20])
    model = constant_model([0.4, -0.3], [[1.0, 0.0], [0.0, 0.6]])
    opmat = assemble_Q(model, grid, SolverConfig(n_steps=4), 0.1)
    kernel = opmat.matrix.copy()
    tracemalloc.start()
    try:
        sv = singular_values(opmat)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the SVD works in the kernel's own storage: no N x N copy of it
    assert peak < grid.n**2 * 8 // 4
    assert opmat.matrix is None
    with pytest.raises(AttributeError):
        opmat.column_masses()
    with pytest.raises(AttributeError):
        opmat.save(str(tmp_path / "operator"))
    # numpy and scipy may link different LAPACK builds, so the values agree
    # to round-off of the largest, not bit for bit
    ref = grid.cell_volume * np.linalg.svd(kernel, compute_uv=False)
    assert np.abs(sv - ref).max() <= 1e-13 * ref[0]


@pytest.mark.parametrize(
    "bad", [[np.nan], [np.inf], [-np.inf], [np.inf, -np.inf]], ids=["nan", "inf", "-inf", "inf-pair"]
)
def test_singular_values_reject_non_finite_before_lapack(bad, monkeypatch):
    # the kernel's sum stands in for svd's own N x N check: every kernel
    # that check rejects raises its ValueError before the SVD runs, and a
    # finite kernel keeps the bits of the checked SVD
    grid = make_grid(2, [0.0, 0.0], [1.0, 1.0], [6, 5])
    opmat = assemble_Q(constant_model([0.4, -0.3], [[1.0, 0.0], [0.0, 0.6]]), grid,
                       SolverConfig(n_steps=4), 0.1)
    kernel = opmat.matrix.copy()
    ref = grid.cell_volume * fredholm.svd(kernel.copy(), compute_uv=False)
    calls = []
    svd = fredholm.svd
    monkeypatch.setattr(fredholm, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
    sv = singular_values(dataclasses.replace(opmat, matrix=kernel.copy(order="F")))
    assert sv.tobytes() == ref.tobytes() and calls == [1]
    poisoned = kernel.copy(order="F")
    poisoned.flat[[7, 23][: len(bad)]] = bad
    with pytest.raises(ValueError, match="array must not contain infs or NaNs"):
        singular_values(dataclasses.replace(opmat, matrix=poisoned))
    assert calls == [1]
