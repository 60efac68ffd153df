"""Acceptance gate: nine analytic and statistical criteria at desk scale.

Every test prints one [PASS]/[FAIL] line (run with -s to see them all) and
then asserts, so the suite both documents and enforces the contract.  All
oracles are independent of the implementation: closed-form eigen-decay of
the absorbed unit-interval diffusion, dense LU solves, binomial statistics
and byte comparison.
"""

import json
import os
import subprocess
import sys
import time

import numpy as np

import decrem
from decrem import (
    DensityField,
    SolverConfig,
    assemble_Q,
    constant_model,
    estimate_density,
    evolve,
    make_grid,
    mass,
    propagator_action,
    realize_gamma,
    resolvent_dense,
    run_seed,
    sample_initial,
    simulate,
    solve_resolvent,
    spectral_radius,
)
from decrem.kolmogorov import _Stepper
from conftest import apply_Q, sampled_sine

LAMBDA_T1 = np.exp(-np.pi**2 / 2)  # 0.0071918834
LAMBDA_T01 = np.exp(-np.pi**2 / 20)  # 0.6105
LAMBDA_T05 = np.exp(-np.pi**2 / 4)  # 0.0848
ALPHA_ORACLE = (1.0 - LAMBDA_T1) * np.pi / 2  # 1.5595


def report(number, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion-{number}: {detail}")
    assert ok, detail


def heat_model():
    return constant_model([0.0], [[1.0]])


def test_criterion_1_eigenmode_decay():
    grid = make_grid(1, [0.0], [1.0], [256])
    config = SolverConfig(n_steps=2048)
    rho = sampled_sine(grid)
    start = time.perf_counter()
    traj = evolve(heat_model(), grid, config, rho, 0.0, 1.0)
    elapsed = time.perf_counter() - start
    expected = LAMBDA_T1 * rho.values
    err = np.linalg.norm(traj.fields[-1].values - expected) / np.linalg.norm(expected)
    report(
        1,
        err <= 1e-2 and elapsed < 10.0,
        f"relative L2 error {err:.2e} (tol 1e-2), runtime {elapsed:.1f}s (limit 10s)",
    )


def test_criterion_2_spectral_contraction():
    grid = make_grid(1, [0.0], [1.0], [128])
    model = heat_model()
    est1 = spectral_radius(
        propagator_action(model, grid, SolverConfig(n_steps=2048), 1.0),
        n=grid.n,
    )
    err1 = abs(est1.value - LAMBDA_T1) / LAMBDA_T1
    est2 = spectral_radius(
        propagator_action(model, grid, SolverConfig(n_steps=64), 0.1),
        n=grid.n,
    )
    err2 = abs(est2.value - LAMBDA_T01) / LAMBDA_T01
    report(
        2,
        err1 <= 2e-2 and err2 <= 2e-2 and est1.converged and est2.converged,
        f"radius(T=1) {est1.value:.6f} vs {LAMBDA_T1:.6f} ({err1:.2e}), "
        f"radius(T=0.1) {est2.value:.4f} vs {LAMBDA_T01:.4f} ({err2:.2e})",
    )


def test_criterion_3_resolvent_correctness():
    grid = make_grid(1, [0.0], [1.0], [128])
    model = heat_model()
    config = SolverConfig(n_steps=128)
    gamma = realize_gamma(grid, {"kind": "bump", "lo": [0.4], "hi": [0.6]})
    out = solve_resolvent(model, grid, config, gamma.field, 0.5, tol=1e-10)
    opmat = assemble_Q(model, grid, config, 0.5)
    dense = resolvent_dense(opmat, gamma.field)
    agree = np.linalg.norm(out.zeta.values - dense.values) / np.linalg.norm(dense.values)
    report(
        3,
        out.residual_norm <= 1e-8 and agree <= 1e-7,
        f"bump residual {out.residual_norm:.2e} (tol 1e-8), "
        f"matrix-free vs dense LU {agree:.2e} (tol 1e-7)",
    )


def test_criterion_4_seed_end_to_end():
    grid = make_grid(1, [0.0], [1.0], [128])
    config = SolverConfig(n_steps=256)
    gamma = realize_gamma(grid, {"kind": "eigenmode"})
    sol = run_seed(heat_model(), grid, config, gamma, 1.0)
    alpha_err = abs(sol.alpha - ALPHA_ORACLE) / ALPHA_ORACLE
    mass_err = abs(mass(sol.rho) - 1.0)
    ok = (
        alpha_err <= 2e-2
        and sol.residual <= 1e-6
        and mass_err <= 1e-12
        and sol.rho.values.min() >= 0.0
    )
    report(
        4,
        ok,
        f"alpha {sol.alpha:.6f} vs {ALPHA_ORACLE:.6f} ({alpha_err:.2e}, tol 2e-2), "
        f"residual {sol.residual:.2e} (tol 1e-6), |mass-1| {mass_err:.2e}, "
        f"min rho {sol.rho.values.min():.2e}",
    )


def test_criterion_5_positivity(qhat128):
    grid = make_grid(1, [0.0], [1.0], [64])
    model = heat_model()
    config = SolverConfig(n_steps=16)
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        rho = DensityField(grid, rng.random(64))
        traj = evolve(model, grid, config, rho, 0.0, 0.25)
        for f in traj.fields:
            worst = min(worst, float(f.values.min()))
    cm = qhat128.column_masses()
    ok = (
        worst >= 0.0
        and qhat128.matrix.min() >= 0.0
        and cm.min() > 0.0
        and cm.max() < 1.0
    )
    report(
        5,
        ok,
        f"worst field value {worst:.1e} over 100 trajectories, "
        f"min kernel entry {qhat128.matrix.min():.1e}, "
        f"column masses in [{cm.min():.4f}, {cm.max():.4f}]",
    )


def test_criterion_6_mass_loss():
    grid = make_grid(1, [0.0], [1.0], [64])
    model = heat_model()
    config = SolverConfig(n_steps=16)
    rng = np.random.default_rng(55)
    margin = np.inf
    for _ in range(100):
        u = rng.standard_normal(64)
        u_plus = DensityField(grid, np.maximum(u, 0.0))
        u_minus = DensityField(grid, np.maximum(-u, 0.0))
        total = np.abs(u).sum() * grid.cell_volume
        kept = (
            np.abs(apply_Q(model, grid, config, u_plus, 0.25).values).sum()
            + np.abs(apply_Q(model, grid, config, u_minus, 0.25).values).sum()
        ) * grid.cell_volume
        margin = min(margin, total - kept)
        if not kept < total:
            break
    report(
        6,
        margin > 0.0,
        f"L1(Q u+) + L1(Q u-) < L1(u) in 100/100 cases, smallest margin {margin:.3e}",
    )


def test_criterion_7_monte_carlo():
    start = time.perf_counter()
    grid = make_grid(1, [0.0], [1.0], [64])
    model = heat_model()
    n = 100000
    f = sampled_sine(grid)
    rho = f.with_values(f.values / mass(f))
    ens = simulate(model, grid, sample_initial(rho, n, seed=2718), 0.5, dt=1e-4)
    survival = ens.alive.mean()
    sigma = np.sqrt(LAMBDA_T05 * (1.0 - LAMBDA_T05) / n)
    surv_err = abs(survival - LAMBDA_T05)
    surv_tol = 3.0 * sigma + 0.01

    # cross-check the seed pipeline: per-cell z-scores against the PDE field
    grid2 = make_grid(1, [0.0], [1.0], [128])
    config = SolverConfig(n_steps=256)
    gamma = realize_gamma(grid2, {"kind": "eigenmode"})
    sol = run_seed(model, grid2, config, gamma, 0.5)
    ens2 = simulate(model, grid2, sample_initial(sol.rho, n, seed=31415), 0.5, dt=2e-4)
    est = estimate_density(ens2, grid2)
    pde = evolve(model, grid2, config, sol.rho, 0.0, 0.5).fields[-1]
    q = np.clip(pde.values * grid2.cell_volume, 1e-12, 1.0)
    p_hat = est.histogram.values * grid2.cell_volume
    z = (p_hat - q) / np.sqrt(q * (1.0 - q) / n)
    frac = float(np.mean(np.abs(z) <= 4.0))
    elapsed = time.perf_counter() - start
    report(
        7,
        surv_err <= surv_tol and frac >= 0.95 and elapsed < 120.0,
        f"survival {survival:.5f} vs {LAMBDA_T05:.5f} "
        f"(|diff| {surv_err:.2e} <= 3 sigma + 0.01 = {surv_tol:.2e}), "
        f"z-scores within +-4: {100 * frac:.1f}% (need 95%), runtime {elapsed:.0f}s",
    )


def test_criterion_8_scale_equivariance():
    grid = make_grid(1, [0.0], [1.0], [128])
    model = heat_model()
    config = SolverConfig(n_steps=128)
    base = realize_gamma(grid, {"kind": "eigenmode"}).field
    sols = [
        run_seed(model, grid, config, base.with_values(c * base.values), 0.5)
        for c in (0.1, 1.0, 10.0)
    ]
    ref = sols[1]
    alpha_dev = max(abs(s.alpha - ref.alpha) / ref.alpha for s in sols)
    rho_dev = max(
        np.abs(s.rho.values - ref.rho.values).max() / ref.rho.values.max()
        for s in sols
    )
    report(
        8,
        alpha_dev <= 1e-8 and rho_dev <= 1e-8,
        f"alpha spread {alpha_dev:.2e}, rho spread {rho_dev:.2e} "
        f"over c in {{0.1, 1, 10}} (tol 1e-8)",
    )


def _run_decrem(workdir, threads, args):
    """Run ``python -m decrem`` on ``args`` in ``workdir`` with BLAS and
    OpenMP on ``threads`` threads; the run must exit 0."""
    pkg_root = os.path.dirname(os.path.dirname(os.path.abspath(decrem.__file__)))
    env = dict(os.environ)
    # The subprocess runs in a temporary cwd, where a relative PYTHONPATH
    # (say `src`) resolves to nothing; put the tree this process imported
    # first, so it also wins over any installed copy of decrem.
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [pkg_root, env.get("PYTHONPATH")]))
    env["OMP_NUM_THREADS"] = threads
    env["OPENBLAS_NUM_THREADS"] = threads
    proc = subprocess.run(
        [sys.executable, "-m", "decrem", *args],
        cwd=workdir,
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr


def test_criterion_9_determinism_across_threads(tmp_path):
    cfg = {
        "domain": {"dim": 1, "lo": [0.0], "hi": [1.0], "n_cells": [64]},
        "model": {"family": "constant", "drift": [0.0], "beta": [[1.0]]},
        "time": {"T": 0.25, "n_steps": 64},
        "gamma": {"kind": "eigenmode"},
        "mc": {"n_particles": 20000, "dt": 5e-4, "seed": 424242},
        "output_dir": "out",
    }
    f = sampled_sine(make_grid(1, [0.0], [1.0], [64]))
    rho = f.with_values(f.values / mass(f))
    digests = []
    for threads in ("1", "4"):
        workdir = tmp_path / f"threads_{threads}"
        workdir.mkdir()
        (workdir / "run.json").write_text(json.dumps(cfg))
        rho.to_csv(workdir / "rho.csv")
        _run_decrem(workdir, threads, ["mc", "run.json", "--rho", "rho.csv"])
        blob = b"".join(
            (workdir / "out" / name).read_bytes()
            for name in (
                "mc/density.csv",
                "mc/mc.json",
                "comparison.json",
                "config.echo.json",
                "manifest.json",
            )
        )
        digests.append(blob)
    report(
        9,
        digests[0] == digests[1],
        f"cmd_mc reports byte-identical across OMP_NUM_THREADS=1/4 "
        f"({len(digests[0])} bytes compared)",
    )


def test_seed_dense_steps_determinism_across_threads(tmp_path):
    # every step of this 10x10 drifted box is a BLAS product with the dense
    # inverse of the step matrix; its bits must not depend on the threads
    cfg = {
        "domain": {"dim": 2, "lo": [0.0, 0.0], "hi": [1.0, 1.0], "n_cells": [10, 10]},
        "model": {
            "family": "constant",
            "drift": [0.2, -0.1],
            "beta": [[1.0, 0.0], [0.0, 0.7]],
        },
        "time": {"T": 0.3, "n_steps": 128},
        "gamma": {"kind": "bump", "lo": [0.2, 0.3], "hi": [0.65, 0.75]},
        "output_dir": "out",
    }
    grid = make_grid(2, [0.0, 0.0], [1.0, 1.0], [10, 10])
    model = constant_model(cfg["model"]["drift"], cfg["model"]["beta"])
    step = _Stepper(model, grid, SolverConfig(n_steps=128), 0.0, 0.3)
    step(0, np.ones(grid.n))
    assert step.inverse is not None
    outputs = []
    for threads in ("1", "4"):
        workdir = tmp_path / f"threads_{threads}"
        workdir.mkdir()
        (workdir / "run.json").write_text(json.dumps(cfg))
        _run_decrem(workdir, threads, ["seed", "run.json"])
        out = workdir / "out"
        manifest = json.loads((out / "manifest.json").read_text())
        names = sorted(entry["name"] for entry in manifest["files"])
        assert "solution/rho.csv" in names
        outputs.append(
            {name: (out / name).read_bytes() for name in names + ["manifest.json"]}
        )
    assert outputs[0] == outputs[1]
