"""Seed construction on a planar domain.

Same construction as the interval demos, now on a 32x32 grid with an
anisotropic (but axis-aligned) diffusion and a mild constant drift.  The
decrement profile is an off-center square bump.  Axis-aligned beta keeps the
stepping monotone, so the run reports a positivity certificate.
"""

import numpy as np

from decrem import (
    SolverConfig,
    constant_model,
    make_grid,
    mass,
    realize_gamma,
    run_seed,
    verify_seed,
)

grid = make_grid(2, [0.0, 0.0], [1.0, 1.0], [32, 32])
model = constant_model([0.2, -0.1], [[1.0, 0.0], [0.0, 0.7]])
# enough steps that the verification floor, half the time error, sits below tol
config = SolverConfig(n_steps=128)
T = 0.3

gamma = realize_gamma(grid, {"kind": "bump", "lo": [0.55, 0.25], "hi": [0.85, 0.55]})
sol = run_seed(model, grid, config, gamma, T)
check = verify_seed(model, grid, config, sol.rho, sol.alpha, gamma.field, T,
                    decrement=sol.decrement)

print(f"alpha = {sol.alpha:.6f}")
print(f"construction residual (sup) = {sol.residual:.2e}")
print(f"rho: min = {sol.rho.values.min():.2e}, mass = {mass(sol.rho):.12f}")
print(f"refined-step residual = {check.residual_refined:.2e} (passed: {check.passed})")
print(f"estimated time error = {check.time_error_est:.2e}")

print("mass curve (first five snapshots):")
for t, m in sol.mass_curve[:5]:
    print(f"  t = {t:.5f}  mass = {m:.6f}")

surv = sol.mass_curve[-1][1] / sol.mass_curve[0][1]
print(f"survival over [0, {T}]: {surv:.4f}")

# coarse picture of where the seed mass sits (rows are y from top)
vals = sol.rho.values.reshape(grid.shape)
blocks = vals.reshape(8, 4, 8, 4).mean(axis=(1, 3))
scale = blocks.max()
glyphs = " .:*#"
print("rho, 8x8 block averages:")
for row in blocks.T[::-1]:
    line = "".join(glyphs[min(int(4.999 * v / scale), 4)] for v in row)
    print("  " + line)
