"""Decay of the principal eigenmode of the absorbed unit-interval diffusion.

For f=0, beta=1 the density sin(pi x) is invariant in shape and decays as
e^{-pi^2 t / 2}, which makes a sharp accuracy benchmark.  The script evolves
it with K and 2K implicit-Euler steps, prints the measured versus analytic
mass at a few times, and the final error against the closed form.  The
scheme is first order, so halving dt halves the error: the observed order
log2(e_K / e_2K) is about 1.
"""

import numpy as np

from decrem import (
    DensityField,
    SolverConfig,
    constant_model,
    evolve,
    make_grid,
    mass_curve,
)

grid = make_grid(1, [0.0], [1.0], [256])
model = constant_model([0.0], [[1.0]])
x = grid.axis_centers(0)
rho = DensityField(grid, np.sin(np.pi * x))
expected = np.exp(-np.pi**2 / 2) * rho.values

errors = {}
for n_steps in (512, 1024):
    traj = evolve(model, grid, SolverConfig(n_steps=n_steps), rho, 0.0, 1.0)
    curve = mass_curve(traj)
    print(f"\nimplicit-euler, {n_steps} steps")
    print(f"{'t':>6} {'mass':>12} {'analytic':>12} {'rel err':>10}")
    for t, m in curve[:: len(curve) // 8]:
        exact = (2.0 / np.pi) * np.exp(-np.pi**2 * t / 2.0)
        print(f"{t:6.3f} {m:12.8f} {exact:12.8f} {abs(m / exact - 1):10.2e}")

    final = traj.fields[-1].values
    peak = final[np.argmin(np.abs(x - 0.5))]
    print(f"peak at x=0.5: {peak:.8f}  (analytic {np.exp(-np.pi**2 / 2):.8f})")
    errors[n_steps] = np.linalg.norm(final - expected) / np.linalg.norm(expected)
    print(f"relative L2 error at T=1: {errors[n_steps]:.3e}")

print(f"\nobserved order log2(e_512 / e_1024) = {np.log2(errors[512] / errors[1024]):.3f}")
