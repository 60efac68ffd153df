"""Diagnostics on the assembled time-T solution operator.

Assembles the dense kernel matrix of Q on a small grid and inspects the
properties that the seed construction relies on: entrywise nonnegativity,
column masses strictly inside (0,1) (sub-stochasticity), a spectral radius
matching the analytic principal eigenvalue, and fast singular value decay.
It does so at K and 2K time steps: the first-order time error of implicit
Euler shows in the spectral radius and in the gap between the two operators.
"""

import numpy as np

from decrem import (
    SolverConfig,
    assemble_Q,
    constant_model,
    make_grid,
    singular_values,
    spectral_radius,
)

grid = make_grid(1, [0.0], [1.0], [96])
model = constant_model([0.0], [[1.0]])
T = 0.5

kernels = {}
for n_steps in (128, 256):
    opmat = assemble_Q(model, grid, SolverConfig(n_steps=n_steps), T)
    # a copy: singular_values takes the kernel and overwrites it
    kernels[n_steps] = opmat.matrix.copy()
    cm = opmat.column_masses()
    Q = opmat.coefficient_action()
    est = spectral_radius(lambda v: Q @ v, n=grid.n)
    sv = singular_values(opmat)
    analytic = np.exp(-np.pi**2 * T / 2.0)
    print(f"\nimplicit-euler, {n_steps} steps, N={grid.n}")
    print(f"  min entry          {kernels[n_steps].min():.3e}")
    print(f"  column masses      [{cm.min():.6f}, {cm.max():.6f}]")
    print(f"  spectral radius    {est.value:.8f} "
          f"(analytic {analytic:.8f}, rel err {abs(est.value / analytic - 1):.2e})")
    print(f"  power iterations   {est.iterations} (converged: {est.converged})")
    print("  leading singulars  " + "  ".join(f"{s:.2e}" for s in sv[:6]))
    # consecutive mode ratios ~ e^{-(k^2-(k-1)^2) pi^2 T / 2}
    ratios = sv[1:5] / sv[:4]
    print("  ratio sigma k+1/k  " + "  ".join(f"{r:.2e}" for r in ratios))

gap = np.abs(kernels[128] - kernels[256]).max() / np.abs(kernels[256]).max()
print(f"\nmax |Q_128 - Q_256| / max |Q_256| = {gap:.2e}")
