"""Construct an initial density that sheds a prescribed profile.

The decrement target here is the indicator of (0.4, 0.6): we ask for an
initial density rho and a constant alpha such that evolving rho for T=0.5
removes exactly alpha * gamma from it.  The script runs the construction,
re-verifies it by Richardson extrapolation from a march with half the steps,
which also estimates the time error of the 256-step seed, and sketches the
resulting density.
"""

import numpy as np

from decrem import SolverConfig, constant_model, make_grid, realize_gamma, run_seed, verify_seed

grid = make_grid(1, [0.0], [1.0], [128])
model = constant_model([0.0], [[1.0]])
config = SolverConfig(n_steps=256)
gamma = realize_gamma(grid, {"kind": "bump", "lo": [0.4], "hi": [0.6]})

sol = run_seed(model, grid, config, gamma, T=0.5)
print(f"alpha              {sol.alpha:.8f}")
print(f"decrement residual {sol.residual:.3e} (sup norm, relative)")
print(f"resolvent          {sol.resolvent.method}, "
      f"{sol.resolvent.iterations} operator applications")
print(f"survivors at T     {sol.mass_curve[-1][1]:.6f} of 1.0")

check = verify_seed(model, grid, config, sol.rho, sol.alpha, sol.gamma.field, T=0.5,
                    decrement=sol.decrement)
print(f"re-verification    refined residual {check.residual_refined:.3e}, "
      f"mass decreasing: {check.mass_decreasing}, passed: {check.passed}")
print(f"time error         {check.time_error_est:.3e} (estimated, sup norm)")

# crude terminal sketch of rho and the programmed decrement
x = grid.axis_centers(0)
rho = sol.rho.values
dec = sol.decrement.values
width = 48
print("\n  x      rho (*)  and  decrement (#), both scaled to their peak")
for i in range(0, grid.n, 8):
    bar_r = int(width * rho[i] / rho.max())
    bar_d = int(width * dec[i] / dec.max())
    line = [" "] * (width + 1)
    for j in range(min(bar_r, width)):
        line[j] = "*"
    if bar_d <= width:
        line[bar_d] = "#"
    print(f"{x[i]:6.3f} |{''.join(line)}")
