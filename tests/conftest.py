"""Shared fixtures.

The workhorse is pure diffusion (f=0, beta=1) on the unit interval: the
sampled sine is an exact eigenvector of the discrete operator with
eigenvalue -(2/h^2)(1 - cos(pi h)) ~ -pi^2/2, so analytic decay formulas
hold to discretization accuracy and make cheap oracles.
"""

import numpy as np
import pytest

from decrem import (
    DensityField,
    SolverConfig,
    assemble_Q,
    constant_model,
    make_grid,
    propagator_action,
    tabulated_model,
)
from decrem.grid import _write_table


def sampled_sine(grid):
    x = grid.axis_centers(0)
    return DensityField(grid, np.sin(np.pi * x))


def apply_Q(model, grid, config, xi, T):
    """One application of the time-T operator Q to the field ``xi``, through
    a propagator of its own."""
    return DensityField(grid, propagator_action(model, grid, config, T)(xi.values))


def diagonal_series(grid):
    """A 3-sample tabulated series over [0, 0.3] on the 2-D ``grid``, with
    random drift and a random diagonal beta."""
    rng = np.random.default_rng(5)
    samples = []
    for _ in range(3):
        beta = np.zeros((grid.n, 2, 2))
        beta[:, 0, 0] = rng.uniform(0.8, 1.2, grid.n)
        beta[:, 1, 1] = rng.uniform(0.6, 0.9, grid.n)
        samples.append((rng.uniform(-0.5, 0.5, (grid.n, 2)), beta))
    return tabulated_model(grid, [0.0, 0.15, 0.3], samples)


def write_coefficient_csv(grid, path, drift_values, beta_values):
    """Write a coefficient table: x[,y], f1[,f2], b11[,b12,b21,b22] per node."""
    dim = grid.dim
    names = [f"f{k + 1}" for k in range(dim)]
    names += [f"b{i + 1}{j + 1}" for i in range(dim) for j in range(dim)]
    _write_table(grid, path, names, [drift_values, beta_values])


@pytest.fixture
def heat():
    return constant_model([0.0], [[1.0]])


@pytest.fixture
def grid64():
    return make_grid(1, [0.0], [1.0], [64])


@pytest.fixture
def grid128():
    return make_grid(1, [0.0], [1.0], [128])


@pytest.fixture
def grid256():
    return make_grid(1, [0.0], [1.0], [256])


@pytest.fixture(scope="session")
def qhat128():
    """Assembled heat propagator, N=128, T=0.5, implicit-euler, 128 steps."""
    grid = make_grid(1, [0.0], [1.0], [128])
    model = constant_model([0.0], [[1.0]])
    return assemble_Q(model, grid, SolverConfig(n_steps=128), 0.5)
