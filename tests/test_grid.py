import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from decrem import (
    DensityField,
    ShapeMismatch,
    make_grid,
    mass,
    norm_sup,
)
from conftest import sampled_sine


def test_make_grid_1d_basics():
    grid = make_grid(1, [0.0], [1.0], [4])
    assert grid.h == (0.25,)
    assert grid.n == 4
    assert np.allclose(grid.axis_centers(0), [0.125, 0.375, 0.625, 0.875])


def test_make_grid_2d_basics():
    grid = make_grid(2, [0.0, 0.0], [1.0, 2.0], [4, 8])
    assert grid.h == (0.25, 0.25)
    assert grid.n == 32
    assert grid.cell_volume == pytest.approx(0.0625)


def test_make_grid_rejects_bad_input():
    with pytest.raises(ValueError):
        make_grid(3, [0, 0, 0], [1, 1, 1], [4, 4, 4])
    with pytest.raises(ValueError):
        make_grid(1, [0.0], [1.0], [2])
    with pytest.raises(ValueError):
        make_grid(1, [1.0], [0.0], [8])
    with pytest.raises(ValueError):
        make_grid(2, [0.0], [1.0, 1.0], [4, 4])


def test_nodes_match_flat_order():
    grid = make_grid(2, [0.0, 0.0], [2.0, 1.0], [4, 6])
    pts = grid.nodes()
    for i in range(4):
        for j in range(6):
            k = np.ravel_multi_index((i, j), grid.shape)
            assert pts[k, 0] == pytest.approx(grid.axis_centers(0)[i])
            assert pts[k, 1] == pytest.approx(grid.axis_centers(1)[j])


def test_field_requires_matching_shape():
    grid = make_grid(1, [0.0], [1.0], [8])
    with pytest.raises(ShapeMismatch):
        DensityField(grid, np.zeros(9))
    grid2 = make_grid(2, [0.0, 0.0], [1.0, 1.0], [4, 5])
    # grid-shaped input is accepted and flattened
    f = DensityField(grid2, np.ones((4, 5)))
    assert f.values.shape == (20,)
    assert np.array_equal(f.values.reshape(grid2.shape), np.ones((4, 5)))


def test_field_values_read_only():
    grid = make_grid(1, [0.0], [1.0], [8])
    f = DensityField.zeros(grid)
    with pytest.raises(ValueError):
        f.values[0] = 1.0


def test_mass_trivial_cases():
    grid = make_grid(1, [0.0], [1.0], [17])
    assert mass(DensityField.zeros(grid)) == 0.0
    assert mass(DensityField(grid, np.ones(17))) == pytest.approx(1.0, abs=1e-14)
    grid2 = make_grid(2, [0.0, 0.0], [2.0, 3.0], [5, 4])
    assert mass(DensityField(grid2, np.ones(20))) == pytest.approx(6.0, abs=1e-12)


def test_mass_of_sine_midpoint_rule():
    # integral of sin(pi x) over (0,1) is 2/pi; midpoint rule is second order
    grid = make_grid(1, [0.0], [1.0], [256])
    assert mass(sampled_sine(grid)) == pytest.approx(2.0 / np.pi, abs=1e-4)


def test_norms_relations():
    rng = np.random.default_rng(11)
    grid = make_grid(2, [0.0, 0.0], [1.0, 2.0], [8, 8])
    volume = 2.0
    for _ in range(50):
        f = DensityField(grid, rng.standard_normal(grid.n))
        assert norm_sup(f) == pytest.approx(np.abs(f.values).max())
        assert mass(f.with_values(np.abs(f.values))) <= volume * norm_sup(f) + 1e-12


def test_csv_round_trip_1d(tmp_path):
    grid = make_grid(1, [0.0], [1.0], [32])
    rng = np.random.default_rng(5)
    f = DensityField(grid, rng.random(32))
    path = tmp_path / "f.csv"
    f.to_csv(path)
    g = DensityField.from_csv(grid, path)
    # repr round-trips doubles exactly
    assert np.array_equal(f.values, g.values)


def test_csv_round_trip_2d(tmp_path):
    grid = make_grid(2, [-1.0, 0.0], [1.0, 1.0], [6, 9])
    rng = np.random.default_rng(6)
    f = DensityField(grid, rng.standard_normal(grid.n))
    path = tmp_path / "f.csv"
    f.to_csv(path)
    g = DensityField.from_csv(grid, path)
    assert np.array_equal(f.values, g.values)


def test_csv_wrong_grid_rejected(tmp_path):
    grid = make_grid(1, [0.0], [1.0], [32])
    f = DensityField.zeros(grid)
    path = tmp_path / "f.csv"
    f.to_csv(path)
    with pytest.raises(ShapeMismatch):
        DensityField.from_csv(make_grid(1, [0.0], [1.0], [16]), path)
    shifted = make_grid(1, [0.5], [1.5], [32])
    with pytest.raises(ShapeMismatch):
        DensityField.from_csv(shifted, path)


def test_csv_corrupt_header_rejected(tmp_path):
    grid = make_grid(1, [0.0], [1.0], [8])
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n0.0,1.0\n")
    with pytest.raises(ShapeMismatch):
        DensityField.from_csv(grid, path)


EXTREMES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
            1.7976931348623157e308, -1.7976931348623157e308]


@settings(max_examples=60, deadline=None)
@given(
    n_cells=st.sampled_from([(5,), (37,), (4, 6), (7, 5)]),
    data=st.data(),
)
def test_csv_round_trip_is_bit_exact(n_cells, data):
    # every finite double, subnormals and signed zeros included, comes back
    # with the same bits
    dim = len(n_cells)
    grid = make_grid(dim, [-1.0] * dim, [2.5] * dim, list(n_cells))
    doubles = st.one_of(
        st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(EXTREMES)
    )
    f = DensityField(grid, data.draw(arrays(np.float64, grid.n, elements=doubles)))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "f.csv"
        f.to_csv(path)
        g = DensityField.from_csv(grid, path)
    assert np.array_equal(g.values.view(np.uint64), f.values.view(np.uint64))
