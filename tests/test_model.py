import json

import numpy as np
import pytest

from decrem import (
    ShapeMismatch,
    constant_model,
    eval_a,
    load_tabulated,
    load_tabulated_series,
    make_grid,
    ou_model,
    tabulated_model,
)
from conftest import write_coefficient_csv


def test_eval_a_scalar_beta():
    model = constant_model([0.0], 1.0)
    a = eval_a(model, np.array([[0.5]]), 0.0)
    assert a[0, 0, 0] == pytest.approx(0.5)


def test_eval_a_diag_beta():
    model = constant_model([0.0, 0.0], [[2.0, 0.0], [0.0, 2.0]])
    a = eval_a(model, np.array([[0.5, 0.5]]), 0.0)
    assert np.allclose(a[0], [[2.0, 0.0], [0.0, 2.0]])


def test_eval_a_exactly_symmetric():
    rng = np.random.default_rng(2)
    for _ in range(30):
        beta = rng.standard_normal((2, 2))
        model = constant_model([0.0, 0.0], beta)
        pts = rng.random((12, 2))
        a = eval_a(model, pts, 0.0)
        assert np.array_equal(a, np.swapaxes(a, 1, 2))


def test_drift_shape_checked():
    model = constant_model([0.0, 0.0], np.eye(2))
    bad = lambda pts, t: np.zeros((pts.shape[0], 3))
    model._drift_fn = bad
    with pytest.raises(ShapeMismatch):
        model.drift_at(np.zeros((4, 2)), 0.0)


def test_ou_drift_points_at_center():
    model = ou_model(2.0, [0.3], 1.0)
    f = model.drift_at(np.array([[0.8]]), 0.0)
    assert f[0, 0] == pytest.approx(-2.0 * 0.5)


def test_tabulated_lookup_at_cell_center():
    # table grid with an odd cell count has a center exactly at x=0.5
    grid = make_grid(1, [0.0], [1.0], [5])
    x = grid.axis_centers(0)
    drift = np.zeros((5, 1))
    beta = (1.0 + x).reshape(5, 1, 1)
    model = tabulated_model(grid, drift, beta)
    a = eval_a(model, np.array([[0.5]]), 0.0)
    assert a[0, 0, 0] == pytest.approx(0.5 * 1.5**2)  # 1.125


def test_coefficient_csv_round_trip(tmp_path):
    grid = make_grid(2, [0.0, 0.0], [1.0, 1.0], [4, 4])
    rng = np.random.default_rng(9)
    drift = rng.standard_normal((grid.n, 2))
    beta = rng.standard_normal((grid.n, 2, 2))
    path = tmp_path / "coef.csv"
    write_coefficient_csv(grid, path, drift, beta)
    model = load_tabulated(grid, path)
    pts = grid.nodes()
    assert np.array_equal(model.drift_at(pts, 0.0), drift)
    assert np.array_equal(model.beta_at(pts, 0.0), beta)


def test_tabulated_series_interpolates(tmp_path):
    grid = make_grid(1, [0.0], [1.0], [8])
    drift0 = np.zeros((8, 1))
    drift1 = np.ones((8, 1))
    beta = np.ones((8, 1, 1))
    write_coefficient_csv(grid, tmp_path / "t0.csv", drift0, beta)
    write_coefficient_csv(grid, tmp_path / "t1.csv", drift1, beta)
    manifest = tmp_path / "series.json"
    manifest.write_text(
        json.dumps({"times": [0.0, 1.0], "files": ["t0.csv", "t1.csv"]})
    )
    model = load_tabulated_series(grid, manifest)
    assert model.time_dependent
    pts = np.array([[0.5]])
    assert model.drift_at(pts, 0.25)[0, 0] == pytest.approx(0.25)
    # constant extrapolation outside the sampled range
    assert model.drift_at(pts, -1.0)[0, 0] == pytest.approx(0.0)
    assert model.drift_at(pts, 5.0)[0, 0] == pytest.approx(1.0)


def test_tabulated_refined_query_grid():
    # evaluation is piecewise constant on table cells, so querying from a
    # twice-refined grid reads each table value twice
    table = make_grid(1, [0.0], [1.0], [8])
    fine = make_grid(1, [0.0], [1.0], [16])
    x = table.axis_centers(0)
    model = tabulated_model(
        table, np.zeros((8, 1)), (1.0 + x).reshape(8, 1, 1)
    )
    b = model.beta_at(fine.nodes(), 0.0)[:, 0, 0]
    assert np.array_equal(b[::2], b[1::2])
    assert np.array_equal(b[::2], 1.0 + x)

