import csv
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from decrem import (
    DensityField,
    MCEstimate,
    ShapeMismatch,
    make_grid,
    mass,
    norm_sup,
)
from decrem.grid import _write_json, _write_table
from conftest import sampled_sine, write_coefficient_csv


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
    # a box must be finite, and so must its cell widths
    for lo, hi in (([0.0], [np.inf]), ([-np.inf], [1.0]), ([np.nan], [1.0]), ([-1e308], [1e308])):
        with pytest.raises(ValueError):
            make_grid(1, lo, hi, [8])
    with pytest.raises(ValueError):
        make_grid(1, [0.0], [5e-324], [8])  # the widths underflow to 0


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
    f = DensityField(grid, np.zeros(grid.n))
    with pytest.raises(ValueError):
        f.values[0] = 1.0


def test_mass_trivial_cases():
    grid = make_grid(1, [0.0], [1.0], [17])
    assert mass(DensityField(grid, np.zeros(grid.n))) == 0.0
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
    f = DensityField(grid, np.zeros(grid.n))
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


def test_csv_ragged_row_rejected(tmp_path):
    # one row wider than the header is a shape mismatch, not a parse error
    grid = make_grid(1, [0.0], [1.0], [4])
    path = tmp_path / "f.csv"
    DensityField(grid, np.zeros(grid.n)).to_csv(path)
    rows = path.read_text().splitlines()
    rows[2] += ",9.0"
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(ShapeMismatch, match="expected 2 columns"):
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


# Golden bytes of the on-disk formats.  The box [0, 0.4] puts nodes at
# 0.05, 0.15000000000000002, 0.25 and 0.35000000000000003, so the rows also
# pin shortest-repr floats, the flat node order and the CRLF row ends.
X4 = ["0.05", "0.15000000000000002", "0.25", "0.35000000000000003"]
Y4 = ["-0.75", "-0.25", "0.25", "0.75"]


def _crlf(*rows):
    return "".join(row + "\r\n" for row in rows).encode()


def test_field_csv_golden_bytes_1d(tmp_path):
    grid = make_grid(1, [0.0], [0.4], [4])
    DensityField(grid, [0.1, -0.0, 5e-324, 1 / 3]).to_csv(tmp_path / "f.csv")
    assert (tmp_path / "f.csv").read_bytes() == _crlf(
        "x,value",
        "0.05,0.1",
        "0.15000000000000002,-0.0",
        "0.25,5e-324",
        "0.35000000000000003,0.3333333333333333",
    )


def test_field_csv_golden_bytes_2d(tmp_path):
    grid = make_grid(2, [0.0, -1.0], [0.4, 1.0], [4, 4])
    DensityField(grid, np.arange(16) * 0.1).to_csv(tmp_path / "f.csv")
    values = ["0.0", "0.1", "0.2", "0.30000000000000004", "0.4", "0.5",
              "0.6000000000000001", "0.7000000000000001", "0.8", "0.9", "1.0",
              "1.1", "1.2000000000000002", "1.3", "1.4000000000000001", "1.5"]
    rows = [f"{x},{y}" for x in X4 for y in Y4]
    assert (tmp_path / "f.csv").read_bytes() == _crlf(
        "x,y,value", *[f"{r},{v}" for r, v in zip(rows, values)]
    )


def test_mc_density_golden_bytes(tmp_path):
    grid = make_grid(1, [0.0], [0.4], [4])
    MCEstimate(
        histogram=DensityField(grid, [2.5, 0.0, 1 / 3, 7.5]),
        stderr=DensityField(grid, [0.1, 0.0, 0.2, 1e-17]),
        survival=0.75,
        n=8,
        seed=3,
        dt=0.001,
    ).save(tmp_path)
    assert (tmp_path / "density.csv").read_bytes() == _crlf(
        "x,density,stderr",
        "0.05,2.5,0.1",
        "0.15000000000000002,0.0,0.0",
        "0.25,0.3333333333333333,0.2",
        "0.35000000000000003,7.5,1e-17",
    )
    assert (tmp_path / "mc.json").read_bytes() == (
        b'{\n  "dt": 0.001,\n  "n": 8,\n  "seed": 3,\n  "survival": 0.75\n}\n'
    )


def test_coefficient_table_golden_bytes_2d(tmp_path):
    grid = make_grid(2, [0.0, -1.0], [0.4, 1.0], [4, 4])
    drift = np.tile([0.5, -0.25], (16, 1))
    beta = np.tile([[1.0, 0.0], [0.1, 0.7]], (16, 1, 1))
    write_coefficient_csv(grid, tmp_path / "c.csv", drift, beta)
    tail = "0.5,-0.25,1.0,0.0,0.1,0.7"
    assert (tmp_path / "c.csv").read_bytes() == _crlf(
        "x,y,f1,f2,b11,b12,b21,b22", *[f"{x},{y},{tail}" for x in X4 for y in Y4]
    )


def test_json_golden_bytes(tmp_path):
    payload = {"b": [1, 2.5, {"z": None, "a": True}], "a": {"y": "s", "x": 0.1}}
    _write_json(tmp_path / "p.json", payload)
    assert (tmp_path / "p.json").read_bytes() == (
        b'{\n  "a": {\n    "x": 0.1,\n    "y": "s"\n  },\n  "b": [\n    1,\n'
        b'    2.5,\n    {\n      "a": true,\n      "z": null\n    }\n  ]\n}\n'
    )


def _reference_table(grid, path, names, columns):
    """A node table as csv.writer writes it, every cell a repr float."""
    columns = [np.asarray(c, dtype=float).reshape(grid.n, -1) for c in columns]
    data = np.column_stack([grid.nodes()] + columns)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "y"][: grid.dim] + names)
        writer.writerows([repr(v) for v in row] for row in data.tolist())


@settings(max_examples=60, deadline=None)
@given(
    n_cells=st.sampled_from([(4,), (9,), (4, 5), (6, 4)]),
    lo=st.floats(-1e3, 1e3),
    width=st.floats(1e-3, 1e3),
    n_columns=st.integers(1, 3),
    data=st.data(),
)
def test_node_table_bytes_match_csv_writer(n_cells, lo, width, n_columns, data):
    dim = len(n_cells)
    grid = make_grid(dim, [lo] * dim, [lo + width] * dim, list(n_cells))
    doubles = st.one_of(st.floats(), st.sampled_from(EXTREMES))
    columns = [
        data.draw(arrays(np.float64, grid.n, elements=doubles)) for _ in range(n_columns)
    ]
    names = [f"c{k}" for k in range(n_columns)]
    with tempfile.TemporaryDirectory() as tmp:
        _write_table(grid, Path(tmp) / "t.csv", names, columns)
        _reference_table(grid, Path(tmp) / "r.csv", names, columns)
        assert (Path(tmp) / "t.csv").read_bytes() == (Path(tmp) / "r.csv").read_bytes()


SPECIALS = [float("nan"), float("inf"), -float("inf"), -0.0, 5e-324, -1e-310, 1e-300]


@pytest.mark.parametrize(
    "n_cells, n_columns",
    [((7,), 1), ((7,), 2), ((4, 5), 1), ((5, 4), 2)],
)
def test_node_table_bytes_with_special_values(tmp_path, n_cells, n_columns):
    # NaN, infinities, negative zero and subnormals in every column, cycled
    # so that each row mixes them
    dim = len(n_cells)
    grid = make_grid(dim, [-1.0] * dim, [0.3] * dim, list(n_cells))
    columns = [np.resize(np.roll(SPECIALS, k), grid.n) for k in range(n_columns)]
    names = [f"c{k}" for k in range(n_columns)]
    _write_table(grid, tmp_path / "t.csv", names, columns)
    _reference_table(grid, tmp_path / "r.csv", names, columns)
    assert (tmp_path / "t.csv").read_bytes() == (tmp_path / "r.csv").read_bytes()


@pytest.mark.parametrize("n_cells", [(6,), (4, 6)])
def test_mc_density_bytes_match_csv_writer(tmp_path, n_cells):
    # mc/density.csv: the density and stderr columns of a 1-D and a 2-D grid
    dim = len(n_cells)
    grid = make_grid(dim, [0.0] * dim, [1.0] * dim, list(n_cells))
    density = np.resize([0.0, 1 / 3, 2.5, -0.0, 5e-324, 1e17], grid.n)
    stderr = np.resize([0.1, 0.0, 1e-17, 0.2, 7.0], grid.n)
    MCEstimate(
        histogram=DensityField(grid, density),
        stderr=DensityField(grid, stderr),
        survival=0.5,
        n=10,
        seed=1,
        dt=0.01,
    ).save(tmp_path)
    _reference_table(grid, tmp_path / "r.csv", ["density", "stderr"], [density, stderr])
    assert (tmp_path / "density.csv").read_bytes() == (tmp_path / "r.csv").read_bytes()


def _json_values():
    floats = st.one_of(
        st.floats(), st.sampled_from([-0.0, 5e-324, float("nan"), float("inf"), -float("inf")])
    )
    scalars = st.one_of(
        st.none(), st.booleans(), st.integers(), floats, floats.map(np.float64), st.text()
    )
    pairs = st.lists(st.lists(floats, min_size=2, max_size=2) | st.tuples(floats, floats))
    return st.recursive(
        scalars | pairs,
        lambda inner: st.lists(inner) | st.tuples(inner) | st.dictionaries(st.text(), inner),
        max_leaves=40,
    )


@settings(max_examples=100, deadline=None)
@given(payload=st.dictionaries(st.text(), _json_values()))
@example(payload={"mass_curve": [[0.0, 1.0], [0.5, float("nan")]], "e": [], "d": {}})
@example(payload={"c": [[np.float64(0.1), 2.0], [-0.0, 5e-324]], "t": [(0.5, 1.0)]})
@example(payload={"\u00e9\u2603\U0001f600": ["\x00\"\\", True, False, None, 1, -float("inf")]})
@example(payload={})
def test_write_json_bytes_match_json_dumps(payload):
    with tempfile.TemporaryDirectory() as tmp:
        _write_json(Path(tmp) / "p.json", payload)
        got = (Path(tmp) / "p.json").read_bytes()
    assert got == (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()


def test_cell_index():
    grid = make_grid(2, [0.0, -1.0], [0.4, 1.0], [4, 4])
    # every node sits in its own cell
    assert np.array_equal(grid.cell_index(grid.nodes()), np.arange(grid.n))
    # faces and points outside the box read the nearest boundary cell
    pts = np.array([[0.0, -1.0], [0.4, 1.0], [-5.0, 0.1], [0.1, 7.0], [0.25, -0.5]])
    assert grid.cell_index(pts).tolist() == [0, 15, 2, 7, 9]
