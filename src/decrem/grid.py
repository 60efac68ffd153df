"""Tensor-product grids on box domains, scalar fields living on them, and
the package's file formats: node tables (one CSV row per node) and JSON.

Interior nodes sit at cell centers, so the first node is half a cell away
from the boundary and the zero Dirichlet data of the absorbed process is
pinned on the faces themselves, not at a node.  All fields are stored in
flat C order (last axis fastest): node (i, j) of a 2-d grid is flat index
``np.ravel_multi_index((i, j), grid.shape)``.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ShapeMismatch

_COORD_NAMES = ("x", "y")


@dataclass(frozen=True)
class DomainGrid:
    """Uniform cell-centered grid on an axis-aligned box in dimension 1 or 2.

    Parameters
    ----------
    dim : int
        Spatial dimension, 1 or 2.
    lo, hi : tuple of float
        Box corners, ``lo[k] < hi[k]`` per axis.
    n_cells : tuple of int
        Cells per axis, at least 4 each.  The node count is
        ``N = prod(n_cells)``.
    """

    dim: int
    lo: tuple
    hi: tuple
    n_cells: tuple

    @property
    def h(self):
        """Cell widths per axis."""
        return tuple(
            (self.hi[k] - self.lo[k]) / self.n_cells[k] for k in range(self.dim)
        )

    @property
    def shape(self):
        return tuple(self.n_cells)

    @property
    def n(self):
        """Total number of interior nodes."""
        return math.prod(self.n_cells)

    @property
    def cell_volume(self):
        return math.prod(self.h)

    def axis_centers(self, axis):
        """Cell-center coordinates along one axis."""
        h = self.h[axis]
        return self.lo[axis] + h * (np.arange(self.n_cells[axis]) + 0.5)

    def nodes(self):
        """All node coordinates as an (N, dim) array in flat order."""
        axes = np.meshgrid(*(self.axis_centers(k) for k in range(self.dim)), indexing="ij")
        return np.column_stack([a.ravel() for a in axes])

    @cached_property
    def _node_cells(self):
        """Per node, the coordinate cells of its node-table row: each
        coordinate as ``repr`` gives it, joined by commas."""
        return _repr_rows(self.nodes())

    def cell_index(self, points):
        """Flat index of the cell holding each row of the (M, dim) array
        ``points``; a point outside the box reads the nearest boundary cell."""
        h = self.h
        idx = np.zeros(points.shape[0], dtype=int)
        for k in range(self.dim):
            ik = np.floor((points[:, k] - self.lo[k]) / h[k]).astype(int)
            idx = idx * self.n_cells[k] + np.clip(ik, 0, self.n_cells[k] - 1)
        return idx


def make_grid(dim, lo, hi, n_cells):
    """Validate parameters and build a :class:`DomainGrid`."""
    if dim not in (1, 2):
        raise ValueError(f"dim must be 1 or 2, got {dim}")
    lo = tuple(float(v) for v in np.atleast_1d(lo))
    hi = tuple(float(v) for v in np.atleast_1d(hi))
    n_cells = tuple(int(v) for v in np.atleast_1d(n_cells))
    if not (len(lo) == len(hi) == len(n_cells) == dim):
        raise ValueError("lo, hi and n_cells must all have length dim")
    for k in range(dim):
        if not hi[k] > lo[k]:
            raise ValueError(f"axis {k}: need lo < hi, got [{lo[k]}, {hi[k]}]")
        if n_cells[k] < 4:
            raise ValueError(f"axis {k}: need at least 4 cells, got {n_cells[k]}")
    grid = DomainGrid(dim=dim, lo=lo, hi=hi, n_cells=n_cells)
    # the stencil divides by h * h: a normal float, whose reciprocal is finite
    # (a box too wide squares to inf, one too narrow to a subnormal or 0)
    if not all(np.finfo(float).tiny <= h * h < math.inf for h in grid.h):
        raise ValueError(f"cell widths {grid.h} do not square to normal floats")
    return grid


class DensityField:
    """Scalar values on the interior nodes of a :class:`DomainGrid`.

    Values are stored as a read-only float64 vector of length ``grid.n`` in
    flat order.  Operations in this package never mutate a field in place;
    they build new ones.
    """

    def __init__(self, grid, values):
        values = np.asarray(values, dtype=float)
        if values.shape == grid.shape and grid.dim == 2:
            values = values.ravel()
        if values.shape != (grid.n,):
            raise ShapeMismatch(
                f"expected {grid.n} values for grid {grid.shape}, got {values.shape}"
            )
        values = values.copy()
        values.setflags(write=False)
        self.grid = grid
        self.values = values

    @classmethod
    def from_function(cls, grid, fn):
        """Sample ``fn`` at the cell centers.

        ``fn`` receives coordinate arrays, one per axis, and must broadcast.
        """
        pts = grid.nodes()
        return cls(grid, fn(*[pts[:, k] for k in range(grid.dim)]))

    def with_values(self, values):
        return DensityField(self.grid, values)

    def to_csv(self, path):
        """Write ``x[,y],value`` rows in flat-index order."""
        _write_table(self.grid, path, ["value"], [self.values])

    @classmethod
    def from_csv(cls, grid, path):
        """Read a field written by :meth:`to_csv`, checking the coordinates.

        Raises ShapeMismatch when the row count, column count or node
        coordinates do not match ``grid``.
        """
        return cls(grid, _read_table(grid, path, ["value"])[:, 0])


def _pair_list(value):
    """``value`` as ``json.dumps(payload, indent=2)`` writes it under a key of
    the top-level dict ``payload``, when it is a list of float pairs such as
    a mass curve; else None."""
    if not (value and type(value) is list and all(
        type(p) is list and len(p) == 2 and type(p[0]) is type(p[1]) is float
        for p in value
    )):
        return None
    text = ",\n    ".join(["[\n      %r,\n      %r\n    ]" % (a, b) for a, b in value])
    # JSON spells nan and inf NaN and Infinity, not as repr does
    return None if "n" in text else "[\n    " + text + "\n  ]"


def _write_json(path, payload):
    """Write the dict ``payload`` as every JSON file of the package is
    written: two-space indent, sorted keys and a final newline, in the bytes
    of ``json.dumps(payload, indent=2, sort_keys=True)``, so reruns are
    byte-identical.

    Under ``indent`` the json module encodes in pure Python, a call per
    value, so a top-level list of float pairs (a mass curve) is formatted
    here, one pair per ``%`` format; every other value goes through
    ``json.dumps``."""
    items = [
        json.dumps(key) + ": " + (
            _pair_list(value)
            or json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n  ")
        )
        for key, value in sorted(payload.items())
    ]
    with open(path, "w") as fh:
        fh.write("{\n  " + ",\n  ".join(items) + "\n}\n" if items else "{}\n")


def _write_rows(path, header, rows):
    """Write a CSV file: ``header``, then ``rows``, each cell as ``str`` gives
    it, joined by commas with CRLF row ends.  No cell the package writes
    needs quoting, so these are the bytes ``csv.writer`` would write."""
    text = "".join(",".join(map(str, row)) + "\r\n" for row in [header, *rows])
    with open(path, "w", newline="") as fh:
        fh.write(text)


def _repr_rows(matrix):
    """Per row of the 2-D float array ``matrix``, its entries as ``repr``
    gives them, joined by commas.  A list's ``repr`` joins its items'
    ``repr`` by ", ", which no float ``repr`` holds, so one ``repr`` per
    column yields them all at C speed."""
    columns = []
    for column in matrix.T:
        text = repr(column.tolist())[1:-1]
        columns.append(text.split(", ") if text else [])
    return list(map(",".join, zip(*columns)))


def _write_table(grid, path, names, columns):
    """Write a node table: the header ``x[,y]`` followed by ``names``, then one
    row per node in flat order holding its coordinates and the values of
    ``columns`` (each with ``grid.n`` rows, flattened per node), all as
    ``repr`` floats."""
    values = np.column_stack(
        [np.asarray(c, dtype=float).reshape(grid.n, -1) for c in columns]
    )
    _write_rows(
        path,
        list(_COORD_NAMES[: grid.dim]) + list(names),
        zip(grid._node_cells, _repr_rows(values)),
    )


def _read_table(grid, path, names):
    """Read a node table written by :func:`_write_table` and return its value
    columns as an (N, len(names)) array.

    Raises ShapeMismatch when the header, row count, column count or node
    coordinates do not match ``grid``.
    """
    header = list(_COORD_NAMES[: grid.dim]) + list(names)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        got = next(reader, None)
        if got != header:
            raise ShapeMismatch(f"{path}: expected header {header}, got {got}")
        rows = [row for row in reader if row]
    if len(rows) != grid.n:
        raise ShapeMismatch(f"{path}: expected {grid.n} rows, got {len(rows)}")
    if any(len(row) != len(header) for row in rows):
        raise ShapeMismatch(f"{path}: expected {len(header)} columns")
    data = np.array([[float(v) for v in row] for row in rows])
    tol = 1e-9 * max(grid.h)
    if not np.allclose(data[:, : grid.dim], grid.nodes(), atol=tol, rtol=0.0):
        raise ShapeMismatch(f"{path}: node coordinates do not match the grid")
    return data[:, grid.dim :]


def mass(field):
    """Midpoint-rule integral of the field over the box."""
    return float(field.values.sum() * field.grid.cell_volume)


def norm_sup(field):
    return float(np.abs(field.values).max())
