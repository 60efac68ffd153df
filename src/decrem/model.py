"""Drift/diffusion coefficient models.

A model pairs a drift field f(x, t) with a diffusion factor beta(x, t).
The generator uses a = (1/2) beta beta^T, which must be uniformly
elliptic; :mod:`decrem.kolmogorov` certifies that on the coefficients it
evaluates.  Three families cover the supported inputs: constant
coefficients, linear drift toward a center (Ornstein-Uhlenbeck type), and
coefficients tabulated on a grid.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .errors import ShapeMismatch
from .grid import _read_table


class DiffusionModel:
    """Vectorized coefficient evaluation.

    ``drift_fn(points, t)`` maps (N, dim) points to (N, dim), ``beta_fn``
    to (N, dim, dim); other points raise ShapeMismatch.  What ``drift_at``
    and ``beta_at`` return may be a read-only view (a constant coefficient
    is broadcast), so callers must not write into it.  One with stride 0
    along the points is the same at every point, and at every time unless
    the model is ``time_dependent``; :func:`decrem.simulate` then reads it
    once per call.  ``propagator`` holds the model's latest
    :class:`decrem.kolmogorov.Propagator`, the certified steps of its latest
    march, so that the marches of one command over [0, T] share them.
    """

    def __init__(self, dim, drift_fn, beta_fn, time_dependent=False):
        self.dim = int(dim)
        self._drift_fn = drift_fn
        self._beta_fn = beta_fn
        self.time_dependent = bool(time_dependent)
        self.propagator = None

    def drift_at(self, points, t):
        return self._at(self._drift_fn, "drift", points, t, ())

    def beta_at(self, points, t):
        return self._at(self._beta_fn, "beta", points, t, (self.dim,))

    def _at(self, fn, name, points, t, tail):
        points = np.asarray(points, dtype=float)
        if points.shape[1:] != (self.dim,):
            raise ShapeMismatch(f"points of shape {points.shape} are not (N, {self.dim})")
        out = np.asarray(fn(points, float(t)), dtype=float)
        if out.shape != points.shape + tail:
            raise ShapeMismatch(f"{name} returned shape {out.shape}")
        return out


def _as_beta_matrix(beta, dim):
    beta = np.asarray(beta, dtype=float)
    if beta.ndim == 0:
        beta = beta * np.eye(dim)
    if beta.shape != (dim, dim):
        raise ValueError(f"beta must be scalar or {dim}x{dim}, got {beta.shape}")
    return beta


def constant_model(drift, beta):
    """Constant drift vector and constant diffusion factor matrix."""
    drift = np.atleast_1d(np.asarray(drift, dtype=float))
    if not np.all(np.isfinite(drift)):
        raise ValueError(f"drift must be finite, got {drift.tolist()}")
    dim = drift.shape[0]
    beta = _as_beta_matrix(beta, dim)
    return DiffusionModel(
        dim,
        lambda pts, t: np.broadcast_to(drift, (pts.shape[0], dim)),
        lambda pts, t: np.broadcast_to(beta, (pts.shape[0], dim, dim)),
    )


def ou_model(rate, center, beta):
    """Linear drift f(x) = -rate * (x - center) with constant beta."""
    center = np.atleast_1d(np.asarray(center, dtype=float))
    dim = center.shape[0]
    rate = np.broadcast_to(np.asarray(rate, dtype=float), (dim,)).copy()
    if not np.all(np.isfinite(np.concatenate([rate, center]))):
        raise ValueError(f"rate {rate.tolist()}, center {center.tolist()} not finite")
    beta = _as_beta_matrix(beta, dim)
    return DiffusionModel(
        dim,
        lambda pts, t: -rate * (pts - center),
        lambda pts, t: np.broadcast_to(beta, (pts.shape[0], dim, dim)),
    )


class _Table:
    """One time sample of tabulated coefficients on its own grid.

    Evaluation is piecewise constant on cells: a query point reads the
    coefficients of the cell it falls in (clipped to the box).  The table
    grid must therefore be at least as fine as any solver grid used with it.
    """

    def __init__(self, grid, drift_values, beta_values):
        dim = grid.dim
        drift_values = np.asarray(drift_values, dtype=float).reshape(grid.n, dim)
        beta_values = np.asarray(beta_values, dtype=float).reshape(grid.n, dim, dim)
        for name, values in (("drift", drift_values), ("beta", beta_values)):
            bad = np.flatnonzero(~np.isfinite(values.reshape(grid.n, -1)).all(axis=1))
            if bad.size:
                raise ValueError(f"tabulated {name} is not finite at node {bad[0]}")
        self.grid = grid
        self.drift_values = drift_values
        self.beta_values = beta_values

    def drift(self, points):
        return self.drift_values[self.grid.cell_index(points)]

    def beta(self, points):
        return self.beta_values[self.grid.cell_index(points)]


def tabulated_model(grid, drift_values, beta_values, times=None, series=None):
    """Coefficients tabulated on ``grid``.

    Either pass one (drift_values, beta_values) sample for a steady model,
    or ``times`` together with ``series`` = list of such pairs, in which
    case evaluation interpolates linearly in time and holds the end samples
    constant beyond the sampled range.  A non-finite coefficient raises
    ValueError.
    """
    if series is None:
        tables = [_Table(grid, drift_values, beta_values)]
        times = np.array([0.0])
    else:
        if times is None or len(times) != len(series):
            raise ValueError("times and series must have equal length")
        times = np.asarray(times, dtype=float)
        if len(times) == 0 or np.any(np.diff(times) <= 0):
            raise ValueError("times must be non-empty and strictly increasing")
        tables = [_Table(grid, fv, bv) for fv, bv in series]

    def _weights(t):
        if len(tables) == 1 or t <= times[0]:
            return 0, 0, 0.0
        if t >= times[-1]:
            return len(tables) - 1, len(tables) - 1, 0.0
        j = int(np.searchsorted(times, t, side="right") - 1)
        w = (t - times[j]) / (times[j + 1] - times[j])
        return j, j + 1, w

    def drift_fn(points, t):
        j0, j1, w = _weights(t)
        out = tables[j0].drift(points)
        if w > 0.0:
            out = (1.0 - w) * out + w * tables[j1].drift(points)
        return out

    def beta_fn(points, t):
        j0, j1, w = _weights(t)
        out = tables[j0].beta(points)
        if w > 0.0:
            out = (1.0 - w) * out + w * tables[j1].beta(points)
        return out

    return DiffusionModel(grid.dim, drift_fn, beta_fn, time_dependent=len(tables) > 1)


def _read_coefficients(grid, path):
    """Read one tabulated sample, a node table with the value columns
    f1[,f2], b11[,b12,b21,b22]; returns (drift (N, dim), beta (N, dim, dim))."""
    dim = grid.dim
    names = [f"f{k + 1}" for k in range(dim)]
    names += [f"b{i + 1}{j + 1}" for i in range(dim) for j in range(dim)]
    data = _read_table(grid, path, names)
    return data[:, :dim], data[:, dim:].reshape(grid.n, dim, dim)


def load_tabulated(grid, path):
    """Steady tabulated model from a single coefficient CSV."""
    drift_values, beta_values = _read_coefficients(grid, path)
    return tabulated_model(grid, drift_values, beta_values)


def load_tabulated_series(grid, manifest_path):
    """Time-dependent tabulated model from a JSON manifest.

    The manifest holds ``{"times": [...], "files": [...]}`` with file paths
    relative to the manifest location.
    """
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    times = manifest["times"]
    files = manifest["files"]
    if len(times) != len(files):
        raise ShapeMismatch(f"{manifest_path}: times and files differ in length")
    base = os.path.dirname(os.path.abspath(manifest_path))
    series = [_read_coefficients(grid, os.path.join(base, f)) for f in files]
    return tabulated_model(grid, None, None, times=times, series=series)


def eval_a(model, points, t):
    """Diffusion matrix a = (1/2) beta beta^T, exactly symmetrized."""
    b = model.beta_at(points, t)
    m = 0.5 * np.einsum("nij,nkj->nik", b, b)
    return 0.5 * (m + np.swapaxes(m, 1, 2))

