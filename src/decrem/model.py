"""Drift/diffusion coefficient models.

A model pairs a drift field f(x, t) with a diffusion factor beta(x, t).
The generator uses a = (1/2) beta beta^T, which must be uniformly
elliptic; :mod:`decrem.kolmogorov` certifies that on the coefficients it
evaluates.  Three families cover the supported inputs: constant
coefficients, linear drift toward a center (Ornstein-Uhlenbeck type), and
coefficients tabulated on the cells of a grid at one or more sample times,
a steady table being one sample.
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


def tabulated_model(grid, times, samples):
    """Coefficients tabulated on the cells of ``grid``: one ``(drift_values,
    beta_values)`` pair of ``samples`` per time of ``times``, which must
    increase strictly.  A steady table is one sample, at any time.

    Evaluation is piecewise constant on cells: a query point reads the
    coefficients of the cell it falls in (clipped to the box), so the table
    grid must be at least as fine as any solver grid used with it.  Between
    two sample times it interpolates linearly; beyond the sampled range it
    holds the end sample.  Unequal lengths, times that do not increase
    strictly and a non-finite coefficient raise ValueError.
    """
    if len(times) != len(samples):
        raise ValueError("times and samples must have equal length")
    times = np.asarray(times, dtype=float)
    if len(times) == 0 or np.any(np.diff(times) <= 0):
        raise ValueError("times must be non-empty and strictly increasing")
    n, dim = grid.n, grid.dim
    tables = []  # [drift (n, dim), beta (n, dim, dim)] per sample
    for drift_values, beta_values in samples:
        pair = [
            np.asarray(drift_values, dtype=float).reshape(n, dim),
            np.asarray(beta_values, dtype=float).reshape(n, dim, dim),
        ]
        for name, values in zip(("drift", "beta"), pair):
            bad = np.flatnonzero(~np.isfinite(values.reshape(n, -1)).all(axis=1))
            if bad.size:
                raise ValueError(f"tabulated {name} is not finite at node {bad[0]}")
        tables.append(pair)

    def interpolated(k):
        """Coefficient k of each pair at (points, t), from the cells found
        once: the sample at or before t, blended with the next one while t
        lies strictly inside the sampled range."""

        def at(points, t):
            cells = grid.cell_index(points)
            j = max(int(np.searchsorted(times, t, side="right")) - 1, 0)
            out = tables[j][k][cells]
            if times[0] < t < times[-1]:
                w = (t - times[j]) / (times[j + 1] - times[j])
                if w > 0.0:
                    out = (1.0 - w) * out + w * tables[j + 1][k][cells]
            return out

        return at

    return DiffusionModel(dim, interpolated(0), interpolated(1), time_dependent=len(tables) > 1)


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
    return tabulated_model(grid, [0.0], [_read_coefficients(grid, path)])


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
    return tabulated_model(grid, times, series)


def eval_a(model, points, t):
    """Diffusion matrix a = (1/2) beta beta^T, exactly symmetrized."""
    b = model.beta_at(points, t)
    m = 0.5 * np.einsum("nij,nkj->nik", b, b)
    return 0.5 * (m + np.swapaxes(m, 1, 2))

