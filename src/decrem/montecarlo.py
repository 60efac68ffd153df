"""Euler-Maruyama particle simulation of the absorbed diffusion.

Randomness comes from counter-based Philox streams keyed by the master
seed: step k draws its normal increments from the counter block k << 128,
inside which particle i reads the 64-bit words [i*dim, (i+1)*dim).  Every
variate is therefore a pure function of (seed, step, particle), so results
do not depend on execution order or thread count, and two runs to different
horizons agree on their common steps: the step count is fixed up front,
so extending a run past T continues exactly where a direct run would be,
for any dt.  A word w becomes the uniform (w >> 11) * 2**-53, the value
``Generator.random`` gives for it, and the normal is the inverse normal CDF
(scipy.special.ndtri) of that uniform; that choice is part of the
reproducibility contract of this release.

One Philox bit generator serves a whole ``simulate`` call.  At each step it
draws raw words only up to the last survivor's slot, and is then advanced to
the next step's block.  Absorbed particles keep their slots but turn no
words into normals, evaluate no coefficients and are not stepped.  Each step
works on the survivors only, in working rows of no fixed order (the last
rows fill those of the rows that exit); slots, and so streams, stay put.  A
coefficient the same at every particle and step is read once per call.

Absorption uses end-of-step exit detection: a particle found outside the
open box after a step is frozen there and never moves again.  Discrete exit
checks carry the usual O(sqrt(dt)) survival bias, which the package absorbs
into its statistical tolerances.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

from .errors import NotADensity
from .grid import DensityField, _write_json, _write_table, mass
from .model import eval_a

_STEP_STRIDE = 1 << 128  # counter block per time step
_INIT_BLOCK = 1 << 200  # far above any reachable step block
_KEY_MASK = (1 << 128) - 1


@dataclass
class ParticleEnsemble:
    """Particle positions with absorption flags and stream bookkeeping."""

    positions: np.ndarray  # (n, dim)
    alive: np.ndarray  # (n,) bool
    seed: int
    t: float
    step_offset: int = 0
    dt: float | None = None

    @property
    def n(self):
        return self.positions.shape[0]


def sample_initial(rho, n, seed):
    """Draw n particles from a density field: cell choice then uniform in cell.

    Raises NotADensity unless ``rho`` is finite and nonnegative with unit
    mass to 1e-9.
    """
    grid = rho.grid
    v = rho.values
    bad = np.flatnonzero(~np.isfinite(v))
    if bad.size:
        raise NotADensity(f"density is not finite at cell {bad[0]}")
    if np.any(v < 0.0):
        raise NotADensity(f"density has negative value {v.min():.6g}")
    total = mass(rho)
    if abs(total - 1.0) > 1e-9:
        raise NotADensity(f"density mass {total!r} differs from 1 by more than 1e-9")
    weights = v * grid.cell_volume
    weights = weights / weights.sum()
    rng = Generator(Philox(key=int(seed) & _KEY_MASK, counter=_INIT_BLOCK))
    cells = rng.choice(grid.n, size=n, p=weights)
    offsets = rng.random((n, grid.dim))
    h = np.asarray(grid.h)
    ijk = np.column_stack(np.unravel_index(cells, grid.shape))
    positions = (np.asarray(grid.lo) + h * ijk) + offsets * h
    return ParticleEnsemble(
        positions=positions,
        alive=np.ones(n, dtype=bool),
        seed=int(seed),
        t=0.0,
    )


def default_dt(model, grid, T):
    """dt = min(1e-3 * T, h^2 / (4 max a)), with a at the nodes at t = 0."""
    a = eval_a(model, grid.nodes(), 0.0)
    if grid.dim == 1:
        a_max = float(np.max(np.abs(a[:, 0, 0])))
    else:
        a_max = float(np.max(np.abs(np.linalg.eigvalsh(a))))
    return min(1e-3 * T, min(grid.h) ** 2 / (4.0 * a_max))


def _strictly_inside(positions, grid):
    ok = (positions[:, 0] > grid.lo[0]) & (positions[:, 0] < grid.hi[0])
    for k in range(1, grid.dim):
        ok &= (positions[:, k] > grid.lo[k]) & (positions[:, k] < grid.hi[k])
    return ok


class _Coefficient:
    """``at`` along the survivors of one ``simulate`` call, times a factor if
    given.  For a time-homogeneous model, a value with stride 0 along more
    than one point is one row, held for the call with its product per factor."""

    def __init__(self, model, at):
        self.at, self.homogeneous, self.held = at, not model.time_dependent, {}

    def __call__(self, x, t, factor=None):
        if None not in self.held:  # the row, under None, once read
            c = self.at(x, t)
            if not self.homogeneous or c.shape[0] == 1 or c.strides[0] != 0:
                return c if factor is None else c * factor
            self.held[None] = c[:1]
        if factor not in self.held:
            self.held[factor] = self.held[None] * factor
        return self.held[factor]


def simulate(model, grid, ensemble, T, dt=None):
    """Advance the ensemble to exactly time T (last step shortened), by
    steps of ``dt``, :func:`default_dt` when None.

    The step count is fixed up front as ceil((T - t) / dt), with a remainder
    below 1e-9 of the horizon T - t taken as round-off, not as one more step.
    """
    # imported here, so that only the commands that run particles load
    # scipy.special: about 60 ms and 3.7 MB of peak RSS per process,
    # measured on one core of a 2-vCPU x86-64 machine
    from scipy.special import ndtri

    if dt is None:
        dt = default_dt(model, grid, T)
    if not dt > 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    if not T > ensemble.t:
        raise ValueError(f"T={T} is not ahead of ensemble time {ensemble.t}")
    if dt > T - ensemble.t:
        raise ValueError(f"dt={dt} exceeds the remaining horizon {T - ensemble.t}")
    n_steps = math.ceil((T - ensemble.t) / dt * (1.0 - 1e-9))
    pos = ensemble.positions.copy()
    n, dim = pos.shape
    live = np.flatnonzero(ensemble.alive)  # rows still inside the box
    x = pos.take(live, axis=0)
    t = ensemble.t
    k0 = ensemble.step_offset
    bg = Philox(key=int(ensemble.seed) & _KEY_MASK, counter=k0 * _STEP_STRIDE)
    normals = np.empty((n, dim))  # the survivors' normals of one step
    drift, beta = _Coefficient(model, model.drift_at), _Coefficient(model, model.beta_at)
    for k in range(k0, k0 + n_steps):
        if live.size == 0:
            break
        step = min(dt, T - t)
        words = (int(live.max()) + 1) * dim  # up to the last survivor's slot
        u = bg.random_raw(words).reshape(-1, dim).take(live, axis=0)
        bg.advance(_STEP_STRIDE - (words + 3) // 4)  # the counter moved 1 per 4 words
        u >>= np.uint64(11)
        # Generator.random's double; it can be exactly 0, which ndtri maps to -inf
        z = np.multiply(u, 2.0**-53, out=normals[: live.size])
        ndtri(np.maximum(z, 5e-324, out=z), out=z)
        if dim == 1:  # (b * sqrt(step)) * z rounds unlike einsum's sqrt(step) * (b z)
            z *= beta(x, t, np.sqrt(step))[:, :, 0]
            z += drift(x, t, step)
            x += z
        else:
            x += drift(x, t, step) + np.sqrt(step) * np.einsum("nij,nj->ni", beta(x, t), z)
        inside = _strictly_inside(x, grid)
        gone = np.flatnonzero(~inside)
        if gone.size:
            pos[live.take(gone)] = x.take(gone, axis=0)  # frozen where they exited
            keep = live.size - gone.size  # survivors past keep move into the holes
            tail, holes = keep + np.flatnonzero(inside[keep:]), gone[gone < keep]
            x[holes], live[holes] = x[tail], live[tail]
            x, live = x[:keep], live[:keep]
        t += step
    pos[live] = x
    alive = np.zeros(n, dtype=bool)
    alive[live] = True
    return ParticleEnsemble(
        positions=pos,
        alive=alive,
        seed=ensemble.seed,
        t=float(T),
        step_offset=k0 + n_steps,
        dt=float(dt),
    )


@dataclass
class MCEstimate:
    """Histogram density of survivors with per-cell binomial error bars."""

    histogram: DensityField
    stderr: DensityField
    survival: float
    n: int
    seed: int
    dt: float | None

    def save(self, directory):
        """Write density.csv (coords, density, stderr) and mc.json."""
        os.makedirs(directory, exist_ok=True)
        _write_table(
            self.histogram.grid,
            os.path.join(directory, "density.csv"),
            ["density", "stderr"],
            [self.histogram.values, self.stderr.values],
        )
        report = {
            "n": self.n,
            "survival": self.survival,
            "dt": self.dt,
            "seed": self.seed,
        }
        _write_json(os.path.join(directory, "mc.json"), report)
        return ["density.csv", "mc.json"]


def estimate_density(ensemble, grid):
    """Bin survivors into grid cells: density = counts / (n * cell volume).

    The histogram mass equals the survival fraction exactly.
    """
    alive_pos = ensemble.positions[ensemble.alive]
    counts = np.bincount(grid.cell_index(alive_pos), minlength=grid.n).astype(float)
    n = ensemble.n
    vol = grid.cell_volume
    density = counts / (n * vol)
    phat = counts / n
    stderr = np.sqrt(phat * (1.0 - phat) / n) / vol
    return MCEstimate(
        histogram=DensityField(grid, density),
        stderr=DensityField(grid, stderr),
        survival=float(ensemble.alive.sum() / n),
        n=n,
        seed=ensemble.seed,
        dt=ensemble.dt,
    )
