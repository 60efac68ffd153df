"""The four benchmark workloads: seeded inputs, the CLI op, output checks.

Every workload draws inputs from the workload seed, writes each as a config
file (and, for ``mc``, a density CSV) and runs one ``decrem`` subcommand on
those files.  The program sees only the generated files.  Each op writes
into the same output directory, emptied between ops, so that a correct op
reproduces the ``manifest.json`` of the first op on its input byte for byte.

``check`` returns an error message for a failed op (or ``None``) and the
op's accuracy ``err`` where the workload defines one.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

# 2-D model shared by seed-2d and spectrum-2d
DRIFT_2D = [0.2, -0.1]
BETA_2D = [[1.0, 0.0], [0.0, 0.7]]
HEAT_1D = {"family": "constant", "drift": [0.0], "beta": [[1.0]]}

# |alpha - alpha_dense| / alpha_dense allowed on seed-1d-short; the matrix-free
# and dense-LU routes agree to about 1e-9 at this commit
ALPHA_RTOL = 1e-6


def _domain(n_cells):
    dim = len(n_cells)
    return {"dim": dim, "lo": [0.0] * dim, "hi": [1.0] * dim, "n_cells": list(n_cells)}


def _read_json(out_dir, name):
    with open(os.path.join(out_dir, name)) as fh:
        return json.load(fh)


class Workload:
    name = ""
    command = ""
    #: size name -> parameters; "full" is what the benchmark measures,
    #: "tiny" keeps the self-tests fast
    sizes = {}

    def __init__(self, size="full"):
        self.p = self.sizes[size]

    def config(self, rng, out_dir, work_dir):
        """Config dict of one input drawn from ``rng``; extra input files go
        to ``work_dir``."""
        raise NotImplementedError

    def extra_args(self, work_dir):
        return []

    def reference(self, cfg):
        """Oracle data for one input, computed once per run outside the
        timed ops and outside set-up."""
        return None

    def check(self, out_dir, ref):
        raise NotImplementedError

    def deep_check(self, out_dir):
        """Costlier check of one op's outputs, made once per run."""
        return None

    def zero_gamma(self, cfg):
        """The same config with gamma identically zero (exit code 4)."""
        bad = json.loads(json.dumps(cfg))
        bad["gamma"] = {"kind": "tiles", "shape": [1] * cfg["domain"]["dim"], "values": [0.0]}
        return bad


def _seed_check(out_dir):
    ver = _read_json(out_dir, "verification.json")
    if not ver.get("passed"):
        return "verification.json reports passed=false", None
    return None, float(ver["residual_refined"])


class Seed1DShort(Workload):
    name = "seed-1d-short"
    command = "seed"
    sizes = {
        "full": {"n": 16, "K": 16, "T": 0.05, "tiles": 8},
        "tiny": {"n": 8, "K": 16, "T": 0.05, "tiles": 4},
    }

    def config(self, rng, out_dir, work_dir):
        p = self.p
        values = rng.uniform(0.4, 1.0, p["tiles"]).tolist()
        return {
            "domain": _domain([p["n"]]),
            "model": HEAT_1D,
            "time": {"T": p["T"], "n_steps": p["K"]},
            "gamma": {"kind": "tiles", "shape": [p["tiles"]], "values": values},
            "output_dir": out_dir,
        }

    def reference(self, cfg):
        """alpha from a dense LU solve of (I - Q) zeta = gamma."""
        from decrem import (SolverConfig, assemble_Q, constant_model, make_grid,
                            mass, realize_gamma, resolvent_dense)

        d = cfg["domain"]
        grid = make_grid(d["dim"], d["lo"], d["hi"], d["n_cells"])
        model = constant_model(cfg["model"]["drift"], cfg["model"]["beta"])
        gamma = realize_gamma(grid, cfg["gamma"]).field
        gamma = gamma.with_values(gamma.values / gamma.values.max())
        T = cfg["time"]["T"]
        opmat = assemble_Q(model, grid, SolverConfig(n_steps=cfg["time"]["n_steps"]), T)
        zeta = resolvent_dense(opmat, gamma)
        return {"alpha": 1.0 / mass(zeta.with_values(np.maximum(zeta.values, 0.0)))}

    def check(self, out_dir, ref):
        msg, err = _seed_check(out_dir)
        if msg:
            return msg, err
        alpha = float(_read_json(os.path.join(out_dir, "solution"), "report.json")["alpha"])
        gap = abs(alpha - ref["alpha"]) / ref["alpha"]
        if not gap <= ALPHA_RTOL:
            return f"alpha {alpha!r} misses the dense-LU oracle by {gap:.2e}", err
        return None, err


class Seed2D(Workload):
    name = "seed-2d"
    command = "seed"
    sizes = {
        "full": {"n": 10, "K": 128, "T": 0.3},
        "tiny": {"n": 6, "K": 96, "T": 0.3},
    }

    def config(self, rng, out_dir, work_dir):
        p = self.p
        lo = rng.uniform(0.15, 0.35, 2)
        hi = lo + rng.uniform(0.4, 0.5, 2)
        return {
            "domain": _domain([p["n"], p["n"]]),
            "model": {"family": "constant", "drift": DRIFT_2D, "beta": BETA_2D},
            "time": {"T": p["T"], "n_steps": p["K"]},
            "gamma": {"kind": "bump", "lo": lo.tolist(), "hi": hi.tolist()},
            "output_dir": out_dir,
        }

    def check(self, out_dir, ref):
        return _seed_check(out_dir)


class MC1D(Workload):
    name = "mc-1d"
    command = "mc"
    sizes = {
        "full": {"n": 64, "K": 64, "T": 0.5, "particles": 20000, "dt": 1e-3},
        "tiny": {"n": 16, "K": 16, "T": 0.5, "particles": 2000, "dt": 1e-2},
    }

    def config(self, rng, out_dir, work_dir):
        """A Gaussian-times-sine density at a seeded centre and width."""
        from decrem import DensityField, make_grid

        p = self.p
        grid = make_grid(1, [0.0], [1.0], [p["n"]])
        x = grid.nodes()[:, 0]
        centre = rng.uniform(0.35, 0.65)
        width = rng.uniform(0.1, 0.2)
        v = np.sin(np.pi * x) * np.exp(-0.5 * ((x - centre) / width) ** 2)
        DensityField(grid, v / (v.sum() * grid.cell_volume)).to_csv(
            os.path.join(work_dir, "rho.csv")
        )
        return {
            "domain": _domain([p["n"]]),
            "model": HEAT_1D,
            "time": {"T": p["T"], "n_steps": p["K"]},
            "mc": {
                "n_particles": p["particles"],
                "dt": p["dt"],
                "seed": int(rng.integers(1, 2**62)),
            },
            "output_dir": out_dir,
        }

    def extra_args(self, work_dir):
        return ["--rho", os.path.join(work_dir, "rho.csv")]

    def check(self, out_dir, ref):
        """Survival gap within the stated bound ``sigma sqrt(dt)`` plus four
        binomial standard errors.  End-of-step exit checks bias survival up,
        as if each face sat 0.5826 sigma sqrt(dt) further out (Gobet 2000);
        the bias measured on this workload is 0.3-0.6 sigma sqrt(dt)."""
        cmp_ = _read_json(out_dir, "comparison.json")
        n = int(_read_json(os.path.join(out_dir, "mc"), "mc.json")["n"])
        s_pde = float(cmp_["survival_pde"])
        gap = abs(float(cmp_["survival_mc"]) - s_pde)
        sigma = 1.0  # beta of HEAT_1D
        bound = sigma * math.sqrt(float(cmp_["dt"])) + 4.0 * math.sqrt(
            s_pde * (1.0 - s_pde) / n
        )
        if not gap <= bound:
            return f"survival gap {gap:.4f} exceeds bound {bound:.4f}", gap
        return None, gap


class Spectrum2D(Workload):
    name = "spectrum-2d"
    command = "spectrum"
    sizes = {
        "full": {"n": 28, "K": 4, "T": 0.5},
        "tiny": {"n": 6, "K": 8, "T": 0.5},
    }

    def config(self, rng, out_dir, work_dir):
        """The seed-2d model with a seeded drift jitter of at most 0.05."""
        p = self.p
        drift = (np.asarray(DRIFT_2D) + rng.uniform(-0.05, 0.05, 2)).tolist()
        return {
            "domain": _domain([p["n"], p["n"]]),
            "model": {"family": "constant", "drift": drift, "beta": BETA_2D},
            "time": {"T": p["T"], "n_steps": p["K"]},
            "spectrum": {"assemble": True},
            "output_dir": out_dir,
        }

    def zero_gamma(self, cfg):
        raise ValueError("spectrum takes no gamma")

    def check(self, out_dir, ref):
        spec = _read_json(out_dir, "spectrum.json")
        if not spec.get("converged"):
            return "power iteration did not converge", None
        lo, hi = spec["column_mass_range"]
        if not 0.0 < lo <= hi < 1.0:
            return f"column masses {lo}, {hi} are not survival probabilities", None
        n = int(_read_json(out_dir, "operator.json")["n"])
        with open(os.path.join(out_dir, "singular_values.csv")) as fh:
            rows = sum(1 for _ in fh) - 1
        if rows != n:
            return f"{rows} singular values for an operator of size {n}", None
        return None, None

    def deep_check(self, out_dir):
        """Power-iteration radius against the dense eigenvalues."""
        n = int(_read_json(out_dir, "operator.json")["n"])
        raw = np.fromfile(os.path.join(out_dir, "operator.bin"), dtype="<f8")
        cfg = _read_json(out_dir, "config.echo.json")
        h = np.prod([1.0 / c for c in cfg["domain"]["n_cells"]])
        dense = float(np.abs(np.linalg.eigvals(h * raw.reshape((n, n), order="F"))).max())
        radius = float(_read_json(out_dir, "spectrum.json")["radius"])
        if not abs(radius - dense) <= 1e-3 * dense:
            return f"power-iteration radius {radius!r} misses dense {dense!r}"
        return None


WORKLOADS = {w.name: w for w in (Seed1DShort, Seed2D, MC1D, Spectrum2D)}
