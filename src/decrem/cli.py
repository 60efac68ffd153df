"""Command line driver: seed | evolve | spectrum | mc | verify.

One parser reads the command, its JSON config, repeated ``--set
dotted.path=value`` overrides and ``--rho`` (evolve, mc) or ``--solution``
(verify); a missing or unwanted one exits 2.  The command resolves defaults,
echoes the effective config and writes a SHA-256 manifest; with no timestamps
or absolute paths in reports, a rerun of one config and seed is identical.

Every failure mode maps to a stable exit code:

====  =====================================
   0  success
   1  unexpected internal error
   2  config error (parse, unknown key, bad value)
   3  ellipticity violation
   4  gamma identically zero
   5  gamma negative
   6  inner linear solve failure
   7  outer iteration did not converge
   8  seed density negativity beyond tolerance
   9  decrement residual too large
  10  dense assembly cap exceeded
  11  field/grid shape mismatch
  12  sampling input not a density
  13  stored solution failed verification
====  =====================================
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import math
import os
import secrets
import sys

import numpy as np

from .errors import (
    CapExceeded,
    ConfigError,
    EllipticityViolation,
    GammaNegative,
    GammaZero,
    LinearSolveFailure,
    NegativityViolation,
    NoConvergence,
    NotADensity,
    ResidualTooLarge,
    ShapeMismatch,
    ToolkitError,
    VerificationFailed,
)
from .fredholm import _check_cap, assemble_Q, propagator_action, singular_values, spectral_radius
from .grid import DensityField, _write_json, _write_rows, make_grid, mass
from .kolmogorov import SCHEME, SolverConfig, evolve, save_trajectory
from .model import constant_model, load_tabulated, load_tabulated_series, ou_model
from .montecarlo import default_dt, estimate_density, sample_initial, simulate
from .seedpipe import (
    check_contract,
    load_solution,
    realize_gamma,
    run_seed,
    verify_seed,
)

EXIT_CODES = (
    (ConfigError, 2),
    (EllipticityViolation, 3),
    (GammaZero, 4),
    (GammaNegative, 5),
    (LinearSolveFailure, 6),
    (NoConvergence, 7),
    (NegativityViolation, 8),
    (ResidualTooLarge, 9),
    (CapExceeded, 10),
    (ShapeMismatch, 11),
    (NotADensity, 12),
    (VerificationFailed, 13),
)

_DEFAULTS = {
    "tolerances": {
        "residual_tol": 1e-6,
        "resolvent_tol": None,
        "resolvent_max_iter": 200,
        "linear_solver_tol": 1e-10,
        "eps_neg": None,
        "verify_tol": 5e-3,
    },
    "spectrum": {"tol": 1e-6, "max_iter": 200, "assemble": False, "cap": 4096},
    "mc": {"n_particles": 100000, "dt": None, "seed": None, "bins": 32},
}

_ALLOWED = {
    "domain": {"dim", "lo", "hi", "n_cells"},
    "model": {"family", "drift", "beta", "rate", "center", "file", "manifest"},
    "time": {"T", "n_steps"},
    "gamma": {"kind", "lo", "hi", "value", "shape", "values", "file"},
    "tolerances": set(_DEFAULTS["tolerances"]),
    "spectrum": set(_DEFAULTS["spectrum"]),
    "mc": set(_DEFAULTS["mc"]),
}
_TOP_KEYS = set(_ALLOWED) | {"output_dir"}
_REQUIRED = ("domain", "model", "time", "output_dir")


def _apply_override(cfg, item):
    if "=" not in item:
        raise ConfigError(f"--set expects path.to.key=value, got {item!r}")
    path, raw = item.split("=", 1)
    keys = path.split(".")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    node = cfg
    for k in keys[:-1]:
        node = node.setdefault(k, {})
        if not isinstance(node, dict):
            raise ConfigError(f"--set path {path!r} crosses a non-object value")
    node[keys[-1]] = value


def _reject_unknown(cfg):
    for key in cfg:
        if key not in _TOP_KEYS:
            raise ConfigError(f"unknown top-level config key {key!r}")
        if key == "output_dir":
            continue
        block = cfg[key]
        if not isinstance(block, dict):
            raise ConfigError(f"config block {key!r} must be an object")
        for sub in block:
            if sub not in _ALLOWED[key]:
                raise ConfigError(f"unknown key {key}.{sub!r}")


def load_config(path, overrides=()):
    """Read, override, validate and default-resolve a run config."""
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    for item in overrides:
        _apply_override(cfg, item)
    _reject_unknown(cfg)
    for key in _REQUIRED:
        if key not in cfg:
            raise ConfigError(f"config is missing required key {key!r}")
    if not isinstance(cfg["output_dir"], str) or not cfg["output_dir"]:
        raise ConfigError(f"output_dir must be a non-empty string: {cfg['output_dir']!r}")
    merged = copy.deepcopy(cfg)
    for block, defaults in _DEFAULTS.items():
        target = merged.setdefault(block, {})
        for k, v in defaults.items():
            target.setdefault(k, v)
    return merged


_MAX_COUNT = 10**8  # above any run that fits in memory


def _whole(value):
    """Whether ``value`` is a whole number: an int (not a bool) or a whole float like 1e5."""
    return type(value) is int or type(value) is float and value.is_integer()


def _count(value, name):
    """The config setting ``value`` as an int in [1, _MAX_COUNT].  Every
    count goes through here, so no size is allocated before it is checked."""
    if not _whole(value) or value < 1:
        raise ConfigError(f"{name} must be an integer >= 1, got {value!r}")
    if value > _MAX_COUNT:
        raise ConfigError(f"{name} must be at most {_MAX_COUNT}, got {value!r}")
    return int(value)


def _build_grid(cfg):
    d = cfg["domain"]
    try:
        cells = d["n_cells"] if isinstance(d["n_cells"], list) else [d["n_cells"]]
        cells = [_count(c, "domain.n_cells") for c in cells]
        _count(math.prod(cells), "the node count of domain.n_cells")
        return make_grid(d["dim"], d["lo"], d["hi"], cells)
    except (KeyError, ValueError, TypeError) as exc:
        raise ConfigError(f"bad domain block: {exc}") from exc


def _build_model(cfg, grid, base_dir):
    m = cfg["model"]
    family = m.get("family")
    try:
        if family == "constant":
            return constant_model(m["drift"], m["beta"])
        if family == "linear-drift":
            return ou_model(m["rate"], m["center"], m["beta"])
        if family == "tabulated":
            if "manifest" in m:
                return load_tabulated_series(
                    grid, os.path.join(base_dir, m["manifest"])
                )
            return load_tabulated(grid, os.path.join(base_dir, m["file"]))
    except (KeyError, ValueError, TypeError, OSError) as exc:
        raise ConfigError(f"bad model block: {exc}") from exc
    raise ConfigError(f"unknown model family {family!r}")


def _build_solver(cfg):
    t = cfg["time"]
    tol = cfg["tolerances"]
    try:
        config = SolverConfig(
            n_steps=_count(t["n_steps"], "time.n_steps"),
            linear_solver_tol=float(tol["linear_solver_tol"]),
        )
        T = _finite(t["T"], "time.T")
    except (KeyError, ValueError, TypeError) as exc:
        raise ConfigError(f"bad time block: {exc}") from exc
    return config, T


def _build_gamma(cfg, grid, base_dir):
    if "gamma" not in cfg:
        raise ConfigError("this command needs a gamma block in the config")
    spec = dict(cfg["gamma"])
    if spec.get("kind") == "csv":
        spec["file"] = os.path.join(base_dir, spec["file"])
    try:
        return realize_gamma(grid, spec)
    except (KeyError, ValueError, TypeError, OSError) as exc:
        raise ConfigError(f"bad gamma block: {exc}") from exc


def _read_rho(grid, path):
    """The ``--rho`` density; a file that cannot be opened is a config error."""
    try:
        return DensityField.from_csv(grid, path)
    except OSError as exc:
        raise ConfigError(f"cannot read --rho {path}: {exc}") from exc


def _save_json(out_dir, name, payload):
    _write_json(os.path.join(out_dir, name), payload)
    return name


def _write_manifest(out_dir, names, cfg):
    """Echo the effective config, then hash it and ``names`` into manifest.json."""
    names = [*names, _save_json(out_dir, "config.echo.json", cfg)]
    entries = []
    for name in sorted(set(names)):
        digest = hashlib.sha256()
        # small blocks: freed reads stay resident in the heap, so 1 MiB blocks
        # raised peak RSS of `decrem spectrum` by about 2 MB
        with open(os.path.join(out_dir, name), "rb") as fh:
            while block := fh.read(1 << 16):
                digest.update(block)
        entries.append({"name": name, "sha256": digest.hexdigest()})
    _save_json(out_dir, "manifest.json", {"files": entries})


def _finite(value, name, zero=False):
    """The config setting ``value`` as a float, finite and > 0 (>= 0 with
    ``zero``): the rule of ``time.T``, ``spectrum.tol`` and the tolerances
    block."""
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or not abs(value) < float("inf")  # NaN fails too
        or (value < 0 if zero else value <= 0)
    ):
        raise ConfigError(f"{name} must be finite {'>= 0' if zero else '> 0'}: {value!r}")
    return float(value)


def _tolerances(cfg):
    """The tolerance block with ``residual_tol``, ``verify_tol`` and a set
    ``resolvent_tol`` finite and > 0, a set ``eps_neg`` finite and >= 0 and
    ``resolvent_max_iter`` an integer >= 1."""
    tol = dict(cfg["tolerances"])
    tol["resolvent_max_iter"] = _count(
        tol["resolvent_max_iter"], "tolerances.resolvent_max_iter"
    )
    for key in ("residual_tol", "verify_tol", "resolvent_tol", "eps_neg"):
        if tol[key] is not None or key not in ("resolvent_tol", "eps_neg"):
            tol[key] = _finite(tol[key], f"tolerances.{key}", zero=key == "eps_neg")
    return tol


def _verifiable(config):
    """Refuse K = 1, which has no coarser grid for :func:`verify_seed`."""
    if config.n_steps < 2:
        raise ConfigError(
            "time.n_steps must be at least 2: verification marches n_steps // 2 steps"
        )


def cmd_seed(cfg, base_dir):
    grid = _build_grid(cfg)
    model = _build_model(cfg, grid, base_dir)
    config, T = _build_solver(cfg)
    _verifiable(config)
    gamma = _build_gamma(cfg, grid, base_dir)
    tol = _tolerances(cfg)
    solution = run_seed(
        model,
        grid,
        config,
        gamma,
        T,
        tol=tol["residual_tol"],
        resolvent_tol=tol["resolvent_tol"],
        resolvent_max_iter=tol["resolvent_max_iter"],
        eps_neg=tol["eps_neg"],
    )
    verification = verify_seed(
        model, grid, config, solution.rho, solution.alpha, solution.gamma.field, T,
        tol=tol["verify_tol"], decrement=solution.decrement,
    )
    out_dir = cfg["output_dir"]
    names = [os.path.join("solution", n) for n in solution.save(os.path.join(out_dir, "solution"))]
    names.append(_save_json(out_dir, "verification.json",
                            verification.to_json_dict(solution.residual)))
    _write_manifest(out_dir, names, cfg)
    print(f"alpha     {solution.alpha:.12g}")
    print(f"residual  {solution.residual:.3e} ({solution.resolvent.method}, "
          f"{solution.resolvent.iterations} operator applications)")
    print(f"verify    refined residual {verification.residual_refined:.3e}, "
          f"time error {verification.time_error_est:.3e}, "
          f"mass decreasing: {verification.mass_decreasing}")
    if not verification.passed:
        raise VerificationFailed(
            f"refined residual {verification.residual_refined:.3e} exceeds "
            f"verify_tol {tol['verify_tol']:g} or mass curve not decreasing"
        )
    return 0


def cmd_evolve(cfg, base_dir, rho_path):
    grid = _build_grid(cfg)
    model = _build_model(cfg, grid, base_dir)
    config, T = _build_solver(cfg)
    rho = _read_rho(grid, rho_path)
    traj = evolve(model, grid, config, rho, 0.0, T)
    out_dir = cfg["output_dir"]
    traj_dir = os.path.join(out_dir, "trajectory")
    names = [os.path.join("trajectory", n) for n in save_trajectory(traj, traj_dir)]
    _write_manifest(out_dir, names, cfg)
    print(f"evolved to T={T:g} in {config.n_steps} steps ({SCHEME})")
    print(f"final mass {traj.masses[-1]:.12g}")
    if not traj.positivity_certified:
        print("warning: positivity not certified: the model has an a12 (cross-diffusion) term")
    return 0


def cmd_spectrum(cfg, base_dir):
    grid = _build_grid(cfg)
    model = _build_model(cfg, grid, base_dir)
    config, T = _build_solver(cfg)
    spec = cfg["spectrum"]
    max_iter = _count(spec["max_iter"], "spectrum.max_iter")
    cap = _count(spec["cap"], "spectrum.cap")
    act = propagator_action(model, grid, config, T)
    # checked after the certificate, so a degenerate model still exits 3
    tol = _finite(spec["tol"], "spectrum.tol")
    if not isinstance(spec["assemble"], bool):
        raise ConfigError(f"spectrum.assemble must be true or false: {spec['assemble']!r}")
    if spec["assemble"]:
        _check_cap(grid, cap)  # before any march or output
    est = spectral_radius(act, n=grid.n, tol=tol, max_iter=max_iter)
    out_dir = cfg["output_dir"]
    os.makedirs(out_dir, exist_ok=True)
    payload = {
        "radius": est.value,
        "converged": est.converged,
        "iterations": est.iterations,
    }
    names = []
    if spec["assemble"]:
        opmat = assemble_Q(model, grid, config, T, cap=cap)
        sv = singular_values(opmat)
        payload["singular_value_head"] = [float(s) for s in sv[:8]]
        masses = opmat.column_masses()
        payload["column_mass_range"] = [float(masses.min()), float(masses.max())]
        names += [os.path.basename(p) for p in opmat.save(os.path.join(out_dir, "operator"))]
        _write_rows(
            os.path.join(out_dir, "singular_values.csv"),
            ["index", "sigma"],
            ([i, repr(float(s))] for i, s in enumerate(sv)),
        )
        names.append("singular_values.csv")
    names.append(_save_json(out_dir, "spectrum.json", payload))
    _write_manifest(out_dir, names, cfg)
    print(f"spectral radius {est.value:.9g} "
          f"(converged: {est.converged}, {est.iterations} iterations)")
    if not est.converged:
        raise NoConvergence(
            f"power iteration did not stabilize in {max_iter} iterations"
        )
    return 0


def _coarsen(values, grid, bins):
    """Sum cell masses into a regular partition with ``bins`` boxes per axis."""
    w = values.reshape(grid.shape) * grid.cell_volume
    for k in range(grid.dim):
        edges = np.linspace(0, grid.n_cells[k], bins + 1).astype(int)
        w = np.add.reduceat(w, edges[:-1], axis=k)
    return w.reshape(-1)


def cmd_mc(cfg, base_dir, rho_path):
    grid = _build_grid(cfg)
    model = _build_model(cfg, grid, base_dir)
    config, T = _build_solver(cfg)
    mc = cfg["mc"]
    n = _count(mc["n_particles"], "mc.n_particles")
    bins = min(_count(mc["bins"], "mc.bins"), min(grid.n_cells))
    act = propagator_action(model, grid, config, T)
    seed = mc["seed"]
    if seed is None:
        seed = secrets.randbits(63)
    elif not _whole(seed):
        raise ConfigError(f"mc.seed must be an integer, got {seed!r}")
    cfg["mc"]["seed"] = int(seed)
    rho = _read_rho(grid, rho_path)
    dt = mc["dt"]
    dt = float(dt) if dt is not None else default_dt(model, grid, T)
    ensemble = sample_initial(rho, n, int(seed))
    # the march certifies every step's coefficients, so a model degenerate
    # inside (0, T) fails before the particles run
    final = act(rho.values)
    ensemble = simulate(model, grid, ensemble, T, dt=dt)
    estimate = estimate_density(ensemble, grid)
    q = _coarsen(final, grid, bins)
    counts = _coarsen(estimate.histogram.values, grid, bins) * n
    qc = np.clip(q, 1e-12, 1.0)
    z = (counts / n - q) / np.sqrt(qc * (1.0 - qc) / n)
    out_dir = cfg["output_dir"]
    mc_dir = os.path.join(out_dir, "mc")
    names = [os.path.join("mc", p) for p in estimate.save(mc_dir)]
    comparison = {
        "bins": bins,
        "survival_mc": estimate.survival,
        "survival_pde": float(final.sum() * grid.cell_volume),
        "frac_abs_z_le_4": float(np.mean(np.abs(z) <= 4.0)),
        "max_abs_z": float(np.abs(z).max()),
        "dt": dt,
    }
    names.append(_save_json(out_dir, "comparison.json", comparison))
    _write_manifest(out_dir, names, cfg)
    print(f"master seed {int(seed)}")
    print(f"survival: mc {estimate.survival:.6f} vs pde {comparison['survival_pde']:.6f}")
    print(f"z-scores within +-4: {100.0 * comparison['frac_abs_z_le_4']:.1f}%")
    return 0


def cmd_verify(cfg, base_dir, solution_dir):
    grid = _build_grid(cfg)
    model = _build_model(cfg, grid, base_dir)
    config, T = _build_solver(cfg)
    _verifiable(config)
    gamma = _build_gamma(cfg, grid, base_dir)
    tol = _tolerances(cfg)
    rho, u0, report = load_solution(grid, solution_dir)
    try:
        alpha = float(report["alpha"])
        stored_residual = float(report["residual"])
    except (KeyError, TypeError, ValueError) as exc:
        raise VerificationFailed(f"report.json is malformed: {exc}") from exc
    # both checks are written so that a NaN or an infinity fails them
    if not abs(alpha * mass(u0) - 1.0) <= 1e-6:
        raise VerificationFailed(
            f"stored alpha {alpha!r} is inconsistent with integral of u0"
        )
    if not (np.all(rho.values >= 0.0) and abs(mass(rho) - 1.0) <= 1e-9):
        raise VerificationFailed("stored rho is not a probability density")
    decrement = check_contract(
        model, grid, config, rho, alpha, gamma.field, T, tol["residual_tol"]
    )
    verification = verify_seed(
        model, grid, config, rho, alpha, gamma.field, T,
        tol=tol["verify_tol"], decrement=decrement,
    )
    out_dir = cfg["output_dir"]
    os.makedirs(out_dir, exist_ok=True)
    names = [_save_json(out_dir, "verification.json",
                        verification.to_json_dict(stored_residual))]
    _write_manifest(out_dir, names, cfg)
    print(f"refined residual {verification.residual_refined:.3e} "
          f"(stored {stored_residual:.3e}), "
          f"time error {verification.time_error_est:.3e}")
    print(f"mass decreasing: {verification.mass_decreasing}")
    if not verification.passed:
        raise VerificationFailed(
            f"solution in {solution_dir} fails re-evolution: refined residual "
            f"{verification.residual_refined:.3e} > {tol['verify_tol']:g} "
            f"or mass curve not decreasing"
        )
    print("verification passed")
    return 0


# command -> (runner, the one option it needs, help); the option goes to the runner
_COMMANDS = {
    "seed": (cmd_seed, None, "construct, verify and export a seed density"),
    "evolve": (cmd_evolve, "rho", "evolve a density and export the trajectory"),
    "spectrum": (cmd_spectrum, None, "operator diagnostics"),
    "mc": (cmd_mc, "rho", "particle simulation cross-check"),
    "verify": (cmd_verify, "solution", "re-check a stored solution directory"),
}


def _parser():
    parser = argparse.ArgumentParser(
        prog="decrem",
        description="Seed densities with programmed decrement profiles for absorbed diffusions.",
    )
    commands = "; ".join(f"{name}: {text}" for name, (_, _, text) in _COMMANDS.items())
    parser.add_argument("command", choices=_COMMANDS, help=commands)
    parser.add_argument("config", help="path to JSON run config")
    parser.add_argument(
        "--set", dest="overrides", action="append", default=[], metavar="PATH=VALUE",
        help="override a config entry, e.g. --set time.T=0.5",
    )
    parser.add_argument("--rho", help="CSV of the initial density (evolve, mc)")
    parser.add_argument("--solution", help="solution directory from seed (verify)")
    return parser


def main(argv=None):
    parser = _parser()
    args = parser.parse_args(argv)
    run, needs, _ = _COMMANDS[args.command]
    for option in ("rho", "solution"):
        given = getattr(args, option) is not None
        if given != (option == needs):
            parser.error(f"{args.command} {'takes no' if given else 'needs'} --{option}")
    try:
        cfg = load_config(args.config, args.overrides)
        base_dir = os.path.dirname(os.path.abspath(args.config))
        if needs is None:
            return run(cfg, base_dir)
        return run(cfg, base_dir, getattr(args, needs))
    except ToolkitError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return next((code for klass, code in EXIT_CODES if isinstance(exc, klass)), 1)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - last resort
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
