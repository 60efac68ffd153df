"""Compare the output bytes and exit codes of two source trees of decrem.

Usage (from the repository root)::

    python3 tools/compare_outputs.py BASE HEAD [--work DIR]

BASE and HEAD are checkouts of the repository.  The inputs are the
benchmark's: ``perfbench/workloads.py`` of this repository draws the
``run.VARIANTS`` inputs of every workload from each of ``SEEDS``, as
``perfbench/run.py`` does, and writes each as a config file (and, for
``mc``, a density CSV).  Five more ``mc`` inputs follow, so that the
particle paths the benchmark leaves out are compared too: in 2-D a
constant drift with off-diagonal ``beta``, a ``linear-drift`` model and a
tabulated series, a 1-D ``linear-drift`` model, whose drift varies
along the particles while its ``beta`` is fixed, and a 1-D constant
model that leaves ``mc.dt`` unset, so that the default step is compared
(every other input sets it).  Then a 2-D
tabulated series with diagonal ``beta`` goes through ``seed`` and through
``spectrum`` with ``assemble: true``, so that the steps a series keeps are
compared on the resolvent, the Richardson check and the assembly.  Next,
the time-homogeneous ``seed-2d`` model on 12 x 12 nodes, above
``DENSE_MAX_N``, goes through ``seed``, so that its steps, and those of
``verify`` and ``evolve`` on its solution, are factored solves, and the
same model on 10 x 10 nodes, within ``DENSE_MAX_N``, goes through
``spectrum`` with ``assemble: true``, so that a kernel stepped by the
dense inverse is compared too.  Then two
1-D inputs fail after writing: a ``seed`` whose ``verify_tol`` of 1e-12 no
refined march meets (exit 13), and a ``spectrum`` whose power iteration
stops after ``max_iter`` = 1 (exit 7).  Last come three ``seed`` inputs
in forms that no other input reads: a steady coefficient table
(``model.file``), a profile from a field file (``gamma.kind: csv``), and
an 8 x 8 model whose a12 term makes zeta dip below zero, which
``eps_neg`` = 1e-4 lets ``run_seed`` clamp.  Against a tree that stored
``Q zeta`` as that clamped seed's ``uT.csv``, rather than the march of
``u0.csv``, only that seed's ``decrement.csv``, ``uT.csv``,
``report.json``, ``verification.json`` and ``manifest.json`` differ, with
the ``verification.json`` and ``manifest.json`` of ``verify`` on its
solution, which echoes the stored residual.  The imports
write no bytecode, so the benchmark directory is left as it was.  Each
input runs through ``python -m decrem`` of both trees, from a directory of
its own holding the same files and with the same relative ``output_dir``,
so ``config.echo.json`` and ``manifest.json`` compare as well.  Every
``seed`` solution that a tree writes, whether its verification passed (exit
0) or not (exit 13), is then checked by ``decrem verify`` with the same
config, and evolved by ``decrem evolve``, of that tree.  BLAS runs on one
thread, since the dense time steps are BLAS products whose bits depend on it.

The script prints each command whose exit code, standard output or, for a
non-zero exit, last line of standard error differs and each output file
whose bytes differ, then a summary.  It exits 0 either way: the comparison
is tracked, not a gate.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3)


def write_inputs(work):
    """Write every input into ``work/inputs/<case>``; returns (case, argv) pairs."""
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]
    import numpy as np
    from run import VARIANTS
    from workloads import WORKLOADS

    cases = []
    for seed in SEEDS:
        for name, cls in WORKLOADS.items():
            wl = cls()
            rng = np.random.default_rng(seed)
            for v in range(VARIANTS):
                case = f"{name}-{seed}-v{v}"
                path = work / "inputs" / case
                path.mkdir(parents=True)
                cfg = wl.config(rng, "out", str(path))
                (path / "config.json").write_text(json.dumps(cfg, indent=2))
                cases.append((case, [wl.command, "config.json", *wl.extra_args(".")]))
    cases += write_mc_inputs(work) + write_series_2d_inputs(work)
    cases += write_seed_2d_input(work) + write_spectrum_dense_input(work)
    return cases + write_late_failure_inputs(work) + write_seed_input_forms(work)


MIXED_BETA = [[0.9, 0.3], [-0.2, 0.6]]
SERIES_TIMES = [0.0, 0.05, 0.12]
SERIES_COLUMNS = ["f1", "f2", "b11", "b12", "b21", "b22"]
MC_2D_MODELS = {
    "constant": {"family": "constant", "drift": [0.8, -0.5], "beta": MIXED_BETA},
    "linear-drift": {
        "family": "linear-drift", "rate": [1.5, 0.7], "center": [0.4, 0.6], "beta": MIXED_BETA,
    },
    "tabulated-series": {"family": "tabulated", "manifest": "series.json"},
}
MC_1D_MODELS = {
    "linear-drift": {"family": "linear-drift", "rate": [1.5], "center": [0.4], "beta": [[0.9]]},
}
MC_DT = 2e-3  # every mc input but the last sets mc.dt to this


def write_mc_inputs(work):
    """Write one ``mc`` input per model of ``MC_2D_MODELS`` and of
    ``MC_1D_MODELS`` into ``work/inputs/mc-<dim>d-<model>``, then a 1-D
    constant model that leaves ``mc.dt`` unset into
    ``work/inputs/mc-1d-default-dt``; returns (case, argv) pairs."""
    import numpy as np
    from decrem import DensityField, make_grid
    from decrem.grid import _write_table

    domains = {
        2: {"dim": 2, "lo": [0.0, 0.0], "hi": [1.0, 1.2], "n_cells": [10, 12]},
        1: {"dim": 1, "lo": [0.0], "hi": [1.0], "n_cells": [32]},
    }
    rng = np.random.default_rng(4)
    cases = []
    models = [(2, *m, MC_DT) for m in MC_2D_MODELS.items()]
    models += [(1, *m, MC_DT) for m in MC_1D_MODELS.items()]
    models.append((1, "default-dt", {"family": "constant", "drift": [0.3], "beta": [[0.9]]}, None))
    for dim, label, model, dt in models:
        grid = make_grid(**domains[dim])
        v = np.prod(np.sin(np.pi * grid.nodes() / grid.hi), axis=1)  # lo is 0
        rho = DensityField(grid, v / (v.sum() * grid.cell_volume))
        case = f"mc-{dim}d-{label}"
        path = work / "inputs" / case
        path.mkdir(parents=True)
        rho.to_csv(path / "rho.csv")
        if "manifest" in model:
            files = [f"t{k}.csv" for k in range(len(SERIES_TIMES))]
            for name in files:
                beta = np.array(MIXED_BETA) * rng.uniform(0.5, 1.5, (grid.n, 1, 1))
                drift = rng.uniform(-1, 1, (grid.n, 2))
                _write_table(grid, path / name, SERIES_COLUMNS, [drift, beta])
            manifest = {"times": SERIES_TIMES, "files": files}
            (path / "series.json").write_text(json.dumps(manifest))
        cfg = {
            "domain": domains[dim],
            "model": model,
            "time": {"T": 0.2, "n_steps": 16},
            "mc": {"n_particles": 4000, "dt": dt, "seed": 17},
            "output_dir": "out",
        }
        if dt is None:
            del cfg["mc"]["dt"]
        (path / "config.json").write_text(json.dumps(cfg, indent=2))
        cases.append((case, ["mc", "config.json", "--rho", "rho.csv"]))
    return cases


def write_series_2d_inputs(work):
    """Write a ``seed`` and a ``spectrum`` input on one 2-D tabulated series
    with diagonal ``beta`` into ``work/inputs/<command>-2d-series``; returns
    (case, argv) pairs."""
    import numpy as np
    from decrem import make_grid
    from decrem.grid import _write_table

    grid = make_grid(2, [0.0, 0.0], [1.0, 1.2], [10, 12])
    rng = np.random.default_rng(5)
    tables = []
    for _ in SERIES_TIMES:
        beta = np.zeros((grid.n, 2, 2))
        beta[:, 0, 0] = rng.uniform(0.8, 1.2, grid.n)
        beta[:, 1, 1] = rng.uniform(0.6, 0.9, grid.n)
        tables.append([rng.uniform(-0.5, 0.5, (grid.n, 2)), beta])
    cases = []
    for command in ("seed", "spectrum"):
        case = f"{command}-2d-series"
        path = work / "inputs" / case
        path.mkdir(parents=True)
        files = [f"t{k}.csv" for k in range(len(SERIES_TIMES))]
        for name, table in zip(files, tables):
            _write_table(grid, path / name, SERIES_COLUMNS, table)
        (path / "series.json").write_text(json.dumps({"times": SERIES_TIMES, "files": files}))
        cfg = {
            "domain": {"dim": 2, "lo": [0.0, 0.0], "hi": [1.0, 1.2], "n_cells": [10, 12]},
            "model": {"family": "tabulated", "manifest": "series.json"},
            "time": {"T": 0.12, "n_steps": 128},
            "gamma": {"kind": "bump", "lo": [0.2, 0.3], "hi": [0.65, 0.8]},
            "spectrum": {"assemble": True},
            "output_dir": "out",
        }
        (path / "config.json").write_text(json.dumps(cfg, indent=2))
        cases.append((case, [command, "config.json"]))
    return cases


def write_seed_2d_input(work):
    """Write a ``seed`` input of the ``seed-2d`` model on 12 x 12 = 144
    nodes, with K = 32 and a bump, into ``work/inputs/seed-2d-12x12``;
    returns its (case, argv) pair in a list."""
    from decrem.kolmogorov import DENSE_MAX_N
    from workloads import BETA_2D, DRIFT_2D

    assert 12 * 12 > DENSE_MAX_N  # every step goes through the factor
    case = "seed-2d-12x12"
    path = work / "inputs" / case
    path.mkdir(parents=True)
    cfg = {
        "domain": {"dim": 2, "lo": [0.0, 0.0], "hi": [1.0, 1.0], "n_cells": [12, 12]},
        "model": {"family": "constant", "drift": DRIFT_2D, "beta": BETA_2D},
        "time": {"T": 0.3, "n_steps": 32},
        "gamma": {"kind": "bump", "lo": [0.2, 0.3], "hi": [0.65, 0.75]},
        # K = 32 leaves a refined residual of about 1.4e-2, above the default
        # 5e-3; seed must pass for verify and evolve to run on its solution
        "tolerances": {"verify_tol": 2e-2},
        "output_dir": "out",
    }
    (path / "config.json").write_text(json.dumps(cfg, indent=2))
    return [(case, ["seed", "config.json"])]


def write_spectrum_dense_input(work):
    """Write a ``spectrum`` input with ``assemble: true`` of the ``seed-2d``
    model on 10 x 10 = 100 nodes, with K = 128, into
    ``work/inputs/spectrum-2d-10x10``; returns its (case, argv) pair in a
    list."""
    from decrem.kolmogorov import DENSE_MAX_N
    from workloads import BETA_2D, DRIFT_2D

    assert 10 * 10 <= DENSE_MAX_N  # every step is a product by the dense inverse
    case = "spectrum-2d-10x10"
    path = work / "inputs" / case
    path.mkdir(parents=True)
    cfg = {
        "domain": {"dim": 2, "lo": [0.0, 0.0], "hi": [1.0, 1.0], "n_cells": [10, 10]},
        "model": {"family": "constant", "drift": DRIFT_2D, "beta": BETA_2D},
        "time": {"T": 0.3, "n_steps": 128},
        "spectrum": {"assemble": True},
        "output_dir": "out",
    }
    (path / "config.json").write_text(json.dumps(cfg, indent=2))
    return [(case, ["spectrum", "config.json"])]


def write_late_failure_inputs(work):
    """Write a ``seed`` input that exits 13 and a ``spectrum`` input that
    exits 7, each after writing its outputs, into
    ``work/inputs/<command>-late-failure``; returns (case, argv) pairs."""
    cfg = {
        "domain": {"dim": 1, "lo": [0.0], "hi": [1.0], "n_cells": [32]},
        "model": {"family": "constant", "drift": [0.3], "beta": [[1.0]]},
        "time": {"T": 0.5, "n_steps": 32},
        "gamma": {"kind": "eigenmode"},
        "tolerances": {"verify_tol": 1e-12},
        "spectrum": {"max_iter": 1},
        "output_dir": "out",
    }
    cases = []
    for command in ("seed", "spectrum"):
        case = f"{command}-late-failure"
        path = work / "inputs" / case
        path.mkdir(parents=True)
        (path / "config.json").write_text(json.dumps(cfg, indent=2))
        cases.append((case, [command, "config.json"]))
    return cases


def write_seed_input_forms(work):
    """Write three ``seed`` inputs into ``work/inputs/seed-<form>``: a 1-D
    steady coefficient table (``model.file``), a 1-D profile read from a
    field file (``gamma.kind: csv``) and the 8 x 8 model whose a12 term
    makes zeta dip below zero, clamped under ``eps_neg`` = 1e-4; returns
    (case, argv) pairs."""
    import numpy as np
    from decrem import DensityField, make_grid
    from decrem.grid import _write_table

    line = {"dim": 1, "lo": [0.0], "hi": [1.0], "n_cells": [32]}
    grid = make_grid(**line)
    rng = np.random.default_rng(6)
    base = {
        "domain": line,
        "model": {"family": "constant", "drift": [0.3], "beta": [[1.0]]},
        "time": {"T": 0.2, "n_steps": 64},
        "gamma": {"kind": "eigenmode"},
        "output_dir": "out",
    }
    forms = {
        "table": {"model": {"family": "tabulated", "file": "coefficients.csv"}},
        "gamma-csv": {"gamma": {"kind": "csv", "file": "gamma.csv"}},
        "clamped": {
            "domain": {"dim": 2, "lo": [0.0, 0.0], "hi": [1.0, 1.0], "n_cells": [8, 8]},
            "model": {"family": "constant", "drift": [0.0, 0.0],
                      "beta": [[1.0, 0.0], [0.9, 0.436]]},
            "time": {"T": 0.5, "n_steps": 64},
            "gamma": {"kind": "bump", "lo": [0.1, 0.1], "hi": [0.3, 0.3]},
            "tolerances": {"residual_tol": 1e-3, "eps_neg": 1e-4},
        },
    }
    cases = []
    for form, changes in forms.items():
        case = f"seed-{form}"
        path = work / "inputs" / case
        path.mkdir(parents=True)
        if form == "table":
            drift = rng.uniform(-0.5, 0.5, (grid.n, 1))
            beta = rng.uniform(0.8, 1.2, (grid.n, 1, 1))
            _write_table(grid, path / "coefficients.csv", ["f1", "b11"], [drift, beta])
        elif form == "gamma-csv":
            DensityField(grid, rng.uniform(0.0, 1.0, grid.n)).to_csv(path / "gamma.csv")
        (path / "config.json").write_text(json.dumps({**base, **changes}, indent=2))
        cases.append((case, ["seed", "config.json"]))
    return cases


def run(tree, cwd, argv):
    """Run ``python -m decrem argv`` of ``tree`` in ``cwd``; returns (exit
    code, stdout, the last line of stderr, or None when the run exits 0)."""
    env = dict(os.environ, PYTHONPATH=str(Path(tree).resolve() / "src"), OPENBLAS_NUM_THREADS="1")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    done = subprocess.run(
        [sys.executable, "-m", "decrem", *argv], cwd=cwd, env=env,
        capture_output=True, text=True,
    )
    last = (done.stderr.splitlines() or [""])[-1] if done.returncode else None
    return done.returncode, done.stdout, last


def run_tree(tree, label, work, cases):
    """Every command of every case through ``tree``; returns
    {(case, command): (code, stdout, last stderr line)}."""
    results = {}
    for case, argv in cases:
        cwd = work / label / case
        shutil.copytree(work / "inputs" / case, cwd)
        results[case, argv[0]] = run(tree, cwd, argv)
        # exit 13 comes after the solution is written
        if argv[0] == "seed" and results[case, "seed"][0] in (0, 13):
            follow = (
                ("verify", ["--solution", "out/solution", "--set", "output_dir=verify"]),
                ("evolve", ["--rho", "out/solution/rho.csv", "--set", "output_dir=evolve"]),
            )
            for command, extra in follow:
                results[case, command] = run(tree, cwd, [command, "config.json", *extra])
    return results


def files(top):
    """Every file under ``top``, relative to it."""
    return sorted(p.relative_to(top) for p in top.rglob("*") if p.is_file())


def compare(base_tree, head_tree, work):
    """Run every input through both trees in ``work`` and print what differs."""
    cases = write_inputs(work)
    base = run_tree(base_tree, "base", work, cases)
    head = run_tree(head_tree, "head", work, cases)
    runs = sorted(set(base) | set(head))
    differing_runs = 0
    for key in runs:
        if base.get(key) != head.get(key):
            differing_runs += 1
            codes = [r[0] if r else "not run" for r in (base.get(key), head.get(key))]
            print(f"differs: {key[1]} on {key[0]}: exit {codes[0]} -> {codes[1]}"
                  + ("" if codes[0] != codes[1] else ", standard output or error"))
    compared = differing_files = 0
    for case, _ in cases:
        tops = work / "base" / case, work / "head" / case
        for name in sorted(set(files(tops[0])) | set(files(tops[1]))):
            compared += 1
            paths = [top / name for top in tops]
            if not all(p.is_file() for p in paths) or paths[0].read_bytes() != paths[1].read_bytes():
                differing_files += 1
                print(f"differs: {case}/{name}")
    tally = [Counter(code for code, *_ in r.values()) for r in (base, head)]
    print(f"{len(runs)} runs, {differing_runs} with another exit code, standard output "
          f"or last standard error line "
          f"(exit codes: base {dict(tally[0])}, head {dict(tally[1])}); "
          f"{compared} files, {differing_files} with other bytes")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="checkout of the base tree")
    parser.add_argument("head", help="checkout of the tree under comparison")
    parser.add_argument("--work", help="new or empty directory for inputs and outputs, "
                        "kept (default: a temporary one, removed)")
    args = parser.parse_args(argv)
    work = args.work and Path(args.work)
    if work and work.exists() and (not work.is_dir() or any(work.iterdir())):
        parser.error(f"--work {work} exists and is not an empty directory")
    with tempfile.TemporaryDirectory() as tmp:
        compare(args.base, args.head, work or Path(tmp))
    return 0


if __name__ == "__main__":
    sys.exit(main())
