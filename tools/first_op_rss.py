"""Peak RSS of fresh processes at their first step build and first op, in
two source trees of decrem.

Usage (from the repository root)::

    python3 tools/first_op_rss.py BASE HEAD [-n N] [--source] [--work DIR]

BASE and HEAD are checkouts of the repository.  For each benchmark
workload, ``perfbench/workloads.py`` of this repository draws the first
input of seed 1, as ``perfbench/run.py`` does.  Then N fresh processes per
tree run on it, the trees alternating, and each reports ``ru_maxrss`` at
four points:

- ``import``: after importing ``decrem.cli``;
- ``stencil``: after the first ``kolmogorov.build_stencil`` on the input's
  grid and model at t = 0;
- ``step``: after a ``propagator_action`` at each of the input's two step
  counts, K and K // 2, on a fresh model, which builds and factors its
  steps;
- ``op``: after one op of the workload's command on the input, through
  ``cli.main`` with output silenced.

The script prints, per workload and point, the median MB of each tree, the
difference HEAD - BASE, and each tree's median rise over its ``import``
point.  Code pages of library kernels count in ``ru_maxrss`` as soon as a
process first runs them, so the rise shows what the first op brings in.
By default each tree's bytecode is compiled once into a cache of its own
under the work directory and every measured process loads it; with
``--source`` every process compiles decrem from source, as a process does
that finds no bytecode.  BLAS runs on one thread.  The script writes
nothing into either tree and exits 0 whatever it finds: it measures, it
is not a gate.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
POINTS = ("import", "stencil", "step", "op")

CHILD = r"""
import contextlib, io, json, resource, sys
def peak():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
out = {}
from decrem import SolverConfig, cli, constant_model, make_grid, kolmogorov, propagator_action
out["import"] = peak()
cfg = json.load(open("config.json"))
d, m = cfg["domain"], cfg["model"]
grid = make_grid(d["dim"], d["lo"], d["hi"], d["n_cells"])
kolmogorov.build_stencil(constant_model(m["drift"], m["beta"]), grid, 0.0)
out["stencil"] = peak()
T, K = cfg["time"]["T"], cfg["time"]["n_steps"]
model = constant_model(m["drift"], m["beta"])
for k in (K, K // 2):
    propagator_action(model, grid, SolverConfig(n_steps=k), T)
out["step"] = peak()
del model
sink = io.StringIO()
with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
    code = cli.main(sys.argv[1:])
out["op"] = peak()
out["exit"] = code
print(json.dumps(out))
"""


def write_inputs(work):
    """Write the first seed-1 input of every workload into ``work/<name>``;
    returns (name, argv) pairs."""
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]
    import numpy as np
    from workloads import WORKLOADS

    cases = []
    for name, cls in WORKLOADS.items():
        wl = cls()
        path = work / name
        path.mkdir(parents=True)
        cfg = wl.config(np.random.default_rng(1), "out", str(path))
        (path / "config.json").write_text(json.dumps(cfg, indent=2))
        cases.append((name, [wl.command, "config.json", *wl.extra_args(".")]))
    return cases


def measure(tree, cache, cwd, argv, source):
    """ru_maxrss in MB at each point of one fresh process of ``tree``."""
    env = dict(os.environ, PYTHONPATH=str(Path(tree).resolve() / "src"), OPENBLAS_NUM_THREADS="1")
    env["PYTHONPYCACHEPREFIX"] = str(cache)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    if source:
        env["PYTHONDONTWRITEBYTECODE"] = "1"
    shutil.rmtree(cwd / "out", ignore_errors=True)
    done = subprocess.run(
        [sys.executable, "-c", CHILD, *argv], cwd=cwd, env=env,
        capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("head")
    parser.add_argument("-n", type=int, default=5, help="processes per tree and workload")
    parser.add_argument("--source", action="store_true", help="compile decrem in every process")
    parser.add_argument("--work", help="scratch directory (default: a temporary one)")
    args = parser.parse_args(argv)
    work = Path(args.work or tempfile.mkdtemp(prefix="first-op-rss-"))
    work.mkdir(parents=True, exist_ok=not args.work)
    trees = {"BASE": args.base, "HEAD": args.head}
    cases = write_inputs(work / "inputs")
    caches = {label: work / "pycache" / label for label in trees}
    for name, case_argv in cases:
        cwd = work / "inputs" / name
        runs = {label: [] for label in trees}
        for i in range(args.n + (0 if args.source else 1)):
            order = list(trees) if i % 2 == 0 else list(trees)[::-1]
            for label in order:
                rec = measure(trees[label], caches[label], cwd, case_argv, args.source)
                if args.source or i > 0:  # the first run compiles the cache
                    runs[label].append(rec)
        exits = {label: sorted({r["exit"] for r in recs}) for label, recs in runs.items()}
        print(f"{name} ({args.n} processes per tree; exit codes {exits})")
        print(f"  {'point':8} {'BASE MB':>9} {'HEAD MB':>9} {'HEAD-BASE':>9}"
              f" {'BASE rise':>9} {'HEAD rise':>9}")
        med = {label: {p: statistics.median(r[p] for r in recs) for p in POINTS}
               for label, recs in runs.items()}
        rise = {label: {p: statistics.median(r[p] - r["import"] for r in recs) for p in POINTS}
                for label, recs in runs.items()}
        for p in POINTS:
            b, h = med["BASE"][p], med["HEAD"][p]
            print(f"  {p:8} {b:9.2f} {h:9.2f} {h - b:+9.2f}"
                  f" {rise['BASE'][p]:9.2f} {rise['HEAD'][p]:9.2f}")
    if not args.work:
        shutil.rmtree(work)
    return 0


if __name__ == "__main__":
    sys.exit(main())
