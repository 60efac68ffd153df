"""decrem benchmark: one closed-loop client driving ``decrem.cli.main``.

Usage (from the repository root)::

    python3 perfbench/run.py --workload seed-1d-short --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table
    python3 -m pytest perfbench -q                   # self-tests at tiny sizes

One process imports the package from ``src/``, draws ``VARIANTS`` inputs for
the workload from ``--seed``, runs one warm-up op and then runs ops back to
back, cycling through the inputs, until ``--seconds`` have passed.  Every op
is checked: exit code, the program's own verification, ``manifest.json``
equal to that of the first op on the same input, and the workload's oracle.
A failed op stays in ``failed``.

The client is single-threaded (BLAS too) and pinned to one CPU, chosen
again before each op.  Times are reported in calibrated seconds: the raw
time scaled by ``CALIB_REF_S`` over the time of a fixed calibration loop run
next to the op on the same CPU (see :func:`calibrate`); raw times are kept in
the record.  With ``--trace 0`` the last line holds the end-to-end metrics:
median wall and CPU seconds per op, set-up seconds (median over three
independent processes of import, input generation and the warm-up op) and
peak RSS.  With ``--trace 1`` each input gets an untraced and a traced op;
the traced ones give the per-layer metrics (see ``tracing.py``) and
``trace.overhead_frac``.  The line before the last, prefixed ``perfbench``,
holds every end-to-end metric (``failed_frac`` and ``err`` included) and the
provenance; the full record goes to ``.bench_out/``.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
DEFAULT_SEED = 1
SETUP_SAMPLES = 3
VARIANTS = 4  # inputs drawn from one seed; ops cycle through them
CALIB_REF_S = 0.03  # calibration loop time that defines a reported second
CHILD_TIMEOUT_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("seed-1d-short", "seed-2d", "mc-1d", "spectrum-2d")
CPUS = sorted(os.sched_getaffinity(0))
UNITS = {"wall_raw_s": "s", "wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
         "failed_frac": "frac", "err": "1"}


def single_thread():
    """Run BLAS/OpenMP on one thread; must run before numpy is imported.

    The benchmark measures one client on one CPU (see :func:`pin_fastest_cpu`),
    so extra BLAS threads would only contend for it.  Returns the number of
    CPUs the process was allowed to use on entry."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    return len(CPUS)


def _spin_s():
    t = time.perf_counter()
    x = 0
    for i in range(100_000):
        x += i * i
    return time.perf_counter() - t


def pin_fastest_cpu():
    """Pin this process to the allowed CPU that runs a short spin loop fastest.

    On small shared machines one CPU can be slowed for tens of seconds by
    work outside this process (a busy hyperthread sibling, say); a process
    the scheduler leaves on that CPU runs its whole op slow.  Choosing the
    CPU again before every op keeps the per-op times on the unloaded one.
    Only this process's own affinity changes."""
    if len(CPUS) < 2:
        return None
    best = None
    for cpu in CPUS:
        os.sched_setaffinity(0, {cpu})
        t = min(_spin_s(), _spin_s())
        if best is None or t < best[0]:
            best = (t, cpu)
    os.sched_setaffinity(0, {best[1]})
    return best[1]


def calibrate():
    """Seconds this process needs right now for a fixed loop of small-array
    numpy calls, the mix of interpreter and numpy work a march does.

    Timings are reported in units of this loop: ``raw * CALIB_REF_S /
    calibration``, with the loop timed right before and right after the
    measured work on the same CPU.  On a shared machine the speed of a CPU
    can swing by 1.8x within seconds; the loop slows with it, the program
    under test does not change it."""
    import numpy as np

    x0 = np.linspace(0.0, 1.0, 256)
    t = time.perf_counter()
    for _ in range(3):
        x = x0.copy()
        for _ in range(1000):
            x = 0.5 * (x + np.roll(x, 1)) + 1e-3
    return time.perf_counter() - t


# ---------------------------------------------------------------- provenance

def _git_sha():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_sha256():
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return None
    libs = sorted({ln.split()[-1] for ln in maps if "openblas" in ln and ".so" in ln})
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def provenance(nproc):
    import numpy
    import scipy

    return {
        "git_sha": _git_sha(),
        "src_sha256": src_sha256(),
        "nproc": nproc,
        "cpus_allowed": CPUS,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": _blas_threads(),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
    }


# ----------------------------------------------------------------- one run

class Run:
    """Inputs, oracle and ops of one workload in this process.

    The seed yields ``VARIANTS`` inputs; op ``i`` runs variant ``i %
    VARIANTS`` (traced runs keep an untraced and a traced op on each
    variant), so one run measures a fixed mix of inputs and the run's
    median does not hinge on how costly one drawn input happens to be.
    """

    def __init__(self, name, seed, size="full"):
        import numpy as np

        from workloads import WORKLOADS

        self.wl = WORKLOADS[name](size)
        self.name = name
        self.work = OUT / "work" / f"{name}-{seed}-{os.getpid()}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.out_dir = self.work / "out"
        rng = np.random.default_rng(seed)
        self.cfgs, self.argvs = [], []
        for v in range(VARIANTS):
            vdir = self.work / f"v{v}"
            vdir.mkdir(parents=True)
            cfg = self.wl.config(rng, str(self.out_dir), str(vdir))
            self.cfgs.append(cfg)
            self.argvs.append(self.write_config(cfg, vdir / "config.json"))
        self.refs = [None] * VARIANTS
        self.manifests = [None] * VARIANTS
        self._calib = (None, None)  # (CPU, seconds) of the last calibration

    def write_config(self, cfg, path):
        path.write_text(json.dumps(cfg, indent=2, sort_keys=True))
        return [self.wl.command, str(path), *self.wl.extra_args(str(path.parent))]

    def op(self, argv, tracer=None, op_id=None):
        """Run one op; returns its record: exit code, raw wall and CPU
        seconds, the CPU it ran on, the speed factor from calibration and
        the time spent around the op."""
        from decrem import cli

        t_enter = time.perf_counter()
        shutil.rmtree(self.out_dir, ignore_errors=True)
        gc.collect()
        cpu = pin_fastest_cpu()
        last_cpu, calib_before = self._calib
        if last_cpu != cpu or calib_before is None:
            calib_before = calibrate()
        uninstall = None
        if tracer is not None:
            from tracing import install

            uninstall = install(tracer)
            tracer.op = op_id
        sink = io.StringIO()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                c0 = time.process_time()
                w0 = time.perf_counter()
                code = cli.main(argv)
                w1 = time.perf_counter()
                c1 = time.process_time()
        finally:
            if uninstall is not None:
                uninstall()
                tracer.op = None
        calib_after = calibrate()
        self._calib = (cpu, calib_after)
        return {"exit": code, "wall_raw_s": w1 - w0, "cpu_raw_s": c1 - c0, "cpu": cpu,
                "speed": CALIB_REF_S / (0.5 * (calib_before + calib_after)),
                "overhead_s": time.perf_counter() - t_enter - (w1 - w0)}

    def check(self, code, v):
        """Error message for a failed op of variant ``v`` (or None) and its err."""
        if code != 0:
            return f"exit code {code}", None
        msg, err = self.wl.check(str(self.out_dir), self.refs[v])
        if msg:
            return msg, err
        manifest = (self.out_dir / "manifest.json").read_text()
        if self.manifests[v] is None:
            self.manifests[v] = manifest
        elif manifest != self.manifests[v]:
            msg = "manifest.json differs from the first op's on this input"
        return msg, err

    def input_digest(self, v):
        inputs = {k: val for k, val in self.cfgs[v].items() if k != "output_dir"}
        blob = json.dumps([inputs, self.wl.p, src_sha256()], sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)


def _setup_children(args, n):
    """Set-up seconds of ``n`` fresh processes run one after another."""
    samples, errors = [], []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed), "--size", args.size]
    for _ in range(n):
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S, cwd=ROOT)
            samples.append(float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]))
        except (subprocess.TimeoutExpired, ValueError, KeyError, IndexError) as exc:
            errors.append(f"set-up process failed: {exc!r}")
    return samples, errors


def _program_counts(run, v, layer):
    """Mismatches between traced counts and the program's own reports."""
    out = run.out_dir
    command = run.wl.command
    problems = []
    if command == "seed":
        rep = json.loads((out / "solution" / "report.json").read_text())
        if layer["fredholm.solve_resolvent.iterations"] != rep["iterations"]:
            problems.append("resolvent iterations differ from report.json")
    elif command == "spectrum":
        spec = json.loads((out / "spectrum.json").read_text())
        if layer["fredholm.spectral_radius.iterations"] != spec["iterations"]:
            problems.append("power iterations differ from spectrum.json")
    elif command == "mc":
        mc = json.loads((out / "mc" / "mc.json").read_text())
        steps = round(run.cfgs[v]["time"]["T"] / mc["dt"])
        if layer["montecarlo.particle_steps"] != steps * mc["n"]:
            problems.append("particle steps differ from mc.json n * T / dt")
    return problems


def _check_counts_across_runs(key, counts):
    """Counts of the same code on the same input must repeat exactly across
    runs; ``key`` digests code and input."""
    path = OUT / "counts" / f"{key}.json"
    if path.is_file():
        before = json.loads(path.read_text())
        if before != counts:
            diff = sorted(k for k in counts if before.get(k) != counts[k])
            return [f"counts differ from an earlier run of the same code and input: {diff}"]
        return []
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(counts, indent=2, sort_keys=True))
    return []


def _layer_metrics(run, ops):
    """Per-layer metrics of the traced ops, and problems with their counts.

    Counts must repeat exactly between ops on one input and across runs;
    a count is reported as its mean over the inputs, a duration as the
    median over traced ops."""
    from tracing import EXACT

    problems = []
    per_variant = {}
    for o in ops:
        counts = {k: o["layer"][k] for k in EXACT}
        first = per_variant.setdefault(o["variant"], counts)
        diff = sorted(k for k in EXACT if counts[k] != first[k])
        if diff:
            problems.append(f"op {o['op']} counts differ from an earlier op on its input: {diff}")
    for v, counts in sorted(per_variant.items()):
        problems += _check_counts_across_runs(f"{run.name}-{run.input_digest(v)}", counts)
    layer = {}
    for key in ops[0]["layer"]:
        if key in EXACT:
            mean = statistics.fmean(c[key] for c in per_variant.values())
            layer[key] = int(mean) if mean.is_integer() else mean
        else:
            layer[key] = statistics.median(o["layer"][key] for o in ops)
    return layer, problems


def measure(args, setup_samples=SETUP_SAMPLES, zero_gamma_ops=(), overhead_s=0.0):
    """Run one workload; returns the result record (see module docstring).

    ``overhead_s`` is time the benchmark itself spent since start-up, left
    out of set-up.  ``zero_gamma_ops`` lists op indices that run with gamma
    set to zero; the self-tests use it to inject failing ops.
    """
    calib_start = calibrate()
    sys.path.insert(0, str(SRC))
    from decrem import cli  # noqa: F401  (import is part of set-up)

    run = Run(args.workload, args.seed, args.size)
    warm = run.op(run.argvs[0])
    setup_raw = time.perf_counter() - T0 - overhead_s - calib_start - warm["overhead_s"]
    setup_s = setup_raw * CALIB_REF_S / (0.5 * (calib_start + calibrate()))
    if args.setup_only:
        run.close()
        return {"setup_s": setup_s}
    problems = []
    samples, errors = _setup_children(args, setup_samples - 1)
    problems += errors
    setup = statistics.median([setup_s] + samples)

    run.refs = [run.wl.reference(cfg) for cfg in run.cfgs]
    msg, _ = run.check(warm["exit"], 0)
    if msg:
        problems.append(f"warm-up op failed: {msg}")

    from tracing import Tracer, check_nesting, op_metrics

    tracer = Tracer() if args.trace else None
    bad_argv = (run.write_config(run.wl.zero_gamma(run.cfgs[0]), run.work / "zero_gamma.json")
                if zero_gamma_ops else None)
    per_variant = 2 if args.trace else 1
    min_ops = per_variant * VARIANTS
    ops = []
    deadline = time.perf_counter() + args.seconds
    while len(ops) < min_ops or time.perf_counter() < deadline:
        i = len(ops)
        v = (i // per_variant) % VARIANTS
        traced = bool(args.trace) and i % 2 == 1
        argv = bad_argv if i in zero_gamma_ops else run.argvs[v]
        rec = {"op": i, "variant": v, "traced": traced,
               **run.op(argv, tracer if traced else None, i)}
        rec["wall_s"] = rec["wall_raw_s"] * rec["speed"]
        rec["cpu_s"] = rec["cpu_raw_s"] * rec["speed"]
        rec["error"], rec["err"] = run.check(rec["exit"], v)
        if traced and rec["error"] is None:
            rec["layer"] = op_metrics(tracer.spans, i, rec["speed"])
            bad = _program_counts(run, v, rec["layer"])
            if bad:
                rec["error"] = "; ".join(bad)
        ops.append(rec)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if ops[-1]["error"] is None:
        # later ops match the first op on their input byte for byte, so one
        # check covers them; made after reading peak RSS so its memory does
        # not count
        msg = run.wl.deep_check(str(run.out_dir))
        if msg:
            problems.append(msg)
    run.close()

    untraced = [o for o in ops if not o["traced"]]
    failed = sum(1 for o in ops if o["error"])
    errs = [o["err"] for o in ops if o["err"] is not None]
    e2e = {
        "wall_raw_s": statistics.median(o["wall_raw_s"] for o in untraced),
        "wall_s": statistics.median(o["wall_s"] for o in untraced),
        "cpu_s": statistics.median(o["cpu_s"] for o in untraced),
        "setup_s": setup,
        "peak_rss_mb": peak_rss_mb,
        "failed_frac": failed / len(ops),
    }
    if errs:
        e2e["err"] = statistics.median(errs)
    layer = {}
    if args.trace:
        try:
            check_nesting(tracer.spans)
        except ValueError as exc:
            problems.append(str(exc))
        traced = [o for o in ops if "layer" in o]
        if traced:
            layer, bad = _layer_metrics(run, traced)
            problems += bad
            traced_wall = statistics.median(o["wall_s"] for o in ops if o["traced"])
            layer["trace.overhead_frac"] = traced_wall / e2e["wall_s"] - 1.0
        else:
            problems.append("no traced op succeeded")
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "correct": failed == 0 and not problems,
        "attempted": len(ops),
        "failed": failed,
        "problems": problems,
        "end_to_end": e2e,
        "per_layer": layer,
        "ops": ops,
        "tracer": tracer,
    }


def report(result, nproc):
    """Print the summary line and the final JSON line; save the record."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    tracer = result.pop("tracer")
    result["provenance"] = provenance(nproc)
    OUT.mkdir(exist_ok=True)
    stem = f"{result['workload']}-{result['size']}-seed{result['seed']}-trace{result['trace']}"
    if tracer is not None:
        tracer.dump(OUT / f"{stem}.spans.jsonl")
    (OUT / f"{stem}.json").write_text(json.dumps(result, indent=2, sort_keys=True))
    summary = {k: result[k] for k in ("workload", "seed", "attempted", "failed", "problems",
                                      "provenance")}
    summary["end_to_end"] = {k: {"value": v, "unit": UNITS[k]}
                             for k, v in result["end_to_end"].items()}
    print("perfbench " + json.dumps(summary, sort_keys=True))
    if result["trace"]:
        metrics = {m["name"]: {"value": result["per_layer"].get(m["name"], 0), "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        metrics = {m["name"]: {"value": result["end_to_end"][m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))


def run_all(args):
    """Every workload in its own process; prints a table and a combined line."""
    cols = ("wall_s", "cpu_s", "setup_s", "peak_rss_mb", "failed_frac", "err")
    print(f"{'workload':<14}" + "".join(f"{c + ' [' + UNITS[c] + ']':>20}" for c in cols))
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"{name:<14} failed (exit {proc.returncode}): {proc.stderr.strip()[-300:]}")
            combined["correct"] = False
            continue
        summary = json.loads(lines[-2].split(" ", 1)[1])
        final = json.loads(lines[-1])
        e2e = summary["end_to_end"]
        print(f"{name:<14}" + "".join(
            f"{e2e[c]['value']:>20.6g}" if c in e2e else f"{'-':>20}" for c in cols))
        for problem in summary["problems"]:
            print(f"  problem: {problem}")
        combined["correct"] &= final["correct"]
        combined["attempted"] += final["attempted"]
        combined["failed"] += final["failed"]
        for k, v in final["metrics"].items():
            combined["metrics"][f"{name}.{k}"] = v
    print(json.dumps(combined))
    return 0


def _parser():
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny inputs for the self-tests")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p


def main(argv=None):
    args = _parser().parse_args(argv)
    if not (SRC / "decrem" / "__init__.py").is_file():
        print(f"error: no decrem package under {SRC}", file=sys.stderr)
        return 2
    if not (ROOT / "BENCHMARK.json").is_file():
        print("error: BENCHMARK.json not found at the repository root", file=sys.stderr)
        return 2
    nproc = single_thread()
    if args.workload == "all":
        return run_all(args)
    t = time.perf_counter()
    pin_fastest_cpu()
    sys.path.insert(0, str(HERE))
    result = measure(args, overhead_s=time.perf_counter() - t)
    if args.setup_only:
        print(json.dumps(result))
        return 0
    report(result, nproc)
    return 0


if __name__ == "__main__":
    sys.exit(main())
