"""qspde benchmark: one closed-loop caller, workers = 1, outputs checked.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is scaling_fit, mc_campaign, solve_norms, or all (every workload,
each in a fresh child process of this one).  The seed orders the pinned
pool of program seeds (see workloads.py); --holdout switches to the
held-out pool.  Every unit's artifacts are hashed and compared with
reference.json.

--trace 0 prints the end-to-end metrics of BENCHMARK.json.  --trace 1
alternates untraced units with units that have every qspde layer
wrapped (spans.py), prints the per-layer metrics, the tracing overhead
and each layer's share, and writes the spans to .bench_out/.  The last
stdout line is one JSON object: correct, attempted, failed, metrics.

The program is imported from src/ of the checkout this file sits in;
without it the benchmark exits 2 and prints no result.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(ROOT, ".bench_out")
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
# setup runs per measured run: this process plus SETUP_PROBES fresh ones
SETUP_PROBES = 2
# realizations_per_s is the unit rate at this fixed percentile of unit time,
# so a parent and a change are compared at the same point of the
# distribution; about ten units of a 35-s run lie beyond it (README.md)
TAIL_PCT = {"scaling_fit": 96.0, "mc_campaign": 91.0, "solve_norms": 50.0}


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _cap_threads() -> None:
    """Cap numpy/BLAS thread pools at nproc before numpy is imported."""
    n = _nproc()
    for var in THREAD_VARS:
        try:
            cur = int(os.environ.get(var, n))
        except ValueError:
            cur = n
        os.environ[var] = str(max(1, min(cur, n)))


def _import_program():
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    sys.path.insert(0, BENCH_DIR)
    try:
        import qspde
    except ImportError as exc:
        print(f"bench: cannot import qspde from {src}: {exc}", file=sys.stderr)
        sys.exit(2)
    if not os.path.abspath(qspde.__file__).startswith(src + os.sep):
        print(f"bench: qspde resolved to {qspde.__file__}, not to {src}", file=sys.stderr)
        sys.exit(2)


def _host() -> dict:
    import numpy
    import scipy

    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), model)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": _nproc(),
        "cpu_model": model,
        "machine": platform.machine(),
        "threads_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "workers": 1,
    }


def _probe_setup(name: str, args, pool: str) -> float:
    """Setup time of a fresh process: import, config parse, warm-up unit."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe", "--workload", name,
           "--seed", str(args.seed), "--seconds", "0"]
    if pool == "holdout":
        cmd.append("--holdout")
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed ({proc.returncode}): {proc.stderr.strip()[-500:]}")
    return float(proc.stdout.strip().splitlines()[-1])


class Run:
    """Measures one workload: warm-up, timed closed loop, digest checks."""

    def __init__(self, name: str, seed: int, pool: str, reference: dict):
        from workloads import REALIZATIONS, Workload, seed_order

        self.name = name
        self.per_unit = REALIZATIONS[name]
        self.seeds = seed_order(name, seed, pool)
        self.expected = reference["workloads"][name][pool]
        self.workdir = os.path.join(OUT_DIR, f"{name}-{os.getpid()}")
        self.workload = Workload(name, self.workdir)
        self.attempted = 0
        self.failed = 0
        self._next = 0

    def unit(self):
        """One unit on the next pool seed; returns its seconds, or None if it failed."""
        seed = self.seeds[self._next % len(self.seeds)]
        self._next += 1
        self.attempted += self.per_unit
        try:
            elapsed, digests = self.workload.run_unit(seed)
        except Exception as exc:  # a failed unit is counted, the run goes on
            print(f"bench: {self.name} seed={seed} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            self.failed += self.per_unit
            return None
        want = self.expected.get(str(seed))
        if digests != want:
            bad = sorted(k for k in digests if want is None or digests[k] != want.get(k))
            print(f"bench: {self.name} seed={seed} differs from reference: {bad}", file=sys.stderr)
            self.failed += self.per_unit
            return None
        return elapsed

    def loop(self, seconds: float) -> list:
        """Closed loop for `seconds`; the per-unit times of units that passed."""
        times = []
        deadline = time.perf_counter() + seconds
        while True:
            t = self.unit()
            if t is not None:
                times.append(t)
            if time.perf_counter() >= deadline:
                return times

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


def _percentile(values: list, pct: float) -> float:
    """Linear-interpolated percentile of `values` (pct in 0..100)."""
    v = sorted(values)
    pos = pct / 100.0 * (len(v) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def _rates(times: list, per_unit: int, pct: float) -> dict:
    """Unit-rate statistics of one run.

    "tail" is the unit rate at the pct-th percentile of unit time.  It is
    the reported realizations_per_s: on a shared host the median unit
    flips between a fast and a contended speed from run to run, while the
    slow tail holds (see README.md).
    """
    if not times:
        return {"mean": 0.0, "median": 0.0, "tail": 0.0, "beyond": 0, "n": 0}
    slow = _percentile(times, pct)
    return {
        "mean": per_unit * len(times) / sum(times),
        "median": per_unit / statistics.median(times),
        "tail": per_unit / slow,
        "beyond": sum(t > slow for t in times),
        "n": len(times),
    }


SHARES = (
    ("spectral_noise.sample", "spectral_noise.sample.busy_s"),
    ("spectral_noise.evaluate", "spectral_noise.evaluate.busy_s"),
    ("spectral_noise.qspd_io", "spectral_noise.qspd_io.busy_s"),
    ("solver.solve", "solver.solve.busy_s"),
    ("  of which nonlinearity.flux", "nonlinearity.flux.busy_s"),
    ("hoelder", "hoelder.busy_s"),
    ("mc_harness (self)", "mc_harness.self_s"),
    ("config.parse", "config.parse.busy_s"),
    ("cli (self)", "cli.self_s"),
)


def _measure_traced(run, name, args, pool, spec) -> dict:
    """Alternate traced and untraced units, so host drift hits both alike."""
    import spans

    tracer = spans.Tracer(name, f"{name}-{args.seed}-{os.getpid()}-{time.time_ns()}")
    plain, traced = [], []
    deadline = time.perf_counter() + args.seconds
    while True:
        tracer.begin_unit()
        tracer.install()
        try:
            t = run.unit()
        finally:
            tracer.uninstall()
        if t is not None:
            traced.append(t)
        t = run.unit()
        if t is not None:
            plain.append(t)
        if time.perf_counter() >= deadline:
            break
    units = len(tracer.unit_counts)
    per = {k: v / units for k, v in tracer.summary().items()}
    steps = per.get("solver.solve.steps", 0)
    per["solver.solve.us_per_step"] = per.get("solver.solve.busy_s", 0.0) / steps * 1e6 if steps else 0.0
    per["unit.program_s"] = prog = sum(traced) / max(len(traced), 1)
    per["tracing.overhead_frac"] = (
        statistics.median(traced) / statistics.median(plain) - 1.0 if traced and plain else 0.0
    )

    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"trace-{name}-seed{args.seed}.npz")
    tracer.save(path, {"seed": args.seed, "pool": pool, "host": _host(), "per_unit": per})
    repeat = tracer.counts_repeat()
    print(f"{name}: traced {units} units, {len(tracer.start)} spans -> {os.path.relpath(path, ROOT)}; "
          f"work counts {'repeat' if repeat else 'DIFFER'} across units; "
          f"tracing overhead {100 * per['tracing.overhead_frac']:.1f}% "
          f"(median of {len(traced)} traced vs {len(plain)} untraced interleaved units)")
    shares = [(label, per.get(key, 0.0) / prog if prog else 0.0) for label, key in SHARES]
    for label, share in shares:
        print(f"  {label:30s} {100 * share:6.1f}% of program time")
    top = max((s for s in shares if not s[0].startswith(" ")), key=lambda s: s[1])
    print(f"  dominant: {top[0]}")
    metrics = {m["name"]: {"value": per.get(m["name"], 0), "unit": m["unit"]} for m in spec["per_layer"]}
    return {"metrics": metrics, "counts_repeat": repeat}


def _measure_plain(run, name, args, pool, spec, setup) -> dict:
    setup = setup + [_probe_setup(name, args, pool) for _ in range(SETUP_PROBES)]
    r = _rates(run.loop(args.seconds), run.per_unit, TAIL_PCT[name])
    values = {
        "setup_s": statistics.median(setup),
        "realizations_per_s": r["tail"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    print(f"{name}: {r['n']} units of {run.per_unit} realization(s); realizations_per_s = unit rate "
          f"at p{TAIL_PCT[name]:g} of unit time, {r['beyond']} slower units beyond it; "
          f"median unit rate {r['median']:.6g}/s; "
          f"run mean {r['mean']:.6g}/s; setup_s = median of {len(setup)} set-ups")
    return {"metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}}


def run_workload(name, args, pool, reference, spec) -> dict:
    run = Run(name, args.seed, pool, reference)
    try:
        warm = run.unit()
        setup = [time.perf_counter() - T_START]
        if warm is None:
            return {"correct": False, "attempted": run.attempted, "failed": run.failed, "metrics": {}}
        if args.setup_probe:
            return {"setup": setup[0]}
        # the warm-up belongs to set-up, not to the measured units
        run.attempted = run.failed = 0
        if args.trace:
            result = _measure_traced(run, name, args, pool, spec)
        else:
            result = _measure_plain(run, name, args, pool, spec, setup)
        frac = run.failed / run.attempted if run.attempted else 0.0
        print(f"{name}: failed_frac {frac:.4g} ({run.failed}/{run.attempted} realizations)")
        for key, m in result["metrics"].items():
            print(f"  {key} = {m['value']:.6g} {m['unit']}")
        result.update(correct=run.failed == 0, attempted=max(run.attempted, 1), failed=run.failed)
        return result
    finally:
        run.close()


def run_all(args, names) -> int:
    """Every workload in a fresh child process, so each has its own set-up and peak RSS."""
    results = {}
    for name in names:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.holdout:
            cmd.append("--holdout")
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=args.seconds + 150)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"bench: workload {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]), flush=True)
        results[name] = json.loads(lines[-1])
    final = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
    }
    print(json.dumps(final))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, help="scaling_fit, mc_campaign, solve_norms or all")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--holdout", action="store_true", help="use the held-out seed pool")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    _cap_threads()
    _import_program()
    from workloads import NAMES

    if args.workload not in NAMES + ("all",):
        p.error(f"--workload must be one of {', '.join(NAMES)} or all")
    if args.workload == "all":
        return run_all(args, NAMES)
    name = args.workload
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    with open(os.path.join(BENCH_DIR, "reference.json")) as fh:
        reference = json.load(fh)
    pool = "holdout" if args.holdout else "dev"

    if args.setup_probe:
        out = run_workload(name, args, pool, reference, spec)
        if "setup" not in out:
            return 1
        print(repr(out["setup"]))
        return 0

    load0 = os.getloadavg()
    result = run_workload(name, args, pool, reference, spec)
    host = dict(_host(), loadavg_start=load0, loadavg_end=os.getloadavg(), seed=args.seed, pool=pool)
    print(json.dumps({"host": host}, sort_keys=True))
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
