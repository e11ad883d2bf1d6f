"""whsic benchmark harness: one workload, one process, a JSON result.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload search|certify|cli --seed N \
        --seconds S --trace 0|1

--trace 0 runs the workload closed-loop (one op after another) for at least
S seconds, ending on a whole pass, and reports the end-to-end metrics.
--trace 1 runs the same passes untraced and then traced with spans around
every call into the whsic modules, runs the fixed per-layer probes of
layers.py, and reports the per-layer metrics and the tracing overhead; the
spans go to .perfbench_out/trace-<workload>-seed<N>.json.

The last line of stdout is {"correct", "attempted", "failed", "metrics"}; the
line before it gives per-kind details and the machine. BLAS and OpenMP pools
are pinned to one thread in this process and in every child.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import calibrate  # noqa: E402  (these import no numpy at module level)
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
WORKLOADS = ("search", "certify", "cli")
SETUP_RUNS = 3   # this process plus two set-up-only children
PROBE_TIMEOUT_S = 45.0


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print the set-up seconds and exit")
    return ap.parse_args(argv)


def setup(name: str, seed: int, workdir: str):
    """Imports, input generation and warm-up before the first timed op."""
    wl = workloads.make(name, seed % 2**63, str(SRC), workdir)
    wl.warm_up()
    return wl


def setup_samples(args, own: float):
    """Set-up seconds of this process and of set-up-only children, and the
    calibration factor of process-start references timed between them."""
    ref = calibrate.Calibrator(calibrate.interpreter_start,
                               calibrate.START_NOMINAL_S, 0.0)
    ref.sample()
    samples = [own]
    for _ in range(SETUP_RUNS - 1):
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            capture_output=True, text=True, check=True, timeout=20)
        samples.append(float(out.stdout.strip().splitlines()[-1]))
        ref.sample()
    return samples, ref.factor()


def measure(wl, until: float, deadline: float, tracer=None, passes=None,
            first_id=0, cal=None):
    """Run whole passes until the clock passes `until` (or `passes` of them).

    No op starts after `deadline`, so a pass that keeps timing out is cut
    short. A Calibrator times its reference between ops, and that time is
    left out of the wall time. Returns (results, passes run, wall seconds).
    """
    timeout = workloads.TIMEOUT_S[wl.name]
    results = []
    done = 0
    spent = cal.spent_s if cal else 0.0
    t_start = time.perf_counter()
    while passes is None or done < passes:
        for op in wl.next_pass():
            if time.perf_counter() > deadline:
                break
            if cal:
                cal.sample()
            op_id = first_id + len(results)
            results.append(workloads.run_op(op, timeout, tracer, op_id))
            path = op.meta.get("spans_path")
            if tracer is not None and path and os.path.exists(path):
                with open(path) as fh:
                    tracer.adopt(json.load(fh)["spans"], op.meta["span"], op_id)
        done += 1
        now = time.perf_counter()
        if passes is None and now >= until or now > deadline:
            break
    wall = time.perf_counter() - t_start
    return results, done, wall - (cal.spent_s - spent if cal else 0.0)


def last_start(workload: str, seconds: float) -> float:
    """The clock value after which no op starts, one op timeout past the run."""
    return time.perf_counter() + seconds + workloads.TIMEOUT_S[workload]


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolating between order statistics."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(name: str, results, wall: float, setup_s: float,
               speed: float = 1.0) -> dict:
    """The end-to-end metrics, with the op times multiplied by `speed`."""
    lat = [r.seconds * speed for r in results if r.ok]
    wall *= speed
    if name == "cli":
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    m = {"setup_s": (setup_s, "s"),
         "ops_per_s": (len(lat) / wall, "1/s"),
         "op_p50_s": (statistics.median(lat) if lat else float("inf"), "s"),
         "op_p90_s": (quantile(lat, 90) if lat else float("inf"), "s"),
         "peak_rss_mb": (rss_kb / 1024.0, "MB")}
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def per_kind(results) -> dict:
    kinds: dict = {}
    for r in results:
        kinds.setdefault(r.kind, []).append(r)
    return {k: {"ops": len(rs), "failed": sum(not r.ok for r in rs),
                "p50_s": statistics.median(r.seconds for r in rs)}
            for k, rs in sorted(kinds.items())}


def environment() -> dict:
    from importlib import metadata

    def read(path):
        try:
            return Path(path).read_text().strip()
        except OSError:
            return None

    model = None
    for line in (read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(cache_dir.glob("index*")):
        level, kind = read(idx / "level"), read(idx / "type")
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = read(idx / "size")
    env = {"nproc": len(os.sched_getaffinity(0)), "cpu_model": model,
           "caches": caches, "python": sys.version.split()[0],
           "threads": {v: os.environ.get(v) for v in THREAD_VARS}}
    for pkg in ("numpy", "scipy"):
        try:
            env[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            env[pkg] = None
    try:
        import numpy
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (ImportError, KeyError, TypeError):
        env["blas"] = None
    return env


def run_traced(args, wl, workdir: str):
    """Layer probes, then each pass both untraced and traced.

    Per-layer times are not calibrated; `speed_factor` in the detail line
    says how fast the machine ran against the reference (1 = nominal).
    """
    import layers

    cal = wl.calibrator()
    cal.sample(force=True)
    tracer = Tracer()
    tracer.install()
    child_env = dict(os.environ, PYTHONPATH=str(SRC))
    probe_out = {}

    def probe():
        probe_out["metrics"], probe_out["checks"] = layers.probe_all(
            tracer, child_env, workdir)
        return probe_out["checks"]

    probe_res = workloads.run_op(
        workloads.Op("probe.layers", probe,
                     lambda checks: (all(ok for _, ok in checks),
                                     ", ".join(n for n, ok in checks if not ok))),
        PROBE_TIMEOUT_S)
    tracer.uninstall()

    # same seed, same passes; alternating which half goes first cancels
    # drift between the halves
    traced_wl = workloads.make(args.workload, args.seed % 2**63, str(SRC),
                               workdir, str(HERE / "child.py"))
    first = len(tracer.spans)
    plain, traced = [], []
    plain_wall = traced_wall = 0.0
    passes = 0
    t_start = time.perf_counter()
    stop = last_start(args.workload, args.seconds)
    while time.perf_counter() - t_start < args.seconds:
        for with_spans in ((False, True), (True, False))[passes % 2]:
            cal.sample(force=True)
            if with_spans:
                tracer.install()
                res, _, wall = measure(traced_wl, 0, stop, tracer, 1,
                                       len(traced))
                tracer.uninstall()
                traced += res
                traced_wall += wall
            else:
                res, _, wall = measure(wl, 0, stop, passes=1)
                plain += res
                plain_wall += wall
        passes += 1

    self_times = tracer.self_times(first)
    layer_self: dict = {}
    for fn, row in self_times.items():
        layer = fn.split(".")[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + row["self_s"]
    OUT.mkdir(exist_ok=True)
    trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    tracer.dump(trace_path, {"workload": args.workload, "seed": args.seed,
                             "workload_first_span": first,
                             "self_times": self_times})

    metrics = {}
    for name, value in (probe_out.get("metrics") or {}).items():
        metrics[name] = {"value": value, "unit": layers.UNITS.get(name, "s")}
    overhead = traced_wall - plain_wall
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    metrics["trace.overhead_frac"] = {"value": overhead / plain_wall,
                                      "unit": "ratio"}
    checks = probe_out.get("checks") or [("layer probes finished", False)]
    failed = (sum(not r.ok for r in plain + traced)
              + sum(not ok for _, ok in checks))
    detail = {"passes": passes, "speed_factor": cal.factor(),
              "untraced_wall_s": plain_wall,
              "traced_wall_s": traced_wall,
              "trace_file": str(trace_path.relative_to(ROOT)),
              "spans": len(tracer.spans), "layer_self_s": layer_self,
              "probe": probe_res.note or "ok", "ops": per_kind(traced)}
    return metrics, len(plain) + len(traced) + len(checks), failed, \
        plain + traced, detail


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "whsic" / "__init__.py").is_file():
        sys.stderr.write(f"no whsic sources under {SRC}; run from the root "
                         "of a whsic checkout\n")
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"tmp-{os.getpid()}"
    workdir.mkdir()
    try:
        wl = setup(args.workload, args.seed, str(workdir))
        own_setup = time.perf_counter() - T0
        import whsic
        if Path(whsic.__file__).resolve().parent != SRC / "whsic":
            sys.stderr.write(f"whsic imported from {whsic.__file__}\n")
            return 2
        if args.setup_only:
            print(own_setup)
            return 0
        if args.trace:
            metrics, attempted, failed, results, detail = run_traced(
                args, wl, str(workdir))
        else:
            samples, setup_speed = setup_samples(args, own_setup)
            cal = wl.calibrator()
            results, passes, wall = measure(
                wl, time.perf_counter() + args.seconds,
                last_start(args.workload, args.seconds), cal=cal)
            cal.sample(force=True)
            setup_s = statistics.median(samples)
            metrics = end_to_end(args.workload, results, wall,
                                 setup_s * setup_speed, cal.factor())
            attempted = len(results)
            failed = sum(not r.ok for r in results)
            raw = end_to_end(args.workload, results, wall, setup_s)
            detail = {"passes": passes, "wall_s": wall,
                      "setup_samples_s": samples,
                      "setup_speed_factor": setup_speed,
                      "speed_factor": cal.factor(),
                      "reference_samples_s": cal.samples,
                      "uncalibrated": {k: v["value"] for k, v in raw.items()},
                      "ops": per_kind(results)}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    notes = [f"{r.kind}: {r.note}" for r in results if not r.ok][:10]
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "trace": args.trace, **detail, "failures": notes,
                      "environment": environment()}))
    print(json.dumps({"correct": failed == 0 and attempted > 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
