"""Run the benchmark over several seeds and summarise each metric.

Usage, from the root of a checkout:

    python3 perfbench/collect.py --seeds 10 [--first-seed 0] \
        [--workloads search certify cli] [--trace 0|1] [--out FILE]

Runs `perfbench/run.py` once per workload and seed, one after another, with
the run length from BENCHMARK.json. For each metric it prints the median and
the quartile spread, (Q3 - Q1) / median with quartiles from
statistics.quantiles(values, n=4), beside the metric's bound. --out writes
every run's result, the summaries and the machine to a JSON file.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# ROADMAP "Baseline" figures: single wall-clock runs on 2 vCPU, Python
# 3.11.7, numpy 2.4.6, scipy 1.17.1, before this benchmark existed.
ROADMAP_BASELINE = {"cli.import_s": 0.59, "sic.residual_s.N24": 0.85e-3,
                    "sic.residual_s.N48": 16.8e-3,
                    "weyl.all_displacements_s.N48": 0.114,
                    "weyl.displacement_bytes.N48": 85e6}


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    out = {"median": med, "min": min(values), "max": max(values),
           "n": len(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out["spread"] = (q3 - q1) / med if med else float("nan")
    return out


def roadmap_comparison(report: dict) -> dict:
    """ROADMAP Baseline figures beside the medians over every traced run
    (the probes are the same in every workload) and the runs' speed."""
    runs = [r for w in report["workloads"].values() for r in w["runs"]]
    out = {}
    for name, roadmap in ROADMAP_BASELINE.items():
        median = statistics.median(r["result"]["metrics"][name]["value"]
                                   for r in runs)
        out[name] = {"roadmap": roadmap, "measured_median": median,
                     "measured_over_roadmap": median / roadmap}
    out["speed_factor_median"] = statistics.median(
        r["detail"]["speed_factor"] for r in runs)
    out["runs"] = len(runs)
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    ap.add_argument("--workloads", nargs="+", default=names, choices=names)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    args = ap.parse_args()
    section = "per_layer" if args.trace else "end_to_end"
    bounds = {m["name"]: m.get("bound") for m in bench[section]}

    report = {"run_seconds": bench["run_seconds"], "trace": args.trace,
              "workloads": {}}
    for name in args.workloads:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            t0 = time.perf_counter()
            out = subprocess.run(
                [*bench["command"], "--workload", name, "--seed", str(seed),
                 "--seconds", str(bench["run_seconds"]),
                 "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=900)
            if out.returncode != 0:
                sys.stderr.write(out.stderr)
                return 1
            lines = out.stdout.strip().splitlines()
            result, detail = json.loads(lines[-1]), json.loads(lines[-2])
            runs.append({"seed": seed, "wall_s": time.perf_counter() - t0,
                         "result": result, "detail": detail})
            print(f"{name} seed {seed}: {time.perf_counter() - t0:.1f} s, "
                  f"correct={result['correct']} attempted={result['attempted']}"
                  f" failed={result['failed']}", flush=True)
        metrics = {}
        for metric in bounds:
            values = [r["result"]["metrics"][metric]["value"] for r in runs]
            metrics[metric] = summarise(values)
            metrics[metric]["bound"] = bounds[metric]
        report["workloads"][name] = {"metrics": metrics, "runs": runs,
                                     "environment": runs[0]["detail"]
                                     ["environment"]}
        for metric, s in metrics.items():
            bound = "" if s["bound"] is None else f"  bound {s['bound']}"
            print(f"  {metric:40s} median {s['median']:.6g}  spread "
                  f"{s.get('spread', float('nan')):.4f}{bound}")
    if args.trace:
        report["roadmap_baseline"] = roadmap_comparison(report)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
