"""Self-test of the benchmark harness.

Usage, from the root of a checkout:  python3 perfbench/selftest.py

Checks that
- a perturbed fiducial fails the search, file and cli checks and is counted
  as a failed op without ending the run;
- an op that hangs, in-process or in a child process, times out and is
  counted as failed;
- two traced runs with the same seed report every per-layer metric named in
  BENCHMARK.json, and the exact counts (objective calls, restarts,
  conjugations per check, bytes) are identical.
Exits 0 when every check holds.
"""

import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

FAILURES: list[str] = []


def expect(cond: bool, what: str) -> None:
    print(("ok    " if cond else "FAIL  ") + what)
    if not cond:
        FAILURES.append(what)


def perturbed_fiducials(workdir: str) -> None:
    import numpy as np

    import workloads
    from whsic import fileio, sic
    from whsic.dims import Dimension

    search = workloads.SearchWorkload(seed=0, plan={7: (0, 1)})
    good = sic.search_fiducial(Dimension(7), rng_seed=0)
    expect(search.check(good, 7)[0], "searched N=7 fiducial passes the check")
    psi = good.amplitudes.copy()
    psi[0] += 1e-4
    bad = sic.Fiducial(good.dim, good.basis, psi / np.linalg.norm(psi))
    ok, note = search.check(bad, 7)
    expect(not ok, f"perturbed fiducial fails the search check ({note})")

    ops = [workloads.Op("good", lambda: good, lambda f: search.check(f, 7)),
           workloads.Op("bad", lambda: bad, lambda f: search.check(f, 7)),
           workloads.Op("good", lambda: good, lambda f: search.check(f, 7))]
    results = [workloads.run_op(op, 10.0) for op in ops]
    expect([r.ok for r in results] == [True, False, True],
           "a failed op is counted and the ops after it still run")

    path = os.path.join(workdir, "bad.json")
    fileio.save_fiducial(bad, path)
    cli = workloads.CliWorkload(0, str(SRC), workdir)
    op = cli.op("verify.sic.file", ["verify", "sic", "--file", path],
                lambda out: workloads.stdout_pass(out, N=7))
    res = workloads.run_op(op, 60.0)
    expect(not res.ok, f"cli re-verification of the perturbed file fails "
                       f"({res.note.strip()[:60]})")


def timeouts() -> None:
    import workloads

    def spin():
        while True:
            pass

    t0 = time.perf_counter()
    res = workloads.run_op(workloads.Op("spin", spin, lambda _: (True, "")), 0.5)
    expect(not res.ok and "timeout" in res.note
           and time.perf_counter() - t0 < 5, "an in-process hang times out")

    sleeper = [sys.executable, "-c", "import time; time.sleep(30)"]
    t0 = time.perf_counter()
    res = workloads.run_op(workloads.Op(
        "sleep", lambda: subprocess.run(sleeper, capture_output=True),
        lambda _: (True, "")), 0.5)
    expect(not res.ok and "timeout" in res.note
           and time.perf_counter() - t0 < 5, "a hung child process times out")


def traced_counts() -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs = []
    for _ in range(2):
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", "certify",
             "--seed", "7", "--seconds", "1", "--trace", "1"],
            cwd=ROOT, capture_output=True, text=True, timeout=300)
        expect(out.returncode == 0, "traced run exits 0")
        runs.append(json.loads(out.stdout.strip().splitlines()[-1]))
    for run in runs:
        expect(run["correct"] and run["failed"] == 0,
               "traced run is correct with no failed op")
        missing = [m["name"] for m in bench["per_layer"]
                   if m["name"] not in run["metrics"]]
        expect(not missing, f"every per-layer metric is reported {missing}")
    exact = [m["name"] for m in bench["per_layer"]
             if m["unit"] in ("count", "B")] + ["sic.fiducials_per_restart"]
    values = [[r["metrics"][name]["value"] for name in exact] for r in runs]
    expect(values[0] == values[1],
           f"exact counts repeat: {dict(zip(exact, values[0]))}")
    m = runs[0]["metrics"]
    N = 48
    expect(m[f"weyl.displacement_bytes.N{N}"]["value"] == 16 * N**4,
           "computed displacement bytes are 16 N^4")
    expect(m["clifford.conjugations_per_check.N36"]["value"] == 36**2,
           "a conjugation check conjugates N^2 displacements")


def main() -> int:
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out) as workdir:
        perturbed_fiducials(workdir)
    timeouts()
    traced_counts()
    print(f"{len(FAILURES)} failed" if FAILURES else "all checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
