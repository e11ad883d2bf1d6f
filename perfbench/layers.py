"""Fixed per-layer probes, run with spans recorded in every traced run.

Each probe calls one layer's public functions on fixed inputs, so its numbers
do not depend on the workload or the seed. Times are span durations (median
over repeats); counts come from the spans and the returned objects and repeat
exactly for fixed inputs.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time

import numpy as np

from whsic import (adapted16, clifford, crt, fileio, monomial, mub, sic,
                   weyl)
from whsic.dims import Dimension

DISPLACEMENT_DIMS = (8, 16, 24, 32, 48)
CONJUGATION_DIMS = (16, 25, 36)
SEARCH_PROBE = (16, 0)   # (N, rng_seed): 5 restarts on the seed code

# Units of the metrics that are not seconds; counts repeat exactly.
UNITS = {"weyl.displacement_bytes.N48": "B", "fileio.bytes_written": "B",
         "sic.objective_calls": "count", "sic.restarts": "count",
         "sic.fiducials_per_restart": "ratio",
         "clifford.conjugations_per_check.N36": "count"}

IMPORT_SNIPPET = ("import time; t = time.perf_counter(); import whsic.cli; "
                  "print(time.perf_counter() - t)")


def _timed(tracer, fn, repeats: int):
    """(median duration of the outermost span fn opens, last output)."""
    durations = []
    for _ in range(repeats):
        first = len(tracer.spans)
        out = fn()
        _, start, end, _, _ = tracer.spans[first]
        durations.append(end - start)
    return statistics.median(durations), out


def _spans_under(tracer, root: int, name: str) -> list[list]:
    """Spans called `name` that descend from span index `root`."""
    inside = {root}
    found = []
    for idx in range(root + 1, len(tracer.spans)):
        span = tracer.spans[idx]
        if span[3] in inside:
            inside.add(idx)
            if span[0] == name:
                found.append(span)
    return found


def probe_cli(env: dict, repeats: int = 3) -> dict:
    """Bare interpreter start plus `import whsic.cli`, in fresh processes."""
    walls, imports = [], []
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = subprocess.run([sys.executable, "-c", IMPORT_SNIPPET], env=env,
                             capture_output=True, text=True, check=True)
        walls.append(time.perf_counter() - t0)
        imports.append(float(out.stdout.strip().splitlines()[-1]))
    return {"cli.startup_s": statistics.median(walls),
            "cli.import_s": statistics.median(imports)}


def probe_weyl_sic(tracer, checks: list) -> dict:
    m = {}
    rng = np.random.default_rng(0)
    for N in DISPLACEMENT_DIMS:
        dim = Dimension(N)
        reps = 5 if N <= 24 else 3
        t, D = _timed(tracer, lambda: weyl.all_displacements(dim), reps)
        m[f"weyl.all_displacements_s.N{N}"] = t
        if N == DISPLACEMENT_DIMS[-1]:
            m[f"weyl.displacement_bytes.N{N}"] = D.nbytes  # computed
        psi = rng.standard_normal(N) + 1j * rng.standard_normal(N)
        psi /= np.linalg.norm(psi)
        calls = max(5, 2000 // (N * N))
        t, r = _timed(tracer, lambda: sic.sic_residual(psi, D, N), calls)
        m[f"sic.residual_s.N{N}"] = t
        checks.append((f"sic_residual N={N} finite", bool(np.isfinite(r))))
    return m


def probe_search(tracer, checks: list, workdir: str) -> dict:
    N, seed = SEARCH_PROBE
    first = len(tracer.spans)
    f = sic.search_fiducial(Dimension(N), rng_seed=seed)
    _, start, end, _, _ = tracer.spans[first]
    checks.append((f"search N={N} found a fiducial", f is not None))
    residual = _spans_under(tracer, first, "sic.sic_residual")
    restarts = f.provenance["restart"] + 1 if f is not None else 50
    m = {"sic.objective_calls": len(residual),
         "sic.restarts": restarts,
         "sic.fiducials_per_restart": (f is not None) / restarts,
         "sic.search_s": end - start,
         "sic.search_self_s": (end - start)
         - sum(e - s for _, s, e, _, _ in residual)}
    if f is not None:
        cert = sic.verify_sic(f, 1e-8)
        checks.append((f"searched N={N} fiducial verifies", cert.passed))
        path = os.path.join(workdir, "probe-fiducial.json")
        m["fileio.write_s"], _ = _timed(
            tracer, lambda: fileio.save_fiducial(f, path), 5)
        m["fileio.read_s"], g = _timed(
            tracer, lambda: fileio.load_fiducial(path), 5)
        m["fileio.bytes_written"] = os.path.getsize(path)
        checks.append(("fiducial file round-trips",
                       bool(np.array_equal(g.amplitudes, f.amplitudes))))
    f16 = sic.fiducial_n16()
    m["sic.verify_s"], cert = _timed(tracer, lambda: sic.verify_sic(f16, 1e-8), 5)
    checks.append(("N=16 closed form verifies", cert.passed))
    m["adapted16.fiducial_vector_s"], _ = _timed(
        tracer, lambda: adapted16.fiducial_vector(), 5)
    return m


def probe_clifford_monomial(tracer, checks: list) -> dict:
    m = {}
    for N in CONJUGATION_DIMS:
        dim = Dimension(N)
        G = clifford.random_symplectic(dim, np.random.default_rng(N))
        X, Z = monomial.monomial_weyl_generators(dim)
        D = weyl.all_displacements(dim, X, Z)
        U = monomial.monomial_clifford(G, dim)
        t, res = _timed(
            tracer, lambda: clifford.conjugation_check_batched(G, dim, U, D), 3)
        m[f"clifford.conjugation_check_s.N{N}"] = t
        checks.append((f"conjugation N={N} below 1e-9", res < 1e-9))
    m[f"clifford.conjugations_per_check.N{N}"] = D.shape[0]
    m["clifford.metaplectic_s"], _ = _timed(
        tracer, lambda: clifford.metaplectic(G, dim), 5)
    m["monomial.clifford_s"], U = _timed(
        tracer, lambda: monomial.monomial_clifford(G, dim), 5)
    m["monomial.phase_permutation_check_s"], ok = _timed(
        tracer, lambda: monomial.is_phase_permutation(U, 1e-10), 5)
    checks.append((f"monomial U at N={N} is a phase permutation", ok))
    m["clifford.zauner_unitary_s"], _ = _timed(
        tracer, lambda: clifford.zauner_unitary(Dimension(24)), 5)
    return m


def probe_mub_crt(tracer, checks: list) -> dict:
    m = {}
    for p in (3, 5, 7):
        m[f"mub.prime_family_s.p{p}"], bases = _timed(
            tracer, lambda: mub.prime_family(p), 3)
    m["mub.is_unbiased_s"], rep = _timed(
        tracer, lambda: mub.is_unbiased(bases[0], bases[-1], 1e-10), 10)
    checks.append(("p=7 bases 0 and 7 are unbiased", rep.passed))
    for N in (12, 30):
        m[f"crt.verify_product_iso_s.N{N}"], dev = _timed(
            tracer, lambda: crt.verify_product_iso(N), 3)
        checks.append((f"CRT isomorphism at N={N}", dev < 1e-9))
    return m


def probe_all(tracer, env: dict, workdir: str) -> tuple[dict, list]:
    """Every per-layer metric and the (name, passed) checks behind them."""
    checks: list = []
    metrics = probe_cli(env)
    tracer.op_id = -2
    metrics |= probe_weyl_sic(tracer, checks)
    metrics |= probe_search(tracer, checks, workdir)
    metrics |= probe_clifford_monomial(tracer, checks)
    metrics |= probe_mub_crt(tracer, checks)
    return metrics, checks
