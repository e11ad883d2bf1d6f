"""The benchmark's workloads: closed loops of checked whsic operations.

A workload is a sequence of passes. Every pass holds the same multiset of op
kinds; the workload seed fixes the order of the ops in each pass and the
inputs that do not change the amount of work (symplectic samples, CRT sample
seeds, closed-form parameters). The run always ends on a whole pass, so each
run measures the same op mix.

Search start seeds are the exception: `search_fiducial` returns at the first
restart that converges, and restart counts are geometric in the start point
(N = 24 took 1.9 to 13.3 s over rng seeds 0-5), so seed-derived starts would
make the work per run differ by a factor of two. Each search dimension has a
fixed start seed instead (SEARCH_PASS).
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field

import calibrate

# N: (rng_seed, ops per pass). The seed is the first one at that N whose
# first restart converges on the code the benchmark was written against, so
# an op is one restart and a pass is short enough for a run to hold many
# samples of every op kind; restart counts are measured by the sic.restarts
# probe instead. The counts put the median in the middle of the N = 20 ops
# (20-80 % of a pass) and the 90th percentile in the middle of the N = 24
# ops (80-100 %), never on the edge between two kinds, where it would jump.
SEARCH_PASS = {8: (0, 1), 12: (1, 1), 16: (1, 1), 20: (4, 9), 24: (13, 3)}
MONOMIAL_DIMS = (16, 25, 36)
MONOMIAL_PER_PASS = 4
MUB_PRIMES = (3, 5, 7)
CRT_DIMS = (12, 30)
SEARCH_TOL = 1e-8
E0_TOL = 1e-8

# Per-op time limits; a timed-out op counts as failed and the run goes on.
TIMEOUT_S = {"search": 40.0, "certify": 20.0, "cli": 30.0}


class OpTimeout(Exception):
    pass


def _raise_timeout(signum, frame):
    raise OpTimeout()


@dataclass
class Op:
    kind: str
    run: object            # () -> output
    check: object          # output -> (ok, note)
    meta: dict = field(default_factory=dict)


@dataclass
class OpResult:
    kind: str
    seconds: float
    ok: bool
    note: str = ""


def run_op(op: Op, timeout: float, tracer=None, op_id: int = -1) -> OpResult:
    """Run one op under a wall-clock alarm; only op.run is timed.

    Failures, exceptions and timeouts are returned, never raised.
    """
    signal.signal(signal.SIGALRM, _raise_timeout)
    span = None
    t0 = time.perf_counter()
    seconds = 0.0
    try:
        signal.setitimer(signal.ITIMER_REAL, timeout)
        try:
            if tracer is not None:
                tracer.op_id = op_id
                span = tracer.begin(f"op.{op.kind}")
            try:
                t0 = time.perf_counter()
                out = op.run()
                seconds = time.perf_counter() - t0
            finally:
                if span is not None:
                    tracer.end(span)
            if tracer is not None:
                op.meta["span"] = span
            ok, note = op.check(out)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except OpTimeout:
        return OpResult(op.kind, time.perf_counter() - t0, False,
                        f"timeout after {timeout} s")
    except Exception as exc:  # one bad op must not end the run
        return OpResult(op.kind, time.perf_counter() - t0, False,
                        f"{type(exc).__name__}: {exc}")
    return OpResult(op.kind, seconds, bool(ok), note)


def _verdict(ok: bool, what: str) -> tuple[bool, str]:
    return ok, "" if ok else what


# ---------------------------------------------------------------------------
# search: numerical fiducial searches at fixed start seeds
# ---------------------------------------------------------------------------

class SearchWorkload:
    name = "search"

    def __init__(self, seed: int, plan=SEARCH_PASS):
        import numpy as np
        from whsic import clifford
        from whsic.dims import Dimension

        self.np = np
        self.rng = np.random.default_rng(seed)
        self.plan = plan
        self.zauner = {N: clifford.zauner_unitary(Dimension(N)) for N in plan}

    def warm_up(self) -> None:
        from whsic import sic
        from whsic.dims import Dimension
        sic.search_fiducial(Dimension(5), rng_seed=0)

    def calibrator(self) -> calibrate.Calibrator:
        return calibrate.Calibrator(calibrate.python_loop,
                                    calibrate.LOOP_NOMINAL_S, 0.25)

    def next_pass(self) -> list[Op]:
        ops = [self.op(N, rng_seed) for N, (rng_seed, count) in self.plan.items()
               for _ in range(count)]
        return [ops[i] for i in self.rng.permutation(len(ops))]

    def op(self, N: int, rng_seed: int) -> Op:
        from whsic import sic
        from whsic.dims import Dimension
        return Op(f"search.N{N}",
                  lambda: sic.search_fiducial(Dimension(N), rng_seed=rng_seed),
                  lambda f: self.check(f, N))

    def check(self, f, N: int) -> tuple[bool, str]:
        from whsic import sic
        if f is None:
            return False, "no fiducial found"
        if f.dim.N != N or f.basis != "standard":
            return False, f"wrong dimension or basis: {f.dim.N}, {f.basis}"
        cert = sic.verify_sic(f, SEARCH_TOL)
        if not cert.passed:
            return False, f"verify_sic deviation {cert.max_abs_deviation:.3e}"
        psi = f.amplitudes
        drift = float(self.np.linalg.norm(self.zauner[N] @ psi - psi))
        return _verdict(drift <= E0_TOL, f"|U psi - psi| = {drift:.3e}")


# ---------------------------------------------------------------------------
# certify: dense certificates of closed forms and group structure
# ---------------------------------------------------------------------------

def _sic_family(fiducials, tol):
    from whsic import sic
    return max(sic.verify_sic(f, tol).max_abs_deviation for f in fiducials())


def _n4_all():
    from whsic import sic
    return [sic.fiducial_n4(slot, s, t, u) for slot in range(4)
            for s in range(4) for t in range(4) for u in range(4)]


def _n9_all():
    from whsic import sic
    return [sic.fiducial_n9(s0, s1, s2, m3, m4) for s0 in (1, -1)
            for s1 in (1, -1) for s2 in (1, -1) for m3 in range(3)
            for m4 in range(3)]


def _n16_all():
    from whsic import sic
    return [sic.fiducial_n16(t2, conj) for t2 in (1, -1)
            for conj in (False, True)]


def monomial_certificate(G, N: int):
    """(U is a phase permutation, worst conjugation residual) for G at N."""
    from whsic import clifford, monomial, weyl
    from whsic.dims import Dimension
    dim = Dimension(N)
    X, Z = monomial.monomial_weyl_generators(dim)
    D = weyl.all_displacements(dim, X, Z)
    U = monomial.monomial_clifford(G, dim)
    return (monomial.is_phase_permutation(U, 1e-10),
            clifford.conjugation_check_batched(G, dim, U, D))


def mub_certificate(p: int):
    """(number of bases, worst pairwise unbiasedness deviation)."""
    from whsic import mub
    bases = mub.prime_family(p)
    worst = max(mub.is_unbiased(bases[i], bases[j], 1e-10).max_abs_deviation
                for i in range(len(bases)) for j in range(i + 1, len(bases)))
    return len(bases), worst


class CertifyWorkload:
    name = "certify"

    def __init__(self, seed: int):
        import numpy as np
        self.rng = np.random.default_rng(seed)

    def warm_up(self) -> None:
        from whsic import crt, sic
        from whsic.clifford import ZAUNER
        sic.verify_sic(sic.fiducial_n4(0, 0, 0, 0), 1e-10)
        monomial_certificate(ZAUNER, 4)
        mub_certificate(2)
        crt.verify_product_iso(6, n_symplectic=2)

    def calibrator(self) -> calibrate.Calibrator:
        return calibrate.Calibrator(calibrate.python_loop,
                                    calibrate.LOOP_NOMINAL_S, 0.25)

    def next_pass(self) -> list[Op]:
        from whsic import clifford, crt
        from whsic.dims import Dimension
        ops = [
            Op("sic.n4", lambda: _sic_family(_n4_all, 1e-10),
               lambda d: _verdict(d <= 1e-10, f"N=4 deviation {d:.3e}")),
            Op("sic.n9", lambda: _sic_family(_n9_all, 1e-10),
               lambda d: _verdict(d <= 1e-10, f"N=9 deviation {d:.3e}")),
            Op("sic.n16", lambda: _sic_family(_n16_all, 1e-8),
               lambda d: _verdict(d <= 1e-8, f"N=16 deviation {d:.3e}")),
        ]
        for N in MONOMIAL_DIMS:
            for _ in range(MONOMIAL_PER_PASS):
                G = clifford.random_symplectic(Dimension(N), self.rng)
                ops.append(Op(
                    f"monomial.N{N}",
                    lambda G=G, N=N: monomial_certificate(G, N),
                    lambda r: _verdict(r[0] and r[1] < 1e-9,
                                       f"phase perm {r[0]}, residual {r[1]:.3e}")))
        for p in MUB_PRIMES:
            ops.append(Op(f"mub.p{p}", lambda p=p: mub_certificate(p),
                          lambda r, p=p: _verdict(
                              r[0] == p + 1 and r[1] <= 1e-10,
                              f"{r[0]} bases, deviation {r[1]:.3e}")))
        for N in CRT_DIMS:
            sub = int(self.rng.integers(2**31))
            ops.append(Op(f"crt.N{N}",
                          lambda N=N, sub=sub: crt.verify_product_iso(
                              N, rng_seed=sub),
                          lambda d: _verdict(d < 1e-9, f"deviation {d:.3e}")))
        return [ops[i] for i in self.rng.permutation(len(ops))]


# ---------------------------------------------------------------------------
# cli: one `python -m whsic.cli` process per op
# ---------------------------------------------------------------------------

class CliWorkload:
    name = "cli"

    def __init__(self, seed: int, src: str, workdir: str,
                 trace_child: str | None = None):
        import random
        self.rng = random.Random(seed)
        self.workdir = workdir
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)
        # traced runs start each command through a wrapper script that
        # records spans in the child and writes them to a per-op file
        self.trace_child = trace_child
        self.count = 0

    def warm_up(self) -> None:
        out = self._run(["verify", "sic", "--builtin", "n4"], None)
        if out.returncode != 0:
            raise RuntimeError(f"warm-up command failed: {out.stderr[-500:]}")

    def calibrator(self) -> calibrate.Calibrator:
        return calibrate.Calibrator(
            lambda: calibrate.interpreter_start(self.env),
            calibrate.START_NOMINAL_S, 1.5)

    def _run(self, argv: list[str], spans_path: str | None):
        if spans_path is None:
            prefix = [sys.executable, "-m", "whsic.cli"]
        else:
            prefix = [sys.executable, self.trace_child, spans_path]
        return subprocess.run(prefix + argv, env=self.env,
                              capture_output=True, text=True)

    def _path(self, stem: str) -> str:
        self.count += 1
        return os.path.join(self.workdir, f"{stem}-{self.count}.json")

    def op(self, kind: str, argv: list[str], check) -> Op:
        spans = self._path("spans") if self.trace_child else None
        return Op(kind, lambda: self._run(argv, spans), check,
                  {"spans_path": spans})

    def next_pass(self) -> list[Op]:
        r = self.rng
        n4 = ["--slot", str(r.randrange(4)), "--s", str(r.randrange(4)),
              "--t", str(r.randrange(4)), "--u", str(r.randrange(4))]
        n9 = ["--s0", r.choice(("1", "-1")), "--s1", r.choice(("1", "-1")),
              "--s2", r.choice(("1", "-1")), "--m3", str(r.randrange(3)),
              "--m4", str(r.randrange(3))]
        fid = self._path("fiducial")
        mubs = self._path("mub")
        units = [
            [self.op("verify.sic.n4", ["verify", "sic", "--builtin", "n4", *n4],
                     stdout_pass)],
            [self.op("verify.sic.n9", ["verify", "sic", "--builtin", "n9", *n9],
                     stdout_pass)],
            [self.op("verify.sic.n16",
                     ["verify", "sic", "--builtin", "n16", "--tol", "1e-8",
                      "--t2-branch", r.choice(("1", "-1"))], stdout_pass)],
            [self.op("verify.zauner",
                     ["verify", "zauner", "--dim", str(r.randrange(5, 13))],
                     stdout_pass)],
            [self.op("verify.mub", ["verify", "mub", "--p", str(r.choice((2, 3)))],
                     stdout_pass)],
            [self.op("generate.mub", ["generate", "mub", "--p", "5", "--out", mubs],
                     lambda out: file_pass(out, mubs, bases=6))],
            # a write and the read that re-verifies it stay in this order
            [self.op("search.write",
                     ["search", "--dim", "7", "--seed", "0",
                      "--fiducial-out", fid],
                     lambda out: search_pass(out, fid)),
             self.op("verify.sic.file", ["verify", "sic", "--file", fid],
                     lambda out: stdout_pass(out, N=7))],
        ]
        return [op for i in r.sample(range(len(units)), len(units))
                for op in units[i]]


def _report(text: str) -> dict:
    return json.loads(text) if text.strip() else {}


def stdout_pass(out, N=None) -> tuple[bool, str]:
    if out.returncode != 0:
        return False, f"exit {out.returncode}: {out.stderr[-300:]}"
    rep = _report(out.stdout)
    if rep.get("pass") is not True:
        return False, "report does not say pass"
    if N is not None and rep.get("metrics", {}).get("N") != N:
        return False, f"report N is {rep.get('metrics', {}).get('N')}, want {N}"
    return True, ""


def file_pass(out, path: str, bases: int) -> tuple[bool, str]:
    if out.returncode != 0:
        return False, f"exit {out.returncode}: {out.stderr[-300:]}"
    with open(path) as fh:
        rep = json.load(fh)
    got = len(rep.get("artifacts", {}).get("bases", []))
    return _verdict(rep.get("pass") is True and got == bases,
                    f"pass={rep.get('pass')}, {got} bases written")


def search_pass(out, path: str) -> tuple[bool, str]:
    ok, note = stdout_pass(out)
    if not ok:
        return ok, note
    dev = _report(out.stdout)["metrics"]["max_abs_deviation"]
    if not (dev <= SEARCH_TOL and os.path.getsize(path) > 0):
        return False, f"search deviation {dev:.3e} or empty {path}"
    return True, ""


def make(name: str, seed: int, src: str, workdir: str,
         trace_child: str | None = None):
    if name == "search":
        return SearchWorkload(seed)
    if name == "certify":
        return CertifyWorkload(seed)
    if name == "cli":
        return CliWorkload(seed, src, workdir, trace_child)
    raise ValueError(f"unknown workload {name!r}")
