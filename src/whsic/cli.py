"""whsic: construct, verify and search, with JSON reports.

    whsic verify sic (--builtin n4|n9|n16 | --file F) [construction] [--tol T]
    whsic verify mub [--p 2..19]
    whsic verify monomial [--dim 1..40000] [--samples 1..1000] [--seed K]
    whsic verify crt [--dim 2..1000000000000] [--seed K]
    whsic verify zauner [--dim 1..1000000000000]
    whsic generate sic [--dim 4|9|16] [construction] [--tol T]
    whsic generate mub [--p 2..19]
    whsic generate projection [--dim 4|9] [construction]
    whsic generate operators [--dim 1..209763]
    whsic search --dim 2..48 [--restarts 1..2500] [--seed K] [--tol T] [--fiducial-out F]

Every command also takes --out, and flags follow the command; `whsic
COMMAND -h` lists them. The construction flags --slot, --s, --t, --u (n4),
--s0, --s1, --s2, --m3, --m4 (n9) and --t2-branch, --conjugate-orbit (n16)
belong to the builtin that --builtin or --dim chooses; --file takes none.
Any other flag, an abbreviated flag or a value out of range is a usage
error. --tol is the tolerance compared against; `verify crt`, `verify
mub`, `verify monomial` and `verify zauner` compare integers and take none.

Exit codes: 0 when the check passes, 1 when it runs but fails, 2 on usage
or parse errors, among them a malformed --file, one with N above 1224 or
one longer than 131072 bytes, and when the report cannot be written, to a
closed pipe among others. Each report is one line of JSON that names the
command and the flags it read, and is deterministic for fixed arguments
and seed.

`run` is the process entry, of `whsic` and `python -m whsic.cli`; `main`
runs the same command in process and returns its exit code. `run` calls
`main` and the `atexit` handlers, flushes stdout and stderr, and ends the
process with `os._exit`: the module teardown and final garbage collection
that a normal exit adds take 5-10 ms, 15-20 ms once numpy is loaded (2
vCPUs), and change nothing the command wrote. Under a profiler, a tracer
or a `sys.monitoring` tool it ends with `sys.exit` instead, because such a
tool writes its report during that teardown.
"""

# At module level this file imports no numpy and no package module beyond
# dims and errors, which parsing and reporting need; each handler imports
# the modules it runs, so a command loads only those. Numpy loads with the
# commands that build arrays: `verify sic --file`, `search`, `verify
# monomial`, `verify crt` and `generate operators`; the commands that take
# a builtin run on its closed form in Python numbers. The package's records
# are `typing.NamedTuple`s (see dims), so no command loads `dataclasses`
# and with it `inspect`, `ast`, `dis` and `tokenize`.

from __future__ import annotations

import argparse
import atexit
import contextlib
import itertools
import json
import math
import os
import sys
from typing import TYPE_CHECKING, Callable, NamedTuple

from .dims import Dimension
from .errors import WhsicError

if TYPE_CHECKING:
    from .sic import SicCertificate

# each builtin fiducial: the name in whsic.sic of its closed form, and the
# construction flags it takes, in call order
BUILTINS = {"n4": ("closed_n4", ("slot", "s", "t", "u")),
            "n9": ("closed_n9", ("s0", "s1", "s2", "m3", "m4")),
            "n16": ("closed_n16", ("t2_branch", "conjugate_orbit"))}


def _tolerance(text: str) -> float:
    tol = float(text)
    if not (math.isfinite(tol) and tol >= 0):
        raise argparse.ArgumentTypeError("must be a finite non-negative number")
    return tol


def _seed(text: str) -> int:
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError("must be non-negative")
    return seed


# every flag once, by destination
FLAGS = {
    "tol": dict(type=_tolerance, default=1e-10, help="tolerance (default 1e-10)"),
    "seed": dict(type=_seed, default=0),
    "out": dict(help="report destination (default stdout)"),
    "builtin": dict(choices=list(BUILTINS)),
    "file": dict(),
    "dim": dict(type=int, default=4),
    "p": dict(type=int, default=2),
    "samples": dict(type=int, default=20),
    "restarts": dict(type=int, default=50),
    "fiducial_out": dict(help="also write the found fiducial to this file"),
    **{k: dict(type=int, choices=range(4), default=0)
       for k in ("slot", "s", "t", "u")},
    **{k: dict(type=int, choices=(1, -1), default=1)
       for k in ("s0", "s1", "s2", "t2_branch")},
    **{k: dict(type=int, choices=range(3), default=0) for k in ("m3", "m4")},
    "conjugate_orbit": dict(type=int, choices=(0, 1), default=0),
}
CONSTRUCTION = tuple(k for *_, flags in BUILTINS.values() for k in flags)

# the layout of each `generate` basis or operator pair: the integers of
# `mub.Basis` or `dims.PhasePermutation`; README, "Artifact format", decodes
ARTIFACT_VERSION = 2


def _builtin(args):
    """The closed form that --builtin or --dim chooses, from its flags."""
    from . import sic
    name, flags = BUILTINS[args.builtin]
    return getattr(sic, name)(*(getattr(args, k) for k in flags))


def _certified(cert: SicCertificate, **metrics) -> dict:
    return {"pass": bool(cert.passed),
            "metrics": {"max_abs_deviation": cert.max_abs_deviation,
                        "worst_displacement": list(cert.worst_displacement),
                        **metrics}}


def _verify_sic(args) -> dict:
    if args.file is None:
        from .sic import verify_closed_form
        c = _builtin(args)
        return _certified(verify_closed_form(c, args.tol), N=c.dim.N)
    from .fileio import load_fiducial
    from .sic import verify_sic
    f = load_fiducial(args.file)
    if f.dim.N > FILE_DIM_CAP:
        raise ValueError(f"{args.file}: N = {f.dim.N} is above the "
                         f"verify sic --file cap {FILE_DIM_CAP}")
    return _certified(verify_sic(f, args.tol), N=f.dim.N)


def _verify_mub(args) -> dict:
    from .mub import prime_family, unbiased_witness
    bases = prime_family(args.p)
    pairs = list(itertools.combinations(bases, 2))
    # each pair of bases with two lines that do not meet once
    found = [[A.label, B.label, *w] for A, B in pairs
             if (w := unbiased_witness(A, B))]
    witness = found[0] if found else None
    return {"pass": witness is None,
            "metrics": {"num_bases": len(bases), "witness": witness,
                        "checked_pairs": len(pairs)}}


def _verify_monomial(args) -> dict:
    import numpy as np
    from .clifford import random_symplectic
    from .monomial import covariance_witness, monomial_clifford
    dim = Dimension(args.dim)
    rng = np.random.default_rng(args.seed)
    witness = None
    for _ in range(args.samples):
        G = random_symplectic(dim, rng)
        ij = covariance_witness(G, monomial_clifford(G, dim))
        if ij is not None and witness is None:
            witness = [[G.alpha, G.beta, G.gamma, G.delta], *ij]
    return {"pass": witness is None,
            "metrics": {"checked_displacements": args.samples * dim.N ** 2,
                        "witness": witness}}


def _verify_crt(args) -> dict:
    from .crt import SYMPLECTIC_SAMPLES, product_iso_witness
    witness, chirps = product_iso_witness(args.dim, rng_seed=args.seed)
    # N^2 passes 2^53 above N ~ 9.5e7: a string stays exact for any reader
    return {"pass": witness is None,
            "metrics": {"witness": witness,
                        "checked_displacements": str(args.dim ** 2),
                        "symplectic_samples": SYMPLECTIC_SAMPLES,
                        "checked_chirps": chirps}}


def _verify_zauner(args) -> dict:
    from .clifford import predicted_eigenspace_dims, zauner_counts
    dim = Dimension(args.dim)
    dims, root, sums = zauner_counts(dim)
    predicted = predicted_eigenspace_dims(dim)
    # U_0^3 must be the Zauner phase^-3, e^{-i pi (N-1)/4}
    return {"pass": dims == predicted and root == (1 - dim.N) % 8,
            "metrics": {"measured_dims": list(dims), "cube_root": root,
                        "predicted_dims": list(predicted),
                        "gauss_sums": [[m, f"{q.numerator}/{q.denominator}"]
                                       for m, q in sums]}}


def _generate_sic(args) -> dict:
    """The certificate of `verify sic --builtin`, and the unit vector it
    certified as the artifact."""
    from .fileio import fiducial_to_dict
    from .sic import verify_closed_form
    c = _builtin(args)
    return {**_certified(verify_closed_form(c, args.tol)),
            "artifacts": {"fiducial": fiducial_to_dict(c.normalized())}}


def _generate_mub(args) -> dict:
    from .mub import prime_family
    bases = prime_family(args.p)
    payload = [{"format_version": ARTIFACT_VERSION, "label": b.label,
                "N": b.dim.N, "lines": b.lines, "expo": b.expo,
                "fourier": b.fourier} for b in bases]
    return {"pass": True, "metrics": {"num_bases": len(bases)},
            "artifacts": {"bases": payload}}


def _generate_projection(args) -> dict:
    from .sic import _weyl_tables
    c = _builtin(args).normalized()
    N = c.dim.N
    p = [z.real * z.real + z.imag * z.imag for z in c.amplitudes]
    (x_image, _), (z_image, _) = _weyl_tables(c.dim, c.basis)
    xs, zs = [range(N)], [range(N)]  # the images of X^i and Z^j
    for _ in range(N - 1):
        xs.append([x_image[v] for v in xs[-1]])
        zs.append([z_image[v] for v in zs[-1]])
    # |D_ij a|^2: |a|^2 gathered through the inverse of the image of
    # X^i Z^j, the phases of D_ij dropping out; every row permutes p
    points = [[p[v] for v in sorted(range(N), key=lambda v: x[z[v]])]
              for x in xs for z in zs]
    distinct = len(set(map(tuple, points)))
    return {"pass": distinct == N,
            "metrics": {"num_points": len(points), "num_distinct": distinct,
                        "sum_p_squared": math.fsum(q * q for q in p)},
            "artifacts": {"probability_vectors": points}}


def _generate_operators(args) -> dict:
    from .monomial import monomial_weyl_generators
    from .weyl import standard_generators
    dim = Dimension(args.dim)
    pairs = {"standard": standard_generators(dim)}
    if dim.n is not None:
        pairs["monomial"] = monomial_weyl_generators(dim)
    art = {k: {"format_version": ARTIFACT_VERSION,
               **{g: {"image": P.image.tolist(), "expo": P.expo.tolist()}
                  for g, P in zip("XZ", pair)}} for k, pair in pairs.items()}
    return {"pass": True, "metrics": {"N": dim.N}, "artifacts": art}


def _search(args) -> dict:
    from .fileio import fiducial_to_dict, save_fiducial
    from .sic import search_fiducial, verify_sic
    f = search_fiducial(Dimension(args.dim), rng_seed=args.seed,
                        max_restarts=args.restarts, tol=args.tol)
    if f is None:
        return {"pass": False, "metrics": {"found": False}}
    cert = verify_sic(f, args.tol)
    if args.fiducial_out:
        save_fiducial(f, args.fiducial_out)
    return {**_certified(cert, found=True, restart=f.provenance["restart"],
                         residual=f.provenance["residual"]),
            "artifacts": {"fiducial": fiducial_to_dict(f)}}


class Command(NamedTuple):
    """A command's handler, which returns its report, and its flags."""

    run: Callable[[argparse.Namespace], dict]
    reads: tuple[str, ...]          # the flags it reads, besides --out
    builtins: tuple[str, ...] = ()  # whose construction flags it also takes
    required: tuple[str, ...] = ()  # flags that must be given
    one_of: tuple[str, ...] = ()    # flags of which exactly one must be given
    bounds: dict[str, range] = {}   # the values each bounded flag accepts


# each size cap keeps the peak RSS of `python -m whsic.cli` near 110 MB
# (ru_maxrss and wall time, median of 3 runs, bounds lifted past a cap; 2
# vCPUs, numpy 2.4.6): operators, 2N integers a generator, 109 in 0.51 s
# at 208849 = 457^2, the largest square under the cap, which adds the
# monomial pair (111 in 0.56 s at 458^2); mub 17-18 MB in 0.08-0.09 s at
# p = 19 (0.09-0.11 s at 23), where the dense-orbit test of `prime_family`
# stops; zauner 17 MB in 0.07-0.09 s at 10^12 and 10^27 alike, capped where
# crt is, so every integer it reports is below 2^53; the N of a `verify sic
# --file` fiducial, FILE_DIM_CAP, refused after the file is read: its N x N
# overlap table takes 86 MB in 0.20 s at 1224 in the standard basis, and
# 81 MB at 34^2 = 1156 in the monomial one, whose basis change is a 34 x 34
# factor (an unbounded N = 200000 asks for 596 GiB); and the length of
# that file, fileio.MAX_BYTES = 2^17, refused before it is parsed: an
# N = 1224 fiducial whose 2447 small floats all take the longest repr, 24
# characters (a three-digit exponent), takes 66316 bytes with a search's
# provenance as whsic writes it and 117813 with json's indent=4 (57409 and
# 108899 for a random vector), and a 1.6 MB file of N = 200000 stops at
# 28 MB in 0.11 s (60 MB in 0.32 s when parsed first). Each count cap keeps
# the largest dimension under a minute: 2500 failing search restarts (--tol
# 0) take 35 s at N = 48, 1000 monomial samples 41 s at N = 40000 (41 MB),
# so time sets the monomial --dim cap; and the crt cap: trial division
# peaks at a prime, 0.13 s in process at 999999999989, 13 s at 10^16
FILE_DIM_CAP = 1224
COMMANDS = {
    "verify sic": Command(_verify_sic, ("builtin", "file", "tol"),
                          tuple(BUILTINS), one_of=("builtin", "file")),
    "verify mub": Command(_verify_mub, ("p",),
                          bounds={"p": range(2, 20)}),
    "verify monomial": Command(_verify_monomial, ("dim", "samples", "seed"),
                               bounds={"dim": range(1, 40001),
                                       "samples": range(1, 1001)}),
    "verify crt": Command(_verify_crt, ("dim", "seed"),
                          bounds={"dim": range(2, 10 ** 12 + 1)}),
    "verify zauner": Command(_verify_zauner, ("dim",),
                             bounds={"dim": range(1, 10 ** 12 + 1)}),
    "generate sic": Command(_generate_sic, ("dim", "tol"), tuple(BUILTINS)),
    "generate mub": Command(_generate_mub, ("p",),
                            bounds={"p": range(2, 20)}),
    "generate projection": Command(_generate_projection, ("dim",),
                                   ("n4", "n9")),
    "generate operators": Command(_generate_operators, ("dim",),
                                  bounds={"dim": range(1, 209764)}),
    "search": Command(_search, ("dim", "fiducial_out", "restarts", "seed",
                                "tol"), required=("dim",),
                      bounds={"dim": range(2, 49),
                              "restarts": range(1, 2501)}),
}


def _add_flag(parser, name: str, **overrides) -> None:
    parser.add_argument("--" + name.replace("_", "-"),
                        **{**FLAGS[name], **overrides})


def build_parser(command: str) -> argparse.ArgumentParser:
    """The parser of one command's flags."""
    cmd = COMMANDS[command]
    ap = argparse.ArgumentParser(prog="whsic " + command, allow_abbrev=False)
    _add_flag(ap, "out")
    group = (ap.add_mutually_exclusive_group(required=True) if cmd.one_of
             else None)
    for name in cmd.reads:
        _add_flag(group if name in cmd.one_of else ap, name,
                  required=name in cmd.required)
    # a construction flag is set only when given: see parse_args
    for name in (k for b in cmd.builtins for k in BUILTINS[b][-1]):
        _add_flag(ap, name, default=argparse.SUPPRESS)
    return ap


def _split_command(argv: list[str]) -> tuple[str, list[str]]:
    """The command that argv's leading words name, and the argv after those
    words. When they name none, a top-level parser prints this module's
    docstring for -h and exits 0, or exits 2: on a flag that follows the
    start of a command, or on words that are no command."""
    for k in range(len(argv) + 1):
        if " ".join(argv[:k]) in COMMANDS:
            return " ".join(argv[:k]), argv[k:]
        if k == len(argv) or argv[k].startswith("-"):
            break
    top = argparse.ArgumentParser(
        prog="whsic", usage="whsic COMMAND [flags]", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    flag = argv[k] if k < len(argv) else None
    if flag in ("-h", "--help"):
        top.print_help()
        top.exit()
    if flag is not None and any(c.split()[:k] == argv[:k] for c in COMMANDS):
        top.error(f"{flag} comes before the command: flags go after the "
                  "command")
    top.error(f"no command in {argv}: the commands are "
              + ", ".join(COMMANDS))


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    """Parse with the parser of the command argv names, refuse a value
    outside the command's bounds, then let only the chosen builtin's
    construction flags through, with the defaults of those not given."""
    argv = sys.argv[1:] if argv is None else argv
    command, rest = _split_command(argv)
    ap = build_parser(command)
    args = ap.parse_args(rest)
    args.command = command
    cmd = COMMANDS[command]
    for name, bound in cmd.bounds.items():
        if getattr(args, name) not in bound:
            ap.error(f"argument --{name}: must be in {bound[0]}..{bound[-1]}")
    if cmd.builtins and "builtin" not in vars(args):
        args.builtin = f"n{args.dim}"  # generate: --dim chooses the builtin
        if args.builtin not in cmd.builtins:
            ap.error(f"{args.command}: no closed form for N = {args.dim}")
    takes = BUILTINS[args.builtin][-1] if vars(args).get("builtin") else ()
    stray = [k for k in CONSTRUCTION if k in vars(args) and k not in takes]
    if stray:
        ap.error(f"{args.command}: the chosen fiducial takes no "
                 + ", ".join("--" + k.replace("_", "-") for k in stray))
    for k in takes:
        vars(args).setdefault(k, FLAGS[k]["default"])
    return args


def _emit(args, report: dict) -> None:
    """Write the report, headed by the command and the flags it read."""
    inputs = {k: getattr(args, k)
              for k in COMMANDS[args.command].reads + CONSTRUCTION
              if getattr(args, k, None) is not None}
    # NaN and Infinity are not JSON: such a report is an error, not a line
    text = json.dumps({"command": args.command, "inputs": inputs, **report},
                      sort_keys=True, allow_nan=False) + "\n"
    if args.out is None or args.out == "-":
        sys.stdout.write(text)
        sys.stdout.flush()  # a closed pipe fails here, not at exit
    else:
        with open(args.out, "w") as fh:
            fh.write(text)


def main(argv: list[str] | None = None) -> int:
    try:
        args = parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        report = COMMANDS[args.command].run(args)
        _emit(args, report)
    except (WhsicError, ValueError, OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    return 0 if report["pass"] else 1


def _observed() -> bool:
    """Whether a profiler or tracer is attached, through `sys.monitoring`
    too: from Python 3.12 cProfile and coverage attach there, unseen by
    `sys.getprofile()` and `sys.gettrace()`."""
    tools = getattr(sys, "monitoring", None)
    return bool(sys.getprofile() or sys.gettrace()
                or tools and any(map(tools.get_tool, range(6))))


def run() -> None:
    """The process entry: how it ends is in the module docstring."""
    code = main()
    if _observed():
        sys.exit(code)
    atexit._run_exitfuncs()
    # _emit has flushed any report, or failed to and said so; what fails
    # here is that report again, or help text, whose failure argparse
    # ignores too
    with contextlib.suppress(OSError):
        sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
