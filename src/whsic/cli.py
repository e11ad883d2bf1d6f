"""whsic: construct, verify and search, with JSON reports.

    whsic verify sic (--builtin n4|n9|n16 | --file F) [construction] [--tol T]
    whsic verify mub [--p 2..19] [--tol T]
    whsic verify monomial [--dim 1..40000] [--samples 1..1000] [--seed K]
    whsic verify crt [--dim 2..1000000000000] [--seed K]
    whsic verify zauner [--dim 1..800000]
    whsic generate sic [--dim 4|9|16] [construction] [--tol T]
    whsic generate mub [--p 2..13]
    whsic generate projection [--dim 4|9] [construction]
    whsic generate operators [--dim 1..360]
    whsic search --dim 2..48 [--restarts 1..2500] [--seed K] [--tol T] [--fiducial-out F]

Every command also takes --out, and flags follow the command; `whsic
COMMAND -h` lists them. The construction flags --slot, --s, --t, --u (n4),
--s0, --s1, --s2, --m3, --m4 (n9) and --t2-branch, --conjugate-orbit (n16)
belong to the builtin that --builtin or --dim chooses; --file takes none.
Any other flag, an abbreviated flag or a value out of range is a usage
error. --tol is the tolerance compared against; `verify crt`, `verify
monomial` and `verify zauner` compare integers and take none.

Exit codes: 0 when the check passes, 1 when it runs but fails, 2 on usage
or parse errors. Each report is one line of JSON that names the command and
the flags it read, and is deterministic for fixed arguments and seed.
"""

# At module level this file imports no package module beyond dims and
# errors, which parsing and reporting need; each handler imports the modules
# it runs, so a command loads only those.

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
from typing import TYPE_CHECKING, Callable, NamedTuple

import numpy as np

from .dims import Dimension
from .errors import WhsicError

if TYPE_CHECKING:
    from .sic import Fiducial

# each builtin fiducial: the name of its constructor in whsic.sic, and the
# construction flags it takes, in call order
BUILTINS = {"n4": ("fiducial_n4", ("slot", "s", "t", "u")),
            "n9": ("fiducial_n9", ("s0", "s1", "s2", "m3", "m4")),
            "n16": ("fiducial_n16", ("t2_branch", "conjugate_orbit"))}


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
CONSTRUCTION = tuple(k for _, flags in BUILTINS.values() for k in flags)


def _builtin_fiducial(args) -> Fiducial:
    from . import sic
    name, flags = BUILTINS[args.builtin]
    return getattr(sic, name)(*(getattr(args, k) for k in flags))


def _verify_sic(args) -> dict:
    from .sic import verify_sic
    if args.file is not None:
        from .fileio import load_fiducial
        f = load_fiducial(args.file)
    else:
        f = _builtin_fiducial(args)
    cert = verify_sic(f, args.tol)
    return {"pass": bool(cert.passed),
            "metrics": {"max_abs_deviation": cert.max_abs_deviation,
                        "worst_displacement": list(cert.worst_displacement),
                        "N": f.dim.N}}


def _verify_mub(args) -> dict:
    from .mub import is_unbiased, prime_family
    bases = prime_family(args.p)
    pairs = list(itertools.combinations(bases, 2))
    devs = [is_unbiased(A, B, args.tol).max_abs_deviation for A, B in pairs]
    k = int(np.argmax(devs))  # the first pair with the largest deviation
    return {"pass": bool(devs[k] <= args.tol),
            "metrics": {"num_bases": len(bases), "max_abs_deviation": devs[k],
                        "worst_pair": [b.label for b in pairs[k]],
                        "checked_pairs": len(pairs)}}


def _verify_monomial(args) -> dict:
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
    from .clifford import (ROUNDING_BOUND, predicted_eigenspace_dims,
                           zauner_counts)
    dim = Dimension(args.dim)
    dims, dims_margin, root, cube_margin = zauner_counts(dim)
    predicted = predicted_eigenspace_dims(dim)
    # U_0^3 must be zauner_phase^-3 = e^{-i pi (N-1)/4}
    return {"pass": dims == predicted and root == (1 - dim.N) % 8
            and max(dims_margin, cube_margin) <= ROUNDING_BOUND,
            "metrics": {"measured_dims": list(dims), "cube_root": root,
                        "predicted_dims": list(predicted),
                        "dims_margin": dims_margin, "cube_margin": cube_margin}}


def _generate_sic(args) -> dict:
    from .fileio import fiducial_to_dict
    from .sic import verify_sic
    f = _builtin_fiducial(args)
    cert = verify_sic(f, args.tol)
    return {"pass": bool(cert.passed),
            "metrics": {"max_abs_deviation": cert.max_abs_deviation},
            "artifacts": {"fiducial": fiducial_to_dict(f)}}


def _generate_mub(args) -> dict:
    from .mub import prime_family
    bases = prime_family(args.p)
    # each vector, a column of b.vectors, as a list of [re, im] pairs
    payload = [{"label": b.label, "N": b.dim.N, "vectors": _encode(b.vectors.T)}
               for b in bases]
    return {"pass": True, "metrics": {"num_bases": len(bases)},
            "artifacts": {"bases": payload}}


def _generate_projection(args) -> dict:
    from .monomial import monomial_weyl_generators
    from .sic import rephased4_generators
    from .weyl import displacements
    f = _builtin_fiducial(args)
    dim = f.dim
    # |D_ij a|^2 in the fiducial's basis, where the tag's generators make
    # each D_ij a phase permutation: |a|^2 gathered through its inverse
    X, Z = (rephased4_generators() if f.basis == "rephased4"
            else monomial_weyl_generators(dim))
    image = displacements(dim, X, Z).image
    points = (np.abs(f.amplitudes) ** 2)[np.argsort(image, axis=1)]
    distinct = len(np.unique(points, axis=0))
    return {"pass": distinct == dim.N,
            "metrics": {"num_points": len(points), "num_distinct": distinct,
                        "sum_p_squared": float(np.sum(points[0] ** 2))},
            "artifacts": {"probability_vectors": points.tolist()}}


def _generate_operators(args) -> dict:
    from .monomial import monomial_weyl_generators
    from .weyl import standard_generators
    dim = Dimension(args.dim)
    pairs = {"standard": standard_generators(dim)}
    if dim.is_square:
        pairs["monomial"] = monomial_weyl_generators(dim)
    art = {k: {"X": _encode(X), "Z": _encode(Z)} for k, (X, Z) in pairs.items()}
    return {"pass": True, "metrics": {"N": dim.N}, "artifacts": art}


def _encode(M) -> list:
    """A complex array as nested lists ending in [re, im] pairs."""
    return np.stack([np.real(M), np.imag(M)], axis=-1).tolist()


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
    return {"pass": bool(cert.passed),
            "metrics": {"found": True,
                        "max_abs_deviation": cert.max_abs_deviation,
                        "worst_displacement": list(cert.worst_displacement),
                        "restart": f.provenance["restart"],
                        "residual": f.provenance["residual"]},
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
# (2 vCPUs, numpy 2.4.6): zauner 109 at N = 800000 in 2.7 s (129 at 10^6),
# verify mub 78 at p = 19 (148 at 23), generate mub 102 at p = 13 (295 at
# 17), operators 104 at N = 324 (121 at 361); each count cap keeps the
# largest dimension under a minute: 2500 failing search restarts take 49 s
# at N = 48, 1000 monomial samples 41 s at N = 40000, where monomial peaks
# at 41 MB: time sets its --dim cap. Time sets the crt cap too: both halves
# are O(r) integers, 35 MB at any N, and the O(sqrt N) trial division of
# `factor_dimension` peaks at a prime: 0.11 s at N = 999999999989
# (0.35-0.55 s wall), 0.35 s at 10^13, 1.1 s at 10^14, 11 s at 10^16
COMMANDS = {
    "verify sic": Command(_verify_sic, ("builtin", "file", "tol"),
                          tuple(BUILTINS), one_of=("builtin", "file")),
    "verify mub": Command(_verify_mub, ("p", "tol"),
                          bounds={"p": range(2, 20)}),
    "verify monomial": Command(_verify_monomial, ("dim", "samples", "seed"),
                               bounds={"dim": range(1, 40001),
                                       "samples": range(1, 1001)}),
    "verify crt": Command(_verify_crt, ("dim", "seed"),
                          bounds={"dim": range(2, 10 ** 12 + 1)}),
    "verify zauner": Command(_verify_zauner, ("dim",),
                             bounds={"dim": range(1, 800001)}),
    "generate sic": Command(_generate_sic, ("dim", "tol"), tuple(BUILTINS)),
    "generate mub": Command(_generate_mub, ("p",),
                            bounds={"p": range(2, 14)}),
    "generate projection": Command(_generate_projection, ("dim",),
                                   ("n4", "n9")),
    "generate operators": Command(_generate_operators, ("dim",),
                                  bounds={"dim": range(1, 361)}),
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
    for name in (k for b in cmd.builtins for k in BUILTINS[b][1]):
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
    takes = BUILTINS[args.builtin][1] if vars(args).get("builtin") else ()
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
    text = json.dumps({"command": args.command, "inputs": inputs, **report},
                      sort_keys=True) + "\n"
    if args.out is None or args.out == "-":
        sys.stdout.write(text)
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


if __name__ == "__main__":
    sys.exit(main())
