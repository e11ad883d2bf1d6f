"""Command-line interface: construct, verify, and search, with JSON reports.

Exit codes: 0 when the requested check passes, 1 when it runs but fails,
2 on usage or parse errors. Reports are deterministic for fixed arguments
and seed.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import fileio
from .clifford import eigenspace_dims, random_symplectic, zauner_unitary
from .crt import SYMPLECTIC_SAMPLES, verify_product_iso
from .dims import Dimension
from .errors import WhsicError
from .monomial import (covariance_witness, monomial_clifford,
                       monomial_weyl_generators)
from .mub import is_unbiased, prime_family
from .sic import (Fiducial, basis_change, fiducial_n4, fiducial_n9,
                  fiducial_n16, search_fiducial, to_standard, verify_sic)
from .weyl import all_displacements, displacements, standard_generators

SEARCH_DIM_CAP = 48

# each builtin fiducial with the construction flags it takes, in call order
BUILTINS = {"n4": (fiducial_n4, ("slot", "s", "t", "u")),
            "n9": (fiducial_n9, ("s0", "s1", "s2", "m3", "m4")),
            "n16": (fiducial_n16, ("t2_branch",))}

# the flags each command reads, besides those of the builtin it constructs
COMMAND_FLAGS = {
    "verify sic": ("builtin", "file", "tol"),
    "verify mub": ("p", "tol"),
    "verify monomial": ("dim", "samples", "seed"),
    "verify crt": ("dim", "seed", "tol"),
    "verify zauner": ("dim", "tol"),
    "generate sic": ("dim", "tol"),
    "generate mub": ("p",),
    "generate projection": ("dim",),
    "generate operators": ("dim",),
    "search": ("dim", "fiducial_out", "restarts", "seed", "tol"),
}


def _emit(args, report: dict) -> None:
    """Write the report, headed by the command and the flags it read."""
    command = f"{args.command} {getattr(args, 'target', '')}".rstrip()
    _, flags = BUILTINS.get(_builtin_name(args), (None, ()))
    inputs = {k: getattr(args, k) for k in COMMAND_FLAGS[command] + flags
              if getattr(args, k) is not None}
    text = json.dumps({"command": command, "inputs": inputs, **report},
                      indent=2, sort_keys=True) + "\n"
    if args.out is None or args.out == "-":
        sys.stdout.write(text)
    else:
        with open(args.out, "w") as fh:
            fh.write(text)


def _builtin_name(args) -> str | None:
    """The builtin fiducial the command constructs, if any."""
    if args.command == "verify" and args.target == "sic" and args.file is None:
        return args.builtin
    if args.command == "generate" and args.target in ("sic", "projection"):
        return f"n{args.dim}"
    return None


def _builtin_fiducial(args) -> Fiducial:
    name = _builtin_name(args)
    if name not in BUILTINS:
        raise ValueError(f"unknown builtin {name!r}")
    make, flags = BUILTINS[name]
    return make(*(getattr(args, k) for k in flags))


def cmd_verify(args) -> int:
    metrics: dict = {}
    if args.target == "sic":
        if args.file is not None:
            f = fileio.load_fiducial(args.file)
        elif args.builtin is not None:
            f = _builtin_fiducial(args)
        else:
            raise ValueError("verify sic needs --builtin or --file")
        cert = verify_sic(f, args.tol)
        metrics["max_abs_deviation"] = cert.max_abs_deviation
        metrics["worst_displacement"] = list(cert.worst_displacement)
        metrics["N"] = f.dim.N
        passed = cert.passed
    elif args.target == "mub":
        bases = prime_family(args.p)
        worst = 0.0
        for i in range(len(bases)):
            for j in range(i + 1, len(bases)):
                worst = max(worst, is_unbiased(bases[i], bases[j], args.tol)
                            .max_abs_deviation)
        metrics["num_bases"] = len(bases)
        metrics["max_abs_deviation"] = worst
        passed = worst <= args.tol
    elif args.target == "monomial":
        dim = Dimension(args.dim)
        rng = np.random.default_rng(args.seed)
        D = displacements(dim, *monomial_weyl_generators(dim))
        witness = None
        for _ in range(args.samples):
            G = random_symplectic(dim, rng)
            ij = covariance_witness(G, monomial_clifford(G, dim), D)
            if ij is not None and witness is None:
                witness = [[G.alpha, G.beta, G.gamma, G.delta], *ij]
        metrics["checked_displacements"] = args.samples * dim.N ** 2
        metrics["witness"] = witness
        passed = witness is None
    elif args.target == "crt":
        worst = verify_product_iso(args.dim, rng_seed=args.seed)
        metrics["max_abs_deviation"] = worst
        metrics["checked_displacements"] = args.dim ** 2
        metrics["symplectic_samples"] = SYMPLECTIC_SAMPLES
        metrics["effective_tol"] = max(args.tol, 1e-9)
        passed = worst <= metrics["effective_tol"]
    elif args.target == "zauner":
        dim = Dimension(args.dim)
        U = zauner_unitary(dim)
        cube_dev = float(np.max(np.abs(U @ U @ U - np.eye(dim.N))))
        measured, predicted = eigenspace_dims(dim, U)
        metrics["cube_deviation"] = cube_dev
        metrics["measured_dims"] = list(measured)
        metrics["predicted_dims"] = list(predicted)
        metrics["effective_tol"] = max(args.tol, 1e-10)
        passed = cube_dev <= metrics["effective_tol"] and measured == predicted
    else:
        raise ValueError(f"unknown verify target {args.target!r}")
    _emit(args, {"pass": bool(passed), "metrics": metrics})
    return 0 if passed else 1


def cmd_generate(args) -> int:
    if args.target == "sic":
        if args.dim not in (4, 9, 16):
            raise ValueError(f"no closed form for N={args.dim}; use search")
        f = _builtin_fiducial(args)
        cert = verify_sic(f, args.tol if args.dim != 16 else max(args.tol, 1e-8))
        _emit(args, {"pass": bool(cert.passed),
                     "metrics": {"max_abs_deviation": cert.max_abs_deviation,
                                 "effective_tol": cert.tolerance},
                     "artifacts": {"fiducial": fileio.fiducial_to_dict(f)}})
        return 0 if cert.passed else 1
    if args.target == "mub":
        bases = prime_family(args.p)
        payload = []
        for b in bases:
            payload.append({
                "label": b.label,
                "N": b.dim.N,
                "vectors": [[[float(z.real), float(z.imag)] for z in b.vectors[:, u]]
                            for u in range(b.dim.N)],
            })
        _emit(args, {"pass": True, "metrics": {"num_bases": len(bases)},
                     "artifacts": {"bases": payload}})
        return 0
    if args.target == "projection":
        if args.dim not in (4, 9):
            raise ValueError("projection data is available for N = 4 and 9")
        f = _builtin_fiducial(args)
        dim = f.dim
        # |V^dag D_ij V psi|^2: the orbit's probabilities in the fiducial's basis
        orbit = all_displacements(dim) @ to_standard(f).amplitudes
        points = (np.abs(orbit @ basis_change(dim, f.basis).conj()) ** 2).tolist()
        distinct = _distinct_points(points)
        metrics = {"num_points": len(points), "num_distinct": distinct,
                   "sum_p_squared": float(np.sum(np.array(points[0]) ** 2))}
        _emit(args, {"pass": bool(distinct == dim.N), "metrics": metrics,
                     "artifacts": {"probability_vectors": points}})
        return 0 if distinct == dim.N else 1
    if args.target == "operators":
        dim = Dimension(args.dim)
        X, Z = standard_generators(dim)
        art = {"standard": _mat_pair(X, Z)}
        if dim.is_square:
            Xm, Zm = monomial_weyl_generators(dim)
            art["monomial"] = _mat_pair(Xm, Zm)
        _emit(args, {"pass": True, "metrics": {"N": dim.N}, "artifacts": art})
        return 0
    raise ValueError(f"unknown generate target {args.target!r}")


def _mat_pair(X, Z) -> dict:
    enc = lambda M: np.stack([np.real(M), np.imag(M)], axis=-1).tolist()
    return {"X": enc(X), "Z": enc(Z)}


def _distinct_points(points: list, tol: float = 1e-8) -> int:
    reps: list[np.ndarray] = []
    for p in points:
        v = np.array(p)
        if not any(np.max(np.abs(v - r)) < tol for r in reps):
            reps.append(v)
    return len(reps)


def cmd_search(args) -> int:
    if not (2 <= args.dim <= SEARCH_DIM_CAP):
        sys.stderr.write(f"search dimension must be in 2..{SEARCH_DIM_CAP}\n")
        return 2
    f = search_fiducial(Dimension(args.dim), rng_seed=args.seed,
                        max_restarts=args.restarts, tol=args.tol)
    if f is None:
        _emit(args, {"pass": False, "metrics": {"found": False}})
        return 1
    cert = verify_sic(f, args.tol)
    report = {"pass": bool(cert.passed),
              "metrics": {"found": True,
                          "max_abs_deviation": cert.max_abs_deviation,
                          "worst_displacement": list(cert.worst_displacement),
                          "restart": f.provenance["restart"],
                          "residual": f.provenance["residual"]},
              "artifacts": {"fiducial": fileio.fiducial_to_dict(f)}}
    if args.fiducial_out:
        fileio.save_fiducial(f, args.fiducial_out)
    _emit(args, report)
    return 0 if cert.passed else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="whsic",
                                 description="Weyl-Heisenberg SIC toolkit")
    ap.add_argument("--tol", type=float, default=None,
                    help="tolerance (default 1e-10)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default=None, help="report destination (default stdout)")
    # the same global flags are accepted after the subcommand; SUPPRESS keeps
    # the subparser from clobbering a value given before it
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", type=float, default=argparse.SUPPRESS)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    common.add_argument("--out", default=argparse.SUPPRESS)
    sub = ap.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", parents=[common])
    v.add_argument("target", choices=["sic", "mub", "monomial", "crt", "zauner"])
    fiducial = v.add_mutually_exclusive_group()
    fiducial.add_argument("--builtin", choices=["n4", "n9", "n16"])
    fiducial.add_argument("--file")
    v.add_argument("--dim", type=int, default=4)
    v.add_argument("--samples", type=int, default=20)
    v.add_argument("--p", type=int, default=2)
    _add_construction_flags(v)
    v.set_defaults(func=cmd_verify)

    g = sub.add_parser("generate", parents=[common])
    g.add_argument("target", choices=["sic", "mub", "projection", "operators"])
    g.add_argument("--dim", type=int, default=4)
    g.add_argument("--p", type=int, default=2)
    _add_construction_flags(g)
    g.set_defaults(func=cmd_generate)

    s = sub.add_parser("search", parents=[common])
    s.add_argument("--dim", type=int, required=True)
    s.add_argument("--restarts", type=int, default=50)
    s.add_argument("--fiducial-out", default=None,
                   help="also write the found fiducial to this file")
    s.set_defaults(func=cmd_search)
    return ap


def _add_construction_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--slot", type=int, default=0)
    p.add_argument("--s", type=int, default=0)
    p.add_argument("--t", type=int, default=0)
    p.add_argument("--u", type=int, default=0)
    p.add_argument("--s0", type=int, default=1)
    p.add_argument("--s1", type=int, default=1)
    p.add_argument("--s2", type=int, default=1)
    p.add_argument("--m3", type=int, default=0)
    p.add_argument("--m4", type=int, default=0)
    p.add_argument("--t2-branch", type=int, default=1, dest="t2_branch")


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    if args.tol is None:
        args.tol = 1e-10
    if not _validate_ranges(args):
        return 2
    try:
        return args.func(args)
    except (WhsicError, ValueError, OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


def _validate_ranges(args) -> bool:
    if not (math.isfinite(args.tol) and args.tol >= 0):
        sys.stderr.write("--tol must be a finite non-negative number\n")
        return False
    for name in ("samples", "restarts"):
        val = getattr(args, name, None)
        if val is not None and val < 1:
            sys.stderr.write(f"--{name} must be positive\n")
            return False
    checks = [("slot", 0, 3), ("s", 0, 3), ("t", 0, 3), ("u", 0, 3),
              ("m3", 0, 2), ("m4", 0, 2)]
    for name, lo, hi in checks:
        val = getattr(args, name, None)
        if val is not None and not (lo <= val <= hi):
            sys.stderr.write(f"--{name} must be in {lo}..{hi}\n")
            return False
    for name in ("s0", "s1", "s2", "t2_branch"):
        val = getattr(args, name, None)
        if val is not None and val not in (1, -1):
            sys.stderr.write(f"--{name.replace('_', '-')} must be +1 or -1\n")
            return False
    return True


if __name__ == "__main__":
    sys.exit(main())
