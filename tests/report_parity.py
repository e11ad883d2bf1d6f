"""The closed-form and report parity table: the certificate of each of the
332 closed-form fiducials, and the digest of each report of a fixed list
of command lines.

    PYTHONPATH=src python tests/report_parity.py          # check every row
    PYTHONPATH=src python tests/report_parity.py --write  # regenerate

A closed form's row gives `max_abs_deviation` of `verify_closed_form`,
the certificate that `verify sic --builtin` and `generate sic` run, as
`float.hex` and its `worst_displacement` (i, j); a report's row gives the
exit code of `whsic.cli.main` and the sha256 of the report it writes. The
check prints each row that moved and exits 1 if any did. The closed-form
rows and the reports of the closed-form commands are Python float
arithmetic; like the search table, the other reports follow numpy's float
bits.
"""

import contextlib
import hashlib
import io
import sys
from pathlib import Path

TABLE = Path(__file__).with_name("report_parity.tsv")
HEADER = "case\tresult"

# the arguments of each closed-form constructor, keyed by its builtin
CLOSED_FORMS = [
    *(("n4", (slot, s, t, u)) for slot in range(4) for s in range(4)
      for t in range(4) for u in range(4)),
    *(("n9", (s0, s1, s2, m3, m4)) for s0 in (1, -1) for s1 in (1, -1)
      for s2 in (1, -1) for m3 in range(3) for m4 in range(3)),
    *(("n16", (t2, conj)) for t2 in (1, -1) for conj in (0, 1)),
]

# every command at small sizes, a failing check and the usage errors of
# non-prime --p among them; new rows go at the end, so that no row shifts
REPORTS = [
    "verify sic --builtin n4 --slot 3 --s 1 --t 2 --u 3",
    "verify sic --builtin n4 --tol 1e-20",
    "verify sic --builtin n9 --s0 -1 --m3 2",
    "verify sic --builtin n16 --tol 1e-8",
    "verify sic --builtin n16 --t2-branch -1 --conjugate-orbit 1",
    *(f"verify mub --p {p}" for p in range(2, 8)),
    "verify monomial --dim 4 --samples 3",
    "verify monomial --dim 9 --samples 3 --seed 1",
    "verify monomial --dim 16 --samples 2",
    "verify crt --dim 6",
    "verify crt --dim 12 --seed 3",
    "verify crt --dim 60",
    *(f"verify zauner --dim {N}" for N in range(1, 13)),
    "generate sic --dim 4 --slot 2",
    "generate sic --dim 9 --s1 -1",
    "generate sic --dim 16 --tol 1e-8",
    *(f"generate mub --p {p}" for p in range(2, 8)),
    "generate projection --dim 4",
    "generate projection --dim 9 --m4 1",
    *(f"generate operators --dim {N}" for N in (1, 2, 4, 6, 9)),
    "search --dim 5 --seed 0",
    "search --dim 7 --seed 1",
    "search --dim 8 --seed 0 --restarts 2",
    # the exact CRT certificate at every N to 100, past int64 in the
    # coefficient sums (6e9), at the cap and at the prime below it
    *(f"verify crt --dim {N}" for N in [*range(2, 101), 6000000000,
                                        10 ** 12, 999999999989]),
    # the exact monomial covariance at every square to 64
    *(f"verify monomial --dim {n * n} --samples 5 --seed {seed}"
      for n in range(1, 9) for seed in (0, 1)),
]


def closed_form_row(builtin: str, args: tuple) -> str:
    """The table line of one closed-form fiducial's certificate."""
    from whsic import cli, sic
    c = getattr(sic, cli.BUILTINS[builtin][0])(*args)
    cert = sic.verify_closed_form(c, 1e-8)
    i, j = cert.worst_displacement
    case = " ".join(map(str, [builtin, *args]))
    return f"{case}\t{cert.max_abs_deviation.hex()} {i} {j}"


def report_row(argv: str) -> str:
    """The table line of one command line's report."""
    from whsic import cli
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv.split())
    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
    return f"{argv}\t{code} {digest}"


def all_rows() -> list[str]:
    return ([closed_form_row(b, args) for b, args in CLOSED_FORMS]
            + [report_row(argv) for argv in REPORTS])


def table_rows() -> list[str]:
    """The committed lines, header excluded."""
    header, *rows = TABLE.read_text().splitlines()
    assert header == HEADER, header
    return rows


def moved_rows() -> list[tuple[str, str]]:
    """(committed, now) for each row that differs; a row present on one
    side only pairs with ""."""
    old, new = table_rows(), all_rows()
    moved = [(a, b) for a, b in zip(old, new) if a != b]
    moved += [(a, "") for a in old[len(new):]] + [("", b) for b in new[len(old):]]
    return moved


def main(argv: list[str]) -> int:
    if argv == ["--write"]:
        rows = all_rows()
        TABLE.write_text("\n".join([HEADER, *rows]) + "\n")
        print(f"wrote {len(rows)} rows")
        return 0
    if argv:
        print(__doc__, file=sys.stderr)
        return 2
    moved = moved_rows()
    for old, new in moved:
        print(f"moved: {old!r} -> {new!r}")
    print(f"{len(moved)} of {len(table_rows())} rows moved")
    return int(bool(moved))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
