"""The seeded-search parity table: found, restart, nit and nfev of
`search_fiducial(Dimension(N), rng_seed=seed)`, with its default 50
restarts and tolerance, for N = 5..48 and seeds 0..9 (440 searches).

    PYTHONPATH=src python tests/search_parity.py          # check every row
    PYTHONPATH=src python tests/search_parity.py --write  # regenerate

The check prints each row that moved and exits 1 if any did. A search
that finds nothing within its restarts has "-" for restart, nit and nfev.
The rows follow numpy's float bits (the E0 basis, the start draws and the
objective's rounding), so the table holds for the numpy that CI pins.
"""

import sys
from pathlib import Path

TABLE = Path(__file__).with_name("search_parity.tsv")
HEADER = "N\tseed\tfound\trestart\tnit\tnfev"
DIMS, SEEDS = range(5, 49), range(10)


def search_row(N: int, seed: int) -> str:
    """The table line of one seeded search."""
    from whsic.dims import Dimension
    from whsic.sic import search_fiducial
    f = search_fiducial(Dimension(N), rng_seed=seed)
    work = (["-"] * 3 if f is None else
            [f.provenance[k] for k in ("restart", "nit", "nfev")])
    return "\t".join(map(str, [N, seed, int(f is not None), *work]))


def table_rows() -> list[str]:
    """The committed lines, header excluded."""
    header, *rows = TABLE.read_text().splitlines()
    assert header == HEADER, header
    return rows


def main(argv: list[str]) -> int:
    if argv == ["--write"]:
        rows = [search_row(N, seed) for N in DIMS for seed in SEEDS]
        TABLE.write_text("\n".join([HEADER, *rows]) + "\n")
        found = sum(row.split("\t")[2] == "1" for row in rows)
        print(f"wrote {len(rows)} rows, {found} found")
        return 0
    if argv:
        print(__doc__, file=sys.stderr)
        return 2
    moved = 0
    for row in table_rows():
        now = search_row(*map(int, row.split("\t")[:2]))
        if now != row:
            moved += 1
            print(f"moved: {row!r} -> {now!r}")
    print(f"{moved} of {len(table_rows())} rows moved")
    return int(moved > 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
