"""Run one `whsic` command with spans recorded, for traced cli ops.

Usage: python child.py SPANS_JSON [whsic arguments...]

Behaves like `python -m whsic.cli [whsic arguments...]` (same stdout, stderr
and exit code) and writes the spans of the command, including the import of
whsic.cli, to SPANS_JSON.
"""

import sys

from spans import Tracer


def main() -> int:
    path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    try:
        with tracer.span("cli.import"):
            import whsic.cli
        tracer.install()
        return whsic.cli.main(argv)
    finally:
        tracer.dump(path)


if __name__ == "__main__":
    sys.exit(main())
