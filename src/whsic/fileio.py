"""JSON serialization for fiducial vectors.

Fiducial files carry {format_version, N, basis, amplitudes, provenance} with
amplitudes stored as [re, im] pairs. Parsers reject, with a ValueError
that names the field, a document of the wrong shape, and vectors whose norm
deviates from 1 by more than 1e-6 or is not finite; they divide by the norm
only past 1e-12, the gate of `sic.Fiducial`, so a Fiducial's file loads
bit-for-bit. A file is written as one line of JSON, by json's C encoder;
files written with indentation load the same. Only the parser imports numpy.
"""

from __future__ import annotations

import json
from typing import Callable

from .dims import Dimension
from .sic import ClosedForm, Fiducial

FORMAT_VERSION = 1


def fiducial_to_dict(f: Fiducial | ClosedForm) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "N": f.dim.N,
        "basis": f.basis,
        "amplitudes": [[float(z.real), float(z.imag)] for z in f.amplitudes],
        "provenance": dict(f.provenance),
    }


def save_fiducial(f: Fiducial, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(json.dumps(fiducial_to_dict(f), sort_keys=True) + "\n")


def _is_pair(x) -> bool:
    return (type(x) is list and len(x) == 2
            and all(type(c) in (int, float) for c in x))


def _field(d: dict, name: str, ok: Callable[[object], bool], what: str):
    """d[name], or a ValueError naming the field if it is missing or fails
    ok."""
    if name not in d:
        raise ValueError(f"fiducial field {name!r} is missing")
    if not ok(d[name]):
        raise ValueError(f"fiducial field {name!r} must be {what}")
    return d[name]


def fiducial_from_dict(d: dict) -> Fiducial:
    import numpy as np
    if type(d) is not dict:
        raise ValueError(f"a fiducial is a JSON object, not {type(d).__name__}")
    if d.get("format_version") != FORMAT_VERSION:
        raise ValueError(f"unsupported format_version {d.get('format_version')!r}")
    N = _field(d, "N", lambda v: type(v) is int and v >= 1,
               "a positive integer")
    basis = _field(d, "basis", lambda v: type(v) is str, "a string")
    amps = _field(d, "amplitudes", lambda v: type(v) is list
                  and all(map(_is_pair, v)), "a list of [re, im] numbers")
    provenance = d.get("provenance", {})
    if type(provenance) is not dict:
        raise ValueError("fiducial field 'provenance' must be an object")
    amps = np.array([complex(re, im) for re, im in amps])
    if amps.shape != (N,):
        raise ValueError(f"expected {N} amplitudes, got {amps.shape}")
    nrm = float(np.linalg.norm(amps))
    if not abs(nrm - 1.0) <= 1e-6:  # NaN fails too
        raise ValueError(f"vector norm {nrm} deviates from 1 beyond 1e-6")
    amps /= nrm if abs(nrm - 1.0) > 1e-12 else 1.0
    return Fiducial(Dimension(N), basis, amps, dict(provenance))


# The longest fiducial file load_fiducial reads: the bound is derived from
# the verify sic --file N cap in the comment above cli.COMMANDS
MAX_BYTES = 2 ** 17


def load_fiducial(path: str) -> Fiducial:
    """The fiducial of the file at path. A file longer than MAX_BYTES is a
    ValueError, raised after reading MAX_BYTES + 1 bytes and parsing none."""
    with open(path, "rb") as fh:
        data = fh.read(MAX_BYTES + 1)
    if len(data) > MAX_BYTES:
        raise ValueError(f"{path}: longer than {MAX_BYTES} bytes")
    return fiducial_from_dict(json.loads(data))
