"""JSON serialization for fiducial vectors.

Fiducial files carry {format_version, N, basis, amplitudes, provenance} with
amplitudes stored as [re, im] pairs. Parsers reject vectors whose norm
deviates from 1 by more than 1e-6 or is not finite; writers always emit the renormalized
amplitudes so files round-trip bit-for-bit. A file is written as one line
of JSON, by json's C encoder; files written with indentation load the same.
"""

from __future__ import annotations

import json

import numpy as np

from .dims import Dimension
from .sic import Fiducial

FORMAT_VERSION = 1


def fiducial_to_dict(f: Fiducial) -> dict:
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


def fiducial_from_dict(d: dict) -> Fiducial:
    if d.get("format_version") != FORMAT_VERSION:
        raise ValueError(f"unsupported format_version {d.get('format_version')!r}")
    N = int(d["N"])
    amps = np.array([complex(re, im) for re, im in d["amplitudes"]])
    if amps.shape != (N,):
        raise ValueError(f"expected {N} amplitudes, got {amps.shape}")
    nrm = float(np.linalg.norm(amps))
    if not abs(nrm - 1.0) <= 1e-6:  # NaN fails too
        raise ValueError(f"vector norm {nrm} deviates from 1 beyond 1e-6")
    return Fiducial(Dimension(N), str(d["basis"]), amps / nrm,
                    dict(d.get("provenance", {})))


def load_fiducial(path: str) -> Fiducial:
    with open(path) as fh:
        return fiducial_from_dict(json.load(fh))
