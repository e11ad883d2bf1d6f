"""Dimension-16 adapted basis: transcribed generators, basis change, and the
closed-form fiducial coefficients.

All matrix entries are signed powers of tau = -exp(i pi/16), a primitive
32nd root of unity; a sign is stored as transcribed and becomes +16 on the
exponent, since tau^16 = -1. The transcriptions are gated by algebraic
identities (unitarity, the omega commutation relation, diagonality of the 4th
powers, Zauner-as-permutation) before any SIC arithmetic touches them.

Of the six fiducial coefficients only x0, x1, x4 and x5 are transcribed:
x3 and x7 are sigma-conjugates, x3 = sigma(x1) and x7 = i sigma(x5), where
sigma is the field automorphism r2 -> -r2.

The coefficients, the fiducial's amplitudes and the generators' integer
tables (`adapted16_weyl_tables`) are Python numbers, which `verify sic
--builtin n16` certifies without numpy; numpy is imported only by the
functions that build arrays: `adapted16_generators` and `fiducial_vector`.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .dims import Dimension, PhasePermutation, _checked_sqrt, tau_powers

if TYPE_CHECKING:
    import numpy as np

DIM16 = Dimension(16)

# (row, col, sign, tau_exponent) triples for the adapted-basis generators.
# Stored so that X Z = omega Z X fails while Z X = omega X Z holds, matching
# the standard shift/clock pair; this is the transpose of the row-vector
# layout the source tables use.
_X16_ENTRIES = [
    (12, 0, +1, 4), (13, 1, -1, 9), (14, 2, +1, 0), (15, 3, -1, 5),
    (8, 4, +1, 28), (9, 5, -1, 13), (10, 6, +1, 20), (11, 7, -1, 25),
    (0, 8, +1, 20), (1, 9, -1, 27), (2, 10, +1, 0), (3, 11, -1, 31),
    (4, 12, +1, 28), (5, 13, -1, 23), (6, 14, +1, 12), (7, 15, -1, 27),
]

_Z16_ENTRIES = [
    (1, 0, +1, 0), (2, 1, +1, 12), (3, 2, +1, 20), (0, 3, +1, 0),
    (5, 4, +1, 4), (6, 5, +1, 28), (7, 6, +1, 12), (4, 7, +1, 4),
    (9, 8, -1, 23), (10, 9, -1, 5), (11, 10, -1, 19), (8, 11, -1, 9),
    (13, 12, -1, 7), (14, 13, -1, 5), (15, 14, -1, 27), (12, 15, -1, 1),
]

# Basis-change matrix T = (1/2) * [signed tau powers]; each row lists
# (columns, [(sign, exponent) x 4]).
_T_ROWS = [
    ((0, 4, 8, 12), [(+1, 0), (+1, 16), (+1, 0), (+1, 16)]),
    ((0, 4, 8, 12), [(+1, 0), (+1, 24), (+1, 16), (+1, 8)]),
    ((0, 4, 8, 12), [(+1, 20), (+1, 20), (+1, 20), (+1, 20)]),
    ((0, 4, 8, 12), [(+1, 0), (+1, 8), (+1, 16), (+1, 24)]),
    ((2, 6, 10, 14), [(+1, 0), (+1, 16), (+1, 0), (+1, 16)]),
    ((2, 6, 10, 14), [(+1, 0), (+1, 24), (+1, 16), (+1, 8)]),
    ((2, 6, 10, 14), [(+1, 8), (+1, 8), (+1, 8), (+1, 8)]),
    ((2, 6, 10, 14), [(+1, 0), (+1, 8), (+1, 16), (+1, 24)]),
    ((3, 7, 11, 15), [(+1, 4), (+1, 20), (+1, 4), (+1, 20)]),
    # the third sign in this row and the one two below are flipped relative
    # to the printed table; as printed those rows break unitarity, and the
    # flipped signs restore it together with the exact generator conjugation
    ((3, 7, 11, 15), [(-1, 19), (-1, 11), (-1, 3), (-1, 27)]),
    ((3, 7, 11, 15), [(+1, 20), (+1, 20), (+1, 20), (+1, 20)]),
    ((3, 7, 11, 15), [(-1, 7), (-1, 15), (-1, 23), (-1, 31)]),
    ((1, 5, 9, 13), [(+1, 28), (+1, 12), (+1, 28), (+1, 12)]),
    ((1, 5, 9, 13), [(-1, 23), (-1, 15), (-1, 7), (-1, 31)]),
    ((1, 5, 9, 13), [(+1, 20), (+1, 20), (+1, 20), (+1, 20)]),
    ((1, 5, 9, 13), [(-1, 27), (-1, 3), (-1, 11), (-1, 19)]),
]

# Orbit structure of the Zauner permutation in this basis; coefficients of
# the fiducial ansatz are constant on each slot group.
FIDUCIAL_SLOT_GROUPS = {
    0: (0, 2, 6),
    1: (1, 9, 10),
    3: (3, 14, 15),
    4: (4,),
    5: (5, 11, 12),
    7: (7, 8, 13),
}


def _tau_exponent(sign: int, e: int) -> int:
    """The exponent e' with tau^{e'} = sign * tau^e."""
    return e + 8 * (1 - sign)


def adapted16_weyl_tables() -> tuple[tuple, tuple]:
    """(X16, Z16) as (image, expo) tuples of Python ints, read from their
    entries, which are listed by column, 0 to 15."""
    return tuple((tuple(row for row, _, _, _ in entries),
                  tuple(_tau_exponent(sign, e) for _, _, sign, e in entries))
                 for entries in (_X16_ENTRIES, _Z16_ENTRIES))


def adapted16_generators() -> tuple[PhasePermutation, PhasePermutation, np.ndarray]:
    """(X16, Z16, T): adapted-basis generators and the basis-change matrix.

    With U = conj(T) one has X16 = U X U^dag and Z16 = U Z U^dag for the
    standard shift and clock, so a vector v in the adapted basis corresponds
    to T.T @ v in the standard basis.
    """
    import numpy as np
    T = np.zeros((16, 16), dtype=complex)
    for row, (cols, vals) in enumerate(_T_ROWS):
        T[row, cols] = 0.5 * tau_powers(DIM16,
                                        [_tau_exponent(*v) for v in vals])
    X, Z = (PhasePermutation(DIM16, np.array(image), np.array(expo))
            for image, expo in adapted16_weyl_tables())
    return X, Z, T


def field_elements(t2_branch: int = +1, conjugate_orbit: bool = False) -> dict[str, float]:
    """Numerical values of the number-field generators r2, r3, t1..t4.

    The real embedding is pinned by the printed radical identity for the
    primitive 32nd root of unity: it forces sqrt(2) -> -sqrt(2) together
    with t3 = -sqrt(2 + sqrt(2)) and t4 = -sqrt(2 + t3); with those choices
    the identity evaluates to exp(i pi/16) exactly. The generators r2, r3
    and the t2 square are then real with principal-root magnitudes; t2 is
    only defined through its square, so its sign is an explicit branch.

    conjugate_orbit=True flips the signs of sqrt(13) and sqrt(17)
    simultaneously, the Galois automorphism that exchanges the two
    extended-Clifford orbits of fiducials. In that embedding the matching
    t1 branch is the negative root and the t2 sign convention flips too.
    """
    if t2_branch not in (+1, -1):
        raise ValueError("t2_branch must be +1 or -1")
    s2 = -math.sqrt(2.0)
    orbit_sign = -1.0 if conjugate_orbit else 1.0
    s13 = orbit_sign * math.sqrt(13.0)
    s17 = orbit_sign * math.sqrt(17.0)
    s221 = math.sqrt(221.0)
    r2 = _checked_sqrt(s221 - 11.0, "r2")
    r3 = _checked_sqrt(15.0 + s17, "r3")
    t1 = orbit_sign * _checked_sqrt(15.0 + (4.0 - s17) * r3 - 3.0 * s17, "t1")
    t2sq = ((((3.0 - 5.0 * s17) * s13 + (39.0 * s17 - 65.0)) * r3
             + ((16.0 * s17 - 72.0) * s13 + 936.0)) * t1
            - 208.0 * s13 + 2288.0)
    t2 = t2_branch * _checked_sqrt(t2sq, "t2")
    t3 = -_checked_sqrt(2.0 - s2, "t3")
    t4 = -_checked_sqrt(2.0 + t3, "t4")
    return {"sqrt2": s2, "sqrt13": s13, "sqrt17": s17, "sqrt221": s221,
            "r2": r2, "r3": r3, "t1": t1, "t2": t2, "t3": t3, "t4": t4}


def fiducial_coefficients(t2_branch: int = +1,
                          conjugate_orbit: bool = False) -> dict[int, complex]:
    """Unnormalized adapted-basis fiducial coefficients x0, x1, x3, x4, x5, x7."""
    e = field_elements(t2_branch, conjugate_orbit)
    e["sqrt26"] = e["sqrt2"] * e["sqrt13"]
    e["sqrt34"] = e["sqrt2"] * e["sqrt17"]
    e["sqrt442"] = e["sqrt2"] * e["sqrt13"] * e["sqrt17"]
    x = _coefficients_from(e)
    sigma = _coefficients_from({**e, "r2": -e["r2"]})
    return {0: x[0], 1: x[1], 3: sigma[1], 4: x[4], 5: x[5], 7: 1j * sigma[5]}


def _coefficients_from(e: dict[str, float]) -> dict[int, complex]:
    """Formulas for x0, x1, x4, x5 evaluated at a given embedding of the
    radicals."""
    s2, s13, s17, s221 = e["sqrt2"], e["sqrt13"], e["sqrt17"], e["sqrt221"]
    s26 = e["sqrt26"]
    s34 = e["sqrt34"]
    s442 = e["sqrt442"]
    r2, r3, t1, t2 = e["r2"], e["r3"], e["t1"], e["t2"]
    # the printed x1/x3 expressions carry a trailing factor labelled t4; the
    # SIC equations only close with the value of t3 there, so t3 it is
    t3 = e["t3"]

    def lin(c2=0.0, c13=0.0, c17=0.0, c26=0.0, c34=0.0, c221=0.0, c442=0.0, c1=0.0):
        return (c2 * s2 + c13 * s13 + c17 * s17 + c26 * s26 + c34 * s34
                + c221 * s221 + c442 * s442 + c1)

    x0 = -(40.0 / 13.0) * s13 * r3 * t1 * t2

    x1_im = ((lin(21, 22, 16, 5, 5, 4, 1, 74) * r2 * r3
              + lin(-77, -26, -18, -33, -19, 2, -7, 42) * r2
              + lin(-45, 30, -10, 15, 5, 10, 5, -30) * r3
              + lin(0, 30, 30, 0, 0, 10, 0, -70)) * t1 * t3
             + (lin(3, 3, 9, -1, 7, 11, 3, 121) * r2 * r3
                + lin(-82, -88, -24, -74, -2, 24, -2, 264) * r2
                + lin(175, 80, -20, 75, -25, 0, -5, 380) * r3
                + lin(200, 220, -300, 160, -160, -20, -40, 180)) * t3)
    x1_re = ((lin(-10, -15, -15, -6, -8, -1, 0, -21) * r2 * r3
              + lin(55, 16, 28, 7, 21, 8, 5, 108) * r2
              + lin(70, 0, 0, 10, 0, 0, 0, 80) * r3
              + lin(-10, -130, -250, -70, -70, -30, -10, -630)) * t1 * t3
             + (lin(10, -51, -33, -24, -22, 1, 0, -29) * r2 * r3
                + lin(320, -4, 28, 8, 4, 44, 20, 524) * r2
                + lin(265, -30, -50, -15, -35, 10, 5, 310) * r3
                + lin(260, -200, -560, -100, -260, 0, 20, -600)) * t3)
    x1 = x1_re + 1j * x1_im

    x4_im = (lin(0, -11.0 / 26.0, -0.5, 0, 0, -3.0 / 26.0, 0, -0.5) * r2 * r3
             + lin(10, 0, 0, 20.0 / 13.0, 0, 0, 10.0 / 13.0, 0) * r2) * t1 * t2
    x4_re = (lin(0, 11.0 / 26.0, 0.5, 0, 0, 3.0 / 26.0, 0, 0.5) * r2 * r3
             + lin(10, 0, 0, 20.0 / 13.0, 0, 0, 10.0 / 13.0, 0) * r2) * t1 * t2
    x4 = x4_re + 1j * x4_im

    x5_im = ((lin(-37.5, -4, -2, -12.5, -7.5, 0, -2.5, 10) * r2 * r3
              + lin(-22, -24, -12, 14, 2, -4, -2, -24) * r2
              + lin(15, -5, -5, 25, -5, -5, 5, 35) * r3
              + lin(270, 60, 180, 10, 70, 20, 10, 620)) * t1
             + (lin(-85, -28, -4, -3, 1, 4, -5, -36) * r2 * r3
                + lin(-190, -86, 22, 34, 22, 22, -10, 122) * r2
                + lin(300, -60, 40, 40, -20, 0, 0, -220) * r3
                + lin(650, -60, 460, 110, -130, 60, 10, 660)))
    # the sqrt(2) coefficient here reads 1 1/2 in the printed table; that
    # value fails the SIC equations by exactly 4*sqrt(2)*r2*r3*t1 and the
    # corrected 5 1/2 passes (x7 derives from x5, so it carries the fix)
    x5_re = ((lin(5.5, 23, 19, -1.5, -4.5, 3, 0.5, 63) * r2 * r3
              + lin(152, 0, -20, 28, 24, 4, 12, 64) * r2
              + lin(-70, -5, 15, 0, 10, -5, 0, 55) * r3
              + lin(350, -100, -100, 50, 110, -20, 10, 60)) * t1
             + (lin(43, 28, 24, -23, -19, 8, 3, 108) * r2 * r3
                + lin(476, -22, -26, 28, 4, 6, 36, 26) * r2
                + lin(-170, -20, -40, 50, 10, 0, -10, 60) * r3
                + lin(410, -160, -120, 150, 270, 0, -30, 280)))
    x5 = x5_re + 1j * x5_im

    return {0: complex(x0), 1: x1, 4: x4, 5: x5}


def fiducial_amplitudes(t2_branch: int = +1,
                        conjugate_orbit: bool = False) -> list[complex]:
    """The adapted-basis fiducial of the slot-group ansatz, unnormalized."""
    coeffs = fiducial_coefficients(t2_branch, conjugate_orbit)
    v = [0j] * 16
    for lead, slots in FIDUCIAL_SLOT_GROUPS.items():
        for s in slots:
            v[s] = coeffs[lead]
    return v


def fiducial_vector(t2_branch: int = +1, conjugate_orbit: bool = False) -> np.ndarray:
    """`fiducial_amplitudes` as a unit-norm numpy vector."""
    import numpy as np
    v = np.array(fiducial_amplitudes(t2_branch, conjugate_orbit))
    return v / np.linalg.norm(v)
