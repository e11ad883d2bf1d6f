"""SIC fiducial vectors: closed forms for N = 4, 9, 16 and a numerical search.

A SIC fiducial is a unit vector whose Weyl-Heisenberg orbit is equiangular,

    |<psi| D_ij |psi>|^2 = 1/(N+1)   for all (i, j) != (0, 0).

Each fiducial carries a basis tag. A tag is one change of basis: the unitary
V whose columns are the tag's basis vectors in standard coordinates, so
amplitudes a stand for the standard vector V a and an operator M acts in the
tag's basis as V^dag M V. Only the m x m factor F = basis_change(dim, tag)
of V = F kron 1_{N/m} is built. Registered tags:

    standard   - V = 1, no factor: the shift/clock basis
    monomial   - F[t, r] = tau^{-2ntr}/sqrt(n), an n x n DFT: the
                 phase-permutation basis |r,s> of square N = n^2
    rephased4  - F = (monomial F kron 1_2) diag(tau^-2, tau^-7, tau^-5, 1):
                 the rephased monomial basis of the N = 4 closed form
    adapted16  - F = T.T with T = adapted16_basis(): the N = 16 basis in
                 which X^4 and Z^4 are diagonal

Two certificates read the same overlaps. `verify_sic` certifies a numeric
vector in any tag, by the one FFT overlap kernel `standard_overlaps` on
V a. `verify_closed_form` certifies a closed form in its own tag, whose X
and Z are phase permutations (`_weyl_tables`), in Python numbers: the
closed forms `closed_n4`, `closed_n9` and `closed_n16` are Python complex
numbers from `math`, `cmath` and `dims.tau_power`, so `verify sic
--builtin`, `generate sic` and `generate projection` import no numpy. They
and the numpy `Fiducial`s of the oracles `fiducial_n4`, `fiducial_n9` and
`fiducial_n16` all hold `ClosedForm.normalized()`, the same bits.

The module also searches the eigenvalue-1 eigenspace E0 of the order-3
symmetry, spanned by the cached `_e0_basis`, with one numpy L-BFGS pass per
restart (`_lbfgs`) that keeps its curvature pairs and their triangular
inverse in a ring (`_CurvatureRing`, after Byrd, Nocedal & Schnabel), so no
direction loops. numpy is imported only inside the functions that build
arrays.

What depends on N alone is built once per dimension and shared read-only:
each tag's F, the E0 basis and objective of the search and the shift gathers.
"""

from __future__ import annotations

import functools
import math
import operator
from typing import TYPE_CHECKING, Callable, NamedTuple

from .dims import Dimension, _checked_sqrt, sigma_power, tau_power, tau_powers
from .errors import BasisUnavailable

if TYPE_CHECKING:
    import numpy as np


class Fiducial(NamedTuple("Fiducial", [("dim", Dimension), ("basis", str),
                                        ("amplitudes", "np.ndarray"),
                                        ("provenance", dict)])):
    """A unit vector in its tag; `provenance` defaults to a fresh {}."""

    __slots__ = ()

    def __new__(cls, dim: Dimension, basis: str, amplitudes: np.ndarray,
                provenance: dict | None = None):
        import numpy as np
        N, shape = dim.N, np.shape(amplitudes)
        if shape != (N,):
            raise ValueError(f"a fiducial at N = {N} has {N} amplitudes in "
                             f"one dimension, not an array of shape {shape}")
        nrm = float(np.linalg.norm(amplitudes))
        if not abs(nrm - 1.0) <= 1e-12:  # NaN fails too
            raise ValueError(f"fiducial norm {nrm} deviates from 1 beyond 1e-12")
        return super().__new__(cls, dim, basis, amplitudes,
                               {} if provenance is None else provenance)


class ClosedForm(NamedTuple):
    """A closed-form fiducial in Python numbers: its ray, as amplitudes in
    its tag that are not normalized."""

    dim: Dimension
    basis: str
    amplitudes: tuple[complex, ...]
    provenance: dict

    def normalized(self) -> ClosedForm:
        """The closed form over its norm, summed by `math.fsum`."""
        norm = math.sqrt(math.fsum(x * x for z in self.amplitudes
                                   for x in (z.real, z.imag)))
        if not 0.0 < norm < math.inf:
            raise ValueError(f"closed form of norm {norm}: no ray")
        return self._replace(amplitudes=tuple(z / norm
                                              for z in self.amplitudes))


class SicCertificate(NamedTuple):
    max_abs_deviation: float
    passed: bool
    worst_displacement: tuple[int, int]  # (i, j) of the largest deviation


# tau exponents of the N = 4 rephasing |e_j> -> tau^{e_j} |e_j> of the
# monomial kets
REPHASE4 = (-2, -7, -5, 0)


@functools.lru_cache(maxsize=256)
def basis_change(dim: Dimension, basis: str) -> np.ndarray | None:
    """The m x m factor F of a tag's change of basis V = F kron 1_{N/m}, or
    None for the standard tag, whose V is 1; raises BasisUnavailable for an
    unknown tag or a tag registered at another N. Built once per (dim, tag)
    and returned read-only: copy it before writing into it."""
    import numpy as np
    if basis == "standard":
        return None
    if basis == "monomial" and dim.n is not None:
        t, r = np.indices((dim.n, dim.n))
        F = tau_powers(dim, -2 * dim.n * t * r) / np.sqrt(dim.n)
    elif basis == "rephased4" and dim.N == 4:
        F = (np.kron(basis_change(dim, "monomial"), np.eye(2))
             * tau_powers(dim, REPHASE4))
    elif basis == "adapted16" and dim.N == 16:
        from .adapted16 import adapted16_basis
        F = adapted16_basis().T
    else:
        raise BasisUnavailable(f"no basis {basis!r} registered at N={dim.N}")
    F.flags.writeable = False
    return F


def verify_sic(f: Fiducial, tol: float = 1e-8) -> SicCertificate:
    """Max deviation of |<psi|D_ij|psi>|^2 from 1/(N+1) over the N^2 - 1
    nontrivial displacements, with the (i, j) where it occurs.

    The overlaps come from the FFT kernel `standard_overlaps` on the
    standard-basis amplitudes; a basis change preserves each D_ij, so the
    certificate holds in the fiducial's own basis as well."""
    import numpy as np
    F, a = basis_change(f.dim, f.basis), np.asarray(f.amplitudes, complex)
    psi = a if F is None else (F @ a.reshape(len(F), -1)).ravel()
    probs = np.abs(standard_overlaps(psi)) ** 2
    dev = np.abs(probs - 1.0 / (f.dim.N + 1))
    dev[0, 0] = 0.0  # D_00 = identity carries no condition
    i, j = np.unravel_index(int(np.argmax(dev)), dev.shape)
    worst = float(dev[i, j])
    return SicCertificate(max_abs_deviation=worst, passed=worst <= tol,
                          worst_displacement=(int(i), int(j)))


def _weyl_tables(dim: Dimension, basis: str) -> tuple[tuple, tuple]:
    """X and Z in a closed form's tag, V^dag X V and V^dag Z V, as
    (image, expo) tuples of Python ints; raises BasisUnavailable for a tag
    in which they are no phase permutations, or one registered at another
    N."""
    if basis == "monomial" and dim.n is not None:
        from .monomial import monomial_weyl_tables
        return monomial_weyl_tables(dim)
    if basis == "rephased4" and dim.N == 4:
        # ket k of the tag is tau^{e_k} times monomial ket k, so the
        # exponent at k gains e_k - e_{image(k)}
        e = REPHASE4
        return tuple((image, tuple(x + e[k] - e[image[k]]
                                   for k, x in enumerate(expo)))
                     for image, expo in _weyl_tables(dim, "monomial"))
    if basis == "adapted16" and dim.N == 16:
        from .adapted16 import adapted16_weyl_tables
        return adapted16_weyl_tables()
    raise BasisUnavailable(f"no phase-permutation basis {basis!r} "
                           f"registered at N={dim.N}")


def verify_closed_form(c: ClosedForm, tol: float = 1e-8) -> SicCertificate:
    """`verify_sic`'s certificate of a closed form, in its own tag and in
    Python numbers: the same deviations up to rounding, and the first
    (i, j) in row-major order at which the largest occurs.

    The tag's X and Z are phase permutations, so with a the amplitudes of
    `c.normalized()`, |<a|D_ij|a>| = |<(X^i)^dag a, Z^j a>|: N - 1
    applications of each table and N^2 inner products of N terms, with no
    change of basis and no displacement stack."""
    dim, N = c.dim, c.dim.N
    (x_image, x_expo), (z_image, z_expo) = _weyl_tables(dim, c.basis)
    tau = [tau_power(dim, k) for k in range(dim.nbar)]
    a = c.normalized().amplitudes
    # rows[i] = conj((X^i)^dag a): its entry v is tau^{x_expo[v]} times
    # entry x_image[v] of rows[i - 1]. cols[j] = Z^j a: Z moves entry v to
    # z_image[v] times tau^{z_expo[v]}, gathered through the inverse image.
    x_step = [(k, tau[e % dim.nbar]) for k, e in zip(x_image, x_expo)]
    z_step = [None] * N
    for v, (k, e) in enumerate(zip(z_image, z_expo)):
        z_step[k] = (v, tau[e % dim.nbar])
    rows, cols = [[z.conjugate() for z in a]], [a]
    for _ in range(N - 1):
        rows.append([p * rows[-1][k] for k, p in x_step])
        cols.append([p * cols[-1][v] for v, p in z_step])
    target = 1.0 / (N + 1)
    worst, at = -1.0, (0, 0)
    for i, row in enumerate(rows):
        for j, col in enumerate(cols):
            s = sum(map(operator.mul, row, col))
            dev = abs(s.real * s.real + s.imag * s.imag - target)
            if dev > worst and (i, j) != (0, 0):
                worst, at = dev, (i, j)
    return SicCertificate(max_abs_deviation=worst, passed=worst <= tol,
                          worst_displacement=at)


def _fiducial(c: ClosedForm) -> Fiducial:
    """`c.normalized()` as a numpy `Fiducial`, bit for bit."""
    import numpy as np
    u = c.normalized()
    return Fiducial(u.dim, u.basis, np.array(u.amplitudes), u.provenance)


# ---------------------------------------------------------------------------
# N = 4 closed form
# ---------------------------------------------------------------------------

def closed_n4(slot: int, s: int, t: int, u: int) -> ClosedForm:
    """x = sqrt(2 + sqrt(5)) in the given slot, powers of i elsewhere,
    in the rephased N = 4 monomial basis. All 256 parameter choices are
    fiducials; they fall into 16 Weyl-Heisenberg orbits."""
    if not (0 <= slot < 4):
        raise ValueError(f"slot must be 0..3, got {slot}")
    v = [1j ** (e % 4) for e in (s, t, u)]
    v.insert(slot, complex(math.sqrt(2.0 + math.sqrt(5.0))))
    return ClosedForm(Dimension(4), "rephased4", tuple(v),
                      {"construction": "n4", "slot": slot, "s": s % 4,
                       "t": t % 4, "u": u % 4})


def fiducial_n4(slot: int, s: int, t: int, u: int) -> Fiducial:
    """`closed_n4` as a numpy `Fiducial`."""
    return _fiducial(closed_n4(slot, s, t, u))


# ---------------------------------------------------------------------------
# N = 9 closed form
# ---------------------------------------------------------------------------

def fiducial_n9_amplitudes(s0: int, s1: int, s2: int) -> tuple[float, float, float, float]:
    """(p1, p2, p3, p4) from the closed radicals; they solve
    p1 + p2 + 3 p3 + 3 p4 = 1,
    p1^2 + p2^2 - p1 p2 = 1/10,
    3 p3^2 + 3 p4^2 + 3 p3 p4 - p3 - p4 = -1/10."""
    r3, r5, r15 = math.sqrt(3.0), math.sqrt(5.0), math.sqrt(15.0)
    a1 = (5.0 - s0 * 5.0 * r3 + s0 * 3.0 * r5 + r15) / 40.0
    b1 = s2 / 60.0 * _checked_sqrt(15.0 * (r15 + s0 * r3), "b1")
    a3 = (15.0 + s0 * 5.0 * r3 - s0 * 3.0 * r5 - r15) / 120.0
    b3 = s1 / 60.0 * _checked_sqrt(
        5.0 * (-18.0 - s0 * 7.0 * r3 + s0 * 6.0 * r5 + 5.0 * r15), "b3")
    return a1 + b1, a1 - b1, a3 + b3, a3 - b3


def closed_n9(s0: int, s1: int, s2: int, m3: int, m4: int) -> ClosedForm:
    """Closed-form N = 9 fiducial in the monomial basis.

    Parameters: signs s0, s1, s2 in {+1, -1} and cube-root indices m3, m4 in
    {0, 1, 2}; 72 vectors in total. The sign s0 selects one of two orbits of
    the extended Clifford group. The vector is

        -z1 w^7 |1,1> - z2 w |2,2>
        + z3 (w^6 |0,2> + |1,0> + w^8 |2,1>)
        + z4 (w^6 |0,1> + |2,0> + w^5 |1,2>)

    with w = omega, z1 = sqrt(p1) e^{i mu0}, z2 = sqrt(p2) e^{-i mu0},
    z3 = sqrt(p3) e^{i mu3}, z4 = sqrt(p4) e^{i mu4}; mu0 is taken on the
    branch -pi/2 < mu0 <= pi/2 and e^{i mu3}, e^{i mu4} are principal cube
    roots times sigma^{m3}, sigma^{m4}.
    """
    if s0 not in (1, -1) or s1 not in (1, -1) or s2 not in (1, -1):
        raise ValueError("s0, s1, s2 must be +1 or -1")
    dim = Dimension(9)
    r3, r5, r15 = math.sqrt(3.0), math.sqrt(5.0), math.sqrt(15.0)
    p1, p2, p3, p4 = fiducial_n9_amplitudes(s0, s1, s2)

    c0 = 0.125 * _checked_sqrt(2.0 * (6.0 + s0 * r3 - r15), "c0")
    e_mu0 = _checked_sqrt(0.5 + c0, "mu0 re") - 1j * s1 * _checked_sqrt(0.5 - c0, "mu0 im")

    c1 = s0 / 8.0 * _checked_sqrt(9.0 - s0 * 4.0 * r3 + s0 * 3.0 * r5 - 2.0 * r15, "c1")
    c2 = s1 * s0 / 24.0 * _checked_sqrt(
        15.0 * (-19.0 + s0 * 12.0 * r3 - s0 * 9.0 * r5 + 6.0 * r15), "c2")
    cube3 = (-_checked_sqrt(0.5 - c1 + c2, "mu3 re")
             + 1j * s1 * s2 * _checked_sqrt(0.5 + c1 - c2, "mu3 im"))
    cube4 = (-_checked_sqrt(0.5 - c1 - c2, "mu4 re")
             + 1j * s1 * s2 * _checked_sqrt(0.5 + c1 + c2, "mu4 im"))
    e_mu3 = sigma_power(dim, m3) * complex(cube3) ** (1.0 / 3.0)
    e_mu4 = sigma_power(dim, m4) * complex(cube4) ** (1.0 / 3.0)

    z1 = math.sqrt(p1) * e_mu0
    z2 = math.sqrt(p2) * e_mu0.conjugate()
    z3 = math.sqrt(p3) * e_mu3
    z4 = math.sqrt(p4) * e_mu4

    def w(k: int) -> complex:  # omega^k
        return tau_power(dim, 2 * k)

    # the amplitude of |r,s> at r*3 + s
    v = (0j, z4 * w(6), z3 * w(6),
         z3, -z1 * w(7), z4 * w(5),
         z4, z3 * w(8), -z2 * w(1))
    return ClosedForm(dim, "monomial", v,
                      {"construction": "n9", "s0": s0, "s1": s1, "s2": s2,
                       "m3": m3 % 3, "m4": m4 % 3,
                       "orbit": "9a" if s0 == 1 else "9b"})


def fiducial_n9(s0: int, s1: int, s2: int, m3: int, m4: int) -> Fiducial:
    """`closed_n9` as a numpy `Fiducial`."""
    return _fiducial(closed_n9(s0, s1, s2, m3, m4))


# ---------------------------------------------------------------------------
# N = 16 closed form (heavy lifting lives in adapted16)
# ---------------------------------------------------------------------------

def closed_n16(t2_branch: int = +1, conjugate_orbit: bool = False) -> ClosedForm:
    """Closed-form N = 16 fiducial in the adapted basis. Both t2 branches
    give valid fiducials; conjugate_orbit flips the signs of sqrt(13) and
    sqrt(17) in the coefficient field, landing on the second orbit."""
    from .adapted16 import fiducial_amplitudes
    return ClosedForm(Dimension(16), "adapted16",
                      tuple(fiducial_amplitudes(t2_branch, conjugate_orbit)),
                      {"construction": "n16", "t2_branch": t2_branch,
                       "conjugate_orbit": bool(conjugate_orbit),
                       "orbit": "16b" if conjugate_orbit else "16a"})


def fiducial_n16(t2_branch: int = +1, conjugate_orbit: bool = False) -> Fiducial:
    """`closed_n16` as a numpy `Fiducial`."""
    return _fiducial(closed_n16(t2_branch, conjugate_orbit))


# ---------------------------------------------------------------------------
# Zauner eigenspace and numerical search
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=256)
def _e0_basis(dim: Dimension) -> np.ndarray:
    """Orthonormal columns spanning the eigenvalue-1 eigenspace of the
    standard-basis order-3 unitary U, from P = (1 + U + U^2)/3; built once
    per dimension, read-only."""
    import numpy as np

    from .clifford import zauner_unitary
    U = zauner_unitary(dim)
    P = (np.eye(dim.N) + U + U @ U) / 3.0
    w, v = np.linalg.eigh(P @ P.conj().T)
    cols = v[:, w > 0.5]
    # re-orthonormalize the projected columns against roundoff
    q, _ = np.linalg.qr(P @ cols)
    q.flags.writeable = False
    return q


def sic_residual(psi: np.ndarray, D: np.ndarray, N: int) -> float:
    """F(psi) contracted over a dense displacement stack D: the O(N^4)
    reference that `frame_residual` is tested against."""
    import numpy as np
    overlaps = np.einsum("i,kij,j->k", psi.conj(), D, psi)
    probs = np.abs(overlaps) ** 2
    probs[0] = 1.0 / (N + 1)
    return float(np.sum((probs - 1.0 / (N + 1)) ** 2))


@functools.lru_cache(maxsize=256)
def _shift_index(N: int, sign: int) -> np.ndarray:
    """(v + sign*i) mod N at row i, column v; built once per (N, sign),
    read-only."""
    import numpy as np
    u = np.arange(N)
    index = (u[None, :] + sign * u[:, None]) % N
    index.flags.writeable = False
    return index


@functools.lru_cache(maxsize=256)
def _row_shift_gather(N: int) -> np.ndarray:
    """Flat indices of entry (i, (v - i) mod N) of a C-ordered N x N array,
    at row i, column v: M.ravel()[index] is
    np.take_along_axis(M, _shift_index(N, -1), axis=1). Read-only."""
    import numpy as np
    index = _shift_index(N, -1) + N * np.arange(N)[:, None]
    index.flags.writeable = False
    return index


def standard_overlaps(psi: np.ndarray) -> np.ndarray:
    """S_ij = sum_v conj(psi_{v+i}) omega^{jv} psi_v as an N x N array.

    In the standard basis D_ij|v> = tau^{ij} omega^{jv} |v+i>, so
    <psi|D_ij|psi> = tau^{ij} S_ij: N shifted products and one unscaled
    inverse FFT along v (norm="forward"), O(N^2 log N), not O(N^4)."""
    import numpy as np
    S = psi.conj()[_shift_index(len(psi), +1)] * psi
    return np.fft.ifft(S, axis=1, norm="forward", out=S)


def frame_residual(psi: np.ndarray) -> tuple[float, np.ndarray]:
    """F(psi) = sum_{(i,j) != 0} (|S_ij|^2 - 1/(N+1))^2 for a standard-basis
    unit vector, with its Wirtinger gradient dF/d conj(psi).

    With w_ij = |S_ij|^2 - 1/(N+1) (w_00 = 0) and
    B_i(v) = psi_v sum_j w_ij conj(S_ij) omega^{jv}, one more FFT, the
    gradient is 4 sum_i B_i(u-i), one gather: the terms from S and conj(S)
    are equal because w_{-i,-j} = w_ij. B is formed in S's buffer."""
    import numpy as np
    N = len(psi)
    S = standard_overlaps(psi)
    w = np.abs(S) ** 2
    w -= 1.0 / (N + 1)
    w[0, 0] = 0.0
    np.multiply(np.conjugate(S, out=S), w, out=S)
    np.fft.ifft(S, axis=1, norm="forward", out=S)
    S *= psi
    return float(np.vdot(w, w)), 4.0 * S.ravel()[_row_shift_gather(N)].sum(0)


SEARCH_MAX_ITER = 100_000  # iteration cap of the one L-BFGS pass per restart
LBFGS_MEMORY = 10  # curvature pairs kept
LINE_SEARCH_EVALS = 20  # evaluations allowed per line search
ARMIJO, CURVATURE = 1e-3, 0.9  # weak-Wolfe constants of the line search


class LbfgsResult(NamedTuple):
    x: np.ndarray
    fun: float
    nit: int   # iterations, one accepted line search each
    nfev: int  # objective evaluations, the start included
    stop: str  # "gtol", "ftol", "line search" or "maxiter"


class _CurvatureRing:
    """The last LBFGS_MEMORY curvature pairs (s, y) of an L-BFGS pass in a
    ring of slots: S[k] = s, Y[k] = y, sy[k] = s.y, zero while empty, and Ui,
    the inverse of U_ij = s_i.y_j over pairs i no newer than j. A pair
    entering slot k zeroes the row and column of the pair it replaces, which
    leaves the inverse of the trailing block (Byrd, Nocedal & Schnabel, Math.
    Prog. 63, 129 (1994)), and adds Ui[:, k] = -Ui (S y)/s.y, Ui[k, k] = 1/s.y.
    With H_0 = gamma = s.y/y.y of the newest pair (1 while empty), -H g is
    S^T Ui^T (Y r - sy a) - r for a = Ui S g and r = gamma (g - Y^T a)."""

    def __init__(self, n: int):
        import numpy as np
        self.S, self.Y = np.zeros((2, LBFGS_MEMORY, n))
        self.Ui = np.zeros((LBFGS_MEMORY, LBFGS_MEMORY))
        self.sy, self.pairs, self.gamma = np.zeros(LBFGS_MEMORY), 0, 1.0

    def push(self, s: np.ndarray, y: np.ndarray) -> None:
        sy = s @ y
        if sy > 0:
            k, Ui = self.pairs % LBFGS_MEMORY, self.Ui
            Ui[k] = Ui[:, k] = 0.0
            self.S[k], self.Y[k], self.sy[k] = s, y, sy
            Ui[:, k] = Ui @ (self.S @ y) / -sy
            Ui[k, k] = 1.0 / sy
            self.pairs, self.gamma = self.pairs + 1, sy / (y @ y)

    def direction(self, g: np.ndarray) -> np.ndarray:
        a = self.Ui @ (self.S @ g)
        r = self.gamma * (g - a @ self.Y)
        return (self.Y @ r - self.sy * a) @ self.Ui @ self.S - r


def _lbfgs(fg: Callable[[np.ndarray], tuple[float, np.ndarray]],
           x: np.ndarray, ftol: float, gtol: float,
           maxiter: int) -> LbfgsResult:
    """Minimise f from x by L-BFGS (Liu & Nocedal, Math. Prog. 45, 503
    (1989)); fg returns f and its gradient.

    The direction is -H g for the inverse-Hessian estimate H of the last
    LBFGS_MEMORY curvature pairs (s, y) in a `_CurvatureRing`, which skips
    a pair with s.y <= 0. The first trial step is min(1, 1/|g|) times -g,
    later ones start at the full step, and `_line_search` picks each step.
    The pass stops when max|g| <= gtol, when the relative reduction
    (f_k - f_k+1) / max(|f_k|, |f_k+1|, 1) <= ftol, when the line search
    fails, or after maxiter iterations. These rules and the constants above
    follow the L-BFGS-B code of Zhu, Byrd, Lu & Nocedal, ACM Trans. Math.
    Softw. 23, 550 (1997)."""
    import numpy as np
    f, g = fg(x)
    nfev, nit, reduction = 1, 0, math.inf
    ring = _CurvatureRing(x.size)
    while True:
        if np.abs(g).max() <= gtol:
            return LbfgsResult(x, f, nit, nfev, "gtol")
        if reduction <= ftol:
            return LbfgsResult(x, f, nit, nfev, "ftol")
        if nit == maxiter:
            return LbfgsResult(x, f, nit, nfev, "maxiter")
        step = min(1.0, 1.0 / np.linalg.norm(g)) if nit == 0 else 1.0
        x1, f1, g1, evals = _line_search(fg, x, f, g, ring.direction(g), step)
        nfev += evals
        if x1 is None:
            return LbfgsResult(x, f, nit, nfev, "line search")
        ring.push(x1 - x, g1 - g)
        reduction = (f - f1) / max(abs(f), abs(f1), 1.0)
        x, f, g, nit = x1, f1, g1, nit + 1


def _line_search(fg, x: np.ndarray, f: float, g: np.ndarray, d: np.ndarray,
                 step: float) -> tuple:
    """A weak-Wolfe step along d from x: (x1, f1, g1, evals), or
    (None, f, g, evals) when it fails.

    A trial step is accepted when its decrease is at least ARMIJO times the
    predicted one and its slope has risen to CURVATURE times the initial
    one. A step whose slope is still too steep doubles until some step
    fails the decrease test; from then on each trial is the safeguarded
    quadratic interpolation inside the bracket. The search gives up after
    LINE_SEARCH_EVALS evaluations, or at once if d is not downhill."""
    slope = g @ d
    if not slope < 0:
        return None, f, g, 0
    lo, f_lo, slope_lo, hi, f_hi = 0.0, f, slope, math.inf, math.inf
    for evals in range(1, LINE_SEARCH_EVALS + 1):
        x1 = x + step * d
        f1, g1 = fg(x1)
        if not f1 <= f + ARMIJO * step * slope:
            hi, f_hi = step, f1
        else:
            slope1 = g1 @ d
            if slope1 >= CURVATURE * slope:
                return x1, f1, g1, evals
            lo, f_lo, slope_lo = step, f1, slope1
        if hi == math.inf:
            step *= 2.0
        else:
            # minimiser of the quadratic through f_lo, slope_lo and f_hi,
            # kept off the ends of [lo, hi]
            width = hi - lo
            t = -slope_lo * width / (2.0 * (f_hi - f_lo - slope_lo * width))
            step = lo + width * min(max(t, 0.1), 0.9)
    return None, f, g, LINE_SEARCH_EVALS


@functools.lru_cache(maxsize=256)
def _e0_objective(dim: Dimension) -> Callable[[np.ndarray],
                                               tuple[float, np.ndarray]]:
    """x -> (F, dF/dx) for psi = Bx x/|x|, Bx = [B, iB] for the E0 basis B
    (Bx x = B c with c = x[:d] + i x[d:]), built once per dimension. Bx is
    held as the real (2d, 2N) array R whose row k interleaves Re and Im of
    column k: on vectors viewed as floats, R.T x is Bx x and R g is
    Re(Bx^dag g). As Re(Bx^dag Bx) = 1, dF/dx is
    (2/|x|) (Re(Bx^dag g) - Re<psi, g> x/|x|) for g = dF/d conj(psi)."""
    import numpy as np
    B = _e0_basis(dim)
    R = np.ascontiguousarray(np.hstack((B, 1j * B)).T).view(np.float64)

    def objective(x: np.ndarray) -> tuple[float, np.ndarray]:
        nrm = math.sqrt(x @ x)
        if nrm < 1e-12:
            return 1.0, np.zeros_like(x)
        u = x / nrm
        psi = R.T @ u
        F, g = frame_residual(psi.view(complex))
        g = g.view(np.float64)
        return F, (2.0 / nrm) * (R @ g - (psi @ g) * u)

    return objective


def search_fiducial(dim: Dimension, rng_seed: int = 0, max_restarts: int = 50,
                    tol: float = 1e-8) -> Fiducial | None:
    """Numerical fiducial search in the order-3 eigenspace E0.

    Random unit starts are drawn inside E0 with deterministically derived
    sub-seeds (one per restart), then refined by one L-BFGS pass (`_lbfgs`)
    on F(psi) = sum ( |<psi|D_ij|psi>|^2 - 1/(N+1) )^2 with psi = Bc/|c| for
    an orthonormal basis B of E0: the multi-start scheme of Renes,
    Blume-Kohout, Scott & Caves, J. Math. Phys. 45, 2171 (2004). F and its
    exact gradient come from `_e0_objective`, with no finite differences and
    no displacement matrices. Returns the first restart (lowest index) whose
    refined vector passes verify_sic at tol, or None if all restarts fail.
    Its provenance records that pass's `nit`, `nfev` and `stop`.
    """
    import numpy as np
    B = _e0_basis(dim)
    d = B.shape[1]
    objective = _e0_objective(dim)
    for restart in range(max_restarts):
        # child `restart` of SeedSequence(rng_seed).spawn(max_restarts),
        # made only when the restart is reached
        seed = np.random.SeedSequence(rng_seed, spawn_key=(restart,))
        rng = np.random.default_rng(seed)
        res = _lbfgs(objective, rng.standard_normal(2 * d), ftol=1e-18,
                     gtol=1e-14, maxiter=SEARCH_MAX_ITER)
        c = res.x[:d] + 1j * res.x[d:]
        psi = B @ (c / np.linalg.norm(c))
        psi = psi / np.linalg.norm(psi)
        f = Fiducial(dim, "standard", psi,
                     {"construction": "search", "rng_seed": rng_seed,
                      "restart": restart, "residual": float(res.fun),
                      "nit": res.nit, "nfev": res.nfev, "stop": res.stop})
        if verify_sic(f, tol).passed:
            return f
    return None
