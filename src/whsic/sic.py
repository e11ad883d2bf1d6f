"""SIC fiducial vectors: closed forms for N = 4, 9, 16 and a numerical search.

A SIC fiducial is a unit vector whose Weyl-Heisenberg orbit is equiangular,

    |<psi| D_ij |psi>|^2 = 1/(N+1)   for all (i, j) != (0, 0).

Each fiducial carries a basis tag. A tag is one change of basis: the unitary
V = basis_change(dim, tag), whose columns are the tag's basis vectors in
standard coordinates, so amplitudes a stand for the standard vector V a and
an operator M acts in the tag's basis as V^dag M V. Registered tags:

    standard   - V = 1: the shift/clock basis
    monomial   - V = zak_matrix(dim): the phase-permutation basis |r,s>
                 (square N)
    rephased4  - V = zak_matrix(4) diag(tau^-2, tau^-7, tau^-5, 1): the
                 rephased monomial basis of the N = 4 closed form
    adapted16  - V = T.T with T from adapted16_generators: the N = 16 basis in
                 which X^4 and Z^4 are diagonal

Every certificate, in every basis, runs on the one FFT overlap kernel
`standard_overlaps` applied to V a. The module also checks the shifted
autocorrelations of |a|^2 (2/(N+1) at zero shift, 1/(N+1) elsewhere) and
searches the eigenvalue-1 eigenspace E0 of the order-3 symmetry, spanned by
the cached `_e0_basis`, with one numpy L-BFGS pass per restart (`_lbfgs`).

What depends on N alone is built once per dimension and shared read-only:
each tag's V, the E0 basis and objective of the search and the shift gathers.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .dims import (Dimension, PhasePermutation, _checked_sqrt, sigma_power,
                   tau_powers)
from .errors import BasisUnavailable


@dataclass(frozen=True)
class Fiducial:
    dim: Dimension
    basis: str
    amplitudes: np.ndarray
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        nrm = float(np.linalg.norm(self.amplitudes))
        if abs(nrm - 1.0) > 1e-12:
            raise ValueError(f"fiducial norm {nrm} deviates from 1 beyond 1e-12")


@dataclass(frozen=True)
class SicCertificate:
    max_abs_deviation: float
    passed: bool
    worst_displacement: tuple[int, int]  # (i, j) of the largest deviation


# tau exponents of the N = 4 rephasing |e_j> -> tau^{e_j} |e_j> of the
# monomial kets
REPHASE4 = (-2, -7, -5, 0)


def rephased4_generators() -> tuple[PhasePermutation, PhasePermutation]:
    """N = 4 monomial generators after the diagonal rephasing
    diag(tau^-2, tau^-7, tau^-5, 1); both come out as tau times a signed
    permutation with entries in {1, i, -1}."""
    from .monomial import monomial_weyl_generators
    dim = Dimension(4)
    # rescaling the kets |e_j> -> ph_j |e_j> conjugates operators by the
    # inverse diagonal, M' = P^{-1} M P: a shift of the tau exponents
    e = np.arange(4)
    P = PhasePermutation(dim, e, REPHASE4)
    Pinv = PhasePermutation(dim, e, np.negative(REPHASE4))
    return tuple(Pinv @ M @ P for M in monomial_weyl_generators(dim))


@functools.lru_cache(maxsize=256)
def basis_change(dim: Dimension, basis: str) -> np.ndarray:
    """Unitary V whose columns are the basis vectors of a tag in standard
    coordinates; raises BasisUnavailable for an unknown tag or a tag
    registered at another N. Built once per (dim, tag) and returned
    read-only: copy it before writing into it."""
    if basis == "standard":
        V = np.eye(dim.N, dtype=complex)
    elif basis == "monomial" and dim.is_square:
        from .monomial import zak_matrix
        V = zak_matrix(dim)
    elif basis == "rephased4" and dim.N == 4:
        V = basis_change(dim, "monomial") * tau_powers(dim, REPHASE4)
    elif basis == "adapted16" and dim.N == 16:
        from .adapted16 import adapted16_generators
        V = adapted16_generators()[2].T
    else:
        raise BasisUnavailable(f"no basis {basis!r} registered at N={dim.N}")
    V.flags.writeable = False
    return V


def to_standard(f: Fiducial) -> Fiducial:
    """The same fiducial with its amplitudes in the standard basis."""
    return Fiducial(f.dim, "standard",
                    basis_change(f.dim, f.basis) @ f.amplitudes, f.provenance)


def verify_sic(f: Fiducial, tol: float = 1e-8) -> SicCertificate:
    """Max deviation of |<psi|D_ij|psi>|^2 from 1/(N+1) over the N^2 - 1
    nontrivial displacements, with the (i, j) where it occurs.

    The overlaps come from the FFT kernel `standard_overlaps` on the
    standard-basis amplitudes; a basis change preserves each D_ij, so the
    certificate holds in the fiducial's own basis as well."""
    N = f.dim.N
    psi = basis_change(f.dim, f.basis) @ f.amplitudes
    probs = np.abs(standard_overlaps(psi)) ** 2
    dev = np.abs(probs - 1.0 / (N + 1))
    dev[0, 0] = 0.0  # D_00 = identity carries no condition
    i, j = np.unravel_index(int(np.argmax(dev)), dev.shape)
    worst = float(dev[i, j])
    return SicCertificate(max_abs_deviation=worst, passed=worst <= tol,
                          worst_displacement=(int(i), int(j)))


# ---------------------------------------------------------------------------
# N = 4 closed form
# ---------------------------------------------------------------------------

def fiducial_n4(slot: int, s: int, t: int, u: int) -> Fiducial:
    """x = sqrt(2 + sqrt(5)) in the given slot, powers of i elsewhere,
    in the rephased N = 4 monomial basis. All 256 parameter choices are
    fiducials; they fall into 16 Weyl-Heisenberg orbits."""
    if not (0 <= slot < 4):
        raise ValueError(f"slot must be 0..3, got {slot}")
    x = math.sqrt(2.0 + math.sqrt(5.0))
    v = np.empty(4, dtype=complex)
    v[slot] = x
    rest = [k for k in range(4) if k != slot]
    for k, e in zip(rest, (s, t, u)):
        v[k] = 1j ** (e % 4)
    v = v / np.linalg.norm(v)
    return Fiducial(Dimension(4), "rephased4", v,
                    {"construction": "n4", "slot": slot, "s": s % 4,
                     "t": t % 4, "u": u % 4})


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


def fiducial_n9(s0: int, s1: int, s2: int, m3: int, m4: int) -> Fiducial:
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
    z2 = math.sqrt(p2) * np.conj(e_mu0)
    z3 = math.sqrt(p3) * e_mu3
    z4 = math.sqrt(p4) * e_mu4

    w = tau_powers(dim, 2 * np.arange(9))  # omega^k
    v = np.zeros((3, 3), dtype=complex)  # v[r, s] is the amplitude of |r,s>
    v[1, 1] = -z1 * w[7]
    v[2, 2] = -z2 * w[1]
    v[0, 2] = z3 * w[6]
    v[1, 0] = z3
    v[2, 1] = z3 * w[8]
    v[0, 1] = z4 * w[6]
    v[2, 0] = z4
    v[1, 2] = z4 * w[5]
    v = v.ravel() / np.linalg.norm(v)
    return Fiducial(dim, "monomial", v,
                    {"construction": "n9", "s0": s0, "s1": s1, "s2": s2,
                     "m3": m3 % 3, "m4": m4 % 3,
                     "orbit": "9a" if s0 == 1 else "9b"})


# ---------------------------------------------------------------------------
# N = 16 closed form (heavy lifting lives in adapted16)
# ---------------------------------------------------------------------------

def fiducial_n16(t2_branch: int = +1, conjugate_orbit: bool = False) -> Fiducial:
    """Closed-form N = 16 fiducial in the adapted basis. Both t2 branches
    give valid fiducials; conjugate_orbit flips the signs of sqrt(13) and
    sqrt(17) in the coefficient field, landing on the second orbit."""
    from .adapted16 import fiducial_vector
    v = fiducial_vector(t2_branch, conjugate_orbit)
    return Fiducial(Dimension(16), "adapted16", v,
                    {"construction": "n16", "t2_branch": t2_branch,
                     "conjugate_orbit": bool(conjugate_orbit),
                     "orbit": "16b" if conjugate_orbit else "16a"})


# ---------------------------------------------------------------------------
# Autocorrelations of the simplex projection
# ---------------------------------------------------------------------------

def autocorrelation_check(f: Fiducial) -> np.ndarray:
    """Residuals of the shifted-product probability sums.

    In the standard basis the sums run over 1D shifts,
    sum_i p_i p_{i+x} with x mod N; in a phase-permutation basis over 2D
    shifts, sum_{r,s} p_{rs} p_{r+x,s+y} with x, y mod n. The zero shift must
    give 2/(N+1), every other shift 1/(N+1); the returned array holds the
    absolute residuals, indexed by shift.
    """
    dim = f.dim
    if f.basis == "standard":
        shape = (dim.N,)
    elif f.basis in ("monomial", "rephased4") and dim.is_square:
        shape = (dim.n, dim.n)
    else:
        raise BasisUnavailable(
            f"autocorrelation shifts are not defined for basis {f.basis!r}")
    P = np.fft.fftn((np.abs(f.amplitudes) ** 2).reshape(shape))
    sums = np.fft.ifftn(np.abs(P) ** 2).real
    target = np.full(shape, 1.0 / (dim.N + 1))
    target.flat[0] = 2.0 / (dim.N + 1)
    return np.abs(sums - target)


# ---------------------------------------------------------------------------
# Zauner eigenspace and numerical search
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=256)
def _e0_basis(dim: Dimension) -> np.ndarray:
    """Orthonormal columns spanning the eigenvalue-1 eigenspace of the
    standard-basis order-3 unitary U, from P = (1 + U + U^2)/3; built once
    per dimension, read-only."""
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
    overlaps = np.einsum("i,kij,j->k", psi.conj(), D, psi)
    probs = np.abs(overlaps) ** 2
    probs[0] = 1.0 / (N + 1)
    return float(np.sum((probs - 1.0 / (N + 1)) ** 2))


@functools.lru_cache(maxsize=256)
def _shift_index(N: int, sign: int) -> np.ndarray:
    """(v + sign*i) mod N at row i, column v; built once per (N, sign),
    read-only."""
    u = np.arange(N)
    index = (u[None, :] + sign * u[:, None]) % N
    index.flags.writeable = False
    return index


@functools.lru_cache(maxsize=256)
def _row_shift_gather(N: int) -> np.ndarray:
    """Flat indices of entry (i, (v - i) mod N) of a C-ordered N x N array,
    at row i, column v: M.ravel()[index] is
    np.take_along_axis(M, _shift_index(N, -1), axis=1). Read-only."""
    index = _shift_index(N, -1) + N * np.arange(N)[:, None]
    index.flags.writeable = False
    return index


def standard_overlaps(psi: np.ndarray) -> np.ndarray:
    """S_ij = sum_v conj(psi_{v+i}) omega^{jv} psi_v as an N x N array.

    In the standard basis D_ij|v> = tau^{ij} omega^{jv} |v+i>, so
    <psi|D_ij|psi> = tau^{ij} S_ij: N shifted products and one FFT along v,
    O(N^2 log N) in place of the O(N^4) dense contraction."""
    N = len(psi)
    S = psi.conj()[_shift_index(N, +1)] * psi
    return np.multiply(np.fft.ifft(S, axis=1, out=S), N, out=S)


def frame_residual(psi: np.ndarray) -> tuple[float, np.ndarray]:
    """F(psi) = sum_{(i,j) != 0} (|S_ij|^2 - 1/(N+1))^2 for a standard-basis
    unit vector, with its Wirtinger gradient dF/d conj(psi).

    With w_ij = |S_ij|^2 - 1/(N+1) (w_00 = 0) and
    B_i(v) = psi_v sum_j w_ij conj(S_ij) omega^{jv}, one more FFT, the
    gradient is 4 sum_i B_i(u-i), one gather: the terms from S and conj(S)
    are equal because w_{-i,-j} = w_ij. B is formed in S's buffer."""
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


def _lbfgs(fg: Callable[[np.ndarray], tuple[float, np.ndarray]],
           x: np.ndarray, ftol: float, gtol: float,
           maxiter: int) -> LbfgsResult:
    """Minimise f from x by L-BFGS (Liu & Nocedal, Math. Prog. 45, 503
    (1989)); fg returns f and its gradient.

    The direction is -H g for the inverse-Hessian estimate H of the last
    LBFGS_MEMORY curvature pairs (s, y); a pair with s.y <= 0 is skipped.
    The first trial step is min(1, 1/|g|) times -g, later ones start at
    the full step, and `_line_search` picks each step. The pass stops when
    max|g| <= gtol, when the relative reduction
    (f_k - f_k+1) / max(|f_k|, |f_k+1|, 1) <= ftol, when the line search
    fails, or after maxiter iterations. These rules and the constants above
    follow the L-BFGS-B code of Zhu, Byrd, Lu & Nocedal, ACM Trans. Math.
    Softw. 23, 550 (1997).
    """
    f, g = fg(x)
    nfev, nit, reduction = 1, 0, math.inf
    S = Y = np.empty((0, x.size))  # rows s and y, oldest first
    while True:
        if np.abs(g).max() <= gtol:
            return LbfgsResult(x, f, nit, nfev, "gtol")
        if reduction <= ftol:
            return LbfgsResult(x, f, nit, nfev, "ftol")
        if nit == maxiter:
            return LbfgsResult(x, f, nit, nfev, "maxiter")
        d = _direction(g, S, Y)
        step = min(1.0, 1.0 / np.linalg.norm(g)) if nit == 0 else 1.0
        x1, f1, g1, evals = _line_search(fg, x, f, g, d, step)
        nfev += evals
        if x1 is None:
            return LbfgsResult(x, f, nit, nfev, "line search")
        s, y = x1 - x, g1 - g
        if s @ y > 0:
            S = np.concatenate((S, s[None]))[-LBFGS_MEMORY:]
            Y = np.concatenate((Y, y[None]))[-LBFGS_MEMORY:]
        reduction = (f - f1) / max(abs(f), abs(f1), 1.0)
        x, f, g, nit = x1, f1, g1, nit + 1


def _direction(g: np.ndarray, S: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """-H g by the two-loop recursion over the pairs in the rows of S and Y
    (oldest first), with H_0 = s.y / y.y of the newest pair.

    Each loop's inner products come from one m x m table s_i.y_j, so the
    recursions run on m scalars and not on m vector updates."""
    m = len(S)
    if m == 0:
        return -g
    SY = (S @ Y.T).tolist()
    # newest to oldest: alpha_i = rho_i s_i.(g - sum_{j>i} alpha_j y_j)
    alpha = (S @ g).tolist()
    for i in reversed(range(m)):
        for j in range(i + 1, m):
            alpha[i] -= alpha[j] * SY[i][j]
        alpha[i] /= SY[i][i]
    r = (g - np.array(alpha) @ Y) * (SY[-1][-1] / (Y[-1] @ Y[-1]))
    # oldest to newest: r += (alpha_i - rho_i y_i.r) s_i
    coef = (Y @ r).tolist()
    for i in range(m):
        for j in range(i):
            coef[i] += coef[j] * SY[j][i]
        coef[i] = alpha[i] - coef[i] / SY[i][i]
    return -(r + np.array(coef) @ S)


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
