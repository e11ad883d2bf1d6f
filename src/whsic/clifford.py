"""SL(2, nbar) symplectic matrices and their metaplectic unitaries.

The metaplectic formula used throughout is

    U_G = (1/sqrt(N)) sum_{u,v} tau^{beta^{-1}(delta u^2 - 2uv + alpha v^2)} |u><v|

valid when beta is invertible mod nbar: U_G is then a chirp, tau to a
quadratic form over sqrt(N) with three coefficients (`chirp_coefficients`)
that the CRT check compares and `chirp_exponents` tabulates. Otherwise G is
split as G = (0,-1;1,x) * (gamma+x*alpha, delta+x*beta; -alpha, -beta) with x
chosen minimal so that delta + x*beta is coprime to nbar, and the two chirps
are multiplied (`chirp_factors`). The order-3 Zauner unitary is certified
with no matrix and no float, from two Gauss sums (`zauner_counts`). The
float covariance check `conjugation_check_batched`, an oracle for the
tests and the `certify` benchmark that no command runs, reads a dense
displacement stack once, in blocks, finding each block's support from the
float halves of its entries; it moves to the tests when the benchmark drops
it. numpy is imported only inside the functions that build arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .dims import (Dimension, PhasePermutation, mod_inverse, tau_powers,
                   tau_table)
from .errors import DetNotMinusOne

if TYPE_CHECKING:  # fractions loads only with the exact Zauner certificate
    from fractions import Fraction
    import numpy as np


@dataclass(frozen=True)
class SymplecticMatrix:
    """2x2 integer matrix (alpha, beta; gamma, delta), entries interpreted mod
    a caller-supplied modulus (nbar for Clifford work, N for orbit work)."""

    alpha: int
    beta: int
    gamma: int
    delta: int

    def reduced(self, mod: int) -> "SymplecticMatrix":
        return SymplecticMatrix(self.alpha % mod, self.beta % mod,
                                self.gamma % mod, self.delta % mod)

    def det(self) -> int:
        return self.alpha * self.delta - self.beta * self.gamma

    def mul(self, other: "SymplecticMatrix", mod: int) -> "SymplecticMatrix":
        return SymplecticMatrix(
            (self.alpha * other.alpha + self.beta * other.gamma) % mod,
            (self.alpha * other.beta + self.beta * other.delta) % mod,
            (self.gamma * other.alpha + self.delta * other.gamma) % mod,
            (self.gamma * other.beta + self.delta * other.delta) % mod,
        )

    def inv(self, mod: int) -> "SymplecticMatrix":
        d = self.det() % mod
        dinv = mod_inverse(d, mod)
        return SymplecticMatrix(
            (dinv * self.delta) % mod, (-dinv * self.beta) % mod,
            (-dinv * self.gamma) % mod, (dinv * self.alpha) % mod,
        )

    def apply(self, i: int, j: int, mod: int) -> tuple[int, int]:
        """Column action (i, j) -> (alpha i + beta j, gamma i + delta j)."""
        return ((self.alpha * i + self.beta * j) % mod,
                (self.gamma * i + self.delta * j) % mod)


IDENTITY = SymplecticMatrix(1, 0, 0, 1)
ZAUNER = SymplecticMatrix(0, -1, 1, -1)
PARITY_J = SymplecticMatrix(1, 0, 0, -1)
CHECK_CHUNK_ENTRIES = 2 ** 16  # stack entries per block of conjugation_check_batched
# sign(c) c^2 for c = 2 cos(j pi/12), j = 0..23, where c^2 is rational: by
# Niven's theorem, 2 sqrt(r) cos(pi t) is an integer nowhere else
_SIGNED_COS2 = (4, None, 3, 2, 1, None, 0, None, -1, -2, -3, None,
                -4, None, -3, -2, -1, None, 0, None, 1, 2, 3, None)


def decompose(G: SymplecticMatrix, dim: Dimension) -> tuple[SymplecticMatrix, SymplecticMatrix]:
    """Split G = G1*G2 mod nbar with G1 = (0,-1;1,x) and G2's beta entry
    delta + x*beta coprime to nbar; x is the smallest non-negative choice."""
    nbar = dim.nbar
    for x in range(nbar):
        if math.gcd((G.delta + x * G.beta) % nbar, nbar) == 1:
            G1 = SymplecticMatrix(0, -1, 1, x).reduced(nbar)
            G2 = SymplecticMatrix(G.gamma + x * G.alpha, G.delta + x * G.beta,
                                  -G.alpha, -G.beta).reduced(nbar)
            assert G1.mul(G2, nbar) == G.reduced(nbar)
            return G1, G2
    raise AssertionError("no valid x found; existence is guaranteed for symplectic G")


def chirp_factors(G: SymplecticMatrix, dim: Dimension) -> tuple[SymplecticMatrix, ...]:
    """G reduced mod nbar if its beta is a unit, else the two factors of
    `decompose`: matrices whose metaplectic unitaries are chirps and multiply
    to U_G."""
    G = G.reduced(dim.nbar)
    return (G,) if math.gcd(G.beta, dim.nbar) == 1 else decompose(G, dim)


def chirp_coefficients(Gs, dim: Dimension) -> list[tuple[int, int, int]]:
    """(c_uu, c_uv, c_vv) = beta^{-1}(delta, -2, alpha) mod nbar for each of
    a sequence of G with beta a unit mod nbar: U_G = tau^E / sqrt(N) for the
    quadratic form E[u, v] = c_uu u^2 + c_uv uv + c_vv v^2 mod nbar."""
    nbar = dim.nbar
    coeffs = []
    for G in Gs:
        b = mod_inverse(G.beta % nbar, nbar)
        coeffs.append((b * G.delta % nbar, -2 * b % nbar, b * G.alpha % nbar))
    return coeffs


def chirp_exponents(Gs, dim: Dimension) -> np.ndarray:
    """The exponent tables E[k] of the `chirp_coefficients` of a sequence of
    symplectic matrices, so that U_{G_k} = tau^{E[k]} / sqrt(N)."""
    import numpy as np
    # the coefficients are reduced first, so one reduction ends the table
    c = np.array(chirp_coefficients(Gs, dim), dtype=np.int64)[..., None, None]
    u = np.arange(dim.N).reshape(-1, 1)
    uu = u * u
    return (c[:, 0] * uu + c[:, 1] * (u * u.T) + c[:, 2] * uu.T) % dim.nbar


def metaplectic(G: SymplecticMatrix, dim: Dimension) -> np.ndarray:
    """Unitary representative of a symplectic G in the standard basis: the
    chirp of G, or the product of the chirps of its `chirp_factors`."""
    import numpy as np
    U = tau_powers(dim, chirp_exponents(chirp_factors(G, dim), dim)) \
        / np.sqrt(dim.N)
    return U[0] if len(U) == 1 else U[0] @ U[1]


def conjugation_check_batched(G: SymplecticMatrix, dim: Dimension,
                              U: PhasePermutation, D: np.ndarray) -> float:
    """Max over k = (i,j) of || U D_k U^dag - tau^c D_{G(k)} ||_max, with c
    the tau power nearest <D_{G(k)}, U D_k U^dag> / N: the float covariance
    check of a phase permutation U against any dense (N^2, N, N) stack D.
    D is read once, in blocks of about CHECK_CHUNK_ENTRIES entries, from its
    support: a nonzero D_k[c, d] is entry (image[c], image[d]) of
    U D_k U^dag times tau^{expo[c] - expo[d]}, and D_{G(k)} is read at those
    entries only. A k whose D_{G(k)} has nonzeros outside them (fewer hits
    than nonzeros) is compared again densely. A non-finite entry makes the
    result NaN or inf."""
    import numpy as np
    N = dim.N
    ip, jp = G.apply(*np.divmod(np.arange(N * N), N), N)
    target = ip * N + jp
    t = tau_powers(dim, U.expo)
    phase = (t[:, None] * t.conj()).ravel()
    mapped = (U.image[:, None] * N + U.image).ravel()
    rows = np.ascontiguousarray(D, dtype=complex).reshape(N * N, N * N)
    table = tau_table(dim)
    table_xy = np.stack([table.real, table.imag])
    lam = np.empty(N * N, dtype=complex)
    nnz, hits = np.empty(N * N, dtype=np.int64), np.empty(N * N, dtype=np.int64)
    step = max(1, CHECK_CHUNK_ENTRIES // (N * N))
    worst = np.float64(0.0)
    for lo in range(0, N * N, step):
        blk = rows[lo:lo + step]
        B = len(blk)
        # blk != 0 from the float halves, which is cheaper: each (re, im)
        # pair of flags is folded by one uint16 test, so -0.0 is zero and
        # NaN is nonzero, as in the complex test
        nz = np.flatnonzero((blk.view(np.float64) != 0).view(np.uint16) != 0)
        k, s = np.divmod(nz, N * N)
        conj = blk.ravel()[nz] * phase[s]
        tgt = rows.ravel()[target[lo + k] * (N * N) + mapped[s]]
        dot = tgt.conj() * conj
        # snap the projection of each conjugate onto its target to the
        # nearest tau power t, the one of largest Re(conj(t) ph)
        ph = np.stack([np.bincount(k, dot.real, B), np.bincount(k, dot.imag, B)],
                      axis=1)
        lam[lo:lo + B] = table[np.argmax(ph @ table_xy, axis=1)]
        worst = np.maximum(worst, np.max(np.abs(conj - lam[lo + k] * tgt),
                                         initial=0.0))
        nnz[lo:lo + B] = np.bincount(k, minlength=B)
        hits[lo:lo + B] = np.bincount(k[tgt != 0], minlength=B)
    for k in np.flatnonzero(nnz[target] > hits):
        conj = np.zeros(N * N, dtype=complex)
        s = np.flatnonzero(rows[k])
        conj[mapped[s]] = rows[k, s] * phase[s]
        worst = np.maximum(worst, np.abs(conj - lam[k] * rows[target[k]]).max())
    return float(worst)


def predicted_eigenspace_dims(dim: Dimension) -> tuple[int, int, int]:
    """Zauner eigenvalue multiplicities (for 1, e^{2pi i/3}, e^{4pi i/3})."""
    k, r = divmod(dim.N, 3)
    return (k + 1, k + (r == 2), k - (r == 0))


def zauner_angle(dim: Dimension) -> Fraction:
    """(N-1)/12: the Zauner phase e^{i pi (N-1)/12} makes the metaplectic
    unitary of ZAUNER cube to 1 (Appleby, J. Math. Phys. 46, 052107, 2005)."""
    from fractions import Fraction
    return Fraction(dim.N - 1, 12)


def zauner_unitary(dim: Dimension) -> np.ndarray:
    """Metaplectic unitary of (0,-1;1,-1) times the Zauner phase: U^3 = 1."""
    import numpy as np
    U0 = metaplectic(ZAUNER, dim)
    cube = U0 @ U0 @ U0
    c = cube[0, 0]
    if np.max(np.abs(cube - c * np.eye(dim.N))) > 1e-8:
        raise AssertionError("U^3 is not scalar; metaplectic construction is broken")
    # the phase is taken as the cube root of 1/c nearest the Zauner phase,
    # not that phase itself, so U keeps the bits the seeded search was run on
    lam = min((c ** (-1.0 / 3.0) * np.exp(2j * np.pi * m / 3) for m in range(3)),
              key=lambda z: abs(z - np.exp(1j * np.pi * (dim.N - 1) / 12)))
    return lam * U0


def gauss_sum(a: int, b: int, c: int) -> tuple[int, Fraction]:
    """(m, q) with S(a, b, c) = sum_{n<c} e^{i pi (a n^2 + b n)/c} =
    sqrt(m) e^{i pi q}, 0 <= q < 2, for c >= 1 and ac + b even, by Euclid's
    algorithm on reciprocity (Berndt, Evans & Williams, Gauss and Jacobi
    Sums, Thm 1.2.2): S(a, b, c) = sqrt(|c/a|) e^{i pi (|ac| - b^2)/(4ac)}
    S(-c, -b, a), which is S(c, b, -a) for a < 0."""
    from fractions import Fraction
    ratio, q = Fraction(1), Fraction(0)
    while (a := (a + c - 1) % (2 * c) - c + 1) % c:  # a mod 2c, in (-c, c]
        q += Fraction(abs(a * c) - b * b, 4 * a * c)
        ratio *= Fraction(c, abs(a))
        a, b, c = (-c, -b, a) if a > 0 else (c, b, -a)
    # a = 0 or c: a n^2 = a n mod 2c, so the c terms are e^{i pi n (a + b)/c}
    m = ratio * c * c if (a + b) % (2 * c) == 0 else 0
    return int(m), q % 2 if m else Fraction(0)


def zauner_counts(dim: Dimension) -> tuple:
    """(d, m, sums), exactly: sums holds the `gauss_sum` S_k of sum_s
    tau^{k s^2} = S(k, kN, N), k = 1, 3 (tau = e^{i pi (N+1)/N}, s^2 = s mod
    2). U_0 = metaplectic(ZAUNER) = tau^E / sqrt(N), E[u, v] = u^2 + 2uv,
    and ZAUNER^3 = 1, so U_0^3 = N^{-1/2} S_1 = e^{i pi m/4}; d_k = (N + 2
    Re(omega^{-k} e^{i pi zauner_angle} S_3 / sqrt(N)))/3 is the multiplicity
    of omega^k in `zauner_unitary`. A value that is no integer is None."""
    from fractions import Fraction
    N = dim.N
    (m1, q1), (m3, q3) = sums = tuple(gauss_sum(k, k * N, N) for k in (1, 3))
    root = int(4 * q1) % 8 if m1 == N and (4 * q1).denominator == 1 else None
    d = []
    for k in range(3):
        # 3 d_k - N = x = 2 sqrt(m3/N) cos(pi j/12), and x^2 = m3 |c2|/N
        j = 12 * (zauner_angle(dim) + q3 - Fraction(2 * k, 3))
        c2 = _SIGNED_COS2[j.numerator % 24] if j.denominator == 1 else None
        x2 = Fraction(m3 * abs(c2 or 0), N)
        x = math.isqrt(int(x2)) * (-1 if (c2 or 0) < 0 else 1)
        ok = c2 is not None and x * x == x2 and (N + x) % 3 == 0
        d.append((N + x) // 3 if ok else None)
    return tuple(d), root, sums


def order3_trace_check(G: SymplecticMatrix, dim: Dimension) -> tuple[bool, bool]:
    """(G^3 == 1 mod nbar, trace == -1 mod N).

    The trace criterion is stated mod N in the literature while the matrices
    live mod nbar; both verdicts are reported, nothing is silently chosen.
    """
    nbar, N = dim.nbar, dim.N
    G3 = G.mul(G, nbar).mul(G, nbar)
    is_order3 = G3.reduced(nbar) == IDENTITY.reduced(nbar)
    trace_cond = (G.alpha + G.delta) % N == (-1) % N
    return is_order3, trace_cond


def antiunitary_action(E: SymplecticMatrix, dim: Dimension, v: np.ndarray) -> np.ndarray:
    """Apply the anti-unitary of an extended element E with det == -1 mod nbar:
    complex conjugation (realizing J = diag(1,-1)) followed by the metaplectic
    of G = E*J."""
    nbar = dim.nbar
    if E.det() % nbar != (-1) % nbar:
        raise DetNotMinusOne(f"det = {E.det() % nbar} mod {nbar}, expected -1")
    import numpy as np
    G = E.mul(PARITY_J, nbar)
    return metaplectic(G, dim) @ np.conj(v)


def _bezout(p: int, q: int) -> tuple[int, int]:
    """Smallest pair (a, b) from the extended gcd with a*p + b*q = gcd(p, q)."""
    old_r, r = p, q
    old_a, a = 1, 0
    old_b, b = 0, 1
    while r != 0:
        quot = old_r // r
        old_r, r = r, old_r - quot * r
        old_a, a = a, old_a - quot * a
        old_b, b = b, old_b - quot * b
    return old_a, old_b


def _column_completion(vp: tuple[int, int], N: int) -> SymplecticMatrix:
    """A matrix in SL(2, N) whose first column is vp, which must have order
    N, i.e. gcd(vp_1, vp_2, N) = 1."""
    v1, v2 = vp[0] % N, vp[1] % N
    g = math.gcd(v1, v2)
    if math.gcd(g, N) != 1:
        raise ValueError(f"{vp} does not have order {N}")
    a, b = _bezout(v1, v2)
    ginv = mod_inverse(g % N, N)
    y = (ginv * a) % N
    x = (-ginv * b) % N
    S = SymplecticMatrix(v1, x, v2, y)
    assert S.det() % N == 1 % N
    return S


def random_symplectic(dim: Dimension, rng: np.random.Generator) -> SymplecticMatrix:
    """Exactly uniform element of SL(2, nbar).

    The matrices with first column v are S_v (1, t; 0, 1) for t mod nbar, with
    S_v = `_column_completion(v)`: the stabiliser of (1, 0) is the upper
    unitriangular group. So a uniform v of order nbar (rejection on
    gcd(alpha, gamma, nbar) = 1, accepted with probability
    prod_{p | nbar} (1 - 1/p^2) >= 6/pi^2) and a uniform t give a uniform
    element. Each attempt is one draw of (alpha, gamma, t); at nbar = 1 the
    first is accepted.
    """
    nbar = dim.nbar
    while True:
        alpha, gamma, t = (int(x) for x in rng.integers(0, nbar, size=3))
        if math.gcd(alpha, gamma, nbar) == 1:
            break
    S = _column_completion((alpha, gamma), nbar)
    return SymplecticMatrix(alpha, (S.beta + t * alpha) % nbar,
                            gamma, (S.delta + t * gamma) % nbar)
