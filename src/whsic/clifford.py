"""SL(2, nbar) symplectic matrices and their metaplectic unitaries.

The metaplectic formula used throughout is

    U_G = (1/sqrt(N)) sum_{u,v} tau^{beta^{-1}(delta u^2 - 2uv + alpha v^2)} |u><v|

valid when beta is invertible mod nbar: U_G is then a chirp, tau to a
quadratic form over sqrt(N) with three coefficients (`chirp_coefficients`)
that the CRT check compares and `chirp_exponents` tabulates. Otherwise G is
split as G = (0,-1;1,x) * (gamma+x*alpha, delta+x*beta; -alpha, -beta) with x
chosen minimal so that delta + x*beta is coprime to nbar, and the two chirps
are multiplied (`chirp_factors`). The order-3 Zauner unitary is certified
with no dense matrix, from two counts of tau exponents (`zauner_counts`).
The float covariance check `conjugation_check_batched`, an oracle for the
tests and the `certify` benchmark that no command runs, reads a dense
displacement stack once, in blocks, finding each block's support from the
float halves of its entries; it moves to the tests when the benchmark drops it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dims import Dimension, PhasePermutation, tau_powers, tau_table
from .errors import DetNotMinusOne
from .weyl import mod_inverse


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
# each `zauner_counts` sum errs by at most about 2 N^{3/2} eps, 4e-7 at N =
# 10^6: far below the 1/3 between multiplicities and 0.76 between 8th roots
ROUNDING_BOUND = 1e-6


def is_symplectic(G: SymplecticMatrix, dim: Dimension) -> bool:
    return (G.det() - 1) % dim.nbar == 0


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
    # the coefficients are reduced first, so one reduction ends the table
    c = np.array(chirp_coefficients(Gs, dim), dtype=np.int64)[..., None, None]
    u = np.arange(dim.N).reshape(-1, 1)
    uu = u * u
    return (c[:, 0] * uu + c[:, 1] * (u * u.T) + c[:, 2] * uu.T) % dim.nbar


def metaplectic(G: SymplecticMatrix, dim: Dimension) -> np.ndarray:
    """Unitary representative of a symplectic G in the standard basis: the
    chirp of G, or the product of the chirps of its `chirp_factors`."""
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


def zauner_phase(dim: Dimension) -> complex:
    """e^{i pi (N-1)/12}, the phase that makes the metaplectic unitary of
    (0,-1;1,-1) cube to 1 (Appleby, J. Math. Phys. 46, 052107, 2005)."""
    return np.exp(1j * np.pi * (dim.N - 1) / 12)


def zauner_unitary(dim: Dimension) -> np.ndarray:
    """Metaplectic unitary of (0,-1;1,-1) times zauner_phase, so that U^3 = 1."""
    U0 = metaplectic(ZAUNER, dim)
    cube = U0 @ U0 @ U0
    c = cube[0, 0]
    if np.max(np.abs(cube - c * np.eye(dim.N))) > 1e-8:
        raise AssertionError("U^3 is not scalar; metaplectic construction is broken")
    # the phase is taken as the cube root of 1/c nearest zauner_phase, not
    # zauner_phase itself, so U keeps the bits the seeded search was run on
    base = c ** (-1.0 / 3.0)
    lam = min((base * np.exp(2j * np.pi * m / 3) for m in range(3)),
              key=lambda z: abs(z - zauner_phase(dim)))
    return lam * U0


def zauner_counts(dim: Dimension) -> tuple:
    """(d, d_margin, m, c_margin) in O(N): U_0 = metaplectic(ZAUNER) cubes
    to c nearest e^{i pi m/4}, and d_k is the multiplicity of omega^k =
    e^{2 pi i k/3} in `zauner_unitary`; the margins are the distances of the
    float sums from d and from that root. U_0 is the chirp tau^E / sqrt(N),
    E[u, v] = u^2 + 2uv mod nbar (`chirp_exponents`), and ZAUNER^3 = 1, so
    c = (U_0^3)[0, 0] = N^{-1/2} sum_s tau^{s^2}, as (v+w)^2 mod nbar
    depends on v+w mod N only. If m = -(N-1) mod 8, c = z^{-3} for z =
    `zauner_phase`, U = z U_0 cubes to 1 and d_k = (N + 2 Re(omega^{-k} z
    tr U_0))/3, with tr U_0 = N^{-1/2} sum_u tau^{3u^2}."""
    N, nbar = dim.N, dim.nbar
    s2 = np.arange(N, dtype=np.int64) ** 2
    # N^{-1/2} sum_s tau^{k s^2}: N exponents counted mod nbar, then weighed
    c, tr = (np.bincount(k * s2 % nbar, minlength=nbar) @ tau_table(dim)[:nbar]
             / math.sqrt(N) for k in (1, 3))
    d = (N + 2 * np.real(zauner_phase(dim) * tr
                         * np.exp(-2j * np.pi * np.arange(3) / 3))) / 3
    dims = np.rint(d)
    m = round(float(np.angle(c)) * 4 / np.pi) % 8
    return (tuple(int(x) for x in dims), float(np.max(np.abs(d - dims))),
            m, float(abs(c - np.exp(1j * np.pi * m / 4))))


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


def lift_sl2(G: SymplecticMatrix, dim: Dimension) -> SymplecticMatrix:
    """Lift G in SL(2, N), N even, to Gbar in SL(2, 2N) with Gbar == G mod N.

    If det G = kN + 1 with k odd, adding N to the cofactor partner of an odd
    entry shifts the determinant by N * (odd), flipping the parity of k while
    leaving G mod N untouched. Some odd entry always exists, since an
    all-even matrix could not be invertible mod N.
    """
    N = dim.N
    if N % 2 != 0:
        raise ValueError("lift is only needed for even N")
    G = G.reduced(N)
    d = G.det()
    if d % N != 1:
        raise ValueError("input must have determinant 1 mod N")
    if d % (2 * N) == 1:
        return G
    a, b, g_, dl = G.alpha, G.beta, G.gamma, G.delta
    if a % 2 == 1:
        out = SymplecticMatrix(a, b, g_, dl + N)     # det += N * alpha
    elif dl % 2 == 1:
        out = SymplecticMatrix(a + N, b, g_, dl)     # det += N * delta
    elif b % 2 == 1:
        out = SymplecticMatrix(a, b, g_ - N, dl)     # det += N * beta
    elif g_ % 2 == 1:
        out = SymplecticMatrix(a, b - N, g_, dl)     # det += N * gamma
    else:
        raise AssertionError("all entries even contradicts invertibility mod N")
    out = out.reduced(2 * N)
    assert out.det() % (2 * N) == 1
    return out


def antiunitary_action(E: SymplecticMatrix, dim: Dimension, v: np.ndarray) -> np.ndarray:
    """Apply the anti-unitary of an extended element E with det == -1 mod nbar:
    complex conjugation (realizing J = diag(1,-1)) followed by the metaplectic
    of G = E*J."""
    nbar = dim.nbar
    if E.det() % nbar != (-1) % nbar:
        raise DetNotMinusOne(f"det = {E.det() % nbar} mod {nbar}, expected -1")
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
