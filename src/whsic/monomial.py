"""Phase-permutation representation for square dimensions N = n^2.

Basis vectors are labelled |r,s> with r,s mod n, flattened as r*n + s.
The generators act by

    X|r,s> = |r,s+1>            (wrap: X|r,n-1> = sigma^r |r,0>)
    Z|r,s> = omega^s |r-1,s>

and a symplectic G with beta coprime to nbar acts by

    U_G|r,s> = tau^{beta^{-1}(delta s'^2 - 2 s s' + alpha s^2)}
               |delta r - gamma s + m gamma delta, -beta r + alpha s + m alpha beta>

with s' = -beta r + alpha s + m alpha taken in [0, n) and m = 0 (n odd) or
n/2 (n even). The module also holds the SL(2,N)-orbit machinery used for the
square/non-square decision procedures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dims import (DEFAULT_TOL, Dimension, phase_permutation, require_square,
                   tau_powers)
from .weyl import displacement_matrix_from, mod_inverse
from .clifford import (ZAUNER, SymplecticMatrix, decompose,
                       tau_snapped_deviation, zauner_phase)


def flatten(r: int, s: int, n: int) -> int:
    return (r % n) * n + (s % n)


def zak_matrix(dim: Dimension) -> np.ndarray:
    """Unitary whose columns are |r,s> = (1/sqrt(n)) sum_t omega^{-ntr} |nt+s>."""
    n = require_square(dim)
    r, s, t = np.indices((n, n, n))
    V = np.zeros((dim.N, dim.N), dtype=complex)
    V[n * t + s, flatten(r, s, n)] = tau_powers(dim, -2 * n * t * r) / np.sqrt(n)
    return V


def monomial_weyl_generators(dim: Dimension) -> tuple[np.ndarray, np.ndarray]:
    """(X, Z) acting on the |r,s> basis."""
    n = require_square(dim)
    r, s = np.divmod(np.arange(dim.N), n)
    col = np.arange(dim.N)
    # the wrap X|r,n-1> = sigma^r |r,0> carries tau^{2nr}
    X = phase_permutation(dim, flatten(r, s + 1, n), col, 2 * n * r * (s == n - 1))
    Z = phase_permutation(dim, flatten(r - 1, s, n), col, 2 * s)
    return X, Z


def monomial_clifford(G: SymplecticMatrix, dim: Dimension) -> np.ndarray:
    """Phase-permutation unitary of a symplectic G on the |r,s> basis."""
    n = require_square(dim)
    nbar = dim.nbar
    m = dim.half_shift
    G = G.reduced(nbar)
    if math.gcd(G.beta, nbar) != 1:
        G1, G2 = decompose(G, dim)
        return monomial_clifford(G1, dim) @ monomial_clifford(G2, dim)
    a, b, g_, d = G.alpha, G.beta, G.gamma, G.delta
    binv = mod_inverse(b, nbar)
    r, s = np.divmod(np.arange(dim.N), n)
    sp = (-b * r + a * s + m * a) % n
    rp = (d * r - g_ * s + m * g_ * d) % n
    expo = binv * (d * sp * sp - 2 * s * sp + a * s * s)
    return phase_permutation(dim, flatten(rp, sp, n), np.arange(dim.N), expo)


def monomial_zauner(dim: Dimension) -> np.ndarray:
    """The order-3 unitary zauner_phase * U_ZAUNER on the |r,s> basis, U^3 = 1."""
    return zauner_phase(dim) * monomial_clifford(ZAUNER, dim)


def monomial_antiunitary(dim: Dimension, v: np.ndarray) -> np.ndarray:
    """Anti-unitary of J: conjugate amplitudes and send (r,s) -> (-r, s)."""
    n = require_square(dim)
    r, s = np.divmod(np.arange(dim.N), n)
    # (r,s) -> (-r,s) is an involution, so gathering through it also scatters
    return np.conj(np.asarray(v, dtype=complex))[flatten(-r, s, n)]


def is_phase_permutation(M: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """True iff every row and column carries exactly one unit-modulus entry
    and everything else is below tol."""
    absM = np.abs(M)
    big = absM > tol
    if not (big.sum(axis=0) == 1).all() or not (big.sum(axis=1) == 1).all():
        return False
    return bool(np.all(np.abs(absM[big] - 1.0) <= tol))


# ---------------------------------------------------------------------------
# SL(2, N) orbits on Z_N^2 and the stabilized-subgroup criterion
# ---------------------------------------------------------------------------

def vector_order(v: tuple[int, int], N: int) -> int:
    """Least k >= 1 with k*v == 0 mod N."""
    return N // math.gcd(v[0] % N, v[1] % N, N)


def _column_completion(vp: tuple[int, int], N: int) -> SymplecticMatrix:
    """A matrix in SL(2, N) whose first column is vp (which has order N)."""
    v1, v2 = vp[0] % N, vp[1] % N
    g = math.gcd(v1, v2)
    if g == 0:
        raise ValueError("zero vector cannot have order N")
    a, b = _bezout(v1, v2)
    ginv = mod_inverse(g % N, N)
    y = (ginv * a) % N
    x = (-ginv * b) % N
    S = SymplecticMatrix(v1, x, v2, y)
    assert S.det() % N == 1
    return S


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


def _primitive_lift(w: tuple[int, int], k: int, N: int) -> tuple[int, int]:
    """A vector w' of order N with (N/k) * w' == w mod N.

    The plain componentwise quotient w // (N/k) solves the divisibility but
    may have order < N (e.g. (4,4)/2 = (2,2) at N = 6); shifting components
    by multiples of k fixes the order without changing (N/k) * w'.
    """
    scale = N // k
    w0 = (w[0] // scale, w[1] // scale)
    for a in range(scale):
        for b in range(scale):
            cand = ((w0[0] + k * a) % N, (w0[1] + k * b) % N)
            if vector_order(cand, N) == N:
                return cand
    raise AssertionError("no primitive lift found; contradicts gcd argument")


@dataclass(frozen=True)
class OrbitReport:
    order: int
    members: frozenset
    witness_maps: dict  # member -> SymplecticMatrix mapping the base point to it


def sl2_orbit(dim: Dimension, v: tuple[int, int]) -> OrbitReport:
    """Orbit of v under SL(2, N): all vectors of the same order, with an
    explicit symplectic witness per member built from the constructive
    transitivity proof."""
    N = dim.N
    v = (v[0] % N, v[1] % N)
    k = vector_order(v, N)
    members = frozenset(
        (i, j) for i in range(N) for j in range(N) if vector_order((i, j), N) == k
    )
    if k == 1:
        return OrbitReport(1, members, {(0, 0): SymplecticMatrix(1, 0, 0, 1)})
    Sv = _column_completion(_primitive_lift(v, k, N), N)
    Sv_inv = Sv.inv(N)
    witnesses = {}
    for w in members:
        Sw = _column_completion(_primitive_lift(w, k, N), N)
        S = Sw.mul(Sv_inv, N)
        assert S.apply(v[0], v[1], N) == w
        witnesses[w] = S
    return OrbitReport(k, members, witnesses)


def invariant_subgroup(dim: Dimension, brute_force: bool = False):
    """The order-N subgroup of Z_N^2 stabilized by SL(2, N), or None.

    For square N the answer is n * Z_N^2. Otherwise (N <= 36) an exhaustive
    search over unions of constant-order classes (the only SL-invariant
    candidates, by the orbit structure) is performed; brute_force=True forces
    the search path even for squares.
    """
    N = dim.N
    if dim.is_square and not brute_force:
        n = dim.n
        return frozenset((n * a % N, n * b % N) for a in range(n) for b in range(n))
    if N > 36:
        raise ValueError("brute-force search is capped at N <= 36")
    divisors = [d for d in range(1, N + 1) if N % d == 0]
    classes = {d: frozenset((i, j) for i in range(N) for j in range(N)
                            if vector_order((i, j), N) == d)
               for d in divisors}
    # candidate invariant sets: unions over divisor-closed subsets of divisors
    for mask in range(1, 1 << len(divisors)):
        S = [divisors[t] for t in range(len(divisors)) if mask >> t & 1]
        if 1 not in S:
            continue
        if any(e for d in S for e in divisors if d % e == 0 and e not in S):
            continue
        V = frozenset().union(*(classes[d] for d in S))
        if len(V) != N:
            continue
        if _is_subgroup(V, N):
            return V
    return None


def _is_subgroup(V: frozenset, N: int) -> bool:
    return all(((a1 + b1) % N, (a2 + b2) % N) in V for a1, a2 in V for b1, b2 in V)


def stabilized_abelian_check(G: SymplecticMatrix, dim: Dimension) -> float:
    """Deviation of U_G-conjugation from mapping the maximal Abelian subgroup
    <X^n, Z^n, tau*1> into itself: each conjugated generator must equal
    tau^k X^{an} Z^{bn} for the indices predicted by the symplectic action,
    up to the best tau power."""
    n = require_square(dim)
    N = dim.N
    U = monomial_clifford(G, dim)
    Ud = U.conj().T
    X, Z = monomial_weyl_generators(dim)
    conj, tgt = [], []
    for (i, j) in ((n, 0), (0, n)):
        conj.append(U @ displacement_matrix_from(X, Z, dim, i, j) @ Ud)
        ip, jp = G.apply(i, j, N)
        assert ip % n == 0 and jp % n == 0, "conjugate left the subgroup"
        tgt.append(displacement_matrix_from(X, Z, dim, ip, jp))
    return tau_snapped_deviation(dim, np.array(conj), np.array(tgt))
