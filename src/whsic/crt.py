"""Chinese-remainder factorization of the Weyl-Heisenberg and Clifford groups.

For N = n_1 ... n_r with n_j = p_j^{q_j} coprime prime powers, H(N) is the
direct product of the H(n_j) and the standard representation factors through
the index bijection u <-> (u mod n_1, ..., u mod n_r), the permutation P with
P|u> = |u mod n_1> (x) ... (x) |u mod n_r>. At the unitary level
the naive exponent-copying map fails on the central phases; the corrected map
uses kappa_j = (N/n_j)^{-1} mod nbar_j:

    x^a z^b t^c  ->  prod_j tau_j^{kappa_j c} . (x) X_j^a Z_j^{kappa_j b}

and a symplectic F factors through the twisted matrices

    F'_j = ( alpha_j, kappa_j^{-1} beta_j ; kappa_j gamma_j, delta_j )

mod nbar_j. `product_iso_witness` checks both statements exactly and names
the first failure, comparing integers mod 2N in the unit e^{i pi/N}, where
tau_N is N+1 and tau_{n_j} is (n_j+1)(N/n_j). Both sides of D_ab carry |v>
to |v + a> by the CRT, and their phases differ by b (a + 2v) K mod 2N for
one constant K = sum_j (n_j+1)(N/n_j) kappa_j - (N+1). So D_10 (b = 0)
cannot fail, D_01 fails exactly when K != 0 mod N and D_11 exactly when
K = N mod 2N; the three decide all N^2 displacements, the
`checked_displacements` of `verify crt` (`displacement_witness`). Its
symplectic half, `symplectic_witness`, compares U_H and (x)_j U_{F'_j(H)}
up to a constant for each chirp factor H of random symplectic G (its
`checked_chirps`): they differ by A u^2 + B uv + C v^2 mod 2N, so three
coefficients per chirp decide, and the witness entry is (0, 1) if C != 0,
else (1, 0) if A != 0, else (1, 1). Both halves take O(r) Python-int
operations (per chirp) for r prime-power factors and read no tolerance.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .clifford import (SymplecticMatrix, chirp_coefficients, chirp_factors,
                       random_symplectic)
from .dims import Dimension, mod_inverse

SYMPLECTIC_SAMPLES = 20  # random symplectic G per verify_product_iso


class Factor(NamedTuple):
    p: int
    q: int
    n: int      # p**q
    nbar: int   # n (odd) or 2n (even)
    kappa: int  # inverse of N/n mod nbar


class Factorization(NamedTuple):
    N: int
    factors: tuple


def factor_dimension(N: int) -> Factorization:
    """Prime-power factorization with the CRT twist constants, primes ascending."""
    if N < 2:
        raise ValueError(f"need N >= 2, got {N}")
    rem, factors, p = N, [], 2
    while rem > 1:
        p = p if p * p <= rem else rem  # no factor up to sqrt: rem is prime
        q = 0
        while rem % p == 0:
            rem, q = rem // p, q + 1
        if q:
            n = p ** q
            nbar = n if n % 2 else 2 * n
            kappa = mod_inverse((N // n) % nbar, nbar)
            factors.append(Factor(p, q, n, nbar, kappa))
        p += 1 if p == 2 else 2
    return Factorization(N, tuple(factors))


def f_prime(G: SymplecticMatrix, j: int, fact: Factorization) -> SymplecticMatrix:
    """The twisted symplectic factor of G mod nbar_j."""
    f = fact.factors[j]
    kinv = mod_inverse(f.kappa % f.nbar, f.nbar)
    return SymplecticMatrix(G.alpha % f.nbar,
                            (kinv * G.beta) % f.nbar,
                            (f.kappa * G.gamma) % f.nbar,
                            G.delta % f.nbar)


def displacement_witness(fact: Factorization) -> tuple[int, int] | None:
    """First (a, b) in the order a*N + b with P D^{(N)}_{ab} P^T !=
    (x)_j D^{(n_j)}_{a, kappa_j b}, or None, from the module docstring's
    constant K: (0, 1) if K != 0 mod N, else (1, 1) if K != 0 mod 2N."""
    N = fact.N
    K = sum((f.n + 1) * (N // f.n) * f.kappa for f in fact.factors) - (N + 1)
    return (0, 1) if K % N else (1, 1) if K % (2 * N) else None


def symplectic_witness(fact: Factorization, Gs) -> tuple[
        tuple[SymplecticMatrix, tuple[int, int]] | None, int]:
    """The first G of Gs and entry (u, v) with P U_K P^T != c (x)_j
    U_{F'_j(K)} for a constant c, K G or the failing one of its two
    `chirp_factors`, or None; and the count of all their chirp factors.
    U_K and each U_{F'_j(K)} are chirps tau^E / sqrt(n); in the unit
    e^{i pi/N} the weights N+1 and (n_j+1)(N/n_j) make each term of each
    form E well defined mod 2N on Z^2, so the sides differ by P(u, v) =
    A u^2 + B uv + C v^2 mod 2N, A, B and C the weighted sums of their
    `chirp_coefficients`. The witness is the first nonzero P(u, v) in
    row-major order: P(0, 1) = C, then P(1, 0) = A, then P(1, 1) = A+B+C."""
    N, dim = fact.N, Dimension(fact.N)
    chirps = [(G, K) for G in Gs for K in chirp_factors(G, dim)]
    Ks = [K for _, K in chirps]
    weights = [N + 1] + [-(f.n + 1) * (N // f.n) for f in fact.factors]
    sides = [chirp_coefficients(Ks, dim)] + [
        chirp_coefficients([f_prime(K, j, fact) for K in Ks], Dimension(f.n))
        for j, f in enumerate(fact.factors)]
    for (G, _), coeffs in zip(chirps, zip(*sides)):
        # Python ints: at N ~ 10^10 a weighted term outgrows int64
        A, B, C = (sum(w * c for w, c in zip(weights, cs)) % (2 * N)
                   for cs in zip(*coeffs))
        if A or B or C:
            return (G, (0, 1) if C else (1, 0) if A else (1, 1)), len(chirps)
    return None, len(chirps)


def product_iso_witness(N: int, n_symplectic: int = SYMPLECTIC_SAMPLES,
                        rng_seed: int = 0) -> tuple[dict | None, int]:
    """The first failure of the CRT factorization of H(N) and its Clifford
    group, and the number of chirps checked.

    The witness is None when both halves hold, {"displacement": [a, b]} from
    `displacement_witness`, or {"symplectic": [alpha, beta, gamma, delta],
    "entry": [u, v]} from `symplectic_witness` over n_symplectic random
    symplectic G mod Nbar. The symplectic half runs only when the
    displacement half holds, and checks every chirp factor of every G.
    """
    dim = Dimension(N)
    fact = factor_dimension(N)
    ab = displacement_witness(fact)
    if ab is not None:
        return {"displacement": list(ab)}, 0
    rng = np.random.default_rng(rng_seed)
    bad, chirps = symplectic_witness(
        fact, [random_symplectic(dim, rng) for _ in range(n_symplectic)])
    if bad is None:
        return None, chirps
    G, uv = bad
    return ({"symplectic": [G.alpha, G.beta, G.gamma, G.delta],
             "entry": list(uv)}, chirps)


def verify_product_iso(N: int, n_symplectic: int = SYMPLECTIC_SAMPLES,
                       rng_seed: int = 0) -> float:
    """The CRT factorization certificate of `product_iso_witness` as a
    number: 0.0 when both halves hold exactly, 1.0 when either fails."""
    witness, _ = product_iso_witness(N, n_symplectic, rng_seed)
    return 0.0 if witness is None else 1.0
