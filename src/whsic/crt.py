"""Chinese-remainder factorization of the Weyl-Heisenberg and Clifford groups.

For N = n_1 ... n_r with n_j = p_j^{q_j} coprime prime powers, H(N) is the
direct product of the H(n_j) and the standard representation factors through
the index bijection u <-> (u mod n_1, ..., u mod n_r). At the unitary level
the naive exponent-copying map fails on the central phases; the corrected map
uses kappa_j = (N/n_j)^{-1} mod nbar_j:

    x^a z^b t^c  ->  prod_j tau_j^{kappa_j c} . (x) X_j^a Z_j^{kappa_j b}

and a symplectic F factors through the twisted matrices

    F'_j = ( alpha_j, kappa_j^{-1} beta_j ; kappa_j gamma_j, delta_j )

mod nbar_j. verify_product_iso witnesses both statements densely.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clifford import SymplecticMatrix, metaplectic, random_symplectic
from .dims import Dimension, tau_power
from .weyl import all_displacements, mod_inverse


@dataclass(frozen=True)
class Factor:
    p: int
    q: int
    n: int      # p**q
    nbar: int   # n (odd) or 2n (even)
    kappa: int  # inverse of N/n mod nbar


@dataclass(frozen=True)
class Factorization:
    N: int
    factors: tuple

    @property
    def kappas(self) -> tuple:
        return tuple(f.kappa for f in self.factors)


def factor_dimension(N: int) -> Factorization:
    """Prime-power factorization with the CRT twist constants, primes ascending."""
    if N < 2:
        raise ValueError(f"need N >= 2, got {N}")
    rem = N
    factors = []
    p = 2
    while rem > 1:
        if rem % p == 0:
            q = 0
            while rem % p == 0:
                rem //= p
                q += 1
            n = p ** q
            nbar = n if n % 2 else 2 * n
            kappa = mod_inverse((N // n) % nbar, nbar)
            factors.append(Factor(p, q, n, nbar, kappa))
        p += 1 if p == 2 else 2
    return Factorization(N, tuple(factors))


def eta_prime(a: int, b: int, c: int, N: int) -> list[tuple[int, int, int]]:
    """Factor exponents of x^a z^b t^c under the corrected product map."""
    fact = factor_dimension(N)
    return [(a % f.n, (f.kappa * b) % f.n, (f.kappa * c) % f.nbar)
            for f in fact.factors]


def f_prime(G: SymplecticMatrix, j: int, fact: Factorization) -> SymplecticMatrix:
    """The twisted symplectic factor of G mod nbar_j."""
    f = fact.factors[j]
    kinv = mod_inverse(f.kappa % f.nbar, f.nbar)
    return SymplecticMatrix(G.alpha % f.nbar,
                            (kinv * G.beta) % f.nbar,
                            (f.kappa * G.gamma) % f.nbar,
                            G.delta % f.nbar)


def crt_permutation(fact: Factorization) -> np.ndarray:
    """Permutation matrix P with P|u>_N = |u mod n_1> (x) ... (x) |u mod n_r>."""
    N = fact.N
    dims = [f.n for f in fact.factors]
    P = np.zeros((N, N))
    for u in range(N):
        row = 0
        for n in dims:
            row = row * n + u % n
        P[row, u] = 1.0
    return P


def _kron_all(mats: list[np.ndarray]) -> np.ndarray:
    out = mats[0]
    for M in mats[1:]:
        out = np.kron(out, M)
    return out


def verify_product_iso(N: int, n_symplectic: int = 20, rng_seed: int = 0) -> float:
    """Max deviation of the dense CRT factorization.

    Checks, for every displacement class (a, b), that
    P D^{(N)}_{ab} P^T = (x)_j D^{(n_j)}_{a, kappa_j b}, exactly as matrices,
    and for n_symplectic random symplectic G mod Nbar that P U_G P^T matches
    (x)_j U_{F'_j} up to one global phase per G. Returns the worst entrywise
    deviation over all checks.
    """
    dim = Dimension(N)
    fact = factor_dimension(N)
    P = crt_permutation(fact)
    sub = [(Dimension(f.n), all_displacements(Dimension(f.n))) for f in fact.factors]
    worst = 0.0
    D = all_displacements(dim)
    for a in range(N):
        for b in range(N):
            lhs = P @ D[a * N + b] @ P.T
            mats = []
            for f, (dj, Dj) in zip(fact.factors, sub):
                aj, bj = a % dj.N, (f.kappa * b) % dj.N
                # tau_j^{kappa_j a b} X^a Z^{kappa_j b}: reducing the exponents
                # into the stored displacement drops a fold phase, restored here
                fold = tau_power(dj, f.kappa * a * b - aj * bj)
                mats.append(fold * Dj[aj * dj.N + bj])
            rhs = _kron_all(mats)
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    rng = np.random.default_rng(rng_seed)
    for _ in range(n_symplectic):
        G = random_symplectic(dim, rng)
        lhs = P @ metaplectic(G, dim) @ P.T
        rhs = _kron_all([metaplectic(f_prime(G, j, fact), Dimension(f.n))
                         for j, f in enumerate(fact.factors)])
        ph = np.trace(rhs.conj().T @ lhs) / N
        ph = ph / abs(ph)
        worst = max(worst, float(np.max(np.abs(lhs - ph * rhs))))
    return worst
