"""Chinese-remainder factorization of the Weyl-Heisenberg and Clifford groups.

For N = n_1 ... n_r with n_j = p_j^{q_j} coprime prime powers, H(N) is the
direct product of the H(n_j) and the standard representation factors through
the index bijection u <-> (u mod n_1, ..., u mod n_r). At the unitary level
the naive exponent-copying map fails on the central phases; the corrected map
uses kappa_j = (N/n_j)^{-1} mod nbar_j:

    x^a z^b t^c  ->  prod_j tau_j^{kappa_j c} . (x) X_j^a Z_j^{kappa_j b}

and a symplectic F factors through the twisted matrices

    F'_j = ( alpha_j, kappa_j^{-1} beta_j ; kappa_j gamma_j, delta_j )

mod nbar_j. verify_product_iso witnesses both statements: the displacement
half exactly, as images and integer phases (`displacement_witness`), the
metaplectic half densely, up to one float phase per sample.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .clifford import SymplecticMatrix, metaplectic, random_symplectic
from .dims import Dimension
from .weyl import displacements, mod_inverse

SYMPLECTIC_SAMPLES = 20  # random symplectic G per verify_product_iso


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


def _crt_rows(fact: Factorization, u: np.ndarray) -> np.ndarray:
    """Row of |u mod n_1> (x) ... (x) |u mod n_r> in the Kronecker basis."""
    row = 0
    for f in fact.factors:
        row = row * f.n + u % f.n
    return row


def crt_permutation(fact: Factorization) -> np.ndarray:
    """Permutation matrix P with P|u>_N = |u mod n_1> (x) ... (x) |u mod n_r>."""
    return np.eye(fact.N)[:, _crt_rows(fact, np.arange(fact.N))]


def displacement_witness(fact: Factorization) -> tuple[int, int] | None:
    """First (a, b) with P D^{(N)}_{ab} P^T != (x)_j tau_j^{kappa_j ab}
    X_j^a Z_j^{kappa_j b}, or None. Exact: both sides are phase permutations,
    compared as row images and as phases mod 2N in the unit e^{i pi/N}, in
    which tau_N^k is (N+1) k and tau_{n_j}^e is (n_j+1)(N/n_j) e."""
    N = fact.N
    D = displacements(Dimension(N))
    a, b = (x[:, None] for x in np.divmod(np.arange(N * N), N))
    v = np.arange(N)
    # factor j sends |u> to tau_j^{kappa_j (ab + 2bu)} |u + a>, u = v mod n_j;
    # with c_j = (n_j+1)(N/n_j) kappa_j the sum over j is ab sum_j c_j + 2b w
    # for the one N-vector w = sum_j c_j (v mod n_j)
    c = [(f.n + 1) * (N // f.n) * f.kappa for f in fact.factors]
    w = sum(cj * (v % f.n) for cj, f in zip(c, fact.factors))
    rhs = sum(c) * a * b + 2 * b * w
    rows = _crt_rows(fact, v)  # one N-entry table, gathered per image
    ok = ((rows[D.image] == rows[(v + a) % N])
          & (((N + 1) * D.expo - rhs) % (2 * N) == 0)).all(axis=-1)
    bad = np.flatnonzero(~ok)
    return None if bad.size == 0 else divmod(int(bad[0]), N)


def verify_product_iso(N: int, n_symplectic: int = SYMPLECTIC_SAMPLES,
                       rng_seed: int = 0) -> float:
    """Max deviation of the CRT factorization.

    Checks that P D^{(N)}_{ab} P^T = (x)_j tau_j^{kappa_j ab} X_j^a
    Z_j^{kappa_j b} for every (a, b), exactly (`displacement_witness`), and
    for n_symplectic random symplectic G mod Nbar that P U_G P^T matches
    (x)_j U_{F'_j} up to one global phase per G. Returns the worst entrywise
    deviation of the symplectic half, or 1.0 if the displacement half fails.
    """
    dim = Dimension(N)
    fact = factor_dimension(N)
    if displacement_witness(fact) is not None:
        return 1.0
    P = crt_permutation(fact)
    worst = 0.0
    rng = np.random.default_rng(rng_seed)
    for _ in range(n_symplectic):
        G = random_symplectic(dim, rng)
        lhs = P @ metaplectic(G, dim) @ P.T
        rhs = reduce(np.kron, [metaplectic(f_prime(G, j, fact), Dimension(f.n))
                               for j, f in enumerate(fact.factors)])
        ph = np.trace(rhs.conj().T @ lhs) / N
        ph = ph / abs(ph)
        worst = max(worst, float(np.max(np.abs(lhs - ph * rhs))))
    return worst
