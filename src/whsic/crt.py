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
the first failure. The displacement half compares the integer phases of
both sides of D_01, D_10 and D_11, which decide all N^2 displacements
(`displacement_witness`): `verify crt` counts N^2 `checked_displacements`
certified through them. The symplectic half compares the chirp exponent
tables of U_C and of (x)_j U_{F'_j(C)} for every chirp factor C of random
symplectic samples, up to one constant per C (`symplectic_witness`). Both
compare integers mod 2N and read no tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clifford import (SymplecticMatrix, chirp_exponents, chirp_factors,
                       random_symplectic)
from .dims import Dimension
from .weyl import displacement, mod_inverse, standard_generators

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
    return [(a % f.n, (f.kappa * b) % f.n, (f.kappa * c) % f.nbar)
            for f in factor_dimension(N).factors]


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
    (x)_j D^{(n_j)}_{a, kappa_j b}, or None. Both sides map |v> to |v + a>
    by the CRT, so only phases are compared, exactly, mod 2N in the unit
    e^{i pi/N}: tau_N^k is (N+1) k and tau_{n_j}^e is (n_j+1)(N/n_j) e.
    Both sides are s^{ab} X'^a Z'^b with a central scalar s, so D_01 and
    D_10, then D_11, decide all N^2, and the first of them that fails is
    the first failure in that order."""
    N = fact.N
    v, ab = np.arange(N), ((0, 1), (1, 0), (1, 1))
    diff = np.zeros((len(ab), N), dtype=np.int64)
    # the N side enters as a factor with n = N, kappa = 1 and weight -(N+1)
    for n, kappa, w in [(N, 1, -(N + 1))] + [
            (f.n, f.kappa, (f.n + 1) * (N // f.n)) for f in fact.factors]:
        X, Z = standard_generators(Dimension(n))
        for k, (a, b) in enumerate(ab):
            diff[k] += w * displacement(X, Z, a, kappa * b).expo[v % n]
    bad = np.flatnonzero((diff % (2 * N)).any(axis=1))
    return ab[bad[0]] if bad.size else None


def symplectic_witness(fact: Factorization, Gs
                       ) -> tuple[SymplecticMatrix, tuple[int, int]] | None:
    """First G of Gs and entry (u, v) with P U_C P^T != c (x)_j U_{F'_j(C)}
    for a constant c, where C is G or the failing one of its two
    `chirp_factors`, or None. Exact: every U_C and U_{F'_j(C)} is a chirp
    tau^E / sqrt(n) and 1/sqrt(N) = prod_j 1/sqrt(n_j), so entry (u, v)
    compares (N+1) E_N[u, v] with sum_j (n_j+1)(N/n_j) E_j[u mod n_j,
    v mod n_j] mod 2N, in the unit e^{i pi/N}, and their difference must be
    the same for every entry of one C."""
    N = fact.N
    dim = Dimension(N)
    chirps, owner = [], []
    for i, G in enumerate(Gs):
        for C in chirp_factors(G, dim):
            chirps.append(C)
            owner.append(i)
    diff = (N + 1) * chirp_exponents(chirps, dim)
    u = np.arange(N)
    for j, f in enumerate(fact.factors):
        E = chirp_exponents([f_prime(C, j, fact) for C in chirps],
                            Dimension(f.n))
        diff -= (f.n + 1) * (N // f.n) * E[:, (u % f.n)[:, None], u % f.n]
    diff %= 2 * N
    bad = np.flatnonzero(diff != diff[:, :1, :1])
    if bad.size == 0:
        return None
    k, uv = divmod(int(bad[0]), N * N)
    return Gs[owner[k]], divmod(uv, N)


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
    Gs = [random_symplectic(dim, rng) for _ in range(n_symplectic)]
    checked = sum(len(chirp_factors(G, dim)) for G in Gs)
    bad = symplectic_witness(fact, Gs)
    if bad is None:
        return None, checked
    G, uv = bad
    return ({"symplectic": [G.alpha, G.beta, G.gamma, G.delta],
             "entry": list(uv)}, checked)


def verify_product_iso(N: int, n_symplectic: int = SYMPLECTIC_SAMPLES,
                       rng_seed: int = 0) -> float:
    """The CRT factorization certificate of `product_iso_witness` as a
    number: 0.0 when both halves hold exactly, 1.0 when either fails."""
    witness, _ = product_iso_witness(N, n_symplectic, rng_seed)
    return 0.0 if witness is None else 1.0
