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
both sides, from `eta_prime`, over all N^2 displacements; their images
agree by the CRT (`displacement_witness`). The symplectic half compares
the chirp exponent tables of U_C and of (x)_j U_{F'_j(C)} for every chirp
factor C of random symplectic samples, up to one constant per C
(`symplectic_witness`).
Both compare integers mod 2N and read no tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clifford import (SymplecticMatrix, chirp_exponents, chirp_factors,
                       random_symplectic)
from .dims import Dimension
from .weyl import mod_inverse

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


def _eta(fact: Factorization, a, b, c) -> list[tuple]:
    """Factor exponents of x^a z^b t^c under the product map of fact, for
    integers or integer arrays a, b, c."""
    return [(a % f.n, (f.kappa * b) % f.n, (f.kappa * c) % f.nbar)
            for f in fact.factors]


def eta_prime(a: int, b: int, c: int, N: int) -> list[tuple[int, int, int]]:
    """Factor exponents of x^a z^b t^c under the corrected product map."""
    return _eta(factor_dimension(N), a, b, c)


def f_prime(G: SymplecticMatrix, j: int, fact: Factorization) -> SymplecticMatrix:
    """The twisted symplectic factor of G mod nbar_j."""
    f = fact.factors[j]
    kinv = mod_inverse(f.kappa % f.nbar, f.nbar)
    return SymplecticMatrix(G.alpha % f.nbar,
                            (kinv * G.beta) % f.nbar,
                            (f.kappa * G.gamma) % f.nbar,
                            G.delta % f.nbar)


def displacement_witness(fact: Factorization) -> tuple[int, int] | None:
    """First (a, b) with P D^{(N)}_{ab} P^T != (x)_j tau_j^{kappa_j ab}
    X_j^a Z_j^{kappa_j b}, or None. Both sides send the image of |v> to that
    of |v + a> by the CRT, so they can differ only in phase: D_ab|v> =
    tau^{ab + 2bv}|v + a>, and factor j, with (a_j, b_j, c_j) the exponents
    of `eta_prime` for (a, b, ab), gives tau_j^{c_j + 2 b_j (v mod n_j)}.
    Exact: the phases are compared mod 2N in the unit e^{i pi/N}, in which
    tau_N^k is (N+1) k and tau_{n_j}^e is (n_j+1)(N/n_j) e. In O(N^2): the
    difference is its value at v = 0, per (a, b), plus a part per (b, v)."""
    N = fact.N
    a, b = np.indices((N, N))
    v = np.arange(N)
    # in_v has rows b and columns v; b_j depends on b alone, so bj[0] holds it
    at_v0, in_v = (N + 1) * a * b, 2 * (N + 1) * v[:, None] * v
    for f, (_, bj, c) in zip(fact.factors, _eta(fact, a, b, a * b)):
        w = (f.n + 1) * (N // f.n)
        at_v0 -= w * c
        in_v -= 2 * w * bj[0, :, None] * (v % f.n)
    ok = (at_v0 % (2 * N) == 0) & (in_v % (2 * N) == 0).all(axis=1)
    bad = np.flatnonzero(~ok)
    return None if bad.size == 0 else divmod(int(bad[0]), N)


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
