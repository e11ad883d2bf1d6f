"""Dense test oracles shared by the test modules."""

import numpy as np

from whsic import crt
from whsic.clifford import chirp_exponents, chirp_factors
from whsic.dims import Dimension, PhasePermutation, tau_table
from whsic.monomial import vector_order
from whsic.weyl import displacement, standard_generators


def reference_check(G, dim, U, D):
    """`clifford.conjugation_check_batched` for any unitary U (dense or a
    `PhasePermutation`), one displacement at a time, by dense products and
    without blocks: max over k of |U D_k U^dag - tau^c D_{G(k)}|, with c
    the tau power nearest <D_{G(k)}, U D_k U^dag> / N. A non-finite entry
    makes the result NaN or inf."""
    N, U = dim.N, np.asarray(U)
    table, worst = tau_table(dim), 0.0
    for k in range(N * N):
        conj = U @ D[k] @ U.conj().T
        ip, jp = G.apply(*divmod(k, N), N)
        tgt = D[ip * N + jp]
        ph = np.vdot(tgt, conj) / N
        snapped = table[np.argmin(np.abs(table - ph))]
        worst = np.maximum(worst, np.abs(conj - snapped * tgt).max())
    return float(worst)


def element_matrix(g, dim):
    """Dense matrix of tau^k D_{ij} in the standard basis, with
    D_{ij} = tau^{ij} X^i Z^j: tau^{k + ij + 2jv} at (v + i, v)."""
    v = np.arange(dim.N)
    return PhasePermutation(dim, (v + g.i) % dim.N,
                            g.k + g.i * g.j + 2 * g.j * v).dense()


def iterated_powers(P):
    """P^0, ..., P^{N-1} of a `PhasePermutation`, stacked along a leading
    axis, by N - 1 single products: the plain recursion P^{m+1} = P^m P
    that `weyl._powers` shortcuts by doubling."""
    N = P.dim.N
    powers = [PhasePermutation(P.dim, np.arange(N), np.zeros(N, dtype=int))]
    for _ in range(N - 1):
        powers.append(powers[-1] @ P)
    return PhasePermutation(P.dim, np.stack([Q.image for Q in powers]),
                            np.stack([Q.expo for Q in powers]))


def chirp_table_witness(fact, Gs):
    """`crt.symplectic_witness` by a scan of whole exponent tables: for
    every chirp factor C of every G, the (N, N) table of (N+1) E_N[u, v] -
    sum_j (n_j+1)(N/n_j) E_j[u mod n_j, v mod n_j] mod 2N, in the unit
    e^{i pi/N}, from `chirp_exponents` on each side, must be constant. The
    first entry in the order (chirp, u, v) that differs from the chirp's
    entry (0, 0) is the witness, returned with its G; None if there is
    none. F'_j is read through `crt.f_prime`, so a test can break it."""
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
        E = chirp_exponents([crt.f_prime(C, j, fact) for C in chirps],
                            Dimension(f.n))
        diff -= (f.n + 1) * (N // f.n) * E[:, (u % f.n)[:, None], u % f.n]
    diff %= 2 * N
    bad = np.flatnonzero(diff != diff[:, :1, :1])
    if bad.size == 0:
        return None
    k, uv = divmod(int(bad[0]), N * N)
    return Gs[owner[k]], divmod(uv, N)


def displacement_row_witness(fact):
    """`crt.displacement_witness` by a scan of whole phase rows: for D_01,
    D_10 and D_11 in turn, sum_j (n_j+1)(N/n_j) times the exponent of
    D^{(n_j)}_{a, kappa_j b} at column v mod n_j minus (N+1) times that of
    D^{(N)}_{ab} at v, in the unit e^{i pi/N}, must be 0 mod 2N for every
    v; both sides carry |v> to |v + a> by the CRT. The first of the three
    that differs anywhere is the witness; None if none does."""
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


def invariant_subgroup_search(N):
    """`monomial.invariant_subgroup` by search over the 2^d sets of divisors
    of N: the first union of constant-order classes (the SL(2, N) orbits, so
    every invariant set is such a union) that holds order 1 and every
    divisor of its orders, has N points and is closed under addition mod N;
    None if there is none."""
    divisors = [d for d in range(1, N + 1) if N % d == 0]
    classes = {d: frozenset((i, j) for i in range(N) for j in range(N)
                            if vector_order((i, j), N) == d)
               for d in divisors}
    for mask in range(1, 1 << len(divisors)):
        S = [divisors[t] for t in range(len(divisors)) if mask >> t & 1]
        if 1 not in S:
            continue
        if any(e for d in S for e in divisors if d % e == 0 and e not in S):
            continue
        V = frozenset().union(*(classes[d] for d in S))
        if len(V) == N and all(((a1 + b1) % N, (a2 + b2) % N) in V
                               for a1, a2 in V for b1, b2 in V):
            return V
    return None
