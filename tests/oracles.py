"""Test oracles shared by the test modules: dense checks, the exact
H(N) triples that `PhasePermutation` products are compared against, and the
paper's results that no command states."""

from dataclasses import dataclass

import numpy as np

from whsic import crt
from whsic.clifford import (ZAUNER, SymplecticMatrix, chirp_exponents,
                            chirp_factors, zauner_angle)
from whsic.dims import Dimension, PhasePermutation, flatten, tau_table
from whsic.errors import BasisUnavailable
from whsic.monomial import (monomial_clifford, monomial_weyl_generators,
                            vector_order)
from whsic.sic import REPHASE4, Fiducial, basis_change
from whsic.weyl import displacement, standard_generators


# ---------------------------------------------------------------------------
# H(N) as exact integer triples tau^k D_ij
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GroupElement:
    """tau^k D_{ij}, D_{ij} = tau^{ij} X^i Z^j: H(N) is the group of these
    triples, with k mod nbar and i, j mod N; canonical when 0 <= k < nbar
    and 0 <= i, j < N."""

    k: int
    i: int
    j: int


def canonicalize(g: GroupElement, dim: Dimension) -> GroupElement:
    """Reduce (k, i, j) to the canonical representative, tracking the fold
    phases D_{i+N,j} = tau^{Nj} D_ij and D_{i,j+N} = tau^{Ni} D_ij."""
    N, nbar = dim.N, dim.nbar
    k, i, j = g.k, g.i, g.j
    # i = i0 + N*q  =>  D_{ij} = tau^{N*q*j} D_{i0,j}
    i0 = i % N
    q = (i - i0) // N
    k += N * q * j
    # j = j0 + N*q' =>  D_{i0,j} = tau^{N*q'*i0} D_{i0,j0}
    j0 = j % N
    qp = (j - j0) // N
    k += N * qp * i0
    return GroupElement(k % nbar, i0, j0)


def compose(g1: GroupElement, g2: GroupElement, dim: Dimension) -> GroupElement:
    """Exact product tau^{k1} D_{i1 j1} * tau^{k2} D_{i2 j2}, by the law
    D_ij D_lm = tau^{lj - im} D_{i+l, j+m}."""
    k = g1.k + g2.k + (g2.i * g1.j - g1.i * g2.j)
    return canonicalize(GroupElement(k, g1.i + g2.i, g1.j + g2.j), dim)


def inverse(g: GroupElement, dim: Dimension) -> GroupElement:
    """The exact group inverse, D_ij^{-1} = D_{-i,-j}."""
    # D_{ij} D_{-i,-j} = tau^{(-i)j - i(-j)} D_00 = D_00 exactly
    return canonicalize(GroupElement(-g.k, -g.i, -g.j), dim)


def element_order(g: GroupElement, dim: Dimension) -> int:
    """The order of tau^k D_ij in H(N): least m >= 1 with g^m the identity
    triple."""
    g = canonicalize(g, dim)
    acc = g
    cap = dim.nbar * dim.N * dim.N + 1
    for m in range(1, cap + 1):
        if acc == GroupElement(0, 0, 0):
            return m
        acc = compose(acc, g, dim)
    raise AssertionError("element order exceeded group-size bound")


# ---------------------------------------------------------------------------
# results of the paper that the tests state
# ---------------------------------------------------------------------------

def lift_sl2(G: SymplecticMatrix, dim: Dimension) -> SymplecticMatrix:
    """SL(2, N) lifts onto SL(2, 2N) for even N: Gbar in SL(2, 2N) with
    Gbar == G mod N.

    If det G = kN + 1 with k odd, adding N to the cofactor partner of an odd
    entry (one exists, as G is invertible mod N) shifts the determinant by
    N * (odd), flipping the parity of k while leaving G mod N untouched.
    Gbar is the first of G and its four shifts with determinant 1 mod 2N.
    """
    N = dim.N
    if N % 2 != 0:
        raise ValueError("lift is only needed for even N")
    G = G.reduced(N)
    if G.det() % N != 1:
        raise ValueError("input must have determinant 1 mod N")
    a, b, g_, dl = G.alpha, G.beta, G.gamma, G.delta
    # det += 0, N * alpha, N * delta, N * beta, N * gamma
    for out in (G, SymplecticMatrix(a, b, g_, dl + N),
                SymplecticMatrix(a + N, b, g_, dl),
                SymplecticMatrix(a, b, g_ - N, dl),
                SymplecticMatrix(a, b - N, g_, dl)):
        if out.det() % (2 * N) == 1:
            return out.reduced(2 * N)
    raise AssertionError("all entries even contradicts invertibility mod N")


def monomial_zauner(dim: Dimension) -> np.ndarray:
    """The Zauner unitary is monomial for square N: the order-3 unitary
    e^{i pi zauner_angle} U_ZAUNER on the |r,s> basis, U^3 = 1. Dense, since
    the Zauner phase is not a power of tau."""
    return (np.exp(1j * np.pi * float(zauner_angle(dim)))
            * monomial_clifford(ZAUNER, dim).dense())


def rephased4_generators() -> tuple[PhasePermutation, PhasePermutation]:
    """Rephased, N = 4 monomial X and Z are tau times signed permutations:
    the monomial generators after the diagonal rephasing
    diag(tau^-2, tau^-7, tau^-5, 1) of `sic.REPHASE4` have entries in
    {1, i, -1} times tau."""
    dim = Dimension(4)
    # rescaling the kets |e_j> -> ph_j |e_j> conjugates operators by the
    # inverse diagonal, M' = P^{-1} M P: a shift of the tau exponents
    e = np.arange(4)
    P = PhasePermutation(dim, e, REPHASE4)
    Pinv = PhasePermutation(dim, e, np.negative(REPHASE4))
    return tuple(Pinv @ M @ P for M in monomial_weyl_generators(dim))


def to_standard(f: Fiducial) -> Fiducial:
    """A SIC in any basis is a SIC in the standard basis: the same fiducial
    with its amplitudes V a in the standard basis, V = `sic.basis_change`."""
    return Fiducial(f.dim, "standard",
                    basis_change(f.dim, f.basis) @ f.amplitudes, f.provenance)


def autocorrelation_check(f: Fiducial) -> np.ndarray:
    """A fiducial's |a|^2 autocorrelations are 2/(N+1) and 1/(N+1): the
    residuals of the shifted-product probability sums.

    In the standard basis the sums run over 1D shifts,
    sum_i p_i p_{i+x} with x mod N; in a phase-permutation basis over 2D
    shifts, sum_{r,s} p_{rs} p_{r+x,s+y} with x, y mod n. The zero shift must
    give 2/(N+1), every other shift 1/(N+1); the returned array holds the
    absolute residuals, indexed by shift.
    """
    dim = f.dim
    if f.basis == "standard":
        shape = (dim.N,)
    elif f.basis in ("monomial", "rephased4") and dim.n is not None:
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
# dense and scan oracles of the package's exact checks
# ---------------------------------------------------------------------------


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


def gram_deviation(V):
    """max |<u|v> - delta_uv| over the column pairs of V, and the first
    pair (u, v) that attains it: the float Gram check that `mub.Basis`
    replaces by its exact line and step conditions."""
    dev = np.abs(V.conj().T @ V - np.eye(V.shape[1]))
    u, v = np.unravel_index(int(np.argmax(dev)), dev.shape)
    return float(dev[u, v]), (int(u), int(v))


def latin_vectors(dim, lam, phases):
    """Columns a + nb = (1/sqrt n) sum_r phases[r,a,b] |r, lam[r,a]> for any
    complex phase table indexed (r, a, b): the dense Latin basis, which
    `mub.latin_basis` holds as integer exponents."""
    n = dim.n
    r, a, b = np.indices((n, n, n))
    V = np.zeros((dim.N, dim.N), dtype=complex)
    V[flatten(r, np.asarray(lam)[r, a], n), a + n * b] = phases / np.sqrt(n)
    return V


def overlap_deviation(V, W):
    """max | |<v|w>|^2 - 1/N | over the columns v of V and w of W: 0 up to
    roundoff when the two bases are mutually unbiased."""
    return float(np.max(np.abs(np.abs(V.conj().T @ W) ** 2 - 1 / len(V))))


def float_zauner_counts(dim):
    """`clifford.zauner_counts` in O(N) float arithmetic, with no Gauss-sum
    reciprocity: (d, S) with S = (S_1, S_3), S_k = sum_s
    tau^{k s^2} from N exponents counted mod nbar with one `np.bincount`
    each and weighed by `dims.tau_table`, and the float multiplicities
    d_k = (N + 2 Re(omega^{-k} z tr U_0))/3, with z = e^{i pi
    zauner_angle} and tr U_0 = S_3 / sqrt(N). Each sum errs by about
    N^{3/2} eps."""
    N, nbar = dim.N, dim.nbar
    s2 = np.arange(N, dtype=np.int64) ** 2
    S = tuple(np.bincount(k * s2 % nbar, minlength=nbar) @ tau_table(dim)
              for k in (1, 3))
    z = np.exp(1j * np.pi * float(zauner_angle(dim)))
    d = (N + 2 * np.real(z * S[1] / np.sqrt(N)
                         * np.exp(-2j * np.pi * np.arange(3) / 3))) / 3
    return d, S
