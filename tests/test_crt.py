"""Chinese-remainder factorization of the group and its representations."""

from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from whsic import clifford, crt
from whsic.clifford import (SymplecticMatrix, chirp_factors, metaplectic,
                            random_symplectic)
from whsic.crt import (Factorization, displacement_witness, f_prime,
                       factor_dimension, symplectic_witness,
                       verify_product_iso)
from whsic.dims import Dimension, tau_power
from whsic.weyl import all_displacements, standard_generators

import oracles
from oracles import GroupElement, compose


# ---------------------------------------------------------------------------
# factorization bookkeeping
# ---------------------------------------------------------------------------

def test_factor_dimension_six():
    fact = factor_dimension(6)
    assert [(f.p, f.q, f.n, f.nbar) for f in fact.factors] == \
        [(2, 1, 2, 4), (3, 1, 3, 3)]
    # kappa_1 = 3^{-1} mod 4 = 3, kappa_2 = 2^{-1} mod 3 = 2
    assert [f.kappa for f in fact.factors] == [3, 2]


def test_factor_dimension_prime_power():
    fact = factor_dimension(9)
    assert len(fact.factors) == 1
    f = fact.factors[0]
    assert (f.p, f.q, f.n, f.nbar, f.kappa) == (3, 2, 9, 9, 1)


def test_factor_dimension_twelve():
    fact = factor_dimension(12)
    assert [f.n for f in fact.factors] == [4, 3]
    assert [f.nbar for f in fact.factors] == [8, 3]
    for f in fact.factors:
        assert (f.kappa * (12 // f.n)) % f.nbar == 1


def test_factor_dimension_rejects_small():
    with pytest.raises(ValueError):
        factor_dimension(1)


# ---------------------------------------------------------------------------
# the corrected exponent map
# ---------------------------------------------------------------------------

def eta_prime(a: int, b: int, c: int, N: int) -> list[tuple[int, int, int]]:
    """Factor exponents of x^a z^b t^c under the corrected product map:
    H(N) is the product of the H(n_j) under the CRT map
    x^a z^b t^c -> (x) x_j^a z_j^{kappa_j b} t_j^{kappa_j c}."""
    return [(a % f.n, (f.kappa * b) % f.n, (f.kappa * c) % f.nbar)
            for f in factor_dimension(N).factors]


def test_eta_prime_example():
    # N = 6: x z t -> (x z^3 t^3, x z^2 t^2)
    assert eta_prime(1, 1, 1, 6) == [(1, 1, 3), (1, 2, 2)]


@given(N=st.sampled_from([6, 10, 12, 15]), data=st.data())
@settings(max_examples=60, deadline=None)
def test_eta_prime_is_a_homomorphism(N, data):
    """Composing in H(N) then mapping equals mapping then composing
    factorwise. The central exponent fed to the map is the full power of tau
    carried by tau^k D_ij = tau^{k + ij} x^i z^j."""
    dim = Dimension(N)
    nbar = dim.nbar
    ints = st.integers(0, nbar - 1)
    g1 = GroupElement(data.draw(ints), data.draw(ints) % N, data.draw(ints) % N)
    g2 = GroupElement(data.draw(ints), data.draw(ints) % N, data.draw(ints) % N)
    g12 = compose(g1, g2, dim)
    lhs = eta_prime(g12.i, g12.j, g12.k + g12.i * g12.j, N)
    img1 = eta_prime(g1.i, g1.j, g1.k + g1.i * g1.j, N)
    img2 = eta_prime(g2.i, g2.j, g2.k + g2.i * g2.j, N)
    fact = factor_dimension(N)
    for f, (a1, b1, c1), (a2, b2, c2), target in zip(fact.factors, img1, img2,
                                                     lhs):
        dj = Dimension(f.n)
        h1 = GroupElement(c1 - a1 * b1, a1, b1)
        h2 = GroupElement(c2 - a2 * b2, a2, b2)
        h = compose(h1, h2, dj)
        assert (h.i, h.j, (h.k + h.i * h.j) % f.nbar) == target


@pytest.mark.parametrize("N", [6, 12, 15])
def test_f_prime_factors_are_symplectic(N):
    dim = Dimension(N)
    fact = factor_dimension(N)
    rng = np.random.default_rng(N)
    nbar = dim.nbar
    count = 0
    while count < 100:
        a, b, g_, d = (int(x) for x in rng.integers(0, nbar, size=4))
        G = SymplecticMatrix(a, b, g_, d)
        if G.det() % nbar != 1:
            continue
        count += 1
        for j, f in enumerate(fact.factors):
            Gj = f_prime(G, j, fact)
            assert Gj.det() % f.nbar == 1
            assert (Gj.det() - 1) % Dimension(f.n).nbar == 0


def test_f_prime_trivial_twist_is_reduction():
    # single prime-power factor: kappa = 1 and F' is plain reduction
    fact = factor_dimension(9)
    G = SymplecticMatrix(2, 3, 3, 5)  # det = 10 - 9 = 1
    assert f_prime(G, 0, fact) == G.reduced(9)


# ---------------------------------------------------------------------------
# the permutation and the dense isomorphism
# ---------------------------------------------------------------------------

def crt_permutation(fact):
    """Permutation matrix P with P|u>_N = |u mod n_1> (x) ... (x) |u mod n_r>,
    built from the basis kets."""
    return np.stack([reduce(np.kron, [np.eye(f.n)[u % f.n]
                                      for f in fact.factors])
                     for u in range(fact.N)], axis=1)


def dense_symplectic_sides(fact, G, twist=f_prime):
    """P U_G P^T and (x)_j U_{F'_j}, densely: the oracle of the exact
    `symplectic_witness`. twist builds F'_j, so a test can break it."""
    P = crt_permutation(fact)
    lhs = P @ metaplectic(G, Dimension(fact.N)) @ P.T
    rhs = reduce(np.kron, [metaplectic(twist(G, j, fact), Dimension(f.n))
                           for j, f in enumerate(fact.factors)])
    return lhs, rhs


def dense_symplectic_deviation(fact, G, twist=f_prime):
    """max |P U_G P^T - c (x)_j U_{F'_j}| for the one phase c fitted by the
    trace inner product."""
    lhs, rhs = dense_symplectic_sides(fact, G, twist)
    ph = np.trace(rhs.conj().T @ lhs) / fact.N
    return float(np.max(np.abs(lhs - ph / abs(ph) * rhs)))


@pytest.mark.parametrize("N", [6, 12, 15])
def test_crt_permutation_carries_generators(N):
    fact = factor_dimension(N)
    P = crt_permutation(fact)
    assert np.array_equal(P @ P.T, np.eye(N))
    X, Z = standard_generators(Dimension(N))
    Xk = np.ones((1, 1), dtype=complex)
    Zk = np.ones((1, 1), dtype=complex)
    for f in fact.factors:
        Xj, Zj = standard_generators(Dimension(f.n))
        Xk = np.kron(Xk, Xj)
        Zk = np.kron(Zk, np.linalg.matrix_power(Zj, f.kappa))
    assert np.max(np.abs(P @ X @ P.T - Xk)) < 1e-12
    assert np.max(np.abs(P @ Z @ P.T - Zk)) < 1e-12


@pytest.mark.parametrize("N", [4, 6, 9, 12])
def test_product_isomorphism_dense(N):
    assert verify_product_iso(N, n_symplectic=10) < 1e-9


def dense_factor_side(fact, a, b):
    """(x)_j tau_j^{kappa_j ab} X_j^a Z_j^{kappa_j b}, built densely."""
    mats = []
    for f in fact.factors:
        dj = Dimension(f.n)
        X, Z = (np.asarray(M) for M in standard_generators(dj))
        mats.append(tau_power(dj, f.kappa * a * b)
                    * np.linalg.matrix_power(X, a)
                    @ np.linalg.matrix_power(Z, f.kappa * b))
    return reduce(np.kron, mats)


@pytest.mark.parametrize("N", range(2, 41))
def test_displacement_half_is_exact(N):
    assert displacement_witness(factor_dimension(N)) is None


def dense_first_failure(fact):
    """First (a, b) in the order a*N + b where P D_ab P^T and
    `dense_factor_side` differ, from dense matrices, or None."""
    N = fact.N
    P = crt_permutation(fact)
    D = all_displacements(Dimension(N))
    for k in range(N * N):
        a, b = divmod(k, N)
        lhs = P @ D[k] @ P.T
        if np.max(np.abs(lhs - dense_factor_side(fact, a, b))) > 1e-9:
            return a, b
    return None


@pytest.mark.parametrize("N", [6, 10, 12, 15])
def test_naive_kappa_map_is_rejected_with_a_witness(N):
    """kappa_j = 1, copying the exponents, fails on the central phases; the
    witness is Z = D_01, the first displacement where the dense matrices
    differ."""
    fact = factor_dimension(N)
    naive = Factorization(N, tuple(f._replace(kappa=1) for f in fact.factors))
    assert displacement_witness(naive) == (0, 1)
    assert dense_first_failure(naive) == (0, 1)
    assert dense_first_failure(fact) is None


@pytest.mark.parametrize("N", [6, 10, 12, 20])
def test_central_scalar_alone_is_caught_at_d11(N):
    """kappa_j + n_j for the even factor leaves Z_j^{kappa_j} as it is but
    negates tau_j^{kappa_j}, since tau_j^{n_j} = -1 for even n_j: only the
    central scalar changes, so every D_0b and D_10 still hold and D_11 is
    the first failure, by the exact check and by the dense one."""
    fact = factor_dimension(N)
    even, *odd = fact.factors  # primes ascend
    assert even.p == 2
    shifted = Factorization(
        N, (even._replace(kappa=even.kappa + even.n), *odd))
    assert displacement_witness(shifted) == (1, 1)
    assert dense_first_failure(shifted) == (1, 1)


def kappa_variants(fact, rng):
    """fact with its true kappa_j, with every kappa_j = 1, with kappa_j +
    n_j for the even factor (when there is one), and with 5 draws of every
    kappa_j from 0..3 nbar_j - 1, units or not."""
    N, factors = fact.N, fact.factors
    out = [fact, Factorization(N, tuple(f._replace(kappa=1) for f in factors))]
    if factors[0].p == 2:
        even, *odd = factors
        out.append(Factorization(
            N, (even._replace(kappa=even.kappa + even.n), *odd)))
    for _ in range(5):
        out.append(Factorization(N, tuple(
            f._replace(kappa=int(rng.integers(0, 3 * f.nbar)))
            for f in factors)))
    return out


@pytest.mark.parametrize("lo", range(2, 401, 100))
def test_displacement_constant_is_the_row_scan(lo):
    """The one constant K mod 2N names the same witness as the scan of the
    phase rows of D_01, D_10 and D_11, for every N of the block and every
    `kappa_variants` map: 2993 cases over N = 2..400."""
    rng = np.random.default_rng(lo)
    for N in range(lo, min(lo + 100, 401)):
        for cand in kappa_variants(factor_dimension(N), rng):
            assert displacement_witness(cand) == \
                oracles.displacement_row_witness(cand)


BIG_DIMS = [6 * 10 ** 9, 2 * 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23 * 29 * 31 * 37]


@pytest.mark.parametrize("N", BIG_DIMS)
def test_symplectic_half_holds_beyond_int64(N):
    """The weighted coefficient sums reach about N^2, past int64 at these N:
    summed in Python ints, 20 random samples, chirps or not, hold."""
    dim = Dimension(N)
    rng = np.random.default_rng(0)
    Gs = [random_symplectic(dim, rng) for _ in range(20)]
    assert any(np.gcd(G.beta, dim.nbar) != 1 for G in Gs)
    assert symplectic_witness(factor_dimension(N), Gs)[0] is None


@pytest.mark.parametrize("N", BIG_DIMS)
def test_perturbed_kappa_beyond_the_old_cap_fails_as_at_small_n(N):
    """kappa_j = 1 fails at D_01 and kappa_j + n_j for the even factor at
    D_11, as at N = 6..20; kappa_j = 1 also fails the symplectic half."""
    fact = factor_dimension(N)
    naive, shifted = kappa_variants(fact, np.random.default_rng(0))[1:3]
    assert displacement_witness(fact) is None
    assert displacement_witness(naive) == (0, 1)
    assert displacement_witness(shifted) == (1, 1)
    Gs = [random_symplectic(Dimension(N), np.random.default_rng(1))]
    assert symplectic_witness(fact, Gs)[0] is None
    assert symplectic_witness(naive, Gs)[0] is not None


def test_verify_crt_splits_each_sample_into_chirps_once(monkeypatch):
    """`product_iso_witness` at N = 12 calls `chirp_factors` once for each
    of its 20 samples, and its count is the number of chirps they split
    into: the witness and the count come from one pass."""
    samples = []

    def counted(G, dim):
        samples.append(G)
        return chirp_factors(G, dim)

    monkeypatch.setattr(crt, "chirp_factors", counted)
    witness, checked = crt.product_iso_witness(12)
    assert witness is None
    assert len(samples) == crt.SYMPLECTIC_SAMPLES
    assert checked == sum(len(chirp_factors(G, Dimension(12)))
                          for G in samples) > len(samples)


def chirp_samples(N, count, seed=0):
    """count random symplectic G mod Nbar whose beta is a unit, so that U_G
    is itself a chirp and a witness entry is an entry of U_G."""
    dim = Dimension(N)
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        G = random_symplectic(dim, rng)
        if np.gcd(G.beta, dim.nbar) == 1:
            out.append(G)
    return out


def assert_dense_witness(fact, G, uv, twist=f_prime):
    """The dense sides differ at entry uv by another phase than at (0, 0)."""
    lhs, rhs = dense_symplectic_sides(fact, G, twist)
    rows = np.argmax(crt_permutation(fact), axis=0)  # row of |u>
    ratio = [lhs[rows[u], rows[v]] / rhs[rows[u], rows[v]]
             for u, v in ((0, 0), uv)]
    assert abs(ratio[1] - ratio[0]) > 1e-3
    assert dense_symplectic_deviation(fact, G, twist) > 1e-3


@pytest.mark.parametrize("N", [6, 10, 12, 15, 30])
def test_exact_symplectic_half_agrees_with_dense_oracle(N):
    """Random G, chirps or not: the exact check and the dense products
    both hold."""
    dim = Dimension(N)
    fact = factor_dimension(N)
    rng = np.random.default_rng(N)
    Gs = [random_symplectic(dim, rng) for _ in range(10)]
    assert any(np.gcd(G.beta, dim.nbar) != 1 for G in Gs)
    chirps = sum(len(chirp_factors(G, dim)) for G in Gs)
    assert symplectic_witness(fact, Gs) == (None, chirps)
    for G in Gs:
        assert symplectic_witness(fact, [G])[0] is None
        assert dense_symplectic_deviation(fact, G) < 1e-9


@pytest.mark.parametrize("N", [6, 10, 12, 15, 30])
def test_naive_kappa_twist_is_rejected_with_a_symplectic_witness(N):
    fact = factor_dimension(N)
    naive = Factorization(N, tuple(f._replace(kappa=1) for f in fact.factors))
    Gs = chirp_samples(N, 5)
    witness, checked = symplectic_witness(naive, Gs)
    assert witness is not None and checked == len(Gs)
    G, uv = witness
    assert any(G is H for H in Gs)
    assert_dense_witness(naive, G, uv)


@pytest.mark.parametrize("N", [6, 10, 12, 15, 30])
def test_twist_of_another_sample_is_rejected_with_a_witness(N, monkeypatch):
    """The first factor's F'_j of each sample taken from the next sample."""
    fact = factor_dimension(N)
    nbar = Dimension(N).nbar
    Gs = chirp_samples(N, 5)
    swap = {G.reduced(nbar): H for G, H in zip(Gs, Gs[1:] + Gs[:1])}

    def twist(G, j, fact):
        return f_prime(swap.get(G.reduced(nbar), G) if j == 0 else G, j,
                       fact)

    monkeypatch.setattr(crt, "f_prime", twist)
    witness, _ = symplectic_witness(fact, Gs)
    assert witness is not None
    G, uv = witness
    assert G is Gs[0]
    assert_dense_witness(fact, G, uv, twist)


@pytest.mark.parametrize("N", [6, 10, 12, 15, 30])
def test_one_changed_exponent_is_the_witness(N, monkeypatch):
    """One entry of the N-table of the third sample's chirp, raised by 1: no
    quadratic form does that, so the table scan is checked, and it names
    that entry."""
    Gs = chirp_samples(N, 5)
    u, v = N - 1, N // 2
    chirp_exponents = oracles.chirp_exponents

    def corrupted(chirps, dim):
        E = chirp_exponents(chirps, dim)
        if dim.N == N:
            E[2, u, v] += 1
        return E

    monkeypatch.setattr(oracles, "chirp_exponents", corrupted)
    G, uv = oracles.chirp_table_witness(factor_dimension(N), Gs)
    assert G is Gs[2] and uv == (u, v)


def random_unit_kappas(fact, rng):
    """fact with one factor's kappa_j replaced by another unit mod nbar_j."""
    j = int(rng.integers(len(fact.factors)))
    f = fact.factors[j]
    units = [k for k in range(1, f.nbar)
             if np.gcd(k, f.nbar) == 1 and k != f.kappa]
    factors = list(fact.factors)
    factors[j] = f._replace(kappa=int(rng.choice(units)))
    return Factorization(fact.N, tuple(factors))


@pytest.mark.parametrize("N", range(2, 61))
def test_coefficient_witness_is_the_table_witness(N):
    """Three coefficients per chirp name the same witness as the scan of
    the whole exponent tables, for random G, chirps or not, under the
    correct twist, the naive kappa_j = 1 and one random kappa_j."""
    fact = factor_dimension(N)
    rng = np.random.default_rng(N)
    Gs = [random_symplectic(Dimension(N), rng) for _ in range(5)]
    naive = Factorization(N, tuple(f._replace(kappa=1) for f in fact.factors))
    witnesses = []
    for cand in (fact, naive, random_unit_kappas(fact, rng)):
        witness, _ = symplectic_witness(cand, Gs)
        assert witness == oracles.chirp_table_witness(cand, Gs)
        witnesses.append(witness)
    assert witnesses[0] is None
    assert (witnesses[1] is None) == (len(fact.factors) == 1)


@pytest.mark.parametrize("N", [6, 10, 12, 15, 30])
@pytest.mark.parametrize("k,entry", [(0, (1, 0)), (1, (1, 1)), (2, (0, 1))])
def test_one_raised_coefficient_is_the_witness(N, k, entry, monkeypatch):
    """Coefficient k of the third sample's N-side chirp raised by 1 raises
    A, B or C alone, by N + 1, so P(u, v) = (N+1) u^2, (N+1) uv or
    (N+1) v^2: the witness is the first entry where that is nonzero, and
    the dense sides differ there."""
    fact = factor_dimension(N)
    dim = Dimension(N)
    Gs = chirp_samples(N, 5)
    target = Gs[2].reduced(dim.nbar)
    chirp_coefficients = clifford.chirp_coefficients

    def raised(Gs, d):
        coeffs = [list(c) for c in chirp_coefficients(Gs, d)]
        for G, c in zip(Gs, coeffs):
            if d.N == N and G == target:
                c[k] += 1
        return coeffs

    for module in (clifford, crt):
        monkeypatch.setattr(module, "chirp_coefficients", raised)
    (G, uv), _ = symplectic_witness(fact, Gs)
    assert G is Gs[2] and uv == entry
    assert_dense_witness(fact, G, uv)
