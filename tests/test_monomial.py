"""Phase-permutation representation and the SL(2, N) orbit machinery."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from whsic.clifford import (ZAUNER, conjugation_check_batched, decompose,
                            random_symplectic)
from whsic.dims import Dimension, PhasePermutation, sigma_power, tau_table
from whsic.errors import NotSquare
from whsic.monomial import (covariance_witness, flatten, is_phase_permutation,
                            invariant_subgroup, monomial_antiunitary,
                            monomial_clifford, monomial_weyl_generators,
                            monomial_zauner, sl2_orbit,
                            stabilized_abelian_check, vector_order, zak_matrix)
from whsic.weyl import all_displacements, displacements

SQUARES = [4, 9, 16, 25]


# Entry-by-entry reference formulas; tau^k is taken by repeated
# multiplication so that no code path is shared with the operators under test.

def tau_pow(dim, k):
    return (-np.exp(1j * np.pi / dim.N)) ** (k % (2 * dim.N))


def ref_weyl_generators(dim):
    n, N = dim.n, dim.N
    X = np.zeros((N, N), dtype=complex)
    Z = np.zeros((N, N), dtype=complex)
    for r in range(n):
        for s in range(n):
            col = flatten(r, s, n)
            X[flatten(r, s + 1, n), col] = (1.0 if s + 1 < n
                                            else np.exp(2j * np.pi * r / n))
            Z[flatten(r - 1, s, n), col] = np.exp(2j * np.pi * s / N)
    return X, Z


def ref_clifford(G, dim):
    n, nbar, m = dim.n, dim.nbar, dim.half_shift
    G = G.reduced(nbar)
    if np.gcd(G.beta, nbar) != 1:
        G1, G2 = decompose(G, dim)
        return ref_clifford(G1, dim) @ ref_clifford(G2, dim)
    a, b, g_, d = G.alpha, G.beta, G.gamma, G.delta
    binv = pow(b, -1, nbar)
    U = np.zeros((dim.N, dim.N), dtype=complex)
    for r in range(n):
        for s in range(n):
            sp = (-b * r + a * s + m * a) % n
            rp = (d * r - g_ * s + m * g_ * d) % n
            U[flatten(rp, sp, n), flatten(r, s, n)] = tau_pow(
                dim, binv * (d * sp * sp - 2 * s * sp + a * s * s))
    return U


def first_dense_failure(G, dim, U, D):
    """Dense oracle of covariance_witness: the first (i, j) where
    U D_ij U^dag is not a tau power times D_{G(i,j)}, to 1e-9."""
    N, U = dim.N, np.asarray(U)
    for k in range(N * N):
        i, j = divmod(k, N)
        conj = U @ D[k] @ U.conj().T
        ip, jp = G.apply(i, j, N)
        tgt = D[ip * N + jp]
        ph = np.vdot(tgt, conj) / N
        if (np.abs(conj - ph * tgt).max() > 1e-9
                or np.abs(tau_table(dim) - ph).min() > 1e-9):
            return i, j
    return None


def ref_zauner(dim):
    n, m = dim.n, dim.half_shift
    ph = np.exp(1j * np.pi * (dim.N - 1) / 12)
    U = np.zeros((dim.N, dim.N), dtype=complex)
    for r in range(n):
        for s in range(n):
            U[flatten(-r - s - m, r, n), flatten(r, s, n)] = (
                ph * tau_pow(dim, r * r + 2 * r * s))
    return U


@pytest.mark.parametrize("N", SQUARES)
def test_generators_commutation_and_order(N):
    dim = Dimension(N)
    X, Z = monomial_weyl_generators(dim)
    omega = np.exp(2j * np.pi / N)
    assert np.max(np.abs(Z @ X - omega * X @ Z)) < 1e-12
    assert np.max(np.abs(np.linalg.matrix_power(X, N) - np.eye(N))) < 1e-11
    assert np.max(np.abs(np.linalg.matrix_power(Z, N) - np.eye(N))) < 1e-11
    assert is_phase_permutation(X) and is_phase_permutation(Z)
    Xr, Zr = ref_weyl_generators(dim)
    assert np.max(np.abs(X - Xr)) < 1e-12 and np.max(np.abs(Z - Zr)) < 1e-12


@pytest.mark.parametrize("N", [4, 9])
def test_zak_conjugation_is_exact(N):
    """The Zak basis change carries the standard generators to the monomial
    ones exactly."""
    from whsic.weyl import standard_generators
    dim = Dimension(N)
    V = zak_matrix(dim)
    Xs, Zs = standard_generators(dim)
    Xm, Zm = monomial_weyl_generators(dim)
    assert np.max(np.abs(V.conj().T @ Xs @ V - Xm)) < 1e-12
    assert np.max(np.abs(V.conj().T @ Zs @ V - Zm)) < 1e-12


@pytest.mark.parametrize("N", SQUARES)
def test_monomial_clifford_phase_permutation_and_covariance(N):
    dim = Dimension(N)
    rng = np.random.default_rng(N)
    X, Z = monomial_weyl_generators(dim)
    D = all_displacements(dim, X, Z)
    for _ in range(12):
        G = random_symplectic(dim, rng)
        U = monomial_clifford(G, dim)
        assert is_phase_permutation(U, 1e-10)
        assert conjugation_check_batched(G, dim, U, D) < 1e-9
        assert covariance_witness(G, U, displacements(dim, X, Z)) is None
        assert np.max(np.abs(U - ref_clifford(G, dim))) < 1e-12


@pytest.mark.parametrize("N", SQUARES)
def test_monomial_zauner_cubes_to_identity(N):
    dim = Dimension(N)
    U = monomial_zauner(dim)
    assert np.max(np.abs(U @ U @ U - np.eye(N))) < 1e-10
    assert is_phase_permutation(U)
    assert np.max(np.abs(U - ref_zauner(dim))) < 1e-12
    # it represents the Zauner symplectic up to phase
    X, Z = monomial_weyl_generators(dim)
    D = all_displacements(dim, X, Z)
    assert conjugation_check_batched(ZAUNER, dim, U, D) < 1e-9


@pytest.mark.parametrize("N", SQUARES)
def test_conjugation_check_rejects_another_symplectic(N):
    dim = Dimension(N)
    rng = np.random.default_rng(N)
    U = monomial_zauner(dim)
    X, Z = monomial_weyl_generators(dim)
    D = all_displacements(dim, X, Z)
    G = random_symplectic(dim, rng)
    while G.reduced(N) == ZAUNER.reduced(N):
        G = random_symplectic(dim, rng)
    assert conjugation_check_batched(G, dim, U, D) > 1
    # the exact check rejects it too, at the first failure the dense oracle
    # finds
    ij = covariance_witness(G, monomial_clifford(ZAUNER, dim),
                            displacements(dim, X, Z))
    assert ij is not None
    assert ij == first_dense_failure(G, dim, U, D)


@pytest.mark.parametrize("N", SQUARES)
def test_covariance_witness_catches_one_flipped_exponent(N):
    dim = Dimension(N)
    rng = np.random.default_rng(N + 3)
    X, Z = monomial_weyl_generators(dim)
    D = displacements(dim, X, Z)
    for _ in range(5):
        G = random_symplectic(dim, rng)
        U = monomial_clifford(G, dim)
        v = int(rng.integers(N))
        flipped = PhasePermutation(dim, U.image, U.expo + (np.arange(N) == v))
        ij = covariance_witness(G, flipped, D)
        assert ij is not None
        assert ij == first_dense_failure(G, dim, flipped, D.dense())

def reference_check(G, dim, U, D):
    """conjugation_check_batched one displacement at a time, by dense
    products and without chunks."""
    N, U = dim.N, np.asarray(U)
    table, worst = tau_table(dim), 0.0
    for k in range(N * N):
        conj = U @ D[k] @ U.conj().T
        ip, jp = G.apply(*divmod(k, N), N)
        tgt = D[ip * N + jp]
        ph = np.vdot(tgt, conj) / N
        snapped = table[np.argmin(np.abs(table - ph))]
        worst = max(worst, float(np.abs(conj - snapped * tgt).max()))
    return worst


@pytest.mark.parametrize("N", SQUARES)
def test_phase_permutation_conjugate_matches_dense_products(N):
    dim = Dimension(N)
    rng = np.random.default_rng(N + 11)
    D = all_displacements(dim, *monomial_weyl_generators(dim))
    M = rng.standard_normal((3, N, N)) + 1j * rng.standard_normal((3, N, N))
    for _ in range(5):
        U = monomial_clifford(random_symplectic(dim, rng), dim)
        Ud = U.dense()
        for stack in (D, M, M[0]):
            assert np.abs(U.conjugate(stack) - Ud @ stack @ Ud.conj().T).max() < 1e-14


@pytest.mark.parametrize("N", SQUARES)
def test_conjugation_check_gather_agrees_with_dense_path(N):
    """The gather path for a PhasePermutation, the dense path for its
    matrix and an unchunked loop give one residual, on the true stack, on a
    noisy one (so every displacement has its own residual) and for a U with
    one flipped exponent."""
    dim = Dimension(N)
    rng = np.random.default_rng(N + 13)
    D = all_displacements(dim, *monomial_weyl_generators(dim))
    noisy = D + 1e-3 * (rng.standard_normal(D.shape)
                        + 1j * rng.standard_normal(D.shape))
    for _ in range(3):
        G = random_symplectic(dim, rng)
        U = monomial_clifford(G, dim)
        v = int(rng.integers(N))
        flipped = PhasePermutation(dim, U.image, U.expo + (np.arange(N) == v))
        for op, stack in ((U, D), (U, noisy), (flipped, D)):
            fast = conjugation_check_batched(G, dim, op, stack)
            assert abs(fast - conjugation_check_batched(
                G, dim, np.asarray(op), stack)) < 1e-14
            assert abs(fast - reference_check(G, dim, op, stack)) < 1e-14
        assert conjugation_check_batched(G, dim, U, D) < 1e-9
        assert conjugation_check_batched(G, dim, flipped, D) > 1


@pytest.mark.parametrize("N", SQUARES)
def test_stabilized_abelian_subgroup(N):
    dim = Dimension(N)
    rng = np.random.default_rng(N + 7)
    for _ in range(5):
        G = random_symplectic(dim, rng)
        assert stabilized_abelian_check(G, dim) is None


def test_monomial_antiunitary_respects_norm():
    dim = Dimension(9)
    rng = np.random.default_rng(3)
    v = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    v /= np.linalg.norm(v)
    w = monomial_antiunitary(dim, v)
    assert abs(np.linalg.norm(w) - 1) < 1e-12
    for r in range(3):
        for s in range(3):
            assert w[flatten(-r, s, 3)] == np.conj(v[flatten(r, s, 3)])


def test_non_square_rejected():
    with pytest.raises(NotSquare):
        monomial_weyl_generators(Dimension(6))
    with pytest.raises(NotSquare):
        Dimension(5).half_shift
    with pytest.raises(NotSquare):
        sigma_power(Dimension(5), 1)


# ---------------------------------------------------------------------------
# orbits and the square-dimension criterion
# ---------------------------------------------------------------------------

@given(N=st.integers(2, 12), v0=st.integers(0, 11), v1=st.integers(0, 11))
@settings(max_examples=50, deadline=None)
def test_orbits_are_constant_order_classes(N, v0, v1):
    dim = Dimension(N)
    v = (v0 % N, v1 % N)
    rep = sl2_orbit(dim, v)
    k = vector_order(v, N)
    assert rep.order == k
    assert all(vector_order(w, N) == k for w in rep.members)
    # every witness actually maps v to its member
    for w, S in rep.witness_maps.items():
        assert S.apply(v[0], v[1], N) == w
        assert S.det() % N == 1


@pytest.mark.parametrize("N", range(2, 37))
def test_invariant_subgroup_exists_iff_square(N):
    dim = Dimension(N)
    V = invariant_subgroup(dim, brute_force=True)
    if dim.is_square:
        assert V is not None and len(V) == N
        assert V == invariant_subgroup(dim)
    else:
        assert V is None
