"""Latin-square unbiased bases in square dimensions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from whsic.dims import Dimension, sigma_power
from whsic.errors import (DimensionMismatch, NotLatin, NotOrthonormal,
                          NotPrime, NotSquare)
from whsic.monomial import flatten, monomial_weyl_generators
from whsic.mub import (Basis, LatinSquare, cyclic_latin_square,
                       eigenbasis_infinity, eigenbasis_zero,
                       entanglement_check, is_unbiased, latin_basis,
                       mols_check, prime_family)


# ---------------------------------------------------------------------------
# Latin squares
# ---------------------------------------------------------------------------

def test_cyclic_square_latin_iff_coprime():
    assert cyclic_latin_square(5, 2).is_latin()
    assert cyclic_latin_square(4, 1).is_latin()
    assert not cyclic_latin_square(4, 2).is_latin()


def test_from_array_reduces_mod_n():
    sq = LatinSquare.from_array([[0, 5], [1, 4]])
    assert sq.cells == ((0, 1), (1, 0))
    assert sq.is_latin()


def test_mols_cyclic_family_prime():
    for p in (3, 5, 7):
        squares = [cyclic_latin_square(p, k) for k in range(1, p)]
        assert mols_check(squares)


def test_mols_identical_squares_fail():
    sq = cyclic_latin_square(3, 1)
    assert not mols_check([sq, sq])


def test_mols_single_square_vacuous():
    assert mols_check([cyclic_latin_square(4, 1)])


def test_mols_rejects_non_latin():
    bad = LatinSquare.from_array(np.zeros((3, 3), dtype=int))
    with pytest.raises(NotLatin):
        mols_check([bad])


# ---------------------------------------------------------------------------
# eigenbases
# ---------------------------------------------------------------------------

def test_eigenbasis_zero_n2_vectors():
    V = eigenbasis_zero(Dimension(4)).vectors
    s = 1 / np.sqrt(2)
    # |0>_0 = (|0,0> + |1,0>)/sqrt2,  |2>_0 = (|0,0> - |1,0>)/sqrt2
    assert np.max(np.abs(V[:, 0] - np.array([s, 0, s, 0]))) < 1e-12
    assert np.max(np.abs(V[:, 2] - np.array([s, 0, -s, 0]))) < 1e-12


def test_eigenbasis_infinity_n2_vector():
    V = eigenbasis_infinity(Dimension(4)).vectors
    s = 1 / np.sqrt(2)
    # |1>_inf = (|1,0> - i|1,1>)/sqrt2
    assert np.max(np.abs(V[:, 1] - np.array([0, 0, s, -1j * s]))) < 1e-12


@pytest.mark.parametrize("N", [4, 9, 25])
def test_eigenbases_diagonalize_generators(N):
    dim = Dimension(N)
    X, Z = monomial_weyl_generators(dim)
    omega = np.exp(2j * np.pi / N)
    ev = np.diag(omega ** np.arange(N))
    V0 = eigenbasis_zero(dim).vectors
    Vinf = eigenbasis_infinity(dim).vectors
    assert np.max(np.abs(Z @ V0 - V0 @ ev)) < 1e-12
    assert np.max(np.abs(X @ Vinf - Vinf @ ev)) < 1e-12


@pytest.mark.parametrize("N", [4, 9])
def test_eigenbases_orthonormal_and_mutually_unbiased(N):
    dim = Dimension(N)
    A = eigenbasis_zero(dim)
    B = eigenbasis_infinity(dim)
    assert A.gram_deviation() < 1e-12
    assert B.gram_deviation() < 1e-12
    assert is_unbiased(A, B).passed


# ---------------------------------------------------------------------------
# Latin bases
# ---------------------------------------------------------------------------

def fourier_phases(n, theta, chi):
    """Orthonormal phase table phases[r,a,b] = theta[r,a] sigma^{br} chi[a,b]."""
    dim = Dimension(n * n)
    out = np.empty((n, n, n), dtype=complex)
    for r in range(n):
        for a in range(n):
            for b in range(n):
                out[r, a, b] = theta[r, a] * sigma_power(dim, b * r) * chi[a, b]
    return out


def test_n4_third_basis_completes_triple():
    """lam(r,a) = a + r with phases theta satisfying the two orthogonality
    relations 1 + theta[0]conj(theta[2]) = 0, 1 + theta[1]conj(theta[3]) = 0
    (here arranged as a sign flip on the r = 1 row for b = 1)."""
    dim = Dimension(4)
    lam = cyclic_latin_square(2, 1)
    theta = np.exp(1j * np.array([[0.3, 1.1], [2.0, -0.4]]))
    phases = fourier_phases(2, theta, np.ones((2, 2)))
    C = latin_basis(dim, lam, phases)
    assert C.gram_deviation() < 1e-12
    for other in (eigenbasis_zero(dim), eigenbasis_infinity(dim)):
        rep = is_unbiased(C, other)
        assert rep.passed and rep.max_abs_deviation < 1e-12


def test_non_latin_square_breaks_unbiasedness():
    """Constant-column lam(r,a) = a keeps orthonormality but the vectors are
    eigenbasis-aligned, so unbiasedness to the Z eigenbasis fails badly."""
    dim = Dimension(4)
    lam = LatinSquare.from_array([[0, 1], [0, 1]])
    assert not lam.is_latin()
    phases = fourier_phases(2, np.ones((2, 2)), np.ones((2, 2)))
    C = latin_basis(dim, lam, phases)
    rep = is_unbiased(C, eigenbasis_zero(dim))
    assert not rep.passed
    assert rep.max_abs_deviation > 0.1


def test_latin_basis_rejects_bad_inputs():
    dim = Dimension(4)
    lam = cyclic_latin_square(2, 1)
    with pytest.raises(NotOrthonormal):
        latin_basis(dim, lam, np.ones((2, 2, 2), dtype=complex))
    with pytest.raises(ValueError):
        latin_basis(dim, lam, 2.0 * fourier_phases(2, np.ones((2, 2)),
                                                   np.ones((2, 2))))
    with pytest.raises(DimensionMismatch):
        latin_basis(Dimension(9), lam, np.ones((2, 2, 2), dtype=complex))
    with pytest.raises(NotSquare):
        eigenbasis_zero(Dimension(6))


def test_is_unbiased_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        is_unbiased(eigenbasis_zero(Dimension(4)), eigenbasis_zero(Dimension(9)))


@given(n=st.sampled_from([2, 3]), seed=st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_any_latin_square_any_phases_is_unbiased(n, seed):
    """Unbiasedness to both eigenbases depends only on the Latin property,
    never on the choice of unit phases."""
    rng = np.random.default_rng(seed)
    dim = Dimension(n * n)
    ks = [k for k in range(1, n) if np.gcd(k, n) == 1] or [1]
    lam = cyclic_latin_square(n, int(rng.choice(ks)))
    theta = np.exp(2j * np.pi * rng.random((n, n)))
    chi = np.exp(2j * np.pi * rng.random((n, n)))
    C = latin_basis(dim, lam, fourier_phases(n, theta, chi))
    for other in (eigenbasis_zero(dim), eigenbasis_infinity(dim)):
        rep = is_unbiased(C, other)
        assert rep.passed, rep.max_abs_deviation


# ---------------------------------------------------------------------------
# the full prime-power family
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p", [2, 3, 5])
def test_prime_family_complete(p):
    bases = prime_family(p)
    assert len(bases) == p + 1
    for B in bases:
        assert B.gram_deviation() < 1e-10
    for i in range(len(bases)):
        for j in range(i + 1, len(bases)):
            rep = is_unbiased(bases[i], bases[j])
            assert rep.passed, (i, j, rep.max_abs_deviation)


@pytest.mark.parametrize("p", [2, 3])
def test_prime_family_latin_bases_diagonalize_cyclic_groups(p):
    dim = Dimension(p * p)
    X, Z = (P.dense() for P in monomial_weyl_generators(dim))
    bases = prime_family(p)
    for k in range(1, p):
        A = np.linalg.matrix_power(X, k) @ Z.conj().T
        V = bases[1 + k].vectors
        M = V.conj().T @ A @ V
        off = M - np.diag(np.diag(M))
        assert np.max(np.abs(off)) < 1e-10


# up to the --p cap of `verify mub`, where prime_family asserts at the
# largest p that each eigenvalue root is a tau power
@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 17, 19])
def test_prime_family_matches_dense_orbit_products(p):
    """Reference: float products of the dense entries of A = X^k Z^dag
    along each orbit, and the principal n-th root of their loop product.
    prime_family reads the same phases as exact tau exponents, the root
    included, which is a tau power because n divides the loop exponent
    (2n for odd n), so the vectors, their order included, agree to
    rounding."""
    dim = Dimension(p * p)
    X, Z = (P.dense() for P in monomial_weyl_generators(dim))
    bases = prime_family(p)
    r = np.arange(p)
    for k in range(1, p):
        A = np.linalg.matrix_power(X, k) @ Z.conj().T
        phases = np.empty((p, p, p), dtype=complex)
        for a in range(p):
            idx = flatten(r, a + k * r, p)
            steps = A[np.roll(idx, -1), idx]
            root = complex(np.prod(steps)) ** (1.0 / p)
            for b in range(p):
                mu = root * sigma_power(dim, b)
                phases[:, a, b] = np.cumprod(np.r_[1, steps[:-1]]) * mu ** -r
        ref = latin_basis(dim, cyclic_latin_square(p, k), phases)
        assert np.max(np.abs(bases[1 + k].vectors - ref.vectors)) < 1e-12


def test_prime_family_rejects_composite():
    with pytest.raises(NotPrime):
        prime_family(4)
    with pytest.raises(NotPrime):
        prime_family(1)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_prime_family_entanglement_split(p):
    """The two eigenbases are product bases across the p (x) p split; every
    Latin basis is maximally entangled."""
    bases = prime_family(p)
    # rank-1 coefficient matrices have singular values (1, 0, ..., 0)
    product_dev = max(1.0 - 1.0 / np.sqrt(p), 1.0 / np.sqrt(p))
    for B in bases[:2]:
        assert abs(entanglement_check(B) - product_dev) < 1e-10
    for B in bases[2:]:
        assert entanglement_check(B) < 1e-10
