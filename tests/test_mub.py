"""Latin-square unbiased bases in square dimensions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from whsic.dims import Dimension, flatten, require_square, sigma_power
from whsic.errors import (DimensionMismatch, NotOrthonormal, NotPrime,
                          NotSquare)
from whsic.monomial import monomial_weyl_generators
from whsic.mub import (Basis, cyclic_latin_square, eigenbasis_infinity,
                       eigenbasis_zero, is_unbiased, latin_basis,
                       prime_family, unbiased_witness)

from oracles import gram_deviation, latin_vectors, overlap_deviation


def square_basis(lam, label="latin"):
    """The Latin basis of lam with every b = 0 exponent 0."""
    n = len(lam)
    return latin_basis(Dimension(n * n), lam, np.zeros((n, n), dtype=int),
                       label)


def witnesses_to_eigenbases(C):
    return [unbiased_witness(C, E(C.dim))
            for E in (eigenbasis_zero, eigenbasis_infinity)]


# ---------------------------------------------------------------------------
# Latin squares: lines that meet once
# ---------------------------------------------------------------------------

def test_cyclic_square_latin_iff_coprime():
    """The lines r -> (r, a + kr) meet each line of the Z eigenbasis once
    exactly when k is a unit mod n, and each of the X eigenbasis always."""
    assert witnesses_to_eigenbases(square_basis(cyclic_latin_square(5, 2))) \
        == [None, None]
    assert witnesses_to_eigenbases(square_basis(cyclic_latin_square(4, 1))) \
        == [None, None]
    # a + 2r meets the line of a twice, at r and r + 2
    assert witnesses_to_eigenbases(square_basis(cyclic_latin_square(4, 2))) \
        == [(0, 0, 2), None]


def test_is_latin_needs_an_n_by_n_square_over_z_n():
    """Rows that permute Z_n make the lines partition the grid; columns
    that permute it make them meet the Z eigenbasis once. Entries are
    read mod n."""
    transposed = np.transpose(cyclic_latin_square(3, 1))
    assert witnesses_to_eigenbases(square_basis(transposed)) == [None, None]
    with pytest.raises(NotOrthonormal, match="do not partition"):
        square_basis(np.array([[0, 0], [1, 1]]))  # rows repeat
    columns_repeat = square_basis(np.array([[0, 1], [0, 1]]))
    assert witnesses_to_eigenbases(columns_repeat) == [(0, 0, 2), None]
    # lines that miss each other are a witness too
    misses = square_basis(np.array([[1, 0], [1, 0]]))
    assert witnesses_to_eigenbases(misses) == [(0, 0, 0), None]
    wrapped = square_basis(np.array([[0, 3], [1, 2]]))
    assert np.array_equal(wrapped.lines,
                          square_basis(cyclic_latin_square(2, 1)).lines)
    with pytest.raises(DimensionMismatch):
        square_basis(np.array([[0, 1, 2], [1, 2, 0]]))
    with pytest.raises(DimensionMismatch):
        latin_basis(Dimension(9), np.zeros(3, dtype=int),
                    np.zeros((3, 3), dtype=int))


def test_mols_cyclic_family_prime():
    """The bases of a + kr and a + k'r, k != k' units, are unbiased: their
    lines meet where (k - k') r = a' - a, once."""
    for p in (3, 5, 7):
        bases = [square_basis(cyclic_latin_square(p, k)) for k in range(1, p)]
        for i, A in enumerate(bases):
            for B in bases[i + 1:]:
                assert unbiased_witness(A, B) is None
                assert is_unbiased(A, B).passed


def test_mols_identical_squares_fail():
    """A copied basis: its lines (0, 0) meet n times."""
    sq = cyclic_latin_square(3, 1)
    assert unbiased_witness(square_basis(sq), square_basis(sq, "copy")) \
        == (0, 0, 3)
    B = prime_family(5)[3]
    copy = Basis(*B[:-1], "copy")
    assert unbiased_witness(B, copy) == (0, 0, 5)
    # `vectors` is cached on each instance, not shared with its copy
    assert B.vectors is B.vectors and copy.vectors is not B.vectors


def test_mols_single_square_vacuous():
    """One square gives one basis, and the eigenbases are its only pairs:
    at composite n = 4 too, a Latin square completes a triple."""
    C = square_basis(cyclic_latin_square(4, 1))
    assert witnesses_to_eigenbases(C) == [None, None]
    for E in (eigenbasis_zero, eigenbasis_infinity):
        assert is_unbiased(C, E(C.dim)).passed


def test_mols_rejects_a_non_orthogonal_pair_and_mixed_orders():
    # a + r and a + 3r mod 4 meet where 2r = 0, at r = 0 and 2
    assert unbiased_witness(square_basis(cyclic_latin_square(4, 1)),
                            square_basis(cyclic_latin_square(4, 3))) \
        == (0, 0, 2)
    # a + r and 2a + r superpose to every symbol pair, yet the line a = 0
    # of each is the diagonal {(r, r)}: the same vectors, biased by 8/9
    A = square_basis(cyclic_latin_square(3, 1))
    B = square_basis(np.array([[0, 2, 1], [1, 0, 2], [2, 1, 0]]))
    assert unbiased_witness(A, B) == (0, 0, 3)
    assert abs(is_unbiased(A, B).max_abs_deviation - 8 / 9) < 1e-12
    with pytest.raises(DimensionMismatch):
        unbiased_witness(square_basis(cyclic_latin_square(3, 1)),
                         square_basis(cyclic_latin_square(5, 1)))


def test_mols_rejects_non_latin():
    """A square whose column 0 repeats 0 meets the Z eigenbasis line 0
    twice; the X eigenbasis does not see it."""
    C = square_basis(np.array([[0, 1, 2], [0, 2, 1], [1, 0, 2]]))
    assert witnesses_to_eigenbases(C) == [(0, 0, 2), None]
    assert not is_unbiased(C, eigenbasis_zero(C.dim)).passed


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
    assert gram_deviation(A.vectors)[0] < 1e-12
    assert gram_deviation(B.vectors)[0] < 1e-12
    assert unbiased_witness(A, B) is None
    assert is_unbiased(A, B).passed


# ---------------------------------------------------------------------------
# Latin bases
# ---------------------------------------------------------------------------

def test_n4_third_basis_completes_triple():
    """lam(r,a) = a + r with arbitrary tau exponents: orthonormal and
    unbiased to both eigenbases, exactly and in float."""
    dim = Dimension(4)
    C = latin_basis(dim, cyclic_latin_square(2, 1), np.array([[1, 5], [9, 14]]))
    assert gram_deviation(C.vectors)[0] < 1e-12
    assert witnesses_to_eigenbases(C) == [None, None]
    for other in (eigenbasis_zero(dim), eigenbasis_infinity(dim)):
        rep = is_unbiased(C, other)
        assert rep.passed and rep.max_abs_deviation < 1e-12


def test_non_latin_square_breaks_unbiasedness():
    """Constant-column lam(r,a) = a keeps orthonormality but its lines are
    those of the Z eigenbasis, so unbiasedness to it fails badly."""
    dim = Dimension(4)
    C = square_basis(np.array([[0, 1], [0, 1]]))
    assert gram_deviation(C.vectors)[0] < 1e-12
    assert unbiased_witness(C, eigenbasis_zero(dim)) == (0, 0, 2)
    rep = is_unbiased(C, eigenbasis_zero(dim))
    assert not rep.passed
    assert rep.max_abs_deviation > 0.1


def test_gram_deviation_names_the_first_worst_pair():
    """The oracle that stands in for the Gram check of a basis."""
    V = np.eye(4, dtype=complex)
    V[:, 2] = V[:, 1]
    assert gram_deviation(V) == (1.0, (1, 2))


def test_latin_basis_rejects_bad_inputs():
    dim = Dimension(4)
    lam = cyclic_latin_square(2, 1)
    zero = np.zeros((2, 2), dtype=int)
    with pytest.raises(NotOrthonormal, match="do not partition"):
        latin_basis(dim, np.array([[1, 1], [0, 0]]), zero)
    lines = latin_basis(dim, lam, zero).lines
    # at N = 4, tau has order 8: tau^12 = tau^4 has order n = 2, as has the
    # tau^-4 of latin_basis; tau^0 and tau^8 have order 1, tau^2 and tau^6
    # order 4, and tau order 8
    assert Basis(dim, lines, zero, 12, "step 12").fourier == 12
    for step in (0, 8, 2, 6, 1):
        with pytest.raises(NotOrthonormal, match="has order"):
            Basis(dim, lines, zero, step, "bad step")
    with pytest.raises(DimensionMismatch):
        latin_basis(dim, lam, np.zeros((2, 3), dtype=int))
    with pytest.raises(DimensionMismatch):
        latin_basis(Dimension(9), lam, zero)
    with pytest.raises(NotSquare):
        eigenbasis_zero(Dimension(6))


def test_is_unbiased_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        is_unbiased(eigenbasis_zero(Dimension(4)), eigenbasis_zero(Dimension(9)))


def fourier_phases(n, theta, chi):
    """Orthonormal phase table phases[r,a,b] = theta[r,a] sigma^{br} chi[a,b]."""
    dim = Dimension(n * n)
    out = np.empty((n, n, n), dtype=complex)
    for r in range(n):
        for a in range(n):
            for b in range(n):
                out[r, a, b] = theta[r, a] * sigma_power(dim, b * r) * chi[a, b]
    return out


@given(n=st.sampled_from([2, 3]), seed=st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_any_latin_square_any_phases_is_unbiased(n, seed):
    """Unbiasedness to both eigenbases depends only on the Latin property,
    never on the choice of unit phases: any float phases in the dense
    builder, any tau exponents in `latin_basis`."""
    rng = np.random.default_rng(seed)
    dim = Dimension(n * n)
    ks = [k for k in range(1, n) if np.gcd(k, n) == 1] or [1]
    lam = cyclic_latin_square(n, int(rng.choice(ks)))
    theta = np.exp(2j * np.pi * rng.random((n, n)))
    chi = np.exp(2j * np.pi * rng.random((n, n)))
    V = latin_vectors(dim, lam, fourier_phases(n, theta, chi))
    assert gram_deviation(V)[0] < 1e-12
    C = latin_basis(dim, lam, rng.integers(-4 * dim.N, 4 * dim.N, (n, n)))
    assert witnesses_to_eigenbases(C) == [None, None]
    for other in (eigenbasis_zero(dim), eigenbasis_infinity(dim)):
        assert overlap_deviation(V, other.vectors) < 1e-10
        rep = is_unbiased(C, other)
        assert rep.passed, rep.max_abs_deviation


# ---------------------------------------------------------------------------
# the full prime-power family
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_prime_family_complete(p):
    """The exact certificates agree with the float oracles: each basis
    passes the Gram check, and each pair has no witness and is unbiased
    in float."""
    bases = prime_family(p)
    assert len(bases) == p + 1
    for B in bases:
        assert gram_deviation(B.vectors)[0] < 1e-10
    for i in range(len(bases)):
        for j in range(i + 1, len(bases)):
            assert unbiased_witness(bases[i], bases[j]) is None
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
        ref = latin_vectors(dim, cyclic_latin_square(p, k), phases)
        assert np.max(np.abs(bases[1 + k].vectors - ref)) < 1e-12


def test_prime_family_rejects_composite():
    with pytest.raises(NotPrime):
        prime_family(4)
    with pytest.raises(NotPrime):
        prime_family(1)


def entanglement_check(basis: Basis) -> float:
    """Each Latin basis vector is maximally entangled across n (x) n: the
    max deviation of the singular values of each vector's n x n coefficient
    matrix from 1/sqrt(n), 0 up to roundoff when every vector is."""
    n = require_square(basis.dim)
    sv = np.linalg.svd(basis.vectors.T.reshape(-1, n, n), compute_uv=False)
    return float(np.max(np.abs(sv - 1.0 / np.sqrt(n))))


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
