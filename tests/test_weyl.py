"""Exact group arithmetic for H(N) against dense matrices."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from whsic.dims import (Dimension, PhasePermutation, mod_inverse, tau_power,
                        tau_powers, tau_table)
from whsic.errors import NotCoprime, NotOrthonormal
from whsic.monomial import is_phase_permutation, monomial_weyl_generators
from whsic.weyl import (all_displacements, displacement, displacements,
                        standard_generators)

from oracles import (GroupElement, canonicalize, compose, element_matrix,
                     element_order, inverse, iterated_powers)

DIMS = st.integers(min_value=1, max_value=12)
EPS = np.finfo(float).eps


def random_element(rng, dim):
    return GroupElement(int(rng.integers(0, dim.nbar)),
                        int(rng.integers(0, dim.N)),
                        int(rng.integers(0, dim.N)))


@pytest.mark.parametrize("N", [2, 3, 4, 5, 6, 7, 8])
def test_compose_matches_dense_matrices(N):
    dim = Dimension(N)
    rng = np.random.default_rng(N)
    for _ in range(40):
        g1, g2 = random_element(rng, dim), random_element(rng, dim)
        prod = compose(g1, g2, dim)
        lhs = element_matrix(g1, dim) @ element_matrix(g2, dim)
        assert np.max(np.abs(lhs - element_matrix(prod, dim))) < 1e-12


@pytest.mark.parametrize("N", [2, 3, 4, 5, 6])
def test_fold_phases_exhaustive(N):
    """D_{i+N,j} = tau^{Nj} D_ij and D_{i,j+N} = tau^{Ni} D_ij, densely."""
    dim = Dimension(N)
    for i in range(N):
        for j in range(N):
            D = element_matrix(GroupElement(0, i, j), dim)
            g1 = canonicalize(GroupElement(0, i + N, j), dim)
            g2 = canonicalize(GroupElement(0, i, j + N), dim)
            assert np.max(np.abs(element_matrix(g1, dim)
                                 - tau_power(dim, N * j) * D)) < 1e-12
            assert np.max(np.abs(element_matrix(g2, dim)
                                 - tau_power(dim, N * i) * D)) < 1e-12


@given(N=DIMS, k=st.integers(-50, 50), i=st.integers(-50, 50), j=st.integers(-50, 50))
def test_canonicalize_idempotent(N, k, i, j):
    dim = Dimension(N)
    g = canonicalize(GroupElement(k, i, j), dim)
    assert canonicalize(g, dim) == g
    assert 0 <= g.k < dim.nbar and 0 <= g.i < N and 0 <= g.j < N


@given(N=st.integers(2, 10), data=st.data())
@settings(max_examples=60)
def test_inverse_and_associativity(N, data):
    dim = Dimension(N)
    pick = lambda: GroupElement(data.draw(st.integers(0, dim.nbar - 1)),
                                data.draw(st.integers(0, N - 1)),
                                data.draw(st.integers(0, N - 1)))
    g, h, f = pick(), pick(), pick()
    assert compose(g, inverse(g, dim), dim) == GroupElement(0, 0, 0)
    assert compose(inverse(g, dim), g, dim) == GroupElement(0, 0, 0)
    assert compose(compose(g, h, dim), f, dim) == compose(g, compose(h, f, dim), dim)


def test_element_order_divides_group_exponent():
    dim = Dimension(6)
    rng = np.random.default_rng(0)
    for _ in range(25):
        g = random_element(rng, dim)
        m = element_order(g, dim)
        M = element_matrix(g, dim)
        assert np.max(np.abs(np.linalg.matrix_power(M, m) - np.eye(6))) < 1e-10


def test_generators_commutation():
    for N in range(2, 10):
        dim = Dimension(N)
        X, Z = standard_generators(dim)
        omega = np.exp(2j * np.pi / N)
        assert is_phase_permutation(X) and is_phase_permutation(Z)
        assert np.array_equal(X, np.roll(np.eye(N), 1, axis=0))
        assert np.max(np.abs(Z - np.diag(omega ** np.arange(N)))) < 1e-12
        assert np.max(np.abs(Z @ X - omega * X @ Z)) < 1e-12
        assert np.max(np.abs(np.linalg.matrix_power(X, N) - np.eye(N))) < 1e-12


def test_displacement_phase_convention():
    # D_ij = tau^{ij} X^i Z^j entrywise for a couple of dimensions
    for N in (3, 4):
        dim = Dimension(N)
        X, Z = standard_generators(dim)
        for i in range(N):
            for j in range(N):
                expect = tau_power(dim, i * j) * (
                    np.linalg.matrix_power(X, i) @ np.linalg.matrix_power(Z, j))
                D = element_matrix(GroupElement(0, i, j), dim)
                assert np.max(np.abs(D - expect)) < 1e-12


@given(N=st.integers(1, 30), k=st.integers(-200, 200))
def test_one_phase_path_is_exact(N, k):
    dim = Dimension(N)
    assert tau_table(dim)[k % dim.nbar] == tau_power(dim, k)
    assert tau_powers(dim, [k])[0] == tau_power(dim, k)


def test_tau_table_is_shared_read_only_and_bit_identical():
    """The cached table is the uncached scalar build of its nbar entries,
    bit for bit, and no caller can write into it."""
    for N in range(1, 65):
        dim = Dimension(N)
        table = tau_table(dim)
        assert len(table) == dim.nbar
        assert table is tau_table(Dimension(N))
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0] = 0
        rebuilt = np.fromiter((tau_power(dim, k) for k in range(dim.nbar)),
                              dtype=complex, count=dim.nbar)
        assert np.array_equal(table, rebuilt)


def test_tau_power_matches_numpy_scalar_exp():
    """`tau_power` evaluates exp with `cmath`; its table keeps the bits of
    numpy's scalar exp, which the seeded searches were run on."""
    for N in range(1, 301):
        m = np.arange(Dimension(N).nbar) * (N + 1) % (2 * N)
        expect = [complex(np.exp(1j * np.pi * int(x) / N)) for x in m]
        assert np.array_equal(tau_table(Dimension(N)).view(np.uint64),
                              np.array(expect).view(np.uint64)), N


@pytest.mark.parametrize("N, generators",
                         [(N, "standard") for N in range(1, 41)]
                         + [(n * n, "monomial") for n in range(1, 8)])
def test_doubled_powers_match_iterated_powers(N, generators):
    """`displacements` builds the powers of X and Z by doubling; its stack
    equals the one from N - 1 single products in every integer."""
    dim = Dimension(N)
    X, Z = (standard_generators(dim) if generators == "standard"
            else monomial_weyl_generators(dim))
    D = displacements(dim, X, Z)
    XZ = iterated_powers(X) @ iterated_powers(Z)
    ij = np.multiply.outer(np.arange(N), np.arange(N))[..., None]
    expect = PhasePermutation(dim, XZ.image, XZ.expo + ij)
    assert np.array_equal(D.image, expect.image.reshape(N * N, N))
    assert np.array_equal(D.expo, expect.expo.reshape(N * N, N))


@pytest.mark.parametrize("N, generators",
                         [(N, "standard") for N in range(1, 41)]
                         + [(n * n, "monomial") for n in range(1, 8)])
def test_single_displacement_is_its_stack_row(N, generators):
    """`displacement` by squaring equals row i*N + j of `displacements`,
    image and exponent, for every (i, j)."""
    dim = Dimension(N)
    X, Z = (standard_generators(dim) if generators == "standard"
            else monomial_weyl_generators(dim))
    D = displacements(dim, X, Z)
    for k in range(N * N):
        Dk = displacement(X, Z, *divmod(k, N))
        assert np.array_equal(Dk.image, D.image[k]), k
        assert np.array_equal(Dk.expo, D.expo[k]), k


@pytest.mark.parametrize("N", range(1, 13))
def test_standard_stack_matches_generator_stack(N):
    dim = Dimension(N)
    D = all_displacements(dim)
    assert np.array_equal(D, all_displacements(dim, *standard_generators(dim)))
    # and every bit of the closed form tau^{ij + 2jv} at (v + i, v)
    closed = [element_matrix(GroupElement(0, i, j), dim)
              for i in range(N) for j in range(N)]
    assert np.array_equal(D, np.array(closed))


@pytest.mark.parametrize("N", [30, 60, 120])
def test_generator_stack_is_the_closed_form(N):
    """D_ij|v> = tau^{ij + 2jv}|v + i>, exactly, in dimensions past the
    dense comparison above."""
    dim = Dimension(N)
    D = displacements(dim)
    i, j = (x[:, None] for x in np.divmod(np.arange(N * N), N))
    v = np.arange(N)
    assert np.array_equal(D.image, (v + i) % N)
    assert np.array_equal(D.expo, (i * j + 2 * j * v) % dim.nbar)


@st.composite
def phase_permutations(draw, N):
    dim = Dimension(N)
    image = np.array(draw(st.permutations(range(N))))
    expo = np.array(draw(st.lists(st.integers(-100, 100), min_size=N,
                                  max_size=N)))
    return PhasePermutation(dim, image, expo)


@given(data=st.data(), N=st.integers(1, 30))
@settings(max_examples=60, deadline=None)
def test_phase_permutation_composes_like_its_matrices(data, N):
    A = data.draw(phase_permutations(N))
    B = data.draw(phase_permutations(N))
    assert np.all((0 <= A.expo) & (A.expo < Dimension(N).nbar))
    # each of tau^a, tau^b and tau^{a+b} carries the rounding of its
    # argument pi m/N < 2 pi, up to 2 pi eps, and the product a few eps more
    assert np.max(np.abs((A @ B).dense() - A.dense() @ B.dense())) <= 16 * EPS
    assert np.array_equal(np.asarray(A), A.dense())
    assert is_phase_permutation(A)


@pytest.mark.parametrize("image", [[0, 0, 1], [0, 1, 3], [-1, 1, 2], [0, 1],
                                   [0, 1, 2, 0], [[0, 1, 2], [2, 2, 0]],
                                   0, [-1, 1, 3]])
def test_phase_permutation_refuses_a_non_permutation_image(image):
    """A repeated entry ([0, 0, 1] would put two entries in row 0 and none
    in row 2), entries outside 0..N-1 (-1 and N, alone and in one row),
    rows of another length (N - 1 and N + 1), one bad row in a stack and a
    0-d image."""
    with pytest.raises(NotOrthonormal, match="permutation"):
        PhasePermutation(Dimension(3), image, np.zeros(np.shape(image), int))


@pytest.mark.parametrize("image", [np.int64(0), np.zeros((1, 0), int),
                                   np.zeros((2, 2), int)])
def test_phase_permutation_checks_the_shape_before_indexing(image):
    """At N = 1 a 0-d image, an empty row and rows of length 2 are refused
    by the shape check, not by a numpy error from the index."""
    with pytest.raises(NotOrthonormal, match="permutation"):
        PhasePermutation(Dimension(1), image, 0)


@pytest.mark.parametrize("N", [2, 5, 9])
def test_phase_permutation_refuses_one_repeated_entry_in_a_stack(N):
    """The N^2 x N displacement stack passes the public constructor; with
    one entry of one row copied from its neighbour it is refused."""
    D = displacements(Dimension(N))
    PhasePermutation(D.dim, D.image, D.expo)
    image = D.image.copy()
    image[N + 1, -1] = image[N + 1, 0]
    with pytest.raises(NotOrthonormal):
        PhasePermutation(D.dim, image, D.expo)


@given(N=st.integers(1, 30), data=st.data())
@settings(max_examples=60, deadline=None)
def test_displacement_stack_obeys_composition_law_exactly(N, data):
    """D_ij D_lm = tau^{lj - im} D_{i+l, j+m} on the exact stacks, standard
    and (square N) monomial, with the phase from oracles.compose."""
    dim = Dimension(N)
    ints = st.integers(0, N - 1)
    i, j, l, m = (data.draw(ints) for _ in range(4))
    g = compose(GroupElement(0, i, j), GroupElement(0, l, m), dim)
    stacks = [displacements(dim)]
    if dim.n is not None:
        stacks.append(displacements(dim, *monomial_weyl_generators(dim)))
    for D in stacks:
        row = lambda k, e=0: PhasePermutation(dim, D.image[k], D.expo[k] + e)
        prod = row(i * N + j) @ row(l * N + m)
        want = row(g.i * N + g.j, g.k)
        assert np.array_equal(prod.image, want.image)
        assert np.array_equal(prod.expo, want.expo)


@given(a=st.integers(-30, 30), m=st.integers(2, 40))
def test_mod_inverse(a, m):
    import math
    if math.gcd(a, m) == 1:
        assert (mod_inverse(a, m) * a) % m == 1 % m
    else:
        with pytest.raises(NotCoprime):
            mod_inverse(a, m)


@pytest.mark.parametrize("N", [0, -1])
def test_dimension_refuses_a_non_positive_n(N):
    with pytest.raises(ValueError, match=f"dimension must be positive, got {N}"):
        Dimension(N)


def test_records_take_no_assignment():
    """The records are NamedTuples: a field cannot be set after `__new__`
    has checked it."""
    from whsic.clifford import SymplecticMatrix
    from whsic.sic import SicCertificate
    for record, field in [(Dimension(4), "N"),
                          (SymplecticMatrix(1, 0, 0, 1), "alpha"),
                          (SicCertificate(0.0, True, (0, 1)), "passed")]:
        with pytest.raises(AttributeError):
            setattr(record, field, 0)
        assert getattr(record, field) != 0
