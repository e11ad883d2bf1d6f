"""Metaplectic representation, order-3 symmetry, and the even-dimension lift."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from whsic.clifford import (IDENTITY, PARITY_J, ZAUNER, SymplecticMatrix,
                            antiunitary_action, chirp_exponents,
                            decompose, gauss_sum, metaplectic,
                            order3_trace_check, predicted_eigenspace_dims,
                            random_symplectic, zauner_angle, zauner_counts,
                            zauner_unitary)
from whsic.dims import Dimension
from whsic.errors import DetNotMinusOne
from whsic.weyl import all_displacements

from oracles import float_zauner_counts, lift_sl2, reference_check


@pytest.mark.parametrize("N", [2, 3, 4, 5, 6, 7, 8, 9])
def test_metaplectic_is_unitary_and_covariant(N):
    dim = Dimension(N)
    rng = np.random.default_rng(N)
    for _ in range(15):
        G = random_symplectic(dim, rng)
        U = metaplectic(G, dim)
        assert np.max(np.abs(U @ U.conj().T - np.eye(N))) < 1e-10
        assert reference_check(G, dim, U, all_displacements(dim)) < 1e-9


@pytest.mark.parametrize("N", [3, 4, 6, 8])
def test_metaplectic_is_projective_homomorphism(N):
    dim = Dimension(N)
    rng = np.random.default_rng(N + 100)
    for _ in range(10):
        G1 = random_symplectic(dim, rng)
        G2 = random_symplectic(dim, rng)
        lhs = metaplectic(G1, dim) @ metaplectic(G2, dim)
        rhs = metaplectic(G1.mul(G2, dim.nbar), dim)
        ph = np.trace(rhs.conj().T @ lhs) / N
        ph /= abs(ph)
        assert np.max(np.abs(lhs - ph * rhs)) < 1e-9


def test_decompose_handles_noninvertible_beta():
    dim = Dimension(6)
    G = SymplecticMatrix(1, 0, 0, 1)  # beta = 0 shares a factor with 12
    G1, G2 = decompose(G, dim)
    assert G1.mul(G2, dim.nbar) == G.reduced(dim.nbar)
    U = metaplectic(G, dim)
    assert np.max(np.abs(U @ U.conj().T - np.eye(6))) < 1e-10


def test_zauner_matrix_is_order_three():
    for N in range(2, 20):
        dim = Dimension(N)
        is3, trace = order3_trace_check(ZAUNER, dim)
        assert trace
        Z3 = ZAUNER.mul(ZAUNER, N).mul(ZAUNER, N)
        assert Z3.reduced(N) == IDENTITY.reduced(N)


def test_zauner_unitary_is_the_closed_form_phase():
    for N in range(1, 65):
        dim = Dimension(N)
        U = np.exp(1j * np.pi * float(zauner_angle(dim))) \
            * metaplectic(ZAUNER, dim)
        assert np.max(np.abs(zauner_unitary(dim) - U)) < 1e-13


def test_zauner_chirp_is_the_counted_table():
    """`zauner_counts` sums tau^{s^2} and tau^{3u^2}: the entries of this
    table along row 0 (folded over v + w) and along the diagonal."""
    for N in range(1, 65):
        dim = Dimension(N)
        u = np.arange(N)[:, None]
        assert np.array_equal(chirp_exponents([ZAUNER], dim)[0],
                              (u * u + 2 * u * u.T) % dim.nbar)


def test_gauss_sum_is_the_sum():
    """Reciprocity against the c terms summed in float, for every c <= 12,
    a in -2c..2c and b in 0..2c-1 with ac + b even: a = 0, a = c, gcd(a,
    c) > 1 and vanishing sums among them."""
    for c in range(1, 13):
        n = np.arange(c)
        for a in range(-2 * c, 2 * c + 1):
            for b in range(0, 2 * c, 1):
                if (a * c + b) % 2:
                    continue
                m, q = gauss_sum(a, b, c)
                S = np.exp(1j * np.pi * (a * n * n + b * n) / c).sum()
                assert 0 <= q < 2 and (m > 0 or q == 0)
                assert abs(math.sqrt(m) * np.exp(1j * np.pi * float(q)) - S) \
                    < 1e-9, (a, b, c)


def test_zauner_counts_agree_with_the_float_oracle():
    """The exact counts, cube root and Gauss sums against the float
    bincount path, for every N <= 1000 and 200 seeded N up to 10^4, where
    the float sums err by at most about 1e-10; about 1.5 s on 2 vCPUs."""
    rng = np.random.default_rng(0)
    for N in [*range(1, 1001), *rng.integers(1001, 10 ** 4 + 1, 200)]:
        dim = Dimension(int(N))
        d, root, sums = zauner_counts(dim)
        fd, S = float_zauner_counts(dim)
        assert np.abs(fd - np.array(d)).max() < 1e-6, N
        assert root == round(float(np.angle(S[0])) * 4 / np.pi) % 8, N
        for (m, q), s in zip(sums, S):
            assert abs(np.sqrt(m) * np.exp(1j * np.pi * float(q)) - s) < 1e-6


def test_eigenspace_table_formula():
    # d0 = k+1 always; the deficit rotates with N mod 3
    assert predicted_eigenspace_dims(Dimension(9)) == (4, 3, 2)
    assert predicted_eigenspace_dims(Dimension(10)) == (4, 3, 3)
    assert predicted_eigenspace_dims(Dimension(11)) == (4, 4, 3)


@pytest.mark.parametrize("N", [2, 4, 6, 8, 10, 12])
def test_lift_sl2_round_trip(N):
    """Every element of SL(2, N), |SL(2, N)| = N^3 prod_{p | N} (1 - p^-2),
    lifts to a reduced matrix of determinant 1 mod 2N that equals it mod N."""
    order = {2: 6, 4: 48, 6: 144, 8: 384, 10: 720, 12: 1152}[N]
    dim = Dimension(N)
    count = 0
    for a, b, g_, d in itertools.product(range(N), repeat=4):
        G = SymplecticMatrix(a, b, g_, d)
        if G.det() % N != 1:
            continue
        count += 1
        Gbar = lift_sl2(G, dim)
        assert Gbar.det() % (2 * N) == 1
        assert Gbar == Gbar.reduced(2 * N)
        assert Gbar.reduced(N) == G
    assert count == order


@given(half=st.integers(1, 15), word=st.lists(st.integers(0, 29), min_size=1,
                                            max_size=8))
@settings(max_examples=80, deadline=None)
def test_lift_sl2_round_trip_any_even_dimension(half, word):
    """G mod N from a word in T^x = (1,x;0,1) and S = (0,-1;1,0), which
    generate SL(2, N); its integer determinant is 1 + kN with either
    parity of k."""
    N = 2 * half
    dim = Dimension(N)
    S = SymplecticMatrix(0, -1, 1, 0)
    G = IDENTITY
    for x in word:
        G = G.mul(SymplecticMatrix(1, x, 0, 1), N).mul(S, N)
    assert G.det() % N == 1
    Gbar = lift_sl2(G, dim)
    assert Gbar.det() % (2 * N) == 1
    assert Gbar.reduced(N) == G.reduced(N)


def test_lift_sl2_rejects_odd_dimension():
    with pytest.raises(ValueError):
        lift_sl2(IDENTITY, Dimension(3))


def test_antiunitary_requires_det_minus_one():
    dim = Dimension(5)
    v = np.ones(5) / np.sqrt(5)
    with pytest.raises(DetNotMinusOne):
        antiunitary_action(IDENTITY, dim, v)
    out = antiunitary_action(PARITY_J, dim, v)
    assert abs(np.linalg.norm(out) - 1) < 1e-12


@given(N=st.integers(1, 10), seed=st.integers(0, 50))
@settings(max_examples=40, deadline=None)
def test_random_symplectic_is_symplectic(N, seed):
    dim = Dimension(N)
    G = random_symplectic(dim, np.random.default_rng(seed))
    assert (G.det() - 1) % dim.nbar == 0
    assert G.mul(G.inv(dim.nbar), dim.nbar) == IDENTITY.reduced(dim.nbar)


class _ScriptedDraws:
    """A stand-in for np.random.Generator whose `integers` returns the
    scripted draws in order."""

    def __init__(self, draws):
        self.draws = list(draws)

    def integers(self, low, high, size):
        assert size == 3 and all(low <= x < high for x in self.draws[0])
        return np.array(self.draws.pop(0))


# the fewest draws of default_rng(nbar) that hit every element of
# SL(2, Z_nbar)
SEEDED_DRAWS = {3: 112, 4: 145, 8: 2035}


@pytest.mark.parametrize("nbar, order", [(3, 24), (4, 48), (8, 384)])
def test_random_symplectic_is_exactly_uniform(nbar, order):
    """Each accepted draw (alpha, gamma, t), with gcd(alpha, gamma, nbar) = 1,
    gives a different element of SL(2, Z_nbar) and together they give all of
    it, so uniform draws give a uniform element. Each is scripted after a
    draw with (alpha, gamma) = (0, 0), which must be rejected. The seeded
    draws, each with det 1, hit every element first at the last of them."""
    dim = Dimension(nbar if nbar % 2 else nbar // 2)
    assert dim.nbar == nbar
    group = {G for G in itertools.starmap(
        SymplecticMatrix, itertools.product(range(nbar), repeat=4))
        if (G.det() - 1) % nbar == 0}
    assert len(group) == order
    accepted = [v for v in itertools.product(range(nbar), repeat=3)
                if math.gcd(v[0], v[1], nbar) == 1]
    assert len(accepted) == order
    images = []
    for v in accepted:
        draws = _ScriptedDraws([(0, 0, v[2]), v])
        images.append(random_symplectic(dim, draws))
        assert draws.draws == []
    assert set(images) == group and len(images) == order
    rng = np.random.default_rng(nbar)
    drawn = [random_symplectic(dim, rng) for _ in range(SEEDED_DRAWS[nbar])]
    assert all(G.det() % nbar == 1 for G in drawn)
    assert set(drawn) == group and set(drawn[:-1]) != group
