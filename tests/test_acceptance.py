"""End-to-end acceptance gates for the whole package.

Each test here is a top-level claim about the constructions: closed-form
fiducials in dimensions 4, 9, 16; the phase-permutation representation in
square dimensions; orbit structure of SL(2, Z_N); the order-3 symmetry;
simplex identities; Latin-square unbiased bases; the even-dimension lift and
the Chinese-remainder factorization; and the numerical search.
"""

import itertools

import numpy as np
import pytest

from whsic.adapted16 import adapted16_generators
from whsic.cli import COMMANDS
from whsic.clifford import (SymplecticMatrix, predicted_eigenspace_dims,
                            random_symplectic, zauner_counts, zauner_unitary)
from whsic.crt import verify_product_iso
from whsic.dims import Dimension
from whsic.monomial import (covariance_witness, invariant_subgroup,
                            is_phase_permutation, monomial_clifford,
                            monomial_weyl_generators, sl2_orbit, vector_order)
from whsic.mub import (cyclic_latin_square, eigenbasis_infinity,
                       eigenbasis_zero, is_unbiased, latin_basis, prime_family,
                       unbiased_witness)
from whsic.sic import (fiducial_n4, fiducial_n9, fiducial_n16,
                       search_fiducial, verify_sic)
from whsic.weyl import all_displacements

from oracles import (autocorrelation_check, invariant_subgroup_search,
                     lift_sl2, rephased4_generators, to_standard)


def orbit_key(v, D, decimals=8):
    """Canonical label of the Weyl-Heisenberg orbit through v."""
    keys = []
    for k in range(D.shape[0]):
        w = D[k] @ v
        ref = w[int(np.argmax(np.abs(w)))]
        w = w * (ref.conj() / abs(ref))
        keys.append(tuple(np.round(w, decimals).view(float)))
    return min(keys)


# ---------------------------------------------------------------------------
# 1. dimension 4: all 256 closed-form fiducials, 16 orbits
# ---------------------------------------------------------------------------

def test_acceptance_n4_all_256_and_16_orbits():
    dim = Dimension(4)
    D = all_displacements(dim, *rephased4_generators())
    orbits = set()
    for slot, s, t, u in itertools.product(range(4), repeat=4):
        f = fiducial_n4(slot, s, t, u)
        cert = verify_sic(f, 1e-12)
        assert cert.passed, (slot, s, t, u, cert.max_abs_deviation)
        orbits.add(orbit_key(f.amplitudes, D))
    assert len(orbits) == 16


# ---------------------------------------------------------------------------
# 2. dimension 9: all 72 closed-form fiducials, orbit split by s0
# ---------------------------------------------------------------------------

def test_acceptance_n9_all_72_and_orbit_split():
    for s0, s1, s2 in itertools.product((1, -1), repeat=3):
        for m3, m4 in itertools.product(range(3), repeat=2):
            f = fiducial_n9(s0, s1, s2, m3, m4)
            cert = verify_sic(f, 1e-10)
            assert cert.passed, (s0, s1, s2, m3, m4, cert.max_abs_deviation)
    plus = np.sort(np.abs(fiducial_n9(1, 1, 1, 0, 0).amplitudes) ** 2)
    minus = np.sort(np.abs(fiducial_n9(-1, 1, 1, 0, 0).amplitudes) ** 2)
    assert np.max(np.abs(plus - minus)) > 1e-3
    assert fiducial_n9(1, 1, 1, 0, 0).provenance["orbit"] != \
        fiducial_n9(-1, 1, 1, 0, 0).provenance["orbit"]


# ---------------------------------------------------------------------------
# 3. dimension 16: fiducial plus structural gates on the adapted basis
# ---------------------------------------------------------------------------

def test_acceptance_n16_fiducial_and_structural_gates():
    for branch in (1, -1):
        f = fiducial_n16(branch)
        assert verify_sic(f, 1e-8).passed
        g = to_standard(fiducial_n16(branch))
        assert verify_sic(g, 1e-8).passed
    X, Z, T = adapted16_generators()
    eye = np.eye(16)
    for M in (X.dense(), Z.dense(), T):
        assert np.max(np.abs(M @ M.conj().T - eye)) < 1e-12
    omega = np.exp(2j * np.pi / 16)
    assert np.max(np.abs(Z @ X - omega * X @ Z)) < 1e-10
    for M in (np.linalg.matrix_power(X, 4), np.linalg.matrix_power(Z, 4)):
        assert np.max(np.abs(M - np.diag(np.diag(M)))) < 1e-12
    # the order-3 symmetry acts by a permutation (with phases) in this basis
    U = T.conj() @ zauner_unitary(Dimension(16)) @ T.T
    m = np.abs(U)
    assert np.max(np.abs(m - (m > 0.5))) < 1e-10
    assert np.array_equal((m > 0.5).sum(axis=0), np.ones(16, dtype=int))


# ---------------------------------------------------------------------------
# 4. phase-permutation representation in square dimensions
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("N", [4, 9, 16, 25])
def test_acceptance_monomial_clifford_100_random(N):
    dim = Dimension(N)
    rng = np.random.default_rng(N)
    for _ in range(100):
        G = random_symplectic(dim, rng)
        U = monomial_clifford(G, dim)
        assert is_phase_permutation(U, 1e-10)
        assert covariance_witness(G, U) is None


# ---------------------------------------------------------------------------
# 5. invariant abelian subgroup exactly in square dimensions
# ---------------------------------------------------------------------------

def test_acceptance_invariant_subgroup_boundary():
    for N in range(1, 37):
        dim = Dimension(N)
        V = invariant_subgroup(dim)
        assert V == invariant_subgroup_search(N), N
        assert (V is not None) == (dim.n is not None), N


# ---------------------------------------------------------------------------
# 6. SL(2, Z_N) orbits are the constant-order classes, with witnesses
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("N", range(2, 13))
def test_acceptance_orbits_with_witnesses(N):
    dim = Dimension(N)
    seen = set()
    for v in itertools.product(range(N), repeat=2):
        if v in seen:
            continue
        rep = sl2_orbit(dim, v)
        expected = {w for w in itertools.product(range(N), repeat=2)
                    if vector_order(w, N) == rep.order}
        assert set(rep.members) == expected
        for w, S in rep.witness_maps.items():
            assert S.apply(v[0], v[1], N) == w
            assert S.det() % N == 1
        seen |= set(rep.members)


# ---------------------------------------------------------------------------
# 7. order-3 eigenspace multiplicities: the exact counts against the dense
#    eigenvalues for every 1 <= N <= 60, and against Zauner's table past
#    the `verify zauner` cap
# ---------------------------------------------------------------------------

def dense_eigenspace_dims(U):
    """Multiplicities of 1, omega, omega^2 among the eigenvalues of U, each
    within 1e-3 of its cube root of unity."""
    roots = np.exp(2j * np.pi * np.arange(3) / 3)
    dist = np.abs(np.linalg.eigvals(U)[:, None] - roots)
    assert (dist.min(axis=1) < 1e-3).all()
    return tuple(np.bincount(dist.argmin(axis=1), minlength=3).tolist())


def certified_counts(dim):
    """The exact multiplicities, once U_0 cubes to e^{-i pi (N-1)/4}."""
    dims, root, _ = zauner_counts(dim)
    assert root == (1 - dim.N) % 8
    return dims


@pytest.mark.parametrize("N", range(1, 61))
def test_acceptance_zauner_eigenspace_table(N):
    dim = Dimension(N)
    U = zauner_unitary(dim)
    assert np.max(np.abs(U @ U @ U - np.eye(N))) < 1e-10
    assert (certified_counts(dim) == dense_eigenspace_dims(U)
            == predicted_eigenspace_dims(dim))


# the old cap and the odd N below it, the cap, the prime below it, and
# past the cap
@pytest.mark.parametrize("N", [97, 120, 1000, 800000, 799999,
                               COMMANDS["verify zauner"].bounds["dim"][-1],
                               999999999989, 10 ** 18 + 9])
def test_acceptance_zauner_counts_match_the_table(N):
    dim = Dimension(N)
    assert certified_counts(dim) == predicted_eigenspace_dims(dim)


# ---------------------------------------------------------------------------
# 8. simplex identities in both bases, collapse to N points
# ---------------------------------------------------------------------------

def test_acceptance_simplex_identities():
    cases = [fiducial_n4(0, 0, 0, 0), to_standard(fiducial_n4(0, 0, 0, 0)),
             fiducial_n9(1, 1, 1, 0, 0), fiducial_n9(-1, -1, 1, 1, 2),
             to_standard(fiducial_n16(1))]
    for f in cases:
        N = f.dim.N
        assert verify_sic(f, 1e-8).passed
        p = np.abs(f.amplitudes) ** 2
        assert abs(np.sum(p ** 2) - 2.0 / (N + 1)) < 1e-10
        assert autocorrelation_check(f).max() < 1e-10


def test_acceptance_projection_collapse():
    cases = [(fiducial_n4(0, 0, 0, 0), rephased4_generators()),
             (fiducial_n9(1, 1, 1, 0, 0), monomial_weyl_generators(Dimension(9))),
             (fiducial_n16(1), adapted16_generators()[:2])]
    for f, (X, Z) in cases:
        v, dim = f.amplitudes, f.dim
        D = all_displacements(dim, X, Z)
        pts = {tuple(np.round(np.abs(D[k] @ v) ** 2, 8))
               for k in range(dim.N ** 2)}
        assert len(pts) == dim.N


# ---------------------------------------------------------------------------
# 9. unbiased bases from Latin squares
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p", [2, 3, 5])
def test_acceptance_prime_family(p):
    bases = prime_family(p)
    assert len(bases) == p + 1
    for i in range(len(bases)):
        for j in range(i + 1, len(bases)):
            assert unbiased_witness(bases[i], bases[j]) is None
            rep = is_unbiased(bases[i], bases[j], 1e-10)
            assert rep.passed, (i, j, rep.max_abs_deviation)


@pytest.mark.parametrize("n", [2, 3])
def test_acceptance_latin_property_suffices(n):
    """Whatever its tau exponents, a Latin basis meets each eigenbasis line
    once, and is unbiased to both eigenbases in float as well."""
    dim = Dimension(n * n)
    rng = np.random.default_rng(n)
    eigen = (eigenbasis_zero(dim), eigenbasis_infinity(dim))
    lam = cyclic_latin_square(n, 1)
    for _ in range(50):
        C = latin_basis(dim, lam, rng.integers(0, 2 * dim.N, (n, n)))
        for other in eigen:
            assert unbiased_witness(C, other) is None
            assert is_unbiased(C, other, 1e-10).passed


# ---------------------------------------------------------------------------
# 10. even-dimension lift and Chinese-remainder factorization
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("N", [2, 4, 6, 8])
def test_acceptance_lift_sl2_thousand(N):
    dim = Dimension(N)
    rng = np.random.default_rng(N + 1)
    count = 0
    while count < 1000:
        a, b, g_, d = (int(x) for x in rng.integers(0, N, size=4))
        G = SymplecticMatrix(a, b, g_, d)
        if G.det() % N != 1:
            continue
        count += 1
        Gbar = lift_sl2(G, dim)
        assert Gbar.reduced(N) == G.reduced(N)
        assert Gbar.det() % (2 * N) == 1


@pytest.mark.parametrize("N", [6, 12])
def test_acceptance_product_isomorphism(N):
    assert verify_product_iso(N) < 1e-9


# ---------------------------------------------------------------------------
# 11. numerical search in dimensions without a closed form here
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("N", [5, 6, 7])
def test_acceptance_search(N):
    f = search_fiducial(Dimension(N), rng_seed=0)
    assert f is not None
    cert = verify_sic(f, 1e-8)
    assert cert.passed, cert.max_abs_deviation
