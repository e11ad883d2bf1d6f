"""Phase-permutation representation and the SL(2, N) orbit machinery."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from whsic.clifford import (ZAUNER, SymplecticMatrix,
                            conjugation_check_batched, decompose,
                            random_symplectic)
from whsic.dims import (Dimension, PhasePermutation, flatten, require_square,
                        sigma_power, tau_table)
from whsic.errors import NotSquare
from whsic.monomial import (covariance_witness, is_phase_permutation,
                            invariant_subgroup, monomial_antiunitary,
                            monomial_clifford, monomial_weyl_generators,
                            sl2_orbit, vector_order, zak_matrix)
from whsic.weyl import all_displacements

from oracles import invariant_subgroup_search, monomial_zauner, reference_check

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


def half_shift(n):
    """The shift m of the |r,s> basis: 0 for odd n, n/2 for even n."""
    return 0 if n % 2 else n // 2


def ref_clifford(G, dim):
    n, nbar, m = dim.n, dim.nbar, half_shift(dim.n)
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
    n, m = dim.n, half_shift(dim.n)
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
        assert covariance_witness(G, U) is None
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
    assert reference_check(ZAUNER, dim, U, D) < 1e-9


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
    assert reference_check(G, dim, U, D) > 1
    # so does the support check of the same unitary without its phase; a
    # projection that ties between tau powers may snap to another power in
    # each check, so only the verdicts are compared
    U0 = monomial_clifford(ZAUNER, dim)
    assert conjugation_check_batched(G, dim, U0, D) > 1
    # the exact check rejects it too, at the first failure the dense oracle
    # finds
    ij = covariance_witness(G, U0)
    assert ij is not None
    assert ij == first_dense_failure(G, dim, U, D)


@pytest.mark.parametrize("N", SQUARES)
def test_covariance_witness_catches_one_flipped_exponent(N):
    dim = Dimension(N)
    rng = np.random.default_rng(N + 3)
    D = all_displacements(dim, *monomial_weyl_generators(dim))
    for _ in range(5):
        G = random_symplectic(dim, rng)
        U = monomial_clifford(G, dim)
        v = int(rng.integers(N))
        flipped = PhasePermutation(dim, U.image, U.expo + (np.arange(N) == v))
        ij = covariance_witness(G, flipped)
        assert ij is not None
        assert ij == first_dense_failure(G, dim, flipped, D)


@pytest.mark.parametrize("N", SQUARES)
def test_witness_is_x_when_only_z_is_covariant(N):
    """T = (1,0;1,1) fixes (0, 1) and moves (1, 0) to (1, 1), so U_{GT}
    checked against G keeps Z = D_01 covariant but not X = D_10: the
    witness is (1, 0), after every D_0j, and the dense oracle finds it
    first too."""
    dim = Dimension(N)
    rng = np.random.default_rng(N + 5)
    D = all_displacements(dim, *monomial_weyl_generators(dim))
    T = SymplecticMatrix(1, 0, 1, 1)
    for _ in range(3):
        G = random_symplectic(dim, rng)
        U = monomial_clifford(G.mul(T, dim.nbar), dim)
        assert covariance_witness(G, U) == (1, 0)
        assert first_dense_failure(G, dim, U, D) == (1, 0)

def stray_stack(G, dim, D, k, stray):
    """The true stack D with `stray` added to D_{G(k)} at a zero, which is
    where U_G D_k U_G^dag is zero: its residual is at least |stray|."""
    N = dim.N
    ip, jp = G.apply(*divmod(k, N), N)
    out = D.copy()
    out[ip * N + jp][tuple(np.argwhere(D[ip * N + jp] == 0)[0])] += stray
    return out


def graded_stack(G, dim, U, D):
    """The true stack D edited along one orbit p_0 -> p_1 -> ... -> p_L = p_0
    of (k, r, c) -> (G(k), image[r], image[c]), L >= 3: p_{L-1} is set to 0
    and p_{L-2} halved. Every mapped entry is then off by at most 0.5, but
    D at p_0 keeps modulus 1 where U D_k U^dag is zero: only the dense pass
    over such k finds the residual 1. None if every orbit is shorter."""
    N = dim.N
    ip, jp = G.apply(*np.divmod(np.arange(N * N), N), N)

    def step(p):
        k, r, c = p
        return ip[k] * N + jp[k], U.image[r], U.image[c]

    for start in map(tuple, np.argwhere(D != 0)):
        orbit = [start]
        while (p := step(orbit[-1])) != start:
            orbit.append(p)
        if len(orbit) >= 3:
            break
    else:
        return None
    out = D.copy()
    out[orbit[-1]] = 0
    out[orbit[-2]] *= 0.5
    return out


@pytest.mark.parametrize("N", SQUARES + [36])
def test_support_check_matches_reference_check(N):
    """The support check equals the dense oracle on a fully dense random
    stack, where every entry is in the support, and on the true stack with
    one stray entry (`stray_stack`) or one graded orbit (`graded_stack`),
    with the residual each edit implies."""
    dim = Dimension(N)
    rng = np.random.default_rng(N + 11)
    D = all_displacements(dim, *monomial_weyl_generators(dim))
    M = rng.standard_normal(D.shape) + 1j * rng.standard_normal(D.shape)
    graded = 0
    while graded < 2:
        G = random_symplectic(dim, rng)
        U = monomial_clifford(G, dim)
        stray = 0.3 * np.exp(2j * np.pi * rng.random())
        cases = [(M, 0), (stray_stack(G, dim, D, int(rng.integers(N * N)),
                                      stray), abs(stray))]
        S = graded_stack(G, dim, U, D)
        if S is not None:
            cases.append((S, 1))
            graded += 1
        for stack, floor in cases:
            fast = conjugation_check_batched(G, dim, U, stack)
            assert abs(fast - reference_check(G, dim, U, stack)) < 1e-14
            assert fast >= floor - 1e-12


@pytest.mark.parametrize("N", SQUARES + [36])
def test_conjugation_check_gather_agrees_with_dense_path(N):
    """The support check for a PhasePermutation and the dense oracle for
    its matrix give one residual, on the true stack, on a noisy one (so
    every displacement has its own residual) and for a U with one flipped
    exponent."""
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
            assert abs(fast - reference_check(G, dim, op.dense(), stack)) < 1e-14
        assert conjugation_check_batched(G, dim, U, D) < 1e-9
        assert conjugation_check_batched(G, dim, flipped, D) > 1


@pytest.mark.parametrize("where", ["one", "all", "imag"])
def test_conjugation_check_fails_on_nan(where):
    """A NaN in the stack makes the residual NaN, so `res < tol` is false:
    it neither passes vacuously nor hides behind an earlier block's max.
    The support is found from the float halves of the stack, so a NaN in
    the imaginary half of an entry off the support counts too."""
    dim = Dimension(16)
    G = random_symplectic(dim, np.random.default_rng(5))
    U = monomial_clifford(G, dim)
    D = all_displacements(dim, *monomial_weyl_generators(dim))
    if where == "one":
        D[200, 3, 7] = np.nan
    elif where == "imag":
        assert D[200, 3, 7] == 0
        D[200, 3, 7] = complex(0, np.nan)
    else:
        D[:] = np.nan
    for res in (conjugation_check_batched(G, dim, U, D),
                reference_check(G, dim, U, D)):
        assert not res < 1e-9
        assert np.isnan(res)


def stabilized_abelian_check(G: SymplecticMatrix,
                             dim: Dimension) -> tuple[int, int] | None:
    """U_G maps <X^n, Z^n, tau> into itself for square N:
    U_G D_ij U_G^dag = tau^c D_{G(i,j)} for its generators (i, j) = (n, 0)
    and (0, n), which decide all of its displacements as in
    `covariance_witness`, with G(i, j) again in n * Z_N^2. Returns the first
    generator that fails, or None; exact."""
    n = require_square(dim)
    ijs = ((n, 0), (0, n))
    assert all(x % n == 0 for ij in ijs for x in G.apply(*ij, dim.N)), \
        "conjugate left the subgroup"
    return covariance_witness(G, monomial_clifford(G, dim), ijs)


@pytest.mark.parametrize("N", [1] + SQUARES)
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
        monomial_clifford(ZAUNER, Dimension(5))
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


@pytest.mark.parametrize("N", range(1, 37))
def test_invariant_subgroup_exists_iff_square(N):
    dim = Dimension(N)
    V = invariant_subgroup(dim)
    assert V == invariant_subgroup_search(N)
    if dim.n is not None:
        assert V is not None and len(V) == N
    else:
        assert V is None


def test_invariant_subgroup_has_no_dimension_cap():
    assert invariant_subgroup(Dimension(10 ** 4 + 1)) is None
    dim = Dimension(10 ** 4)
    V = invariant_subgroup(dim)
    assert len(V) == 10 ** 4
    assert all(a % 100 == 0 and b % 100 == 0 for a, b in V)
    # V is generated by (100, 0) and (0, 100): G maps both into V
    rng = np.random.default_rng(3)
    for _ in range(20):
        G = random_symplectic(dim, rng)
        assert G.apply(100, 0, dim.N) in V and G.apply(0, 100, dim.N) in V
