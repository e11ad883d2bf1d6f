"""Closed-form fiducials, verification, simplex identities, and the search."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from whsic import adapted16
from whsic.clifford import predicted_eigenspace_dims, zauner_unitary
from whsic.dims import Dimension, PhasePermutation, tau_power, tau_powers
from whsic.errors import BasisUnavailable, NegativeRadicand
from whsic.monomial import is_phase_permutation, monomial_weyl_generators
from whsic.sic import (LBFGS_MEMORY, LINE_SEARCH_EVALS, ClosedForm,
                       Fiducial, _CurvatureRing, _e0_basis, _e0_objective,
                       _lbfgs, _row_shift_gather, _shift_index, _weyl_tables,
                       basis_change, closed_n4, closed_n9, closed_n16,
                       fiducial_n4, fiducial_n9, fiducial_n9_amplitudes,
                       fiducial_n16, frame_residual, search_fiducial,
                       sic_residual, standard_overlaps, verify_closed_form,
                       verify_sic)
from whsic.weyl import all_displacements, displacements, standard_generators

from oracles import (autocorrelation_check, monomial_zauner,
                     rephased4_generators, to_standard)
from report_parity import CLOSED_FORMS
from search_parity import DIMS, SEEDS, search_row, table_rows


def random_unit(N, seed):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    return v / np.linalg.norm(v)


def best_phase_distance(u, v):
    ph = np.vdot(v, u)
    if abs(ph) < 1e-12:
        return 2.0
    return float(np.linalg.norm(u - (ph / abs(ph)) * v))


# ---------------------------------------------------------------------------
# verification plumbing
# ---------------------------------------------------------------------------

def test_verify_sic_negative_control():
    dim = Dimension(4)
    e0 = np.zeros(4, dtype=complex)
    e0[0] = 1.0
    cert = verify_sic(Fiducial(dim, "standard", e0), 1e-12)
    assert not cert.passed
    assert abs(cert.max_abs_deviation - 0.8) < 1e-12  # |<0|Z|0>|^2 = 1 vs 1/5
    # D_{0j} = Z^j all give 0.8; the witness is the first of them, (0, 1)
    assert cert.worst_displacement == (0, 1)
    # in another basis the witness attains the maximum of a dense contraction
    # over that basis's own generators; D_ij and D_-i,-j tie, so the witness
    # may be either of the pair
    rng = np.random.default_rng(3)
    v = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    v /= np.linalg.norm(v)
    cert = verify_sic(Fiducial(Dimension(9), "monomial", v), 1e-12)
    X, Z = monomial_weyl_generators(Dimension(9))
    D = all_displacements(Dimension(9), X, Z)
    dev = np.abs(np.abs(np.einsum("i,kij,j->k", v.conj(), D, v)) ** 2 - 0.1)
    dev[0] = 0.0
    i, j = cert.worst_displacement
    assert not cert.passed
    assert abs(dev[i * 9 + j] - dev.max()) < 1e-14
    assert abs(cert.max_abs_deviation - dev.max()) < 1e-14


def test_unknown_basis_raises():
    v = np.ones(4, dtype=complex) / 2
    with pytest.raises(BasisUnavailable):
        verify_sic(Fiducial(Dimension(4), "nosuch", v))


def test_fiducial_rejects_non_unit_norm():
    with pytest.raises(ValueError):
        Fiducial(Dimension(4), "standard", np.ones(4, dtype=complex))


@pytest.mark.parametrize("amplitudes", [np.ones(4) / 2, np.ones((3, 3)) / 3],
                         ids=["four-entries", "3x3"])
def test_fiducial_refuses_amplitudes_that_are_not_n_entries(amplitudes):
    """Both inputs have unit norm; verify_sic once died on them with
    numpy's matmul error instead."""
    with pytest.raises(ValueError, match="N = 9 has 9 amplitudes"):
        Fiducial(Dimension(9), "standard", amplitudes)


def test_rephased4_generators_match_monomial_up_to_diagonal():
    dim = Dimension(4)
    X, Z = (P.dense() for P in rephased4_generators())
    omega = np.exp(2j * np.pi / 4)
    assert np.max(np.abs(Z @ X - omega * X @ Z)) < 1e-12
    assert np.max(np.abs(X @ X.conj().T - np.eye(4))) < 1e-12
    # entries are tau times {1, i, -1} exactly as printed
    t = tau_power(dim, 1)
    assert abs(X[0, 1] - t * 1j) < 1e-12 and abs(X[1, 0] + t) < 1e-12
    assert abs(Z[0, 2] + t) < 1e-12 and abs(Z[2, 0] - t * 1j) < 1e-12


def test_rephased4_displacements_have_the_monomial_images():
    """The N = 4 rephasing is diagonal, so it moves the exponents of every
    D_ij but not its image: `generate projection` gathers the n4 fiducial
    through the monomial images."""
    dim = Dimension(4)
    rephased = displacements(dim, *rephased4_generators())
    monomial = displacements(dim, *monomial_weyl_generators(dim))
    assert np.array_equal(rephased.image, monomial.image)
    assert not np.array_equal(rephased.expo, monomial.expo)


# ---------------------------------------------------------------------------
# basis changes
# ---------------------------------------------------------------------------

# each registered basis tag with the generator pair its amplitudes refer to
TAG_GENERATORS = [
    (Dimension(5), "standard", lambda: standard_generators(Dimension(5))),
    (Dimension(6), "standard", lambda: standard_generators(Dimension(6))),
    (Dimension(4), "monomial", lambda: monomial_weyl_generators(Dimension(4))),
    (Dimension(9), "monomial", lambda: monomial_weyl_generators(Dimension(9))),
    (Dimension(16), "monomial", lambda: monomial_weyl_generators(Dimension(16))),
    (Dimension(25), "monomial", lambda: monomial_weyl_generators(Dimension(25))),
    (Dimension(4), "rephased4", rephased4_generators),
    (Dimension(16), "adapted16", lambda: adapted16.adapted16_generators()[:2]),
]
TAG_IDS = [f"{basis}-{dim.N}" for dim, basis, _ in TAG_GENERATORS]


@pytest.mark.parametrize("dim,basis,generators", TAG_GENERATORS, ids=TAG_IDS)
def test_basis_change_is_unitary_and_intertwines(dim, basis, generators):
    V = basis_change(dim, basis)
    Vd = V.conj().T
    assert np.max(np.abs(Vd @ V - np.eye(dim.N))) < 1e-14
    Xs, Zs = standard_generators(dim)
    X, Z = generators()
    assert np.max(np.abs(Vd @ Xs @ V - X)) < 1e-14
    assert np.max(np.abs(Vd @ Zs @ V - Z)) < 1e-14


@pytest.mark.parametrize("dim,basis,generators", TAG_GENERATORS, ids=TAG_IDS)
def test_kernel_matches_dense_stack_in_every_basis(dim, basis, generators):
    """The certificate's overlaps, taken by the FFT kernel after the basis
    change, against a dense contraction over the basis's own generators."""
    N = dim.N
    D = all_displacements(dim, *generators())
    for seed in range(3):
        f = Fiducial(dim, basis, random_unit(N, seed))
        psi = f.amplitudes
        dense = np.abs(np.einsum("i,kij,j->k", psi.conj(), D, psi)) ** 2
        kernel = np.abs(standard_overlaps(to_standard(f).amplitudes)) ** 2
        assert np.max(np.abs(kernel.ravel() - dense)) < 1e-14
        dense_dev = np.abs(dense - 1.0 / (N + 1))[1:].max()
        assert abs(verify_sic(f).max_abs_deviation - dense_dev) < 1e-14


@pytest.mark.parametrize("dim,basis,generators", TAG_GENERATORS, ids=TAG_IDS)
def test_basis_change_is_shared_read_only_and_bit_identical(dim, basis,
                                                           generators):
    V = basis_change(dim, basis)
    assert V is basis_change(Dimension(dim.N), basis)
    assert not V.flags.writeable
    with pytest.raises(ValueError):
        V[0, 0] = 0
    assert np.array_equal(V, basis_change.__wrapped__(dim, basis))


@pytest.mark.parametrize("dim,basis,generators", TAG_GENERATORS[2:],
                         ids=TAG_IDS[2:])
def test_weyl_tables_are_the_tag_generators_in_python_ints(dim, basis,
                                                           generators):
    """The tables the closed-form certificate reads are the generators that
    `basis_change` intertwines, entry for entry."""
    for P, (image, expo) in zip(generators(), _weyl_tables(dim, basis)):
        assert {type(k) for k in image + expo} == {int}
        assert np.array_equal(P.image, image)
        assert np.array_equal(P.expo, np.asarray(expo) % dim.nbar)


@pytest.mark.parametrize("N,basis", [(5, "standard"), (5, "monomial"),
                                     (9, "rephased4"), (4, "adapted16")])
def test_weyl_tables_refuse_tags_without_phase_permutations(N, basis):
    with pytest.raises(BasisUnavailable):
        _weyl_tables(Dimension(N), basis)


@pytest.mark.parametrize("N", [4, 9, 16, 25, 36])
def test_basis_change_carries_zauner_to_monomial(N):
    dim = Dimension(N)
    V = basis_change(dim, "monomial")
    U = V.conj().T @ zauner_unitary(dim) @ V
    assert np.max(np.abs(U - monomial_zauner(dim))) < 1e-14


def test_standard_basis_change_keeps_every_bit():
    f = search_fiducial(Dimension(5), rng_seed=0)
    assert np.array_equal(to_standard(f).amplitudes, f.amplitudes)


@pytest.mark.parametrize("N,basis", [(5, "monomial"), (9, "rephased4"),
                                     (4, "adapted16")])
def test_basis_change_rejects_unregistered_tags(N, basis):
    with pytest.raises(BasisUnavailable):
        basis_change(Dimension(N), basis)


# ---------------------------------------------------------------------------
# closed forms in their own basis
# ---------------------------------------------------------------------------

CONSTRUCTORS = {"n4": (closed_n4, fiducial_n4), "n9": (closed_n9, fiducial_n9),
                "n16": (closed_n16, fiducial_n16)}
CLOSED_TOL = {"n4": 1e-10, "n9": 1e-10, "n16": 1e-8}


def dense_worst(c, X, Z):
    """(max deviation, argmax (i, j)) of |<a|D_ij|a>|^2 from 1/(N+1) over a
    dense stack of displacements of X and Z, with a the unit amplitudes."""
    N = c.dim.N
    a = np.array(c.amplitudes) / np.linalg.norm(c.amplitudes)
    D = all_displacements(c.dim, X, Z)
    dev = np.abs(np.abs(np.einsum("i,kij,j->k", a.conj(), D, a)) ** 2
                 - 1.0 / (N + 1))
    dev[0] = 0.0
    return dev.max(), divmod(int(dev.argmax()), N)


def assert_witness(cert, c, X, Z, tol):
    """The certificate fails, and its witness attains the dense maximum: it
    is the dense argmax or its partner (-i, -j), whose overlap ties."""
    worst, (i, j) = dense_worst(c, X, Z)
    N = c.dim.N
    assert not cert.passed and worst > tol
    assert abs(cert.max_abs_deviation - worst) < 1e-14
    assert cert.worst_displacement in {(i, j), (-i % N, -j % N)}


@pytest.mark.parametrize("builtin", CONSTRUCTORS)
def test_closed_form_certificate_agrees_with_verify_sic(builtin):
    """Over every closed form: the numpy Fiducial is the closed form's
    amplitudes over `np.linalg.norm`, bit for bit, and the own-basis
    certificate gives verify_sic's verdict and deviation to 1e-14."""
    closed, fiducial = CONSTRUCTORS[builtin]
    tol = CLOSED_TOL[builtin]
    for args in (a for b, a in CLOSED_FORMS if b == builtin):
        c, f = closed(*args), fiducial(*args)
        v = np.array(c.amplitudes)
        assert np.array_equal(f.amplitudes, v / np.linalg.norm(v))
        assert (c.dim, c.basis, c.provenance) == (f.dim, f.basis, f.provenance)
        own, ref = verify_closed_form(c, tol), verify_sic(f, tol)
        assert own.passed and ref.passed
        assert abs(own.max_abs_deviation - ref.max_abs_deviation) < 1e-14


@pytest.mark.parametrize("builtin,args,k", [
    ("n4", (1, 2, 3, 0), 1), ("n9", (-1, 1, -1, 2, 1), 4),
    ("n16", (1, 0), 7), ("n16", (-1, 1), 0)])
def test_closed_form_certificate_fails_on_a_scaled_amplitude(builtin, args,
                                                             k):
    closed, _ = CONSTRUCTORS[builtin]
    c = closed(*args)
    a = list(c.amplitudes)
    a[k] *= 1 + 1e-6
    bad = c._replace(amplitudes=tuple(a))
    tol = CLOSED_TOL[builtin]
    cert = verify_closed_form(bad, tol)
    X, Z = (PhasePermutation(c.dim, np.array(image), np.array(expo))
            for image, expo in _weyl_tables(c.dim, c.basis))
    assert_witness(cert, bad, X, Z, tol)
    ref = verify_sic(Fiducial(c.dim, c.basis, np.array(a) / np.linalg.norm(a)))
    assert abs(cert.max_abs_deviation - ref.max_abs_deviation) < 1e-14


@pytest.mark.parametrize("k", [0, 5, 15])
def test_closed_form_certificate_reads_the_x16_transcription(k, monkeypatch):
    """One tau exponent of X16 off by one fails the N = 16 certificate,
    which reads `_X16_ENTRIES` and not the basis change."""
    entries = list(adapted16._X16_ENTRIES)
    row, col, sign, e = entries[k]
    entries[k] = (row, col, sign, e + 1)
    monkeypatch.setattr(adapted16, "_X16_ENTRIES", entries)
    c = closed_n16()
    cert = verify_closed_form(c, 1e-8)
    X, Z = adapted16.adapted16_generators()[:2]
    assert X.expo[col] == (e + 1 + 8 * (1 - sign)) % 32
    assert_witness(cert, c, X, Z, 1e-8)
    assert verify_sic(fiducial_n16(), 1e-8).passed


def test_closed_form_certificate_fails_without_the_rephasing():
    """The n4 amplitudes read in the monomial tables, without REPHASE4."""
    c = closed_n4(2, 1, 0, 3)
    assert verify_closed_form(c, 1e-10).passed
    bad = c._replace(basis="monomial")
    cert = verify_closed_form(bad, 1e-10)
    assert_witness(cert, bad, *monomial_weyl_generators(c.dim), 1e-10)


@pytest.mark.parametrize("amplitudes", [(0j,) * 4, (1j, 0j, 0j, float("inf"))])
def test_closed_form_certificate_refuses_a_vector_with_no_ray(amplitudes):
    with pytest.raises(ValueError, match="no ray"):
        verify_closed_form(ClosedForm(Dimension(4), "rephased4", amplitudes,
                                      {}))


# ---------------------------------------------------------------------------
# N = 4
# ---------------------------------------------------------------------------

def test_n4_single_example():
    f = fiducial_n4(0, 0, 0, 0)
    x = np.sqrt(2 + np.sqrt(5))
    expect = np.array([x, 1, 1, 1]) / np.linalg.norm([x, 1, 1, 1])
    assert np.max(np.abs(f.amplitudes - expect)) < 1e-12
    assert verify_sic(f, 1e-12).passed


def test_n4_every_fiducial_has_order3_stabilizer():
    """Each of the 256 fiducials is fixed (up to phase) by some order-3
    Clifford element.  The symplectic part varies across the family, so the
    candidate set runs over every order-3 symplectic matrix mod 8 together
    with all 16 displacements."""
    import itertools

    from whsic.clifford import IDENTITY, SymplecticMatrix
    from whsic.monomial import monomial_clifford

    dim = Dimension(4)
    nbar = dim.nbar
    order3 = []
    ident = IDENTITY.reduced(nbar)
    for a, b, g, d in itertools.product(range(nbar), repeat=4):
        G = SymplecticMatrix(a, b, g, d)
        if G.det() % nbar != 1 or G.reduced(nbar) == ident:
            continue
        if G.mul(G, nbar).mul(G, nbar) == ident:
            order3.append(G)
    assert len(order3) == 32

    X, Z = rephased4_generators()
    D = all_displacements(dim, X, Z)
    ph = np.array([tau_power(dim, -2), tau_power(dim, -7), tau_power(dim, -5), 1.0])
    P, Pinv = np.diag(ph), np.diag(1.0 / ph)
    cands = np.array([D[k] @ Pinv @ monomial_clifford(G, dim) @ P
                      for G in order3 for k in range(16)])
    for slot in range(4):
        for s in range(4):
            for t in range(4):
                for u in range(4):
                    f = fiducial_n4(slot, s, t, u).amplitudes
                    ov = np.abs(np.einsum("i,kij,j->k", f.conj(), cands, f))
                    assert ov.max() > 1 - 1e-8


def test_n4_weyl_covariance_spot_check():
    dim = Dimension(4)
    X, Z = rephased4_generators()
    D = all_displacements(dim, X, Z)
    f = fiducial_n4(2, 1, 0, 3)
    rng = np.random.default_rng(0)
    for _ in range(20):
        k = int(rng.integers(0, 16))
        g = Fiducial(dim, "rephased4", D[k] @ f.amplitudes)
        assert verify_sic(g, 1e-12).passed


# ---------------------------------------------------------------------------
# N = 9
# ---------------------------------------------------------------------------

def test_n9_group1_equations():
    for s0 in (1, -1):
        for s1 in (1, -1):
            for s2 in (1, -1):
                p1, p2, p3, p4 = fiducial_n9_amplitudes(s0, s1, s2)
                assert abs(p1 + p2 + 3 * p3 + 3 * p4 - 1) < 1e-12
                assert abs(p1 * p1 + p2 * p2 - p1 * p2 - 0.1) < 1e-12
                assert abs(3 * p3 * p3 + 3 * p4 * p4 + 3 * p3 * p4
                           - p3 - p4 + 0.1) < 1e-12


def test_n9_orbit_split_by_s0():
    """Only s0 changes the multiset of probabilities; s1, s2 do not."""
    base = np.sort(np.abs(fiducial_n9(1, 1, 1, 0, 0).amplitudes) ** 2)
    flipped = np.sort(np.abs(fiducial_n9(-1, 1, 1, 0, 0).amplitudes) ** 2)
    assert np.max(np.abs(base - flipped)) > 1e-3
    for s1, s2 in ((-1, 1), (1, -1), (-1, -1)):
        other = np.sort(np.abs(fiducial_n9(1, s1, s2, 0, 0).amplitudes) ** 2)
        assert np.max(np.abs(base - other)) < 1e-12


def test_n9_zauner_fixes_fiducials():
    dim = Dimension(9)
    U = monomial_zauner(dim)
    for s0 in (1, -1):
        f = fiducial_n9(s0, 1, -1, 1, 2)
        assert best_phase_distance(U @ f.amplitudes, f.amplitudes) < 1e-8


def test_n9_invalid_signs_rejected():
    with pytest.raises(ValueError):
        fiducial_n9(0, 1, 1, 0, 0)


def test_negative_radicand_detection():
    from whsic.sic import _checked_sqrt
    with pytest.raises(NegativeRadicand):
        _checked_sqrt(-1e-6, "probe")
    assert _checked_sqrt(-1e-14, "probe") == 0.0


# ---------------------------------------------------------------------------
# N = 16
# ---------------------------------------------------------------------------

def test_n16_both_branches_and_orbits():
    for branch in (1, -1):
        for conj in (False, True):
            f = fiducial_n16(branch, conj)
            assert verify_sic(f, 1e-8).max_abs_deviation < 1e-12
            g = to_standard(fiducial_n16(branch, conj))
            assert verify_sic(g, 1e-8).max_abs_deviation < 1e-12


def omega32_identity(elems: dict[str, float]) -> complex:
    """The N = 16 radicals give a primitive 32nd root of unity: the printed
    radical expression for it, at the embedding `elems`."""
    s2, t3, t4 = elems["sqrt2"], elems["t3"], elems["t4"]
    return 0.5 * ((s2 * (1.0 - t3) - 1.0) * t4 - 1j * t4)


@pytest.mark.parametrize("branch", [1, -1])
@pytest.mark.parametrize("conj", [False, True])
def test_n16_embedding_pins_omega32(branch, conj):
    elems = adapted16.field_elements(branch, conj)
    assert abs(omega32_identity(elems) - np.exp(1j * np.pi / 16)) < 1e-14


def test_adapted16_generators_match_signed_transcription():
    """Each entry is sign * tau^e as transcribed, tau = -exp(i pi/16)."""
    tau = -np.exp(1j * np.pi / 16)
    X, Z, T = adapted16.adapted16_generators()
    for M, entries in ((X, adapted16._X16_ENTRIES), (Z, adapted16._Z16_ENTRIES)):
        ref = np.zeros((16, 16), dtype=complex)
        for r, c, sg, e in entries:
            ref[r, c] = sg * tau ** e
        assert is_phase_permutation(M)
        assert np.max(np.abs(M - ref)) < 1e-12
    ref = np.zeros((16, 16), dtype=complex)
    for row, (cols, vals) in enumerate(adapted16._T_ROWS):
        for c, (sg, e) in zip(cols, vals):
            ref[row, c] = 0.5 * sg * tau ** e
    assert np.max(np.abs(T - ref)) < 1e-12


def test_n16_orbit_pair_differs():
    pa = np.sort(np.abs(fiducial_n16(1, False).amplitudes) ** 2)
    pb = np.sort(np.abs(fiducial_n16(1, True).amplitudes) ** 2)
    assert np.max(np.abs(pa - pb)) > 1e-3


# ---------------------------------------------------------------------------
# simplex identities
# ---------------------------------------------------------------------------

def test_simplex_projection_uniform():
    v = np.ones(9, dtype=complex) / 3.0
    p = np.abs(Fiducial(Dimension(9), "monomial", v).amplitudes) ** 2
    assert np.max(np.abs(p - 1.0 / 9)) < 1e-12


@pytest.mark.parametrize("make,N", [
    (lambda: fiducial_n4(1, 0, 2, 1), 4),
    (lambda: fiducial_n9(1, 1, 1, 0, 0), 9),
    (lambda: fiducial_n9(-1, -1, 1, 2, 1), 9),
])
def test_sum_p_squared(make, N):
    f = make()
    p = np.abs(f.amplitudes) ** 2
    assert abs(np.sum(p ** 2) - 2.0 / (N + 1)) < 1e-12


def test_autocorrelation_monomial_and_standard():
    f = fiducial_n4(0, 0, 0, 0)
    assert autocorrelation_check(f).max() < 1e-12
    # same fiducial in the standard basis
    g = to_standard(f)
    assert verify_sic(g, 1e-12).passed
    assert autocorrelation_check(g).max() < 1e-12
    assert autocorrelation_check(fiducial_n9(1, 1, 1, 0, 0)).max() < 1e-10
    assert autocorrelation_check(to_standard(fiducial_n16(1))).max() < 1e-10


def shifted_sums(P):
    """sum_u P[u] P[u + x] for every shift x of a 1D or 2D array, by loops."""
    out = np.empty(P.shape)
    for x in np.ndindex(P.shape):
        out[x] = np.sum(P * np.roll(P, [-t for t in x], axis=range(P.ndim)))
    return out


def test_autocorrelation_negative_control():
    rng = np.random.default_rng(5)
    v = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    v /= np.linalg.norm(v)
    res = autocorrelation_check(Fiducial(Dimension(9), "monomial", v))
    assert res.max() > 1e-2
    # the FFT correlation against the shift loops, in both shapes
    p = np.abs(v) ** 2
    for basis, P in (("monomial", p.reshape(3, 3)), ("standard", p)):
        target = np.full(P.shape, 0.1)
        target.flat[0] = 0.2
        res = autocorrelation_check(Fiducial(Dimension(9), basis, v))
        assert np.max(np.abs(res - np.abs(shifted_sums(P) - target))) < 1e-15


def test_projection_collapses_to_n_points():
    for f, (X, Z), n_expect in (
            (fiducial_n4(0, 0, 0, 0), rephased4_generators(), 4),
            (fiducial_n9(1, 1, 1, 0, 0), monomial_weyl_generators(Dimension(9)), 9)):
        dim = f.dim
        D = all_displacements(dim, X, Z)
        points = [np.abs(D[k] @ f.amplitudes) ** 2 for k in range(dim.N ** 2)]
        reps = []
        for p in points:
            if not any(np.max(np.abs(p - q)) < 1e-8 for q in reps):
                reps.append(p)
        assert len(reps) == n_expect
        # regular simplex: all pairwise dot products equal
        dots = [float(np.dot(reps[i], reps[j]))
                for i in range(len(reps)) for j in range(i + 1, len(reps))]
        assert max(dots) - min(dots) < 1e-10
        assert abs(dots[0] - 1.0 / (dim.N + 1)) < 1e-10


# ---------------------------------------------------------------------------
# order-3 projection and search
# ---------------------------------------------------------------------------

def test_zauner_project_idempotent_and_null():
    dim = Dimension(9)
    U = monomial_zauner(dim)
    w, vecs = np.linalg.eig(U)
    # the E0 projection in the monomial basis: V^dag B B^dag V
    VB = basis_change(dim, "monomial").conj().T @ _e0_basis(dim)
    fixed = vecs[:, int(np.argmin(np.abs(w - 1)))]
    out = VB @ (VB.conj().T @ fixed)
    assert best_phase_distance(out / np.linalg.norm(out), fixed) < 1e-10
    rotated = vecs[:, int(np.argmin(np.abs(w - np.exp(2j * np.pi / 3))))]
    assert np.linalg.norm(VB.conj().T @ rotated) < 1e-8


@pytest.mark.parametrize("N", [2, 3, 4, 5, 9, 12, 16, 24])
def test_e0_basis_spans_the_zauner_eigenspace(N):
    dim = Dimension(N)
    B = _e0_basis(dim)
    U = zauner_unitary(dim)
    assert B.shape == (N, predicted_eigenspace_dims(dim)[0])
    assert np.max(np.abs(B.conj().T @ B - np.eye(B.shape[1]))) < 1e-12
    assert np.max(np.abs(U @ B - B)) < 1e-10
    # B B^dag is the spectral projector (1 + U + U^2)/3 onto eigenvalue 1
    P = (np.eye(N) + U + U @ U) / 3.0
    assert np.max(np.abs(B @ B.conj().T - P)) < 1e-10


def test_search_matches_closed_form_statistics_n4():
    f = search_fiducial(Dimension(4), rng_seed=0)
    assert f is not None
    cert = verify_sic(f, 1e-10)
    assert cert.passed
    # overlap probability multiset matches the closed form's
    dim = Dimension(4)
    D = all_displacements(dim)
    probs = np.sort(np.abs(np.einsum("i,kij,j->k", f.amplitudes.conj(), D,
                                     f.amplitudes))[1:] ** 2)
    assert np.max(np.abs(probs - 0.2)) < 1e-9


# start seeds: 0 at N = 5..7, and the benchmark's search seeds above that
SEARCH_SEEDS = {5: 0, 6: 0, 7: 0, 8: 0, 12: 1, 16: 1, 20: 4, 24: 13}
# (restart, nit, nfev) of each benchmark search: the work of one `search` op
SEARCH_WORK = {8: (0, 23, 30), 12: (0, 24, 27), 16: (0, 21, 25),
               20: (0, 15, 16), 24: (0, 21, 22)}


@pytest.mark.parametrize("N", SEARCH_SEEDS)
def test_search_small_dimensions(N):
    f = search_fiducial(Dimension(N), rng_seed=SEARCH_SEEDS[N])
    assert f is not None
    assert verify_sic(f, 1e-8).passed
    # the restart index pins the L-BFGS trajectory. A changed bit in the E0
    # basis or the start draws moves it; changed rounding inside the
    # objective or in the L-BFGS direction moved no restart, iteration or
    # evaluation count over N = 5..48 and seeds 0..9
    assert f.provenance["restart"] == 0
    if N in SEARCH_WORK:
        work = tuple(f.provenance[k] for k in ("restart", "nit", "nfev"))
        assert work == SEARCH_WORK[N]


# the restart at which seed 0 first certifies, for every N = 2..24
SEED0_RESTART = {2: 0, 3: 0, 4: 1, 5: 0, 6: 0, 7: 0, 8: 0, 9: 0, 10: 0,
                 11: 0, 12: 6, 13: 3, 14: 0, 15: 0, 16: 4, 17: 0, 18: 3,
                 19: 4, 20: 5, 21: 1, 22: 6, 23: 0, 24: 4}


@pytest.mark.parametrize("N", SEED0_RESTART)
def test_search_seed0_restart_table(N):
    f = search_fiducial(Dimension(N), rng_seed=0)
    assert f is not None
    assert verify_sic(f, 1e-8).passed
    assert f.provenance["restart"] == SEED0_RESTART[N]


PARITY = {tuple(map(int, row.split("\t")[:2])): row for row in table_rows()}


def test_search_parity_table_covers_every_seeded_search():
    assert list(PARITY) == [(N, seed) for N in DIMS for seed in SEEDS]
    assert sum(row.split("\t")[2] == "1" for row in PARITY.values()) == 407


# 38 stratified rows of the parity table: seed -N mod 10 at every N up to
# 36 and at every even N above (one finds nothing), about 3 s on 2 vCPUs;
# CI checks all 440 rows
@pytest.mark.parametrize("N, seed", [(N, seed) for N, seed in PARITY
                                     if (N + seed) % 10 == 0
                                     and (N <= 36 or N % 2 == 0)])
def test_search_parity_table_subset(N, seed):
    assert search_row(N, seed) == PARITY[N, seed]


def test_search_n48_seed0_restart_34():
    """The `--dim` cap: seed 0 first certifies at restart 34, far below tol."""
    f = search_fiducial(Dimension(48), rng_seed=0)
    assert f is not None and f.provenance["restart"] == 34
    assert (f.provenance["nit"], f.provenance["nfev"]) == (58, 66)
    assert verify_sic(f).max_abs_deviation < 1e-11


def test_search_restart_index_is_pinned():
    """N = 16 from seed 0 first converges at restart 4, so the restart loop
    and its on-demand seeds are pinned as well as restart 0."""
    f = search_fiducial(Dimension(16), rng_seed=0)
    assert f is not None
    assert verify_sic(f, 1e-8).passed
    assert f.provenance["restart"] == 4


def test_search_one_pass_certifies_far_below_tol():
    """One L-BFGS pass per restart, at ftol = 1e-18 and gtol = 1e-14, keeps
    its curvature memory to the end: N = 5 from seed 0 certifies at about
    1.5e-14, where a second pass from empty memory stopped at 2.9e-12."""
    f = search_fiducial(Dimension(5), rng_seed=0)
    assert f is not None and f.provenance["restart"] == 0
    assert verify_sic(f).max_abs_deviation < 1e-13


@pytest.mark.parametrize("rng_seed", [0, 1, 13, 2**40 + 7])
def test_restart_seeds_match_spawned_children(rng_seed):
    """Restart k of search_fiducial draws from SeedSequence(rng_seed,
    spawn_key=(k,)): the child k of SeedSequence(rng_seed).spawn(50)."""
    children = np.random.SeedSequence(rng_seed).spawn(50)
    for k in (0, 1, 4, 34, 49):
        on_demand = np.random.SeedSequence(rng_seed, spawn_key=(k,))
        assert np.array_equal(
            np.random.default_rng(on_demand).standard_normal(64),
            np.random.default_rng(children[k]).standard_normal(64))


# ---------------------------------------------------------------------------
# the L-BFGS optimizer of the search
# ---------------------------------------------------------------------------

def test_lbfgs_quadratic_reaches_gtol():
    rng = np.random.default_rng(3)
    n = 30
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    A = Q @ np.diag(np.logspace(0, 2, n)) @ Q.T
    x_min = rng.standard_normal(n)

    def quadratic(x):
        e = x - x_min
        return 0.5 * e @ A @ e, A @ e

    res = _lbfgs(quadratic, np.zeros(n), 0.0, 1e-10, 1000)
    assert res.stop == "gtol"
    assert np.abs(quadratic(res.x)[1]).max() <= 1e-10
    assert np.abs(res.x - x_min).max() < 1e-10
    assert 0 < res.nit < res.nfev


def test_lbfgs_rosenbrock_reaches_gtol():
    def rosenbrock(x):
        a, b = x
        return ((1 - a) ** 2 + 100 * (b - a * a) ** 2,
                np.array([-2 * (1 - a) - 400 * a * (b - a * a),
                          200 * (b - a * a)]))

    res = _lbfgs(rosenbrock, np.array([-1.2, 1.0]), 0.0, 1e-10, 1000)
    assert res.stop == "gtol"
    assert np.abs(res.x - 1.0).max() < 1e-9
    # the same start under the other two stop rules
    capped = _lbfgs(rosenbrock, np.array([-1.2, 1.0]), 0.0, 1e-10, 5)
    assert capped.stop == "maxiter" and capped.nit == 5
    assert capped.fun > res.fun
    stalled = _lbfgs(rosenbrock, np.array([-1.2, 1.0]), 1e-3, 0.0, 1000)
    assert stalled.stop == "ftol" and stalled.nit < res.nit


def test_lbfgs_converged_pass_ends_in_line_search_failure():
    """Polished past F ~ 1e-20, roundoff defeats the sufficient-decrease
    test: the pass must end as a failed line search of LINE_SEARCH_EVALS
    evaluations, not loop to the iteration cap."""
    dim = Dimension(7)
    B = _e0_basis(dim)
    objective = _e0_objective(dim)
    seed = np.random.SeedSequence(0, spawn_key=(0,))
    x0 = np.random.default_rng(seed).standard_normal(2 * B.shape[1])
    x = _lbfgs(objective, x0, 1e-16, 1e-12, 1000).x
    F0 = objective(x)[0]
    assert F0 < 1e-20
    points = []

    def counted(x):
        points.append(x)
        return objective(x)

    # no tolerance can stop this pass: only the line search or the cap
    res = _lbfgs(counted, x, 0.0, 0.0, 10 ** 6)
    assert res.stop == "line search"
    assert res.nfev == len(points) < 100
    assert res.fun <= F0
    # the last LINE_SEARCH_EVALS evaluations are the failed line search
    # from the returned point
    assert np.array_equal(points[-LINE_SEARCH_EVALS - 1], res.x)


def two_loop(g, S, Y):
    """The textbook two-loop recursion, one vector update per pair."""
    q = g.copy()
    alphas = []
    for s, y in zip(S[::-1], Y[::-1]):
        alphas.append((s @ q) / (s @ y))
        q = q - alphas[-1] * y
    r = q * (S[-1] @ Y[-1]) / (Y[-1] @ Y[-1])
    for s, y, alpha in zip(S, Y, alphas[::-1]):
        r = r + (alpha - (y @ r) / (s @ y)) * s
    return -r


def ring_direction(g, S, Y):
    """-H g from a `_CurvatureRing` after pushing the rows of S and Y."""
    ring = _CurvatureRing(len(g))
    for s, y in zip(S, Y):
        ring.push(s, y)
    return ring.direction(g)


def curvature_pairs(m, n, seed):
    rng = np.random.default_rng(seed)
    S = rng.standard_normal((m, n))
    Y = S + 0.3 * rng.standard_normal((m, n))  # s.y > 0
    return S, Y, rng.standard_normal(n)


@pytest.mark.parametrize("m", [1, 2, 10])
def test_direction_matches_two_loop_recursion(m):
    S, Y, g = curvature_pairs(m, 34, m)
    d = ring_direction(g, S, Y)
    ref = two_loop(g, S, Y)
    assert np.abs(d - ref).max() <= 1e-12 * np.abs(ref).max()
    assert g @ d < 0
    assert np.array_equal(ring_direction(g, S[:0], Y[:0]), -g)


def test_ring_keeps_the_last_memory_pairs():
    """13 pairs into LBFGS_MEMORY = 10 slots: the ring wraps, and the
    direction is the recursion over the last 10 pairs alone."""
    assert LBFGS_MEMORY == 10
    S, Y, g = curvature_pairs(13, 34, 13)
    d = ring_direction(g, S, Y)
    ref = two_loop(g, S[-LBFGS_MEMORY:], Y[-LBFGS_MEMORY:])
    assert np.abs(d - ref).max() <= 1e-12 * np.abs(ref).max()
    assert g @ d < 0


@pytest.mark.parametrize("sign", [0.0, -1.0])
def test_ring_skips_a_pair_without_positive_curvature(sign):
    """A pair with s.y = 0 or s.y < 0 pushed among 5 good ones leaves the
    ring as it was: the direction is the recursion over the 5 alone."""
    S, Y, g = curvature_pairs(5, 34, 7)
    ring = _CurvatureRing(len(g))
    for k in range(5):
        ring.push(S[k], Y[k])
        if k == 2:
            ring.push(S[k], sign * S[k])
    d = ring.direction(g)
    assert np.array_equal(d, ring_direction(g, S, Y))
    ref = two_loop(g, S, Y)
    assert np.abs(d - ref).max() <= 1e-12 * np.abs(ref).max()
    assert ring.pairs == 5


def test_e0_basis_is_shared_read_only_and_bit_identical():
    for N in range(2, 49):
        dim = Dimension(N)
        B = _e0_basis(dim)
        assert B is _e0_basis(Dimension(N))
        assert not B.flags.writeable
        with pytest.raises(ValueError):
            B[0, 0] = 0
        assert np.array_equal(B, _e0_basis.__wrapped__(dim))


# ---------------------------------------------------------------------------
# the FFT overlap kernel against the dense displacement stack
# ---------------------------------------------------------------------------

@given(N=st.integers(1, 30), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_frame_residual_matches_dense_stack(N, seed):
    dim = Dimension(N)
    psi = random_unit(N, seed)
    D = all_displacements(dim)
    F, _ = frame_residual(psi)
    ref = sic_residual(psi, D, N)
    assert abs(F - ref) <= 1e-12 * ref
    u = np.arange(N)
    overlaps = tau_powers(dim, np.multiply.outer(u, u)) * standard_overlaps(psi)
    dense = np.einsum("i,kij,j->k", psi.conj(), D, psi).reshape(N, N)
    assert np.max(np.abs(overlaps - dense)) < 1e-13


def test_shift_tables_are_shared_read_only_and_bit_identical():
    rng = np.random.default_rng(5)
    for N in range(1, 49):
        u = np.arange(N)
        for sign in (1, -1):
            index = _shift_index(N, sign)
            assert index is _shift_index(N, sign)
            assert not index.flags.writeable
            assert np.array_equal(index, (u[None, :] + sign * u[:, None]) % N)
        gather = _row_shift_gather(N)
        assert gather is _row_shift_gather(N)
        assert not gather.flags.writeable
        M = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
        assert np.array_equal(
            M.ravel()[gather],
            np.take_along_axis(M, _shift_index(N, -1), axis=1))


@pytest.mark.parametrize("N", [2, 3, 7, 12])
def test_frame_residual_gradient_central_difference(N):
    """dF/dRe psi_u + i dF/dIm psi_u = 2 dF/d conj(psi_u)."""
    psi = random_unit(N, N)
    _, grad = frame_residual(psi)
    h = 1e-6
    numeric = np.zeros(N, dtype=complex)
    for u in range(N):
        for step in (h, 1j * h):
            e = np.zeros(N, dtype=complex)
            e[u] = step
            slope = (frame_residual(psi + e)[0] - frame_residual(psi - e)[0]) / (2 * h)
            numeric[u] += slope * step / h
    assert np.max(np.abs(numeric - 2 * grad)) < 1e-8 * np.max(np.abs(numeric))


def test_standard_overlaps_is_the_unscaled_inverse_fft_bit_for_bit():
    for N in range(1, 49):
        psi = random_unit(N, 1000 + N)
        ref = np.fft.ifft(psi[_shift_index(N, 1)].conj() * psi, axis=1,
                          norm="forward")
        assert np.array_equal(standard_overlaps(psi), ref)


@pytest.mark.parametrize("N", [2, 3, 7, 12, 48])
def test_e0_objective_gradient_central_difference(N):
    """dF/dx through psi = Bx x/|x| and the E0 basis, at a start that is
    not a unit vector; and the null x gives (1, 0)."""
    dim = Dimension(N)
    objective = _e0_objective(dim)
    assert objective is _e0_objective(Dimension(N))  # built once per N
    x = np.random.default_rng(N).standard_normal(2 * _e0_basis(dim).shape[1])
    F, grad = objective(x)
    h = 1e-6
    numeric = np.empty_like(x)
    for k in range(len(x)):
        e = np.zeros_like(x)
        e[k] = h
        numeric[k] = (objective(x + e)[0] - objective(x - e)[0]) / (2 * h)
    assert np.abs(numeric - grad).max() < 1e-8 * max(np.abs(numeric).max(), 1)
    # F is constant along x: the gradient has no radial part
    assert abs(grad @ x) < 1e-12 * max(np.abs(grad).max(), 1)
    assert objective(2.0 * x)[0] == pytest.approx(F, rel=1e-13, abs=1e-28)
    F0, g0 = objective(np.zeros_like(x))
    assert F0 == 1.0 and not g0.any() and g0.shape == x.shape


@pytest.mark.parametrize("branch", [1, -1])
@pytest.mark.parametrize("conj", [False, True])
def test_verify_sic_standard_and_dense_branches_agree(branch, conj):
    f = to_standard(fiducial_n16(branch, conj))
    psi = f.amplitudes
    dense = np.abs(np.einsum("i,kij,j->k", psi.conj(), all_displacements(f.dim),
                             psi)) ** 2
    dense_dev = np.abs(dense - 1.0 / 17)[1:].max()
    cert = verify_sic(f, 1e-8)
    assert abs(cert.max_abs_deviation - dense_dev) < 1e-14
    assert np.max(np.abs(np.abs(standard_overlaps(psi)) ** 2
                         - dense.reshape(16, 16))) < 1e-14
