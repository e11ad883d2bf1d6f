"""Phase-permutation representation for square dimensions N = n^2.

The basis |r,s> = n^-1/2 sum_t omega^{-ntr} |nt+s>, r,s mod n flattened as
r*n + s, is the monomial tag of `sic.basis_change`. The generators act by

    X|r,s> = |r,s+1>            (wrap: X|r,n-1> = sigma^r |r,0>)
    Z|r,s> = omega^s |r-1,s>

and a symplectic G with beta coprime to nbar acts by

    U_G|r,s> = tau^{beta^{-1}(delta s'^2 - 2 s s' + alpha s^2)}
               |delta r - gamma s + m gamma delta, -beta r + alpha s + m alpha beta>

with s' = -beta r + alpha s + m alpha taken in [0, n) and m = 0 (n odd) or n/2
(n even), set in `monomial_clifford`. These are exact `PhasePermutation`s, so
covariance U_G D_ij U_G^dag = tau^c D_{G(i,j)} is an integer check, and it
holds for all N^2 displacements once it holds for the generators D_01 and D_10
(`covariance_witness`): the `checked_displacements` of `verify monomial`,
samples * N^2, counts the displacements certified through them. The float
checks `is_phase_permutation` and `clifford.conjugation_check_batched` are
oracles that the tests and the `certify` benchmark call. `invariant_subgroup`
states the paper's theorem, a monomial representation exactly when N is a
square, from the SL(2, N) orbits that `sl2_orbit` builds with witnesses.

The generators' formula, `_weyl_images`, reads ints and arrays alike:
`monomial_weyl_tables` gives X and Z as tuples of Python ints, which the
closed-form SIC certificate reads, so `verify sic --builtin n4|n9` loads
this module without numpy; numpy is imported only inside the functions
that build arrays.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

from .dims import Dimension, PhasePermutation, flatten, require_square

if TYPE_CHECKING:  # weyl and clifford load only with the functions below
    import numpy as np

    from .clifford import SymplecticMatrix


def _weyl_images(r, s, n: int):
    """((image, expo) of X, (image, expo) of Z) at |r,s>, for ints or
    arrays alike."""
    # the wrap X|r,n-1> = sigma^r |r,0> carries tau^{2nr}
    return ((flatten(r, s + 1, n), 2 * n * r * (s == n - 1)),
            (flatten(r - 1, s, n), 2 * s))


def monomial_weyl_tables(dim: Dimension) -> tuple[tuple, tuple]:
    """(X, Z) on the |r,s> basis as (image, expo) tuples of Python ints."""
    n = require_square(dim)
    X, Z = zip(*(_weyl_images(*divmod(k, n), n) for k in range(dim.N)))
    return tuple(zip(*X)), tuple(zip(*Z))


def monomial_weyl_generators(dim: Dimension) -> tuple[PhasePermutation, PhasePermutation]:
    """(X, Z) acting on the |r,s> basis."""
    import numpy as np
    n = require_square(dim)
    r, s = np.divmod(np.arange(dim.N), n)
    return tuple(PhasePermutation(dim, image, expo)
                 for image, expo in _weyl_images(r, s, n))


def monomial_clifford(G: SymplecticMatrix, dim: Dimension) -> PhasePermutation:
    """Phase-permutation unitary of a symplectic G on the |r,s> basis: the
    product of one monomial chirp per factor of `chirp_factors`, with phase
    tau^E(s', s) for the quadratic form E of its `chirp_coefficients`."""
    import numpy as np

    from .clifford import chirp_coefficients, chirp_factors
    n = require_square(dim)
    m = 0 if n % 2 else n // 2
    r, s = np.divmod(np.arange(dim.N), n)
    Fs = chirp_factors(G, dim)
    chirps = []
    for F, (c_uu, c_uv, c_vv) in zip(Fs, chirp_coefficients(Fs, dim)):
        a, b, g_, d = F.alpha, F.beta, F.gamma, F.delta
        sp = (-b * r + a * s + m * a) % n
        rp = (d * r - g_ * s + m * g_ * d) % n
        expo = c_uu * sp * sp + c_uv * s * sp + c_vv * s * s
        chirps.append(PhasePermutation(dim, flatten(rp, sp, n), expo))
    return chirps[0] if len(chirps) == 1 else chirps[0] @ chirps[1]


def monomial_antiunitary(dim: Dimension, v: np.ndarray) -> np.ndarray:
    """Anti-unitary of J: conjugate amplitudes and send (r,s) -> (-r, s)."""
    import numpy as np
    n = require_square(dim)
    r, s = np.divmod(np.arange(dim.N), n)
    # (r,s) -> (-r,s) is an involution, so gathering through it also scatters
    return np.conj(np.asarray(v, dtype=complex))[flatten(-r, s, n)]


def covariance_witness(G: SymplecticMatrix, U: PhasePermutation,
                       ijs=((0, 1), (1, 0))) -> tuple[int, int] | None:
    """First (i, j) of ijs where U D_ij U^dag is no tau power of D_{G(i,j)}
    in U's basis, or None: U D_ij and D_{G(i,j)} U differ in image or in
    exponent shift. Conjugation is a homomorphism and D_ij = tau^{ij} X^i
    Z^j, so the default Z = D_01, then X = D_10, decide all N^2: if D_01
    holds, so does every D_0j, so the first failure of the two is the first
    in the order i*N + j."""
    import numpy as np

    from .weyl import displacement
    dim = U.dim
    X, Z = monomial_weyl_generators(dim)
    for i, j in ijs:
        lhs = U @ displacement(X, Z, i, j)
        rhs = displacement(X, Z, *G.apply(i, j, dim.N)) @ U
        shift = (lhs.expo - rhs.expo) % dim.nbar
        if not (np.array_equal(lhs.image, rhs.image)
                and (shift == shift[0]).all()):
            return i, j
    return None


def is_phase_permutation(M, tol: float = 1e-10) -> bool:
    """True iff every row and column carries exactly one unit-modulus entry
    and everything else is below tol: the float oracle for `.dense()`."""
    import numpy as np
    absM = np.abs(np.asarray(M))
    big = absM > tol
    if not (big.sum(axis=0) == 1).all() or not (big.sum(axis=1) == 1).all():
        return False
    return bool(np.all(np.abs(absM[big] - 1.0) <= tol))


# ---------------------------------------------------------------------------
# SL(2, N) orbits on Z_N^2 and the stabilized-subgroup criterion
# ---------------------------------------------------------------------------

def vector_order(v: tuple[int, int], N: int) -> int:
    """Least k >= 1 with k*v == 0 mod N."""
    return N // math.gcd(v[0] % N, v[1] % N, N)


def _primitive_lift(w: tuple[int, int], k: int, N: int) -> tuple[int, int]:
    """A vector w' of order N with (N/k) * w' == w mod N.

    The plain componentwise quotient w // (N/k) solves the divisibility but
    may have order < N (e.g. (4,4)/2 = (2,2) at N = 6); shifting components
    by multiples of k fixes the order without changing (N/k) * w'.
    """
    scale = N // k
    w0 = (w[0] // scale, w[1] // scale)
    for a in range(scale):
        for b in range(scale):
            cand = ((w0[0] + k * a) % N, (w0[1] + k * b) % N)
            if vector_order(cand, N) == N:
                return cand
    raise AssertionError("no primitive lift found; contradicts gcd argument")


class OrbitReport(NamedTuple):
    order: int
    members: frozenset
    witness_maps: dict  # member -> SymplecticMatrix mapping the base point to it


def sl2_orbit(dim: Dimension, v: tuple[int, int]) -> OrbitReport:
    """Orbit of v under SL(2, N): all vectors of the same order, with an
    explicit symplectic witness per member built from the constructive
    transitivity proof."""
    from .clifford import SymplecticMatrix, _column_completion
    N = dim.N
    v = (v[0] % N, v[1] % N)
    k = vector_order(v, N)
    members = frozenset(
        (i, j) for i in range(N) for j in range(N) if vector_order((i, j), N) == k
    )
    if k == 1:
        return OrbitReport(1, members, {(0, 0): SymplecticMatrix(1, 0, 0, 1)})
    Sv = _column_completion(_primitive_lift(v, k, N), N)
    Sv_inv = Sv.inv(N)
    witnesses = {}
    for w in members:
        Sw = _column_completion(_primitive_lift(w, k, N), N)
        S = Sw.mul(Sv_inv, N)
        assert S.apply(v[0], v[1], N) == w
        witnesses[w] = S
    return OrbitReport(k, members, witnesses)


def invariant_subgroup(dim: Dimension) -> frozenset | None:
    """The order-N subgroup of Z_N^2 that SL(2, N) maps into itself: n * Z_N^2
    when N = n^2, and None otherwise.

    SL(2, N) is transitive on the vectors of each order k | N (`sl2_orbit`
    builds a witness per member), so an invariant subgroup V that holds a
    vector of order k holds all of them, (N/k, 0) and (0, N/k) among them,
    and with those the k-torsion subgroup (N/k) * Z_N^2. With orders k1 and
    k2, V holds (N/k1, 0) + (0, N/k2), of order lcm(k1, k2). So V is the
    m-torsion subgroup (N/m) * Z_N^2 for its largest order m, of order m^2;
    order N means N = m^2.
    """
    n = dim.n
    return None if n is None else frozenset(
        (n * a, n * b) for a in range(n) for b in range(n))

