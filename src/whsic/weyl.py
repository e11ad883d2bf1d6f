"""The displacement operators of the Weyl-Heisenberg group H(N), exactly.

X is the cyclic shift X|u> = |u+1> and Z the clock Z|u> = omega^u |u>, and
each displacement D_ij = tau^{ij} X^i Z^j is a `PhasePermutation`: one
(`displacement`, by powers by squaring) or all N^2 stacked (`displacements`,
by doubling), with integer tau exponents mod nbar. They obey the
composition law D_ij D_lm = tau^{lj - im} D_{i+l, j+m}, which the tests
check exactly against integer triples tau^k D_ij and densely for small N.
`all_displacements` is the dense stack, a float oracle that no command
builds.
"""

from __future__ import annotations

import numpy as np

from .dims import Dimension, PhasePermutation


def standard_generators(dim: Dimension) -> tuple[PhasePermutation, PhasePermutation]:
    """The cyclic shift X|u> = |u+1> and clock Z|u> = omega^u |u>."""
    u = np.arange(dim.N)
    return (PhasePermutation(dim, (u + 1) % dim.N, 0 * u),
            PhasePermutation(dim, u, 2 * u))


def _powers(P: PhasePermutation) -> PhasePermutation:
    """P^0, ..., P^{N-1}, stacked along a leading axis. The stack is built by
    doubling, P^{m+j} = P^j P^m for j < m: about log2(N) stacked products."""
    dim, N = P.dim, P.dim.N
    image, expo = np.empty((2, N, N), dtype=np.int64)
    image[0], expo[0] = np.arange(N), 0
    m, Pm = 1, P
    while m < N:
        n = min(m, N - m)
        Q = PhasePermutation._reduced(dim, image[:n], expo[:n]) @ Pm
        image[m:2 * m], expo[m:2 * m] = Q.image, Q.expo
        m, Pm = 2 * m, Pm @ Pm
    return PhasePermutation._reduced(dim, image, expo)


def displacement(X: PhasePermutation, Z: PhasePermutation, i: int,
                 j: int) -> PhasePermutation:
    """D_ij = tau^{ij} X^i Z^j, exactly, for integers i, j >= 0, from powers
    by squaring: O(N log N), and row i*N + j of `displacements(dim, X, Z)`
    for i, j < N."""
    XZ = None  # the identity
    for P, m in ((Z, j), (X, i)):
        while m:
            if m & 1:
                XZ = P if XZ is None else P @ XZ
            m >>= 1
            P = P @ P if m else P
    if XZ is None:
        return PhasePermutation(Z.dim, np.arange(Z.dim.N), 0 * Z.expo)
    return PhasePermutation(Z.dim, XZ.image, XZ.expo + i * j)


def displacements(dim: Dimension, X: PhasePermutation | None = None,
                  Z: PhasePermutation | None = None) -> PhasePermutation:
    """Every D_ij = tau^{ij} X^i Z^j, exactly, stacked at index i*N + j. X and
    Z default to the standard generators."""
    if X is None or Z is None:
        X, Z = standard_generators(dim)
    N = dim.N
    XZ = _powers(X) @ _powers(Z)
    ij = np.multiply.outer(np.arange(N), np.arange(N))[..., None]
    expo = ((XZ.expo + ij) % dim.nbar).reshape(N * N, N)
    return PhasePermutation._reduced(dim, XZ.image.reshape(N * N, N), expo)


def all_displacements(dim: Dimension, X: PhasePermutation | None = None,
                      Z: PhasePermutation | None = None) -> np.ndarray:
    """Stack of all N^2 displacement matrices, index (i*N + j, :, :)."""
    return displacements(dim, X, Z).dense()
