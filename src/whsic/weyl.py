"""Exact arithmetic for the finite Weyl-Heisenberg group H(N).

Group elements are stored as integer triples tau^k D_{ij} with
D_{ij} = tau^{ij} X^i Z^j; all phase exponents live mod nbar and all
displacement indices mod N. The composition law is

    D_{ij} D_{lm} = tau^{lj - im} D_{i+l, j+m},

and folding an index back into [0, N) picks up the phases
D_{i+N,j} = tau^{Nj} D_{ij} and D_{i,j+N} = tau^{Ni} D_{ij}.
The reduction rule is validated exhaustively against dense matrices for
small N in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dims import Dimension, PhasePermutation


@dataclass(frozen=True)
class GroupElement:
    """tau^k D_{ij}; canonical when 0 <= k < nbar and 0 <= i, j < N."""

    k: int
    i: int
    j: int


def identity_element() -> GroupElement:
    return GroupElement(0, 0, 0)


def canonicalize(g: GroupElement, dim: Dimension) -> GroupElement:
    """Reduce (k, i, j) to the canonical representative, tracking the fold phases."""
    N, nbar = dim.N, dim.nbar
    k, i, j = g.k, g.i, g.j
    # i = i0 + N*q  =>  D_{ij} = tau^{N*q*j} D_{i0,j}
    i0 = i % N
    q = (i - i0) // N
    k += N * q * j
    # j = j0 + N*q' =>  D_{i0,j} = tau^{N*q'*i0} D_{i0,j0}
    j0 = j % N
    qp = (j - j0) // N
    k += N * qp * i0
    return GroupElement(k % nbar, i0, j0)


def compose(g1: GroupElement, g2: GroupElement, dim: Dimension) -> GroupElement:
    """Exact product tau^{k1} D_{i1 j1} * tau^{k2} D_{i2 j2}."""
    k = g1.k + g2.k + (g2.i * g1.j - g1.i * g2.j)
    return canonicalize(GroupElement(k, g1.i + g2.i, g1.j + g2.j), dim)


def inverse(g: GroupElement, dim: Dimension) -> GroupElement:
    """The exact group inverse of a canonical element."""
    # D_{ij} D_{-i,-j} = tau^{(-i)j - i(-j)} D_00 = D_00 exactly
    return canonicalize(GroupElement(-g.k, -g.i, -g.j), dim)


def element_order(g: GroupElement, dim: Dimension) -> int:
    """Least m >= 1 with g^m equal to the identity triple."""
    g = canonicalize(g, dim)
    acc = g
    ident = identity_element()
    cap = dim.nbar * dim.N * dim.N + 1
    for m in range(1, cap + 1):
        if acc == ident:
            return m
        acc = compose(acc, g, dim)
    raise AssertionError("element order exceeded group-size bound")


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
