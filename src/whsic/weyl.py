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

import math
from dataclasses import dataclass

import numpy as np

from .dims import Dimension, phase_permutation, tau_power, tau_powers
from .errors import NotCoprime


def mod_inverse(a: int, m: int) -> int:
    """Multiplicative inverse of a mod m; raises NotCoprime if it does not exist."""
    if m <= 0:
        raise ValueError(f"modulus must be positive, got {m}")
    if math.gcd(a, m) != 1:
        raise NotCoprime(f"{a} is not invertible mod {m}")
    return pow(a, -1, m)


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
    # D_{ij} D_{-i,-j} = tau^{(-i)j - i(-j)} D_00 = D_00
    inv = canonicalize(GroupElement(-g.k, -g.i, -g.j), dim)
    # fix any residual phase picked up by canonicalization
    res = compose(g, inv, dim)
    return canonicalize(GroupElement(inv.k - res.k, inv.i, inv.j), dim)


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


def standard_generators(dim: Dimension) -> tuple[np.ndarray, np.ndarray]:
    """The cyclic shift X|u> = |u+1> and clock Z|u> = omega^u |u>."""
    u = np.arange(dim.N)
    return (phase_permutation(dim, (u + 1) % dim.N, u, 0),
            phase_permutation(dim, u, u, 2 * u))


def displacement_matrix(dim: Dimension, i: int, j: int) -> np.ndarray:
    """D_{ij} = tau^{ij} X^i Z^j in the standard basis: tau^{ij + 2jv} at
    (v + i, v)."""
    v = np.arange(dim.N)
    return phase_permutation(dim, (v + i) % dim.N, v, i * j + 2 * j * v)


def displacement_matrix_from(X: np.ndarray, Z: np.ndarray, dim: Dimension,
                             i: int, j: int) -> np.ndarray:
    """D_{ij} built from arbitrary generator matrices for the same dimension."""
    return tau_power(dim, i * j) * (
        np.linalg.matrix_power(X, i % dim.N) @ np.linalg.matrix_power(Z, j % dim.N)
    )


def all_displacements(dim: Dimension, X: np.ndarray | None = None,
                      Z: np.ndarray | None = None) -> np.ndarray:
    """Stack of all N^2 displacement matrices, index (i*N + j, :, :)."""
    N = dim.N
    if X is None or Z is None:
        i, j, v = np.ogrid[:N, :N, :N]
        out = np.zeros((N, N, N, N), dtype=complex)
        out[i, j, (v + i) % N, v] = tau_powers(dim, i * j + 2 * j * v)
        return out.reshape(N * N, N, N)
    out = np.zeros((N * N, N, N), dtype=complex)
    Xp = [np.eye(N, dtype=complex)]
    Zp = [np.eye(N, dtype=complex)]
    for _ in range(N - 1):
        Xp.append(Xp[-1] @ X)
        Zp.append(Zp[-1] @ Z)
    for i in range(N):
        for j in range(N):
            out[i * N + j] = tau_power(dim, i * j) * (Xp[i] @ Zp[j])
    return out


def element_matrix(g: GroupElement, dim: Dimension) -> np.ndarray:
    """Dense matrix of tau^k D_{ij} in the standard basis."""
    return tau_power(dim, g.k) * displacement_matrix(dim, g.i, g.j)
