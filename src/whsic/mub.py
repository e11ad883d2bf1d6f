"""Unbiased bases from Latin squares in square dimensions N = n^2.

Everything here lives in the phase-permutation basis |r,s>. The standard
(Z-eigen) and Fourier (X-eigen) bases become

    |a+nb>_0   = (1/sqrt n) sum_r sigma^{br} |r,a>
    |a+nb>_inf = (1/sqrt n) sum_r sigma^{-br} omega^{-ar} |a,r>

and a candidate third basis has the shape

    |a+nb>_k = (1/sqrt n) sum_r w_k(r,a,b) |r, lam(r,a)>

with free unit phases w_k. Unbiasedness to the two eigenbases holds exactly
when lam is a Latin square, independently of the phases; orthonormality
within the basis constrains the phases. For n = p prime the squares
lam_k(r,a) = a + k r with eigenvector phases of the cyclic subgroup
generated by X^k Z^{-1} give p - 1 bases completing a family of p + 1
mutually unbiased bases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dims import Dimension, PhasePermutation, require_square, tau_powers
from .errors import DimensionMismatch, NotLatin, NotOrthonormal, NotPrime
from .monomial import flatten, monomial_weyl_generators


@dataclass(frozen=True)
class LatinSquare:
    n: int
    cells: tuple  # n rows of n entries in Z_n, indexed cells[r][a]

    @staticmethod
    def from_array(arr) -> "LatinSquare":
        a = np.asarray(arr, dtype=int)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("cells must be a square array")
        return LatinSquare(a.shape[0], tuple(tuple(int(x) % a.shape[0] for x in row)
                                             for row in a))

    def is_latin(self) -> bool:
        full = set(range(self.n))
        rows_ok = all(set(row) == full for row in self.cells)
        cols_ok = all({self.cells[r][a] for r in range(self.n)} == full
                      for a in range(self.n))
        return rows_ok and cols_ok


def cyclic_latin_square(n: int, k: int) -> LatinSquare:
    """lam(r, a) = a + k*r mod n; Latin whenever gcd(k, n) = 1."""
    return LatinSquare(n, tuple(tuple((a + k * r) % n for a in range(n))
                                for r in range(n)))


@dataclass(frozen=True)
class Basis:
    """N vectors in monomial coordinates, stored as the columns of `vectors`."""

    dim: Dimension
    vectors: np.ndarray
    label: str

    def gram_deviation(self) -> float:
        G = self.vectors.conj().T @ self.vectors
        return float(np.max(np.abs(G - np.eye(self.dim.N))))


def eigenbasis_zero(dim: Dimension) -> Basis:
    """Eigenbasis of Z in monomial coordinates: Z|u>_0 = omega^u |u>_0.

    It is the Latin basis of lam(r, a) = a with phases sigma^{+br}; the
    opposite sign would flip the eigenvalue of the n-part of u (Z decreases r
    by one, so the Fourier phase over r must run with a positive exponent to
    produce omega^{a+nb}).
    """
    n = require_square(dim)
    r, _, b = np.indices((n, n, n))
    return latin_basis(dim, cyclic_latin_square(n, 0),
                       tau_powers(dim, 2 * n * b * r), "zero")


def eigenbasis_infinity(dim: Dimension) -> Basis:
    """Eigenbasis of X in monomial coordinates: X|u>_inf = omega^u |u>_inf."""
    n = require_square(dim)
    a, b, r = np.indices((n, n, n))
    # sigma^{-br} omega^{-ar} = tau^{-2nbr - 2ar}
    phase = tau_powers(dim, -2 * n * b * r - 2 * a * r)
    V = np.zeros((dim.N, dim.N), dtype=complex)
    V[flatten(a, r, n), a + n * b] = phase / np.sqrt(n)
    return Basis(dim, V, "infinity")


def latin_basis(dim: Dimension, lam: LatinSquare, phases: np.ndarray,
                label: str = "latin") -> Basis:
    """Vectors |a+nb> = (1/sqrt n) sum_r phases[r,a,b] |r, lam(r,a)>.

    phases has shape (n, n, n) indexed (r, a, b) with unit-modulus entries.
    The Gram matrix must be the identity within 1e-10, otherwise
    NotOrthonormal names an offending pair. lam need not actually be Latin;
    unbiasedness claims then fail downstream, not here.
    """
    n = require_square(dim)
    if lam.n != n:
        raise DimensionMismatch(f"Latin square order {lam.n} != n = {n}")
    phases = np.asarray(phases, dtype=complex)
    if phases.shape != (n, n, n):
        raise ValueError(f"phase table must have shape {(n, n, n)}")
    if np.max(np.abs(np.abs(phases) - 1.0)) > 1e-10:
        raise ValueError("phase table entries must have unit modulus")
    N = dim.N
    r, a, b = np.indices((n, n, n))
    V = np.zeros((N, N), dtype=complex)
    V[flatten(r, np.array(lam.cells)[r, a], n), a + n * b] = phases / np.sqrt(n)
    G = V.conj().T @ V
    dev = np.abs(G - np.eye(N))
    if dev.max() > 1e-10:
        u, v = np.unravel_index(int(np.argmax(dev)), dev.shape)
        raise NotOrthonormal(
            f"vectors {u} and {v} fail orthonormality by {dev.max():.3e}")
    return Basis(dim, V, label)


@dataclass(frozen=True)
class UnbiasedReport:
    passed: bool
    max_abs_deviation: float


def is_unbiased(A: Basis, B: Basis, tol: float = 1e-10) -> UnbiasedReport:
    """Max over vector pairs of | |<a|b>|^2 - 1/N |."""
    if A.dim.N != B.dim.N:
        raise DimensionMismatch(f"dimensions differ: {A.dim.N} vs {B.dim.N}")
    N = A.dim.N
    overlaps = np.abs(A.vectors.conj().T @ B.vectors) ** 2
    dev = float(np.max(np.abs(overlaps - 1.0 / N)))
    return UnbiasedReport(dev <= tol, dev)


def prime_family(p: int) -> list[Basis]:
    """p + 1 mutually unbiased bases in dimension p^2.

    The first two are the Z and X eigenbases; basis k (k = 1..p-1) is the
    eigenbasis of the order-N cyclic subgroup generated by X^k Z^{-1}, whose
    orbits on the monomial labels trace the Latin square lam_k(r,a) = a + kr.
    The eigenvector phases are accumulated along each orbit and the
    eigenvalue branch is the principal n-th root of the loop phase, so the
    output is deterministic.
    """
    if p < 2 or any(p % d == 0 for d in range(2, math.isqrt(p) + 1)):
        raise NotPrime(f"{p} is not prime")
    dim = Dimension(p * p)
    N, n = dim.N, p
    X, Z = monomial_weyl_generators(dim)
    inv = np.argsort(Z.image)
    A = PhasePermutation(dim, inv, -Z.expo[inv])  # Z^{-1}, exactly
    r, a = np.indices((n, n))
    b = np.arange(n)
    bases = [eigenbasis_zero(dim), eigenbasis_infinity(dim)]
    for k in range(1, p):
        A = X @ A  # X^k Z^{-1}
        # A carries orbit point r to r + 1 (cyclically) with phase tau^step
        step = A.expo[flatten(r, a + k * r, n)]
        prefix = np.cumsum(step, axis=0) - step
        # the loop phase is tau^loop = e^{i pi m/N}, m taken in (-N, N] so
        # that its principal n-th root e^{i pi m/(N n)} is the eigenvalue:
        # tau^{(N+1) m/n}, as (N+1)^2 = 1 + N(N+2), once n | m (2n if N odd)
        m = (step.sum(axis=0) * (N + 1)) % (2 * N)
        m -= 2 * N * (m > N)
        assert (m % (n * (1 + N % 2)) == 0).all(), "root is no tau power"
        # tau^prefix mu^{-r} at (r, a, b); mu = root sigma^b, sigma = tau^{2n}
        root_r = (N + 1) * (m // n) * r
        phases = tau_powers(dim, (prefix - root_r)[..., None]
                            - 2 * n * r[..., None] * b)
        bases.append(latin_basis(dim, cyclic_latin_square(n, k), phases,
                                 f"latin({k})"))
    return bases


def mols_check(squares: list[LatinSquare]) -> bool:
    """True iff every pair of squares is orthogonal (superposing the two
    arrays yields all n^2 ordered symbol pairs)."""
    for sq in squares:
        if not sq.is_latin():
            raise NotLatin(f"square of order {sq.n} violates the Latin property")
    for i, A in enumerate(squares):
        for B in squares[i + 1:]:
            if A.n != B.n:
                raise DimensionMismatch(f"orders differ: {A.n} vs {B.n}")
            pairs = {(A.cells[r][a], B.cells[r][a])
                     for r in range(A.n) for a in range(A.n)}
            if len(pairs) != A.n * A.n:
                return False
    return True


def entanglement_check(basis: Basis) -> float:
    """Max deviation of the singular values of each vector's n x n coefficient
    matrix from 1/sqrt(n); 0 up to roundoff means every vector is maximally
    entangled across the n (x) n split."""
    n = require_square(basis.dim)
    sv = np.linalg.svd(basis.vectors.T.reshape(-1, n, n), compute_uv=False)
    return float(np.max(np.abs(sv - 1.0 / np.sqrt(n))))
