"""Unbiased bases from Latin squares in square dimensions N = n^2.

A basis lives in the phase-permutation basis |r,s> as n lines of n grid
points and the integers of `Basis`; its vectors are

    |a+nb> = (1/sqrt n) sum_r tau^{expo[a,r] + fourier b r} |lines[a,r]>.

The Z eigenbasis has the lines {(r, a)}, the X eigenbasis the lines
{(a, r)}, and the Latin basis of a square lam the lines {(r, lam(r,a))}.
Orthonormality is exact once the lines partition the grid and tau^fourier
has order n; unbiasedness is exact once every line of one basis meets
every line of the other once, which a Latin square's lines do with those
of both eigenbases, whatever the exponents. For n = p prime the squares
lam_k(r,a) = a + k r with eigenvector phases of the cyclic subgroup
generated by X^k Z^{-1} give p - 1 bases completing a family of p + 1
mutually unbiased bases.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .dims import Dimension, PhasePermutation, require_square, tau_powers
from .errors import DimensionMismatch, NotOrthonormal, NotPrime
from .monomial import flatten, monomial_weyl_generators


def cyclic_latin_square(n: int, k: int) -> np.ndarray:
    """lam[r, a] = a + k*r mod n; Latin whenever gcd(k, n) = 1."""
    return np.add.outer(k * np.arange(n), np.arange(n)) % n


@dataclass(frozen=True)
class Basis:
    """N vectors as integers: row a of `lines` holds the flat labels r*n + s
    of line a, `expo` the tau exponents of vector a on them, and vector
    a + nb steps by tau^{fourier r}. Vectors on disjoint lines are
    orthogonal, and those of one line are the characters of Z_n when
    tau^fourier has order n: otherwise, or if the lines do not partition
    the grid, NotOrthonormal."""

    dim: Dimension
    lines: np.ndarray
    expo: np.ndarray
    fourier: int
    label: str

    def __post_init__(self):
        n = require_square(self.dim)
        if np.shape(self.lines) != (n, n) or np.shape(self.expo) != (n, n):
            raise DimensionMismatch(
                f"line and exponent tables must have shape {(n, n)}")
        if not np.array_equal(np.sort(self.lines, axis=None),
                              np.arange(self.dim.N)):
            raise NotOrthonormal(
                f"the lines of {self.label} do not partition the grid")
        order = self.dim.nbar // math.gcd(self.fourier, self.dim.nbar)
        if order != n:
            raise NotOrthonormal(
                f"tau^{self.fourier} has order {order}, not n = {n}")

    @functools.cached_property
    def vectors(self) -> np.ndarray:
        """The vectors as the columns of a dense N x N matrix."""
        n = self.dim.n
        a, b, r = np.indices((n, n, n))
        V = np.zeros((self.dim.N, self.dim.N), dtype=complex)
        V[self.lines[a, r], a + n * b] = tau_powers(
            self.dim, self.expo[a, r] + self.fourier * b * r) / np.sqrt(n)
        return V


def eigenbasis_zero(dim: Dimension) -> Basis:
    """Eigenbasis of Z in monomial coordinates: Z|u>_0 = omega^u |u>_0.
    Its lines are those of lam(r, a) = a, and its step is sigma^{+r}: Z
    lowers r by one, so only a positive exponent gives omega^{a+nb}."""
    n = require_square(dim)
    return Basis(dim, np.arange(dim.N).reshape(n, n).T,
                 np.zeros((n, n), dtype=int), 2 * n, "zero")


def eigenbasis_infinity(dim: Dimension) -> Basis:
    """Eigenbasis of X in monomial coordinates: X|u>_inf = omega^u |u>_inf,
    with |a+nb>_inf = (1/sqrt n) sum_r sigma^{-br} omega^{-ar} |a,r>."""
    n = require_square(dim)
    grid = np.arange(n)
    # sigma^{-br} omega^{-ar} = tau^{-2nbr - 2ar}
    return Basis(dim, np.arange(dim.N).reshape(n, n),
                 -2 * np.outer(grid, grid), -2 * n, "infinity")


def latin_basis(dim: Dimension, lam: np.ndarray, expo: np.ndarray,
                label: str = "latin") -> Basis:
    """Vectors |a+nb> = (1/sqrt n) sum_r tau^{expo[r,a] - 2nbr} |r, lam[r,a]>.

    lam, read mod n, and the integer exponents expo are n x n tables
    indexed (r, a). Each row of lam must permute Z_n, or the lines overlap
    (NotOrthonormal); a column that repeats a value leaves the basis biased
    against `eigenbasis_zero`, which `unbiased_witness` names.
    """
    n = require_square(dim)
    r = np.indices(np.shape(lam))[0]
    return Basis(dim, flatten(r, np.asarray(lam), n).T, np.transpose(expo),
                 -2 * n, label)


def unbiased_witness(A: Basis, B: Basis) -> tuple[int, int, int] | None:
    """None when A and B are mutually unbiased, else the first line a of A
    and a' of B, in the order a*n + a', that do not meet in exactly one
    point, with the number of points where they meet.

    Vectors on lines that meet in one point share only that point, with
    amplitudes of modulus 1/sqrt n, so |<u|v>|^2 = 1/N exactly. The n
    vectors of a line span the functions on its points, so the n^2 values
    |<u|v>|^2 of lines that meet in m points sum to m: all are 1/N only if
    m = 1."""
    if A.dim.N != B.dim.N:
        raise DimensionMismatch(f"dimensions differ: {A.dim.N} vs {B.dim.N}")
    n = A.dim.n
    # the line through each point: its flat position in the table, over n
    on_a, on_b = (np.argsort(X.lines, axis=None) // n for X in (A, B))
    meets = np.bincount(on_a * n + on_b, minlength=A.dim.N)
    bad = np.flatnonzero(meets != 1)
    return (*divmod(int(bad[0]), n), int(meets[bad[0]])) if bad.size else None


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
        # tau^prefix mu^{-r} at (r, a); mu = root sigma^b, where sigma =
        # tau^{2n} and latin_basis steps by sigma^{-r} in b
        root_r = (N + 1) * (m // n) * r
        bases.append(latin_basis(dim, cyclic_latin_square(n, k),
                                 prefix - root_r, f"latin({k})"))
    return bases


def entanglement_check(basis: Basis) -> float:
    """Max deviation of the singular values of each vector's n x n coefficient
    matrix from 1/sqrt(n); 0 up to roundoff means every vector is maximally
    entangled across the n (x) n split."""
    n = require_square(basis.dim)
    sv = np.linalg.svd(basis.vectors.T.reshape(-1, n, n), compute_uv=False)
    return float(np.max(np.abs(sv - 1.0 / np.sqrt(n))))
