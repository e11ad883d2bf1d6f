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
mutually unbiased bases. The tables are Python ints; only the float oracles
`Basis.vectors` and `is_unbiased` import numpy.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import NamedTuple

from .dims import Dimension, flatten, require_square, tau_powers
from .errors import DimensionMismatch, NotOrthonormal, NotPrime


def _table(rows, n: int) -> tuple:
    """rows as an n x n tuple of Python ints, or DimensionMismatch."""
    table = tuple(tuple(map(int, r)) for r in rows if hasattr(r, "__iter__"))
    if len(table) != n or {len(row) for row in table} != {n}:
        raise DimensionMismatch(f"tables must have shape {(n, n)}")
    return table


def cyclic_latin_square(n: int, k: int) -> tuple:
    """lam[r][a] = a + k*r mod n; Latin whenever gcd(k, n) = 1."""
    return tuple(tuple((a + k * r) % n for a in range(n)) for r in range(n))


class Basis(NamedTuple("Basis", [("dim", Dimension), ("lines", tuple),
                                  ("expo", tuple), ("fourier", int),
                                  ("label", str)])):
    """N vectors as integers: row a of `lines` holds the flat labels r*n + s
    of line a, `expo` the tau exponents of vector a on them, and vector
    a + nb steps by tau^{fourier r}. Vectors on disjoint lines are
    orthogonal, and those of one line are the characters of Z_n when
    tau^fourier has order n: otherwise, or if the lines do not partition
    the grid, NotOrthonormal. `lines` and `expo` are read from any n x n
    tables into tuples of ints. No `__slots__`: `vectors` caches in the
    instance `__dict__`."""

    def __new__(cls, dim: Dimension, lines, expo, fourier: int, label: str):
        n = require_square(dim)
        lines, expo = _table(lines, n), _table(expo, n)
        if sorted(itertools.chain(*lines)) != list(range(dim.N)):
            raise NotOrthonormal(f"the lines of {label} do not partition the grid")
        order = dim.nbar // math.gcd(fourier, dim.nbar)
        if order != n:
            raise NotOrthonormal(f"tau^{fourier} has order {order}, not n = {n}")
        return super().__new__(cls, dim, lines, expo, fourier, label)

    @functools.cached_property
    def vectors(self):
        """The vectors as the columns of a dense N x N matrix."""
        import numpy as np
        n, lines, expo = self.dim.n, np.array(self.lines), np.array(self.expo)
        a, b, r = np.indices((n, n, n))
        V = np.zeros((self.dim.N, self.dim.N), dtype=complex)
        V[lines[a, r], a + n * b] = tau_powers(
            self.dim, expo[a, r] + self.fourier * b * r) / np.sqrt(n)
        return V


def eigenbasis_zero(dim: Dimension) -> Basis:
    """Eigenbasis of Z in monomial coordinates: Z|u>_0 = omega^u |u>_0.
    Its lines are those of lam(r, a) = a, and its step is sigma^{+r}: Z
    lowers r by one, so only a positive exponent gives omega^{a+nb}."""
    n = require_square(dim)
    return Basis(dim, [range(a, dim.N, n) for a in range(n)], [[0] * n] * n,
                 2 * n, "zero")


def eigenbasis_infinity(dim: Dimension) -> Basis:
    """Eigenbasis of X in monomial coordinates: X|u>_inf = omega^u |u>_inf,
    with |a+nb>_inf = (1/sqrt n) sum_r sigma^{-br} omega^{-ar} |a,r>."""
    n = require_square(dim)
    grid = range(n)
    # sigma^{-br} omega^{-ar} = tau^{-2nbr - 2ar}
    return Basis(dim, [range(a * n, a * n + n) for a in grid],
                 [[-2 * a * r for r in grid] for a in grid], -2 * n, "infinity")


def latin_basis(dim: Dimension, lam, expo, label: str = "latin") -> Basis:
    """Vectors |a+nb> = (1/sqrt n) sum_r tau^{expo[r,a] - 2nbr} |r, lam[r,a]>.

    lam, read mod n, and the integer exponents expo are n x n tables
    indexed (r, a). Each row of lam must permute Z_n, or the lines overlap
    (NotOrthonormal); a column that repeats a value leaves the basis biased
    against `eigenbasis_zero`, which `unbiased_witness` names.
    """
    n = require_square(dim)
    lam, expo = _table(lam, n), _table(expo, n)
    return Basis(dim, [[flatten(r, lam[r][a], n) for r in range(n)]
                       for a in range(n)], list(zip(*expo)), -2 * n, label)


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
    on_b = {x: b for b, line in enumerate(B.lines) for x in line}
    for a, line in enumerate(A.lines):
        meets = [0] * len(line)  # n lines of B
        for x in line:
            meets[on_b[x]] += 1
        if bad := [b for b, m in enumerate(meets) if m != 1]:
            return a, bad[0], meets[bad[0]]
    return None


class UnbiasedReport(NamedTuple):
    passed: bool
    max_abs_deviation: float


def is_unbiased(A: Basis, B: Basis, tol: float = 1e-10) -> UnbiasedReport:
    """Max over vector pairs of | |<a|b>|^2 - 1/N |."""
    import numpy as np
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
    N, n, nbar = dim.N, p, dim.nbar
    bases = [eigenbasis_zero(dim), eigenbasis_infinity(dim)]
    for k in range(1, p):
        columns = []
        for a in range(n):
            # X^k Z^{-1} carries (r, s), s = a + kr mod n, to (r + 1, s + k)
            # with tau^step: omega^{-s}, times sigma^{(r+1) mod n} on a wrap
            step = [(-2 * s + 2 * n * ((r + 1) % n) * (s + k >= n)) % nbar
                    for r in range(n) for s in [(a + k * r) % n]]
            # the loop phase is tau^loop = e^{i pi m/N}, m taken in (-N, N] so
            # that its principal n-th root e^{i pi m/(N n)} is the eigenvalue:
            # tau^{(N+1) m/n}, as (N+1)^2 = 1 + N(N+2), once n | m (2n if N odd)
            m = sum(step) * (N + 1) % (2 * N)
            m -= 2 * N * (m > N)
            assert m % (n * (1 + N % 2)) == 0, "root is no tau power"
            # tau^prefix mu^{-r} at (r, a); mu = root sigma^b, where sigma =
            # tau^{2n} and latin_basis steps by sigma^{-r} in b
            prefix = itertools.accumulate(step[:-1], initial=0)
            columns.append([x - (N + 1) * (m // n) * r
                            for r, x in enumerate(prefix)])
        bases.append(latin_basis(dim, cyclic_latin_square(n, k),
                                 list(zip(*columns)), f"latin({k})"))
    return bases

