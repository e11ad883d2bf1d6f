"""Dimension bookkeeping and the one phase path.

Every phase in the package is a power of tau = -e^{i pi/N}: omega = tau^2 and,
for square N = n^2, sigma = tau^{2n}. `tau_power` is the one scalar
evaluation: it reduces the integer exponent first and evaluates
exp(i pi m/N) once, never by repeated multiplication, so high powers stay
accurate to machine precision even for N = 16 radical checks. `tau_table`
lists tau^k for k < nbar from `tau_power`, built once per dimension and
shared read-only (so are `sic.basis_change`, the search's E0 basis and the
FFT kernel's shift gathers); `tau_powers` is the one array lookup into the
table (the only place an exponent array is reduced mod nbar).

Every operator with one tau power per column (Weyl generators and
displacements, monomial Clifford unitaries) is a `PhasePermutation` with
integer exponents, composed exactly; checks on them compare integers. A
metaplectic unitary is a chirp, tau to a quadratic form over sqrt(N), or a
product of two, so the CRT certificate compares integers too, three form
coefficients per chirp (`clifford.chirp_coefficients`); the float
`clifford.conjugation_check_batched` is a test and benchmark oracle that no
command runs. `.dense()` is the one way a `PhasePermutation` becomes a matrix.

The scalar evaluation, `cmath.exp`, is kept instead of a vectorised numpy exp
because the seeded search's restart index follows the bits of the E0 basis
and the start draws: numpy's array exp rounds differently (from N = 6 on),
and a changed last bit in the Zauner unitary changes restart counts, while
rounding inside the objective moved none over N = 5..48, seeds 0..9.
`cmath.exp` gives the bits of numpy's scalar exp at a third of its cost; a
test pins the two together for N = 1..300.
It also holds the shared integer conventions `flatten` and `mod_inverse`,
and imports numpy only inside the functions that build arrays.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import NegativeRadicand, NotCoprime, NotOrthonormal, NotSquare

if TYPE_CHECKING:
    import numpy as np

@dataclass(frozen=True)
class Dimension:
    """A Hilbert-space dimension N with its phase modulus nbar.

    nbar = N for odd N and 2N for even N. For square N the side length n
    (n*n == N) is available; it is None otherwise.
    """

    N: int

    def __post_init__(self):
        if self.N < 1:
            raise ValueError(f"dimension must be positive, got {self.N}")

    @property
    def nbar(self) -> int:
        return self.N if self.N % 2 == 1 else 2 * self.N

    @property
    def n(self) -> int | None:
        r = math.isqrt(self.N)
        return r if r * r == self.N else None


def require_square(dim: Dimension) -> int:
    """The side n of a square dimension N = n^2; raises NotSquare otherwise."""
    if dim.n is None:
        raise NotSquare(f"N={dim.N} is not a square dimension")
    return dim.n


def flatten(r: int, s: int, n: int) -> int:
    """The label of grid point |r,s>, for ints or arrays."""
    return (r % n) * n + (s % n)


def mod_inverse(a: int, m: int) -> int:
    """Multiplicative inverse of a mod m; raises NotCoprime if it does not exist."""
    if m <= 0:
        raise ValueError(f"modulus must be positive, got {m}")
    if math.gcd(a, m) != 1:
        raise NotCoprime(f"{a} is not invertible mod {m}")
    return pow(a, -1, m)


def _checked_sqrt(x: float, name: str) -> float:
    """sqrt(x) for a radicand that must be non-negative up to roundoff.
    The N = 9 and N = 16 closed forms share it; it lives here so that `sic`
    can use it without importing `adapted16`."""
    if x < -1e-12:
        raise NegativeRadicand(f"{name}: radicand {x} is negative")
    return math.sqrt(max(x, 0.0))


def tau_power(dim: Dimension, k: int) -> complex:
    """tau^k with tau = -e^{i pi/N}, i.e. exp(i pi (N+1) k / N) reduced mod 2N."""
    m = (k * (dim.N + 1)) % (2 * dim.N)
    return cmath.exp(1j * math.pi * m / dim.N)


def sigma_power(dim: Dimension, k: int) -> complex:
    """sigma^k = tau^{2nk} = exp(2 pi i k / n) for square dimensions."""
    return tau_power(dim, 2 * require_square(dim) * k)


@functools.lru_cache(maxsize=256)
def tau_table(dim: Dimension) -> np.ndarray:
    """tau^k for 0 <= k < nbar; index it with any exponent reduced mod nbar
    (tau^k depends on k(N+1) mod 2N, so on k mod N for odd N). Built once
    per dimension from `tau_power` and returned read-only, so every caller
    shares the same bits."""
    import numpy as np
    table = np.fromiter((tau_power(dim, k) for k in range(dim.nbar)),
                        dtype=complex, count=dim.nbar)
    table.flags.writeable = False
    return table


def tau_powers(dim: Dimension, exponents) -> np.ndarray:
    """tau^e for every integer e of an exponent array, of any sign or size."""
    import numpy as np
    return tau_table(dim)[np.asarray(exponents) % dim.nbar]


@dataclass(frozen=True, eq=False)
class PhasePermutation:
    """|v> -> tau^{expo[v]} |image[v]>, image a permutation of 0..N-1 and expo
    reduced mod nbar, the order of tau. Leading axes stack operators."""

    dim: Dimension
    image: np.ndarray
    expo: np.ndarray

    def __post_init__(self):
        import numpy as np
        N, image = self.dim.N, np.asarray(self.image)
        hit = np.zeros(image.shape[:-1] + (N + 1,), bool)  # N: outside
        if image.shape[-1:] == (N,):  # a 0-d image has no row to index
            inside = (image >= 0) & (image < N)
            np.put_along_axis(hit, np.where(inside, image, N), True, axis=-1)
        if image.shape[-1:] != (N,) or not hit[..., :N].all():
            raise NotOrthonormal(f"image is not a permutation of 0..{N - 1}")
        object.__setattr__(self, "image", image)
        object.__setattr__(self, "expo", np.asarray(self.expo) % self.dim.nbar)

    @classmethod
    def _reduced(cls, dim: Dimension, image: np.ndarray,
                 expo: np.ndarray) -> "PhasePermutation":
        """Build from exponents already in [0, nbar), skipping the `%`."""
        out = object.__new__(cls)
        object.__setattr__(out, "dim", dim)
        object.__setattr__(out, "image", image)
        object.__setattr__(out, "expo", expo)
        return out

    def __matmul__(self, other: "PhasePermutation") -> "PhasePermutation":
        """Exact product self @ other: other acts first. The stack axes of
        self come first, then those of other."""
        if not isinstance(other, PhasePermutation):
            return NotImplemented
        # both exponents lie in [0, nbar), so one subtraction reduces the sum
        nbar = self.dim.nbar
        expo = other.expo + self.expo.take(other.image, axis=-1)
        expo -= nbar * (expo >= nbar)
        return PhasePermutation._reduced(
            self.dim, self.image.take(other.image, axis=-1), expo)

    def dense(self) -> np.ndarray:
        """The N x N matrix, one per stacked operator."""
        import numpy as np
        N = self.dim.N
        image = self.image.reshape(-1, N)
        out = np.zeros((len(image), N, N), dtype=complex)
        out[np.arange(len(image))[:, None], image, np.arange(N)] = \
            tau_powers(self.dim, self.expo).reshape(-1, N)
        return out.reshape(self.image.shape[:-1] + (N, N))

    def __array__(self, dtype=None, copy=None):
        return self.dense()
