"""Exception types shared across the package."""


class WhsicError(Exception):
    """Base class for all package-specific errors."""


class NotCoprime(WhsicError):
    pass


class DimensionMismatch(WhsicError):
    pass


class NotSquare(WhsicError):
    pass


class DetNotMinusOne(WhsicError):
    pass


class NegativeRadicand(WhsicError):
    pass


class NotOrthonormal(WhsicError):
    pass


class NotPrime(WhsicError):
    pass


class BasisUnavailable(WhsicError):
    pass
