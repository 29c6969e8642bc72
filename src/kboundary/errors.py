"""Exception types shared across the package.

Every error raised by the library derives from ``KernelBoundaryError`` so
callers (and the CLI) can separate domain failures from genuine bugs.
"""


class KernelBoundaryError(Exception):
    """Base class for all library errors."""


class DomainViolation(KernelBoundaryError):
    """Evaluation point outside the admissible domain (e.g. |z| >= 1)."""


class ShapeMismatch(KernelBoundaryError):
    """Array shapes inconsistent with the operation."""


class DimensionMismatch(KernelBoundaryError):
    """Coordinate tuples of unequal dimension."""


class NotHermitian(KernelBoundaryError):
    """Matrix fails the Hermitian symmetry check."""


class NotPsd(KernelBoundaryError):
    """Matrix has an eigenvalue negative beyond tolerance."""


class BaseMismatch(KernelBoundaryError):
    """Operands refer to different base kernels."""


class NotAFactorization(KernelBoundaryError):
    """Factorization identity residual exceeds the declared tolerance."""


class LabelMismatch(KernelBoundaryError):
    """Morphism endpoints do not match the given measures."""


class IndexOutOfRange(KernelBoundaryError):
    """Subset index outside the point range."""


class ZeroExpectation(KernelBoundaryError):
    """A feature mean vanishes; renormalization undefined."""


class BAtOne(KernelBoundaryError):
    """b(z) = 1 up to tolerance; Herglotz quotient undefined."""


class InvalidMeasure(KernelBoundaryError):
    """Measure violates its construction invariants."""


class ConfigError(KernelBoundaryError):
    """Job configuration failed to parse or validate."""

