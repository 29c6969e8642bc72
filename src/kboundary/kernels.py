"""Kernel definitions, Gram assembly and the spectral core.

A kernel here is a Hermitian positive definite function on S x S for a
finite point set S.  Closed forms cover the Szego kernel of the disk,
its k-fold polydisk product and the de Branges-Rovnyak-type kernel built
from a circle measure; arbitrary Hermitian tables are accepted as well.

All scalar storage is complex double precision.  Kernels whose values
are intrinsically real carry the field tag ``"real"`` so downstream
consumers (Gaussian sampling, densities) can pick the right convention.
Every PSD, rank, projection and clip decision reads ``spectrum`` (the one
eigendecomposition) or ``numerical_rank`` (the one SVD).

``FiniteKernel`` validates and mirrors its Gram once, when it is built, in
one pass over ``g`` and its conjugate transpose.  The index point set
0..n-1 (``index_points``) and the strict-lower mask of each size are built
once and shared: both are frozen, so no holder can change them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .errors import (
    DimensionMismatch,
    DomainViolation,
    NotHermitian,
    ShapeMismatch,
    UnknownLabel,
)
from .measures import CircleMeasure

# Strict interior guard: points this close to the torus make 1/(1 - z w~)
# cancel catastrophically.
DISK_RADIUS_BOUND = 1.0 - 1e-15

HERMITIAN_TOL = 1e-12
PSD_TOL = 1e-10  # default PSD cutoff, relative to ||G||_2


@dataclass(frozen=True)
class PointSet:
    """Ordered finite point set with distinct labels and k-dim complex coords."""

    labels: tuple
    coords: np.ndarray

    def __post_init__(self):
        labels = tuple(self.labels)
        object.__setattr__(self, "labels", labels)
        if len(set(labels)) != len(labels):
            raise ShapeMismatch("point labels must be pairwise distinct")
        c = _require_finite(np.asarray(self.coords, dtype=complex), "point coordinates")
        if c.ndim == 1:
            c = c.reshape(-1, 1)
        if c.ndim != 2 or c.shape[0] != len(labels) or c.shape[1] < 1:
            raise ShapeMismatch(
                f"coords must be (n_points, k>=1), got shape {c.shape}"
            )
        c.setflags(write=False)
        object.__setattr__(self, "coords", c)

    @property
    def size(self) -> int:
        return len(self.labels)

    @property
    def dim(self) -> int:
        return int(self.coords.shape[1])

    def index(self, label) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise UnknownLabel(f"unknown point label {label!r}") from None

    def restrict(self, indices) -> "PointSet":
        idx = list(indices)
        return PointSet(
            labels=tuple(self.labels[i] for i in idx),
            coords=self.coords[idx, :],
        )

    @classmethod
    def from_points(cls, points, labels=None) -> "PointSet":
        """Build from a sequence of scalars (k=1) or coordinate tuples."""
        arr = np.asarray(list(points), dtype=complex)
        if labels is None:
            labels = tuple(f"p{i}" for i in range(arr.shape[0]))
        return cls(labels=tuple(labels), coords=arr)


@lru_cache(maxsize=256)
def index_points(n: int) -> PointSet:
    """The index points 0, 1, ..., n-1 (labels ``p0``..), one shared instance
    per n: a PointSet is frozen and its coords are read-only."""
    return PointSet.from_points(np.arange(n, dtype=complex))


@dataclass(frozen=True)
class KernelSpec:
    """Which kernel to evaluate, plus its domain constraint.

    Variants: ``szego`` (k=1 disk), ``polydisk-szego`` (k-fold product),
    ``debranges-rovnyak`` (needs a circle measure), ``table`` (explicit
    Hermitian matrix).
    """

    variant: str
    dim: int = 1
    measure: CircleMeasure | None = None
    table: np.ndarray | None = field(default=None)

    VARIANTS = ("szego", "polydisk-szego", "debranges-rovnyak", "table")

    def __post_init__(self):
        if self.variant not in self.VARIANTS:
            raise ShapeMismatch(f"unknown kernel variant {self.variant!r}")
        if self.variant == "debranges-rovnyak" and self.measure is None:
            raise ShapeMismatch("debranges-rovnyak variant requires a measure")
        if self.variant == "table":
            if self.table is None:
                raise ShapeMismatch("table variant requires a matrix")
            t = _require_finite(np.asarray(self.table, dtype=complex), "table entries")
            if t.ndim != 2 or t.shape[0] != t.shape[1]:
                raise ShapeMismatch("table must be square")
            _require_hermitian(t, "table variant requires a Hermitian matrix")
            t.setflags(write=False)
            object.__setattr__(self, "table", t)
        if self.dim < 1:
            raise ShapeMismatch("kernel dimension must be >= 1")

    @classmethod
    def szego(cls) -> "KernelSpec":
        return cls(variant="szego")

    @classmethod
    def polydisk(cls, k: int) -> "KernelSpec":
        return cls(variant="polydisk-szego", dim=k)

    @classmethod
    def debranges_rovnyak(cls, measure: CircleMeasure) -> "KernelSpec":
        return cls(variant="debranges-rovnyak", measure=measure)

    @classmethod
    def from_table(cls, matrix) -> "KernelSpec":
        return cls(variant="table", table=matrix)


@dataclass(frozen=True)
class FiniteKernel:
    """Hermitian matrix of kernel values over a labeled point set."""

    points: PointSet
    gram: np.ndarray
    field_tag: str = "complex"

    def __post_init__(self):
        g = _require_finite(np.asarray(self.gram, dtype=complex), "gram entries")
        n = self.points.size
        if g.shape != (n, n):
            raise ShapeMismatch(f"gram must be {n}x{n}, got {g.shape}")
        gh = _require_hermitian(g, "gram matrix is not Hermitian")
        # Mirror the upper triangle so Hermitian symmetry holds bit for bit,
        # as _hermitian_mirror(g) does.
        g = np.where(_strict_lower(n), gh, g)
        np.fill_diagonal(g, g.diagonal().real)
        g.setflags(write=False)
        object.__setattr__(self, "gram", g)
        if self.field_tag not in ("real", "complex"):
            raise ShapeMismatch(f"field_tag must be real or complex, got {self.field_tag!r}")

    @cached_property
    def spectrum(self) -> "Spectrum":
        """spectrum(self.gram), computed once: the fields are frozen."""
        return spectrum(self.gram)

    @property
    def size(self) -> int:
        return self.points.size

    def restrict(self, indices) -> "FiniteKernel":
        idx = list(indices)
        return FiniteKernel(
            points=self.points.restrict(idx),
            gram=self.gram[np.ix_(idx, idx)],
            field_tag=self.field_tag,
        )


@dataclass(frozen=True)
class PsdReport:
    min_eigenvalue: float
    max_eigenvalue: float
    is_psd: bool


def _require_finite(a: np.ndarray, what: str) -> np.ndarray:
    """``a`` itself, after raising DomainViolation on a NaN or infinite entry."""
    if not np.isfinite(a).all():
        raise DomainViolation(f"{what} must be finite")
    return a


def _require_hermitian(g: np.ndarray, message: str) -> np.ndarray:
    """``g.conj().T``, after raising NotHermitian unless ``g`` is Hermitian to
    HERMITIAN_TOL * max|g|."""
    gh = g.conj().T
    if g.size and np.abs(g - gh).max() > HERMITIAN_TOL * np.abs(g).max():
        raise NotHermitian(message)
    return gh


@lru_cache(maxsize=256)
def _strict_lower(n: int) -> np.ndarray:
    """Read-only n x n mask of the strict lower triangle, shared per n."""
    mask = np.tri(n, k=-1, dtype=bool)
    mask.setflags(write=False)
    return mask


def _hermitian_mirror(g: np.ndarray) -> np.ndarray:
    """Copy of the complex square ``g`` with its strict lower triangle
    replaced by the conjugated upper one and its diagonal made real."""
    out = np.where(np.tri(g.shape[0], k=-1, dtype=bool), g.conj().T, g)
    np.fill_diagonal(out, out.diagonal().real)
    return out


def _check_in_disk(z) -> np.ndarray:
    """``z`` as a complex array, every element strictly inside the disk guard.

    Written as ``not all(|z| < bound)`` so that NaN, which compares false
    either way, is rejected too."""
    zv = np.asarray(z, dtype=complex)
    if not np.all(np.abs(zv) < DISK_RADIUS_BOUND):
        worst = float(np.abs(zv).max())
        raise DomainViolation(
            f"evaluation point has |z| = {worst!r}, outside the open disk guard"
        )
    return zv


def szego_eval(z, w):
    """Szego kernel of the disk, 1 / (1 - z conj(w)).

    ``z`` and ``w`` are scalars or broadcastable arrays; a scalar pair
    gives a numpy complex scalar.
    """
    zv = _check_in_disk(z)
    wv = _check_in_disk(w)
    return (1.0 / (1.0 - zv * np.conj(wv)))[()]


def polydisk_szego_eval(z, w):
    """Product of 1-d Szego kernels over the coordinates of the polydisk.

    The last axis of ``z`` and ``w`` is the coordinate axis (a scalar is a
    one-coordinate point); the leading axes broadcast.  A pair of points
    gives a numpy complex scalar.
    """
    zv = np.atleast_1d(_check_in_disk(z))
    wv = np.atleast_1d(_check_in_disk(w))
    if zv.shape[-1] != wv.shape[-1]:
        raise DimensionMismatch(
            f"point dimensions differ: {zv.shape[-1]} vs {wv.shape[-1]}"
        )
    return np.prod(1.0 / (1.0 - zv * np.conj(wv)), axis=-1)[()]


def _kernel_callable(spec: KernelSpec):
    """Evaluator mapping an (n, k) coordinate array to the n x n Gram matrix."""
    if spec.variant in ("szego", "polydisk-szego"):
        return lambda c: polydisk_szego_eval(c[:, None, :], c[None, :, :])
    if spec.variant == "debranges-rovnyak":
        # Imported here: clark builds on this module.
        from .clark import kb_eval

        return lambda c: kb_eval(spec.measure, c[:, None, 0], c[None, :, 0])
    raise ShapeMismatch(f"no callable for variant {spec.variant!r}")


def assemble_gram(spec: KernelSpec, points: PointSet) -> FiniteKernel:
    """Evaluate the kernel over the point set in one array evaluation.

    ``FiniteKernel`` mirrors the upper triangle, so the result is
    Hermitian exactly.  Disk-type kernels require every coordinate strictly
    inside the unit disk; the table variant requires a matrix of matching
    size.
    """
    n = points.size
    if spec.variant == "table":
        if spec.table.shape != (n, n):
            raise ShapeMismatch(
                f"table is {spec.table.shape}, point set has {n} points"
            )
        tag = "real" if np.abs(spec.table.imag).max(initial=0.0) == 0.0 else "complex"
        return FiniteKernel(points=points, gram=spec.table, field_tag=tag)

    expected_dim = spec.dim if spec.variant == "polydisk-szego" else 1
    if points.dim != expected_dim:
        raise DimensionMismatch(
            f"variant {spec.variant!r} expects {expected_dim}-dim points, "
            f"got {points.dim}"
        )
    gram = _kernel_callable(spec)(points.coords)
    return FiniteKernel(points=points, gram=gram, field_tag="complex")


def default_rank_tol(n: int) -> float:
    """Relative cutoff for rank decisions on an n-dimensional problem."""
    return 1e-12 * max(n, 1)


def _real_if_zero_imag(M: np.ndarray) -> np.ndarray:
    """M.real when M has zero imaginary part, so it is decomposed in float64."""
    return M.real if np.iscomplexobj(M) and not M.imag.any() else M


@dataclass(frozen=True)
class Spectrum:
    """M = vectors diag(values) vectors^*, values ascending, norm = ||M||_2.

    An eigenvalue above ``rtol * norm`` is kept; M is PSD when none lies
    below ``-tol * norm``.  No cutoff has an absolute floor: a backward-stable
    solver is accurate to about eps * ||M||_2 (Weyl), so verdicts do not
    depend on units."""

    values: np.ndarray
    vectors: np.ndarray
    norm: float

    def is_psd(self, tol: float) -> bool:
        return not self.values.size or bool(self.values[0] >= -tol * self.norm)

    def kept(self, rtol: float) -> np.ndarray:
        return self.values > rtol * self.norm

    def factor(self, rtol: float) -> np.ndarray:
        """Columns sqrt(lam) v over the kept eigenpairs, ascending."""
        keep = self.kept(rtol)
        return self.vectors[:, keep] * np.sqrt(self.values[keep])[None, :]

    def projector(self, rtol: float) -> np.ndarray:
        """Orthogonal projection onto the kept eigenvectors."""
        v = self.vectors[:, self.kept(rtol)]
        return v @ np.conj(v).T


def spectrum(M) -> Spectrum:
    """Eigendecomposition of the Hermitian M (lower triangle read), in float64
    when M has zero imaginary part."""
    values, vectors = np.linalg.eigh(_real_if_zero_imag(np.asarray(M)))
    values.setflags(write=False)
    vectors.setflags(write=False)
    norm = float(max(-values[0], values[-1])) if values.size else 0.0
    return Spectrum(values=values, vectors=vectors, norm=norm)


def numerical_rank(A, rtol: float | None = None) -> int:
    """Number of singular values of A above rtol * sigma_max, rtol defaulting
    to default_rank_tol(max(A.shape)); float64 when A has zero imaginary part."""
    A = _real_if_zero_imag(np.asarray(A))
    rtol = default_rank_tol(max(A.shape)) if rtol is None else rtol
    svals = np.linalg.svd(A, compute_uv=False)
    return int(np.count_nonzero(svals > rtol * svals.max(initial=0.0)))


def relative_residual(residual: float, K: FiniteKernel) -> float:
    """``residual / ||G||_2`` (K.spectrum.norm), the one scale for judging a
    residual of K's identities.  A zero residual is relative 0; against a zero
    or overflowed norm any other is infinite, so no tolerance accepts it."""
    if not residual:
        return 0.0
    norm = K.spectrum.norm
    return residual / norm if 0.0 < norm < math.inf else math.inf


def check_positive_definite(K: FiniteKernel, tol: float = PSD_TOL) -> PsdReport:
    """PSD check on K.spectrum: ``is_psd`` iff min_eig >= -tol * ||G||_2.  The
    report carries both extreme eigenvalues so callers can judge margins."""
    if tol < 0:
        raise ShapeMismatch("tolerance must be nonnegative")
    spec = K.spectrum
    lo, hi = (float(spec.values[0]), float(spec.values[-1])) if K.size else (0.0, 0.0)
    return PsdReport(min_eigenvalue=lo, max_eigenvalue=hi, is_psd=spec.is_psd(tol))
