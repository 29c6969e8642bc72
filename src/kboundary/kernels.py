"""Kernel definitions, Gram assembly and the spectral core.

A kernel here is a Hermitian positive definite function on S x S for a
finite point set S, the rows of an (n, k) complex coordinate array
(``_as_points``): a point is its row.  Closed forms cover the Szego kernel
of the disk, its k-fold polydisk product and the de Branges-Rovnyak-type
kernel built from a circle measure (``KernelSpec``); an arbitrary Hermitian
table is a ``FiniteKernel`` itself (``FiniteKernel.from_table``).

All scalar storage is complex double precision.  Kernels whose values
are intrinsically real carry the field tag ``"real"`` so downstream
consumers (Gaussian sampling) can pick the right convention.
Every PSD, rank, projection and clip decision reads ``spectrum`` (the
(values, vectors) of ``_eigh``, the one eigendecomposition), its values
alone (``eigenvalues``, through the one values-only decomposition
``_eigvalsh`` unless the spectrum is already computed) or the rank rule
``_rank`` over ``_svdvals`` (the one SVD), which ``numerical_rank`` applies
to one matrix.

Each spectral rule is one array core (``_norm``, ``_is_psd``, ``_kept``,
``_factor``, ``_projector``) that reads ascending eigenvalues and takes
leading stack axes, as ``_eigh`` returns them for a stack of same-size
matrices: a lone reader calls it on one matrix, verify-all's random-kernel
criteria on whole stacks, so the two agree bit for bit.  An eigenvalue
above ``rtol * ||M||_2`` is kept; M is PSD when none lies below
``-PSD_TOL * ||M||_2``.  No cutoff has an absolute floor: a backward-stable
solver is accurate to about eps * ||M||_2 (Weyl), so verdicts do not depend
on units.

``FiniteKernel`` validates and mirrors its Gram once, when it is built,
into one new array; each Gram-sized pass (the checks, the mirror, the
quotient of ``clark._renormalize``) runs a row panel at a time
(``_row_panels``), so its temporaries stay a panel, not a Gram.  The
strict-lower mask of each size is built once and shared: it is read-only,
so no holder can change it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import (
    DimensionMismatch,
    DomainViolation,
    NotHermitian,
    ShapeMismatch,
)
from .measures import CircleMeasure

# Strict interior guard: points this close to the torus make 1/(1 - z w~)
# cancel catastrophically.
DISK_RADIUS_BOUND = 1.0 - 1e-15

HERMITIAN_TOL = 1e-12

# The tolerance ladder, each relative to ||G||_2.  A cutoff drops
# eigenvalues that a residual check then judges: dropping those at or below
# tau * ||G||_2 leaves ||G - Phi Phi^*||_2 <= tau * ||G||_2 (Eckart-Young),
# plus a backward error of about eps * n * ||G||_2 (Weyl).  So each cutoff
# (PSD_TOL, default_rank_tol(n) <= RANK_TOL_CAP and gaussian.FACTOR_TOL)
# plus eps * n stays at or below FACTORIZATION_TOL, the tolerance that
# judges it, for every n up to 10^6.
PSD_TOL = 1e-10  # the PSD cutoff of every verdict
FACTORIZATION_TOL = 1e-9  # the identity residual of every factorization verdict
RANK_TOL_CAP = FACTORIZATION_TOL / 2  # default_rank_tol(n) never exceeds it


@dataclass(frozen=True)
class KernelSpec:
    """A closed-form kernel, named by its parameters.

    Without a measure, the Szego kernel of the polydisk in ``dim``
    variables (the disk for ``dim`` 1); with a circle measure, the de
    Branges-Rovnyak kernel K_b of its inner function, in one variable.  An
    explicit Gram is a ``FiniteKernel`` (``FiniteKernel.from_table``).
    """

    dim: int = 1
    measure: CircleMeasure | None = None

    def __post_init__(self):
        if self.dim < 1:
            raise ShapeMismatch("kernel dimension must be >= 1")
        if self.measure is not None and self.dim != 1:
            raise ShapeMismatch(
                f"the de Branges-Rovnyak kernel has one variable, got dim {self.dim}"
            )


@dataclass(frozen=True)
class FiniteKernel:
    """Hermitian matrix of kernel values over a point set."""

    gram: np.ndarray
    field_tag: str = "complex"

    def __post_init__(self):
        g = np.asarray(self.gram, dtype=complex)
        n = g.shape[0] if g.ndim else 0
        if g.shape != (n, n):
            _require_finite(g, "gram entries")
            raise ShapeMismatch(f"gram must be {n}x{n}, got {g.shape}")
        # Mirror the upper triangle so Hermitian symmetry holds bit for bit.
        mirror = _hermitian_mirror(g)
        _check_hermitian(g, mirror)
        mirror.setflags(write=False)
        object.__setattr__(self, "gram", mirror)
        if self.field_tag not in ("real", "complex"):
            raise ShapeMismatch(f"field_tag must be real or complex, got {self.field_tag!r}")

    @classmethod
    def from_table(cls, table) -> "FiniteKernel":
        """The kernel whose Gram is ``table``, tagged real when ``table`` has
        zero imaginary part."""
        g = np.asarray(table, dtype=complex)
        return cls(gram=g, field_tag="complex" if g.imag.any() else "real")

    @cached_property
    def spectrum(self) -> tuple:
        """(values, vectors) of ``_eigh`` on the Gram, values ascending,
        read-only and computed once: the fields are frozen."""
        values, vectors = _eigh(self.gram)
        values.setflags(write=False)
        vectors.setflags(write=False)
        return values, vectors

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """The ascending eigenvalues of the Gram, read-only and computed once:
        the values of ``spectrum`` when that is already computed, else
        ``_eigvalsh`` alone, which skips the eigenvectors (about 4n^3/3 flops
        against 9n^3)."""
        if "spectrum" in self.__dict__:
            return self.spectrum[0]
        values = _eigvalsh(self.gram)
        values.setflags(write=False)
        return values

    @property
    def size(self) -> int:
        return self.gram.shape[0]

    def restrict(self, indices) -> "FiniteKernel":
        idx = list(indices)
        return FiniteKernel(gram=self.gram[np.ix_(idx, idx)], field_tag=self.field_tag)


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


def _as_points(points) -> np.ndarray:
    """``points`` as a new read-only complex (n, k) array, k >= 1, row i the
    coordinates of point i: a sequence of scalars (or a 1-d array) is n
    points of one coordinate.  Raises DomainViolation on a NaN or infinite
    coordinate and ShapeMismatch on any other shape."""
    c = _require_finite(np.array(points, dtype=complex), "point coordinates")
    if c.ndim == 1:
        c = c.reshape(-1, 1)
    if c.ndim != 2 or c.shape[1] < 1:
        raise ShapeMismatch(f"coords must be (n_points, k>=1), got shape {c.shape}")
    c.setflags(write=False)
    return c


# A Gram-sized pass works on row panels of about this many entries (1 MiB of
# complex values), so that its temporaries stay that size.
_PANEL_ENTRIES = 1 << 16


def _row_panels(n: int) -> list:
    """Consecutive row slices covering 0..n-1, each of at least one row and
    about ``_PANEL_ENTRIES`` entries of an n x n matrix; one slice for n up
    to 256."""
    step = max(1, _PANEL_ENTRIES // max(n, 1))
    return [slice(start, min(start + step, n)) for start in range(0, n, step)]


@lru_cache(maxsize=256)
def _strict_lower(n: int) -> np.ndarray:
    """Read-only n x n mask of the strict lower triangle, shared per n."""
    mask = np.tri(n, k=-1, dtype=bool)
    mask.setflags(write=False)
    return mask


def _hermitian_defect(g: np.ndarray, mirror: np.ndarray) -> tuple:
    """(max |g_ij - conj(g_ji)|, max |g_ij|) of the complex square ``g``, read
    a row panel at a time against its ``_hermitian_mirror``: left of the
    diagonal, mirror - g is the defect up to its sign, and on the diagonal
    the defect is 2 |Im g_ii|.  Raises DomainViolation on a NaN or infinite
    entry before any verdict reads the defect."""
    worst = largest = 0.0
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow reads inf
        for rows in _row_panels(len(g)):
            panel = g[rows]
            modulus = np.abs(panel).max()
            if not modulus < math.inf:  # a NaN or infinite part, or an overflow
                _require_finite(panel, "gram entries")
            largest = max(largest, modulus)
            worst = max(worst, np.abs(mirror[rows, :rows.stop] - panel[:, :rows.stop]).max())
        return max(worst, 2.0 * np.abs(g.imag.diagonal()).max(initial=0.0)), largest


def _check_hermitian(g: np.ndarray, mirror: np.ndarray) -> None:
    """Raise DomainViolation on a non-finite entry of the complex square
    ``g``, then NotHermitian unless max |g_ij - conj(g_ji)| <= HERMITIAN_TOL *
    max |g_ij|, whatever the scale of ``g``; a Hermitian ``g`` whose largest
    modulus overflows float64 is a DomainViolation too.  ``mirror`` is
    ``_hermitian_mirror(g)``."""
    worst, largest = _hermitian_defect(g, mirror)
    overflow = largest == math.inf  # every entry is finite: a modulus overflowed
    if overflow:
        # A quarter of g keeps every modulus and defect finite, and scales
        # both sides of the rule exactly at these magnitudes.
        quarter = g * 0.25
        worst, largest = _hermitian_defect(quarter, _hermitian_mirror(quarter))
    if worst > HERMITIAN_TOL * largest:
        raise NotHermitian("gram matrix is not Hermitian")
    if overflow:
        raise DomainViolation("gram entry moduli must be finite")


def _hermitian_mirror(g: np.ndarray, in_place: bool = False) -> np.ndarray:
    """The complex square ``g``, or each matrix of a (..., n, n) stack, with
    its strict lower triangle replaced by the conjugated upper one and its
    diagonal made real: the Gram that FiniteKernel stores.  Written into one
    new C-ordered array, or into ``g`` itself with ``in_place``, a row panel
    at a time: the panel's entries left of its diagonal block read the rows
    above it, and those of the block its upper part, which no panel
    writes."""
    out = g if in_place else np.array(g, dtype=complex, order="C")
    n = out.shape[-1]
    for rows in _row_panels(n):
        np.conjugate(g[..., :rows.start, rows].swapaxes(-1, -2), out=out[..., rows, :rows.start])
        np.conjugate(g[..., rows, rows].swapaxes(-1, -2), out=out[..., rows, rows],
                     where=_strict_lower(rows.stop - rows.start))
    diagonal = np.arange(n)
    out.imag[..., diagonal, diagonal] = 0.0
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


def polydisk_szego_eval(z, w):
    """Szego kernel of the polydisk, the product of the disk's
    1 / (1 - z_j conj(w_j)) over the coordinates: the one Szego evaluator,
    the disk's for a single coordinate.

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
    # One array, computed in place; the product over coordinates needs a
    # second only for the polydisk.
    out = np.multiply(zv, np.conj(wv))
    np.subtract(1.0, out, out=out)
    np.divide(1.0, out, out=out)
    return (out[..., 0] if out.shape[-1] == 1 else np.prod(out, axis=-1))[()]


def _kernel_callable(spec: KernelSpec):
    """Evaluator mapping an (n, k) coordinate array to the n x n Gram matrix."""
    if spec.measure is None:
        return lambda c: polydisk_szego_eval(c[:, None, :], c[None, :, :])
    # Imported here: clark builds on this module.
    from .clark import kb_eval

    return lambda c: kb_eval(spec.measure, c[:, None, 0], c[None, :, 0])


def assemble_gram(spec: KernelSpec, points) -> FiniteKernel:
    """Evaluate the kernel over the points (as ``_as_points`` reads them) in
    one array evaluation.

    ``FiniteKernel`` mirrors the upper triangle, so the result is
    Hermitian exactly.  The points must have ``spec.dim`` coordinates, each
    strictly inside the unit disk.
    """
    coords = _as_points(points)
    if coords.shape[1] != spec.dim:
        raise DimensionMismatch(f"kernel expects {spec.dim}-dim points, got {coords.shape[1]}")
    gram = _kernel_callable(spec)(coords)
    return FiniteKernel(gram=gram, field_tag="complex")


def default_rank_tol(n: int) -> float:
    """Relative cutoff for rank decisions on an n-dimensional problem:
    1e-12 * n, capped at RANK_TOL_CAP (from n = 500 on)."""
    return min(1e-12 * max(n, 1), RANK_TOL_CAP)


def _real_if_zero_imag(M: np.ndarray) -> np.ndarray:
    """M.real when M has zero imaginary part, so it is decomposed in float64."""
    return M.real if np.iscomplexobj(M) and not M.imag.any() else M


def _eigh(M: np.ndarray):
    """The eigenpairs of the Hermitian M (lower triangle read), or of each
    matrix of a (..., n, n) stack, in float64 when M has zero imaginary part.
    Each matrix of a stack gets the eigenpairs a lone call gives it only if
    the stack is of one field: all real, or each matrix with a nonzero
    imaginary part."""
    return np.linalg.eigh(_real_if_zero_imag(M))


def _eigvalsh(M: np.ndarray) -> np.ndarray:
    """The ascending eigenvalues of the Hermitian M (lower triangle read), or
    of each matrix of a (..., n, n) stack, without the eigenvectors; in
    float64 when M has zero imaginary part.  A stack gives each matrix the
    values of a lone call under ``_eigh``'s field rule.  The values agree with
    ``_eigh``'s to rounding, not bit for bit, so one reader of a matrix's
    eigenvalues takes them all from one of the two."""
    return np.linalg.eigvalsh(_real_if_zero_imag(M))


def _by_field(index: np.ndarray, stack: np.ndarray) -> list:
    """``stack`` (with the indices ``index`` of its matrices) split into the
    matrices with zero imaginary part and the others: (index, stack) pairs.
    Each part is decomposed in its own field, as a lone matrix would be."""
    complex_ = stack.imag.any(axis=(-2, -1))
    if complex_.all() or not complex_.any():
        return [(index, stack)]
    return [(index[part], stack[part]) for part in (~complex_, complex_)]


def _norm(values: np.ndarray):
    """||M||_2 = max(-lambda_min, lambda_max) of each ascending spectrum in
    ``values`` (..., n), 0 for an empty matrix."""
    if not values.shape[-1]:
        return np.zeros(values.shape[:-1])
    return np.maximum(-values[..., 0], values[..., -1])


def _is_psd(values: np.ndarray):
    """The PSD verdict of each spectrum: no eigenvalue below -PSD_TOL * ||M||_2."""
    lower = values[..., 0] if values.shape[-1] else np.zeros(values.shape[:-1])
    return lower >= -PSD_TOL * _norm(values)


def _kept(values: np.ndarray, rtol):
    """The keep rule of every rank decision: the eigenvalues above
    rtol * ||M||_2, ``rtol`` one cutoff or one per spectrum of a stack."""
    return values > (rtol * _norm(values))[..., None]


def _kept_columns(vectors: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """The kept eigenvectors: the kept columns of one matrix, or for a stack
    all n columns of each matrix with its dropped ones zeroed."""
    return vectors[:, keep] if keep.ndim == 1 else vectors * keep[..., None, :]


def _factor(values: np.ndarray, vectors: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Contiguous complex columns sqrt(lam) v over the kept eigenpairs
    (``_kept_columns``), the strongest first; in a stack the dropped
    columns are zero and come last, so they add exact zeros to F F^*."""
    lam = values[keep] if keep.ndim == 1 else np.where(keep, values, 0.0)
    f = _kept_columns(vectors, keep) * np.sqrt(lam)[..., None, :]
    return np.ascontiguousarray(f[..., ::-1], dtype=complex)


def _projector(vectors: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """v v^* over the kept eigenvectors v (``_kept_columns``)."""
    v = _kept_columns(vectors, keep)
    return v @ np.conj(v).swapaxes(-1, -2)


def _rank(svals: np.ndarray, rtol: float):
    """The rank rule: the number of singular values in ``svals`` (..., k)
    above rtol * sigma_max, one count per matrix of a stack."""
    kept = svals > rtol * svals.max(axis=-1, initial=0.0, keepdims=True)
    # count_nonzero over an axis is several times slower than over all.
    return np.count_nonzero(kept) if kept.ndim == 1 else kept.sum(axis=-1)


def _svdvals(A: np.ndarray) -> np.ndarray:
    """The singular values of A, or of each matrix of a (..., n, m) stack, in
    float64 when A has zero imaginary part; as with ``_eigh``, a stack gives
    each matrix the values of a lone call only if it is of one field."""
    return np.linalg.svd(_real_if_zero_imag(A), compute_uv=False)


def numerical_rank(A) -> int:
    """Number of singular values of A above default_rank_tol(max(A.shape)) *
    sigma_max (``_rank``); float64 when A has zero imaginary part."""
    A = np.asarray(A)
    return int(_rank(_svdvals(A), default_rank_tol(max(A.shape))))


def _relative_residual(residual, norm):
    """``residual / norm``, one per matrix of a stack: a zero residual is
    relative 0; against a zero or overflowed norm any other is infinite, so no
    tolerance accepts it."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        scaled = np.where((0.0 < norm) & (norm < math.inf), np.divide(residual, norm), math.inf)
    return np.where(residual == 0, 0.0, scaled)


def relative_residual(residual: float, K: FiniteKernel) -> float:
    """``residual / ||G||_2`` (``_norm`` of K.eigenvalues), the one scale for
    judging a residual of K's identities, by the rule of ``_relative_residual``."""
    return float(_relative_residual(residual, float(_norm(K.eigenvalues))))


def check_positive_definite(K: FiniteKernel) -> PsdReport:
    """PSD check on K.eigenvalues: ``is_psd`` iff min_eig >= -PSD_TOL * ||G||_2.
    The report carries both extreme eigenvalues so callers can judge margins."""
    values = K.eigenvalues
    lower, upper = (float(values[0]), float(values[-1])) if values.size else (0.0, 0.0)
    return PsdReport(min_eigenvalue=lower, max_eigenvalue=upper, is_psd=bool(_is_psd(values)))
