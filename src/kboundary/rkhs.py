"""Kernel-coordinate RKHS elements and the spectral Parseval frame.

An element f of the reproducing kernel Hilbert space H(K) is stored as a
coefficient vector xi against the kernel sections, f = sum_i xi_i K(., s_i).
The inner product and point evaluations are then quadratic/linear forms in
the Gram matrix; when the Gram matrix is singular, coefficient vectors are
non-unique and every operation is defined through the Gram matrix, never
through the coefficients alone.

The spectral Parseval frame of a PSD Gram matrix G = sum_n lam_n v_n v_n^*
has vectors beta_n(s_i) = sqrt(lam_n) v_n[i].  It is the boundary
factorization of K through the counting measure on the frame indices, with
features[i, n] = beta_n(s_i): the analysis coefficients <f, beta_n> are
conj(apply_W(F, f)), and synthesis is features @ c.  Frame vectors are
unique only up to a unitary, so frames are compared through the
reconstruction identity K(s,t) = sum_n beta_n(s) conj(beta_n(t)), never
vector by vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import kernels
from .errors import BaseMismatch, NotPsd, ShapeMismatch
from .kernels import FiniteKernel, default_rank_tol, numerical_rank
from .measures import DiscreteMeasure

if TYPE_CHECKING:
    from .factorization import BoundaryFactorization


def same_base(a: FiniteKernel, b: FiniteKernel) -> bool:
    return a is b or np.array_equal(a.gram, b.gram)


def as_columns(x, length: int, what: str) -> np.ndarray:
    """``x`` as a complex vector of ``length`` entries, or as a (length, k)
    matrix whose k columns are such vectors: the batch axis of the
    transforms.  Raises ShapeMismatch on any other shape."""
    v = np.asarray(x, dtype=complex)
    if v.ndim < 2:
        v = v.ravel()
    if v.ndim > 2 or v.shape[0] != length:
        raise ShapeMismatch(f"{what} has shape {v.shape}, expected leading length {length}")
    return v


@dataclass(frozen=True)
class RkhsElement:
    """f = sum_i coeffs[i] * K(., s_i) over the base kernel's points.

    An (n, k) coefficient matrix holds k elements, one per column; the
    transforms and ``norm_squared`` then return one result per column."""

    base: FiniteKernel
    coeffs: np.ndarray

    def __post_init__(self):
        # np.array keeps the memory order of the coefficients, and with it
        # the rounding of the products they enter.
        xi = np.array(as_columns(self.coeffs, self.base.size, "coefficient array"))
        xi.setflags(write=False)
        object.__setattr__(self, "coeffs", xi)


def _single(f: RkhsElement) -> np.ndarray:
    if f.coeffs.ndim != 1:
        raise ShapeMismatch("expected one element, got a coefficient matrix")
    return f.coeffs


def rkhs_inner(f: RkhsElement, g: RkhsElement) -> complex:
    """H(K) inner product <f, g> = eta^* G xi for coefficient vectors xi, eta."""
    if not same_base(f.base, g.base):
        raise BaseMismatch("elements live over different base kernels")
    return complex(np.conj(_single(g)) @ (f.base.gram @ _single(f)))


def _norm_squared(gram: np.ndarray, xi: np.ndarray):
    """xi^* G xi for one coefficient vector (a float), or one per column of a
    (..., n, k) stack of column matrices against a (..., n, n) stack of Grams."""
    if xi.ndim == 1:
        return complex(np.conj(xi) @ (gram @ xi)).real
    return np.sum(np.conj(xi) * (gram @ xi), axis=-2).real


def norm_squared(f: RkhsElement):
    """||f||^2 = xi^* G xi: a float, or an array of one per column when f
    holds a coefficient matrix."""
    return _norm_squared(f.base.gram, f.coeffs)


def parseval_factorize(K: FiniteKernel, rank_tol: float | None = None) -> BoundaryFactorization:
    """Spectral Parseval frame of a PSD Gram matrix, read from K.spectrum
    through the cores ``kernels._is_psd``, ``_kept`` and ``_factor``, as the
    counting-measure factorization of K.

    Eigenvalues above rank_tol * ||G||_2 (default_rank_tol(n) when None) are
    retained; feature column n is sqrt(lam_n) * v_n evaluated on the points,
    the strongest first.  Raises NotPsd when an eigenvalue lies below
    -PSD_TOL * ||G||_2, the cutoff of kernels.check_positive_definite.
    """
    from .factorization import BoundaryFactorization

    rank_tol = default_rank_tol(K.size) if rank_tol is None else rank_tol
    values, vectors = K.spectrum
    _require_psd(values[:1], kernels._is_psd(values))
    features = kernels._factor(values, vectors, kernels._kept(values, rank_tol))
    return BoundaryFactorization(
        kernel=K, measure=DiscreteMeasure.counting(features.shape[1]), features=features
    )


def _require_psd(lower, is_psd) -> None:
    """Raise NotPsd, naming its least eigenvalue ``lower``, for the first
    matrix whose PSD verdict ``is_psd`` is false: one, or one per matrix of a
    stack."""
    bad = np.flatnonzero(~np.asarray(is_psd))
    if bad.size:
        raise NotPsd(f"eigenvalue {float(np.ravel(lower)[bad[0]])!r} negative beyond tolerance")


def verify_parseval(F: BoundaryFactorization) -> float:
    """Reconstruction residual of a counting-measure factorization: F.residual,
    the max-abs entry of sum_n beta_n(s_i) conj(beta_n(s_j)) - K(s_i, s_j).

    For f = sum_i xi_i K(., s_i) the Parseval norm identity ||f||^2 =
    sum_n |<f, beta_n>|^2 is off by at most ||xi||^2 ||E||_2, E the matrix
    of those reconstruction errors, so it is not judged separately."""
    return F.residual


def tightness_test(F: BoundaryFactorization) -> bool:
    """True iff the frame vectors (feature columns) span C^m, m = F.n_atoms.

    This is the finite model of the feature functions being dense in the
    sequence space: the analysis map is onto exactly when no frame vector is
    linearly dependent on the others.
    """
    return numerical_rank(F.features) == F.n_atoms
