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
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

from .errors import BaseMismatch, NotPsd, ShapeMismatch
from .kernels import PSD_TOL, FiniteKernel, default_rank_tol, numerical_rank
from .measures import DiscreteMeasure

if TYPE_CHECKING:
    from .factorization import BoundaryFactorization

PARSEVAL_TRIALS = 4  # seeded random elements in verify_parseval's norm identity


def same_base(a: FiniteKernel, b: FiniteKernel) -> bool:
    if a is b:
        return True
    return a.points.labels == b.points.labels and np.array_equal(a.gram, b.gram)


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
        xi = as_columns(self.coeffs, self.base.size, "coefficient array")
        xi.setflags(write=False)
        object.__setattr__(self, "coeffs", xi)

    @classmethod
    def kernel_section(cls, base: FiniteKernel, label) -> "RkhsElement":
        """The generator K(., s) for the point labeled s."""
        xi = np.zeros(base.size, dtype=complex)
        xi[base.points.index(label)] = 1.0
        return cls(base=base, coeffs=xi)


def _single(f: RkhsElement) -> np.ndarray:
    if f.coeffs.ndim != 1:
        raise ShapeMismatch("expected one element, got a coefficient matrix")
    return f.coeffs


def rkhs_inner(f: RkhsElement, g: RkhsElement) -> complex:
    """H(K) inner product <f, g> = eta^* G xi for coefficient vectors xi, eta."""
    if not same_base(f.base, g.base):
        raise BaseMismatch("elements live over different base kernels")
    return complex(np.conj(_single(g)) @ (f.base.gram @ _single(f)))


def norm_squared(f: RkhsElement):
    """||f||^2 = xi^* G xi: a float, or an array of one per column when f
    holds a coefficient matrix."""
    if f.coeffs.ndim == 1:
        return rkhs_inner(f, f).real
    return np.sum(np.conj(f.coeffs) * (f.base.gram @ f.coeffs), axis=0).real


def evaluate(f: RkhsElement, label) -> complex:
    """Point evaluation f(s) = sum_i xi_i K(s, s_i); the reproducing property
    makes this equal to rkhs_inner(f, K(., s))."""
    i = f.base.points.index(label)
    return complex(f.base.gram[i, :] @ _single(f))


def parseval_factorize(K: FiniteKernel, rank_tol: float | None = None,
                       psd_tol: float = PSD_TOL) -> BoundaryFactorization:
    """Spectral Parseval frame of a PSD Gram matrix, read from K.spectrum, as
    the counting-measure factorization of K.

    Eigenvalues above rank_tol * ||G||_2 (default_rank_tol(n) when None) are
    retained; feature column n is sqrt(lam_n) * v_n evaluated on the points,
    the strongest first.  Raises NotPsd when an eigenvalue lies below
    -psd_tol * ||G||_2, the cutoff of kernels.check_positive_definite.
    """
    from .factorization import BoundaryFactorization

    rank_tol = default_rank_tol(K.size) if rank_tol is None else rank_tol
    spec = K.spectrum
    if not spec.is_psd(psd_tol):
        raise NotPsd(f"eigenvalue {float(spec.values[0])!r} negative beyond tolerance")
    features = np.ascontiguousarray(spec.factor(rank_tol)[:, ::-1], dtype=complex)
    return BoundaryFactorization(
        kernel=K, measure=DiscreteMeasure.counting(features.shape[1]), features=features
    )


@lru_cache(maxsize=32)
def _parseval_probes(seed: int, n: int) -> np.ndarray:
    """The (n, PARSEVAL_TRIALS) read-only coefficients of verify_parseval's
    seeded random elements, drawn once per (seed, n)."""
    draws = np.random.default_rng(seed).standard_normal((PARSEVAL_TRIALS, 2, n))
    coeffs = (draws[:, 0] + 1j * draws[:, 1]).T
    coeffs.setflags(write=False)
    return coeffs


def verify_parseval(F: BoundaryFactorization, seed: int = 0) -> float:
    """Reconstruction residual of a counting-measure factorization.

    Returns the max of (a) F.residual, the max-abs entry of the
    reconstruction identity sum_n beta_n(s_i) conj(beta_n(s_j)) - K(s_i, s_j),
    and (b) the relative Parseval norm-identity deviation
    | ||f||^2 - sum_n |<f, beta_n>|^2 | over PARSEVAL_TRIALS seeded random
    elements f, judged in one array pass.  A NaN in either term is returned.
    """
    f = RkhsElement(base=F.kernel, coeffs=_parseval_probes(seed, F.n_points))
    # Gram entries near the float limit overflow here; numpy stays quiet,
    # so that kb's stderr carries only kb's own messages.
    with np.errstate(over="ignore", invalid="ignore"):
        nrm2 = norm_squared(f)
        coeffs = np.conj(F.features).T @ f.coeffs  # <f, beta_n> = conj((W f)_n)
        dev = np.abs(nrm2 - np.ones(coeffs.shape[0]) @ np.abs(coeffs) ** 2)
        relative = dev / np.maximum(1.0, np.abs(nrm2))
    # np.max propagates NaN where the builtin max would drop it.
    return float(np.max(relative, initial=F.residual))


def tightness_test(F: BoundaryFactorization) -> bool:
    """True iff the frame vectors (feature columns) span C^m, m = F.n_atoms.

    This is the finite model of the feature functions being dense in the
    sequence space: the analysis map is onto exactly when no frame vector is
    linearly dependent on the others.
    """
    return numerical_rank(F.features) == F.n_atoms
