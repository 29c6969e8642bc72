"""Kernel-coordinate RKHS elements and Parseval frame factorizations.

An element f of the reproducing kernel Hilbert space H(K) is stored as a
coefficient vector xi against the kernel sections, f = sum_i xi_i K(., s_i).
The inner product and point evaluations are then quadratic/linear forms in
the Gram matrix; when the Gram matrix is singular, coefficient vectors are
non-unique and every operation is defined through the Gram matrix, never
through the coefficients alone.

The spectral Parseval frame of a PSD Gram matrix G = sum_n lam_n v_n v_n^*
stores rows beta_n(s_i) = sqrt(lam_n) v_n[i].  Frame rows are unique only
up to a unitary, so frames are compared through the reconstruction
identity K(s,t) = sum_n beta_n(s) conj(beta_n(t)), never row by row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BaseMismatch, NotPsd, ShapeMismatch
from .kernels import FiniteKernel, default_rank_tol, numerical_rank


def same_base(a: FiniteKernel, b: FiniteKernel) -> bool:
    if a is b:
        return True
    return a.points.labels == b.points.labels and np.array_equal(a.gram, b.gram)


@dataclass(frozen=True)
class RkhsElement:
    """f = sum_i coeffs[i] * K(., s_i) over the base kernel's points."""

    base: FiniteKernel
    coeffs: np.ndarray

    def __post_init__(self):
        xi = np.asarray(self.coeffs, dtype=complex).ravel()
        if xi.size != self.base.size:
            raise ShapeMismatch(
                f"coefficient vector has length {xi.size}, base has {self.base.size} points"
            )
        xi.setflags(write=False)
        object.__setattr__(self, "coeffs", xi)

    @classmethod
    def kernel_section(cls, base: FiniteKernel, label) -> "RkhsElement":
        """The generator K(., s) for the point labeled s."""
        xi = np.zeros(base.size, dtype=complex)
        xi[base.points.index(label)] = 1.0
        return cls(base=base, coeffs=xi)


@dataclass(frozen=True)
class ParsevalFrame:
    """Rows are frame vectors evaluated on the base points: frame[n, i] = beta_n(s_i)."""

    base: FiniteKernel
    frame: np.ndarray

    def __post_init__(self):
        fr = np.asarray(self.frame, dtype=complex)
        if fr.ndim != 2 or fr.shape[1] != self.base.size:
            raise ShapeMismatch(
                f"frame must have {self.base.size} columns, got shape {fr.shape}"
            )
        fr.setflags(write=False)
        object.__setattr__(self, "frame", fr)

    @property
    def retained_rank(self) -> int:
        return int(self.frame.shape[0])


def rkhs_inner(f: RkhsElement, g: RkhsElement) -> complex:
    """H(K) inner product <f, g> = eta^* G xi for coefficient vectors xi, eta."""
    if not same_base(f.base, g.base):
        raise BaseMismatch("elements live over different base kernels")
    return complex(np.conj(g.coeffs) @ (f.base.gram @ f.coeffs))


def norm_squared(f: RkhsElement) -> float:
    return rkhs_inner(f, f).real


def evaluate(f: RkhsElement, label) -> complex:
    """Point evaluation f(s) = sum_i xi_i K(s, s_i); the reproducing property
    makes this equal to rkhs_inner(f, K(., s))."""
    i = f.base.points.index(label)
    return complex(f.base.gram[i, :] @ f.coeffs)


def parseval_factorize(K: FiniteKernel, rank_tol: float | None = None) -> ParsevalFrame:
    """Spectral Parseval frame of a PSD Gram matrix, read from K.spectrum.

    Eigenvalues above rank_tol * ||G||_2 (default_rank_tol(n) when None) are
    retained; rows are sqrt(lam_n) * v_n evaluated on the points.  Raises
    NotPsd when an eigenvalue lies below minus that cutoff.
    """
    rank_tol = default_rank_tol(K.size) if rank_tol is None else rank_tol
    spec = K.spectrum
    if not spec.is_psd(rank_tol):
        raise NotPsd(f"eigenvalue {spec.values[0]!r} negative beyond tolerance")
    # Descending order reads naturally: strongest frame vector first.
    return ParsevalFrame(base=K, frame=spec.factor(rank_tol)[:, ::-1].T)


def verify_parseval(frame: ParsevalFrame, seed: int = 0, trials: int = 4) -> float:
    """Reconstruction residual of the frame against its base Gram matrix.

    Returns the max of (a) the max-abs entry of the reconstruction
    identity sum_n beta_n(s_i) conj(beta_n(s_j)) - K(s_i, s_j) and (b)
    the relative Parseval norm-identity deviation
    | ||f||^2 - sum_n |<f, beta_n>|^2 | over a few seeded random
    elements f.
    """
    G = frame.base.gram
    recon = frame.frame.T @ np.conj(frame.frame)
    residual = float(np.abs(recon - G).max()) if G.size else 0.0

    rng = np.random.default_rng(seed)
    n = frame.base.size
    for _ in range(trials):
        if n == 0:
            break
        xi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        f = RkhsElement(base=frame.base, coeffs=xi)
        nrm2 = norm_squared(f)
        coeffs = frame_expand(f, frame)
        dev = abs(nrm2 - float(np.abs(coeffs) ** 2 @ np.ones(coeffs.size)))
        residual = max(residual, dev / max(1.0, abs(nrm2)))
    return residual


def frame_expand(f: RkhsElement, frame: ParsevalFrame) -> np.ndarray:
    """Analysis coefficients c_n = <f, beta_n> = sum_i xi_i conj(beta_n(s_i))."""
    if not same_base(f.base, frame.base):
        raise BaseMismatch("element and frame live over different base kernels")
    return np.conj(frame.frame) @ f.coeffs


def frame_synthesize(frame: ParsevalFrame, coeffs: np.ndarray) -> np.ndarray:
    """Pointwise values of sum_n c_n beta_n on the base points."""
    c = np.asarray(coeffs, dtype=complex).ravel()
    if c.size != frame.retained_rank:
        raise ShapeMismatch(
            f"expected {frame.retained_rank} coefficients, got {c.size}"
        )
    return frame.frame.T @ c


def tightness_test(frame: ParsevalFrame) -> bool:
    """True iff the frame rows span C^m, m = number of rows.

    This is the finite model of the feature functions being dense in the
    sequence space: the analysis map is onto exactly when no row is linearly
    dependent on the others.
    """
    return numerical_rank(frame.frame) == frame.retained_rank
