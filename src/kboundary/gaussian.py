"""Gaussian realization of a finite kernel as a boundary process.

Every boundary factorization (Phi, mu) of a PSD kernel K carries a
zero-mean Gaussian process with covariance K: for g standard normal on the
atoms, X = Phi (sqrt(mu) g) has E(X_s conj(X_t)) = sum_x k_s(x) conj(k_t(x))
mu(x) = K(s, t).  Draws are L g with L = Phi sqrt(mu), for the spectral
factorization that ``realize`` returns (counting measure, so L = Phi), a
Clark K_b factorization through its atoms, or any other.  g is real for
real kernels and circularly-symmetric complex (E g conj(g) = 1,
E g^2 = 0) for complex ones, so the identity holds in both conventions.

Sampling is chunked over a counter-based generator keyed by
(seed, chunk index): a fixed (factorization, seed, chunk layout, N)
always reproduces the same normals g, and chunks are independent so
parallel evaluation cannot reorder the stream.  ``sample`` maps each
chunk to the points as g L^T.  ``moments`` reads the same normals but
keeps running sums over the atoms, sum g and sum g g^*, and maps them
through L once at the end: sum d = L sum g and sum d d^* = L (sum g g^*)
L^*.  So one chunk holds chunk x r values, not chunk x n, and its memory
does not grow with N.  An L with zero imaginary part is used as a real
matrix, so real-tagged draws and their sums stay in real arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IndexOutOfRange, ShapeMismatch
from .factorization import BoundaryFactorization
from .kernels import FiniteKernel, _real_if_zero_imag, relative_residual
from .rkhs import parseval_factorize

DEFAULT_CHUNK_SIZE = 1 << 16
FACTOR_TOL = 1e-10  # relative to ||G||_2, as every spectral cutoff
EXACT_TOL = 1e-12  # restricted factorization against the Gram block, relative to ||G||_2


@dataclass(frozen=True)
class SampleBatch:
    """N x n matrix of draws plus the seed record that reproduces them."""

    draws: np.ndarray
    seed_record: dict

    def __post_init__(self):
        d = np.array(self.draws, dtype=complex)
        d.setflags(write=False)
        object.__setattr__(self, "draws", d)

    @property
    def count(self) -> int:
        return int(self.draws.shape[0])


def realize(K: FiniteKernel) -> BoundaryFactorization:
    """The spectral factorization of K whose process the sampler draws:
    ``parseval_factorize`` with eigenvalues at or below FACTOR_TOL * ||G||_2
    dropped.  Raises NotPsd when one lies below -FACTOR_TOL * ||G||_2."""
    return parseval_factorize(K, rank_tol=FACTOR_TOL, psd_tol=FACTOR_TOL)


def _chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    key = np.array([seed, chunk_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _seed_record(seed: int, N: int, chunk_size: int) -> dict:
    return {"seed": int(seed) & (2**64 - 1), "chunk_size": int(chunk_size), "count": int(N)}


def _atom_normals(F: BoundaryFactorization, record: dict):
    """Yield the standard normals on F's atoms that ``record`` names, as
    chunks of at most chunk_size rows, chunk i drawn from the Philox stream
    keyed by (seed, i): real for a real-tagged kernel, circular otherwise."""
    N, chunk_size = record["count"], record["chunk_size"]
    if N < 1:
        raise ShapeMismatch("sample count must be >= 1")
    if chunk_size < 1:
        raise ShapeMismatch("chunk size must be >= 1")
    for chunk_index, start in enumerate(range(0, N, chunk_size)):
        rng = _chunk_rng(record["seed"], chunk_index)
        shape = (min(chunk_size, N - start), F.n_atoms)
        if F.kernel.field_tag == "real":
            yield rng.standard_normal(shape)
        else:
            yield (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def _draw_factor(F: BoundaryFactorization) -> np.ndarray:
    """L = Phi sqrt(mu), real when its imaginary part is zero."""
    L = _real_if_zero_imag(F.features * np.sqrt(F.measure.weights))
    return np.ascontiguousarray(L)  # a strided .real view slows the products


def sample(
    F: BoundaryFactorization, N: int, seed: int = 0, chunk_size: int = DEFAULT_CHUNK_SIZE
) -> SampleBatch:
    """Draw N realizations of F's process; zero mean by construction.

    Holds the whole N x n batch; callers that need only the mean and the
    covariance use ``moments``."""
    record = _seed_record(seed, N, chunk_size)
    L = _draw_factor(F)
    draws = np.vstack([g @ L.T for g in _atom_normals(F, record)])
    return SampleBatch(draws=draws, seed_record=record)


def empirical_covariance(batch: SampleBatch) -> np.ndarray:
    """Zero-mean estimator (1/N) sum_d draws_d draws_d^*; no mean subtraction,
    the process mean is known to be zero."""
    N = batch.count
    if N < 2:
        raise ShapeMismatch("need at least two draws")
    return (batch.draws.T @ np.conj(batch.draws)) / N


def moments(
    F: BoundaryFactorization, N: int, seed: int = 0, chunk_size: int = DEFAULT_CHUNK_SIZE
) -> tuple:
    """(mean, covariance, seed_record) of the draws of
    ``sample(F, N, seed, chunk_size)``.

    The covariance is the zero-mean estimator of ``empirical_covariance``,
    summed in atom coordinates: each chunk of normals g adds ones @ g and
    g^T conj(g) to r-wide running sums m and S and is dropped, and the
    results are L m / N and L S L^* / N with L = Phi sqrt(mu).  Memory
    stays at one chunk x r block whatever N is, and the draws d = g L^T
    are never formed.  Equal to the point-space sums up to rounding.
    """
    if N < 2:
        raise ShapeMismatch("need at least two draws")
    record = _seed_record(seed, N, chunk_size)
    total = outer = 0.0
    for g in _atom_normals(F, record):
        total = total + np.ones(g.shape[0]) @ g
        outer = outer + g.T @ g.conj()
    L = _draw_factor(F)
    # A moment beyond the float range is inf or NaN, quietly, and fails its check.
    with np.errstate(over="ignore", invalid="ignore"):
        return (L @ total) / N, (L @ outer @ L.conj().T) / N, record


def consistency_check(K: FiniteKernel, subset, covariance, seed_record: dict) -> dict:
    """Marginalization consistency of the realized process.

    ``covariance`` and ``seed_record`` are the empirical covariance of the
    full process and its record, as ``moments(realize(K), N, seed)``
    returns them, so that the caller's stream is not drawn twice.

    ``subset`` is a nonempty sequence of distinct integer indices into K's
    points; an empty subset, or an entry that is a bool, a float, outside
    0..n-1 or repeated, raises IndexOutOfRange naming it.

    exact_ok asserts structurally that the subset's rows of the realized
    features factorize the principal Gram submatrix within
    EXACT_TOL * ||G||_2.  The empirical deviation compares the subset's
    block of that covariance (the covariance of its projected samples)
    against a directly realized process on the subset, sampled from the
    derived seed+1 stream with the record's count and chunk size.
    """
    idx = list(subset)
    n = K.size
    if not idx:
        raise IndexOutOfRange("subset is empty")
    seen = set()
    for i in idx:
        # bool is an int subclass, and int(1.5) would truncate: both refused.
        if isinstance(i, (bool, np.bool_)) or not isinstance(i, (int, np.integer)):
            raise IndexOutOfRange(f"subset index {i!r} is not an integer")
        if not (0 <= i < n):
            raise IndexOutOfRange(f"subset index {i!r} outside range 0..{n - 1}")
        if i in seen:
            raise IndexOutOfRange(f"subset index {i!r} is repeated")
        seen.add(i)
    idx = [int(i) for i in idx]
    cov = np.asarray(covariance)
    if cov.shape != (n, n):
        raise ShapeMismatch(f"covariance has shape {cov.shape}, kernel has {n} points")

    F, K_sub = realize(K), K.restrict(idx)
    restricted = BoundaryFactorization(kernel=K_sub, measure=F.measure, features=F.features[idx])
    exact_ok = relative_residual(restricted.residual, K) <= EXACT_TOL

    emp_direct = moments(
        realize(K_sub), seed_record["count"], seed_record["seed"] + 1,
        seed_record["chunk_size"],
    )[1]
    deviation = float(np.abs(cov[np.ix_(idx, idx)] - emp_direct).max())
    return {"exact_ok": exact_ok, "empirical_deviation": deviation}
