"""Gaussian realization of a finite kernel as a boundary process.

Every PSD kernel admits a zero-mean Gaussian process with the kernel as
covariance.  At desk scale the process is a random vector: draws are
L w with L a spectral square root of the Gram matrix and w a standard
Gaussian vector, real normals for real kernels and circularly-symmetric
complex normals (E w conj(w) = 1, E w^2 = 0) for complex ones, so that
E(k_s conj(k_t)) = K(s, t) holds in both conventions.

Sampling is chunked over a counter-based generator keyed by
(seed, chunk index): a fixed (seed, chunk layout, N) always reproduces
the same batch, and chunks are independent so parallel evaluation cannot
reorder the stream.  ``moments`` reads the same chunks as ``sample`` but
keeps only running sums, so its memory does not grow with N.  A Gram
matrix with zero imaginary part gets a real factor, so real-tagged draws
and their sums stay in real arithmetic.

The finite-marginal density uses the standard Gaussian normalization,
(2 pi)^(-n/2) det(M)^(-1/2) in the real case and pi^(-n) det(M)^(-1) in
the circular complex case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IndexOutOfRange, NotPsd, ShapeMismatch, SingularCovariance
from .kernels import FiniteKernel, relative_residual

DEFAULT_CHUNK_SIZE = 1 << 16
FACTOR_TOL = 1e-10  # relative to ||G||_2, as every spectral cutoff
DENSITY_TOL = 1e-12
EXACT_TOL = 1e-12  # restricted factor against the Gram block, relative to ||G||_2


@dataclass(frozen=True)
class GaussianRealization:
    """Spectral factor L (n x r) with L L^* = G, plus the sampling seed.

    L is float64 when given real and complex128 otherwise."""

    kernel: FiniteKernel
    factor: np.ndarray
    seed: int
    field_tag: str = "complex"

    def __post_init__(self):
        L = np.asarray(self.factor)
        L = L.astype(complex if np.iscomplexobj(L) else float, copy=False)
        if L.ndim != 2 or L.shape[0] != self.kernel.size:
            raise ShapeMismatch(
                f"factor must have {self.kernel.size} rows, got shape {L.shape}"
            )
        L.setflags(write=False)
        object.__setattr__(self, "factor", L)
        object.__setattr__(self, "seed", int(self.seed) & (2**64 - 1))

    @property
    def rank(self) -> int:
        return int(self.factor.shape[1])


@dataclass(frozen=True)
class SampleBatch:
    """N x n matrix of draws plus the seed record that reproduces them."""

    draws: np.ndarray
    seed_record: dict

    def __post_init__(self):
        d = np.asarray(self.draws, dtype=complex)
        d.setflags(write=False)
        object.__setattr__(self, "draws", d)

    @property
    def count(self) -> int:
        return int(self.draws.shape[0])


def realize(K: FiniteKernel, seed: int = 0) -> GaussianRealization:
    """Spectral square root of the Gram matrix from K.spectrum, dropping
    eigenvalues at or below FACTOR_TOL * ||G||_2.  Raises NotPsd when one lies
    below -FACTOR_TOL * ||G||_2.  The factor is real for a real Gram matrix.
    """
    spec = K.spectrum
    if not spec.is_psd(FACTOR_TOL):
        raise NotPsd(f"kernel has min eigenvalue {spec.values[0]!r}; cannot realize")
    return GaussianRealization(
        kernel=K, factor=spec.factor(FACTOR_TOL), seed=seed, field_tag=K.field_tag
    )


def _chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    key = np.array([seed, chunk_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _draw_chunks(R: GaussianRealization, N: int, chunk_size: int):
    """Yield the N draws of R as chunks of at most chunk_size rows, chunk i
    drawn from the Philox stream keyed by (seed, i)."""
    if N < 1:
        raise ShapeMismatch("sample count must be >= 1")
    if chunk_size < 1:
        raise ShapeMismatch("chunk size must be >= 1")
    r = R.rank
    for chunk_index, start in enumerate(range(0, N, chunk_size)):
        count = min(chunk_size, N - start)
        rng = _chunk_rng(R.seed, chunk_index)
        if R.field_tag == "real":
            w = rng.standard_normal((count, r))
        else:
            w = (
                rng.standard_normal((count, r))
                + 1j * rng.standard_normal((count, r))
            ) / np.sqrt(2.0)
        yield w @ R.factor.T


def _seed_record(R: GaussianRealization, N: int, chunk_size: int) -> dict:
    return {"seed": R.seed, "chunk_size": int(chunk_size), "count": int(N)}


def sample(
    R: GaussianRealization, N: int, chunk_size: int = DEFAULT_CHUNK_SIZE
) -> SampleBatch:
    """Draw N realizations of the process; zero mean by construction.

    Holds the whole N x n batch; callers that need only the mean and the
    covariance use ``moments``."""
    return SampleBatch(
        draws=np.vstack(list(_draw_chunks(R, N, chunk_size))),
        seed_record=_seed_record(R, N, chunk_size),
    )


def empirical_covariance(batch: SampleBatch) -> np.ndarray:
    """Zero-mean estimator (1/N) sum_d draws_d draws_d^*; no mean subtraction,
    the process mean is known to be zero."""
    N = batch.count
    if N < 2:
        raise ShapeMismatch("need at least two draws")
    return (batch.draws.T @ np.conj(batch.draws)) / N


def moments(
    R: GaussianRealization, N: int, chunk_size: int = DEFAULT_CHUNK_SIZE
) -> tuple:
    """(mean, covariance, seed_record) of the draws of ``sample(R, N, chunk_size)``.

    The covariance is the zero-mean estimator of ``empirical_covariance``.
    Each chunk is added to the running sums of d and d d^* and then
    dropped, so memory stays at one chunk whatever N is.
    """
    if N < 2:
        raise ShapeMismatch("need at least two draws")
    total = outer = 0.0
    for d in _draw_chunks(R, N, chunk_size):
        total = total + d.sum(axis=0)
        outer = outer + d.T @ d.conj()
    return total / N, outer / N, _seed_record(R, N, chunk_size)


def log_density(M_F: FiniteKernel, z) -> float:
    """Log density of the finite marginal at z, w.r.t. Lebesgue measure.

    Real tag: -(1/2) [n log(2 pi) + log det M + z^T M^{-1} z].
    Complex tag (circular): -[n log(pi) + log det M + z^* M^{-1} z].
    Both terms are read from M_F.spectrum; raises SingularCovariance unless
    every eigenvalue is above DENSITY_TOL * ||M||_2.
    """
    n = M_F.size
    zv = np.asarray(z, dtype=complex).ravel()
    if zv.size != n:
        raise ShapeMismatch(f"point has length {zv.size}, marginal has {n}")
    spec = M_F.spectrum
    if n == 0 or spec.values[0] <= DENSITY_TOL * spec.norm:
        raise SingularCovariance(
            f"marginal covariance has min eigenvalue {spec.values[0] if n else 0.0!r}"
        )
    logdet = float(np.sum(np.log(spec.values)))
    quad = float(np.sum(np.abs(np.conj(spec.vectors).T @ zv) ** 2 / spec.values))
    if M_F.field_tag == "real":
        return -0.5 * (n * np.log(2.0 * np.pi) + logdet + quad)
    return -(n * np.log(np.pi) + logdet + quad)


def consistency_check(K: FiniteKernel, subset, covariance, seed_record: dict) -> dict:
    """Marginalization consistency of the realized process.

    ``covariance`` and ``seed_record`` are the empirical covariance of the
    full process and its record, as ``moments(realize(K, seed), N)``
    returns them, so that the caller's stream is not drawn twice.

    exact_ok asserts structurally that restricting the factor rows
    reproduces the principal Gram submatrix within EXACT_TOL * ||G||_2.
    The empirical deviation compares the subset's block of that covariance
    (the covariance of its projected samples) against a directly realized
    process on the subset, sampled from the derived seed+1 stream with the
    record's count and chunk size.
    """
    idx = list(subset)
    n = K.size
    for i in idx:
        if not (0 <= int(i) < n):
            raise IndexOutOfRange(f"subset index {i!r} outside range 0..{n - 1}")
    idx = [int(i) for i in idx]
    cov = np.asarray(covariance)
    if cov.shape != (n, n):
        raise ShapeMismatch(f"covariance has shape {cov.shape}, kernel has {n} points")

    R = realize(K)
    L_sub = R.factor[idx, :]
    sub_gram = K.gram[np.ix_(idx, idx)]
    exact_dev = float(np.abs(L_sub @ np.conj(L_sub).T - sub_gram).max())
    exact_ok = relative_residual(exact_dev, K) <= EXACT_TOL

    R_sub = realize(K.restrict(idx), seed=seed_record["seed"] + 1)
    emp_direct = moments(R_sub, seed_record["count"], seed_record["chunk_size"])[1]
    deviation = float(np.abs(cov[np.ix_(idx, idx)] - emp_direct).max())
    return {"exact_ok": exact_ok, "empirical_deviation": deviation}
