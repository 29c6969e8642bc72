"""Gaussian realization of a finite kernel as a boundary process.

Every boundary factorization (Phi, mu) of a PSD kernel K carries a
zero-mean Gaussian process with covariance K: for g standard normal on the
atoms, X = Phi (sqrt(mu) g) has E(X_s conj(X_t)) = sum_x k_s(x) conj(k_t(x))
mu(x) = K(s, t).  Draws are L g with L = Phi sqrt(mu), for the spectral
factorization that ``realize`` returns (counting measure, so L = Phi), a
Clark K_b factorization through its atoms, or any other.  g is real when
L has zero imaginary part and circularly-symmetric complex (E g conj(g) =
1, E g^2 = 0) otherwise, so the identity holds in both conventions.  That
is the one field rule: it reads the data, not how the kernel was given, so
a closed form and the table of its Gram draw the same process.

A record (seed, N) names the draws: N rows of normals g on the atoms from
one Philox stream keyed by the seed.  ``sample`` forms them and maps them
to the points as g L^T.  ``moments`` needs only the sums over the atoms,
sum g and sum g g^*, mapped through L once at the end: sum d = L sum g and
sum d d^* = L (sum g g^*) L^*.  It draws those two sums from their joint
law, the sample mean and the Bartlett factor of a Wishart matrix, so its
cost and memory do not grow with N.  A real L is used as a real matrix, so
its draws and their sums stay in real arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IndexOutOfRange, ShapeMismatch
from .factorization import BoundaryFactorization
from .kernels import FACTORIZATION_TOL, FiniteKernel, _real_if_zero_imag, relative_residual
from .rkhs import parseval_factorize


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
    ``parseval_factorize(K)``, the frame that ``kb factorize`` reports.
    Raises NotPsd when an eigenvalue lies below -PSD_TOL * ||G||_2."""
    return parseval_factorize(K)


def _seed_record(seed: int, N: int) -> dict:
    return {"seed": int(seed) & (2**64 - 1), "count": int(N)}


def _normals(rng: np.random.Generator, shape, L: np.ndarray) -> np.ndarray:
    """Standard normals of ``shape``: real for a real draw factor ``L``,
    circular complex (E|g|^2 = 1) otherwise."""
    if not np.iscomplexobj(L):
        return rng.standard_normal(shape)
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def _stream(record: dict) -> np.random.Generator:
    """The one generator of ``record``'s draws: Philox keyed by its seed."""
    return np.random.Generator(np.random.Philox(key=record["seed"]))


def _draw_factor(F: BoundaryFactorization) -> np.ndarray:
    """L = Phi sqrt(mu), real when its imaginary part is zero."""
    L = _real_if_zero_imag(F.features * np.sqrt(F.measure.weights))
    return np.ascontiguousarray(L)  # a strided .real view slows the products


def sample(F: BoundaryFactorization, N: int, seed: int = 0) -> SampleBatch:
    """Draw N realizations of F's process, g L^T for the N x r normals g of
    the record (seed, N); zero mean by construction.

    Holds the whole N x n batch; callers that need only the mean and the
    covariance use ``moments``, which draws them in this batch's law."""
    if N < 1:
        raise ShapeMismatch("sample count must be >= 1")
    record, L = _seed_record(seed, N), _draw_factor(F)
    g = _normals(_stream(record), (N, F.n_atoms), L)
    return SampleBatch(draws=g @ L.T, seed_record=record)


def empirical_covariance(batch: SampleBatch) -> np.ndarray:
    """Zero-mean estimator (1/N) sum_d draws_d draws_d^*; no mean subtraction,
    the process mean is known to be zero."""
    N = batch.count
    if N < 2:
        raise ShapeMismatch("need at least two draws")
    return (batch.draws.T @ np.conj(batch.draws)) / N


def moments(F: BoundaryFactorization, N: int, seed: int = 0) -> tuple:
    """(mean, covariance, seed_record) of N draws of F's process, in the law
    of ``sample(F, N, seed)``'s mean and ``empirical_covariance``.

    Both come from the atom sums m = sum g and S = sum g g^* as L m / N and
    L S L^* / N, L = Phi sqrt(mu), and the sums are drawn from their joint
    law: m = N gbar and S = T T^* + N gbar gbar^*, with gbar ~ N(0, I/N)
    independent of the Wishart(N - 1, I) scatter T T^*.  T is its
    lower-triangular Bartlett factor, T_ii^2 ~ chi^2(N - 1 - i) and
    T_ij ~ N(0, 1) below the diagonal, i = 0..r-1; for a complex L,
    gbar ~ CN(0, I/N), |T_ii|^2 ~ Gamma(N - 1 - i, 1) and T_ij ~ CN(0, 1).
    So the cost is O(r^3 + n r (n + r)) whatever N is.  Below N - 1 = r the
    factor does not exist, and the N x r normals of ``sample`` are summed.
    """
    if N < 2:
        raise ShapeMismatch("need at least two draws")
    record, r, L = _seed_record(seed, N), F.n_atoms, _draw_factor(F)
    rng = _stream(record)
    if N - 1 < r:
        g = _normals(rng, (N, r), L)
        total, outer = g.sum(axis=0), g.T @ g.conj()
    else:
        total = np.sqrt(N) * _normals(rng, r, L)  # N gbar
        dof = (N - 1) - np.arange(r)
        T = np.tril(_normals(rng, (r, r), L), -1)
        T[np.diag_indices(r)] = np.sqrt(
            rng.gamma(dof) if np.iscomplexobj(L) else rng.chisquare(dof))
        outer = T @ T.conj().T + np.outer(total, total.conj()) / N
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
    FACTORIZATION_TOL * ||G||_2, the tolerance of every factorization
    verdict, which realize's cutoff default_rank_tol(n) stays below.  The
    empirical deviation compares the subset's block of that covariance (the
    covariance of its projected samples) against a directly realized process
    on the subset, whose moments come from the derived seed+1 record with
    the same count.
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
    exact_ok = relative_residual(restricted.residual, K) <= FACTORIZATION_TOL

    emp_direct = moments(realize(K_sub), seed_record["count"], seed_record["seed"] + 1)[1]
    deviation = float(np.abs(cov[np.ix_(idx, idx)] - emp_direct).max())
    return {"exact_ok": exact_ok, "empirical_deviation": deviation}
