"""Circle-measure machinery: Cauchy transforms, inner functions, the
de Branges-Rovnyak-type kernel with its exact finite-sum factorization,
kernel renormalization and the polydisk density test.

For a finite atomic probability measure mu on the circle the Cauchy
transform is the finite sum C(z) = sum_j w_j / (1 - z conj(e(x_j))).
The associated inner function is taken in the reciprocal form

    b(z) = 1 - 1 / C(z).

The affine form 1 - C(z) is not used, because it is not inner: for a unit
point mass it gives -z/(1-z), which is unbounded near z = 1, while the
reciprocal form gives b(z) = z, satisfies b(0) = 0 and |b| < 1 on the disk,
matches the Herglotz identity Re[(1+b)/(1-b)] = Poisson integral of mu, and
makes 1 / E(K_z^*) = 1 - b(z) for Szego features averaged against mu.

At the atoms of mu the radial limit of b equals 1; the boundary feature

    k_z(x_j) = (1 - b(z)) / (1 - z conj(e(x_j)))

then factorizes K_b(z, w) = (1 - b(z) conj(b(w))) / (1 - z conj(w))
exactly as a finite sum against mu, and the features span L^2(mu) as
soon as there are at least as many distinct points z as atoms.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .errors import (
    BAtOne,
    CauchyZero,
    DomainViolation,
    InvalidMeasure,
    ShapeMismatch,
    ZeroExpectation,
)
# apply_V stays importable from here: perfbench/selftest.py reads clark.apply_V.
from .factorization import BoundaryFactorization, apply_V  # noqa: F401
from .kernels import (FiniteKernel, KernelSpec, PointSet, _check_in_disk, assemble_gram,
                      numerical_rank)
from .measures import CircleMeasure, DiscreteMeasure

CAUCHY_ZERO_TOL = 1e-14
EXPECTATION_TOL = 1e-12  # |E_i| relative to sum_x |k_i(x)| mu(x)


def cauchy_transform(mu: CircleMeasure, z):
    """C(z) = sum_j w_j / (1 - z conj(e(x_j))) for z in the open disk.

    ``z`` is a scalar or an array; the sum over the atoms runs on a new last
    axis, so the result has the shape of ``z`` (a numpy scalar for a scalar).
    """
    zv = _check_in_disk(z)
    e = mu.boundary_points()
    return np.sum(mu.weights / (1.0 - zv[..., None] * np.conj(e)), axis=-1)[()]


def _first_point(z, mask) -> complex:
    """The first point of ``z`` (in C order) where ``mask`` holds."""
    return complex(np.ravel(z)[np.argmax(np.ravel(mask))])


def b_eval(mu: CircleMeasure, z):
    """Evaluate b(z) = 1 - 1/C(z) at interior points (a scalar or an array)."""
    C = cauchy_transform(mu, z)
    vanishes = np.abs(C) < CAUCHY_ZERO_TOL
    if np.any(vanishes):
        raise CauchyZero(f"Cauchy transform vanishes at z = {_first_point(z, vanishes)!r}")
    return 1.0 - 1.0 / C


def atom_gap_grid(mu: CircleMeasure, thetas, margin: float) -> np.ndarray:
    """The angles of ``thetas`` (mod 1, flattened) whose circular distance
    to every atom of ``mu`` is at least ``margin``."""
    th = np.asarray(thetas, dtype=float).ravel() % 1.0
    gaps = np.abs(th[:, None] - mu.coords[:, 0])
    gaps = np.minimum(gaps, 1.0 - gaps)
    return th[gaps.min(axis=1) >= margin]


def inner_modulus_check(mu: CircleMeasure, thetas, r: float) -> float:
    """Max over the grid of | 1 - |b(r e(theta))| |.

    The grid must keep circular distance >= 1e-3 from every atom; the
    deviation decreases toward 0 as r increases toward 1.
    """
    if not (0.0 < r < 1.0):
        raise DomainViolation(f"radius must lie in (0,1), got {r!r}")
    th = atom_gap_grid(mu, thetas, 1e-3)
    if th.size < np.size(thetas):
        raise DomainViolation("theta grid comes closer than 1e-3 to an atom")
    zs = r * np.exp(2j * np.pi * th)
    return float(np.abs(1.0 - np.abs(b_eval(mu, zs))).max()) if th.size else 0.0


def kb_eval(mu: CircleMeasure, z, w):
    """K_b(z, w) = (1 - b(z) conj(b(w))) / (1 - z conj(w)), broadcast over
    ``z`` and ``w``.  b_eval checks z, then w, against the disk; it cannot
    raise CauchyZero, since Re C > 1/2 on the disk."""
    bz, bw = b_eval(mu, z), b_eval(mu, w)
    zv, wv = np.asarray(z, dtype=complex), np.asarray(w, dtype=complex)
    return ((1.0 - bz * np.conj(bw)) / (1.0 - zv * np.conj(wv)))[()]


def kb_feature(mu: CircleMeasure, z) -> np.ndarray:
    """Boundary features k_z(x_j) = (1 - b(z)) / (1 - z conj(e(x_j))) at every
    atom of ``mu``, in atom order, on a new last axis; b(e(x_j)) = 1 is the
    radial limit at an atom."""
    one_minus_b = (1.0 - b_eval(mu, z))[..., None]
    zv = np.asarray(z, dtype=complex)[..., None]
    return one_minus_b / (1.0 - zv * np.conj(mu.boundary_points()))


def build_kb_factorization(mu: CircleMeasure, points) -> BoundaryFactorization:
    """Exact factorization of the K_b Gram matrix through the atoms of mu.

    The features span L^2(mu) (minimality) as soon as the number of
    distinct interior points is at least the number of atoms.
    """
    ps = PointSet.from_points(points)
    if ps.dim != 1:
        raise ShapeMismatch("K_b factorization needs 1-dim complex points")
    return BoundaryFactorization(
        kernel=assemble_gram(KernelSpec(measure=mu), ps),
        measure=mu,
        features=kb_feature(mu, ps.coords[:, 0]),
    )


def build_szego_factorization(mu: CircleMeasure, points) -> BoundaryFactorization:
    """Factorization generated by Szego boundary features under mu.

    Features are k_z(x) = 1 / (1 - z conj(e(x))); the kernel is the one
    those features induce, K(z, w) = sum_j w_j k_z(x_j) conj(k_w(x_j)),
    so the factorization identity holds by construction.  Its feature
    means reproduce the Cauchy transform: E_i = C(z_i), hence
    1 / E_i = 1 - b(z_i).
    """
    ps = PointSet.from_points(points)
    if ps.dim != 1:
        raise ShapeMismatch("Szego features need 1-dim complex points")
    zs = _check_in_disk(ps.coords[:, 0])
    e = mu.boundary_points()
    features = 1.0 / (1.0 - zs[:, None] * np.conj(e)[None, :])
    return BoundaryFactorization.induced(mu, features, ps)


def herglotz_poisson_check(mu: CircleMeasure, z) -> dict:
    """Herglotz real part against the Poisson integral of mu, at interior
    points ``z`` (a scalar or an array; each value has the shape of ``z``).

    lhs = Re[(1 + b(z)) / (1 - b(z))],
    rhs = sum_j w_j (1 - |z|^2) / |e(x_j) - z|^2.
    """
    bz = b_eval(mu, z)
    at_one = np.abs(1.0 - bz) < CAUCHY_ZERO_TOL
    if np.any(at_one):
        raise BAtOne(f"b(z) = 1 within tolerance at z = {_first_point(z, at_one)!r}")
    lhs = np.real((1.0 + bz) / (1.0 - bz))
    zv = np.asarray(z, dtype=complex)[..., None]
    rhs = np.sum(
        mu.weights * (1.0 - np.abs(zv) ** 2) / np.abs(mu.boundary_points() - zv) ** 2, axis=-1
    )
    return {"lhs": lhs[()], "rhs": rhs[()], "abs_error": np.abs(lhs - rhs)[()]}


def expectation_vector(F: BoundaryFactorization) -> np.ndarray:
    """Feature means E_i = sum_x features[i, x] mu(x)."""
    return F.features @ F.measure.weights


@dataclass(frozen=True)
class RenormContext:
    """The feature means E of a factorization and its mean-normalized companion.

    kren_factorization has the kernel gram[i, j] / (E_i conj(E_j)) and the
    features features[i, x] / E_i, so the factorization identity survives
    renormalization verbatim.  The co-isometry V_mu from L^2(mu) onto H(K)
    of the renormalized kernel is ``apply_V(ctx.kren_factorization, g)``,
    and the density criterion is ``minimality_test(ctx.kren_factorization)``.
    """

    expectations: np.ndarray
    kren_factorization: BoundaryFactorization


def renormalize(F: BoundaryFactorization) -> RenormContext:
    """Divide kernel and features by the feature means.

    Fails fast with ZeroExpectation when a feature mean cancels, that is
    |E_i| <= EXPECTATION_TOL * sum_x |k_i(x)| mu(x): renormalization is
    undefined there, and the rule does not depend on the features' units.
    """
    E = expectation_vector(F)
    cancelled = np.abs(E) <= EXPECTATION_TOL * (np.abs(F.features) @ F.measure.weights)
    if cancelled.any():
        worst = int(np.argmax(cancelled))
        raise ZeroExpectation(
            f"feature mean for point index {worst} has modulus {float(abs(E[worst]))!r}"
        )
    kren_kernel = FiniteKernel(
        points=F.kernel.points, gram=F.kernel.gram / np.outer(E, np.conj(E))
    )
    return RenormContext(
        expectations=E,
        kren_factorization=BoundaryFactorization(
            kernel=kren_kernel, measure=F.measure, features=F.features / E[:, None]
        ),
    )


def polydisk_density_test(measure: DiscreteMeasure, max_degree: int | None = None) -> dict:
    """Rank growth of torus monomials e(n . x) evaluated at the atoms.

    For degrees d = 0..max_degree the monomials with multi-index entries
    in 0..d are evaluated at the atoms (sqrt-weighted, the L^2(mu)
    geometry); ``saturated`` records whether the rank reaches the number
    of atoms at some degree.  For k = 1 and m distinct atoms the
    Vandermonde structure guarantees saturation at degree m - 1.
    """
    coords = measure.coords
    if coords is None:
        raise InvalidMeasure("density test needs atom coordinates in [0,1)^k")
    m, k = coords.shape
    if max_degree is None:
        max_degree = m
    if max_degree < 0:
        raise ShapeMismatch("max_degree must be nonnegative")
    sqrt_w = np.sqrt(measure.weights)
    ranks = []
    saturated = False
    for d in range(max_degree + 1):
        grids = np.meshgrid(*([np.arange(d + 1)] * k), indexing="ij")
        exponents = np.stack([g.ravel() for g in grids], axis=1)
        phases = exponents @ coords.T  # (n_monomials, m)
        rows = np.exp(2j * np.pi * phases) * sqrt_w[None, :]
        rank = numerical_rank(rows)
        ranks.append(rank)
        if rank == m:
            saturated = True
            break
    return {"rank_sequence": ranks, "saturated": saturated}
