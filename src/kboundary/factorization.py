"""Boundary factorizations of a kernel and the isometry/co-isometry pair.

A boundary factorization of a finite kernel K is a finite atomic measure
mu on atoms B together with feature values k_{s_i}(x) satisfying

    K(s_i, s_j) = sum_x k_{s_i}(x) conj(k_{s_j}(x)) mu(x).

The transform W maps kernel sections to their features, W K(., s) = k_s,
and extends off the generators to an isometry of H(K) into L^2(mu); the
companion transform V is the integral operator
(V g)(s) = sum_x g(x) conj(k_s(x)) mu(x).  W is norm-preserving, V W
reproduces the factorization identity on generators, and W V is the
mu-orthogonal projection onto the span of the features inside L^2(mu).

The order relation between factorizations of the same kernel is checked
on finite atomic spaces: a map phi between atom sets must push the source
weights onto the target weights, must be injective (the power-set model
of pulling the target sigma-algebra back onto the source one), and must
intertwine the features.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import kernels, rkhs
from .errors import (
    BaseMismatch,
    LabelMismatch,
    NotAFactorization,
    ShapeMismatch,
)
from .kernels import (
    FACTORIZATION_TOL,
    FiniteKernel,
    default_rank_tol,
    numerical_rank,
    relative_residual,
)
from .measures import DiscreteMeasure
from .rkhs import RkhsElement, as_columns, same_base

MORPHISM_TOL = 1e-12  # relative to the total mass and to max |features|


@dataclass(frozen=True)
class BoundaryFactorization:
    """(kernel, measure, features) with features[i, x] = k_{s_i}(atom x)."""

    kernel: FiniteKernel
    measure: DiscreteMeasure
    features: np.ndarray

    def __post_init__(self):
        phi = np.array(self.features, dtype=complex)
        if phi.shape != (self.kernel.size, self.measure.size):
            raise ShapeMismatch(
                f"features must be {self.kernel.size}x{self.measure.size}, "
                f"got {phi.shape}"
            )
        phi.setflags(write=False)
        object.__setattr__(self, "features", phi)

    @classmethod
    def induced(cls, measure: DiscreteMeasure, features) -> "BoundaryFactorization":
        """The factorization whose kernel is the one the features induce,
        G = Phi D Phi^*."""
        phi = np.asarray(features, dtype=complex)
        if phi.ndim != 2 or phi.shape[1] != measure.size:
            raise ShapeMismatch(
                f"features must have {measure.size} columns, got shape {phi.shape}"
            )
        kernel = FiniteKernel(gram=_induced_gram(phi, measure.weights))
        return cls(kernel=kernel, measure=measure, features=phi)

    @cached_property
    def residual(self) -> float:
        """verify_factorization(self), computed once: the fields are frozen."""
        return verify_factorization(self)

    @cached_property
    def feature_projector(self) -> np.ndarray:
        """Orthogonal projection onto the eigenvectors of the features' mu-Gram
        B B^* on L^2(mu), B = D^(1/2) Phi^T in sqrt-weighted coordinates, above
        the frame cutoff default_rank_tol(n_points); computed once and
        read-only.  The nonzero eigenvalues of B B^* are those of
        conj(Phi) D Phi^T (conj(G) if the identity is exact)."""
        B_Bh = _feature_gram(self.features, self.measure.weights)
        values, vectors = kernels._eigh(B_Bh)
        S = kernels._projector(vectors, kernels._kept(values, default_rank_tol(self.n_points)))
        S.setflags(write=False)
        return S

    @property
    def n_points(self) -> int:
        return self.kernel.size

    @property
    def n_atoms(self) -> int:
        return self.measure.size


@dataclass(frozen=True)
class MeasureMorphism:
    """Map phi from the atoms of ``source`` onto the atoms of ``target``."""

    source: DiscreteMeasure
    target: DiscreteMeasure
    map: dict = field(default_factory=dict)

    def __post_init__(self):
        mapping = dict(self.map)
        missing = [a for a in self.source.atoms if a not in mapping]
        if missing:
            raise LabelMismatch(f"map is not total on source atoms: missing {missing!r}")
        extra = [a for a in mapping if a not in self.source.atoms]
        if extra:
            raise LabelMismatch(f"map defined on unknown source atoms {extra!r}")
        bad = [v for v in mapping.values() if v not in self.target.atoms]
        if bad:
            raise LabelMismatch(f"map hits unknown target atoms {bad!r}")
        object.__setattr__(self, "map", mapping)

    @cached_property
    def target_index_of_source(self) -> np.ndarray:
        """phi as an index array, position j holding the target index of source
        atom j; built once: the fields are frozen."""
        position = {atom: i for i, atom in enumerate(self.target.atoms)}
        idx = np.array([position[self.map[a]] for a in self.source.atoms], dtype=int)
        idx.setflags(write=False)
        return idx


# The array cores below hold the one formula of each object.  They take
# unvalidated arrays: ``features`` (..., n, m) and ``weights`` (..., m), with
# a function on the atoms (coefficients on the points) given as one vector,
# or as a (..., m, k) stack of column matrices, whose leading axes broadcast
# against those of the features, as in numpy's matmul.  The public functions
# validate their frozen objects and call them; verify-all's schwarz-bound
# and transform-pair call them on zero-padded stacks of weighted feature
# factorizations.


def _atom_weights(weights: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The weights aligned with the atom axis of g: as they are for one
    vector, and as a column for a stack of column matrices."""
    return weights if g.ndim == 1 else weights[..., :, None]


def _column_sums(x: np.ndarray):
    """The sum of a vector, or of each column of a stack of column matrices."""
    return np.sum(x, axis=-1 if x.ndim == 1 else -2)


def _l2_norm_squared(weights: np.ndarray, g: np.ndarray):
    """sum_x |g(x)|^2 mu(x), one per column of a stack of column matrices."""
    return _column_sums(g * np.conj(g) * _atom_weights(weights, g)).real


def _apply_W(features: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """W f = sum_i conj(xi_i) k_{s_i}, one column per column of xi."""
    return features.swapaxes(-1, -2) @ np.conj(xi)


def _apply_V(features: np.ndarray, weights: np.ndarray, g: np.ndarray) -> np.ndarray:
    """(V g)(s_i) = sum_x g(x) conj(k_{s_i}(x)) mu(x), one column per column of g."""
    return np.conj(features) @ (_atom_weights(weights, g) * g)


def _schwarz_bound(features: np.ndarray, weights: np.ndarray, gram: np.ndarray,
                   g: np.ndarray, xi: np.ndarray) -> dict:
    """lhs = |sum_i xi_i (V g)(s_i)|^2 and rhs = ||g||^2_{L2(mu)} xi^* G xi,
    each read from its core, and holds = lhs <= rhs (1 + 1e-9); g and xi are
    both vectors or both stacks of column matrices."""
    lhs = np.abs(_column_sums(xi * _apply_V(features, weights, g))) ** 2
    rhs = _l2_norm_squared(weights, g) * rkhs._norm_squared(gram, xi)
    return {"lhs": lhs, "rhs": rhs, "holds": lhs <= rhs * (1.0 + 1e-9)}


def l2_norm_squared(g, measure: DiscreteMeasure):
    """sum_x |g(x)|^2 mu(x): a float, or an array of one per column of an
    (m, k) matrix g."""
    return _l2_norm_squared(measure.weights, as_columns(g, measure.size, "L2 array"))


def _induced_gram(features: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Phi D Phi^*: the Gram matrix that features Phi induce under weights D,
    one per factorization of a (..., n, m) stack; an overflow stays quiet, for
    FiniteKernel to reject."""
    with np.errstate(over="ignore", invalid="ignore"):
        return (features * weights[..., None, :]) @ np.conj(features).swapaxes(-1, -2)


def _residual(features: np.ndarray, weights: np.ndarray, gram: np.ndarray):
    """Max-abs entry of Phi D Phi^* - G, one per factorization of a stack;
    0 for an empty kernel.  The difference overwrites the reconstruction."""
    difference = _induced_gram(features, weights)
    np.subtract(difference, gram, out=difference)
    return np.abs(difference).max(axis=(-2, -1), initial=0.0)


def verify_factorization(F: BoundaryFactorization) -> float:
    """Max-abs residual of the factorization identity Phi D Phi^* - G."""
    return float(_residual(F.features, F.measure.weights, F.kernel.gram))


def _feature_gram(features: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """B B^* for B = D^(1/2) Phi^T, the features' mu-Gram on L^2(mu) in
    sqrt-weighted coordinates, one per factorization of a stack."""
    B = np.sqrt(weights)[..., :, None] * features.swapaxes(-1, -2)
    return B @ np.conj(B).swapaxes(-1, -2)


def minimality_test(F: BoundaryFactorization) -> dict:
    """Finite model of tightness: do the features span L^2(mu)?

    The features k_{s_i} are rows of the feature matrix; they span the
    m-dimensional L^2(mu) exactly when the matrix has rank m.  Weights are
    strictly positive, so the rank is computed on the sqrt-weighted matrix,
    which is the actual L^2(mu) geometry.
    """
    weighted = F.features * np.sqrt(F.measure.weights)[None, :]
    rank = numerical_rank(weighted)
    return {"is_minimal": rank == F.n_atoms, "feature_rank": rank}


def _require_factorization(F: BoundaryFactorization) -> None:
    """Raise NotAFactorization unless residual / ||G||_2 <= FACTORIZATION_TOL."""
    relative = relative_residual(F.residual, F.kernel)
    if not relative <= FACTORIZATION_TOL:
        raise NotAFactorization(
            f"factorization residual {F.residual!r} is {relative!r} of ||G||_2, "
            f"above {FACTORIZATION_TOL!r}"
        )


def apply_W(F: BoundaryFactorization, f: RkhsElement) -> np.ndarray:
    """Isometry W: kernel sections to boundary features, as a vector over atoms
    (an (m, k) matrix, one column per element, when f holds k elements).

    On generators W K(., s) = k_s; the extension off the generators is
    conjugate-linear, W f = sum_i conj(xi_i) k_{s_i}.  With sections taken
    in the first kernel argument this is the unique extension under which
    the factorization identity makes W norm-preserving: the mu-weighted
    squared norm of the output equals rkhs_inner(f, f) for every
    coefficient vector, not just real ones.
    """
    _require_factorization(F)
    if not same_base(f.base, F.kernel):
        raise BaseMismatch("element is not based on the factorized kernel")
    return _apply_W(F.features, f.coeffs)


def apply_V(F: BoundaryFactorization, g) -> np.ndarray:
    """Adjoint transform (V g)(s_i) = sum_x g(x) conj(k_{s_i}(x)) mu(x).

    Returns the values of V g at every base point, or an (n, k) matrix for
    the k columns of an (m, k) matrix g.  On a verified factorization,
    feeding a feature row k_t back through V reproduces the factorization
    identity: the output is the Gram row of t.
    """
    return _apply_V(F.features, F.measure.weights, as_columns(g, F.n_atoms, "L2 array"))


def range_projection(F: BoundaryFactorization) -> np.ndarray:
    """Matrix of P = W W^* on L^2(mu): mu-orthogonal projection onto span{k_s}.

    D^(1/2) P D^(-1/2) is F.feature_projector: a projection even on
    degenerate kernels.
    """
    return _range_projection(F.feature_projector, F.measure.weights)


def _range_projection(projector: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """D^(-1/2) S D^(1/2) for the feature projector S, one per factorization
    of a stack."""
    sqrt_w = np.sqrt(weights)
    return projector * sqrt_w[..., None, :] / sqrt_w[..., :, None]


def _projection_residual(features: np.ndarray, weights: np.ndarray, projector: np.ndarray):
    """The larger of max |P^2 - P| and max |P_adj - P|, plus the range
    residual max |P k_s - k_s| / max |k_s(x)| (0 when every feature is 0): P
    the range projection of the feature projector and P_adj its adjoint in
    the mu-weighted inner product, one per factorization of a stack; a NaN
    propagates."""
    P = _range_projection(projector, weights)
    idem = np.abs(P @ P - P).max(axis=(-2, -1), initial=0.0)
    adj = (np.conj(P).swapaxes(-1, -2) * weights[..., None, :]) / weights[..., :, None]
    sections = features.swapaxes(-1, -2)
    off_range = np.abs(P @ sections - sections).max(axis=(-2, -1), initial=0.0)
    scale = np.abs(features).max(axis=(-2, -1), initial=0.0)
    return (np.maximum(idem, np.abs(adj - P).max(axis=(-2, -1), initial=0.0))
            + kernels._relative_residual(off_range, scale))


def projection_spectrum(F: BoundaryFactorization) -> np.ndarray:
    """Eigenvalues of the range projection, computed on its Hermitian
    similarity transform D^(1/2) P D^(-1/2); they lie in {0, 1}."""
    return kernels._eigvalsh(F.feature_projector)


def check_isometry(F: BoundaryFactorization) -> dict:
    """Residuals for W^* W = I and for W W^* being a mu-self-adjoint projection.

    W^* W - I, read through Gram coordinates, reduces exactly to the
    factorization identity, so its residual is the verify_factorization
    residual.  The projection residual is the max of |P^2 - P| and
    |P_adj - P| entries, the adjoint taken in the mu-weighted inner
    product, plus max |P k_s - k_s| relative to max |k_s(x)|, so that a
    projection onto the wrong range fails it.
    """
    _require_factorization(F)
    return {
        "wstar_w_residual": F.residual,
        "projection_residual": float(
            _projection_residual(F.features, F.measure.weights, F.feature_projector)),
    }


def schwarz_bound_check(F: BoundaryFactorization, g, xi) -> dict:
    """Cauchy-Schwarz bound for the transform pair.

    lhs = |sum_i xi_i (V g)(s_i)|^2,
    rhs = ||g||^2_{L2(mu)} * sum_{ij} xi_i conj(xi_j) K(s_i, s_j);
    holds iff lhs <= rhs * (1 + 1e-9), with no absolute floor.  An (m, k)
    matrix g with an (n, k) matrix xi gives one lhs, rhs and holds per
    column pair; column counts that differ raise ShapeMismatch.
    """
    f = RkhsElement(base=F.kernel, coeffs=xi)
    gv = as_columns(g, F.n_atoms, "L2 array")
    if gv.shape[1:] != f.coeffs.shape[1:]:
        raise ShapeMismatch(f"g has shape {gv.shape}, xi has shape {f.coeffs.shape}")
    return _schwarz_bound(F.features, F.measure.weights, F.kernel.gram, gv, f.coeffs)


def check_morphism(
    m: MeasureMorphism, F1: BoundaryFactorization, F2: BoundaryFactorization
) -> dict:
    """Order-relation check for two factorizations of the same kernel.

    pushforward_ok: the source weights push onto the target weights, within
    MORPHISM_TOL times the target's total mass.
    sigma_ok: phi is injective (power-set model of the sigma-algebra
    condition; on finite atomic spaces pulling back the target power set
    separates source atoms exactly when phi is injective).
    diagram_ok: features_2[i, x] = features_1[i, phi(x)] within MORPHISM_TOL
    times max |features_1|, i.e. the source transform factors through
    composition with phi on generators.
    """
    if not same_base(F1.kernel, F2.kernel):
        raise LabelMismatch("factorizations do not share a base kernel")
    if m.source.atoms != F2.measure.atoms or not np.array_equal(
        m.source.weights, F2.measure.weights
    ):
        raise LabelMismatch("morphism source must be the measure of F2")
    if m.target.atoms != F1.measure.atoms or not np.array_equal(
        m.target.weights, F1.measure.weights
    ):
        raise LabelMismatch("morphism target must be the measure of F1")

    idx = m.target_index_of_source
    pushed = np.zeros(m.target.size)
    np.add.at(pushed, idx, m.source.weights)
    pushforward_dev = np.abs(pushed - m.target.weights).max(initial=0.0)
    pushforward_ok = bool(pushforward_dev <= MORPHISM_TOL * m.target.total_mass())

    sigma_ok = bool(len(set(idx.tolist())) == m.source.size)

    pulled = F1.features[:, idx]
    diagram_dev = np.abs(F2.features - pulled).max(initial=0.0)
    diagram_ok = bool(diagram_dev <= MORPHISM_TOL * np.abs(F1.features).max(initial=0.0))

    return {
        "pushforward_ok": pushforward_ok,
        "sigma_ok": sigma_ok,
        "diagram_ok": diagram_ok,
    }


def pullback(F1: BoundaryFactorization, m: MeasureMorphism) -> BoundaryFactorization:
    """Factorization over the morphism source with features composed with phi."""
    if m.target.atoms != F1.measure.atoms:
        raise LabelMismatch("morphism target must be the measure of F1")
    return BoundaryFactorization(
        kernel=F1.kernel, measure=m.source, features=F1.features[:, m.target_index_of_source]
    )


def pullback_isometry_residual(m: MeasureMorphism, f):
    """|  ||f o phi||^2_{mu_2} - ||f||^2_{mu_1} | / ||f||^2_{mu_1} for f on the
    target atoms (0/0 reads 0), or one per column of an (m, k) matrix f; an
    overflowed norm gives NaN, quietly."""
    fv = as_columns(f, m.target.size, "f")
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        rhs = l2_norm_squared(fv, m.target)
        dev = np.abs(l2_norm_squared(fv[m.target_index_of_source], m.source) - rhs)
        return dev / np.where(dev == 0, 1.0, rhs)
