"""Seeded self-check suite, and the verdicts it shares with the ``kb`` pipelines.

Every verdict, of a ``kb`` pipeline or of a criterion here, is one ``Check``
record (``kboundary.check``).  A quantity that ``kb <command>`` and ``kb verify-all`` both judge
is computed by one function below, its bound a named constant: the
pipeline applies it to the user's objects, and the criterion to its seeded
corpus, keeping the worst value.  Each criterion builds its corpus from the
given master seed, so the CLI ``verify-all`` command and the test suite
share one implementation.  All tolerances are fixed here; nothing is
calibrated at run time.

A criterion whose corpus holds many small problems judges them as stacks,
through the library's own array cores, not through one frozen object per
problem.  ``schwarz-bound`` and ``transform-pair`` zero-pad their 500 and
200 factorizations to one stack each, and ``poisson-herglotz``,
``inner-modulus`` and ``renormalization`` their 20, 20 and 10 circle
measures; ``parseval-reconstruction`` groups its 200 random PSD kernels by
size and field (``_spectral_frames``), ``renormalization`` its 100 random
factorizations by point count n (``_renormalized_identities``) and its
Szego means by atom count (``_szego_means``), and ``polydisk-density`` its
80 measures by size (``_density_ranks``).  Each corpus is drawn by one
drawer per random law, in a few Generator calls for all of it: the random
PSD kernels (``_random_psd_grams``), the random feature factorizations
(``_random_feature_stack``), the circle measures (``_circle_draws``) and the
torus measures.  Zero padding is used only where it adds exact zeros to a
sum: on the atoms past each kernel's rank and past each circle measure's
own, and on the points and atoms past each random factorization's.  A grouped
stack is decomposed as it is, so each matrix gets the eigenpairs or
singular values, and so the rank and PSD verdicts, of a lone call;
``transform-pair`` decomposes its padded stack, whose padded rows and
columns are zero, and agrees with the lone calls to rounding.
Each criterion takes its worst value with a NaN-propagating reduction, so
that a NaN residual reads null and fails.

The corpora are rebuilt from the seed on every call, and nothing a
criterion builds outlives its call: the only arrays held at module level,
the modulus grid ``MODULUS_THETAS`` and ``MODULUS_POINTS``, are read-only,
so a run equals any earlier or later one of the same seed in one process.
"""

from __future__ import annotations

import time
from typing import NamedTuple

import numpy as np

from . import clark, factorization, gaussian, kernels, measures, rkhs
from .check import Check
from .errors import DomainViolation

HERGLOTZ_TOL = 1e-10  # |Re[(1+b)/(1-b)] - Poisson[mu]|
MODULUS_TOL = 1e-3  # |1 - |b|| on the grid below
MODULUS_RADIUS = 1.0 - 1e-6
MODULUS_THETAS = (np.arange(64) + 0.5) / 64.0
MODULUS_MARGIN = 2e-3  # least circular distance of a grid angle to an atom
MODULUS_POINTS = MODULUS_RADIUS * np.exp(2j * np.pi * MODULUS_THETAS)
MODULUS_THETAS.setflags(write=False)
MODULUS_POINTS.setflags(write=False)
INVERSE_MEAN_TOL = 1e-12  # |1/E - (1 - b)| for Szego features
GAUSSIAN_DRAWS = 200_000  # draws per kernel of gaussian-realization
ISOMETRY_DRAWS = 10
ISOMETRY_TOL = 1e-12  # pullback isometry residual, relative to ||f||^2
RANDOM_KERNEL_MAX_POINTS = 20  # random PSD kernels have 1..20 points
RANDOM_FEATURE_MAX_POINTS = 6  # random feature factorizations: 1..6 points
RANDOM_FEATURE_MAX_ATOMS = 8  # and 1..8 atoms
HERGLOTZ_MEASURES = 20  # random circle measures of poisson-herglotz and inner-modulus
INTERIOR_RADIUS = 0.9  # random interior points lie in |z| <= 0.9


def _circle_stack(mu):
    """(atoms, live, boundary points, weights) of a ``_circle_draws`` stack, the
    last three (..., 1, m) for ``clark._terms``; a CircleMeasure is the stack
    with no leading axis, all of it live."""
    lone = isinstance(mu, measures.CircleMeasure)
    atoms, w, live = (mu.coords[:, 0], mu.weights, np.ones(mu.size, bool)) if lone else mu
    return atoms, live[..., None, :], np.exp(2j * np.pi * atoms)[..., None, :], w[..., None, :]


def herglotz_error(mu, zs):
    """Worst Herglotz/Poisson identity error over ``zs`` of the inner function
    of each measure of ``mu``, a CircleMeasure or a ``_circle_draws`` stack."""
    _, _, e, w = _circle_stack(mu)
    return clark._herglotz_poisson(e, w, kernels._check_in_disk(zs))["abs_error"].max(axis=-1)


def modulus_deviation(mu):
    """Worst |1 - |b|| of the inner function of each measure of ``mu`` (as in
    ``herglotz_error``) at MODULUS_RADIUS, over the MODULUS_THETAS at least
    MODULUS_MARGIN from every atom; NaN, which fails the check, when every
    angle is that close to an atom."""
    atoms, live, e, w = _circle_stack(mu)
    far = clark._atom_gaps(atoms, live, MODULUS_THETAS) >= MODULUS_MARGIN
    dev = np.abs(1.0 - np.abs(1.0 - 1.0 / clark._cauchy(e, w, MODULUS_POINTS)))
    return np.where(far.any(axis=-1), np.max(dev, axis=-1, where=far, initial=-np.inf), np.nan)[()]


def inverse_mean_error(mu, zs, expectations):
    """Worst |1/E - (1 - b)| over ``zs`` of each measure of ``mu`` (as in
    ``herglotz_error``), E the means of its Szego features at ``zs``."""
    _, _, e, w = _circle_stack(mu)
    b = 1.0 - 1.0 / clark._cauchy(e, w, kernels._check_in_disk(zs))
    return np.abs(1.0 / expectations - (1.0 - b)).max(axis=-1)


def pullback_isometry_error(morphism: factorization.MeasureMorphism, rng) -> float:
    """Worst relative pullback isometry residual over ISOMETRY_DRAWS complex
    normal functions on the target atoms, drawn from ``rng``; NaN propagates."""
    z = rng.standard_normal((ISOMETRY_DRAWS, 2, morphism.target.size))
    draws = (z[:, 0] + 1j * z[:, 1]).T
    return float(np.max(factorization.pullback_isometry_residual(morphism, draws)))


def moment_errors(K: kernels.FiniteKernel, seed: int, n_draws: int):
    """``gaussian.moments`` of ``n_draws`` seeded draws of K's Gaussian process:
    (max |covariance - G|, |mean| per point, covariance, seed record)."""
    means, emp, seed_record = gaussian.moments(gaussian.realize(K), n_draws, seed)
    return float(np.abs(emp - K.gram).max()), np.abs(means), emp, seed_record


def covariance_bound(K: kernels.FiniteKernel, n_draws: int) -> float:
    """The CLT-scale budget 4 max|G| / sqrt(N) for a covariance error."""
    return 4.0 * float(np.abs(K.gram).max()) / np.sqrt(n_draws)


def mean_bounds(K: kernels.FiniteKernel, n_draws: int) -> np.ndarray:
    """5 sqrt((L L^*)_ss / N) at each point s, five standard deviations of the
    mean that ``moment_errors`` draws from the draw factor L of K's cached
    spectrum; where K(s, s) = 0, L's row is rounding noise and so is the mean."""
    L = gaussian._draw_factor(gaussian.realize(K))
    return 5.0 * np.sqrt(np.sum(np.abs(L) ** 2, axis=-1) / n_draws)


def renormalized_identity(ctx: clark.RenormContext):
    """(identity residual, PSD report) of the renormalized factorization."""
    F = ctx.kren_factorization
    return factorization.verify_factorization(F), kernels.check_positive_definite(F.kernel)


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), int(stream)])


def _random_psd_grams(rng: np.random.Generator, count: int) -> list:
    """``count`` random PSD Grams, before FiniteKernel's Hermitian mirror:
    A A^* for a normal n x r matrix A, real or complex with probability 1/2
    each, n uniform on 1..RANDOM_KERNEL_MAX_POINTS and r on 1..n+1.  The
    sizes, ranks and fields are drawn as three arrays and every normal in
    one call, split per kernel in draw order."""
    n = rng.integers(1, RANDOM_KERNEL_MAX_POINTS + 1, size=count)
    r = rng.integers(1, n + 2)
    parts = np.where(rng.random(count) < 0.5, 1, 2)  # real, or real and imaginary
    sizes = parts * n * r
    z = rng.standard_normal(int(sizes.sum()))
    grams, start = [], 0
    for size, p, rows, cols in zip(sizes.tolist(), parts.tolist(), n.tolist(), r.tolist()):
        A = z[start:start + size].reshape(p, rows, cols)
        A = A[0] if p == 1 else A[0] + 1j * A[1]
        grams.append(A @ np.conj(A).T)
        start += size
    return grams


def _by_shape(shapes) -> list:
    """Index arrays of the draws of each shape, in draw order, given the
    shape of each draw."""
    groups = {}
    for i, shape in enumerate(shapes):
        groups.setdefault(shape, []).append(i)
    return [np.array(index) for index in groups.values()]


class _Frames(NamedTuple):
    """Spectral Parseval frames of a stack of same-size kernels, each as
    parseval_factorize gives it, but zero-padded to n atoms."""

    index: np.ndarray  # each kernel's place in the corpus
    gram: np.ndarray  # (k, n, n) mirrored Grams
    features: np.ndarray  # (k, n, n) kept columns first, the others zero
    relative: np.ndarray  # (k,) max |Phi Phi^* - G| / ||G||_2


def _spectral_frames(grams) -> list:
    """The frames of the random PSD ``grams``, one ``_Frames`` per group of
    one size and field, through the library's cores: the Hermitian mirror,
    the decomposition (a stack, never padded: each matrix gets the eigenpairs
    of a lone call), the PSD verdict (NotPsd as parseval_factorize raises it),
    the keep rule and factor at default_rank_tol(n), and the residual of
    F.residual.  The padded atoms carry zero features, so they add exact
    zeros to every sum over the atoms."""
    frames = []
    for index in _by_shape(g.shape for g in grams):
        stack = np.stack([grams[i] for i in index]).astype(complex, copy=False)
        stack = kernels._hermitian_mirror(stack)
        for idx, gram in kernels._by_field(index, stack):
            n = gram.shape[-1]
            values, vectors = kernels._eigh(gram)
            rkhs._require_psd(values[:, 0], kernels._is_psd(values))
            features = kernels._factor(values, vectors,
                                       kernels._kept(values, kernels.default_rank_tol(n)))
            residual = factorization._residual(features, np.ones(n), gram)
            frames.append(_Frames(idx, gram, features,
                                  kernels._relative_residual(residual, kernels._norm(values))))
    return frames


def random_circle_measure(rng: np.random.Generator, max_atoms: int = 6,
                          min_sep: float = 0.1) -> measures.CircleMeasure:
    """The circle measure of a ``_circle_draws`` stack of one."""
    atoms, weights, live = _circle_draws(rng, 1, max_atoms, min_sep)
    return measures.CircleMeasure(atoms[live], weights[live])


def _circle_draws(rng: np.random.Generator, count: int, max_atoms: int, min_sep: float):
    """``count`` random circle measures, (atoms, weights, live), each (count,
    max_atoms): row i holds m_i sorted atoms with circular gaps >= ``min_sep``
    and weights uniform on [1, 3], normalized, then atoms 0 of weight 0 where
    ``live`` is false.  The sizes m, uniform on 1..max_atoms, are drawn first.

    The atoms follow the law of m sorted uniforms conditioned on every
    circular gap being at least ``min_sep``, drawn directly: the gaps are
    min_sep + (1 - m * min_sep) D for flat-Dirichlet spacings D (those of
    m - 1 sorted uniforms), laid out from a uniform first atom.  The m gaps
    sum to 1, so m * min_sep >= 1 (m >= 2) raises DomainViolation, and
    ``max_atoms < 1`` does so before anything is drawn from ``rng``."""
    if max_atoms < 1:
        raise DomainViolation(f"max_atoms must be >= 1, got {max_atoms!r}")
    m = rng.integers(1, max_atoms + 1, size=count)
    crowded = m[(m > 1) & (m * min_sep >= 1.0)]
    if crowded.size:
        raise DomainViolation(f"{crowded[0]} atoms cannot keep circular gaps >= {min_sep!r}")
    live = np.arange(max_atoms) < m[:, None]
    u = rng.uniform(0.0, 1.0, size=(count, max_atoms))
    spacings = np.sort(np.where(live[:, 1:], u[:, 1:], np.inf), axis=-1)
    offsets = np.where(live, np.concatenate([np.zeros((count, 1)), spacings], axis=-1), 0.0)
    x = u[:, :1] + np.arange(max_atoms) * min_sep + (1.0 - m[:, None] * min_sep) * offsets
    atoms = np.where(live, np.sort(np.where(live, x % 1.0, np.inf), axis=-1), 0.0)
    w = rng.uniform(1.0, 3.0, size=(count, max_atoms)) * live
    return atoms, w / w.sum(axis=-1, keepdims=True), live


def random_interior(rng: np.random.Generator, count: int) -> np.ndarray:
    """``count`` points uniform in area on the disk of radius INTERIOR_RADIUS."""
    r = INTERIOR_RADIUS * np.sqrt(rng.uniform(0.0, 1.0, size=count))
    th = rng.uniform(0.0, 2.0 * np.pi, size=count)
    return r * np.exp(1j * th)


def check_parseval_reconstruction(seed: int = 0) -> Check:
    """200 random Hermitian PSD matrices: factorize, verify within 1e-10 of
    ||G||_2, the scale ``kb factorize`` judges the residual on.  The matrices
    are factorized in stacks of one size and field (``_spectral_frames``)."""
    frames = _spectral_frames(_random_psd_grams(_rng(seed, 2), 200))
    worst = float(np.max([np.max(f.relative) for f in frames]))
    return Check("parseval-reconstruction", worst <= 1e-10, {"max_residual": worst, "matrices": 200})


def _complex_normal(rng: np.random.Generator, shape: tuple) -> np.ndarray:
    z = rng.standard_normal((2, *shape))
    return z[0] + 1j * z[1]


def _random_feature_stack(rng: np.random.Generator, count: int, mean_shift: float = 0.0):
    """``count`` exact factorizations, each of n in 1..RANDOM_FEATURE_MAX_POINTS
    points and m in 1..RANDOM_FEATURE_MAX_ATOMS atoms, as one stack zero-padded
    to the largest sizes: (features, weights, points, atoms).  Features are
    complex normal plus ``mean_shift`` inside each n x m block and 0 outside
    it, weights uniform on [0.2, 1] on every atom, padded or not; ``points``
    and ``atoms`` mark the rows and columns that belong to each
    factorization.  The one drawer of schwarz-bound, transform-pair and
    renormalization, each on its own stream."""
    n = rng.integers(1, RANDOM_FEATURE_MAX_POINTS + 1, size=count)
    m = rng.integers(1, RANDOM_FEATURE_MAX_ATOMS + 1, size=count)
    points = np.arange(RANDOM_FEATURE_MAX_POINTS) < n[:, None]
    atoms = np.arange(RANDOM_FEATURE_MAX_ATOMS) < m[:, None]
    phi = _complex_normal(rng, (count, RANDOM_FEATURE_MAX_POINTS, RANDOM_FEATURE_MAX_ATOMS))
    phi += mean_shift
    phi *= points[:, :, None] & atoms[:, None, :]
    w = rng.uniform(0.2, 1.0, size=(count, RANDOM_FEATURE_MAX_ATOMS))
    return phi, w, points, atoms


def check_transform_pair(seed: int = 0) -> Check:
    """Weighted transforms: isometry, V.W on generators, projection.

    The 200 random factorizations are one zero-padded stack
    (``_random_feature_stack``) of the kernels they induce, G = Phi D Phi^*
    with FiniteKernel's mirror; a padded point or atom has zero features,
    so it adds exact zeros to every sum and zero rows and columns to every
    matrix.  Each factorization's three random elements, and its kernel
    sections (the columns of the identity), are column matrices, and the
    whole stack goes once through the cores of apply_W, apply_V,
    l2_norm_squared, rkhs.norm_squared, feature_projector (cut at
    default_rank_tol(n) for each factorization's n points), check_isometry
    and projection_spectrum.  The isometry deviation of an element is
    relative to its ||f||^2, and the generator residual to ||G||_2."""
    rng = _rng(seed, 11)
    phi, w, points, _ = _random_feature_stack(rng, 200)
    gram = kernels._hermitian_mirror(factorization._induced_gram(phi, w))
    xi = _complex_normal(rng, (*points.shape, 3)) * points[:, :, None]
    norm2 = rkhs._norm_squared(gram, xi)
    l2 = factorization._l2_norm_squared(w, factorization._apply_W(phi, xi))
    iso = kernels._relative_residual(np.abs(l2 - norm2), norm2)
    # Column t of V W K(., s_t) is checked against the Gram row of t.
    back = factorization._apply_V(phi, w, factorization._apply_W(phi, np.eye(points.shape[-1])))
    gen = kernels._relative_residual(np.abs(back - gram.swapaxes(-1, -2)).max(axis=(-2, -1)),
                                     kernels._norm(kernels._eigvalsh(gram)))
    values, vectors = kernels._eigh(factorization._feature_gram(phi, w))
    cutoffs = [kernels.default_rank_tol(n) for n in points.sum(axis=-1).tolist()]
    S = kernels._projector(vectors, kernels._kept(values, np.array(cutoffs)))
    proj = factorization._projection_residual(phi, w, S)
    spec = kernels._eigvalsh(S)
    worst_iso, worst_gen, worst_proj = (float(np.max(x)) for x in (iso, gen, proj))
    worst_spec = float(np.max(np.minimum(np.abs(spec), np.abs(spec - 1.0))))
    passed = (
        worst_iso <= 1e-9
        and worst_gen <= 1e-9
        and worst_proj <= 1e-9
        and worst_spec <= 1e-7
    )
    return Check(
        "transform-pair",
        passed,
        {
            "max_isometry_residual": worst_iso,
            "max_generator_residual": worst_gen,
            "max_projection_residual": worst_proj,
            "max_spectrum_distance": worst_spec,
        },
    )


def check_schwarz_bound(seed: int = 0) -> Check:
    """500 random (g, xi, factorization) triples plus the equality case.

    The triples are one zero-padded stack (``_random_feature_stack``), and
    g and xi are 0 outside each triple's atoms and points, so the padding
    adds exact zeros to every sum.  Each triple's random pair and equality
    pair are two columns, and the whole stack goes through the library's
    Schwarz-bound core, which reads V, ||g||^2_{L2(mu)} and xi^* G xi from
    the cores behind apply_V, l2_norm_squared and rkhs.norm_squared."""
    rng = _rng(seed, 3)
    phi, w, points, atoms = _random_feature_stack(rng, 500)
    g = _complex_normal(rng, atoms.shape) * atoms
    xi = (_complex_normal(rng, points.shape) * points)[:, :, None]
    # Parallel vectors: g = sum_i conj(xi_i) k_{s_i} turns the bound into
    # an equality.
    g_eq = factorization._apply_W(phi, xi)
    res = factorization._schwarz_bound(phi, w, factorization._induced_gram(phi, w),
                                       np.concatenate([g[:, :, None], g_eq], axis=2),
                                       np.concatenate([xi, xi], axis=2))
    violations = int(np.count_nonzero(~res["holds"][:, 0]))
    lhs, rhs = res["lhs"][:, 1], res["rhs"][:, 1]
    worst_eq = float(np.max(kernels._relative_residual(np.abs(lhs - rhs), np.abs(rhs))))
    passed = violations == 0 and worst_eq <= 1e-9
    return Check("schwarz-bound", passed,
                 {"violations": violations, "max_equality_deviation": worst_eq})


def _two_point_factorization(measure: measures.DiscreteMeasure, e_values, z_points):
    """K(z, w) = 1 + z conj(w) style features 1 + z conj(e) over labeled atoms."""
    zs = np.asarray(z_points, dtype=complex)
    ev = np.asarray(e_values, dtype=complex)
    phi = 1.0 + zs[:, None] * np.conj(ev)[None, :]
    return factorization.BoundaryFactorization.induced(measure, phi)


def check_morphism_examples(seed: int = 0) -> Check:
    """Worked order-relation examples plus the pullback isometry."""
    rng = _rng(seed, 4)
    zs = [0.3, -0.2 + 0.1j]

    # Weights that are not dyadic, so that the pullback isometry residual
    # shows rounding instead of reading 0 exactly.
    target = measures.DiscreteMeasure(atoms=("a", "b"), weights=[0.3, 0.7])
    F1 = _two_point_factorization(target, [1.0, -1.0], zs)

    # Identity morphism on the two-atom factorization.
    ident = factorization.MeasureMorphism(
        source=target, target=target, map={"a": "a", "b": "b"}
    )
    v1 = factorization.check_morphism(ident, F1, F1)

    # Collapse: three atoms pushed onto two, weights add up, phi not injective.
    source = measures.DiscreteMeasure(atoms=("0", "1", "2"), weights=[0.1, 0.2, 0.7])
    collapse = factorization.MeasureMorphism(
        source=source, target=target, map={"0": "a", "1": "a", "2": "b"}
    )
    F2 = factorization.pullback(F1, collapse)
    v2 = factorization.check_morphism(collapse, F1, F2)

    # Wrong weights: injective map whose pushforward misses the target.
    target_bad = measures.DiscreteMeasure(atoms=("a", "b"), weights=[0.6, 0.4])
    F1_bad = _two_point_factorization(target_bad, [1.0, -1.0], zs)
    source_eq = measures.DiscreteMeasure(atoms=("0", "1"), weights=[0.5, 0.5])
    wrong = factorization.MeasureMorphism(
        source=source_eq, target=target_bad, map={"0": "a", "1": "b"}
    )
    F2_bad = factorization.pullback(F1_bad, wrong)
    v3 = factorization.check_morphism(wrong, F1_bad, F2_bad)

    expected = [
        {"pushforward_ok": True, "sigma_ok": True, "diagram_ok": True},
        {"pushforward_ok": True, "sigma_ok": False, "diagram_ok": True},
        {"pushforward_ok": False, "sigma_ok": True, "diagram_ok": True},
    ]
    verdicts_ok = [v1, v2, v3] == expected

    worst_iso = float(np.max([pullback_isometry_error(morph, rng) for morph in (ident, collapse)]))
    passed = verdicts_ok and worst_iso <= ISOMETRY_TOL
    return Check(
        "morphism-checker",
        passed,
        {
            "verdicts_ok": verdicts_ok,
            "max_isometry_residual": worst_iso,
            "verdicts": [v1, v2, v3],
        },
    )


def szego_real_part_kernel() -> kernels.FiniteKernel:
    """Real part of the Szego Gram matrix over the points 0, 0.35, -0.2, 0.4i."""
    K = kernels.assemble_gram(kernels.KernelSpec(), (0.0, 0.35, -0.2, 0.4j))
    return kernels.FiniteKernel(gram=K.gram.real)


def check_gaussian_realization(seed: int = 0) -> Check:
    """Sampled covariance, means and marginal consistency at N = GAUSSIAN_DRAWS."""
    start = time.perf_counter()
    K_szego = szego_real_part_kernel()
    eye = kernels.FiniteKernel(gram=np.eye(2))
    errors = [moment_errors(K, seed, GAUSSIAN_DRAWS) for K in (K_szego, eye)]
    worst_cov = float(np.max([cov_error for cov_error, _, _, _ in errors]))
    worst_mean = float(np.max([mean_moduli.max() for _, mean_moduli, _, _ in errors]))
    _, _, szego_cov, szego_record = errors[0]
    cons = gaussian.consistency_check(K_szego, [0, 2], szego_cov, szego_record)
    # The runtime bound is part of the verdict; the seconds are not reported.
    passed = (
        worst_cov <= 0.02
        and worst_mean <= 0.012
        and cons["exact_ok"]
        and cons["empirical_deviation"] <= 0.03
        and time.perf_counter() - start <= 10.0
    )
    return Check(
        "gaussian-realization",
        passed,
        {
            "max_covariance_error": worst_cov,
            "max_mean_modulus": worst_mean,
            "consistency_exact_ok": cons["exact_ok"],
            "consistency_deviation": cons["empirical_deviation"],
            "n_draws": GAUSSIAN_DRAWS,
        },
    )


def check_clark_exactness(seed: int = 0) -> Check:
    """Worked Clark measures: b, K_b, exact factorization, minimality."""
    rng = _rng(seed, 6)
    mu1 = measures.CircleMeasure(atoms=[0.0], weights=[1.0])
    mu2 = measures.CircleMeasure(atoms=[0.0, 0.5], weights=[0.5, 0.5])

    zs = random_interior(rng, 100)
    ws = random_interior(rng, 100)
    worst_b = float(np.max([
        np.abs(clark.b_eval(mu1, zs) - zs).max(),
        np.abs(clark.b_eval(mu2, zs) - zs * zs).max(),
    ]))
    worst_k = float(np.max([
        np.abs(clark.kb_eval(mu1, zs, ws) - 1.0).max(),
        np.abs(clark.kb_eval(mu2, zs, ws) - (1.0 + zs * np.conj(ws))).max(),
    ]))

    residuals = []
    ranks_ok = True
    for mu in (mu1, mu2):
        pts = random_interior(rng, 6)
        F = clark.build_kb_factorization(mu, pts)
        residuals.append(factorization.verify_factorization(F))
        ranks_ok = ranks_ok and (
            factorization.minimality_test(F)["feature_rank"] == mu.size
        )
    worst_res = float(np.max(residuals))
    passed = worst_b <= 1e-12 and worst_k <= 1e-12 and worst_res <= 1e-10 and ranks_ok
    return Check(
        "clark-exactness",
        passed,
        {
            "max_b_error": worst_b,
            "max_kernel_error": worst_k,
            "max_factorization_residual": worst_res,
            "ranks_ok": ranks_ok,
        },
    )


def check_poisson_herglotz(seed: int = 0) -> Check:
    """Re[(1+b)/(1-b)] equals the Poisson integral on random atomic measures,
    one ``_circle_draws`` stack, at 100 random interior points."""
    rng = _rng(seed, 7)
    stack = _circle_draws(rng, HERGLOTZ_MEASURES, 6, 0.1)
    worst = float(np.max(herglotz_error(stack, random_interior(rng, 100))))
    return Check("poisson-herglotz", worst <= HERGLOTZ_TOL, {"max_abs_error": worst})


def check_inner_modulus(seed: int = 0) -> Check:
    """|b| approaches 1 away from atoms, on poisson-herglotz's random measures."""
    stack = _circle_draws(_rng(seed, 7), HERGLOTZ_MEASURES, 6, 0.1)
    worst = float(np.max(modulus_deviation(stack)))
    r = MODULUS_RADIUS

    mu1 = measures.CircleMeasure(atoms=[0.0], weights=[1.0])
    mu2 = measures.CircleMeasure(atoms=[0.0, 0.5], weights=[0.5, 0.5])
    dev1 = clark.inner_modulus_check(mu1, [0.2, 0.5, 0.77], r)
    dev2 = clark.inner_modulus_check(mu2, [0.2, 0.31, 0.77], r)
    exact1 = abs(dev1 - (1.0 - r))
    exact2 = abs(dev2 - (1.0 - r**2))
    passed = worst <= MODULUS_TOL and exact1 <= 1e-12 and exact2 <= 1e-12
    return Check("inner-modulus", passed,
                 {"max_deviation": worst, "point_mass_error": exact1, "two_atom_error": exact2})


def _renormalized_identities(phi, w, points):
    """Per factorization of a ``_random_feature_stack``, in draw order: the
    least |E_i|, the identity residual and the PSD verdict of its
    renormalized factorization, as ``renormalized_identity`` judges them.
    Each factorization keeps all RANDOM_FEATURE_MAX_ATOMS atoms: a padded
    atom has zero features and positive weight, so it adds exact zeros to E,
    to Phi D Phi^* and to the residual.  The weights are checked once, by
    DiscreteMeasure's rule, and the factorizations of one point count n are
    one stack of the slices phi[:, :n], so that each keeps the arithmetic of
    a lone call: the induced Gram and the quotient of clark._renormalize
    (ZeroExpectation where a mean cancels), each with FiniteKernel's mirror,
    factorization._residual, and the PSD verdict on each field's eigenvalues
    (``kernels._by_field``, ``kernels._eigvalsh``)."""
    measures._check_weights(w)
    n = points.sum(axis=-1).tolist()
    least, residual, psd = np.empty(len(phi)), np.empty(len(phi)), np.empty(len(phi), bool)
    for index in _by_shape(n):
        block, weights = phi[index, :n[index[0]]], w[index]
        gram = kernels._hermitian_mirror(factorization._induced_gram(block, weights))
        E, quotient, kren_phi = clark._renormalize(block, weights, gram)
        kren_gram = kernels._hermitian_mirror(quotient)
        least[index] = np.abs(E).min(axis=-1)
        residual[index] = factorization._residual(kren_phi, weights, kren_gram)
        for idx, stack in kernels._by_field(index, kren_gram):
            psd[idx] = kernels._is_psd(kernels._eigvalsh(stack))
    return least, residual, psd


def _szego_means(stack, zs) -> np.ndarray:
    """The means E of the Szego features (``clark._terms``) of each
    ``_circle_draws`` measure at its row of ``zs``: ``clark._expectations`` of
    the slices [..., :m] of the measures of m atoms, a lone call's arithmetic."""
    features, m = clark._terms(_circle_stack(stack)[2], 1.0, zs), stack[2].sum(axis=-1)
    E = np.empty(zs.shape, dtype=complex)
    for index in _by_shape(m.tolist()):
        k = m[index[0]]
        E[index] = clark._expectations(features[index, :, :k], stack[1][index, :k])
    return E


def check_renormalization(seed: int = 0) -> Check:
    """Worked renormalization, random mean-normalized identities, 1/E = 1 - b.

    The 100 random factorizations are drawn as one stack
    (``_random_feature_stack``), and renormalized and judged in stacks of
    one point count n (``_renormalized_identities``); the 10 Szego
    cross-checks are one ``_circle_draws`` stack (``_szego_means``)."""
    rng = _rng(seed, 9)

    meas = measures.DiscreteMeasure(atoms=("0", "1"), weights=[0.75, 0.25])
    phi = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex)
    F = factorization.BoundaryFactorization.induced(meas, phi)
    ctx = clark.renormalize(F)
    target = np.array([[1.0, 1.0], [1.0, 4.0]], dtype=complex)
    worked_err = float(np.abs(ctx.kren_factorization.kernel.gram - target).max())

    expectations, residuals, psd = _renormalized_identities(
        *_random_feature_stack(rng, 100, mean_shift=2.0)[:3])
    worst_res = float(np.max(residuals))
    min_expectation = float(np.min(expectations))
    kren_psd_ok = bool(psd.all())

    stack = _circle_draws(rng, 10, 6, 0.1)
    zpts = random_interior(rng, 50).reshape(10, 5)
    worst_cross = float(np.max(inverse_mean_error(stack, zpts, _szego_means(stack, zpts))))

    passed = (
        worked_err <= 1e-12
        and worst_res <= 1e-10
        and min_expectation >= 1e-3
        and worst_cross <= INVERSE_MEAN_TOL
        and kren_psd_ok
    )
    return Check(
        "renormalization",
        passed,
        {
            "worked_example_error": worked_err,
            "max_identity_residual": worst_res,
            "kren_psd_ok": kren_psd_ok,
            "min_expectation_modulus": min_expectation,
            "max_cross_check_error": worst_cross,
        },
    )


def _density_ranks(draws: list) -> list:
    """The rank sequence of each (coords (m, k), weights) draw, in draw
    order, as polydisk_density_test takes it (up to degree m).  The draws of
    one shape are one stack, validated by DiscreteMeasure's rules and run
    through clark._rank_sequences."""
    ranks = [None] * len(draws)
    for index in _by_shape(coords.shape for coords, _ in draws):
        coords = measures._check_coords(np.stack([draws[i][0] for i in index]))
        w = measures._check_weights(np.stack([draws[i][1] for i in index]))
        for i, seq in zip(index, clark._rank_sequences(coords, w, coords.shape[-2])):
            ranks[i] = seq
    return ranks


def check_polydisk_density(seed: int = 0) -> Check:
    """Monomial rank saturation: degree m-1 for k=1, at most m for k=2.

    The 30 circle measures are one ``_circle_draws`` stack, and the 50
    measures on the 2-torus three arrays for all of them (sizes, coordinates
    and weights); each measure is sliced from them and takes its rank
    sequence in a stack of one size (``_density_ranks``)."""
    rng = _rng(seed, 10)
    circle = [(a[keep, None], w[keep]) for a, w, keep in zip(*_circle_draws(rng, 30, 8, 0.02))]
    sizes = rng.integers(1, 9, size=50).tolist()
    coords = rng.uniform(0.0, 1.0, size=(50, 8, 2))
    weights = rng.uniform(0.5, 1.5, size=(50, 8))
    torus = [(c[:m], v[:m] / v[:m].sum()) for c, v, m in zip(coords, weights, sizes)]
    k1 = _density_ranks(circle)
    # Saturated (the last rank is m), for k = 1 at degree m - 1 (m ranks).
    k1_ok = all(seq[-1] == len(seq) == len(w) for seq, (_, w) in zip(k1, circle))
    k2_ok = all(seq[-1] == len(w) for seq, (_, w) in zip(_density_ranks(torus), torus))
    return Check("polydisk-density", k1_ok and k2_ok, {"k1_ok": k1_ok, "k2_ok": k2_ok})


ALL_CHECKS = (
    check_parseval_reconstruction,
    check_transform_pair,
    check_schwarz_bound,
    check_morphism_examples,
    check_gaussian_realization,
    check_clark_exactness,
    check_poisson_herglotz,
    check_inner_modulus,
    check_renormalization,
    check_polydisk_density,
)


def run_all(seed: int = 0) -> list[Check]:
    """Run every criterion, in ALL_CHECKS order; the first that raises ends
    the run.  Report determinism is checked by running the CLI twice (it
    cannot be observed from inside a single run)."""
    return [check(seed=seed) for check in ALL_CHECKS]
