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
problem: ``schwarz-bound`` zero-pads its 500 factorizations to one stack,
``parseval-reconstruction`` and ``transform-pair`` share 200 random PSD
kernels, grouped by size and field (``_spectral_frames``), ``renormalization``
groups its 100 random factorizations by point count n
(``_renormalized_identities``) and ``polydisk-density`` its 80 measures by
size (``_density_ranks``).  Their corpora are drawn as arrays: the random
PSD kernels, the random feature factorizations (``_random_feature_stack``,
which ``schwarz-bound`` and ``renormalization`` share) and the torus
measures in a few Generator calls for the whole corpus, the circle
measures one measure at a time.  A stack is decomposed as it is, never
padded, so each matrix gets the eigenpairs or singular values, and so the
rank and PSD verdicts, of a lone call; zero padding is used only where it
adds exact zeros to a sum: on the atoms past each kernel's rank, and on the
atoms past each random factorization's own.
Each criterion takes its worst value with a NaN-propagating reduction, so
that a NaN residual reads null and fails.

The corpora are rebuilt from the seed on every call, apart from objects
that are frozen and fixed by their arguments: the counting measures and
strict-lower masks (one per size, see ``measures`` and ``kernels``), and
the random-kernel and Herglotz corpora of the last seed, each read by two
criteria.  Sharing them changes no report: a run with warm caches equals
one with cold caches.
"""

from __future__ import annotations

import time
from functools import lru_cache
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
INVERSE_MEAN_TOL = 1e-12  # |1/E - (1 - b)| for Szego features
ISOMETRY_DRAWS = 10
ISOMETRY_TOL = 1e-12  # pullback isometry residual, relative to ||f||^2
RANDOM_KERNEL_MAX_POINTS = 20  # random PSD kernels have 1..20 points
RANDOM_FEATURE_MAX_POINTS = 6  # random feature factorizations: 1..6 points
RANDOM_FEATURE_MAX_ATOMS = 8  # and 1..8 atoms
HERGLOTZ_MEASURES = 20  # circle measures in the Herglotz corpus
INTERIOR_RADIUS = 0.9  # random interior points lie in |z| <= 0.9


def herglotz_error(mu: measures.CircleMeasure, zs) -> float:
    """Worst Herglotz/Poisson identity error of mu's inner function over ``zs``."""
    return float(clark.herglotz_poisson_check(mu, zs)["abs_error"].max())


def modulus_deviation(mu: measures.CircleMeasure) -> float:
    """Worst |1 - |b|| of the inner function of ``mu`` at MODULUS_RADIUS, over
    the MODULUS_THETAS at least MODULUS_MARGIN from every atom."""
    grid = clark.atom_gap_grid(mu, MODULUS_THETAS, MODULUS_MARGIN)
    return clark.inner_modulus_check(mu, grid, MODULUS_RADIUS)


def inverse_mean_error(mu: measures.CircleMeasure, zs, expectations) -> float:
    """Worst |1/E - (1 - b)| over ``zs``, E the means of the Szego features
    of ``mu`` at ``zs``."""
    bvals = clark.b_eval(mu, zs)
    return float(np.abs(1.0 / expectations - (1.0 - bvals)).max())


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
    norm: np.ndarray  # (k,) ||G||_2
    features: np.ndarray  # (k, n, n) kept columns first, the others zero
    weights: np.ndarray  # (n,) the counting measure on the padded atoms
    rank: np.ndarray  # (k,) kept columns
    residual: np.ndarray  # (k,) max |Phi Phi^* - G|
    relative: np.ndarray  # (k,) residual / ||G||_2


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
            keep = kernels._kept(values, kernels.default_rank_tol(n))
            features = kernels._factor(values, vectors, keep)
            weights = np.ones(n)
            norm = kernels._norm(values)
            residual = factorization._residual(features, weights, gram)
            frames.append(_Frames(idx, gram, norm, features, weights, keep.sum(axis=-1),
                                  residual, kernels._relative_residual(residual, norm)))
    return frames


def random_circle_measure(
    rng: np.random.Generator, max_atoms: int = 6, min_sep: float = 0.1
) -> measures.CircleMeasure:
    """The circle measure of ``_circle_draw``."""
    return measures.CircleMeasure(*_circle_draw(rng, max_atoms, min_sep))


def _circle_draw(rng: np.random.Generator, max_atoms: int, min_sep: float):
    """The draws of one random circle measure, (atoms, weights): 1 to
    ``max_atoms`` sorted atoms, circular gaps >= ``min_sep``, weights drawn
    uniform on [1, 3] and normalized.

    The atoms follow the law of m sorted uniform draws conditioned on every
    circular gap being at least ``min_sep``, drawn directly: the gaps are
    min_sep + (1 - m * min_sep) D for flat-Dirichlet spacings D (those of
    m - 1 sorted uniforms), laid out from a uniform first atom.  The m gaps
    sum to 1, so m * min_sep >= 1 (m >= 2) raises DomainViolation.
    ``max_atoms < 1`` raises DomainViolation before anything is drawn from
    ``rng``."""
    if max_atoms < 1:
        raise DomainViolation(f"max_atoms must be >= 1, got {max_atoms!r}")
    m = int(rng.integers(1, max_atoms + 1))
    if m > 1 and m * min_sep >= 1.0:
        raise DomainViolation(f"{m} atoms cannot keep circular gaps >= {min_sep!r}")
    u = rng.uniform(0.0, 1.0, size=m)
    offsets = np.concatenate([[0.0], np.sort(u[1:])])
    atoms = np.sort((u[0] + np.arange(m) * min_sep + (1.0 - m * min_sep) * offsets) % 1.0)
    w = rng.uniform(1.0, 3.0, size=m)
    return atoms, w / w.sum()


def random_interior(rng: np.random.Generator, count: int) -> np.ndarray:
    """``count`` points uniform in area on the disk of radius INTERIOR_RADIUS."""
    r = INTERIOR_RADIUS * np.sqrt(rng.uniform(0.0, 1.0, size=count))
    th = rng.uniform(0.0, 2.0 * np.pi, size=count)
    return r * np.exp(1j * th)


def check_parseval_reconstruction(seed: int = 0) -> Check:
    """200 random Hermitian PSD matrices: factorize, verify within 1e-10 of
    ||G||_2, the scale ``kb factorize`` judges the residual on.  The frames
    are those of ``transform-pair`` (``_random_kernel_corpus``)."""
    _, frames = _random_kernel_corpus(seed)
    worst = float(np.max([np.max(f.relative) for f in frames]))
    return Check("parseval-reconstruction", worst <= 1e-10, {"max_residual": worst, "matrices": 200})


@lru_cache(maxsize=1)
def _random_kernel_corpus(seed: int) -> tuple:
    """(coefficients, spectral frames) of the 200 random PSD kernels of
    ``seed`` (``_transform_corpus`` on stream 2, ``_spectral_frames``), with
    read-only arrays, built once for the two criteria that read them."""
    grams, coeffs = _transform_corpus(_rng(seed, 2), 200)
    frames = tuple(_spectral_frames(grams))
    for array in (*coeffs, *(a for f in frames for a in f)):
        array.setflags(write=False)
    return tuple(coeffs), frames


def _transform_corpus(rng: np.random.Generator, count: int):
    """``count`` random PSD Grams (``_random_psd_grams``), then for each in
    turn the (n, 3) coefficients of three complex normal elements, all drawn
    in one call: (grams, coeffs)."""
    grams = _random_psd_grams(rng, count)
    sizes = np.cumsum([len(g) for g in grams])
    z = rng.standard_normal((2, int(sizes[-1]), 3))
    return grams, np.split(z[0] + 1j * z[1], sizes[:-1])


def _transform_residuals(frames: list, coeffs: list):
    """Per kernel of the corpus, in draw order: the isometry deviation of
    each of its elements, relative to ||f||^2 ((count, k) for the (n, k)
    coefficient matrices ``coeffs``), and its generator residual, relative to
    ||G||_2 (count,).  A residual above FACTORIZATION_TOL raises
    NotAFactorization, as apply_W does."""
    iso = np.empty((len(coeffs), coeffs[0].shape[1]))
    gen = np.empty(len(coeffs))
    for f in frames:
        factorization._require_residuals(f.residual, f.relative)
        xi = np.stack([coeffs[i] for i in f.index])
        wf = factorization._apply_W(f.features, xi)
        nrm2 = rkhs._norm_squared(f.gram, xi)
        iso[f.index] = np.abs(factorization._l2_norm_squared(f.weights, wf) - nrm2) / nrm2
        # Column t of V W K(., s_t) is checked against the Gram row of t.
        sections = factorization._apply_W(f.features, np.eye(len(f.weights)))
        back = factorization._apply_V(f.features, f.weights, sections)
        gen[f.index] = kernels._relative_residual(
            np.abs(back - f.gram.swapaxes(-1, -2)).max(axis=(-2, -1)), f.norm)
    return iso, gen


def _projections(frames: list, count: int):
    """Per kernel of the corpus, in draw order: the projection residual of
    its range projection (count,), and the eigenvalues of its feature
    projector (a list), values only as ``projection_spectrum`` reads them.
    Each projector decomposes the kernel's unpadded r x r mu-Gram, cut at
    default_rank_tol(n), in stacks of one rank and field, so that its bits
    are those of BoundaryFactorization's."""
    mu_grams, cutoffs = [None] * count, np.empty(count)
    for f in frames:
        cutoffs[f.index] = kernels.default_rank_tol(len(f.weights))
        for i, features, r in zip(f.index, f.features, f.rank):
            mu_grams[i] = factorization._feature_gram(features[:, :r], f.weights[:r])
    residual, spectra = np.empty(count), [None] * count
    for index in _by_shape(g.shape for g in mu_grams):
        for idx, stack in kernels._by_field(index, np.stack([mu_grams[i] for i in index])):
            values, vectors = kernels._eigh(stack)
            S = kernels._projector(vectors, kernels._kept(values, cutoffs[idx]))
            residual[idx] = factorization._projection_residual(S, np.ones(S.shape[-1]))
            for jdx, projector in kernels._by_field(idx, S):
                for i, spec in zip(jdx, kernels._eigvalsh(projector)):
                    spectra[i] = spec
    return residual, spectra


def check_transform_pair(seed: int = 0) -> Check:
    """Counting-measure transforms: isometry, V.W on generators, projection.

    Each kernel's three random elements, and its n kernel sections (the
    columns of the identity), each go through the transforms as one matrix,
    and the kernels of one size and field as one stack (``_random_kernel_corpus``,
    ``_transform_residuals``, ``_projections``).  The isometry deviation of
    an element is relative to its ||f||^2, and the generator residual to
    ||G||_2."""
    coeffs, frames = _random_kernel_corpus(seed)
    iso, gen = _transform_residuals(frames, coeffs)
    proj, spectra = _projections(frames, len(coeffs))
    spec = np.concatenate(spectra)
    worst_iso, worst_gen, worst_proj = (float(np.max(x)) for x in (iso, gen, proj))
    worst_spec = float(np.max(np.minimum(np.abs(spec), np.abs(spec - 1.0)), initial=0.0))
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
    factorization."""
    n = rng.integers(1, RANDOM_FEATURE_MAX_POINTS + 1, size=count)
    m = rng.integers(1, RANDOM_FEATURE_MAX_ATOMS + 1, size=count)
    points = np.arange(RANDOM_FEATURE_MAX_POINTS) < n[:, None]
    atoms = np.arange(RANDOM_FEATURE_MAX_ATOMS) < m[:, None]
    phi = _complex_normal(rng, (count, RANDOM_FEATURE_MAX_POINTS, RANDOM_FEATURE_MAX_ATOMS))
    phi += mean_shift
    phi *= points[:, :, None] & atoms[:, None, :]
    w = rng.uniform(0.2, 1.0, size=(count, RANDOM_FEATURE_MAX_ATOMS))
    return phi, w, points, atoms


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
    dev, scale = np.abs(res["lhs"][:, 1] - res["rhs"][:, 1]), np.abs(res["rhs"][:, 1])
    with np.errstate(divide="ignore", invalid="ignore"):
        worst_eq = float(np.max(np.where(dev == 0, 0.0, dev / scale)))
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


def szego_real_part_kernel(points=(0.0, 0.35, -0.2, 0.4j)) -> kernels.FiniteKernel:
    """Real part of the Szego Gram matrix over a small point grid."""
    K = kernels.assemble_gram(kernels.KernelSpec(), points)
    return kernels.FiniteKernel(gram=K.gram.real.astype(complex), field_tag="real")


def check_gaussian_realization(seed: int = 0, n_draws: int = 200_000) -> Check:
    """Sampled covariance, means and marginal consistency at N = 2e5."""
    start = time.perf_counter()
    K_szego = szego_real_part_kernel()
    eye = kernels.FiniteKernel(gram=np.eye(2), field_tag="real")
    errors = [moment_errors(K, seed, n_draws) for K in (K_szego, eye)]
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
            "n_draws": n_draws,
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


@lru_cache(maxsize=1)
def _herglotz_corpus(seed: int) -> tuple:
    """(circle measures, read-only interior points) of ``seed``, built once
    for the two criteria that read them."""
    rng = _rng(seed, 7)
    corpus = tuple(random_circle_measure(rng) for _ in range(HERGLOTZ_MEASURES))
    zs = random_interior(rng, 100)
    zs.setflags(write=False)
    return corpus, zs


def check_poisson_herglotz(seed: int = 0) -> Check:
    """Re[(1+b)/(1-b)] equals the Poisson integral on random atomic measures."""
    corpus, zs = _herglotz_corpus(seed)
    worst = float(np.max([herglotz_error(mu, zs) for mu in corpus]))
    return Check("poisson-herglotz", worst <= HERGLOTZ_TOL, {"max_abs_error": worst})


def check_inner_modulus(seed: int = 0) -> Check:
    """|b| approaches 1 at the boundary away from atoms."""
    corpus, _ = _herglotz_corpus(seed)
    worst = float(np.max([modulus_deviation(mu) for mu in corpus]))
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
    a lone call: the induced Gram with FiniteKernel's mirror,
    clark._renormalize (ZeroExpectation where a mean cancels),
    factorization._residual, and the PSD verdict on each field's eigenvalues
    (``kernels._by_field``, ``kernels._eigvalsh``)."""
    measures._check_weights(w)
    n = points.sum(axis=-1).tolist()
    least, residual, psd = np.empty(len(phi)), np.empty(len(phi)), np.empty(len(phi), bool)
    for index in _by_shape(n):
        block, weights = phi[index, :n[index[0]]], w[index]
        gram = kernels._hermitian_mirror(factorization._induced_gram(block, weights))
        E, kren_gram, kren_phi = clark._renormalize(block, weights, gram)
        least[index] = np.abs(E).min(axis=-1)
        residual[index] = factorization._residual(kren_phi, weights, kren_gram)
        for idx, stack in kernels._by_field(index, kren_gram):
            psd[idx] = kernels._is_psd(kernels._eigvalsh(stack))
    return least, residual, psd


def check_renormalization(seed: int = 0) -> Check:
    """Worked renormalization, random mean-normalized identities, 1/E = 1 - b.

    The 100 random factorizations are drawn as one stack
    (``_random_feature_stack``), and renormalized and judged in stacks of
    one point count n (``_renormalized_identities``)."""
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

    cross = []
    for _ in range(10):
        mu = random_circle_measure(rng)
        zpts = random_interior(rng, 5)
        E = clark.expectation_vector(clark.build_szego_factorization(mu, zpts))
        cross.append(inverse_mean_error(mu, zpts, E))
    worst_cross = float(np.max(cross))

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

    The 30 circle measures are drawn as arrays, one measure at a time, and
    the 50 measures on the 2-torus as three arrays for all of them (sizes,
    coordinates and weights), sliced per measure.  Each takes its rank
    sequence in a stack of one size (``_density_ranks``)."""
    rng = _rng(seed, 10)
    circle = [_circle_draw(rng, max_atoms=8, min_sep=0.02) for _ in range(30)]
    sizes = rng.integers(1, 9, size=50).tolist()
    coords = rng.uniform(0.0, 1.0, size=(50, 8, 2))
    weights = rng.uniform(0.5, 1.5, size=(50, 8))
    torus = [(c[:m], v[:m] / v[:m].sum()) for c, v, m in zip(coords, weights, sizes)]
    k1 = _density_ranks([(atoms[:, None], w) for atoms, w in circle])
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
