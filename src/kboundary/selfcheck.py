"""Seeded self-check suite, and the verdicts it shares with the ``kb`` pipelines.

Every verdict, of a ``kb`` pipeline or of a criterion here, is one ``Check``
record (``kboundary.check``).  A quantity that ``kb <command>`` and ``kb verify-all`` both judge
is computed by one function below, its bound a named constant: the
pipeline applies it to the user's objects, and the criterion to its seeded
corpus, keeping the worst value.  Each criterion builds its corpus from the
given master seed, so the CLI ``verify-all`` command and the test suite
share one implementation.  All tolerances are fixed here; nothing is
calibrated at run time.

The corpora are rebuilt from the seed on every call, apart from objects
that are frozen and fixed by their arguments: the index point sets and
counting measures (one per size, see ``kernels`` and ``measures``) and
the Herglotz corpus of the last seed, which two criteria read.  Sharing
them changes no report: a run with warm caches equals one with cold
caches.  ``run_all`` runs each criterion in a forked worker where the
platform has ``os.fork``, so these caches are shared only within one
worker: a worker starts from the caller's caches, and what it adds to
them goes when it exits.
"""

from __future__ import annotations

import math
import os
import pickle
import sys
import time
import traceback
from functools import lru_cache

import numpy as np

from . import clark, factorization, gaussian, kernels, measures, rkhs
from .check import Check
from .errors import DomainViolation, WorkerDied

HERGLOTZ_TOL = 1e-10  # |Re[(1+b)/(1-b)] - Poisson[mu]|
MODULUS_TOL = 1e-3  # |1 - |b|| on the grid below
MODULUS_RADIUS = 1.0 - 1e-6
MODULUS_THETAS = (np.arange(64) + 0.5) / 64.0
MODULUS_MARGIN = 2e-3  # least circular distance of a grid angle to an atom
INVERSE_MEAN_TOL = 1e-12  # |1/E - (1 - b)| for Szego features
ISOMETRY_DRAWS = 10
ISOMETRY_TOL = 1e-12  # pullback isometry residual, relative to ||f||^2
CIRCLE_DRAW_ATTEMPTS = 100_000  # rejection draws per random circle measure
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
    """Streamed moments of ``n_draws`` seeded draws of K's Gaussian process:
    (max |covariance - G|, |mean| per point, covariance, seed record)."""
    means, emp, seed_record = gaussian.moments(gaussian.realize(K), n_draws, seed)
    return float(np.abs(emp - K.gram).max()), np.abs(means), emp, seed_record


def covariance_bound(K: kernels.FiniteKernel, n_draws: int) -> float:
    """The CLT-scale budget 4 max|G| / sqrt(N) for a covariance error."""
    return 4.0 * float(np.abs(K.gram).max()) / np.sqrt(n_draws)


def renormalized_identity(ctx: clark.RenormContext, psd_tol: float = kernels.PSD_TOL):
    """(identity residual, PSD report) of the renormalized factorization."""
    F = ctx.kren_factorization
    return (factorization.verify_factorization(F),
            kernels.check_positive_definite(F.kernel, tol=psd_tol))


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), int(stream)])


def _random_psd_kernel(rng: np.random.Generator) -> kernels.FiniteKernel:
    n = int(rng.integers(1, RANDOM_KERNEL_MAX_POINTS + 1))
    r = int(rng.integers(1, n + 2))
    if rng.random() < 0.5:
        A = rng.standard_normal((n, r))
    else:
        A = rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r))
    G = A @ np.conj(A).T
    return kernels.FiniteKernel(points=kernels.index_points(n), gram=G)


def _random_feature_factorization(
    rng: np.random.Generator, mean_shift: float = 0.0
) -> factorization.BoundaryFactorization:
    """Exact factorization: the kernel is the one the features induce."""
    n = int(rng.integers(1, RANDOM_FEATURE_MAX_POINTS + 1))
    m = int(rng.integers(1, RANDOM_FEATURE_MAX_ATOMS + 1))
    phi = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m)) + mean_shift
    w = rng.uniform(0.2, 1.0, size=m)
    meas = measures.DiscreteMeasure(atoms=tuple(range(m)), weights=w)
    return factorization.BoundaryFactorization.induced(meas, phi)


def random_circle_measure(
    rng: np.random.Generator, max_atoms: int = 6, min_sep: float = 0.1
) -> measures.CircleMeasure:
    """1 to ``max_atoms`` atoms, circular gaps >= ``min_sep``, weights drawn
    uniform on [1, 3] and normalized.

    The atoms are rejection-sampled: sorted uniform draws until every gap
    is at least ``min_sep``.  The m gaps sum to 1, so m * min_sep >= 1
    (m >= 2) raises DomainViolation at once, and so does a draw of m atoms
    that no CIRCLE_DRAW_ATTEMPTS draws accept.  ``max_atoms < 1`` raises
    DomainViolation before anything is drawn from ``rng``."""
    if max_atoms < 1:
        raise DomainViolation(f"max_atoms must be >= 1, got {max_atoms!r}")
    m = int(rng.integers(1, max_atoms + 1))
    if m > 1 and m * min_sep >= 1.0:
        raise DomainViolation(f"{m} atoms cannot keep circular gaps >= {min_sep!r}")
    for _ in range(CIRCLE_DRAW_ATTEMPTS):
        atoms = np.sort(rng.uniform(0.0, 1.0, size=m))
        if m == 1 or (
            (atoms[1:] - atoms[:-1]).min() >= min_sep and (atoms[0] + 1.0) - atoms[-1] >= min_sep
        ):
            break
    else:
        raise DomainViolation(
            f"none of {CIRCLE_DRAW_ATTEMPTS} draws of {m} atoms kept circular gaps >= {min_sep!r}"
        )
    w = rng.uniform(1.0, 3.0, size=m)
    w = w / w.sum()
    return measures.CircleMeasure(atoms=atoms, weights=w)


def random_interior(rng: np.random.Generator, count: int) -> np.ndarray:
    """``count`` points uniform in area on the disk of radius INTERIOR_RADIUS."""
    r = INTERIOR_RADIUS * np.sqrt(rng.uniform(0.0, 1.0, size=count))
    th = rng.uniform(0.0, 2.0 * np.pi, size=count)
    return r * np.exp(1j * th)


def check_parseval_reconstruction(seed: int = 0) -> Check:
    """200 random Hermitian PSD matrices: factorize, verify within 1e-10 of
    ||G||_2, the scale ``kb factorize`` judges the residual on."""
    rng = _rng(seed, 1)
    worst = 0.0
    for _ in range(200):
        K = _random_psd_kernel(rng)
        residual = rkhs.verify_parseval(rkhs.parseval_factorize(K))
        worst = max(worst, kernels.relative_residual(residual, K))
    return Check("parseval-reconstruction", worst <= 1e-10, {"max_residual": worst, "matrices": 200})


def check_transform_pair(seed: int = 0) -> Check:
    """Counting-measure transforms: isometry, V.W on generators, projection.

    Each kernel's three random elements, and its n kernel sections (the
    columns of the identity), each go through the transforms as one matrix.
    The isometry deviation of an element is relative to its ||f||^2, and
    the generator residual to ||G||_2."""
    rng = _rng(seed, 2)
    worst_iso = worst_gen = worst_proj = worst_spec = 0.0
    for _ in range(200):
        K = _random_psd_kernel(rng)
        F = rkhs.parseval_factorize(K)
        draws = rng.standard_normal((3, 2, K.size))
        f = rkhs.RkhsElement(base=K, coeffs=(draws[:, 0] + 1j * draws[:, 1]).T)
        wf = factorization.apply_W(F, f)
        nrm2 = rkhs.norm_squared(f)
        iso_dev = np.abs(factorization.l2_norm_squared(wf, F.measure) - nrm2) / nrm2
        worst_iso = max(worst_iso, float(iso_dev.max()))
        sections = rkhs.RkhsElement(base=K, coeffs=np.eye(K.size))
        # Column t of V W K(., s_t) is checked against the Gram row of t.
        back = factorization.apply_V(F, factorization.apply_W(F, sections))
        worst_gen = max(worst_gen, kernels.relative_residual(
            float(np.abs(back - K.gram.T).max()), K))
        res = factorization.check_isometry(F)
        worst_proj = max(worst_proj, res["projection_residual"])
        spec = factorization.projection_spectrum(F)
        if spec.size:
            dist = np.minimum(np.abs(spec), np.abs(spec - 1.0))
            worst_spec = max(worst_spec, float(dist.max()))
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
    """500 random (g, xi, factorization) triples plus the equality case, the
    two as the columns of one call per factorization."""
    rng = _rng(seed, 3)
    violations = 0
    worst_eq = 0.0
    for _ in range(500):
        F = _random_feature_factorization(rng)
        m = F.n_atoms
        n = F.n_points
        g = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        xi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        # Parallel vectors: g = sum_i conj(xi_i) k_{s_i} turns the bound
        # into an equality.
        g_eq = F.features.T @ np.conj(xi)
        res = factorization.schwarz_bound_check(F, np.array([g, g_eq]).T, np.array([xi, xi]).T)
        if not res["holds"][0]:
            violations += 1
        dev, scale = abs(res["lhs"][1] - res["rhs"][1]), abs(res["rhs"][1])
        worst_eq = max(worst_eq, dev / scale if scale else math.inf if dev else 0.0)
    passed = violations == 0 and worst_eq <= 1e-9
    return Check("schwarz-bound", passed,
                 {"violations": violations, "max_equality_deviation": worst_eq})


def _two_point_factorization(measure: measures.DiscreteMeasure, e_values, z_points):
    """K(z, w) = 1 + z conj(w) style features 1 + z conj(e) over labeled atoms."""
    zs = np.asarray(z_points, dtype=complex)
    ev = np.asarray(e_values, dtype=complex)
    phi = 1.0 + zs[:, None] * np.conj(ev)[None, :]
    return factorization.BoundaryFactorization.induced(
        measure, phi, kernels.PointSet.from_points(zs)
    )


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
    ps = kernels.PointSet.from_points(points)
    K = kernels.assemble_gram(kernels.KernelSpec(), ps)
    return kernels.FiniteKernel(
        points=ps, gram=K.gram.real.astype(complex), field_tag="real"
    )


def check_gaussian_realization(seed: int = 0, n_draws: int = 200_000) -> Check:
    """Sampled covariance, means and marginal consistency at N = 2e5."""
    start = time.perf_counter()
    K_szego = szego_real_part_kernel()
    eye = kernels.FiniteKernel(
        points=kernels.PointSet.from_points([0.0, 0.1]),
        gram=np.eye(2),
        field_tag="real",
    )
    errors = [moment_errors(K, seed, n_draws) for K in (K_szego, eye)]
    worst_cov = max(cov_error for cov_error, _, _, _ in errors)
    worst_mean = max(float(mean_moduli.max()) for _, mean_moduli, _, _ in errors)
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
    worst_b = float(max(
        np.abs(clark.b_eval(mu1, zs) - zs).max(),
        np.abs(clark.b_eval(mu2, zs) - zs * zs).max(),
    ))
    worst_k = float(max(
        np.abs(clark.kb_eval(mu1, zs, ws) - 1.0).max(),
        np.abs(clark.kb_eval(mu2, zs, ws) - (1.0 + zs * np.conj(ws))).max(),
    ))

    worst_res = 0.0
    ranks_ok = True
    for mu in (mu1, mu2):
        pts = random_interior(rng, 6)
        F = clark.build_kb_factorization(mu, pts)
        worst_res = max(worst_res, factorization.verify_factorization(F))
        ranks_ok = ranks_ok and (
            factorization.minimality_test(F)["feature_rank"] == mu.size
        )
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
    worst = max(herglotz_error(mu, zs) for mu in corpus)
    return Check("poisson-herglotz", worst <= HERGLOTZ_TOL, {"max_abs_error": worst})


def check_inner_modulus(seed: int = 0) -> Check:
    """|b| approaches 1 at the boundary away from atoms."""
    corpus, _ = _herglotz_corpus(seed)
    worst = max(modulus_deviation(mu) for mu in corpus)
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


def check_renormalization(seed: int = 0) -> Check:
    """Worked renormalization, random mean-normalized identities, 1/E = 1 - b."""
    rng = _rng(seed, 9)

    meas = measures.DiscreteMeasure(atoms=("0", "1"), weights=[0.75, 0.25])
    phi = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex)
    F = factorization.BoundaryFactorization.induced(
        meas, phi, kernels.PointSet.from_points([0.0, 1.0])
    )
    ctx = clark.renormalize(F)
    target = np.array([[1.0, 1.0], [1.0, 4.0]], dtype=complex)
    worked_err = float(np.abs(ctx.kren_factorization.kernel.gram - target).max())

    worst_res = 0.0
    min_expectation = np.inf
    kren_psd_ok = True
    for _ in range(100):
        ctx_r = clark.renormalize(_random_feature_factorization(rng, mean_shift=2.0))
        min_expectation = min(min_expectation, float(np.abs(ctx_r.expectations).min()))
        residual, psd = renormalized_identity(ctx_r)
        worst_res = max(worst_res, residual)
        kren_psd_ok = kren_psd_ok and psd.is_psd

    worst_cross = 0.0
    for _ in range(10):
        mu = random_circle_measure(rng)
        zpts = random_interior(rng, 5)
        E = clark.expectation_vector(clark.build_szego_factorization(mu, zpts))
        worst_cross = max(worst_cross, inverse_mean_error(mu, zpts, E))

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
            "min_expectation_modulus": float(min_expectation),
            "max_cross_check_error": worst_cross,
        },
    )


def check_polydisk_density(seed: int = 0) -> Check:
    """Monomial rank saturation: degree m-1 for k=1, at most m for k=2."""
    rng = _rng(seed, 10)
    k1_ok = True
    for _ in range(30):
        mu = random_circle_measure(rng, max_atoms=8, min_sep=0.02)
        res = clark.polydisk_density_test(mu)
        sat_degree = len(res["rank_sequence"]) - 1
        k1_ok = k1_ok and res["saturated"] and sat_degree == mu.size - 1

    k2_ok = True
    for _ in range(50):
        m = int(rng.integers(1, 9))
        coords = rng.uniform(0.0, 1.0, size=(m, 2))
        w = rng.uniform(0.5, 1.5, size=m)
        meas = measures.DiscreteMeasure(
            atoms=tuple(range(m)), weights=w / w.sum(), coords=coords
        )
        res = clark.polydisk_density_test(meas)
        k2_ok = k2_ok and res["saturated"]

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
    """Run every criterion in forked workers; their checks in ALL_CHECKS order.

    One worker per CPU this process may run on, and at most one per
    criterion, claims criterion indices from a pipe and writes back one
    pickled (index, Check or exception, traceback text) record each.  The
    exception of the lowest index is raised, as a serial loop would raise
    it; a criterion whose worker ended without reporting raises
    ``WorkerDied``.  No worker outlives the call.  Where ``os.fork`` is
    missing the criteria run in this process, in index order.  Report
    determinism is checked by running the CLI twice (it cannot be observed
    from inside a single run).
    """
    if not hasattr(os, "fork"):
        return [check(seed=seed) for check in ALL_CHECKS]
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    n_workers = min(cpus or 1, len(ALL_CHECKS))
    claims, claims_in = os.pipe()
    with os.fdopen(claims_in, "wb") as fh:
        fh.write(bytes(range(len(ALL_CHECKS))))
    # A worker that flushes an inherited buffer would print its text again.
    sys.stdout.flush()
    sys.stderr.flush()
    pids, sources, results = [], [], {}
    try:
        for _ in range(n_workers):
            source, sink = os.pipe()
            sources.append(os.fdopen(source, "rb"))
            try:
                pid = os.fork()
                if pid == 0:
                    _work(seed, claims, sink)
                pids.append(pid)
            finally:
                os.close(sink)
        # Workers never wait on each other, so reading one pipe after the
        # other cannot block for good.
        for fh in sources:
            while True:
                try:
                    index, result, trace = pickle.load(fh)
                except (EOFError, pickle.UnpicklingError):  # a worker's last record, or cut off
                    break
                results[index] = result, trace
    finally:
        os.close(claims)
        for fh in sources:
            fh.close()
        statuses = [os.waitpid(pid, 0)[1] for pid in pids]
    for index, check in enumerate(ALL_CHECKS):
        if index not in results:
            raise WorkerDied(
                f"criterion {index + 1} ({check.__name__}) reported no result; worker "
                f"exit statuses {[os.waitstatus_to_exitcode(s) for s in statuses]}")
        result, trace = results[index]
        if trace is not None:
            raise result from _WorkerTraceback(trace)
    return [results[index][0] for index in range(len(ALL_CHECKS))]


def _work(seed: int, claims: int, sink: int):
    """A worker: run each criterion whose index it claims from ``claims``
    and write its record to ``sink``, flushed at once; never returns."""
    status = 1
    try:
        with os.fdopen(sink, "wb") as fh:
            while claimed := os.read(claims, 1):
                index = claimed[0]
                try:
                    record = index, ALL_CHECKS[index](seed=seed), None
                except Exception as exc:  # handed to the parent, which raises it
                    record = index, exc, traceback.format_exc()
                fh.write(pickle.dumps(record))
                fh.flush()
        status = 0
    finally:
        os._exit(status)


class _WorkerTraceback(Exception):
    """The traceback of an exception raised in a worker, as text."""
