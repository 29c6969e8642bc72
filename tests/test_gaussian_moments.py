import tracemalloc

import numpy as np
import pytest
from scipy import stats

from kboundary import (
    BoundaryFactorization,
    CircleMeasure,
    DiscreteMeasure,
    FiniteKernel,
    KernelSpec,
    ShapeMismatch,
    assemble_gram,
    build_kb_factorization,
    empirical_covariance,
    moments,
    realize,
    sample,
)
from kboundary import gaussian
from kboundary.selfcheck import (
    check_gaussian_realization,
    covariance_bound,
    random_interior,
    szego_real_part_kernel,
)


def _table_kernel(matrix, field_tag):
    return FiniteKernel(gram=matrix, field_tag=field_tag)


def _complex_szego_kernel():
    return assemble_gram(KernelSpec(), [0.0, 0.3 + 0.2j, -0.25j, -0.4 + 0.1j])


KERNELS = {
    "real": szego_real_part_kernel,
    "complex": _complex_szego_kernel,
    # A real Gram under the complex tag: real factor, complex draws.
    "complex-tag-real-gram": lambda: _table_kernel([[2.0, 1.0], [1.0, 2.0]], "complex"),
}


def _kb_factorization():
    """K_b of a three-atom Clark measure, factorized through its atoms."""
    mu = CircleMeasure(atoms=[0.1, 0.45, 0.8], weights=[0.5, 0.3, 0.2])
    zs = random_interior(np.random.default_rng(5), 8)
    return build_kb_factorization(mu, zs)


def _weighted_factorization():
    """Features on four atoms of unequal weight, with the kernel they induce."""
    rng = np.random.default_rng(23)
    phi = rng.standard_normal((5, 4)) + 1j * rng.standard_normal((5, 4))
    measure = DiscreteMeasure(atoms=("a", "b", "c", "d"), weights=[0.05, 0.15, 0.3, 0.5])
    return BoundaryFactorization.induced(measure, phi)


def _kb_wide_factorization(field_tag):
    """K_b of a seven-atom Clark measure on three points (more atoms than
    points), its kernel carrying ``field_tag``."""
    mu = CircleMeasure(atoms=np.arange(7) / 7.0 + 0.03,
                       weights=[0.2, 0.1, 0.15, 0.05, 0.2, 0.1, 0.2])
    F = build_kb_factorization(mu, random_interior(np.random.default_rng(11), 3))
    kernel = FiniteKernel(gram=F.kernel.gram, field_tag=field_tag)
    return BoundaryFactorization(kernel=kernel, measure=F.measure, features=F.features)


FACTORIZATIONS = {
    **{name: (lambda make=make: realize(make())) for name, make in KERNELS.items()},
    "clark-kb": _kb_factorization,  # r < n
    "weighted-induced": _weighted_factorization,  # r < n
    "clark-kb-wide-real": lambda: _kb_wide_factorization("real"),  # r > n
    "clark-kb-wide-complex": lambda: _kb_wide_factorization("complex"),  # r > n
}


def _rank_three_factorization(field_tag):
    """The spectral factorization of a full-rank kernel on three points."""
    rng = np.random.default_rng(29)
    A = rng.standard_normal((3, 3))
    if field_tag == "complex":
        A = A + 1j * rng.standard_normal((3, 3))
    return realize(_table_kernel(A @ np.conj(A).T, field_tag))


def _marginals(mean, cov):
    """The real coordinates of (mean, covariance): real and imaginary parts
    of each mean entry and of each covariance entry above the diagonal, and
    the real diagonal."""
    upper = cov[np.triu_indices(cov.shape[0], 1)]
    return np.concatenate([mean.real, mean.imag, upper.real, upper.imag, np.diag(cov).real])


LAW_REPLICATES = 1500
LAW_ALPHA = 1e-3  # family-wise over every marginal of the four cases below
LAW_MARGINALS = {"real": 3 + 3 + 3, "complex": 6 + 6 + 3}  # mean, off-diagonal, diagonal


@pytest.mark.parametrize("N", [7, 2], ids=["bartlett", "direct"])
@pytest.mark.parametrize("field_tag", ["real", "complex"])
def test_moments_have_the_law_of_the_sampled_sums(field_tag, N):
    # Two-sample KS per marginal, Bonferroni over all of them: moments at
    # seeds 0.. against the mean and empirical covariance of sample at
    # disjoint seeds.  r = 3, so N = 7 draws the Bartlett factor and N = 2
    # (N - 1 < r) sums the normals.
    F = _rank_three_factorization(field_tag)
    assert F.n_atoms == 3
    drawn = np.array([_marginals(*moments(F, N, seed)[:2]) for seed in range(LAW_REPLICATES)])
    summed = []
    for seed in range(LAW_REPLICATES, 2 * LAW_REPLICATES):
        batch = sample(F, N, seed)
        summed.append(_marginals(batch.draws.mean(axis=0), empirical_covariance(batch)))
    summed = np.array(summed)
    # A real factorization's imaginary parts are 0 on both sides.
    varying = np.ptp(summed, axis=0) > 0.0
    assert not drawn[:, ~varying].any() and not summed[:, ~varying].any()
    assert varying.sum() == LAW_MARGINALS[field_tag]
    p_values = [stats.ks_2samp(drawn[:, k], summed[:, k]).pvalue
                for k in np.flatnonzero(varying)]
    family = 2 * sum(LAW_MARGINALS.values())
    assert min(p_values) > LAW_ALPHA / family, min(p_values)


@pytest.mark.parametrize("name", sorted(FACTORIZATIONS))
def test_moments_below_the_bartlett_rank_sum_the_sampled_draws(name):
    # With N - 1 < r there is no Bartlett factor: moments sums the normals
    # that sample draws from the same seed.
    F = FACTORIZATIONS[name]()
    N = 2
    assert N - 1 < F.n_atoms
    batch = sample(F, N, 41)
    mean, cov, record = moments(F, N, 41)
    np.testing.assert_allclose(cov, empirical_covariance(batch), rtol=1e-13, atol=1e-15)
    np.testing.assert_allclose(mean, batch.draws.mean(axis=0), rtol=1e-13, atol=1e-15)
    assert record == batch.seed_record == {"seed": 41, "count": N}


def test_moments_of_a_rank_zero_kernel_are_zero():
    F = realize(_table_kernel(np.zeros((3, 3)), "real"))
    assert F.n_atoms == 0
    mean, cov, _ = moments(F, 5_000, 2)
    assert mean.shape == (3,) and cov.shape == (3, 3)
    assert not mean.any() and not cov.any()


@pytest.mark.parametrize("N", [-1, 0, 1])
def test_moments_need_two_draws(N):
    F = realize(_table_kernel(np.eye(2), "real"))
    with pytest.raises(ShapeMismatch):
        moments(F, N)


def test_moments_memory_is_flat_in_the_sample_count():
    # The materialized 2e6 x 4 complex batch alone is 128 MB.
    F = realize(szego_real_part_kernel())
    tracemalloc.start()
    try:
        moments(F, 2_000_000, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_moments_memory_is_in_atoms_not_points():
    # A real rank-3 kernel on 400 points: the 24576 x 400 float64 draws
    # would be 79 MB, the 400 x 400 covariance is 1.3 MB.
    phi = np.random.default_rng(8).standard_normal((400, 3))
    F = realize(_table_kernel(phi @ phi.T, "real"))
    assert F.n_atoms == 3
    tracemalloc.start()
    try:
        moments(F, 3 * 8192, 5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_moments_cost_does_not_grow_with_the_sample_count():
    # N = 2^53, the largest sample_count a config may give: drawn in law,
    # the moments are finite and the peak is a few r x r and n x n arrays.
    F = realize(szego_real_part_kernel())
    tracemalloc.start()
    try:
        mean, cov, record = moments(F, 2**53, 6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.isfinite(mean).all() and np.isfinite(cov).all()
    assert record == {"seed": 6, "count": 2**53}
    assert peak < 2**20


def test_real_gram_gives_a_real_covariance():
    assert moments(realize(szego_real_part_kernel()), 100)[1].dtype == np.float64
    assert moments(realize(_complex_szego_kernel()), 100)[1].dtype == np.complex128


def test_realize_keeps_full_rank_of_a_tiny_identity():
    F = realize(_table_kernel(1e-11 * np.eye(2), "real"))
    assert F.n_atoms == 2
    np.testing.assert_allclose(F.features @ np.conj(F.features).T, 1e-11 * np.eye(2),
                               rtol=1e-12)
    draws = sample(F, 100, 4).draws
    assert np.all(draws != 0.0)


@pytest.mark.parametrize("scale", [10.0**k for k in range(-12, 13, 3)])
@pytest.mark.parametrize(
    "make, rank",
    [(szego_real_part_kernel, 4),
     (lambda: _table_kernel([[1.0, 1.0], [1.0, 1.0]], "real"), 1)],
    ids=["szego-real", "rank-one"],
)
def test_realized_rank_does_not_depend_on_units(make, rank, scale):
    K = make()
    scaled = FiniteKernel(gram=scale * K.gram, field_tag=K.field_tag)
    assert realize(scaled).n_atoms == rank


def test_realization_check_draws_each_stream_once(monkeypatch):
    # Two-stream reference: the full process's covariance and the subset's
    # own seed + 1 process, each drawn straight from moments.
    seed, N, subset = 3, 20_000, [0, 2]
    K = szego_real_part_kernel()
    full = moments(realize(K), N, seed)[1]
    direct = moments(realize(K.restrict(subset)), N, seed + 1)[1]
    expected = float(np.abs(full[np.ix_(subset, subset)] - direct).max())

    streams = []

    def counting(F, count, seed=0, *args):
        streams.append((seed, F.kernel.size, count))
        return moments(F, count, seed, *args)

    monkeypatch.setattr(gaussian, "moments", counting)
    check = check_gaussian_realization(seed=seed, n_draws=N)
    assert check.details["consistency_deviation"] == expected
    assert sorted(streams) == [(seed, 2, N), (seed, 4, N), (seed + 1, 2, N)]


@pytest.mark.parametrize("make", [_kb_factorization, _weighted_factorization],
                         ids=["clark-kb", "weighted-induced"])
def test_a_factorization_is_sampled_through_its_atoms(make):
    # X = Phi (sqrt(mu) g) has covariance Phi D Phi^* = G, whatever the weights.
    F = make()
    N = 200_000
    mean, cov, record = moments(F, N, 17)
    assert F.n_atoms < F.n_points
    assert np.abs(cov - F.kernel.gram).max() <= covariance_bound(F.kernel, N)
    assert np.all(np.abs(mean) <= 5.0 * np.sqrt(np.diag(F.kernel.gram).real / N))
    assert record == {"seed": 17, "count": N}


def test_counting_measure_draws_are_the_features_times_the_normals():
    # sqrt(1) = 1 exactly, so a spectral draw is g @ features^T bit for bit.
    F = realize(szego_real_part_kernel())
    draws = sample(F, 10, 9).draws
    g = np.random.Generator(np.random.Philox(key=9)).standard_normal((10, F.n_atoms))
    expected = g @ np.ascontiguousarray(F.features.real).T
    assert draws.tobytes() == expected.astype(complex).tobytes()
