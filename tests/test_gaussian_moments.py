import tracemalloc

import numpy as np
import pytest

from kboundary import (
    FiniteKernel,
    KernelSpec,
    PointSet,
    ShapeMismatch,
    assemble_gram,
    empirical_covariance,
    moments,
    realize,
    sample,
)
from kboundary import gaussian
from kboundary.selfcheck import check_gaussian_realization, szego_real_part_kernel


def _table_kernel(matrix, field_tag):
    g = np.asarray(matrix, dtype=complex)
    return FiniteKernel(
        points=PointSet.from_points(np.arange(g.shape[0], dtype=complex)),
        gram=g,
        field_tag=field_tag,
    )


def _complex_szego_kernel():
    ps = PointSet.from_points([0.0, 0.3 + 0.2j, -0.25j, -0.4 + 0.1j])
    return assemble_gram(KernelSpec.szego(), ps)


KERNELS = {
    "real": szego_real_part_kernel,
    "complex": _complex_szego_kernel,
    # A real Gram under the complex tag: real factor, complex draws.
    "complex-tag-real-gram": lambda: _table_kernel([[2.0, 1.0], [1.0, 2.0]], "complex"),
}


@pytest.mark.parametrize("name", sorted(KERNELS))
@pytest.mark.parametrize("N, chunk_size", [(12_000, 3_000), (10_007, 1_024)],
                         ids=["divides", "remainder"])
def test_moments_match_the_materialized_batch(name, N, chunk_size):
    R = realize(KERNELS[name](), seed=41)
    batch = sample(R, N, chunk_size)
    mean, cov, record = moments(R, N, chunk_size)
    np.testing.assert_allclose(cov, empirical_covariance(batch), rtol=1e-13, atol=0.0)
    np.testing.assert_allclose(mean, batch.draws.mean(axis=0), rtol=1e-13, atol=0.0)
    assert record == batch.seed_record == {"seed": 41, "chunk_size": chunk_size, "count": N}


def test_moments_of_a_rank_zero_kernel_are_zero():
    R = realize(_table_kernel(np.zeros((3, 3)), "real"), seed=2)
    assert R.rank == 0
    mean, cov, _ = moments(R, 5_000, chunk_size=1_000)
    assert mean.shape == (3,) and cov.shape == (3, 3)
    assert not mean.any() and not cov.any()


@pytest.mark.parametrize("N", [-1, 0, 1])
def test_moments_need_two_draws(N):
    R = realize(_table_kernel(np.eye(2), "real"))
    with pytest.raises(ShapeMismatch):
        moments(R, N)


def test_moments_chunk_size_validated():
    R = realize(_table_kernel(np.eye(2), "real"))
    with pytest.raises(ShapeMismatch):
        moments(R, 100, chunk_size=0)


def test_moments_memory_is_flat_in_the_sample_count():
    # The materialized 2e6 x 4 complex batch alone is 128 MB.
    R = realize(szego_real_part_kernel(), seed=3)
    tracemalloc.start()
    try:
        moments(R, 2_000_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_real_gram_gives_a_real_factor():
    assert realize(szego_real_part_kernel()).factor.dtype == np.float64
    assert realize(_complex_szego_kernel()).factor.dtype == np.complex128


def test_realize_keeps_full_rank_of_a_tiny_identity():
    R = realize(_table_kernel(1e-11 * np.eye(2), "real"), seed=4)
    assert R.rank == 2
    np.testing.assert_allclose(R.factor @ R.factor.T, 1e-11 * np.eye(2), rtol=1e-12)
    draws = sample(R, 100).draws
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
    scaled = FiniteKernel(points=K.points, gram=scale * K.gram, field_tag=K.field_tag)
    assert realize(scaled).rank == rank


def test_realization_check_draws_each_stream_once(monkeypatch):
    # Two-stream reference: the full process's covariance and the subset's
    # own seed + 1 process, each drawn straight from moments.
    seed, N, subset = 3, 20_000, [0, 2]
    K = szego_real_part_kernel()
    full = moments(realize(K, seed=seed), N)[1]
    direct = moments(realize(K.restrict(subset), seed=seed + 1), N)[1]
    expected = float(np.abs(full[np.ix_(subset, subset)] - direct).max())

    streams = []

    def counting(R, count, *args):
        streams.append((R.seed, R.kernel.size, count))
        return moments(R, count, *args)

    monkeypatch.setattr(gaussian, "moments", counting)
    check = check_gaussian_realization(seed=seed, n_draws=N)
    assert check.details["consistency_deviation"] == expected
    assert sorted(streams) == [(seed, 2, N), (seed, 4, N), (seed + 1, 2, N)]
