import re

import numpy as np
import pytest

from kboundary import (
    BoundaryFactorization,
    DiscreteMeasure,
    FiniteKernel,
    IndexOutOfRange,
    KernelSpec,
    NotPsd,
    SampleBatch,
    ShapeMismatch,
    assemble_gram,
    consistency_check,
    empirical_covariance,
    minimality_test,
    moments,
    realize,
    sample,
)


def _table_kernel(matrix, field_tag="complex"):
    return FiniteKernel(gram=matrix, field_tag=field_tag)


class TestRealize:
    def test_identity_factor(self):
        F = realize(_table_kernel(np.eye(2)))
        np.testing.assert_allclose(F.features @ np.conj(F.features).T, np.eye(2), atol=1e-12)

    def test_two_by_two(self):
        G = np.array([[2.0, 1.0], [1.0, 2.0]])
        F = realize(_table_kernel(G))
        np.testing.assert_allclose(F.features @ np.conj(F.features).T, G, atol=1e-12)

    def test_rank_one(self):
        F = realize(_table_kernel([[1.0, 1.0], [1.0, 1.0]]))
        assert F.n_atoms == 1
        col = F.features[:, 0]
        assert abs(col[0] - col[1]) <= 1e-12
        np.testing.assert_allclose(np.abs(col), [1.0, 1.0], atol=1e-12)

    def test_not_psd(self):
        with pytest.raises(NotPsd):
            realize(_table_kernel([[1.0, 2.0], [2.0, 1.0]]))

    def test_deterministic(self):
        G = np.array([[2.0, 1.0], [1.0, 2.0]])
        F1 = realize(_table_kernel(G))
        F2 = realize(_table_kernel(G))
        assert np.array_equal(F1.features, F2.features)


class TestSample:
    def test_zero_kernel_draws_zero(self):
        batch = sample(realize(_table_kernel([[0.0]])), 100)
        assert np.all(batch.draws == 0.0)

    def test_scalar_real_mean(self):
        K = _table_kernel([[1.0]], field_tag="real")
        batch = sample(realize(K), 1_000_000, seed=12345)
        assert abs(batch.draws.mean()) <= 0.005

    def test_fixed_seed_bit_identical(self):
        K = _table_kernel([[2.0, 1.0], [1.0, 2.0]], field_tag="real")
        b1 = sample(realize(K), 10_000, seed=77)
        b2 = sample(realize(K), 10_000, seed=77)
        assert np.array_equal(b1.draws, b2.draws)

    def test_seed_and_count_are_the_whole_record(self):
        K = _table_kernel([[1.0]], field_tag="real")
        F = realize(K)
        b1 = sample(F, 3000, seed=5)
        b2 = sample(F, 3000, seed=5)
        assert np.array_equal(b1.draws, b2.draws)
        assert b1.seed_record == {"seed": 5, "count": 3000}

    def test_count_validated(self):
        with pytest.raises(ShapeMismatch):
            sample(realize(_table_kernel([[1.0]])), 0)


class TestEmpiricalCovariance:
    def test_zero_draws(self):
        batch = SampleBatch(draws=np.zeros((10, 2)), seed_record={"seed": 0})
        np.testing.assert_allclose(empirical_covariance(batch), np.zeros((2, 2)))

    def test_needs_two_draws(self):
        batch = SampleBatch(draws=np.zeros((1, 2)), seed_record={"seed": 0})
        with pytest.raises(ShapeMismatch):
            empirical_covariance(batch)

    def test_identity_real(self):
        K = _table_kernel(np.eye(2), field_tag="real")
        batch = sample(realize(K), 200_000, seed=101)
        emp = empirical_covariance(batch)
        assert np.abs(emp - np.eye(2)).max() <= 0.02

    def test_complex_circular_convention(self):
        rng = np.random.default_rng(3)
        A = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        G = A @ np.conj(A).T
        K = _table_kernel(G)
        batch = sample(realize(K), 200_000, seed=55)
        emp = empirical_covariance(batch)
        assert np.abs(emp - G).max() <= 4.0 * np.abs(G).max() / np.sqrt(200_000)


def _full_moments(K, N, seed):
    """(covariance, seed record) of N draws of K's process at ``seed``."""
    _, cov, seed_record = moments(realize(K), N, seed)
    return cov, seed_record


class TestConsistency:
    def test_full_subset(self):
        K = _table_kernel(np.eye(3), field_tag="real")
        res = consistency_check(K, [0, 1, 2], *_full_moments(K, 20_000, seed=1))
        assert res["exact_ok"]

    def test_identity_submatrix_exact(self):
        K = _table_kernel(np.eye(3), field_tag="real")
        res = consistency_check(K, [0, 2], *_full_moments(K, 20_000, seed=2))
        assert res["exact_ok"]

    def test_an_eigenvalue_realize_drops_keeps_exact_ok(self):
        # realize drops 5e-11 <= FACTOR_TOL * ||G||_2; the restricted residual
        # is that eigenvalue, which exact_ok must accept on an exact PSD kernel.
        K = _table_kernel(np.diag([1.0, 5e-11]), field_tag="real")
        assert realize(K).n_atoms == 1
        assert consistency_check(K, [1], *_full_moments(K, 100, seed=0))["exact_ok"]

    def test_szego_grid_subsample(self):
        K = assemble_gram(KernelSpec(), [0.0, 0.2, -0.3, 0.25j, -0.1 - 0.4j])
        res = consistency_check(K, [1, 3], *_full_moments(K, 100_000, seed=8))
        assert res["exact_ok"]
        assert res["empirical_deviation"] <= 0.03

    def test_index_out_of_range(self):
        K = _table_kernel(np.eye(2))
        with pytest.raises(IndexOutOfRange):
            consistency_check(K, [0, 5], *_full_moments(K, 100, seed=0))

    @pytest.mark.parametrize(
        "subset, named",
        [([], "subset is empty"), ([1.5], "1.5"), ([True, 1], "True"),
         ([0, np.True_], "True"), ([np.float64(1.0)], "1.0"),
         ([0, 0], "subset index 0 is repeated"), ([1, 0, 1], "subset index 1 is repeated")],
    )
    def test_bad_subset_entries_are_named(self, subset, named):
        K = _table_kernel(np.eye(2))
        with pytest.raises(IndexOutOfRange, match=re.escape(named)):
            consistency_check(K, subset, *_full_moments(K, 100, seed=0))

    def test_numpy_integer_indices_are_accepted(self):
        K = _table_kernel(np.eye(3), field_tag="real")
        moments_ = _full_moments(K, 2_000, seed=3)
        assert (consistency_check(K, np.array([0, 2]), *moments_)
                == consistency_check(K, [0, 2], *moments_))


def test_sampled_factorization_is_not_minimal():
    # Viewing N >> n draws as atoms of an empirical factorization exposes
    # the non-minimality of the Gaussian solution.
    rng = np.random.default_rng(7)
    A = rng.standard_normal((3, 3))
    G = A @ A.T
    K = _table_kernel(G, field_tag="real")
    batch = sample(realize(K), 64, seed=19)
    weights = np.full(64, 1.0 / 64.0)
    measure = DiscreteMeasure(atoms=tuple(range(64)), weights=weights)
    F = BoundaryFactorization(kernel=K, measure=measure, features=batch.draws.T)
    result = minimality_test(F)
    assert not result["is_minimal"]
    assert result["feature_rank"] <= 3
