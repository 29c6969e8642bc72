import json
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
    cli,
    consistency_check,
    empirical_covariance,
    minimality_test,
    moments,
    parseval_factorize,
    realize,
    sample,
)
from kboundary.kernels import default_rank_tol


class TestRealize:
    def test_identity_factor(self):
        F = realize(FiniteKernel(np.eye(2)))
        np.testing.assert_allclose(F.features @ np.conj(F.features).T, np.eye(2), atol=1e-12)

    def test_two_by_two(self):
        G = np.array([[2.0, 1.0], [1.0, 2.0]])
        F = realize(FiniteKernel(G))
        np.testing.assert_allclose(F.features @ np.conj(F.features).T, G, atol=1e-12)

    def test_rank_one(self):
        F = realize(FiniteKernel([[1.0, 1.0], [1.0, 1.0]]))
        assert F.n_atoms == 1
        col = F.features[:, 0]
        assert abs(col[0] - col[1]) <= 1e-12
        np.testing.assert_allclose(np.abs(col), [1.0, 1.0], atol=1e-12)

    def test_not_psd(self):
        with pytest.raises(NotPsd):
            realize(FiniteKernel([[1.0, 2.0], [2.0, 1.0]]))

    def test_deterministic(self):
        G = np.array([[2.0, 1.0], [1.0, 2.0]])
        F1 = realize(FiniteKernel(G))
        F2 = realize(FiniteKernel(G))
        assert np.array_equal(F1.features, F2.features)


class TestSample:
    def test_zero_kernel_draws_zero(self):
        batch = sample(realize(FiniteKernel([[0.0]])), 100)
        assert np.all(batch.draws == 0.0)

    def test_scalar_real_mean(self):
        K = FiniteKernel([[1.0]])
        batch = sample(realize(K), 1_000_000, seed=12345)
        assert abs(batch.draws.mean()) <= 0.005

    def test_fixed_seed_bit_identical(self):
        K = FiniteKernel([[2.0, 1.0], [1.0, 2.0]])
        b1 = sample(realize(K), 10_000, seed=77)
        b2 = sample(realize(K), 10_000, seed=77)
        assert np.array_equal(b1.draws, b2.draws)

    def test_seed_and_count_are_the_whole_record(self):
        K = FiniteKernel([[1.0]])
        F = realize(K)
        b1 = sample(F, 3000, seed=5)
        b2 = sample(F, 3000, seed=5)
        assert np.array_equal(b1.draws, b2.draws)
        assert b1.seed_record == {"seed": 5, "count": 3000}

    def test_count_validated(self):
        with pytest.raises(ShapeMismatch):
            sample(realize(FiniteKernel([[1.0]])), 0)


class TestEmpiricalCovariance:
    def test_zero_draws(self):
        batch = SampleBatch(draws=np.zeros((10, 2)), seed_record={"seed": 0})
        np.testing.assert_allclose(empirical_covariance(batch), np.zeros((2, 2)))

    def test_needs_two_draws(self):
        batch = SampleBatch(draws=np.zeros((1, 2)), seed_record={"seed": 0})
        with pytest.raises(ShapeMismatch):
            empirical_covariance(batch)

    def test_identity_real(self):
        K = FiniteKernel(np.eye(2))
        batch = sample(realize(K), 200_000, seed=101)
        emp = empirical_covariance(batch)
        assert np.abs(emp - np.eye(2)).max() <= 0.02

    def test_complex_circular_convention(self):
        rng = np.random.default_rng(3)
        A = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        G = A @ np.conj(A).T
        K = FiniteKernel(G)
        batch = sample(realize(K), 200_000, seed=55)
        emp = empirical_covariance(batch)
        assert np.abs(emp - G).max() <= 4.0 * np.abs(G).max() / np.sqrt(200_000)


def _full_moments(K, N, seed):
    """(covariance, seed record) of N draws of K's process at ``seed``."""
    _, cov, seed_record = moments(realize(K), N, seed)
    return cov, seed_record


class TestConsistency:
    def test_full_subset(self):
        K = FiniteKernel(np.eye(3))
        res = consistency_check(K, [0, 1, 2], *_full_moments(K, 20_000, seed=1))
        assert res["exact_ok"]

    def test_identity_submatrix_exact(self):
        K = FiniteKernel(np.eye(3))
        res = consistency_check(K, [0, 2], *_full_moments(K, 20_000, seed=2))
        assert res["exact_ok"]

    def test_an_eigenvalue_realize_drops_keeps_exact_ok(self):
        # realize drops 1e-12 <= default_rank_tol(2) * ||G||_2; the restricted
        # residual is that eigenvalue, which exact_ok must accept on an exact
        # PSD kernel.
        K = FiniteKernel(np.diag([1.0, 0.5 * default_rank_tol(2)]))
        assert realize(K).n_atoms == 1
        assert consistency_check(K, [1], *_full_moments(K, 100, seed=0))["exact_ok"]

    def test_szego_grid_subsample(self):
        K = assemble_gram(KernelSpec(), [0.0, 0.2, -0.3, 0.25j, -0.1 - 0.4j])
        res = consistency_check(K, [1, 3], *_full_moments(K, 100_000, seed=8))
        assert res["exact_ok"]
        assert res["empirical_deviation"] <= 0.03

    def test_index_out_of_range(self):
        K = FiniteKernel(np.eye(2))
        with pytest.raises(IndexOutOfRange):
            consistency_check(K, [0, 5], *_full_moments(K, 100, seed=0))

    @pytest.mark.parametrize(
        "subset, named",
        [([], "subset is empty"), ([1.5], "1.5"), ([True, 1], "True"),
         ([0, np.True_], "True"), ([np.float64(1.0)], "1.0"),
         ([0, 0], "subset index 0 is repeated"), ([1, 0, 1], "subset index 1 is repeated")],
    )
    def test_bad_subset_entries_are_named(self, subset, named):
        K = FiniteKernel(np.eye(2))
        with pytest.raises(IndexOutOfRange, match=re.escape(named)):
            consistency_check(K, subset, *_full_moments(K, 100, seed=0))

    def test_numpy_integer_indices_are_accepted(self):
        K = FiniteKernel(np.eye(3))
        moments_ = _full_moments(K, 2_000, seed=3)
        assert (consistency_check(K, np.array([0, 2]), *moments_)
                == consistency_check(K, [0, 2], *moments_))


def test_sampled_factorization_is_not_minimal():
    # Viewing N >> n draws as atoms of an empirical factorization exposes
    # the non-minimality of the Gaussian solution.
    rng = np.random.default_rng(7)
    A = rng.standard_normal((3, 3))
    G = A @ A.T
    K = FiniteKernel(G)
    batch = sample(realize(K), 64, seed=19)
    weights = np.full(64, 1.0 / 64.0)
    measure = DiscreteMeasure(atoms=tuple(range(64)), weights=weights)
    F = BoundaryFactorization(kernel=K, measure=measure, features=batch.draws.T)
    result = minimality_test(F)
    assert not result["is_minimal"]
    assert result["feature_rank"] <= 3


def _gaussian_report(kernel, out, points=None):
    """(exit code, report minus timing, covariance sidecar) of kb
    gaussian-sample at N = 5000, seed 3, written to ``out``."""
    config = {"command": "gaussian-sample", "kernel": kernel, "sample_count": 5000, "seed": 3}
    if points is not None:
        config["points"] = points
    out.parent.mkdir()
    path = out.parent / "config.json"
    path.write_text(json.dumps(config))
    code = cli.main(["gaussian-sample", "--config", str(path), "--out", str(out)])
    report = json.loads(out.read_text())
    del report["timing"]
    return code, report, np.load(out.parent / report["matrices"]["empirical_covariance"]["file"])


def test_a_closed_form_and_the_table_of_its_gram_draw_one_process(tmp_path):
    # One field rule, the data's: a Szego kernel on real points has a real
    # Gram, so it draws the real normals that the table of that Gram draws.
    z = [0.1, -0.35, 0.5, 0.72, -0.6]
    table = [[{"re": float(x.real)} for x in row] for row in assemble_gram(KernelSpec(), z).gram]
    closed = _gaussian_report({"variant": "szego"}, tmp_path / "szego" / "report.json",
                              points=[{"re": x} for x in z])
    tabled = _gaussian_report({"variant": "table", "table": table},
                              tmp_path / "table" / "report.json")
    assert closed[0] == tabled[0] == 0
    assert cli.emit(closed[1]) == cli.emit(tabled[1])
    assert not closed[2].imag.any()


def _disk_points(n):
    rng = np.random.default_rng(20261020)
    return 0.9 * np.sqrt(rng.uniform(0.0, 1.0, n)) * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, n))


@pytest.mark.parametrize("n", [12, 20, 30, 160])
def test_the_sampler_draws_the_frame_that_kb_factorize_reports(n):
    # One frame: realize is parseval_factorize, at its one rank cutoff.
    z = _disk_points(n)
    K = assemble_gram(KernelSpec(), z)
    F = realize(K)
    frame = parseval_factorize(K).features
    assert (F.features.shape, F.features.tobytes()) == (frame.shape, frame.tobytes())
    points = [{"re": float(w.real), "im": float(w.imag)} for w in z]
    report, _ = cli.run(cli.parse_config(
        {"command": "factorize", "kernel": {"variant": "szego"}, "points": points}))
    assert report["checks"][0]["retained_rank"] == F.n_atoms


def _zero_variance_config(seed, complex_field):
    """gaussian-sample at N = 2000 on a random rank-3 Gram A A^* of 6 points
    with a zero row and column inserted at index 3: K(3, 3) = 0."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((6, 3)) + (1j * rng.standard_normal((6, 3)) if complex_field else 0.0)
    G = np.insert(np.insert(A @ A.conj().T, 3, 0.0, axis=0), 3, 0.0, axis=1)
    table = [[{"re": float(v.real), "im": float(v.imag)} for v in row] for row in G]
    return cli.parse_config({"command": "gaussian-sample", "seed": seed, "sample_count": 2000,
                             "kernel": {"variant": "table", "table": table}})


@pytest.mark.parametrize("complex_field", [False, True], ids=["real", "complex"])
def test_mean_zero_judges_a_zero_variance_point_on_the_variance_drawn_there(complex_field):
    # The draw factor's row at a point with K(s, s) = 0 is rounding noise, not
    # zero, and so is the mean drawn there: a bound of 5 sqrt(K(s, s) / N) = 0
    # failed correct kernels, one bound from the drawn variance does not.
    for seed in range(20):
        report, code = cli.run(_zero_variance_config(seed, complex_field))
        assert code == 0, (seed, [c for c in report["checks"] if not c["passed"]])


def test_mean_zero_still_fails_a_mean_planted_at_a_zero_variance_point(monkeypatch):
    from kboundary import gaussian

    draw = gaussian.moments

    def planted(*args, **kwargs):
        means, covariance, record = draw(*args, **kwargs)
        means = means.astype(complex)
        means[3] += 1e-3
        return means, covariance, record

    monkeypatch.setattr(gaussian, "moments", planted)
    report, code = cli.run(_zero_variance_config(0, False))
    assert code == 2
    assert [c["name"] for c in report["checks"] if not c["passed"]] == ["mean-zero"]
