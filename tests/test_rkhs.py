import numpy as np
import pytest

from kboundary import (
    BaseMismatch,
    BoundaryFactorization,
    DiscreteMeasure,
    FiniteKernel,
    KernelSpec,
    NotPsd,
    PointSet,
    RkhsElement,
    UnknownLabel,
    apply_V,
    apply_W,
    assemble_gram,
    evaluate,
    norm_squared,
    parseval_factorize,
    rkhs_inner,
    tightness_test,
    verify_parseval,
)
from kboundary.rkhs import PARSEVAL_TRIALS


@pytest.fixture
def szego_base():
    return assemble_gram(KernelSpec.szego(), PointSet.from_points([0.0, 0.5]))


def _table_kernel(matrix):
    n = len(matrix)
    return FiniteKernel(
        points=PointSet.from_points(np.arange(n, dtype=complex)),
        gram=np.asarray(matrix, dtype=complex),
    )


def _counting_factorization(base, frame):
    """The factorization through the counting measure whose frame vectors are
    the rows of ``frame``."""
    return BoundaryFactorization(
        kernel=base, measure=DiscreteMeasure.counting(frame.shape[0]), features=frame.T
    )


def _random_psd(rng, n, complex_entries=True):
    r = rng.integers(1, n + 2)
    A = rng.standard_normal((n, r))
    if complex_entries:
        A = A + 1j * rng.standard_normal((n, r))
    return _table_kernel(A @ np.conj(A).T)


class TestInnerProduct:
    def test_reproducing_pair(self, szego_base):
        f = RkhsElement.kernel_section(szego_base, "p0")
        g = RkhsElement.kernel_section(szego_base, "p1")
        assert rkhs_inner(f, g) == pytest.approx(szego_base.gram[1, 0])

    def test_section_self_inner(self, szego_base):
        f = RkhsElement.kernel_section(szego_base, "p0")
        assert rkhs_inner(f, f) == pytest.approx(1.0)

    def test_difference_norm(self, szego_base):
        f = RkhsElement(base=szego_base, coeffs=[-1.0, 1.0])
        assert rkhs_inner(f, f) == pytest.approx(1.0 / 3.0)

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(3)
        K = _random_psd(rng, 5)
        f = RkhsElement(base=K, coeffs=rng.standard_normal(5) + 1j * rng.standard_normal(5))
        g = RkhsElement(base=K, coeffs=rng.standard_normal(5) + 1j * rng.standard_normal(5))
        assert rkhs_inner(f, g) == pytest.approx(np.conj(rkhs_inner(g, f)))

    def test_base_mismatch(self, szego_base):
        other = _table_kernel(np.eye(2))
        with pytest.raises(BaseMismatch):
            rkhs_inner(
                RkhsElement.kernel_section(szego_base, "p0"),
                RkhsElement.kernel_section(other, "p0"),
            )


class TestEvaluate:
    def test_reproducing_property_exact(self, szego_base):
        for i, s in enumerate(szego_base.points.labels):
            for j, t in enumerate(szego_base.points.labels):
                section = RkhsElement.kernel_section(szego_base, t)
                assert evaluate(section, s) == szego_base.gram[i, j]

    def test_zero_coefficients(self, szego_base):
        zero = RkhsElement(base=szego_base, coeffs=[0.0, 0.0])
        assert all(evaluate(zero, s) == 0.0 for s in szego_base.points.labels)

    def test_sum_of_sections(self, szego_base):
        f = RkhsElement(base=szego_base, coeffs=[1.0, 1.0])
        assert evaluate(f, "p0") == pytest.approx(2.0)

    def test_unknown_label(self, szego_base):
        f = RkhsElement(base=szego_base, coeffs=[1.0, 0.0])
        with pytest.raises(UnknownLabel):
            evaluate(f, "nope")

    def test_evaluation_agrees_with_inner_product(self, szego_base):
        rng = np.random.default_rng(5)
        f = RkhsElement(base=szego_base, coeffs=rng.standard_normal(2))
        for s in szego_base.points.labels:
            section = RkhsElement.kernel_section(szego_base, s)
            assert evaluate(f, s) == pytest.approx(rkhs_inner(f, section))


class TestParsevalFactorize:
    def test_identity_gram(self):
        F = parseval_factorize(_table_kernel(np.eye(2)))
        assert F.n_atoms == 2
        assert verify_parseval(F) <= 1e-12

    def test_two_by_two_reconstruction(self):
        F = parseval_factorize(_table_kernel([[2.0, 1.0], [1.0, 2.0]]))
        recon = F.features @ np.conj(F.features).T
        np.testing.assert_allclose(recon, [[2.0, 1.0], [1.0, 2.0]], atol=1e-12)

    def test_rank_one_gram(self):
        F = parseval_factorize(_table_kernel([[1.0, 1.0], [1.0, 1.0]]))
        assert F.n_atoms == 1
        # single frame vector proportional to (1, 1), phase free
        row = F.features.T[0]
        assert abs(row[0] - row[1]) <= 1e-12
        np.testing.assert_allclose(np.abs(row), [1.0, 1.0], atol=1e-12)

    def test_not_psd(self):
        with pytest.raises(NotPsd):
            parseval_factorize(_table_kernel([[1.0, 2.0], [2.0, 1.0]]))


class TestVerifyParseval:
    def test_zeroed_row_loses_rank_one_piece(self):
        base = _table_kernel(np.eye(2))
        frame = parseval_factorize(base).features.T
        broken = np.array(frame)
        broken[0, :] = 0.0
        assert verify_parseval(_counting_factorization(base, broken)) == pytest.approx(1.0)

    def test_empty_frame_on_zero_gram(self):
        base = _table_kernel(np.zeros((2, 2)))
        F = parseval_factorize(base)
        assert F.n_atoms == 0
        assert verify_parseval(F) == 0.0

    def test_random_corpus(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            K = _random_psd(rng, int(rng.integers(1, 12)), complex_entries=bool(rng.integers(2)))
            assert verify_parseval(parseval_factorize(K)) <= 1e-10

    def test_overflowed_norm_identity_is_nan(self):
        # max(residual, nan) would keep the finite reconstruction term.
        F = parseval_factorize(_table_kernel([[1e308, 1e308], [1e308, 1e308]]))
        assert np.isnan(verify_parseval(F))

    def test_array_pass_matches_per_trial_loop(self):
        rng = np.random.default_rng(11)
        for k in range(30):
            K = _random_psd(rng, int(rng.integers(1, 12)), complex_entries=bool(k % 2))
            F = parseval_factorize(K)
            if k % 3 == 0:  # a broken frame, so the norm-identity term counts
                F = _counting_factorization(K, 1.01 * F.features.T)
            for seed in (0, k, k + 1, 2):
                expected = _verify_parseval_loop(F, seed)
                assert abs(verify_parseval(F, seed=seed) - expected) <= 1e-14


def _verify_parseval_loop(F, seed):
    """Reference: the per-trial loop that verify_parseval replaces."""
    residual = F.residual
    rng = np.random.default_rng(seed)
    n = F.n_points
    for _ in range(PARSEVAL_TRIALS):
        xi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        nrm2 = complex(np.conj(xi) @ (F.kernel.gram @ xi)).real
        coeffs = np.conj(F.features).T @ xi
        dev = abs(nrm2 - float(np.abs(coeffs) ** 2 @ np.ones(coeffs.size)))
        residual = max(residual, dev / max(1.0, abs(nrm2)))
    return residual


def _analysis(F, f):
    """Frame coefficients c_n = <f, beta_n>, the conjugate of W f."""
    return np.conj(apply_W(F, f))


class TestFrameExpand:
    def test_eigenrow_gives_unit_coordinate(self):
        K = _table_kernel([[2.0, 1.0], [1.0, 2.0]])  # distinct eigenvalues
        F = parseval_factorize(K)
        for n in range(F.n_atoms):
            xi = np.linalg.solve(K.gram, F.features[:, n])
            coeffs = _analysis(F, RkhsElement(base=K, coeffs=xi))
            expected = np.zeros(F.n_atoms)
            expected[n] = 1.0
            np.testing.assert_allclose(coeffs, expected, atol=1e-12)

    def test_zero_element(self, szego_base):
        F = parseval_factorize(szego_base)
        coeffs = _analysis(F, RkhsElement(base=szego_base, coeffs=[0, 0]))
        np.testing.assert_allclose(coeffs, 0.0, atol=1e-15)

    def test_identity_gram_section(self):
        K = _table_kernel(np.eye(2))
        F = parseval_factorize(K)
        f = RkhsElement.kernel_section(K, "p0")
        coeffs = _analysis(F, f)
        np.testing.assert_allclose(coeffs, np.conj(F.features[0, :]), atol=1e-12)
        np.testing.assert_allclose(F.features @ coeffs, [1.0, 0.0], atol=1e-12)

    def test_synthesis_reevaluates_pointwise(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            K = _random_psd(rng, int(rng.integers(1, 10)))
            F = parseval_factorize(K)
            xi = rng.standard_normal(K.size) + 1j * rng.standard_normal(K.size)
            f = RkhsElement(base=K, coeffs=xi)
            values = np.conj(apply_V(F, apply_W(F, f)))
            np.testing.assert_allclose(values, K.gram @ xi, atol=1e-9)

    def test_norm_identity(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            K = _random_psd(rng, int(rng.integers(1, 10)))
            F = parseval_factorize(K)
            xi = rng.standard_normal(K.size) + 1j * rng.standard_normal(K.size)
            f = RkhsElement(base=K, coeffs=xi)
            coeffs = _analysis(F, f)
            assert norm_squared(f) == pytest.approx(
                float(np.sum(np.abs(coeffs) ** 2)), abs=1e-9
            )

    def test_base_mismatch(self, szego_base):
        F = parseval_factorize(szego_base)
        other = _table_kernel(np.eye(2))
        with pytest.raises(BaseMismatch):
            apply_W(F, RkhsElement.kernel_section(other, "p0"))


class TestTightness:
    def test_factorize_output_is_tight(self, szego_base):
        assert tightness_test(parseval_factorize(szego_base))

    def test_zero_row_padding_breaks_tightness(self, szego_base):
        frame = parseval_factorize(szego_base).features.T
        padded = np.vstack([frame, np.zeros((1, szego_base.size))])
        assert not tightness_test(_counting_factorization(szego_base, padded))

    def test_duplicated_row_breaks_tightness(self, szego_base):
        frame = parseval_factorize(szego_base).features.T
        padded = np.vstack([frame, frame[:1, :]])
        assert not tightness_test(_counting_factorization(szego_base, padded))


def test_retained_rank_invariant_under_unitary_conjugation():
    rng = np.random.default_rng(17)
    for _ in range(10):
        n = int(rng.integers(2, 10))
        K = _random_psd(rng, n)
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        conjugated = _table_kernel(Q @ K.gram @ np.conj(Q).T)
        assert (
            parseval_factorize(K).n_atoms
            == parseval_factorize(conjugated).n_atoms
        )
