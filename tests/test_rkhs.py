import numpy as np
import pytest

from kboundary import (
    BaseMismatch,
    BoundaryFactorization,
    DiscreteMeasure,
    FiniteKernel,
    KernelSpec,
    NotPsd,
    RkhsElement,
    apply_V,
    apply_W,
    assemble_gram,
    norm_squared,
    parseval_factorize,
    rkhs_inner,
    tightness_test,
    verify_parseval,
)
from kboundary.kernels import _norm, relative_residual


@pytest.fixture
def szego_base():
    return assemble_gram(KernelSpec(), [0.0, 0.5])


def _table_kernel(matrix):
    return FiniteKernel(gram=matrix)


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
        f = RkhsElement(base=szego_base, coeffs=np.eye(szego_base.size)[:, 0])
        g = RkhsElement(base=szego_base, coeffs=np.eye(szego_base.size)[:, 1])
        assert rkhs_inner(f, g) == pytest.approx(szego_base.gram[1, 0])

    def test_section_self_inner(self, szego_base):
        f = RkhsElement(base=szego_base, coeffs=np.eye(szego_base.size)[:, 0])
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
                RkhsElement(base=szego_base, coeffs=np.eye(szego_base.size)[:, 0]),
                RkhsElement(base=other, coeffs=np.eye(other.size)[:, 0]),
            )


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

    def test_overflowed_gram_has_an_infinite_relative_residual(self):
        # ||G||_2 overflows, so no eigenvalue is kept and no tolerance accepts
        # the residual.
        F = parseval_factorize(_table_kernel([[1e308, 1e308], [1e308, 1e308]]))
        assert F.n_atoms == 0
        assert relative_residual(verify_parseval(F), F.kernel) == np.inf

    def test_is_the_residual_where_the_norm_identity_is_larger(self):
        # Scaled down, ||f||^2 < 1 for unit probes, so a norm identity divided
        # by max(1, ||f||^2) exceeded the max-abs residual here.
        K = _table_kernel(1e-3 * np.array([[2.0, 1.0], [1.0, 2.0]]))
        F = _counting_factorization(K, 1.01 * parseval_factorize(K).features.T)
        xi = np.ones(2)
        deviation = abs(norm_squared(RkhsElement(base=K, coeffs=xi))
                        - np.sum(np.abs(np.conj(F.features).T @ xi) ** 2))
        assert deviation > F.residual
        assert verify_parseval(F) == F.residual

    def test_norm_identity_is_bounded_by_the_reconstruction_residual(self):
        rng = np.random.default_rng(11)
        for k in range(30):
            K = _random_psd(rng, int(rng.integers(1, 12)), complex_entries=bool(k % 2))
            F = parseval_factorize(K)
            if k % 3 == 0:  # a broken frame, so the residual is far above rounding
                F = _counting_factorization(K, 1.01 * F.features.T)
            assert verify_parseval(F) == F.residual
            n = K.size
            for _ in range(4):
                xi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                nrm2 = norm_squared(RkhsElement(base=K, coeffs=xi))
                deviation = abs(nrm2 - np.sum(np.abs(np.conj(F.features).T @ xi) ** 2))
                # |xi^* E xi| <= ||xi||^2 ||E||_2 <= ||xi||^2 n max|E_ij|
                bound = (n * F.residual + 1e-13 * _norm(K.spectrum[0])) * np.sum(np.abs(xi) ** 2)
                assert deviation <= bound


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
        f = RkhsElement(base=K, coeffs=np.eye(K.size)[:, 0])
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
            apply_W(F, RkhsElement(base=other, coeffs=np.eye(other.size)[:, 0]))

    def test_one_base_is_one_gram(self):
        # kb names each point by its row, so a kernel's Gram is all that
        # makes it a base: two kernels built apart from one Gram are one
        # base, and whether one was restricted from a larger kernel does not
        # count.
        gram = np.array([[2.0, 1.0], [1.0, 2.0]])
        a = FiniteKernel(gram=gram)
        b = FiniteKernel(gram=gram)
        section = np.array([1.0, 0.0])
        F = parseval_factorize(a)
        np.testing.assert_array_equal(apply_W(F, RkhsElement(base=b, coeffs=section)),
                                      apply_W(F, RkhsElement(base=a, coeffs=section)))
        with pytest.raises(BaseMismatch):
            apply_W(F, RkhsElement(base=FiniteKernel(gram=2.0 * gram), coeffs=section))
        larger = FiniteKernel([[2.0, 0.5, 1.0], [0.5, 3.0, 0.5], [1.0, 0.5, 2.0]])
        restricted = larger.restrict([2, 0])
        np.testing.assert_array_equal(restricted.gram, gram)
        np.testing.assert_array_equal(apply_W(F, RkhsElement(base=restricted, coeffs=section)),
                                      apply_W(F, RkhsElement(base=a, coeffs=section)))


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
