import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kboundary import (
    CircleMeasure,
    DimensionMismatch,
    DomainViolation,
    FiniteKernel,
    KernelSpec,
    NotHermitian,
    PointSet,
    ShapeMismatch,
    assemble_gram,
    check_positive_definite,
    polydisk_szego_eval,
    szego_eval,
)
from kboundary.clark import b_eval, kb_eval

disk_points = st.complex_numbers(max_magnitude=0.85, allow_nan=False, allow_infinity=False)


class TestSzegoEval:
    def test_zero_left_argument_forces_one(self):
        for w in (0.0, 0.5, -0.3 + 0.4j, 0.9j):
            assert szego_eval(0.0, w) == 1.0

    def test_half_half(self):
        assert szego_eval(0.5, 0.5) == pytest.approx(4.0 / 3.0)

    def test_imaginary_half(self):
        assert szego_eval(0.5j, 0.5j) == pytest.approx(4.0 / 3.0)

    def test_domain_guard(self):
        with pytest.raises(DomainViolation):
            szego_eval(1.0, 0.0)
        with pytest.raises(DomainViolation):
            szego_eval(0.2, 1.0 + 0.0j)

    @given(z=disk_points, w=disk_points)
    def test_hermitian_symmetry(self, z, w):
        assert szego_eval(z, w) == pytest.approx(np.conj(szego_eval(w, z)))


class TestPolydiskSzego:
    def test_zero_vector(self):
        assert polydisk_szego_eval([0, 0], [0.3, -0.2j]) == 1.0

    def test_product_of_halves(self):
        assert polydisk_szego_eval([0.5, 0.5], [0.5, 0.5]) == pytest.approx(16.0 / 9.0)

    def test_degenerate_second_factor(self):
        assert polydisk_szego_eval([0.5, 0.0], [0.5, 0.0]) == pytest.approx(4.0 / 3.0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            polydisk_szego_eval([0.1, 0.2], [0.1])

    def test_domain_guard(self):
        with pytest.raises(DomainViolation):
            polydisk_szego_eval([0.5, 1.0], [0.0, 0.0])


class TestPointSet:
    def test_duplicate_labels_rejected(self):
        with pytest.raises(ShapeMismatch):
            PointSet(labels=("a", "a"), coords=np.array([0.1, 0.2]))

    def test_from_points_generates_labels(self):
        ps = PointSet.from_points([0.1, 0.2j])
        assert ps.labels == ("p0", "p1")
        assert ps.dim == 1

    def test_restrict(self):
        ps = PointSet.from_points([0.1, 0.2, 0.3])
        sub = ps.restrict([2, 0])
        assert sub.labels == ("p2", "p0")
        assert sub.coords[0, 0] == 0.3


class TestAssembleGram:
    def test_szego_two_points(self):
        K = assemble_gram(KernelSpec.szego(), PointSet.from_points([0.0, 0.5]))
        expected = np.array([[1.0, 1.0], [1.0, 4.0 / 3.0]])
        np.testing.assert_allclose(K.gram, expected, atol=1e-15)

    def test_szego_single_point(self):
        K = assemble_gram(KernelSpec.szego(), PointSet.from_points([0.0]))
        assert K.gram[0, 0] == 1.0

    def test_polydisk_single_point(self):
        ps = PointSet.from_points([(0.5, 0.5)])
        K = assemble_gram(KernelSpec.polydisk(2), ps)
        assert K.gram[0, 0] == pytest.approx(16.0 / 9.0)

    def test_hermitian_bit_for_bit(self):
        ps = PointSet.from_points([0.1 + 0.2j, -0.3j, 0.4, 0.2 - 0.6j])
        K = assemble_gram(KernelSpec.szego(), ps)
        assert np.array_equal(K.gram, np.conj(K.gram).T)

    def test_domain_violation(self):
        with pytest.raises(DomainViolation):
            assemble_gram(KernelSpec.szego(), PointSet.from_points([0.2, 1.0]))

    def test_table_size_mismatch(self):
        spec = KernelSpec.from_table(np.eye(3))
        with pytest.raises(ShapeMismatch):
            assemble_gram(spec, PointSet.from_points([0.0, 0.1]))

    def test_table_requires_hermitian(self):
        with pytest.raises(NotHermitian):
            KernelSpec.from_table(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_table_field_tag(self):
        ps = PointSet.from_points([0.0, 1.0])
        real = assemble_gram(KernelSpec.from_table(np.eye(2)), ps)
        assert real.field_tag == "real"
        cplx = assemble_gram(
            KernelSpec.from_table(np.array([[1.0, 1j], [-1j, 1.0]])), ps
        )
        assert cplx.field_tag == "complex"

    def test_dimension_check(self):
        ps = PointSet.from_points([(0.1, 0.2)])
        with pytest.raises(DimensionMismatch):
            assemble_gram(KernelSpec.szego(), ps)


class TestCheckPositiveDefinite:
    def test_szego_worked_gram(self):
        K = assemble_gram(KernelSpec.szego(), PointSet.from_points([0.0, 0.5]))
        report = check_positive_definite(K, tol=1e-10)
        assert report.is_psd
        assert report.min_eigenvalue > 0

    def test_identity(self):
        K = FiniteKernel(points=PointSet.from_points([0.0, 1.0]), gram=np.eye(2))
        report = check_positive_definite(K)
        assert report.is_psd
        assert report.min_eigenvalue == pytest.approx(1.0)

    def test_indefinite(self):
        K = FiniteKernel(
            points=PointSet.from_points([0.0, 1.0]),
            gram=np.array([[1.0, 2.0], [2.0, 1.0]]),
        )
        report = check_positive_definite(K)
        assert not report.is_psd
        assert report.min_eigenvalue == pytest.approx(-1.0)
        assert report.max_eigenvalue == pytest.approx(3.0)

    def test_non_hermitian_rejected_at_construction(self):
        with pytest.raises(NotHermitian):
            FiniteKernel(
                points=PointSet.from_points([0.0, 1.0]),
                gram=np.array([[1.0, 2.0], [0.0, 1.0]]),
            )


@settings(max_examples=40, deadline=None)
@given(
    zs=st.lists(disk_points, min_size=1, max_size=20, unique=True),
)
def test_szego_grams_are_psd(zs):
    K = assemble_gram(KernelSpec.szego(), PointSet.from_points(zs))
    assert check_positive_definite(K, tol=1e-10).is_psd


@settings(max_examples=25, deadline=None)
@given(
    zs=st.lists(
        st.tuples(disk_points, disk_points), min_size=1, max_size=10, unique=True
    ),
)
def test_polydisk_grams_are_psd(zs):
    K = assemble_gram(KernelSpec.polydisk(2), PointSet.from_points(zs))
    assert check_positive_definite(K, tol=1e-10).is_psd


def test_principal_submatrices_stay_psd():
    rng = np.random.default_rng(11)
    zs = 0.8 * np.sqrt(rng.uniform(size=12)) * np.exp(2j * np.pi * rng.uniform(size=12))
    K = assemble_gram(KernelSpec.szego(), PointSet.from_points(zs))
    for _ in range(20):
        size = rng.integers(1, 12)
        subset = rng.choice(12, size=size, replace=False)
        assert check_positive_definite(K.restrict(subset), tol=1e-10).is_psd


def test_debranges_rovnyak_variant_matches_clark_closed_form():
    from kboundary import CircleMeasure

    mu = CircleMeasure(atoms=[0.0, 0.5], weights=[0.5, 0.5])
    ps = PointSet.from_points([0.2, 0.3j, -0.1 + 0.4j])
    K = assemble_gram(KernelSpec.debranges_rovnyak(mu), ps)
    zs = ps.coords[:, 0]
    expected = 1.0 + zs[:, None] * np.conj(zs)[None, :]
    np.testing.assert_allclose(K.gram, expected, atol=1e-13)


DBR_MEASURE = CircleMeasure(atoms=[0.05, 0.3, 0.71], weights=[0.2, 0.5, 0.3])


@pytest.mark.parametrize("n", [1, 2, 17])
@pytest.mark.parametrize(
    "spec, dim, scalar",
    [
        (KernelSpec.szego(), 1, lambda z, w: szego_eval(z[0], w[0])),
        (KernelSpec.polydisk(2), 2, polydisk_szego_eval),
        (KernelSpec.polydisk(3), 3, polydisk_szego_eval),
        (
            KernelSpec.debranges_rovnyak(DBR_MEASURE),
            1,
            lambda z, w: kb_eval(DBR_MEASURE, z[0], w[0]),
        ),
    ],
    ids=["szego", "polydisk-2", "polydisk-3", "debranges-rovnyak"],
)
def test_array_assembly_matches_scalar_evaluators(spec, dim, scalar, n):
    rng = np.random.default_rng(n)
    radius = 0.9 * np.sqrt(rng.uniform(size=(n, dim)))
    ps = PointSet.from_points(radius * np.exp(2j * np.pi * rng.uniform(size=(n, dim))))
    K = assemble_gram(spec, ps)
    expected = np.array([[scalar(z, w) for w in ps.coords] for z in ps.coords])
    np.testing.assert_allclose(K.gram, expected, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize(
    "spec, coords",
    [
        (KernelSpec.polydisk(2), [(0.1, 0.2j), (0.3, np.exp(2.1j))]),
        (KernelSpec.debranges_rovnyak(DBR_MEASURE), [np.exp(-0.4j), 0.2]),
    ],
    ids=["polydisk-2", "debranges-rovnyak"],
)
def test_array_assembly_rejects_a_point_on_the_circle(spec, coords):
    with pytest.raises(DomainViolation):
        assemble_gram(spec, PointSet.from_points(coords))


def _mirror_by_index_assignment(g):
    # Reference formula: assign the conjugated upper triangle through
    # triu_indices and take the real part on diag_indices.
    out = np.array(g, dtype=complex)
    n = out.shape[0]
    iu = np.triu_indices(n, k=1)
    out[(iu[1], iu[0])] = np.conj(out[iu])
    di = np.diag_indices(n)
    out[di] = out[di].real
    return out


@pytest.mark.parametrize("n", [0, 1, 2, 17])
def test_hermitian_mirror_is_bit_identical_to_index_assignment(n):
    from kboundary.kernels import _hermitian_mirror

    rng = np.random.default_rng(n)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    # Signed zeros in every part and triangle, including the diagonal.
    zeros = rng.random((n, n)) < 0.3
    g[zeros] = complex(-0.0, -0.0)
    g[rng.random((n, n)) < 0.2] = complex(0.0, -0.0)
    if n:
        g[0, 0] = complex(-0.0, -0.0)
    got = _hermitian_mirror(g)
    want = _mirror_by_index_assignment(g)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "evaluate",
    [
        lambda: szego_eval(np.nan, 0.2),
        lambda: szego_eval(0.2, complex(0.1, np.nan)),
        lambda: polydisk_szego_eval([0.1, np.nan], [0.2, 0.3]),
        lambda: b_eval(DBR_MEASURE, complex(np.nan, 0.0)),
    ],
    ids=["szego-z", "szego-w", "polydisk", "b-eval"],
)
def test_nan_point_is_a_domain_violation(evaluate):
    with pytest.raises(DomainViolation):
        evaluate()
