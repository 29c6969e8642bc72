import dataclasses

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
    ShapeMismatch,
    assemble_gram,
    check_positive_definite,
    polydisk_szego_eval,
)
from kboundary import kernels
from kboundary.clark import b_eval, build_kb_factorization, kb_eval

disk_points = st.complex_numbers(max_magnitude=0.85, allow_nan=False, allow_infinity=False)


class TestSzegoEval:
    def test_zero_left_argument_forces_one(self):
        for w in (0.0, 0.5, -0.3 + 0.4j, 0.9j):
            assert polydisk_szego_eval(0.0, w) == 1.0

    def test_half_half(self):
        assert polydisk_szego_eval(0.5, 0.5) == pytest.approx(4.0 / 3.0)

    def test_imaginary_half(self):
        assert polydisk_szego_eval(0.5j, 0.5j) == pytest.approx(4.0 / 3.0)

    def test_domain_guard(self):
        with pytest.raises(DomainViolation):
            polydisk_szego_eval(1.0, 0.0)
        with pytest.raises(DomainViolation):
            polydisk_szego_eval(0.2, 1.0 + 0.0j)

    @given(z=disk_points, w=disk_points)
    def test_hermitian_symmetry(self, z, w):
        assert polydisk_szego_eval(z, w) == pytest.approx(
            np.conj(polydisk_szego_eval(w, z))
        )


def test_one_coordinate_polydisk_szego_is_the_disk_closed_form_bit_for_bit():
    rng = np.random.default_rng(50)
    radius = 0.9 * np.sqrt(rng.uniform(size=(2, 50)))
    z, w = radius * np.exp(2j * np.pi * rng.uniform(size=(2, 50)))
    want = 1.0 / (1.0 - z[:, None] * np.conj(w)[None, :])
    got = polydisk_szego_eval(z[:, None, None], w[None, :, None])
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    for zi, wi in zip(z[:5], w[:5]):
        scalar = polydisk_szego_eval(zi, wi)
        closed_form = 1.0 / (1.0 - np.asarray(zi) * np.conj(wi))
        assert np.asarray(scalar).tobytes() == closed_form.tobytes()


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


TWO_ATOMS = CircleMeasure(atoms=[0.0, 0.5], weights=[0.5, 0.5])


class TestPoints:
    @pytest.mark.parametrize("coords, error, message", [
        (np.zeros((2, 2, 1)), ShapeMismatch,
         r"^coords must be \(n_points, k>=1\), got shape \(2, 2, 1\)$"),
        (np.zeros((2, 0)), ShapeMismatch, r"^coords must be \(n_points, k>=1\), got shape \(2, 0\)$"),
        (np.array([0.1, np.nan]), DomainViolation, "^point coordinates must be finite$"),
    ])
    @pytest.mark.parametrize("build", [
        lambda coords: assemble_gram(KernelSpec(), coords),
        lambda coords: build_kb_factorization(TWO_ATOMS, coords),
    ], ids=["assemble_gram", "build_kb_factorization"])
    def test_bad_coords_rejected(self, build, coords, error, message):
        with pytest.raises(error, match=message):
            build(coords)

    def test_the_kernel_reads_one_read_only_complex_row_per_point(self, monkeypatch):
        # A sequence of scalars is n points of one coordinate; the kernel
        # evaluates a read-only complex copy, never the caller's array.
        seen, evaluator = [], kernels._kernel_callable
        monkeypatch.setattr(kernels, "_kernel_callable",
                            lambda spec: lambda c: seen.append(c) or evaluator(spec)(c))
        given = np.array([(0.1, 0.2), (0.3, 0.4)])
        assemble_gram(KernelSpec(), [0.1, 0.2j])
        assemble_gram(KernelSpec(dim=2), given)
        build_kb_factorization(TWO_ATOMS, (0.1, 0.2j, -0.3))
        assert [c.shape for c in seen] == [(2, 1), (2, 2), (3, 1)]
        assert all(c.dtype == np.complex128 and not c.flags.writeable for c in seen)
        assert not np.shares_memory(seen[1], given)


class TestAssembleGram:
    def test_szego_two_points(self):
        K = assemble_gram(KernelSpec(), [0.0, 0.5])
        expected = np.array([[1.0, 1.0], [1.0, 4.0 / 3.0]])
        np.testing.assert_allclose(K.gram, expected, atol=1e-15)

    def test_szego_single_point(self):
        K = assemble_gram(KernelSpec(), [0.0])
        assert K.gram[0, 0] == 1.0

    def test_polydisk_single_point(self):
        K = assemble_gram(KernelSpec(dim=2), [(0.5, 0.5)])
        assert K.gram[0, 0] == pytest.approx(16.0 / 9.0)

    def test_hermitian_bit_for_bit(self):
        K = assemble_gram(KernelSpec(), [0.1 + 0.2j, -0.3j, 0.4, 0.2 - 0.6j])
        assert np.array_equal(K.gram, np.conj(K.gram).T)

    def test_domain_violation(self):
        with pytest.raises(DomainViolation):
            assemble_gram(KernelSpec(), [0.2, 1.0])

    def test_table_requires_hermitian(self):
        with pytest.raises(NotHermitian, match="^gram matrix is not Hermitian$"):
            FiniteKernel.from_table(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_table_field_tag(self):
        real = FiniteKernel.from_table(np.eye(2))
        assert real.field_tag == "real"
        cplx = FiniteKernel.from_table(np.array([[1.0, 1j], [-1j, 1.0]]))
        assert cplx.field_tag == "complex"

    def test_dimension_check(self):
        with pytest.raises(DimensionMismatch, match="^kernel expects 1-dim points, got 2$"):
            assemble_gram(KernelSpec(), [(0.1, 0.2)])
        with pytest.raises(DimensionMismatch, match="^kernel expects 2-dim points, got 1$"):
            assemble_gram(KernelSpec(dim=2), [0.1])


class TestKernelSpec:
    def test_parameters_name_the_kernel(self):
        assert [f.name for f in dataclasses.fields(KernelSpec)] == ["dim", "measure"]
        assert (KernelSpec().dim, KernelSpec().measure) == (1, None)
        assert not hasattr(KernelSpec, "from_table") and not hasattr(KernelSpec, "VARIANTS")

    def test_debranges_rovnyak_kernel_has_one_variable(self):
        mu = CircleMeasure(atoms=[0.0, 0.5], weights=[0.5, 0.5])
        with pytest.raises(ShapeMismatch):
            KernelSpec(dim=2, measure=mu)


class TestFromTable:
    def test_a_kernel_is_its_gram_and_field_tag(self):
        assert [f.name for f in dataclasses.fields(FiniteKernel)] == ["gram", "field_tag"]
        assert not any(hasattr(kernels, name) for name in ("PointSet", "Spectrum", "spectrum"))
        K = FiniteKernel.from_table([[2.0, 1j], [-1j, 2.0]])
        assert (K.size, K.field_tag) == (2, "complex")
        assert FiniteKernel.from_table(np.eye(3)).field_tag == "real"

    @pytest.mark.parametrize("build", [
        FiniteKernel.from_table, lambda table: FiniteKernel(gram=table),
    ], ids=["from_table", "constructor"])
    @pytest.mark.parametrize("table, shape", [
        (np.ones((2, 3)), r"2x2, got \(2, 3\)"),
        (np.ones(2), r"2x2, got \(2,\)"),
        (np.array(1.0), r"0x0, got \(\)"),
        (np.ones((2, 2, 2)), r"2x2, got \(2, 2, 2\)"),
    ], ids=["non-square", "1-d", "0-d", "3-d"])
    def test_a_table_that_is_not_square_is_a_shape_mismatch(self, build, table, shape):
        with pytest.raises(ShapeMismatch, match=f"^gram must be {shape}$"):
            build(table)

    def test_a_non_finite_gram_of_the_wrong_shape_is_a_domain_violation(self):
        with pytest.raises(DomainViolation, match="^gram entries must be finite$"):
            FiniteKernel(gram=[[1.0, np.inf, 0.0], [0.0, 1.0, 0.0]])


class TestCheckPositiveDefinite:
    def test_szego_worked_gram(self):
        K = assemble_gram(KernelSpec(), [0.0, 0.5])
        report = check_positive_definite(K)
        assert report.is_psd
        assert report.min_eigenvalue > 0

    def test_identity(self):
        K = FiniteKernel(gram=np.eye(2))
        report = check_positive_definite(K)
        assert report.is_psd
        assert report.min_eigenvalue == pytest.approx(1.0)

    def test_indefinite(self):
        K = FiniteKernel(gram=np.array([[1.0, 2.0], [2.0, 1.0]]))
        report = check_positive_definite(K)
        assert not report.is_psd
        assert report.min_eigenvalue == pytest.approx(-1.0)
        assert report.max_eigenvalue == pytest.approx(3.0)

    def test_non_hermitian_rejected_at_construction(self):
        with pytest.raises(NotHermitian):
            FiniteKernel(gram=np.array([[1.0, 2.0], [0.0, 1.0]]))


@settings(max_examples=40, deadline=None)
@given(
    zs=st.lists(disk_points, min_size=1, max_size=20, unique=True),
)
def test_szego_grams_are_psd(zs):
    K = assemble_gram(KernelSpec(), zs)
    assert check_positive_definite(K).is_psd


@settings(max_examples=25, deadline=None)
@given(
    zs=st.lists(
        st.tuples(disk_points, disk_points), min_size=1, max_size=10, unique=True
    ),
)
def test_polydisk_grams_are_psd(zs):
    K = assemble_gram(KernelSpec(dim=2), zs)
    assert check_positive_definite(K).is_psd


def test_principal_submatrices_stay_psd():
    rng = np.random.default_rng(11)
    zs = 0.8 * np.sqrt(rng.uniform(size=12)) * np.exp(2j * np.pi * rng.uniform(size=12))
    K = assemble_gram(KernelSpec(), zs)
    for _ in range(20):
        size = rng.integers(1, 12)
        subset = rng.choice(12, size=size, replace=False)
        assert check_positive_definite(K.restrict(subset)).is_psd


def test_debranges_rovnyak_variant_matches_clark_closed_form():
    from kboundary import CircleMeasure

    mu = CircleMeasure(atoms=[0.0, 0.5], weights=[0.5, 0.5])
    zs = np.array([0.2, 0.3j, -0.1 + 0.4j])
    K = assemble_gram(KernelSpec(measure=mu), zs)
    expected = 1.0 + zs[:, None] * np.conj(zs)[None, :]
    np.testing.assert_allclose(K.gram, expected, atol=1e-13)


DBR_MEASURE = CircleMeasure(atoms=[0.05, 0.3, 0.71], weights=[0.2, 0.5, 0.3])


@pytest.mark.parametrize("n", [1, 2, 17])
@pytest.mark.parametrize(
    "spec, dim, scalar",
    [
        (KernelSpec(), 1, lambda z, w: polydisk_szego_eval(z[0], w[0])),
        (KernelSpec(dim=2), 2, polydisk_szego_eval),
        (KernelSpec(dim=3), 3, polydisk_szego_eval),
        (
            KernelSpec(measure=DBR_MEASURE),
            1,
            lambda z, w: kb_eval(DBR_MEASURE, z[0], w[0]),
        ),
    ],
    ids=["szego", "polydisk-2", "polydisk-3", "debranges-rovnyak"],
)
def test_array_assembly_matches_scalar_evaluators(spec, dim, scalar, n):
    rng = np.random.default_rng(n)
    radius = 0.9 * np.sqrt(rng.uniform(size=(n, dim)))
    coords = radius * np.exp(2j * np.pi * rng.uniform(size=(n, dim)))
    K = assemble_gram(spec, coords)
    expected = np.array([[scalar(z, w) for w in coords] for z in coords])
    np.testing.assert_allclose(K.gram, expected, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize(
    "spec, coords",
    [
        (KernelSpec(dim=2), [(0.1, 0.2j), (0.3, np.exp(2.1j))]),
        (KernelSpec(measure=DBR_MEASURE), [np.exp(-0.4j), 0.2]),
    ],
    ids=["polydisk-2", "debranges-rovnyak"],
)
def test_array_assembly_rejects_a_point_on_the_circle(spec, coords):
    with pytest.raises(DomainViolation):
        assemble_gram(spec, coords)


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
        lambda: polydisk_szego_eval(np.nan, 0.2),
        lambda: polydisk_szego_eval(0.2, complex(0.1, np.nan)),
        lambda: polydisk_szego_eval([0.1, np.nan], [0.2, 0.3]),
        lambda: b_eval(DBR_MEASURE, complex(np.nan, 0.0)),
    ],
    ids=["szego-z", "szego-w", "polydisk", "b-eval"],
)
def test_nan_point_is_a_domain_violation(evaluate):
    with pytest.raises(DomainViolation):
        evaluate()
