from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kboundary import (
    BAtOne,
    BoundaryFactorization,
    CircleMeasure,
    DiscreteMeasure,
    DomainViolation,
    FiniteKernel,
    InvalidMeasure,
    PointSet,
    ZeroExpectation,
    apply_V,
    b_eval,
    build_kb_factorization,
    build_szego_factorization,
    cauchy_transform,
    expectation_vector,
    herglotz_poisson_check,
    inner_modulus_check,
    kb_eval,
    kb_feature,
    minimality_test,
    parseval_factorize,
    polydisk_density_test,
    polydisk_szego_eval,
    renormalize,
    szego_eval,
    verify_factorization,
)
from kboundary.factorization import FACTORIZATION_TOL
from kboundary.kernels import _hermitian_mirror, relative_residual
from kboundary.selfcheck import (
    _random_feature_factorization,
    random_circle_measure,
    random_interior,
)

POINT_MASS = CircleMeasure(atoms=[0.0], weights=[1.0])
TWO_ATOMS = CircleMeasure(atoms=[0.0, 0.5], weights=[0.5, 0.5])

interior = st.complex_numbers(max_magnitude=0.85, allow_nan=False, allow_infinity=False)


class TestCauchyTransform:
    def test_value_at_origin_is_total_mass(self):
        for mu in (POINT_MASS, TWO_ATOMS):
            assert cauchy_transform(mu, 0.0) == pytest.approx(1.0)

    @given(z=interior)
    def test_point_mass(self, z):
        assert cauchy_transform(POINT_MASS, z) == pytest.approx(1.0 / (1.0 - z))

    @given(z=interior)
    def test_two_symmetric_atoms(self, z):
        assert cauchy_transform(TWO_ATOMS, z) == pytest.approx(1.0 / (1.0 - z * z))

    def test_domain_guard(self):
        with pytest.raises(DomainViolation):
            cauchy_transform(POINT_MASS, 1.0)


class TestInnerFunction:
    def test_vanishes_at_origin(self):
        for mu in (POINT_MASS, TWO_ATOMS):
            assert b_eval(mu, 0.0) == pytest.approx(0.0)

    @given(z=interior)
    def test_point_mass_gives_identity(self, z):
        assert b_eval(POINT_MASS, z) == pytest.approx(z)

    @given(z=interior)
    def test_two_atoms_give_square(self, z):
        assert b_eval(TWO_ATOMS, z) == pytest.approx(z * z)

    @given(z=interior)
    def test_strictly_contractive(self, z):
        rng_measure = CircleMeasure(atoms=[0.1, 0.4, 0.75], weights=[0.2, 0.5, 0.3])
        assert abs(b_eval(rng_measure, z)) < 1.0

    def test_modulus_grows_with_radius(self):
        # trend toward unimodular boundary values at a non-atom angle
        mu = CircleMeasure(atoms=[0.15, 0.6, 0.9], weights=[0.5, 0.2, 0.3])
        theta = 0.33
        radii = np.linspace(0.9, 1.0 - 1e-6, 25)
        mods = [abs(b_eval(mu, r * np.exp(2j * np.pi * theta))) for r in radii]
        assert all(m2 >= m1 - 1e-12 for m1, m2 in zip(mods, mods[1:]))


class TestInnerModulus:
    def test_point_mass_deviation_is_one_minus_r(self):
        for r in (0.5, 0.9, 1.0 - 1e-6):
            assert inner_modulus_check(POINT_MASS, [0.2, 0.4, 0.8], r) == pytest.approx(
                1.0 - r, abs=1e-12
            )

    def test_two_atom_deviation_is_one_minus_r_squared(self):
        r = 1.0 - 1e-6
        dev = inner_modulus_check(TWO_ATOMS, [0.2, 0.31, 0.77], r)
        assert dev <= 3e-6
        assert dev == pytest.approx(1.0 - r**2, abs=1e-12)

    def test_small_radius_deviation_near_one(self):
        assert inner_modulus_check(POINT_MASS, [0.3], 0.01) == pytest.approx(0.99, abs=1e-12)

    def test_atom_margin_enforced(self):
        with pytest.raises(DomainViolation):
            inner_modulus_check(POINT_MASS, [5e-4], 0.9)


class TestKbKernel:
    @given(z=interior, w=interior)
    def test_point_mass_kernel_is_one(self, z, w):
        assert kb_eval(POINT_MASS, z, w) == pytest.approx(1.0)

    @given(z=interior, w=interior)
    def test_two_atom_kernel(self, z, w):
        expected = 1.0 + z * np.conj(w)
        assert kb_eval(TWO_ATOMS, z, w) == pytest.approx(expected)

    def test_origin(self):
        assert kb_eval(TWO_ATOMS, 0.0, 0.0) == pytest.approx(1.0)


class TestKbFeature:
    def test_point_mass_feature_is_constant_one(self):
        for z in (0.3, -0.2 + 0.4j):
            assert kb_feature(POINT_MASS, z) == pytest.approx([1.0])

    def test_two_atom_features(self):
        z = 0.3 - 0.2j
        assert kb_feature(TWO_ATOMS, z) == pytest.approx([1.0 + z, 1.0 - z])

    def test_mass_check_at_origin(self):
        values = kb_feature(TWO_ATOMS, 0.0)
        np.testing.assert_allclose(values, 1.0, atol=1e-14)
        mass = float(np.sum(np.abs(values) ** 2 * TWO_ATOMS.weights))
        assert mass == pytest.approx(kb_eval(TWO_ATOMS, 0.0, 0.0).real)

    def test_atom_axis_is_last_and_in_atom_order(self):
        mu = CircleMeasure(atoms=[0.7, 0.05, 0.4], weights=[0.2, 0.5, 0.3])
        zs = np.array([[0.1, -0.3j], [0.5 + 0.2j, 0.0]])
        features = kb_feature(mu, zs)
        assert features.shape == (2, 2, 3)
        for j, e in enumerate(mu.boundary_points()):
            expected = (1.0 - b_eval(mu, zs)) / (1.0 - zs * np.conj(e))
            np.testing.assert_allclose(features[..., j], expected, rtol=1e-15, atol=0.0)


class TestBuildKbFactorization:
    def test_point_mass_all_ones(self):
        F = build_kb_factorization(POINT_MASS, [0.3, -0.4])
        np.testing.assert_allclose(F.kernel.gram, np.ones((2, 2)), atol=1e-14)
        np.testing.assert_allclose(F.features, np.ones((2, 1)), atol=1e-14)
        assert verify_factorization(F) <= 1e-14
        assert minimality_test(F)["is_minimal"]

    def test_two_atoms_two_points(self):
        zs = np.array([0.2, 0.5j])
        F = build_kb_factorization(TWO_ATOMS, zs)
        expected = 1.0 + zs[:, None] * np.conj(zs)[None, :]
        np.testing.assert_allclose(F.kernel.gram, expected, atol=1e-14)
        assert verify_factorization(F) <= 1e-12
        assert minimality_test(F)["feature_rank"] == 2

    def test_single_point_two_atoms_not_minimal(self):
        F = build_kb_factorization(TWO_ATOMS, [0.2])
        assert not minimality_test(F)["is_minimal"]

    @pytest.mark.parametrize("atoms", [[0.0, 1e-16], [0.3, 0.3 + 5e-16]])
    def test_atoms_closer_than_1e_15_factorize(self, atoms):
        # Distinct atoms this close are a valid measure: each feature column
        # belongs to the atom at its position, whatever the atoms' spacing.
        mu = CircleMeasure(atoms=atoms, weights=[0.5, 0.5])
        F = build_kb_factorization(mu, [0.2, -0.3j, 0.5 + 0.1j])
        assert relative_residual(verify_factorization(F), F.kernel) <= FACTORIZATION_TOL

    def test_random_measures_factorize_exactly(self):
        rng = np.random.default_rng(61)
        for _ in range(15):
            m = int(rng.integers(1, 6))
            atoms = np.sort(rng.uniform(size=m))
            if m > 1 and np.diff(atoms).min() < 0.05:
                continue
            w = rng.uniform(0.5, 1.5, size=m)
            mu = CircleMeasure(atoms=atoms, weights=w / w.sum())
            zs = 0.8 * np.sqrt(rng.uniform(size=m + 2)) * np.exp(
                2j * np.pi * rng.uniform(size=m + 2)
            )
            F = build_kb_factorization(mu, zs)
            assert verify_factorization(F) <= 1e-10
            assert minimality_test(F)["feature_rank"] == m


class TestHerglotzPoisson:
    def test_origin(self):
        res = herglotz_poisson_check(TWO_ATOMS, 0.0)
        assert res["lhs"] == pytest.approx(1.0)
        assert res["rhs"] == pytest.approx(1.0)

    def test_point_mass_at_half(self):
        res = herglotz_poisson_check(POINT_MASS, 0.5)
        assert res["lhs"] == pytest.approx(3.0)
        assert res["rhs"] == pytest.approx(3.0)

    @given(z=interior)
    def test_identity_random_points(self, z):
        res = herglotz_poisson_check(TWO_ATOMS, z)
        assert res["abs_error"] <= 1e-12

    def test_b_at_one_guard(self):
        # b -> 1 radially at an atom; close enough trips the guard while
        # still clearing the interior domain bound.
        with pytest.raises(BAtOne):
            herglotz_poisson_check(POINT_MASS, 1.0 - 5e-15)


class TestExpectationAndRenormalization:
    def test_two_atom_clark_expectations_are_one(self):
        zs = np.array([0.2, 0.4j, -0.3])
        F = build_kb_factorization(TWO_ATOMS, zs)
        np.testing.assert_allclose(expectation_vector(F), 1.0, atol=1e-14)
        kren = renormalize(F).kren_factorization
        np.testing.assert_allclose(kren.kernel.gram, F.kernel.gram, atol=1e-14)

    def test_szego_features_give_cauchy_transform(self):
        mu = POINT_MASS
        zs = np.array([0.25, -0.4 + 0.1j])
        F = build_szego_factorization(mu, zs)
        E = expectation_vector(F)
        for z, e in zip(zs, E):
            assert e == pytest.approx(cauchy_transform(mu, z))
            assert 1.0 / e == pytest.approx(1.0 - b_eval(mu, z))

    def test_zero_features_zero_expectations(self):
        meas = DiscreteMeasure(atoms=("0", "1"), weights=[0.5, 0.5])
        K = FiniteKernel(
            points=PointSet.from_points([0.0, 1.0]), gram=np.zeros((2, 2))
        )
        F = BoundaryFactorization(
            kernel=K, measure=meas, features=np.zeros((2, 2))
        )
        np.testing.assert_allclose(expectation_vector(F), 0.0)

    def test_worked_example(self):
        meas = DiscreteMeasure(atoms=("0", "1"), weights=[0.75, 0.25])
        phi = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex)
        gram = np.array([[1.0, 0.5], [0.5, 1.0]], dtype=complex)
        F = BoundaryFactorization(
            kernel=FiniteKernel(points=PointSet.from_points([0.0, 1.0]), gram=gram),
            measure=meas,
            features=phi,
        )
        ctx = renormalize(F)
        kren = ctx.kren_factorization
        np.testing.assert_allclose(ctx.expectations, [1.0, 0.5], atol=1e-15)
        np.testing.assert_allclose(kren.kernel.gram, [[1.0, 1.0], [1.0, 4.0]], atol=1e-15)
        np.testing.assert_allclose(kren.features[1], [2.0, -2.0], atol=1e-15)
        assert verify_factorization(kren) <= 1e-12

    def test_zero_expectation_fails_fast(self):
        meas = DiscreteMeasure(atoms=("0", "1"), weights=[0.5, 0.5])
        phi = np.array([[1.0, -1.0]], dtype=complex)
        gram = np.array([[1.0]], dtype=complex)
        F = BoundaryFactorization(
            kernel=FiniteKernel(points=PointSet.from_points([0.0]), gram=gram),
            measure=meas,
            features=phi,
        )
        with pytest.raises(ZeroExpectation):
            renormalize(F)

    def test_renormalized_kernel_is_the_mirrored_quotient_bit_for_bit(self):
        # FiniteKernel mirrors the quotient itself; renormalize adds nothing.
        rng = np.random.default_rng(83)
        corpus = [_random_feature_factorization(rng, mean_shift=2.0) for _ in range(60)]
        corpus += [build_szego_factorization(random_circle_measure(rng), random_interior(rng, 5))
                   for _ in range(20)]
        for F in corpus:
            E = expectation_vector(F)
            kren = renormalize(F).kren_factorization
            reference = _hermitian_mirror(F.kernel.gram / np.outer(E, np.conj(E)))
            assert kren.kernel.gram.tobytes() == reference.tobytes()
            assert kren.features.tobytes() == (F.features / E[:, None]).tobytes()

    def test_near_floor_expectations_keep_relative_accuracy(self):
        meas = DiscreteMeasure(atoms=("0", "1"), weights=[0.5, 0.5])
        eps = 1e-3
        phi = np.array([[1.0 + eps, eps - 1.0]], dtype=complex)
        gram = np.array([[0.5 * abs(1 + eps) ** 2 + 0.5 * abs(eps - 1) ** 2]], dtype=complex)
        F = BoundaryFactorization(
            kernel=FiniteKernel(points=PointSet.from_points([0.0]), gram=gram),
            measure=meas,
            features=phi,
        )
        kren = renormalize(F).kren_factorization
        residual = verify_factorization(kren)
        scale = float(np.abs(kren.kernel.gram).max())
        assert residual <= 1e-9 * scale


class TestNormalizedTransform:
    """V_mu is the plain transform V of the renormalized factorization."""

    def test_feature_row_reproduces_kren_gram_row(self):
        rng = np.random.default_rng(67)
        meas = DiscreteMeasure(atoms=("0", "1", "2"), weights=[0.5, 0.25, 0.25])
        phi = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3)) + 1.5
        gram = (phi * meas.weights[None, :]) @ np.conj(phi).T
        gram = (gram + np.conj(gram).T) / 2.0
        F = BoundaryFactorization(
            kernel=FiniteKernel(points=PointSet.from_points([0.0, 1.0]), gram=gram),
            measure=meas,
            features=phi,
        )
        ctx = renormalize(F)
        kren = ctx.kren_factorization
        for t in range(2):
            g = kren.features[t]
            out = apply_V(ctx.kren_factorization, g)
            np.testing.assert_allclose(out, kren.kernel.gram[t, :], atol=1e-12)
            # (V_mu g)(s_i) = (1/conj(E_i)) sum_x g(x) conj(features[i, x]) mu(x)
            by_formula = (np.conj(phi) * meas.weights) @ g / np.conj(ctx.expectations)
            np.testing.assert_allclose(out, by_formula, atol=1e-12)

    def test_zero_input(self):
        F = build_kb_factorization(TWO_ATOMS, [0.2, 0.3])
        ctx = renormalize(F)
        np.testing.assert_allclose(apply_V(ctx.kren_factorization, [0.0, 0.0]), 0.0)

    def test_mu_orthogonal_input_is_annihilated(self):
        rng = np.random.default_rng(71)
        meas = DiscreteMeasure(atoms=("0", "1", "2"), weights=[0.4, 0.3, 0.3])
        phi = rng.standard_normal((1, 3)) + 1.0
        gram = (phi * meas.weights[None, :]) @ np.conj(phi).T
        F = BoundaryFactorization(
            kernel=FiniteKernel(points=PointSet.from_points([0.0]), gram=gram),
            measure=meas,
            features=phi,
        )
        ctx = renormalize(F)
        weighted = np.conj(phi) * meas.weights[None, :]
        _, _, vh = np.linalg.svd(weighted)
        g = np.conj(vh[-1])
        np.testing.assert_allclose(apply_V(ctx.kren_factorization, g), 0.0, atol=1e-12)


class TestDensityCriterion:
    """The density criterion is the feature-rank test, minimality_test."""

    def test_two_atom_clark_is_dense(self):
        F = build_kb_factorization(TWO_ATOMS, [0.2, -0.3j])
        res = minimality_test(F)
        assert res == {"is_minimal": True, "feature_rank": 2}

    def test_single_row_two_atoms(self):
        F = build_kb_factorization(TWO_ATOMS, [0.2])
        res = minimality_test(F)
        assert F.n_atoms - res["feature_rank"] == 1

    def test_counting_parseval_is_dense(self):
        rng = np.random.default_rng(73)
        A = rng.standard_normal((4, 3))
        K = FiniteKernel(
            points=PointSet.from_points(np.arange(4, dtype=complex)), gram=A @ A.T
        )
        F = parseval_factorize(K)
        assert minimality_test(F)["is_minimal"]

    def test_renorm_context_accepted(self):
        F = build_kb_factorization(TWO_ATOMS, [0.2, -0.3j])
        assert minimality_test(renormalize(F).kren_factorization)["is_minimal"]


class TestPolydiskDensity:
    def test_single_atom(self):
        mu = CircleMeasure(atoms=[0.3], weights=[1.0])
        res = polydisk_density_test(mu, max_degree=0)
        assert res == {"rank_sequence": [1], "saturated": True}

    def test_vandermonde_saturation_at_m_minus_one(self):
        mu = CircleMeasure(atoms=[0.1, 0.35, 0.6, 0.85], weights=[0.25] * 4)
        res = polydisk_density_test(mu)
        assert res["saturated"]
        assert len(res["rank_sequence"]) - 1 == 3
        assert res["rank_sequence"] == [1, 2, 3, 4]

    def test_coincident_atoms_rejected(self):
        with pytest.raises(InvalidMeasure):
            CircleMeasure(atoms=[0.2, 0.2], weights=[0.5, 0.5])
        with pytest.raises(InvalidMeasure):
            DiscreteMeasure(
                atoms=("0", "1"),
                weights=[0.5, 0.5],
                coords=np.array([[0.1, 0.2], [0.1, 0.2]]),
            )

    def test_two_torus(self):
        rng = np.random.default_rng(79)
        coords = rng.uniform(size=(5, 2))
        meas = DiscreteMeasure(
            atoms=tuple(range(5)), weights=np.full(5, 0.2), coords=coords
        )
        res = polydisk_density_test(meas, max_degree=5)
        assert res["saturated"]

    def test_needs_coordinates(self):
        meas = DiscreteMeasure(atoms=("a",), weights=[1.0])
        with pytest.raises(InvalidMeasure):
            polydisk_density_test(meas)


@settings(max_examples=30, deadline=None)
@given(z=interior)
def test_kb_factorization_identity_is_algebraic(z):
    # one fixed three-atom measure, identity checked at a hypothesis-driven point
    mu = CircleMeasure(atoms=[0.12, 0.45, 0.8], weights=[0.3, 0.45, 0.25])
    e = mu.boundary_points()
    feature = (1.0 - b_eval(mu, z)) / (1.0 - z * np.conj(e))
    total = float(np.sum(np.abs(feature) ** 2 * mu.weights).real)
    assert total == pytest.approx(kb_eval(mu, z, z).real, abs=1e-10)


def _disk(rng, shape):
    return 0.9 * np.sqrt(rng.uniform(size=shape)) * np.exp(2j * np.pi * rng.uniform(size=shape))


THREE_ATOMS = CircleMeasure(atoms=[0.05, 0.3, 0.71], weights=[0.2, 0.5, 0.3])
_RNG = np.random.default_rng(3)
Z, W = _disk(_RNG, (4, 1)), _disk(_RNG, (1, 3))
Z3, W3 = _disk(_RNG, (4, 1, 3)), _disk(_RNG, (1, 3, 3))


def _kb_feature_per_atom(z):
    """kb_feature of THREE_ATOMS with its atom axis unpacked, one value per atom."""
    features = kb_feature(THREE_ATOMS, z)
    return {j: features[..., j][()] for j in range(THREE_ATOMS.size)}


@pytest.mark.parametrize(
    # core: trailing axes that one call consumes (the polydisk coordinate axis)
    "evaluator, args, core",
    [
        (szego_eval, (Z, W), 0),
        (polydisk_szego_eval, (Z3, W3), 1),
        (partial(cauchy_transform, THREE_ATOMS), (Z,), 0),
        (partial(b_eval, THREE_ATOMS), (Z,), 0),
        (partial(kb_eval, THREE_ATOMS), (Z, W), 0),
        (_kb_feature_per_atom, (Z,), 0),
        (partial(herglotz_poisson_check, THREE_ATOMS), (Z,), 0),
    ],
    ids=["szego", "polydisk-szego", "cauchy", "b", "kb", "kb-feature", "herglotz"],
)
def test_evaluators_broadcast_like_their_pointwise_calls(evaluator, args, core):
    def values(out):
        return list(out.values()) if isinstance(out, dict) else [out]

    arrays = np.broadcast_arrays(*args)
    batch = arrays[0].shape[: arrays[0].ndim - core]
    pointwise = [
        values(evaluator(*(a[idx].tolist() for a in arrays))) for idx in np.ndindex(batch)
    ]
    for point in pointwise:
        assert all(isinstance(v, (complex, float)) for v in point)
    for got, want in zip(values(evaluator(*args)), zip(*pointwise)):
        assert got.shape == batch
        np.testing.assert_allclose(got, np.reshape(want, batch), rtol=1e-14, atol=0.0)

    on_circle = np.array(args[0], dtype=complex)
    on_circle.flat[-1] = np.exp(0.7j)
    with pytest.raises(DomainViolation):
        evaluator(on_circle, *args[1:])
