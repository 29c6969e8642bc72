import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kboundary import (
    BaseMismatch,
    BoundaryFactorization,
    CircleMeasure,
    DiscreteMeasure,
    FiniteKernel,
    InvalidMeasure,
    LabelMismatch,
    MeasureMorphism,
    NotAFactorization,
    PointSet,
    RkhsElement,
    ShapeMismatch,
    apply_V,
    apply_W,
    check_isometry,
    check_morphism,
    l2_norm_squared,
    minimality_test,
    norm_squared,
    parseval_factorize,
    pullback,
    pullback_isometry_residual,
    range_projection,
    rkhs_inner,
    schwarz_bound_check,
    verify_factorization,
    verify_parseval,
)
from kboundary import factorization
from kboundary.factorization import projection_spectrum


def _kernel_from_gram(gram):
    g = np.asarray(gram, dtype=complex)
    return FiniteKernel(
        points=PointSet.from_points(np.arange(g.shape[0], dtype=complex)), gram=g
    )


def clark_two_atom_factorization(z1=0.3 + 0.1j, z2=-0.4 + 0.2j):
    """K(z, w) = 1 + z conj(w) factorized through e = +-1, weights 1/2."""
    zs = np.array([z1, z2])
    gram = 1.0 + zs[:, None] * np.conj(zs)[None, :]
    features = np.stack([1.0 + zs, 1.0 - zs], axis=1)
    measure = DiscreteMeasure(atoms=("0", "0.5"), weights=[0.5, 0.5])
    return BoundaryFactorization(
        kernel=_kernel_from_gram(gram), measure=measure, features=features
    )


def induced_factorization(rng, n, m):
    phi = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
    w = rng.uniform(0.2, 1.0, size=m)
    gram = (phi * w[None, :]) @ np.conj(phi).T
    gram = (gram + np.conj(gram).T) / 2.0
    measure = DiscreteMeasure(atoms=tuple(range(m)), weights=w)
    return BoundaryFactorization(
        kernel=_kernel_from_gram(gram), measure=measure, features=phi
    )


@pytest.mark.parametrize("make", [
    lambda big: DiscreteMeasure(atoms=("a", "b"), weights=[1, big]),
    lambda big: DiscreteMeasure(atoms=("a", "b"), weights=[0.5, 0.5],
                                coords=[[0.5], [big]]),
    lambda big: CircleMeasure(atoms=[0.0, 0.5], weights=[0.5, big]),
    lambda big: CircleMeasure(atoms=[0.0, -big], weights=[0.5, 0.5]),
], ids=["discrete-weight", "discrete-coord", "circle-weight", "circle-atom"])
def test_measure_integers_beyond_the_float_range_are_invalid(make):
    with pytest.raises(InvalidMeasure):
        make(10**400)


class TestDiscreteMeasure:
    def test_positive_weights_required(self):
        with pytest.raises(InvalidMeasure):
            DiscreteMeasure(atoms=("a",), weights=[0.0])

    def test_normalization_checked(self):
        # Mass 1 is the rule of a circle measure, not of every measure.
        assert DiscreteMeasure(atoms=("a", "b"), weights=[0.5, 0.6]).total_mass() == \
            pytest.approx(1.1)
        with pytest.raises(InvalidMeasure, match="must be a probability measure"):
            CircleMeasure(atoms=[0.0, 0.5], weights=[0.5, 0.6])

    def test_a_circle_measure_is_a_discrete_measure_on_its_atoms(self):
        mu = CircleMeasure(atoms=np.array([0.25, 0.5]), weights=[0.5, 0.5])
        assert isinstance(mu, DiscreteMeasure)
        assert mu.atoms == (0.25, 0.5) and mu.size == 2
        assert mu.coords.tolist() == [[0.25], [0.5]] and not mu.coords.flags.writeable

    @pytest.mark.parametrize("make, message", [
        (lambda: CircleMeasure(atoms=[0.0, 1.0], weights=[0.5, 0.5]),
         "atom coordinates must lie in [0,1)"),
        (lambda: DiscreteMeasure(atoms=("a", "b"), weights=[1, 1], coords=[[0.5], [1.5]]),
         "atom coordinates must lie in [0,1)"),
        (lambda: CircleMeasure(atoms=[0.5, 0.5], weights=[0.5, 0.5]),
         "atom coordinates must be pairwise distinct"),
        (lambda: DiscreteMeasure(atoms=("a", "b"), weights=[1, 1], coords=[[0.5], [0.5]]),
         "atom coordinates must be pairwise distinct"),
    ], ids=["circle-range", "discrete-range", "circle-repeated", "discrete-repeated"])
    def test_circle_and_discrete_atoms_share_one_message(self, make, message):
        with pytest.raises(InvalidMeasure, match=f"^{re.escape(message)}$"):
            make()

    def test_counting(self):
        mu = DiscreteMeasure.counting(3)
        assert mu.total_mass() == 3.0


class TestVerifyFactorization:
    def test_two_atom_clark_identity(self):
        F = clark_two_atom_factorization()
        assert verify_factorization(F) <= 1e-12

    def test_parseval_bridge(self):
        rng = np.random.default_rng(23)
        A = rng.standard_normal((5, 4)) + 1j * rng.standard_normal((5, 4))
        K = _kernel_from_gram(A @ np.conj(A).T)
        F = parseval_factorize(K)
        assert verify_factorization(F) <= 1e-12
        assert abs(verify_factorization(F) - verify_parseval(F)) <= 1e-12
        assert minimality_test(F)["is_minimal"]

    def test_zero_features(self):
        F = clark_two_atom_factorization()
        zeroed = BoundaryFactorization(
            kernel=F.kernel, measure=F.measure, features=np.zeros_like(F.features)
        )
        assert verify_factorization(zeroed) == pytest.approx(
            float(np.abs(F.kernel.gram).max())
        )


def test_zero_kernel_has_an_empty_transform_pair():
    """The zero kernel is PSD: its Parseval frame has rank 0, and the transform
    pair, and the identity morphism of its empty counting measure, still work."""
    K = _kernel_from_gram(np.zeros((2, 2)))
    F = parseval_factorize(K)
    assert F.n_atoms == 0
    assert check_isometry(F) == {"wstar_w_residual": 0.0, "projection_residual": 0.0}
    f = RkhsElement(base=K, coeffs=[1.0, 2.0 - 1.0j])
    assert apply_W(F, f).shape == (0,)
    identity = MeasureMorphism(source=F.measure, target=F.measure, map={})
    assert check_morphism(identity, F, F) == {
        "pushforward_ok": True,
        "sigma_ok": True,
        "diagram_ok": True,
    }
    empty = DiscreteMeasure(atoms=(), weights=[])  # valid, as its counting measure is
    assert empty.atoms == F.measure.atoms == () and empty.total_mass() == 0.0


class TestMinimality:
    def test_two_atoms_two_points(self):
        assert minimality_test(clark_two_atom_factorization()) == {
            "is_minimal": True,
            "feature_rank": 2,
        }

    def test_single_atom(self):
        measure = DiscreteMeasure(atoms=("x",), weights=[1.0])
        F = BoundaryFactorization(
            kernel=_kernel_from_gram([[4.0]]),
            measure=measure,
            features=np.array([[2.0]]),
        )
        assert minimality_test(F)["is_minimal"]

    def test_more_atoms_than_points(self):
        rng = np.random.default_rng(29)
        F = induced_factorization(rng, n=2, m=5)
        result = minimality_test(F)
        assert not result["is_minimal"]
        assert result["feature_rank"] <= 2


class TestApplyW:
    def test_generator_goes_to_feature_row(self):
        F = clark_two_atom_factorization()
        for i, label in enumerate(F.kernel.points.labels):
            section = RkhsElement.kernel_section(F.kernel, label)
            np.testing.assert_allclose(apply_W(F, section), F.features[i], atol=1e-14)

    def test_zero_element(self):
        F = clark_two_atom_factorization()
        out = apply_W(F, RkhsElement(base=F.kernel, coeffs=[0, 0]))
        np.testing.assert_allclose(out, 0.0)

    def test_clark_difference(self):
        z1, z2 = 0.3 + 0.1j, -0.4 + 0.2j
        F = clark_two_atom_factorization(z1, z2)
        f = RkhsElement(base=F.kernel, coeffs=[1.0, -1.0])
        out = apply_W(F, f)
        np.testing.assert_allclose(out, [z1 - z2, -(z1 - z2)], atol=1e-14)
        assert l2_norm_squared(out, F.measure) == pytest.approx(abs(z1 - z2) ** 2)
        assert rkhs_inner(f, f).real == pytest.approx(abs(z1 - z2) ** 2)

    def test_isometry_for_complex_mixes(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            F = induced_factorization(rng, int(rng.integers(1, 6)), int(rng.integers(1, 7)))
            xi = rng.standard_normal(F.n_points) + 1j * rng.standard_normal(F.n_points)
            f = RkhsElement(base=F.kernel, coeffs=xi)
            assert l2_norm_squared(apply_W(F, f), F.measure) == pytest.approx(
                rkhs_inner(f, f).real, abs=1e-9
            )

    def test_rejects_unverified_factorization(self):
        F = clark_two_atom_factorization()
        broken = BoundaryFactorization(
            kernel=F.kernel,
            measure=F.measure,
            features=np.zeros_like(F.features),
        )
        with pytest.raises(NotAFactorization):
            apply_W(broken, RkhsElement.kernel_section(F.kernel, "p0"))

    def test_base_mismatch(self):
        F = clark_two_atom_factorization()
        other = _kernel_from_gram(np.eye(2))
        with pytest.raises(BaseMismatch):
            apply_W(F, RkhsElement.kernel_section(other, "p0"))


class TestApplyV:
    def test_feature_row_reproduces_gram_row(self):
        # V(k_t) evaluated on the points reduces exactly to the
        # factorization identity, i.e. the Gram row of t.
        F = clark_two_atom_factorization()
        for t in range(F.n_points):
            out = apply_V(F, F.features[t])
            np.testing.assert_allclose(out, F.kernel.gram[t, :], atol=1e-14)

    def test_vw_identity_on_generators(self):
        F = clark_two_atom_factorization()
        for t, label in enumerate(F.kernel.points.labels):
            section = RkhsElement.kernel_section(F.kernel, label)
            roundtrip = apply_V(F, apply_W(F, section))
            np.testing.assert_allclose(roundtrip, F.kernel.gram[t, :], atol=1e-14)

    def test_zero_vector(self):
        F = clark_two_atom_factorization()
        np.testing.assert_allclose(apply_V(F, np.zeros(2)), 0.0)

    def test_kernel_of_V(self):
        rng = np.random.default_rng(37)
        F = induced_factorization(rng, n=2, m=5)
        # g orthogonal in L2(mu) to every feature row lies in ker V.
        weighted = np.conj(F.features) * F.measure.weights[None, :]
        _, _, vh = np.linalg.svd(weighted)
        g = np.conj(vh[-1])
        assert np.abs(weighted @ g).max() <= 1e-12
        np.testing.assert_allclose(apply_V(F, g), 0.0, atol=1e-12)


def _batch_factorizations():
    """Parseval and non-uniform-weight induced factorizations, n = 0, 1, 5, 12."""
    rng = np.random.default_rng(23)
    out = []
    for n in (0, 1, 5, 12):
        A = rng.standard_normal((n, n + 1)) + 1j * rng.standard_normal((n, n + 1))
        out.append(pytest.param(parseval_factorize(_kernel_from_gram(A @ np.conj(A).T)),
                                id=f"parseval-n{n}"))
        m = int(rng.integers(1, 9))
        w = rng.uniform(0.2, 1.0, size=m)
        phi = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
        measure = DiscreteMeasure(atoms=tuple(range(m)), weights=w)
        out.append(pytest.param(BoundaryFactorization.induced(measure, phi), id=f"induced-n{n}"))
    return out


# Reference copies of the 1-D formulas, which a 1-D call must keep bit for bit.
def _norm_squared_1d(G, xi):
    return complex(np.conj(xi) @ (G @ xi)).real


def _apply_W_1d(F, xi):
    return F.features.T @ np.conj(xi)


def _apply_V_1d(F, g):
    return np.conj(F.features) @ (F.measure.weights * g)


def _l2_norm_squared_1d(g, w):
    return complex(np.sum(g * np.conj(g) * w)).real


@pytest.mark.parametrize("F", _batch_factorizations())
class TestBatchAxis:
    """A 2-D call gives, column by column, the 1-D call on that column, within
    1e-14 of the column's own scale; the scales are ||G||_2 ||x||^2 for the
    quadratic forms and sqrt(||G||_2) ||x|| for the linear maps (x the
    column, its L2(mu) norm for V), and ||g||^2_mu for l2_norm_squared."""

    K_COLUMNS = 4

    def _columns(self, F, rows, seed):
        rng = np.random.default_rng(seed)
        shape = (rows, self.K_COLUMNS)
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    def test_rkhs_side(self, F):
        X = self._columns(F, F.n_points, 1)
        G = F.kernel.gram
        norm_G = F.kernel.spectrum.norm
        nrm2 = norm_squared(RkhsElement(base=F.kernel, coeffs=X))
        WX = apply_W(F, RkhsElement(base=F.kernel, coeffs=X))
        assert nrm2.shape == (self.K_COLUMNS,)
        assert WX.shape == (F.n_atoms, self.K_COLUMNS)
        for j in range(self.K_COLUMNS):
            f = RkhsElement(base=F.kernel, coeffs=X[:, j])
            single_nrm2 = norm_squared(f)
            single_W = apply_W(F, f)
            assert single_nrm2 == _norm_squared_1d(G, X[:, j])
            assert single_W.tobytes() == _apply_W_1d(F, X[:, j]).tobytes()
            x2 = float(np.sum(np.abs(X[:, j]) ** 2))
            assert abs(nrm2[j] - single_nrm2) <= 1e-14 * norm_G * x2
            assert np.abs(WX[:, j] - single_W).max(initial=0.0) <= 1e-14 * np.sqrt(norm_G * x2)

    def test_l2_side(self, F):
        Y = self._columns(F, F.n_atoms, 2)
        w = F.measure.weights
        norm_G = F.kernel.spectrum.norm
        l2 = l2_norm_squared(Y, F.measure)
        VY = apply_V(F, Y)
        assert l2.shape == (self.K_COLUMNS,)
        assert VY.shape == (F.n_points, self.K_COLUMNS)
        for j in range(self.K_COLUMNS):
            single_l2 = l2_norm_squared(Y[:, j], F.measure)
            single_V = apply_V(F, Y[:, j])
            assert single_l2 == _l2_norm_squared_1d(Y[:, j], w)
            assert single_V.tobytes() == _apply_V_1d(F, Y[:, j]).tobytes()
            assert abs(l2[j] - single_l2) <= 1e-14 * single_l2
            assert np.abs(VY[:, j] - single_V).max(initial=0.0) <= 1e-14 * np.sqrt(
                norm_G * single_l2)

    def test_shape_mismatch(self, F):
        n, m = F.n_points, F.n_atoms
        for bad in (np.zeros((n + 1, 2)), np.zeros((n, 2, 2))):
            with pytest.raises(ShapeMismatch):
                RkhsElement(base=F.kernel, coeffs=bad)
        for bad in (np.zeros((m + 1, 2)), np.zeros((m, 2, 2))):
            with pytest.raises(ShapeMismatch):
                apply_V(F, bad)
            with pytest.raises(ShapeMismatch):
                l2_norm_squared(bad, F.measure)


class TestCheckIsometry:
    def test_verified_factorization(self):
        F = clark_two_atom_factorization()
        res = check_isometry(F)
        assert res["wstar_w_residual"] <= 1e-9
        assert res["projection_residual"] <= 1e-9

    def test_minimal_projection_is_identity(self):
        F = clark_two_atom_factorization()
        P = range_projection(F)
        np.testing.assert_allclose(P, np.eye(2), atol=1e-9)

    def test_nonminimal_projection_trace_equals_rank(self):
        rng = np.random.default_rng(41)
        F = induced_factorization(rng, n=3, m=7)
        P = range_projection(F)
        rank = np.linalg.matrix_rank(F.kernel.gram)
        assert abs(P.trace().real - rank) <= 1e-6
        assert np.abs(P - np.eye(7)).max() > 0.1
        spectrum = projection_spectrum(F)
        dist = np.minimum(np.abs(spectrum), np.abs(spectrum - 1.0))
        assert dist.max() <= 1e-7

    @staticmethod
    def _projection_defects(F, rng):
        """(max |P W f - W f| / max |W f|, projection residual) of P = range_projection."""
        coeffs = rng.standard_normal(F.n_points) + 1j * rng.standard_normal(F.n_points)
        Wf = apply_W(F, RkhsElement(base=F.kernel, coeffs=coeffs))
        moved = np.abs(factorization.range_projection(F) @ Wf - Wf).max() / np.abs(Wf).max()
        return float(moved), factorization.check_isometry(F)["projection_residual"]

    @staticmethod
    def _weighted_factorizations():
        """Induced factorizations of n < m points, weights drawn from U(0.2, 1)."""
        rng = np.random.default_rng(43)
        return [induced_factorization(rng, n, m) for n, m in ((1, 2), (3, 7), (5, 8), (2, 6))]

    def test_range_projection_fixes_the_range_of_W_on_weighted_measures(self):
        rng = np.random.default_rng(44)
        for F in self._weighted_factorizations():
            moved, residual = self._projection_defects(F, rng)
            assert moved <= 1e-12
            assert residual <= 1e-12

    def test_a_range_projection_with_the_conjugation_swapped_fails(self, monkeypatch):
        # D^(-1/2) Q D^(1/2) in place of D^(1/2) Q D^(-1/2): the adjoint P*,
        # which equals P only when every weight is the same.
        def swapped(F):
            sqrt_w = np.sqrt(F.measure.weights)
            return F.feature_projector * sqrt_w[:, None] / sqrt_w[None, :]

        monkeypatch.setattr(factorization, "range_projection", swapped)
        rng = np.random.default_rng(44)
        for F in self._weighted_factorizations():
            moved, residual = self._projection_defects(F, rng)
            assert moved > 1e-3 and residual > 1e-3


class TestSchwarzBound:
    def test_zero_coefficients(self):
        F = clark_two_atom_factorization()
        res = schwarz_bound_check(F, [1.0, 2.0], [0.0, 0.0])
        assert res["lhs"] == 0.0 and res["holds"]

    def test_equality_case(self):
        rng = np.random.default_rng(43)
        F = induced_factorization(rng, n=3, m=4)
        xi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        g = F.features.T @ np.conj(xi)
        res = schwarz_bound_check(F, g, xi)
        assert res["holds"]
        assert res["lhs"] == pytest.approx(res["rhs"], rel=1e-9)

    def test_random_triples(self):
        rng = np.random.default_rng(47)
        for _ in range(100):
            F = induced_factorization(rng, int(rng.integers(1, 5)), int(rng.integers(1, 6)))
            g = rng.standard_normal(F.n_atoms) + 1j * rng.standard_normal(F.n_atoms)
            xi = rng.standard_normal(F.n_points) + 1j * rng.standard_normal(F.n_points)
            assert schwarz_bound_check(F, g, xi)["holds"]


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_schwarz_bound_property(data):
    seed = data.draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    F = induced_factorization(rng, int(rng.integers(1, 5)), int(rng.integers(1, 6)))
    g = rng.standard_normal(F.n_atoms) + 1j * rng.standard_normal(F.n_atoms)
    xi = rng.standard_normal(F.n_points) + 1j * rng.standard_normal(F.n_points)
    assert schwarz_bound_check(F, g, xi)["holds"]


def _morphism_fixture():
    target = DiscreteMeasure(atoms=("a", "b"), weights=[0.5, 0.5])
    zs = np.array([0.3, -0.2 + 0.1j])
    phi = 1.0 + zs[:, None] * np.conj(np.array([1.0, -1.0]))[None, :]
    gram = (phi * target.weights[None, :]) @ np.conj(phi).T
    gram = (gram + np.conj(gram).T) / 2.0
    F1 = BoundaryFactorization(
        kernel=_kernel_from_gram(gram), measure=target, features=phi
    )
    return target, F1


class TestMorphisms:
    def test_identity_morphism(self):
        target, F1 = _morphism_fixture()
        ident = MeasureMorphism(source=target, target=target, map={"a": "a", "b": "b"})
        assert check_morphism(ident, F1, F1) == {
            "pushforward_ok": True,
            "sigma_ok": True,
            "diagram_ok": True,
        }

    def test_collapsing_map(self):
        target, F1 = _morphism_fixture()
        source = DiscreteMeasure(atoms=("0", "1", "2"), weights=[0.25, 0.25, 0.5])
        collapse = MeasureMorphism(
            source=source, target=target, map={"0": "a", "1": "a", "2": "b"}
        )
        F2 = pullback(F1, collapse)
        verdict = check_morphism(collapse, F1, F2)
        assert verdict == {"pushforward_ok": True, "sigma_ok": False, "diagram_ok": True}

    def test_wrong_weights(self):
        target = DiscreteMeasure(atoms=("a", "b"), weights=[0.6, 0.4])
        zs = np.array([0.3, -0.2 + 0.1j])
        phi = 1.0 + zs[:, None] * np.conj(np.array([1.0, -1.0]))[None, :]
        gram = (phi * target.weights[None, :]) @ np.conj(phi).T
        gram = (gram + np.conj(gram).T) / 2.0
        F1 = BoundaryFactorization(
            kernel=_kernel_from_gram(gram), measure=target, features=phi
        )
        source = DiscreteMeasure(atoms=("0", "1"), weights=[0.5, 0.5])
        wrong = MeasureMorphism(source=source, target=target, map={"0": "a", "1": "b"})
        F2 = pullback(F1, wrong)
        verdict = check_morphism(wrong, F1, F2)
        assert verdict == {"pushforward_ok": False, "sigma_ok": True, "diagram_ok": True}

    def test_pullback_isometry(self):
        target, F1 = _morphism_fixture()
        source = DiscreteMeasure(atoms=("0", "1", "2"), weights=[0.25, 0.25, 0.5])
        collapse = MeasureMorphism(
            source=source, target=target, map={"0": "a", "1": "a", "2": "b"}
        )
        rng = np.random.default_rng(53)
        for _ in range(20):
            f = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            assert pullback_isometry_residual(collapse, f) <= 1e-12

    def test_map_must_be_total(self):
        target, _ = _morphism_fixture()
        source = DiscreteMeasure(atoms=("0", "1"), weights=[0.5, 0.5])
        with pytest.raises(LabelMismatch):
            MeasureMorphism(source=source, target=target, map={"0": "a"})

    def test_map_must_hit_target_atoms(self):
        target, _ = _morphism_fixture()
        source = DiscreteMeasure(atoms=("0",), weights=[1.0])
        with pytest.raises(LabelMismatch):
            MeasureMorphism(source=source, target=target, map={"0": "zzz"})

    def test_morphism_endpoints_must_match_factorizations(self):
        target, F1 = _morphism_fixture()
        other = DiscreteMeasure(atoms=("a", "b"), weights=[0.7, 0.3])
        morph = MeasureMorphism(source=other, target=target, map={"a": "a", "b": "b"})
        with pytest.raises(LabelMismatch):
            check_morphism(morph, F1, F1)
