"""The spectral core and the tolerance rule: one decomposition, every verdict
relative to the scale of what it measures."""

import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kboundary import (
    BoundaryFactorization,
    DiscreteMeasure,
    DomainViolation,
    FiniteKernel,
    MeasureMorphism,
    NotAFactorization,
    NotHermitian,
    NotPsd,
    PointSet,
    RkhsElement,
    apply_W,
    check_morphism,
    check_positive_definite,
    cli,
    consistency_check,
    kernels,
    minimality_test,
    moments,
    parseval_factorize,
    realize,
    renormalize,
    tightness_test,
)
from kboundary.kernels import numerical_rank, spectrum

SRC = Path(__file__).resolve().parents[1] / "src" / "kboundary"


def _kernel(gram) -> FiniteKernel:
    g = np.asarray(gram, dtype=complex)
    return FiniteKernel(points=PointSet.from_points(np.arange(g.shape[0])), gram=g)


TINY_INDEFINITE = 1e-12 * np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues -1e-12, 3e-12


def test_tiny_indefinite_matrix_is_not_psd():
    report = check_positive_definite(_kernel(TINY_INDEFINITE))
    assert report.min_eigenvalue == pytest.approx(-1e-12)
    assert not report.is_psd


def test_tiny_indefinite_matrix_has_no_parseval_frame():
    with pytest.raises(NotPsd):
        parseval_factorize(_kernel(TINY_INDEFINITE))


def test_spectrum_of_a_real_gram_is_real():
    spec = spectrum(np.array([[2.0, 1.0], [1.0, 2.0]], dtype=complex))
    assert spec.vectors.dtype == np.float64
    np.testing.assert_allclose(spec.values, [1.0, 3.0], rtol=1e-15)
    assert spec.norm == pytest.approx(3.0)
    assert spectrum(np.array([[1.0, 1j], [-1j, 1.0]])).vectors.dtype == np.complex128


def test_spectrum_is_cached_on_the_kernel():
    K = _kernel([[2.0, 1.0], [1.0, 2.0]])
    assert K.spectrum is K.spectrum


def test_numerical_rank_is_relative_to_the_largest_singular_value():
    A = np.diag([1.0, 1e-6, 1e-14])
    assert numerical_rank(A) == 2
    assert numerical_rank(1e-30 * A) == 2
    assert numerical_rank(A, rtol=1e-5) == 1
    assert numerical_rank(np.zeros((2, 3))) == 0
    assert numerical_rank(np.zeros((0, 3))) == 0


@st.composite
def hermitian_matrices(draw):
    """Q diag(lam) Q^* with eigenvalues 0 or of modulus in [0.1, 10]: clear of
    every cutoff, so a rescaling must not move any verdict."""
    n = draw(st.integers(1, 12))
    positive = draw(st.integers(1, n))
    negative = draw(st.integers(0, n - positive))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lam = np.zeros(n)
    lam[:positive] = rng.uniform(0.1, 10.0, positive)
    lam[positive:positive + negative] = -rng.uniform(0.1, 10.0, negative)
    A = rng.standard_normal((n, n))
    if draw(st.booleans()):
        A = A + 1j * rng.standard_normal((n, n))
    Q, _ = np.linalg.qr(A)
    return (Q * lam[None, :]) @ np.conj(Q).T


def _verdicts(gram) -> dict:
    K = _kernel(gram)
    verdicts = {"psd": check_positive_definite(K).is_psd}
    try:
        F = parseval_factorize(K)
    except NotPsd:
        verdicts["frame"] = "not psd"
    else:
        verdicts["frame"] = (
            F.n_atoms,
            tightness_test(F),
            minimality_test(F)["feature_rank"],
        )
        try:
            apply_W(F, RkhsElement(base=K, coeffs=np.ones(K.size)))
            verdicts["apply_W"] = "accepts"
        except NotAFactorization:
            verdicts["apply_W"] = "rejects"
    try:
        R = realize(K)
        verdicts["realize"] = R.n_atoms
        _, cov, seed_record = moments(R, 2)
        verdicts["exact"] = consistency_check(K, [0], cov, seed_record)["exact_ok"]
    except NotPsd:
        verdicts["realize"] = "not psd"
    return verdicts


@settings(max_examples=60, deadline=None)
@given(gram=hermitian_matrices(), k=st.integers(-12, 12))
def test_verdicts_do_not_depend_on_units(gram, k):
    assert _verdicts(gram * 10.0**k) == _verdicts(gram)


def _two_atom_factorization(scale: float) -> BoundaryFactorization:
    """The worked renormalization example, E = (1, 1/2), features times ``scale``."""
    measure = DiscreteMeasure(atoms=("0", "1"), weights=[0.75, 0.25])
    phi = scale * np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex)
    gram = (phi * measure.weights[None, :]) @ np.conj(phi).T
    return BoundaryFactorization(kernel=_kernel(gram), measure=measure, features=phi)


@pytest.mark.parametrize("k", range(-13, 9))
def test_feature_verdicts_do_not_depend_on_units(k):
    F = _two_atom_factorization(10.0**k)
    np.testing.assert_allclose(renormalize(F).kren_factorization.kernel.gram, [[1.0, 1.0], [1.0, 4.0]],
                               rtol=1e-14, atol=0.0)
    ident = MeasureMorphism(source=F.measure, target=F.measure, map={"0": "0", "1": "1"})
    one_ulp = BoundaryFactorization(kernel=F.kernel, measure=F.measure,
                                    features=np.nextafter(F.features.real, np.inf))
    assert check_morphism(ident, F, one_ulp)["diagram_ok"]


@pytest.mark.parametrize(
    "build",
    [
        lambda: FiniteKernel(points=PointSet.from_points([0, 1]), gram=[[np.nan, 0], [0, 1]]),
        lambda: FiniteKernel(points=PointSet.from_points([0, 1]), gram=[[np.inf, 0], [0, 1]]),
        lambda: FiniteKernel.from_table([[np.inf, 0.0], [0.0, 1.0]]),
        lambda: FiniteKernel.from_table([[1.0, complex(0.0, np.nan)], [0.0, 1.0]]),
        lambda: PointSet.from_points([0.1, np.nan]),
        lambda: PointSet.from_points([(0.1, complex(np.inf, 0.0))]),
    ],
    ids=["nan-gram", "inf-gram", "inf-table", "nan-table", "nan-point", "inf-coordinate"],
)
def test_non_finite_entries_are_rejected_at_construction(build):
    with pytest.raises(DomainViolation):
        build()


def test_hermitian_check_is_relative_to_the_entries():
    with pytest.raises(NotHermitian):
        _kernel(1e-20 * np.array([[1.0, 2.0], [3.0, 1.0]]))


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


def test_failed_renormalized_psd_check_keeps_the_report_strict(monkeypatch, tmp_path):
    failing = kernels.PsdReport(min_eigenvalue=-1.0, max_eigenvalue=1.0, is_psd=False)
    monkeypatch.setattr(kernels, "check_positive_definite", lambda K, tol=1e-10: failing)
    out = tmp_path / "report.json"
    assert cli.main(["verify-all", "--seed", "3", "--out", str(out)]) == 2
    report = json.loads(out.read_text(), parse_constant=_reject_constant)
    (renorm,) = [c for c in report["checks"] if c["name"] == "renormalization"]
    assert renorm["kren_psd_ok"] is False and renorm["passed"] is False
    assert np.isfinite(renorm["max_identity_residual"])


def test_numpy_linalg_is_called_only_by_the_spectral_core():
    calls = {}
    for path in sorted(SRC.glob("*.py")):
        found = re.findall(r"\b(?:np|numpy)\.linalg\b(?:\.(\w+))?", path.read_text())
        if found:
            calls[path.name] = sorted(found)
    assert calls == {"kernels.py": ["eigh", "svd"]}
