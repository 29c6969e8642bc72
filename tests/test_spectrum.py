"""The spectral core and the tolerance rule: one decomposition, every verdict
relative to the scale of what it measures."""

import ast
import functools
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
    KernelSpec,
    MeasureMorphism,
    NotAFactorization,
    NotHermitian,
    NotPsd,
    RkhsElement,
    apply_W,
    assemble_gram,
    check_morphism,
    check_positive_definite,
    cli,
    consistency_check,
    gaussian,
    kernels,
    minimality_test,
    moments,
    parseval_factorize,
    realize,
    renormalize,
    tightness_test,
)
from kboundary.kernels import default_rank_tol, numerical_rank

SRC = Path(__file__).resolve().parents[1] / "src" / "kboundary"


def _kernel(gram) -> FiniteKernel:
    return FiniteKernel(gram=gram)


TINY_INDEFINITE = 1e-12 * np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues -1e-12, 3e-12


def test_tiny_indefinite_matrix_is_not_psd():
    report = check_positive_definite(_kernel(TINY_INDEFINITE))
    assert report.min_eigenvalue == pytest.approx(-1e-12)
    assert not report.is_psd


def test_tiny_indefinite_matrix_has_no_parseval_frame():
    with pytest.raises(NotPsd):
        parseval_factorize(_kernel(TINY_INDEFINITE))


def _factor(M, rtol):
    """The kept factor of the Hermitian M through the cores, as
    parseval_factorize reads it."""
    values, vectors = kernels._eigh(M)
    return kernels._factor(values, vectors, kernels._kept(values, rtol))


def test_spectrum_of_a_real_gram_is_real():
    values, vectors = kernels._eigh(np.array([[2.0, 1.0], [1.0, 2.0]], dtype=complex))
    assert vectors.dtype == np.float64
    np.testing.assert_allclose(values, [1.0, 3.0], rtol=1e-15)
    assert kernels._norm(values) == pytest.approx(3.0)
    assert kernels._eigh(np.array([[1.0, 1j], [-1j, 1.0]]))[1].dtype == np.complex128


def test_spectrum_is_cached_on_the_kernel():
    K = _kernel([[2.0, 1.0], [1.0, 2.0]])
    assert K.spectrum is K.spectrum
    values, vectors = K.spectrum
    assert not values.flags.writeable and not vectors.flags.writeable
    assert values.tobytes() == kernels._eigh(K.gram)[0].tobytes()


def test_numerical_rank_is_relative_to_the_largest_singular_value():
    A = np.diag([1.0, 1e-6, 1e-14])
    assert numerical_rank(A) == 2
    assert numerical_rank(1e-30 * A) == 2
    assert kernels._rank(kernels._svdvals(A), 1e-5) == 1
    assert numerical_rank(np.zeros((2, 3))) == 0
    assert numerical_rank(np.zeros((0, 3))) == 0


def _with_singular_values(rng, s, m, field):
    """A len(s) x m matrix (m >= len(s)) with singular values ``s``: U diag(s) V^*
    for Haar-like U and V, real or complex."""
    def unitary(k):
        A = rng.standard_normal((k, k))
        return np.linalg.qr(A + 1j * rng.standard_normal((k, k)) if field else A)[0]

    return (unitary(len(s)) * s[None, :]) @ np.conj(unitary(m)).T[:len(s)]


@pytest.mark.parametrize("field", [False, True], ids=["real", "complex"])
def test_the_rank_rule_counts_each_matrix_of_a_stack_against_its_own_sigma_max(field):
    # Each matrix has its own sigma_max, 10^k apart, and singular values at
    # 1 +- 1e-3 times rtol * sigma_max: a cutoff against sigma_min, or
    # against another matrix's sigma_max, miscounts some rank.
    rtol, rng = 1e-6, np.random.default_rng(11)
    above, below = rtol * (1 + 1e-3), rtol * (1 - 1e-3)
    spectra = {  # rank: singular values, relative to sigma_max
        1: [1.0, below, below, 0.5 * below, 1e-3 * below],
        2: [1.0, above, below, below, 0.1 * below],
        3: [1.0, 0.3, above, below, 0.0],
        5: [1.0, 0.5, 1e-3, 1e-5, above],
    }
    ranks, stack = [], []
    for scale in (1e-8, 1.0, 1e8):
        for rank, s in spectra.items():
            ranks.append(rank)
            stack.append(_with_singular_values(rng, scale * np.array(s), 7, field))
    stack = np.array(stack)
    assert stack.dtype == (complex if field else float)
    assert kernels._rank(kernels._svdvals(stack), rtol).tolist() == ranks
    assert [kernels._rank(kernels._svdvals(A), rtol) for A in stack] == ranks


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("n", [2, 3, 9, 40])
def test_the_factor_has_full_column_rank_at_any_cutoff_from_the_default(n, field):
    # An eigenvalue planted just above the cutoff rtol * lam_max is kept, and
    # its column's norm sqrt(lam) exceeds sqrt(rtol) * sigma_max >=
    # default_rank_tol(n) * sigma_max: the rank rule on the factor, as an SVD
    # of it gives, keeps every column, which is why kb factorize reports no
    # tightness check.
    for rtol in (default_rank_tol(n), 1e-3, 0.3, 0.99):
        F = _factor(_rotated_table(n, field, (1 + 1e-3) * rtol), rtol)
        assert F.shape[1] >= 2 and numerical_rank(F) == F.shape[1], rtol
        assert np.linalg.norm(F[:, -1]) ** 2 == pytest.approx((1 + 1e-3) * rtol * ROTATED_NORM,
                                                             rel=1e-5), rtol


@pytest.mark.parametrize("n", [10, 1000, 1200])
@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("side", [1 - 1e-3, 1 + 1e-3], ids=["below", "above"])
def test_kb_factorize_passes_an_eigenvalue_planted_at_the_rank_cutoff(n, field, side):
    # An exact PSD table: ones on the diagonal and one eigenvalue lam at
    # (1 +- 1e-3) times default_rank_tol(n) * ||G||_2.  Dropped or kept,
    # the factorization must pass kb factorize's residual check.  The complex
    # table couples two points, eigenvalues 1/2 and 3/2, so ||G||_2 = 3/2.
    table = np.eye(n, dtype=complex)
    norm = 1.0
    if field == "complex":
        table[0, 1], table[1, 0], norm = 0.5j, -0.5j, 1.5
    table[-1, -1] = side * default_rank_tol(n) * norm
    K = FiniteKernel.from_table(table)
    assert K.field_tag == field
    F = parseval_factorize(K)
    check = cli._residual_check("parseval-reconstruction", F.residual, K)
    assert check.passed, check.details
    assert F.n_atoms == (n if side > 1 else n - 1)


ROTATED_NORM = 50.0  # ||G||_2 of a rotated table, so that no cutoff reads it as 1


@functools.lru_cache(maxsize=None)
def _rotation(n, field, seed):
    """(middle, Q) of ``_rotated_table``: the n - 2 free eigenvalues and the
    unitary, drawn once per size, field and seed and shared by every planted
    value; both read-only."""
    rng = np.random.default_rng(seed)
    middle = rng.uniform(0.1, 1.0, n - 2)
    A = rng.standard_normal((n, n))
    if field == "complex":
        A = A + 1j * rng.standard_normal((n, n))
    Q, _ = np.linalg.qr(A)
    middle.setflags(write=False)
    Q.setflags(write=False)
    return middle, Q


def _rotated_table(n, field, planted, seed=0):
    """Q diag(lam) Q^* for a random unitary Q, real or complex: lam is
    ROTATED_NORM times 1, n - 2 values uniform on [0.1, 1] and ``planted``."""
    middle, Q = _rotation(n, field, seed)
    lam = ROTATED_NORM * np.concatenate([[1.0], middle, [planted]])
    return (Q * lam[None, :]) @ np.conj(Q).T


def _run_table(command, table) -> tuple:
    """(report, exit code) of ``kb <command>`` on ``table``, through the CLI."""
    entries = [[{"re": z.real, "im": z.imag} for z in row] for row in table.tolist()]
    config = {"command": command, "kernel": {"variant": "table", "table": entries}}
    return cli.run(cli.parse_config(config))


ROTATED = pytest.mark.parametrize("n", [10, 100])
FIELDS = pytest.mark.parametrize("field", ["real", "complex"])
SIDES = pytest.mark.parametrize("side", [1 - 1e-3, 1 + 1e-3], ids=["below", "above"])


@ROTATED
@FIELDS
@pytest.mark.parametrize("side, code", [(0.999, 0), (1.001, 2)], ids=["inside", "outside"])
def test_kb_validate_judges_a_rotated_table_at_the_psd_tolerance(n, field, side, code):
    # The least eigenvalue at -0.999 or -1.001 times PSD_TOL * ||G||_2, with
    # the eigenvectors spread over every entry of the table.
    report, exit_code = _run_table("validate", _rotated_table(n, field, -side * kernels.PSD_TOL))
    _assert_validate(report, exit_code, code, -side * kernels.PSD_TOL * ROTATED_NORM)


def _assert_validate(report, exit_code, code, planted):
    """kb validate exited ``code``, with its least eigenvalue at ``planted``."""
    (check,) = report["checks"]
    assert exit_code == code and check["passed"] == (code == 0), check
    assert check["min_eigenvalue"] == pytest.approx(planted, rel=1e-4)


def _run_kernel(command, table) -> tuple:
    """(report, exit code) of the kb <command> pipeline on ``table``, given
    as a FiniteKernel: a JSON table of 10^6 cnums would cost seconds."""
    return cli.run(cli.JobConfig(command=command, kernel=FiniteKernel.from_table(table)))


@pytest.mark.parametrize("n", [1000, 1200])
@FIELDS
@pytest.mark.parametrize("side, code", [(0.999, 0), (1.001, 2)], ids=["inside", "outside"])
def test_kb_validate_judges_a_large_rotated_table_at_the_psd_tolerance(n, field, side, code):
    # As above, at the north star's size.
    report, exit_code = _run_kernel("validate", _rotated_table(n, field, -side * kernels.PSD_TOL))
    _assert_validate(report, exit_code, code, -side * kernels.PSD_TOL * ROTATED_NORM)


@pytest.mark.parametrize("n", [10, 1000, 1200])
@FIELDS
@pytest.mark.parametrize("side, code", [(0.999, 0), (1.001, 2)], ids=["inside", "outside"])
def test_kb_validate_judges_a_diagonal_table_at_the_psd_tolerance(n, field, side, code):
    # Ones on the diagonal and the least eigenvalue at -0.999 or -1.001 times
    # PSD_TOL * ||G||_2.  The complex table couples two points by +-1e-3 i,
    # eigenvalues 1 -+ 1e-3, so ||G||_2 = 1.001.
    table = np.eye(n, dtype=complex)
    norm = 1.0
    if field == "complex":
        table[0, 1], table[1, 0], norm = 1e-3j, -1e-3j, 1.001
    table[-1, -1] = -side * kernels.PSD_TOL * norm
    report, exit_code = _run_kernel("validate", table)
    _assert_validate(report, exit_code, code, -side * kernels.PSD_TOL * norm)
    assert report["checks"][0]["max_eigenvalue"] == pytest.approx(norm, rel=1e-12)


@ROTATED
@FIELDS
@SIDES
def test_kb_factorize_passes_a_rotated_table_at_the_rank_cutoff(n, field, side):
    table = _rotated_table(n, field, side * default_rank_tol(n))
    report, exit_code = _run_table("factorize", table)
    assert exit_code == 0, report["checks"]
    _assert_rank_margin(report, n, side)


def _assert_rank_margin(report, n, side):
    """kb factorize kept the planted eigenvalue above the rank cutoff and
    dropped it below, and its report names the cutoff and the eigenvalues
    on either side of it."""
    (parseval,) = [c for c in report["checks"] if c["name"] == "parseval-reconstruction"]
    assert parseval["retained_rank"] == (n if side > 1 else n - 1)
    assert parseval["rank_tolerance"] == default_rank_tol(n)
    planted = side * default_rank_tol(n) * ROTATED_NORM
    if side > 1:
        assert parseval["smallest_kept_eigenvalue"] == pytest.approx(planted, rel=1e-4)
        assert parseval["largest_dropped_eigenvalue"] is None
    else:
        assert parseval["smallest_kept_eigenvalue"] >= 0.1 * ROTATED_NORM * (1 - 1e-12)
        assert parseval["largest_dropped_eigenvalue"] == pytest.approx(planted, rel=1e-4)


@pytest.mark.parametrize("n, field", [(1000, "real"), (1000, "complex"), (1200, "real")])
@SIDES
def test_kb_factorize_passes_a_large_rotated_table_at_the_rank_cutoff(n, field, side):
    # As above, at the north star's size, through the factorize pipeline.
    report, exit_code = _run_kernel("factorize", _rotated_table(n, field, side * default_rank_tol(n)))
    assert exit_code == 0, report["checks"]
    _assert_rank_margin(report, n, side)


@ROTATED
@FIELDS
@SIDES
def test_consistency_is_exact_on_a_rotated_table_at_the_realize_cutoff(n, field, side):
    K = FiniteKernel.from_table(_rotated_table(n, field, side * gaussian.FACTOR_TOL))
    assert K.field_tag == field
    _, covariance, seed_record = moments(realize(K), 100, 0)
    assert realize(K).n_atoms == (n if side > 1 else n - 1)
    assert consistency_check(K, list(range(0, n, 2)), covariance, seed_record)["exact_ok"]


def test_every_rank_cutoff_stays_within_the_factorization_tolerance():
    # A cutoff drops eigenvalues that the residual check then judges: each
    # cutoff plus the solver's rounding, about eps * n, must stay within it.
    eps = np.finfo(float).eps
    for n in range(1, 10**6 + 1):
        assert default_rank_tol(n) + eps * n <= kernels.FACTORIZATION_TOL, n
    for cutoff in (kernels.PSD_TOL, gaussian.FACTOR_TOL):
        assert cutoff + eps * 10**6 <= kernels.FACTORIZATION_TOL
    assert [default_rank_tol(n) for n in (1, 10, 499, 500)] == [1e-12 * n for n in (1, 10, 499, 500)]


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


def _check_spectrum(gram):
    """The decomposition's bounds and the cores' factor against eigvalsh;
    returns (lower, upper, norm, PSD verdict, factor column count)."""
    values, _ = kernels._eigh(gram)
    lam = np.linalg.eigvalsh(gram)
    n = lam.size
    extremes = (lam[0], lam[-1]) if n else (0.0, 0.0)
    lower, upper = (float(values[0]), float(values[-1])) if n else (0.0, 0.0)
    norm = float(kernels._norm(values))
    # eigh and eigvalsh agree to rounding, not bit for bit.
    np.testing.assert_allclose((lower, upper), extremes,
                               rtol=0.0, atol=1e-13 * max(n, 1) * norm)
    assert norm == pytest.approx(max(-extremes[0], extremes[1]), rel=1e-13 * max(n, 1))
    rtol = default_rank_tol(n)
    F = _factor(gram, rtol)
    assert F.dtype == np.complex128 and F.flags.c_contiguous
    kept = lam[lam > rtol * norm][::-1]
    np.testing.assert_allclose(np.sum(np.abs(F) ** 2, axis=0), kept,
                               rtol=1e-12, atol=1e-12 * norm)
    psd = bool(kernels._is_psd(values))
    if psd:
        assert np.abs(F @ np.conj(F).T - gram).max(initial=0.0) <= 1e-13 * max(n, 1) * norm
    return lower, upper, norm, psd, F.shape[1]


def test_spectrum_of_the_empty_matrix():
    assert _check_spectrum(np.zeros((0, 0))) == (0.0, 0.0, 0.0, True, 0)
    values, vectors = kernels._eigh(np.zeros((0, 0)))
    assert kernels._projector(vectors, kernels._kept(values, 1e-12)).shape == (0, 0)


@settings(max_examples=60, deadline=None)
@given(gram=hermitian_matrices(), k=st.integers(1, 12))
def test_spectrum_bounds_scale_with_the_matrix(gram, k):
    lower, upper, norm, psd, rank = _check_spectrum(gram)
    for c in (10.0**k, 10.0**-k):
        c_lower, c_upper, c_norm, c_psd, c_rank = _check_spectrum(c * gram)
        assert (c_psd, c_rank) == (psd, rank)
        assert c_norm == pytest.approx(c * norm, rel=1e-12)
        for got, want in ((c_lower, lower), (c_upper, upper)):
            assert abs(got - c * want) <= 1e-12 * gram.shape[0] * c_norm


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
        lambda: FiniteKernel(gram=[[np.nan, 0], [0, 1]]),
        lambda: FiniteKernel(gram=[[np.inf, 0], [0, 1]]),
        lambda: FiniteKernel.from_table([[np.inf, 0.0], [0.0, 1.0]]),
        lambda: FiniteKernel.from_table([[1.0, complex(0.0, np.nan)], [0.0, 1.0]]),
        lambda: assemble_gram(KernelSpec(), [0.1, np.nan]),
        lambda: assemble_gram(KernelSpec(dim=2), [(0.1, complex(np.inf, 0.0))]),
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
    # The criterion judges its 100 renormalized kernels in stacks; every PSD
    # verdict of the stacks fails here.
    from kboundary import selfcheck

    identities = selfcheck._renormalized_identities
    monkeypatch.setattr(selfcheck, "_renormalized_identities",
                        lambda phi, *rest: (*identities(phi, *rest)[:2],
                                            np.zeros(len(phi), bool)))
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
    # The spectral core: the decomposition, its values-only form and the SVD.
    assert calls == {"kernels.py": ["eigh", "eigvalsh", "svd"]}


SPECTRAL_CORES = {"_eigh", "_eigvalsh", "_norm", "_is_psd", "_kept", "_factor", "_projector",
                  "_rank", "_svdvals"}


def test_spectral_cores_are_read_through_the_kernels_module():
    # A reader that imports a core by name keeps the original when the core
    # is replaced on kernels, so the planted-defect tests would not reach it.
    imported = {path.name: names for path in sorted(SRC.glob("*.py"))
                if (names := {alias.name for node in ast.walk(ast.parse(path.read_text()))
                              if isinstance(node, ast.ImportFrom) and node.module == "kernels"
                              for alias in node.names} & SPECTRAL_CORES)}
    assert imported == {}


@pytest.mark.parametrize("seed", [0, 1, 87264865])
def test_stacked_random_kernel_corpus_agrees_with_the_public_path(seed):
    # Each slice of verify-all's stacks against the unstacked kernel: the
    # mirror, spectrum, kept rank, factor and projection spectrum bit for
    # bit (the decompositions are grouped, never padded), the residuals
    # within 1e-14 of their scale (the padded atoms change the BLAS blocking).
    from kboundary import factorization, selfcheck
    from kboundary.factorization import apply_V, check_isometry, l2_norm_squared, \
        projection_spectrum
    from kboundary.kernels import relative_residual
    from kboundary.rkhs import norm_squared

    grams, coeffs = selfcheck._transform_corpus(selfcheck._rng(seed, 2), 200)
    frames = selfcheck._spectral_frames(grams)
    iso, gen = selfcheck._transform_residuals(frames, coeffs)
    proj, spectra = selfcheck._projections(frames, len(grams))
    assert sorted(i for f in frames for i in f.index) == list(range(200))
    for f in frames:
        values, vectors = kernels._eigh(f.gram)
        xi = np.stack([coeffs[i] for i in f.index])
        wf = factorization._apply_W(f.features, xi)
        for j, i in enumerate(f.index):
            K = _kernel(grams[i])
            F = parseval_factorize(K)
            r, norm = F.n_atoms, float(kernels._norm(K.spectrum[0]))
            assert K.gram.tobytes() == f.gram[j].tobytes()
            assert K.spectrum[0].tobytes() == values[j].tobytes()
            assert K.spectrum[1].tobytes() == vectors[j].tobytes()
            assert f.rank[j] == r and f.norm[j] == norm
            assert F.features.tobytes() == np.ascontiguousarray(f.features[j, :, :r]).tobytes()
            assert not f.features[j, :, r:].any()
            assert abs(f.residual[j] - F.residual) <= 1e-14 * norm
            assert abs(f.relative[j] - relative_residual(F.residual, K)) <= 1e-14
            element = RkhsElement(base=K, coeffs=coeffs[i])
            Wf = apply_W(F, element)
            scale = np.abs(F.features).max() * np.abs(coeffs[i]).sum(axis=0).max()
            assert np.abs(wf[j, :r] - Wf).max() <= 1e-14 * scale and not wf[j, r:].any()
            l2, nrm2 = l2_norm_squared(Wf, F.measure), norm_squared(element)
            assert np.all(np.abs(iso[i] - np.abs(l2 - nrm2) / nrm2) <= 1e-14 * l2 / nrm2)
            back = apply_V(F, apply_W(F, RkhsElement(base=K, coeffs=np.eye(K.size))))
            assert abs(gen[i] - relative_residual(float(np.abs(back - K.gram.T).max()), K)) \
                <= 1e-14
            assert abs(proj[i] - check_isometry(F)["projection_residual"]) <= 1e-14
            assert spectra[i].tobytes() == projection_spectrum(F).tobytes()


def test_the_cores_keep_their_one_matrix_arithmetic():
    # The lone readers call the stack-capable cores on one matrix; there they
    # must give the bits of the one-matrix formulas, dropped eigenpairs
    # included.
    rng = np.random.default_rng(5)
    for n, r in ((1, 1), (4, 2), (9, 9), (12, 5), (0, 0)):
        for field in (0.0, 1.0):
            A = rng.standard_normal((n, r)) + field * 1j * rng.standard_normal((n, r))
            values, vectors = kernels._eigh(A @ np.conj(A).T)
            norm = max(-values[0], values[-1]) if n else 0.0
            keep = values > 1e-12 * norm
            f = vectors[:, keep] * np.sqrt(values[keep])[None, :]
            want = np.ascontiguousarray(f[:, ::-1], dtype=complex)
            kept = kernels._kept(values, 1e-12)
            got = kernels._factor(values, vectors, kept)
            assert got.flags.c_contiguous and got.tobytes() == want.tobytes()
            v = vectors[:, keep]
            assert kernels._projector(vectors, kept).tobytes() == (v @ np.conj(v).T).tobytes()
