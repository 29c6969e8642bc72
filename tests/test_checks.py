"""One check record: the ``Check`` every pipeline and criterion returns, the
report shape it gives, and the verdicts that depend on it."""

import collections
import importlib
import itertools
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from kboundary import FiniteKernel, cli, rkhs
from kboundary.check import Check
from kboundary.kernels import _hermitian_mirror

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


def _table_config(command, table):
    rows = [[{"re": float(x)} for x in row] for row in np.asarray(table)]
    return {"command": command, "kernel": {"variant": "table", "table": rows}}


def _run_main(argv, tmp_path):
    out = tmp_path / "report.json"
    code = cli.main([*argv, "--out", str(out)])
    return code, json.loads(out.read_text(), parse_constant=_reject_constant)


def test_check_coerces_numpy_scalars():
    check = Check("x", np.bool_(True), {"a": np.float64(0.5), "b": np.int64(3),
                                        "c": (np.bool_(False), "s"), "d": {"e": None}})
    assert check.passed is True
    assert check.as_json() == {"name": "x", "passed": True, "a": 0.5, "b": 3,
                               "c": [False, "s"], "d": {"e": None}}
    assert [type(v) for v in (check.details["a"], check.details["b"], check.details["c"][0])] \
        == [float, int, bool]


@pytest.mark.parametrize("bad", [math.nan, math.inf, np.float64(-np.inf), [1.0, math.nan],
                                 {"inner": np.float32(np.nan)}])
def test_non_finite_detail_becomes_null_and_fails(bad):
    check = Check("x", True, {"value": bad, "fine": 1.0})
    assert check.passed is False
    assert "null" in json.dumps(check.details["value"], allow_nan=False)
    assert check.details["fine"] == 1.0


def test_emit_refuses_non_finite_report_fields():
    report = {"command": "validate", "checks": [{"name": "x", "passed": False, "v": math.nan}]}
    with pytest.raises(ValueError):
        cli.emit(report)


def _jobs():
    for path in sorted(CONFIGS.glob("*.json")):
        command = json.loads(path.read_text())["command"]
        yield pytest.param([command, "--config", str(path)], id=path.stem)
    for seed in (0, 1, 2):
        yield pytest.param(["verify-all", "--seed", str(seed)], id=f"verify-all-seed-{seed}")


def _is_plain(value) -> bool:
    """A finite number, bool, str, None, or a list or dict of those."""
    if value is None or isinstance(value, (bool, str)):
        return True
    if isinstance(value, (int, float)):
        return math.isfinite(value)
    if isinstance(value, list):
        return all(map(_is_plain, value))
    if isinstance(value, dict):
        return all(isinstance(k, str) and _is_plain(v) for k, v in value.items())
    return False


@pytest.mark.parametrize("argv", list(_jobs()))
def test_report_shape(argv, tmp_path):
    code, report = _run_main(argv, tmp_path)
    checks = report["checks"]
    assert checks
    for check in checks:
        assert type(check["name"]) is str and type(check["passed"]) is bool
        details = {k: v for k, v in check.items() if k not in ("name", "passed")}
        assert _is_plain(details), check
    assert report["passed"] is all(c["passed"] for c in checks)
    assert code == (0 if report["passed"] else 2)


SCALED_TABLE = [[1e8, 3e7], [3e7, 2e8]]


def test_factorize_judges_the_residual_relative_to_the_gram_norm():
    report, code = cli.run(cli.parse_config(_table_config("factorize", SCALED_TABLE)))
    (check,) = [c for c in report["checks"] if c["name"] == "parseval-reconstruction"]
    # The absolute residual is above FACTORIZATION_TOL; relative to ||G||_2 it is rounding.
    assert check["residual"] > check["tolerance"]
    assert check["relative_residual"] <= 1e-14
    assert code == 0


def test_factorize_fails_a_frame_of_eigenvalues_planted_for_their_roots(monkeypatch):
    # kb factorize's one check can read false: with frame columns lam v in
    # place of sqrt(lam) v, the frame no longer reconstructs the Gram.
    from kboundary import kernels

    factor = kernels._factor
    monkeypatch.setattr(kernels, "_factor", lambda lam, v, keep: factor(lam**2, v, keep))
    report, code = cli.run(cli.parse_config(_table_config("factorize", SCALED_TABLE)))
    assert code == 2
    assert [(c["name"], c["passed"]) for c in report["checks"]] == [
        ("parseval-reconstruction", False)]


@pytest.mark.parametrize("exponent", range(-12, 13))
def test_factorize_verdict_does_not_move_under_rescaling(exponent):
    table = 10.0**exponent * np.array(SCALED_TABLE)
    report, code = cli.run(cli.parse_config(_table_config("factorize", table)))
    assert code == 0, report["checks"]


def test_zero_residual_on_a_zero_gram_passes():
    report, code = cli.run(cli.parse_config(_table_config("factorize", [[0.0]])))
    assert code == 0
    assert report["checks"][0]["relative_residual"] == 0.0
    # Nothing is kept, so no eigenvalue is the smallest kept one.
    assert report["checks"][0]["smallest_kept_eigenvalue"] is None
    assert report["checks"][0]["largest_dropped_eigenvalue"] == 0.0


@pytest.mark.parametrize("command", ["validate", "factorize"])
def test_overflowed_diagnostics_are_null_and_fail(command, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(_table_config(command, [[1e308, 1e308], [1e308, 1e308]])))
    code, report = _run_main([command, "--config", str(config)], tmp_path)
    assert code == 2
    (failed,) = [c for c in report["checks"] if not c["passed"]]
    assert None in failed.values()


def test_renorm_builds_one_kernel_per_gram(monkeypatch):
    builds = []
    post_init = FiniteKernel.__post_init__

    def counting(self):
        builds.append(self)
        post_init(self)

    cfg = cli.parse_config(json.loads((CONFIGS / "renorm_two_atoms.json").read_text()))
    monkeypatch.setattr(FiniteKernel, "__post_init__", counting)
    _, code = cli.run(cfg)
    assert code == 0
    # The Szego kernel and the renormalized one.
    assert len(builds) == 2


def test_factorize_judges_not_psd_by_psd_tol_not_rank_tol(tmp_path, monkeypatch):
    # Rounding leaves an eigenvalue near -4.5e-16 on the all-ones table, which
    # kb validate calls PSD; kb factorize must not call it NotPsd, and neither
    # may parseval_factorize at a zero rank cutoff: NotPsd is judged at PSD_TOL.
    config = _table_config("factorize", np.ones((3, 3)))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code, report = _run_main(["factorize", "--config", str(path)], tmp_path)
    assert code == 0
    assert report["checks"][0]["retained_rank"] == 1
    monkeypatch.setattr(rkhs, "default_rank_tol", lambda n: 0.0)
    assert rkhs.parseval_factorize(FiniteKernel(np.ones((3, 3)))).n_atoms == 1


def test_inner_modulus_fails_when_no_grid_angle_is_judged(tmp_path):
    # An atom on every grid angle leaves no angle MODULUS_MARGIN from the
    # atoms: with no evidence the deviation is NaN, which reads null and fails.
    atoms = ((np.arange(64) + 0.5) / 64).tolist()
    config = {"command": "clark", "measure": {"atoms": atoms, "weights": [1 / 64] * 64},
              "points": [{"re": 0.1}, {"re": -0.2, "im": 0.3}]}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code, report = _run_main(["clark", "--config", str(path)], tmp_path)
    assert code == 2
    (failed,) = [c for c in report["checks"] if not c["passed"]]
    assert (failed["name"], failed["max_deviation"]) == ("inner-modulus", None)


def test_not_psd_message_prints_a_plain_float(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(_table_config("factorize", [[1.0, 2.0], [2.0, 1.0]])))
    assert cli.main(["factorize", "--config", str(path)]) == 1
    assert capsys.readouterr().err == "kb: NotPsd: eigenvalue -1.0 negative beyond tolerance\n"


def test_overflowing_factorize_leaves_stderr_empty(tmp_path, capfd):
    # A child process, so that numpy's warnings reach the real stderr rather
    # than pytest's warning capture.
    config = tmp_path / "config.json"
    config.write_text(json.dumps(_table_config("factorize", [[1e308, 1e308], [1e308, 1e308]])))
    out = tmp_path / "report.json"
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-m", "kboundary.cli", "factorize", "--config",
                           str(config), "--out", str(out)], env=env)
    assert proc.returncode == 2
    assert capfd.readouterr().err == ""
    (check,) = [c for c in json.loads(out.read_text())["checks"]
                if c["name"] == "parseval-reconstruction"]
    assert check["relative_residual"] is None and check["passed"] is False
    # ||G||_2 overflows, so the frame is empty and the residual is max |G_ij|.
    assert check["residual"] == 1e308


def _collapse_config(rng, scale):
    """A morphism-check config of a random valid collapse: each target weight
    is the sum of the source weights mapped onto it, all times ``scale``."""
    m_target = int(rng.integers(1, 5))
    m_source = m_target + int(rng.integers(0, 4))
    idx = np.concatenate([np.arange(m_target), rng.integers(0, m_target, m_source - m_target)])
    w_source = rng.uniform(0.1, 1.0, m_source) * scale
    w_target = np.zeros(m_target)
    np.add.at(w_target, idx, w_source)
    features = rng.standard_normal((2, m_target))
    return {"command": "morphism-check", "seed": int(rng.integers(1000)), "morphism": {
        "source": {"atoms": [f"s{i}" for i in range(m_source)], "weights": w_source.tolist()},
        "target": {"atoms": [f"t{j}" for j in range(m_target)], "weights": w_target.tolist()},
        "map": {f"s{i}": f"t{j}" for i, j in enumerate(idx)},
        "target_features": [[{"re": float(v)} for v in row] for row in features],
    }}


@pytest.mark.parametrize("scale", [1e-4, 1.0, 1e4, 1e8])
def test_pullback_isometry_verdict_does_not_depend_on_weight_units(scale):
    rng = np.random.default_rng(0)  # the same 200 morphisms at every scale
    for _ in range(200):
        report, _ = cli.run(cli.parse_config(_collapse_config(rng, scale)))
        (check,) = [c for c in report["checks"] if c["name"] == "pullback-isometry"]
        assert check["passed"], check


@pytest.mark.parametrize("weight, feature, code, err", [
    (1e308, 1.0, 2, ""),
    (1.0, 1e200, 1, "kb: DomainViolation: gram entries must be finite\n"),
], ids=["weights-1e308", "features-1e200"])
def test_overflowing_morphism_check_fails_without_numpy_warnings(weight, feature, code, err,
                                                                 tmp_path, capsys):
    one_atom = {"atoms": ["a"], "weights": [weight]}
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"command": "morphism-check", "morphism": {
        "source": one_atom, "target": one_atom, "map": {"a": "a"},
        "target_features": [[{"re": feature}]]}}))
    out = tmp_path / "report.json"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(["morphism-check", "--config", str(config), "--out", str(out)]) == code
    assert caught == [] and capsys.readouterr().err == err
    if code == 2:
        # The overflowed norms give a NaN residual, which must reach the check.
        (check,) = [c for c in json.loads(out.read_text())["checks"]
                    if c["name"] == "pullback-isometry"]
        assert check == {"name": "pullback-isometry", "passed": False, "max_residual": None}


def test_clark_factorizes_atoms_closer_than_1e_15(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"command": "clark",
                                  "measure": {"atoms": [0.0, 1e-16], "weights": [0.5, 0.5]}}))
    code, report = _run_main(["clark", "--config", str(config)], tmp_path)
    assert capsys.readouterr().err == ""
    checks = {c["name"]: c for c in report["checks"]}
    assert checks["factorization-residual"]["passed"]
    # The two features agree to rounding, so the feature rank is 1 and the
    # minimality verdict, not a lookup error, decides the exit code.
    assert checks["minimality"]["feature_rank"] == 1 and code == 2


def test_verify_all_judges_residuals_on_the_kernels_scale(tmp_path):
    # The seed draws kernels whose dropped eigenvalues leave a residual
    # above the bound in absolute terms (1.63e-10 at ||G||_2 = 72.5), but
    # within it relative to the kernel.
    code, report = _run_main(["verify-all", "--seed", "2307"], tmp_path)
    (check,) = [c for c in report["checks"] if c["name"] == "parseval-reconstruction"]
    assert check["passed"] and code == 0


def test_transform_isometry_is_judged_relative_to_the_elements_norm(monkeypatch):
    # Features scaled by 1e3 scale ||f||^2 by 1e6, and the absolute isometry
    # deviation with it, above the 1e-9 bound; relative to ||f||^2 it is
    # rounding.
    from kboundary import factorization, rkhs, selfcheck

    random_stack, seen = selfcheck._random_feature_stack, {}

    def large(rng, count):
        phi, w, points, atoms = random_stack(rng, count)
        return 1e3 * phi, w, points, atoms

    def recorded(name, func):
        def wrapped(*args):
            seen[name] = func(*args)
            return seen[name]

        return wrapped

    monkeypatch.setattr(selfcheck, "_random_feature_stack", large)
    monkeypatch.setattr(factorization, "_l2_norm_squared",
                        recorded("l2", factorization._l2_norm_squared))
    monkeypatch.setattr(rkhs, "_norm_squared", recorded("norm", rkhs._norm_squared))
    assert selfcheck.check_transform_pair(seed=0).passed
    assert np.abs(seen["l2"] - seen["norm"]).max() > 1e-9


def test_schwarz_equality_is_judged_relative_to_its_own_scale(monkeypatch):
    # Features scaled by 1e-3 make |rhs| << 1, and a V shrunk by 1e-6 breaks
    # the equality case by 2e-6 relative, an error a max(1, |rhs|) floor hid.
    # Shrunk, not grown: a grown V would also break the bound on one-atom draws.
    # The shrink is planted in the library's V core, which the criterion's
    # stack must go through.
    from kboundary import factorization, selfcheck

    random_stack, apply_V = selfcheck._random_feature_stack, factorization._apply_V

    def small(rng, count):
        phi, w, points, atoms = random_stack(rng, count)
        return 1e-3 * phi, w, points, atoms

    monkeypatch.setattr(selfcheck, "_random_feature_stack", small)
    assert selfcheck.check_schwarz_bound(seed=0).passed
    monkeypatch.setattr(factorization, "_apply_V",
                        lambda *args: (1.0 - 1e-6) * apply_V(*args))
    check = selfcheck.check_schwarz_bound(seed=0)
    assert not check.passed and check.details["violations"] == 0
    assert check.details["max_equality_deviation"] > 1e-6


def test_verify_all_raises_the_error_of_the_lowest_index(monkeypatch, capsys):
    from kboundary import selfcheck
    from kboundary.errors import DomainViolation, NotPsd

    def raises(error):
        def criterion(seed):
            raise error

        return criterion

    criteria = [lambda seed: Check("passes", True, {"seed": seed})] * 10
    criteria[1] = raises(NotPsd("the lower index"))
    criteria[8] = raises(DomainViolation("the higher index"))
    monkeypatch.setattr(selfcheck, "ALL_CHECKS", tuple(criteria))
    assert cli.main(["verify-all", "--seed", "0"]) == 1
    assert capsys.readouterr() == ("", "kb: NotPsd: the lower index\n")


def _projector_without_conjugate_transpose(vectors, keep):
    v = vectors * keep[..., None, :]
    return v @ v


def _range_projection_conjugated_backwards(projector, weights):
    # D^(1/2) S D^(-1/2): still idempotent, but not mu-self-adjoint unless
    # the weights are equal.
    sqrt_w = np.sqrt(weights)
    return projector * sqrt_w[..., :, None] / sqrt_w[..., None, :]


def test_kb_factorize_reads_its_psd_verdict_from_the_core(monkeypatch, tmp_path, capsys):
    # The lone readers go through the cores that verify-all's stacks call: a
    # PSD verdict planted false in kernels._is_psd reaches kb factorize.
    from kboundary import kernels

    monkeypatch.setattr(kernels, "_is_psd", lambda values: np.zeros(values.shape[:-1], bool))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(_table_config("factorize", SCALED_TABLE)))
    assert cli.main(["factorize", "--config", str(path)]) == 1
    assert capsys.readouterr().err.startswith("kb: NotPsd: eigenvalue ")


def test_a_lone_isometry_check_reads_its_projector_from_the_core(monkeypatch):
    # feature_projector goes through kernels._projector, as the stacked
    # transform-pair criterion does.
    from kboundary import factorization, kernels

    rng = np.random.default_rng(0)
    A = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    K = FiniteKernel(gram=A @ np.conj(A).T)
    assert factorization.check_isometry(rkhs.parseval_factorize(K))["projection_residual"] <= 1e-9
    monkeypatch.setattr(kernels, "_projector", _projector_without_conjugate_transpose)
    assert factorization.check_isometry(rkhs.parseval_factorize(K))["projection_residual"] > 1e-9


def _features_over_conj_mean(renormalize):
    def defect(*args):
        E, gram, features = renormalize(*args)
        return E, gram, features * (E / np.conj(E))[..., :, None]

    return defect


@pytest.mark.parametrize("module, core, defect, criteria, seed", [
    ("factorization", "_apply_V", lambda apply_V: lambda phi, w, g: apply_V(np.conj(phi), w, g),
     ["schwarz_bound", "transform_pair"], 0),
    ("factorization", "_l2_norm_squared", lambda l2: lambda w, g: l2(np.ones_like(w), g),
     ["schwarz_bound", "transform_pair"], 0),
    ("kernels", "_factor", lambda factor: lambda lam, v, keep: factor(lam**2, v, keep),
     ["parseval_reconstruction"], 0),
    ("kernels", "_projector", lambda _: _projector_without_conjugate_transpose,
     ["transform_pair"], 0),
    ("factorization", "_range_projection", lambda _: _range_projection_conjugated_backwards,
     ["transform_pair"], 0),
    # A projector onto D^(1/2) span{k_s}, the wrong range: it is still an
    # idempotent, mu-self-adjoint projection, so only P k_s = k_s sees it.
    ("factorization", "_feature_gram", lambda gram: lambda phi, w: gram(phi, w**2),
     ["transform_pair"], 0),
    ("clark", "_renormalize", _features_over_conj_mean, ["renormalization"], 0),
    # A 1e-3 cutoff shows only on a corpus holding a measure whose monomial
    # matrix has sigma_min < 1e-3 sigma_max: about a third of the seeds (38
    # of seeds 0..99), and seed 1 but not seed 0.
    ("kernels", "_rank", lambda rank: lambda svals, rtol: rank(svals, 1e-3),
     ["polydisk_density"], 1),
    ("clark", "_monomial_rows", lambda rows: lambda *args: rows(*args)[..., 1:, :],
     ["polydisk_density"], 0),
], ids=["V-without-conjugate", "L2-norm-without-weights", "factor-lambda-not-sqrt-lambda",
        "projector-without-conjugate-transpose", "range-projection-D-half-swapped",
        "feature-gram-weights-squared", "kren-features-over-conj-E",
        "rank-cutoff-1e-3", "first-monomial-row-dropped"])
def test_schwarz_bound_fails_a_defect_planted_in_a_library_core(monkeypatch, module, core,
                                                                defect, criteria, seed):
    # A table over the shared array cores: each defect must fail every
    # criterion named beside it, on the seed beside it.  The criteria run
    # their corpora through these cores; a criterion with its own copy of a
    # formula would pass.
    from kboundary import selfcheck

    target = importlib.import_module(f"kboundary.{module}")
    monkeypatch.setattr(target, core, defect(getattr(target, core)))
    for name in criteria:
        assert not getattr(selfcheck, f"check_{name}")(seed=seed).passed, name


def _quotient_over_E_Et(renormalize):
    def defect(features, weights, gram):
        E, _, kren_features = renormalize(features, weights, gram)
        return E, _hermitian_mirror(gram / (E[..., :, None] * E[..., None, :])), kren_features

    return defect


def _conjugated_means(renormalize):
    def defect(*args):
        E, gram, features = renormalize(*args)
        return np.conj(E), gram, features

    return defect


@pytest.mark.parametrize("defect, failed", [
    (_features_over_conj_mean, ["renormalized-identity"]),
    (_quotient_over_E_Et, ["renormalized-identity", "renormalized-psd"]),
    (_conjugated_means, ["inverse-mean-matches-b"]),
], ids=["features-over-conj-E", "quotient-over-E-E-transpose", "expectations-conjugated"])
def test_each_renorm_check_fails_a_defect_planted_in_renormalize(monkeypatch, defect, failed):
    from kboundary import clark

    cfg = cli.parse_config(json.loads((CONFIGS / "renorm_two_atoms.json").read_text()))
    monkeypatch.setattr(clark, "_renormalize", defect(clark._renormalize))
    report, code = cli.run(cfg)
    assert code == 2
    assert [c["name"] for c in report["checks"] if not c["passed"]] == failed


def _poisoned(func, at, poison):
    """``func``, with ``poison`` applied to the result of its call number ``at``."""
    calls = itertools.count()

    def wrapped(*args, **kwargs):
        out = func(*args, **kwargs)
        return poison(out) if next(calls) == at else out

    return wrapped


def _nan_corner(a):
    a = np.array(a)
    a[..., 0, 0] = np.nan
    return a


def _nan_first(a):
    a = np.array(a)
    a.flat[0] = np.nan
    return a


def _nan_third(a):
    # The third measure of a stacked criterion: a NaN after the first value.
    a = np.array(a)
    a[2] = np.nan
    return a


@pytest.mark.parametrize("criterion, module, name, at, poison, detail", [
    ("parseval_reconstruction", "factorization", "_induced_gram", 4, _nan_corner,
     "max_residual"),
    ("transform_pair", "factorization", "_l2_norm_squared", 0, _nan_first,
     "max_isometry_residual"),
    ("clark_exactness", "factorization", "verify_factorization", 1, lambda _: math.nan,
     "max_factorization_residual"),
    ("poisson_herglotz", "selfcheck", "herglotz_error", 0, _nan_third, "max_abs_error"),
    ("inner_modulus", "selfcheck", "modulus_deviation", 0, _nan_third, "max_deviation"),
    ("renormalization", "factorization", "_residual", 2, _nan_first, "max_identity_residual"),
    ("renormalization", "clark", "_renormalize", 2, lambda out: (_nan_first(out[0]), *out[1:]),
     "min_expectation_modulus"),
    ("renormalization", "selfcheck", "inverse_mean_error", 0, _nan_third,
     "max_cross_check_error"),
    ("gaussian_realization", "selfcheck", "moment_errors", 1,
     lambda out: (math.nan, *out[1:]), "max_covariance_error"),
], ids=["parseval-residual", "transform-isometry", "clark-residual", "herglotz-error",
        "modulus-deviation", "renorm-residual", "renorm-expectation", "renorm-cross-check",
        "gaussian-covariance"])
def test_a_nan_in_a_criterions_corpus_reads_null_and_fails(monkeypatch, criterion, module,
                                                           name, at, poison, detail):
    # The builtin max and min drop a NaN met after the first value; the
    # criteria reduce with NaN-propagating numpy reductions instead.
    from kboundary import selfcheck

    target = importlib.import_module(f"kboundary.{module}")
    monkeypatch.setattr(target, name, _poisoned(getattr(target, name), at, poison))
    check = getattr(selfcheck, f"check_{criterion}")(seed=0)
    assert check.as_json()[detail] is None and not check.passed


def test_a_non_psd_kernel_in_the_random_corpus_raises_not_psd(monkeypatch):
    from kboundary import NotPsd, selfcheck

    draw = selfcheck._random_psd_grams
    monkeypatch.setattr(selfcheck, "_random_psd_grams", _poisoned(
        draw, 0, lambda grams: [-g if i == 6 else g for i, g in enumerate(grams)]))
    with pytest.raises(NotPsd):
        selfcheck.check_parseval_reconstruction(seed=0)


def test_a_factor_off_its_kernel_fails_parseval_reconstruction(monkeypatch):
    # 1e-6 off in every kept column: far above the criterion's 1e-10 of ||G||_2.
    from kboundary import kernels, selfcheck

    factor = kernels._factor
    monkeypatch.setattr(kernels, "_factor", lambda *args: (1.0 + 1e-6) * factor(*args))
    assert not selfcheck.check_parseval_reconstruction(seed=0).passed


def test_random_kernel_criteria_build_no_object_per_kernel(monkeypatch):
    from kboundary import BoundaryFactorization, DiscreteMeasure, RkhsElement, selfcheck

    built = []
    for cls in (FiniteKernel, BoundaryFactorization, RkhsElement, DiscreteMeasure):
        monkeypatch.setattr(cls, "__post_init__",
                            lambda self, post_init=cls.__post_init__: (built.append(self),
                                                                       post_init(self))[1])
    assert selfcheck.check_parseval_reconstruction(seed=0).passed
    assert selfcheck.check_transform_pair(seed=0).passed
    assert selfcheck.check_polydisk_density(seed=0).passed
    assert selfcheck.check_poisson_herglotz(seed=0).passed
    assert built == []
    assert selfcheck.check_inner_modulus(seed=0).passed
    assert selfcheck.check_renormalization(seed=0).passed
    # Only the worked examples: the point mass and the two-atom measure of
    # inner-modulus, and renormalization's measure with the kernel and
    # factorization of F and of its renormalization; none of the 20 random
    # circle measures, the 100 random factorizations or the 10 Szego
    # cross-checks.
    assert collections.Counter(type(x).__name__ for x in built) == {
        "CircleMeasure": 2, "DiscreteMeasure": 1, "FiniteKernel": 2,
        "BoundaryFactorization": 2}


def test_morphism_checker_isometry_residual_shows_rounding():
    from kboundary.selfcheck import ISOMETRY_TOL, check_morphism_examples

    check = check_morphism_examples(seed=0)
    assert check.passed
    assert 0.0 < check.details["max_isometry_residual"] <= ISOMETRY_TOL
