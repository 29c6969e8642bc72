"""One check record: the ``Check`` every pipeline and criterion returns, the
report shape it gives, and the verdicts that depend on it."""

import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from kboundary import FiniteKernel, cli
from kboundary.check import Check

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
    # The absolute residual is above fact_tol; relative to ||G||_2 it is rounding.
    assert check["residual"] > check["tolerance"]
    assert check["relative_residual"] <= 1e-14
    assert code == 0


@pytest.mark.parametrize("exponent", range(-12, 13))
def test_factorize_verdict_does_not_move_under_rescaling(exponent):
    table = 10.0**exponent * np.array(SCALED_TABLE)
    report, code = cli.run(cli.parse_config(_table_config("factorize", table)))
    assert code == 0, report["checks"]


def test_zero_residual_on_a_zero_gram_passes():
    report, code = cli.run(cli.parse_config(_table_config("factorize", [[0.0]])))
    assert code == 0
    assert report["checks"][0]["relative_residual"] == 0.0


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


def test_factorize_judges_not_psd_by_psd_tol_not_rank_tol(tmp_path):
    # Rounding leaves an eigenvalue near -4.5e-16 on the all-ones table, which
    # kb validate calls PSD; a zero rank_tol must not make it NotPsd.
    config = _table_config("factorize", np.ones((3, 3)))
    config["tolerances"] = {"rank_tol": 0}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code, report = _run_main(["factorize", "--config", str(path)], tmp_path)
    assert code == 0
    assert report["checks"][0]["retained_rank"] == 1


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


@pytest.mark.parametrize("seed, name", [
    (87264865, "parseval-reconstruction"),
    (2091079095, "transform-pair"),
], ids=["parseval-reconstruction", "transform-pair"])
def test_verify_all_judges_residuals_on_the_kernels_scale(seed, name, tmp_path):
    # Each seed draws a kernel whose dropped eigenvalues leave a residual
    # above the bound in absolute terms (2.4e-10 at ||G||_2 = 58.5, and a
    # 2.3e-9 isometry deviation), but within it relative to the kernel.
    code, report = _run_main(["verify-all", "--seed", str(seed)], tmp_path)
    (check,) = [c for c in report["checks"] if c["name"] == name]
    assert check["passed"] and code == 0


def test_schwarz_equality_is_judged_relative_to_its_own_scale(monkeypatch):
    # Features scaled by 1e-3 make |rhs| << 1, and a V shrunk by 1e-6 breaks
    # the equality case by 2e-6 relative, an error a max(1, |rhs|) floor hid.
    # Shrunk, not grown: a grown V would also break the bound on one-atom draws.
    from kboundary import factorization, selfcheck

    random_factorization, apply_V = selfcheck._random_feature_factorization, factorization.apply_V

    def small(rng, mean_shift=0.0):
        F = random_factorization(rng, mean_shift)
        return factorization.BoundaryFactorization.induced(F.measure, 1e-3 * F.features)

    monkeypatch.setattr(selfcheck, "_random_feature_factorization", small)
    assert selfcheck.check_schwarz_bound(seed=0).passed
    monkeypatch.setattr(factorization, "apply_V", lambda F, g: (1.0 - 1e-6) * apply_V(F, g))
    check = selfcheck.check_schwarz_bound(seed=0)
    assert not check.passed and check.details["violations"] == 0
    assert check.details["max_equality_deviation"] > 1e-6


def test_morphism_checker_isometry_residual_shows_rounding():
    from kboundary.selfcheck import ISOMETRY_TOL, check_morphism_examples

    check = check_morphism_examples(seed=0)
    assert check.passed
    assert 0.0 < check.details["max_isometry_residual"] <= ISOMETRY_TOL
