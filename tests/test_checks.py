"""One check record: the ``Check`` every pipeline and criterion returns, the
report shape it gives, and the verdicts that depend on it."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from kboundary import FiniteKernel, cli
from kboundary.selfcheck import Check

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
    assert check["residual"] is None
