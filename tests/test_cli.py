import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from kboundary import cli
from kboundary.errors import ConfigError

SZEGO_VALIDATE = {
    "command": "validate",
    "kernel": {"variant": "szego"},
    "points": [
        {"re": 0.0},
        {"re": 0.2},
        {"re": 0.4},
        {"re": 0.0, "im": 0.3},
        {"re": -0.5, "im": 0.1},
    ],
    "seed": 7,
}

CLARK_TWO_ATOMS = {
    "command": "clark",
    "measure": {"atoms": [0.0, 0.5], "weights": [0.5, 0.5]},
    "sample_count": 50,
    "seed": 11,
}


class TestParseConfig:
    def test_unknown_fields_rejected(self):
        with pytest.raises(ConfigError):
            cli.parse_config({"command": "validate", "bogus": 1})

    def test_nested_unknown_fields_rejected(self):
        cfg = dict(SZEGO_VALIDATE)
        cfg["kernel"] = {"variant": "szego", "oops": True}
        with pytest.raises(ConfigError):
            cli.parse_config(cfg)

    def test_command_mismatch(self):
        with pytest.raises(ConfigError):
            cli.parse_config(SZEGO_VALIDATE, command="factorize")

    def test_negative_tolerance_rejected(self):
        cfg = dict(SZEGO_VALIDATE)
        cfg["tolerances"] = {"psd_tol": -1.0}
        with pytest.raises(ConfigError):
            cli.parse_config(cfg)

    def test_missing_requirements_surface_as_config_errors(self):
        cfg = cli.parse_config({"command": "clark", "seed": 0})
        with pytest.raises(ConfigError):
            cli.run(cfg)

    def test_shipped_schema_matches_its_metaschema(self):
        schema = cli.load_schema()
        jsonschema.validators.validator_for(schema).check_schema(schema)

    @pytest.mark.parametrize(
        "config",
        [
            {"command": "validate", "bogus": 1},
            {"command": "validate", "kernel": {"variant": "bergman"}},
            {
                "command": "validate",
                "kernel": {"variant": "table", "table": [[{"re": 1.0}, {"re": "x"}]]},
            },
        ],
        ids=["unknown-field", "bad-enum", "non-number-in-table-cnum"],
    )
    def test_schema_errors_carry_the_jsonschema_message(self, config):
        with pytest.raises(jsonschema.ValidationError) as reference:
            jsonschema.validate(instance=config, schema=cli.load_schema())
        with pytest.raises(ConfigError) as raised:
            cli.parse_config(config)
        assert str(raised.value) == f"config does not match schema: {reference.value.message}"


@pytest.mark.parametrize(
    "mat",
    [
        np.array([[-0.0, 5e-324], [1e300, -1e300]]),
        np.array(
            [
                [complex(-0.0, -0.0), complex(0.0, 5e-324), complex(1e300, -5e-324)],
                [complex(-5e-324, -1e300), complex(0.5, 0.25), complex(1e300, -0.0)],
            ]
        ),
        np.array([complex(1.0, -0.0), complex(5e-324, 1e300)]),
    ],
    ids=["real", "complex", "vector"],
)
def test_matrix_to_json_matches_per_entry_conversion(mat):
    per_entry = [
        [{"re": float(np.real(z)), "im": float(np.imag(z))} for z in row]
        for row in np.atleast_2d(np.asarray(mat, dtype=complex))
    ]
    assert json.dumps(cli._matrix_to_json(mat)) == json.dumps(per_entry)


class TestPipelines:
    def test_validate_szego_grid(self):
        report, code = cli.run(cli.parse_config(SZEGO_VALIDATE))
        assert code == 0
        assert report["passed"]
        assert report["checks"][0]["name"] == "positive-definite"

    def test_clark_two_atom_measure(self):
        report, code = cli.run(cli.parse_config(CLARK_TWO_ATOMS))
        assert code == 0
        by_name = {c["name"]: c for c in report["checks"]}
        assert by_name["factorization-residual"]["residual"] <= 1e-10
        assert by_name["minimality"]["passed"]

    def test_check_failure_exit_code(self):
        config = {
            "command": "validate",
            "kernel": {
                "variant": "table",
                "table": [
                    [{"re": 1.0}, {"re": 2.0}],
                    [{"re": 2.0}, {"re": 1.0}],
                ],
            },
        }
        report, code = cli.run(cli.parse_config(config))
        assert code == 2
        assert not report["passed"]

    def test_verify_all_smoke(self):
        report, code = cli.run(
            cli.parse_config({"command": "verify-all", "seed": 20260809})
        )
        assert code == 0
        assert len(report["checks"]) == 10


class TestEmit:
    def _report(self):
        report, _ = cli.run(cli.parse_config(SZEGO_VALIDATE))
        return report

    def test_json_round_trip(self):
        report = self._report()
        assert cli.parse_report(cli.emit(report, "json")) == report

    def test_json_stable_key_order(self):
        report = self._report()
        assert cli.emit(report, "json") == cli.emit(json.loads(json.dumps(report)), "json")

    def test_report_without_matrices_is_valid_json(self):
        report, _ = cli.run(
            cli.parse_config(
                {
                    "command": "morphism-check",
                    "morphism": {
                        "source": {"atoms": ["a"], "weights": [1.0]},
                        "target": {"atoms": ["a"], "weights": [1.0]},
                        "map": {"a": "a"},
                        "target_features": [[{"re": 1.0}]],
                    },
                }
            )
        )
        parsed = cli.parse_report(cli.emit(report, "json"))
        assert parsed["matrices"] == {}
        assert parsed["command"] == "morphism-check"

    def test_csv_two_by_two_gives_four_rows(self):
        config = {
            "command": "factorize",
            "kernel": {
                "variant": "table",
                "table": [
                    [{"re": 2.0}, {"re": 1.0}],
                    [{"re": 1.0}, {"re": 2.0}],
                ],
            },
        }
        report, _ = cli.run(cli.parse_config(config))
        blob = cli.emit(report, "csv").decode()
        data_rows = [
            line
            for line in blob.splitlines()
            if line and not line.startswith("#") and line != "i,j,re,im"
        ]
        assert len(data_rows) == 4
        assert "i,j,re,im" in blob


class TestMainEntry:
    def test_malformed_json_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert cli.main(["validate", "--config", str(bad)]) == 1
        assert "config error" in capsys.readouterr().err

    def test_missing_file_exits_one(self, tmp_path):
        assert cli.main(["validate", "--config", str(tmp_path / "none.json")]) == 1

    def test_validate_via_main(self, tmp_path, capsys):
        path = tmp_path / "job.json"
        path.write_text(json.dumps(SZEGO_VALIDATE))
        assert cli.main(["validate", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        assert json.loads(out)["passed"]

    def test_out_file_and_seed_override(self, tmp_path):
        path = tmp_path / "job.json"
        path.write_text(json.dumps(CLARK_TWO_ATOMS))
        out = tmp_path / "report.json"
        assert (
            cli.main(
                ["clark", "--config", str(path), "--seed", "99", "--out", str(out)]
            )
            == 0
        )
        report = json.loads(out.read_text())
        assert report["seed_record"]["seed"] == 99

    def test_installed_module_entry(self, tmp_path):
        path = tmp_path / "job.json"
        path.write_text(json.dumps(SZEGO_VALIDATE))
        # The child imports the package under test, also when only pytest's
        # pythonpath setting (not PYTHONPATH) puts it on the path.
        package_root = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "kboundary.cli", "validate", "--config", str(path)],
            capture_output=True,
            env=env,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["passed"]


def _strip_timing(report: dict) -> dict:
    clean = dict(report)
    clean.pop("timing", None)
    return clean


def test_reports_are_deterministic_for_fixed_config_and_seed():
    r1, _ = cli.run(cli.parse_config(CLARK_TWO_ATOMS))
    r2, _ = cli.run(cli.parse_config(CLARK_TWO_ATOMS))
    assert cli.emit(_strip_timing(r1)) == cli.emit(_strip_timing(r2))
