import collections
import copy
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kboundary import cli
from kboundary.errors import ConfigError, KernelBoundaryError
from kboundary.check import Check

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

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

ONE_ATOM = {"atoms": ["a"], "weights": [1.0]}
EMPTY_MEASURE = {"atoms": [], "weights": []}


def _morphism_config(**features):
    return {
        "command": "morphism-check",
        "morphism": {"source": ONE_ATOM, "target": ONE_ATOM, "map": {"a": "a"}, **features},
    }


JSON_SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=2)
CNUM_LIKE = st.dictionaries(
    st.sampled_from(["re", "im", "x"]), st.integers() | st.floats() | JSON_SCALARS, max_size=3
)
JSON_VALUES = st.recursive(
    JSON_SCALARS | CNUM_LIKE,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["re", "im", "x", ""]), inner, max_size=3),
    max_leaves=8,
)
# Arbitrary JSON, biased toward arrays that are, or are nearly, cnum arrays.
CNUM_ARRAYS = JSON_VALUES | st.lists(
    st.lists(CNUM_LIKE, min_size=1, max_size=3) | CNUM_LIKE | JSON_VALUES, max_size=4
)


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

    def test_output_format_is_an_unknown_field(self):
        with pytest.raises(ConfigError, match=r"Additional properties are not allowed "
                                              r"\('format' was unexpected\)"):
            cli.parse_config({"command": "validate", "output": {"format": "json"}})

    @pytest.mark.parametrize("count", [2**53 + 1, 10**400, 1e308],
                             ids=["two-to-the-53-plus-one", "integer-beyond-floats", "1e308"])
    def test_sample_count_beyond_two_to_the_53_is_rejected(self, count):
        """Before the cap, such a count ran gaussian-sample without end and
        raised a numpy ValueError in clark and renorm."""
        with pytest.raises(ConfigError, match="is greater than the maximum of 9007199254740992"):
            cli.parse_config({"command": "clark", "sample_count": count})
        assert cli.parse_config({"command": "clark", "sample_count": 2**53}).sample_count == 2**53

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
            {"command": "validate", "points": [{"re": 0.1}, {"re": 0.2, "im": None}]},
            {"command": "validate", "points": [[{"re": 0.1}], [{"re": 0.2}, {"im": "x"}]]},
            {"command": "validate", "points": [[{"re": 0.1}], []]},
            {"command": "validate", "points": [{"re": 0.1}, {"re": True}]},
            {"command": "validate", "points": [{"re": 0.1, "im": 0.0, "phase": 1.0}]},
            {"command": "validate", "points": [{"re": 0.1}, {"im": 0.5}]},
            {"command": "validate", "kernel": {"variant": "table", "table": {"re": 1.0}}},
            {"command": "validate", "kernel": {"variant": "table", "table": [{"re": 1.0}]}},
            _morphism_config(target_features=[[{"re": 1.0}], [{"re": [1.0]}]]),
            _morphism_config(
                target_features=[[{"re": 1.0}]], source_features=[[{"re": 1.0, "img": 0.0}]]
            ),
            _morphism_config(source=EMPTY_MEASURE, target=EMPTY_MEASURE, map={},
                             target_features=[]),
        ],
        ids=[
            "unknown-field",
            "bad-enum",
            "non-number-in-table-cnum",
            "bad-cnum-in-scalar-points",
            "bad-cnum-in-tuple-points",
            "empty-tuple-point",
            "bool-re",
            "cnum-extra-key",
            "cnum-missing-re",
            "table-not-a-list",
            "table-row-not-a-list",
            "bad-cnum-in-target-features",
            "bad-cnum-in-source-features",
            "empty-discrete-measures",
        ],
    )
    def test_schema_errors_carry_the_jsonschema_message(self, config):
        with pytest.raises(jsonschema.ValidationError) as reference:
            jsonschema.validate(instance=config, schema=cli.load_schema())
        with pytest.raises(ConfigError) as raised:
            cli.parse_config(config)
        assert str(raised.value) == f"config does not match schema: {reference.value.message}"

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_cnum_screen_agrees_with_jsonschema(self, data):
        config = data.draw(
            st.sampled_from(
                [
                    lambda v: {"command": "validate", "kernel": {"variant": "szego"}, "points": v},
                    lambda v: {"command": "validate", "kernel": {"variant": "table", "table": v}},
                    lambda v: _morphism_config(target_features=v),
                    lambda v: _morphism_config(target_features=[], source_features=v),
                ]
            )
        )(data.draw(CNUM_ARRAYS))
        try:
            jsonschema.validate(instance=config, schema=cli.load_schema())
            expected = None
        except jsonschema.ValidationError as exc:
            expected = f"config does not match schema: {exc.message}"
        try:
            cli.parse_config(config)
            got = None
        except KernelBoundaryError as exc:
            got = str(exc)
        if expected is None:
            assert got is None or not got.startswith("config does not match schema")
        else:
            assert got == expected


WORKED_CONFIGS = {path.stem: json.loads(path.read_text())
                  for path in sorted(CONFIGS.glob("*.json"))}
# Valid configs that between them reach every part of the schema.
VALID_CONFIGS = [
    *WORKED_CONFIGS.values(),
    SZEGO_VALIDATE,
    CLARK_TWO_ATOMS,
    TABLE_AND_POINTS := {
        "command": "factorize",
        "kernel": {"variant": "table", "table": [[{"re": 2}, {"re": 1.0, "im": -0.5}],
                                                 [{"re": 1.0, "im": 0.5}, {"re": 2.0}]]},
        "points": [[{"re": 0.1}, {"re": 0, "im": 0.2}], [{"re": 0.3}, {"re": -0.1}]],
        "tolerances": {"psd_tol": 0, "fact_tol": 1e-9, "rank_tol": 1e-12},
        "sample_count": 3,
        "seed": 0,
        "output": {"path": "r.json"},
    },
    {
        "command": "validate",
        "kernel": {"variant": "debranges-rovnyak", "dim": 2,
                   "measure": {"atoms": [0.0, 1], "weights": [0.5, 0.5]}},
        "measure": {"atoms": [], "weights": []},
    },
    FEATURES := _morphism_config(target_features=[[{"re": 1.0}]],
                                 source_features=[[{"re": -1, "im": 0}]]),
]


def _accepts(config) -> bool:
    """The acceptor's answer: the cnum screen, then ``_proves`` on its view."""
    view, _ = cli._screen_cnum_arrays(config)
    return cli._proves(view, cli._schema())


def _paths(obj, prefix=()):
    """Every path (a tuple of keys and indices) into ``obj``, the root first."""
    yield prefix
    if isinstance(obj, (dict, list)):
        for key, value in obj.items() if isinstance(obj, dict) else enumerate(obj):
            yield from _paths(value, (*prefix, key))


# Values that the acceptor must not take for what the schema asks: bools and
# integral floats for numbers and integers, negatives and NaN against a
# minimum, strings, nulls, and wrongly nested cnums.
SUSPECT_VALUES = st.sampled_from([
    True, False, 0, 1, -1, 1.0, -0.5, 2.0, float("nan"), float("inf"), "", "szego", "table",
    None, [], {}, [{"re": 1.0}], {"re": 1.0}, [[{"re": 1.0}]], {"re": True}, {"im": 1.0},
]) | JSON_SCALARS | CNUM_ARRAYS
NEW_KEYS = st.sampled_from(["re", "im", "x", "seed", "points", "table", "variant", "atoms"])


def _at(obj, path):
    for key in path:
        obj = obj[key]
    return obj


def _mutate(config, data):
    """A copy of ``config`` with one drawn change at one drawn path."""
    root = [copy.deepcopy(config)]
    path = data.draw(st.sampled_from(list(_paths(root[0]))))
    parent, key = (root, 0) if not path else (_at(root[0], path[:-1]), path[-1])
    value = parent[key]
    change = data.draw(st.sampled_from(["set", "delete", "add", "wrap", "unwrap", "subclass"]))
    if change == "set" or (change == "delete" and parent is root):
        parent[key] = data.draw(SUSPECT_VALUES)
    elif change == "delete":
        del parent[key]
    elif change == "add" and isinstance(value, dict):
        value[data.draw(NEW_KEYS)] = data.draw(SUSPECT_VALUES)
    elif change == "wrap":
        parent[key] = [value]
    elif change == "unwrap" and isinstance(value, (dict, list)) and value:
        parent[key] = next(iter(value.values())) if isinstance(value, dict) else value[0]
    elif change == "subclass" and isinstance(value, dict):
        parent[key] = collections.OrderedDict(value)
    elif change == "subclass" and isinstance(value, list):
        parent[key] = tuple(value)
    return root[0]


class TestAcceptor:
    @pytest.mark.parametrize("config", VALID_CONFIGS)
    def test_proves_the_valid_configs(self, config):
        jsonschema.validate(instance=config, schema=cli.load_schema())
        assert _accepts(config)

    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_accepted_configs_are_valid(self, data):
        config = data.draw(st.sampled_from(VALID_CONFIGS))
        for _ in range(data.draw(st.integers(1, 3))):
            config = _mutate(config, data)
        if _accepts(config):
            jsonschema.validate(instance=config, schema=cli.load_schema())

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_accepted_cnum_arrays_are_valid(self, data):
        config = copy.deepcopy(data.draw(st.sampled_from([TABLE_AND_POINTS, FEATURES])))
        holder = config.get("kernel") or config["morphism"]
        for field in ("table", "target_features", "source_features"):
            if field in holder:
                holder[field] = data.draw(CNUM_ARRAYS)
        config["points"] = data.draw(CNUM_ARRAYS)
        if _accepts(config):
            jsonschema.validate(instance=config, schema=cli.load_schema())

    @pytest.mark.parametrize(
        "config",
        [
            {"command": "validate", "seed": True},
            {"command": "validate", "seed": 1.0},
            {"command": "validate", "seed": float("nan")},
            {"command": "validate", "tolerances": {"psd_tol": float("nan")}},
            collections.OrderedDict(command="validate"),
            {"command": "validate", "kernel": collections.OrderedDict(variant="szego")},
            {"command": "validate", "points": [{"re": np.float64(0.5)}]},
        ],
        ids=["bool", "integral-float", "nan-integer", "nan-minimum", "dict-subclass-root",
             "dict-subclass-kernel", "numpy-scalar"],
    )
    def test_leaves_what_it_cannot_prove_to_jsonschema(self, config):
        """jsonschema decides these, so parse_config follows its verdict."""
        assert not _accepts(config)
        error = jsonschema.exceptions.best_match(
            jsonschema.Draft202012Validator(cli.load_schema()).iter_errors(config))
        try:
            cli.parse_config(config)
            got = ""
        except ConfigError as exc:
            got = str(exc)
        if error is None:
            assert not got.startswith("config does not match schema")
        else:
            assert got == f"config does not match schema: {error.message}"

    def test_worked_configs_leave_jsonschema_unloaded(self, tmp_path):
        jobs = [(config["command"], str(CONFIGS / f"{name}.json"), str(tmp_path / f"{name}.json"))
                for name, config in WORKED_CONFIGS.items()]
        rejected = tmp_path / "rejected.json"
        rejected.write_text('{"command": "validate", "seed": -1}')
        code = (
            "import json, sys\n"
            "from kboundary import cli\n"
            "for command, path, out in json.loads(sys.argv[1]):\n"
            "    assert cli.main([command, '--config', path, '--out', out]) in (0, 2), path\n"
            "print('jsonschema' in sys.modules)\n"
            "assert cli.main(['validate', '--config', sys.argv[2]]) == 1\n"
            "print('jsonschema' in sys.modules)\n"
        )
        package_root = str(Path(cli.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-c", code, json.dumps(jobs), str(rejected)],
                              capture_output=True, text=True, check=True,
                              env={**os.environ, "PYTHONPATH": package_root})
        assert proc.stdout.split() == ["False", "True"]


def _reference_vector(cnums) -> np.ndarray:
    """The per-entry decode: complex(_to_float(re), _to_float(im)) of each cnum."""
    return np.array([complex(cli._to_float(z["re"]), cli._to_float(z.get("im", 0.0)))
                     for z in cnums], dtype=complex)


# Parts whose float value is easy to get wrong: signed zeros, subnormals,
# huge values, integers that float() must round, and int/float mixes.
EXACT_PARTS = [-0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300, 2**53 + 1, -(2**53 + 3),
               2**63 + 5, 2**64 + 1, 3, -7, 0.1, 1 / 3]


def _exact_cnum(i: int) -> dict:
    re = EXACT_PARTS[i % len(EXACT_PARTS)]
    if i % 3 == 0:
        return {"re": re}
    return {"re": re, "im": EXACT_PARTS[(5 * i + 1) % len(EXACT_PARTS)]}


class TestDecode:
    def test_table_is_bit_exact(self):
        n = 6
        upper = {(i, j): _exact_cnum(i * n + j) for i in range(n) for j in range(i + 1, n)}

        def entry(i, j):
            if i == j:
                return {"re": EXACT_PARTS[i]}
            if i < j:
                return upper[i, j]
            z = upper[j, i]
            return {"re": z["re"], "im": -z.get("im", 0.0)}

        table = [[entry(i, j) for j in range(n)] for i in range(n)]
        config = {"command": "validate", "kernel": {"variant": "table", "table": table}}
        assert "table" in cli._screen_cnum_arrays(config)[1]
        got = cli.parse_config(config).kernel.gram
        expected = _reference_vector([z for row in table for z in row]).reshape(n, n)
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("dim", [None, 1, 3])
    def test_points_are_bit_exact(self, dim):
        cnums = [_exact_cnum(i) for i in range(2 * len(EXACT_PARTS) * (dim or 1))]
        points = cnums if dim is None else [cnums[k:k + dim] for k in range(0, len(cnums), dim)]
        config = {"command": "validate", "kernel": {"variant": "szego"}, "points": points}
        assert "points" in cli._screen_cnum_arrays(config)[1]
        got = cli.parse_config(config).points.coords
        expected = _reference_vector(cnums).reshape(len(points), -1)
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("field", ["target_features", "source_features"])
    def test_features_are_bit_exact(self, field):
        rows = [[_exact_cnum(3 * i + j) for j in range(3)] for i in range(9)]
        config = _morphism_config(**{"target_features": [[{"re": 1.0}]], field: rows})
        decoded = cli._screen_cnum_arrays(config)[1][field]
        expected = _reference_vector([z for row in rows for z in row])
        assert decoded.tobytes() == expected.tobytes()
        got = cli._parse_matrix(rows, field)
        assert got.tobytes() == expected.reshape(9, 3).tobytes()

    def test_cnums_the_screen_leaves_are_bit_exact(self):
        # numpy scalar parts and dict subclasses pass jsonschema but not the
        # exact-type screen; the same decode body reads them.
        class Cnum(dict):
            pass

        cnums = []
        for i in range(2 * len(EXACT_PARTS)):
            z = _exact_cnum(i)
            if i % 2 and isinstance(z["re"], float):
                z["re"] = np.float64(z["re"])
            cnums.append(Cnum(z) if i % 5 == 0 else z)
        cnums += [{"re": np.int64(-(2**62)), "im": np.float64(-0.0)},
                  {"re": np.float32(0.1), "im": np.int32(-3)}]
        assert cli._decode_cnums(cnums, exact=True) is None
        config = {"command": "validate", "kernel": {"variant": "szego"}, "points": cnums}
        assert "points" not in cli._screen_cnum_arrays(config)[1]
        got = cli.parse_config(config).points.coords
        assert got.tobytes() == _reference_vector(cnums).reshape(-1, 1).tobytes()

    def test_an_integer_beyond_the_float_range_names_its_cnum(self):
        huge = {"re": 0.5, "im": 10**400}
        table = [[{"re": 1.0}, {"re": 2.0}], [huge, {"re": -(10**400)}]]
        config = {"command": "validate", "kernel": {"variant": "table", "table": table}}
        assert "table" in cli._screen_cnum_arrays(config)[1]
        with pytest.raises(ConfigError) as raised:
            cli.parse_config(config)
        assert str(raised.value) == f"complex numbers must be finite, got {huge!r}"

    def test_first_non_finite_cnum_in_row_major_order_is_named(self):
        rows = [[{"re": 0.0}, {"re": 0.0, "im": float("nan")}],
                [{"re": float("inf")}, {"re": 0.0}]]
        # The screen's vector, the matrix's own decoding, and rows that the
        # exact-type screen refuses (a numpy scalar part).
        per_entry = [rows[0], [{"re": float("inf")}, {"re": np.float64(0.0)}]]
        assert cli._decode_cnums([c for row in per_entry for c in row], exact=True) is None
        for matrix, z in ((rows, cli._screen_cnum_arrays({"points": rows})[1]["points"]),
                          (rows, None), (per_entry, None)):
            with pytest.raises(ConfigError, match=r"got \{'re': 0\.0, 'im': nan\}"):
                cli._parse_matrix(matrix, "table", z)


@pytest.mark.parametrize(
    "config",
    [
        {"command": "validate",
         "kernel": {"variant": "table", "table": [[{"re": 1.0}], [{"re": 1.0}, {"re": 2.0}]]}},
        _morphism_config(target_features=[[{"re": 1.0}], [{"re": 1.0}, {"re": 2.0}]]),
        _morphism_config(target_features=[[{"re": 1.0}]],
                         source_features=[[{"re": 1.0}, {"re": 2.0}], []]),
    ],
    ids=["kernel.table", "morphism.target_features", "morphism.source_features"],
)
def test_ragged_cnum_arrays_are_config_errors(config, tmp_path, capsys):
    path = tmp_path / "job.json"
    path.write_text(json.dumps(config))
    assert cli.main([config["command"], "--config", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert re.fullmatch(r"kb: config error: [a-z._]+ rows must all have the same length\n", err)


def test_ragged_table_parsed_entry_by_entry_is_a_config_error():
    """A table that only jsonschema accepts takes the per-entry path."""
    table = [[{"re": np.float64(1.0)}], [{"re": 1.0}, {"re": 2.0}]]
    with pytest.raises(ConfigError, match="kernel.table rows must all have the same length"):
        cli.parse_config({"command": "validate", "kernel": {"variant": "table", "table": table}})


@pytest.mark.parametrize("name", ["verify_all", "clark_two_atoms", "renorm_two_atoms",
                                  "gaussian_identity"])
def test_negative_seed_option_is_a_config_error(name, capsys):
    command = WORKED_CONFIGS[name]["command"]
    assert cli.main([command, "--config", str(CONFIGS / f"{name}.json"), "--seed", "-1"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "kb: config error: --seed must be a non-negative integer, got -1\n"


@pytest.mark.parametrize(
    "text",
    [
        '{"command": "validate", "kernel": {"variant": "szego"}, "points": [{"re": NaN}]}',
        '{"command": "validate", "kernel": {"variant": "table", "table": [[{"re": 1e999}]]}}',
        '{"command": "validate", "kernel": {"variant": "table", "table": [[{"re": 1%s}]]}}'
        % ("0" * 400),
        # json.dumps writes an infinite float as the literal Infinity.
        json.dumps(_morphism_config(target_features=[[{"re": 1.0, "im": float("inf")}]])),
    ],
    ids=[
        "nan-point",
        "overflowing-table-entry",
        "huge-integer-table-entry",
        "infinite-target-feature",
    ],
)
def test_non_finite_cnums_are_config_errors(text, tmp_path, capsys):
    path = tmp_path / "job.json"
    path.write_text(text)
    command = json.loads(text)["command"]
    assert cli.main([command, "--config", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "config error: complex numbers must be finite" in err


@pytest.mark.parametrize(
    "text",
    [
        '{"command": "clark", "measure": {"atoms": [NaN, 0.5], "weights": [0.5, 0.5]},'
        ' "sample_count": 5}',
        '{"command": "clark", "measure": {"atoms": [0.0, 0.5], "weights": [NaN, 0.5]},'
        ' "sample_count": 5}',
        '{"command": "morphism-check", "morphism": {"source": {"atoms": ["a"],'
        ' "weights": [Infinity]}, "target": {"atoms": ["a"], "weights": [1.0]},'
        ' "map": {"a": "a"}, "target_features": [[{"re": 1.0}]]}}',
        # Integers beyond the float range, which float() cannot convert.
        '{"command": "clark", "measure": {"atoms": [0.0, 0.5], "weights": [0.5, 1%s]},'
        ' "sample_count": 5}' % ("0" * 400),
        '{"command": "clark", "measure": {"atoms": [0.0, -1%s], "weights": [0.5, 0.5]},'
        ' "sample_count": 5}' % ("0" * 400),
        '{"command": "morphism-check", "morphism": {"source": {"atoms": ["a"],'
        ' "weights": [1%s]}, "target": {"atoms": ["a"], "weights": [1.0]},'
        ' "map": {"a": "a"}, "target_features": [[{"re": 1.0}]]}}' % ("0" * 400),
    ],
    ids=["nan-atom", "nan-weight", "infinite-discrete-weight", "huge-integer-weight",
         "huge-integer-atom", "huge-integer-discrete-weight"],
)
def test_non_finite_measures_are_rejected(text, tmp_path, capsys):
    path = tmp_path / "job.json"
    path.write_text(text)
    command = json.loads(text)["command"]
    assert cli.main([command, "--config", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "InvalidMeasure" in err


@pytest.mark.parametrize(
    "tolerances",
    [
        '{"psd_tol": NaN}',
        '{"fact_tol": Infinity}',
        '{"rank_tol": NaN}',
        '{"psd_tol": 1%s}' % ("0" * 400),
    ],
    ids=["nan-psd-tol", "infinite-fact-tol", "nan-rank-tol", "huge-integer-psd-tol"],
)
def test_non_finite_tolerances_are_config_errors(tolerances, tmp_path, capsys):
    text = json.dumps(SZEGO_VALIDATE)[:-1] + ', "tolerances": %s}' % tolerances
    path = tmp_path / "job.json"
    path.write_text(text)
    assert cli.main(["validate", "--config", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "config error: tolerances must be finite" in err


@pytest.mark.parametrize("config, code, err", [
    ({"command": "validate",
      "kernel": {"variant": "table", "table": [[{"re": 1}, {"re": 1e308}],
                                               [{"re": -1e308}, {"re": 1}]]}},
     1, "kb: NotHermitian: gram matrix is not Hermitian\n"),
    ({"command": "validate", "points": [{"re": 0.1}],
      "kernel": {"variant": "debranges-rovnyak",
                 "measure": {"atoms": [0.0, 0.5], "weights": [1e308, 1e308]}}},
     1, "kb: InvalidMeasure: circle measure must be a probability measure, got mass inf\n"),
    ({"command": "morphism-check",
      "morphism": {"source": {"atoms": ["a", "b"], "weights": [1e308, 1e308]},
                   "target": {"atoms": ["a", "b"], "weights": [1e308, 1e308]},
                   "map": {"a": "a", "b": "b"},
                   "target_features": [[{"re": 1e-160}, {"re": 1e-160}]]}},
     2, ""),
    ({"command": "gaussian-sample", "sample_count": 50,
      "kernel": {"variant": "table", "table": [[{"re": 1.0}, {"re": 0.0}],
                                               [{"re": 0.0}, {"re": 1e308}]]}},
     2, ""),
], ids=["hermitian-difference", "circle-mass", "morphism-target-mass", "gaussian-covariance"])
def test_an_overflow_writes_no_warning(config, code, err, tmp_path, capsys):
    """The overflow reads inf, which gives the right verdict, so it stays quiet."""
    path = tmp_path / "job.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "report.json"
    assert cli.main([config["command"], "--config", str(path), "--out", str(out)]) == code
    assert capsys.readouterr() == ("", err)


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


def _strict_loads(blob):
    return json.loads(blob, parse_constant=_reject_constant)


def _kb_with_matrices(monkeypatch, out, matrices):
    """``kb validate --out out`` through ``main``, with a pipeline that yields
    ``matrices``; returns the exit code."""
    checks = [Check("positive-definite", False, {"min_eigenvalue": -1.5})]
    monkeypatch.setitem(cli.PIPELINES, "validate", lambda cfg: (checks, matrices, {"seed": 0}))
    return cli.main(["validate", "--out", str(out)])


def _assert_bit_exact(loaded, mat):
    expected = np.atleast_2d(np.asarray(mat, dtype=complex))
    assert loaded.dtype == np.complex128 and loaded.shape == expected.shape
    assert loaded.tobytes() == expected.tobytes()


EXTREMES = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e300]


@pytest.mark.parametrize(
    "mat",
    [
        np.array([[-0.0, 5e-324, np.nan], [1e300, -1e300, -np.inf]]),
        np.array(
            [
                [complex(-0.0, -0.0), complex(0.0, 5e-324), complex(1e300, -5e-324)],
                [complex(-5e-324, -1e300), complex(np.inf, np.nan), complex(1e300, -0.0)],
            ]
        ),
        np.array([complex(1.0, -0.0), complex(5e-324, 1e300), complex(-np.inf, np.inf)]),
    ],
    ids=["real", "complex", "vector"],
)
def test_sidecar_round_trip_is_bit_exact(mat, monkeypatch, tmp_path):
    out = tmp_path / "report.json"
    assert _kb_with_matrices(monkeypatch, out, {"gram": mat}) == 2
    _assert_bit_exact(cli.parse_report(str(out))["matrices"]["gram"], mat)


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


def _reference_json(report: dict) -> bytes:
    return (json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n").encode()


FACTORIZE_TABLE = {
    "command": "factorize",
    "kernel": {
        "variant": "table",
        "table": [
            [{"re": 2.0}, {"re": 1.0, "im": -0.5}],
            [{"re": 1.0, "im": 0.5}, {"re": 2.0}],
        ],
    },
}


def _pipeline_configs():
    """A config of every pipeline: each worked config, plus factorize."""
    for path in sorted(CONFIGS.glob("*.json")):
        yield pytest.param(json.loads(path.read_text()), id=path.stem)
    yield pytest.param(FACTORIZE_TABLE, id="factorize-table")


@pytest.mark.parametrize("command", ["validate", "factorize"])
def test_table_points_label_the_kernel_without_changing_the_report(command, tmp_path):
    points = [[{"re": 0.1}, {"re": 0, "im": 0.2}], [{"re": 0.3}, {"re": -0.1}]]
    runs = []
    for name, extra in (("index", {}), ("points", {"points": points})):
        folder = tmp_path / name
        folder.mkdir()
        (folder / "job.json").write_text(json.dumps({**FACTORIZE_TABLE, "command": command, **extra}))
        out = folder / "report.json"
        assert cli.main([command, "--config", str(folder / "job.json"), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        del report["timing"]
        runs.append((report, {p.name: p.read_bytes() for p in folder.glob("report.*.npy")}))
    assert runs[0] == runs[1] and runs[0][1]


def test_table_and_points_of_different_sizes_exit_one(tmp_path, capsys):
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"command": "validate", "points": [{"re": 0.1}, {"re": 0.2}],
                                "kernel": {"variant": "table", "table": [[{"re": 1.0}]]}}))
    assert cli.main(["validate", "--config", str(path)]) == 1
    assert capsys.readouterr() == ("", "kb: ShapeMismatch: gram must be 2x2, got (1, 1)\n")


TWO_DIM_POINTS = [[{"re": 0.1}, {"re": 0, "im": 0.2}], [{"re": 0.3}, {"re": -0.1}]]


def test_szego_with_dim_is_the_polydisk_szego_kernel(tmp_path):
    reports = []
    for variant in ("szego", "polydisk-szego"):
        path, out = tmp_path / f"{variant}.json", tmp_path / f"{variant}-report.json"
        path.write_text(json.dumps({"command": "validate", "points": TWO_DIM_POINTS,
                                    "kernel": {"variant": variant, "dim": 2}}))
        assert cli.main(["validate", "--config", str(path), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        del report["timing"], report["matrices"]["gram"]["file"]
        reports.append(report)
    assert reports[0] == reports[1]


def test_debranges_rovnyak_with_dim_two_exits_one(tmp_path, capsys):
    path = tmp_path / "job.json"
    path.write_text(json.dumps({
        "command": "validate", "points": TWO_DIM_POINTS,
        "kernel": {"variant": "debranges-rovnyak", "dim": 2,
                   "measure": {"atoms": [0.0, 0.5], "weights": [0.5, 0.5]}}}))
    assert cli.main(["validate", "--config", str(path)]) == 1
    assert capsys.readouterr() == (
        "", "kb: ShapeMismatch: the de Branges-Rovnyak kernel has one variable, got dim 2\n")


TWO_ATOM_MEASURE = {"atoms": [0.0, 0.5], "weights": [0.5, 0.5]}
ONE_POINT_TABLE = [[{"re": 1.0}]]


@pytest.mark.parametrize("kernel, message", [
    ({"variant": "szego", "measure": TWO_ATOM_MEASURE}, "szego kernel does not take measure"),
    ({"variant": "polydisk-szego", "dim": 2, "table": ONE_POINT_TABLE},
     "polydisk-szego kernel does not take table"),
    ({"variant": "debranges-rovnyak", "measure": TWO_ATOM_MEASURE, "table": ONE_POINT_TABLE},
     "debranges-rovnyak kernel does not take table"),
    ({"variant": "table", "dim": 3, "measure": TWO_ATOM_MEASURE, "table": ONE_POINT_TABLE},
     "table kernel does not take dim, measure"),
], ids=["szego-measure", "polydisk-table", "debranges-table", "table-dim-measure"])
def test_a_kernel_field_the_variant_does_not_read_exits_one(kernel, message, tmp_path, capsys):
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"command": "validate", "kernel": kernel,
                                "points": [{"re": 0.1}]}))
    assert cli.main(["validate", "--config", str(path)]) == 1
    assert capsys.readouterr() == ("", f"kb: config error: {message}\n")


class TestEmit:
    @pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.json")), ids=lambda p: p.stem)
    def test_worked_config_reports_match_json_dumps(self, path, tmp_path):
        out = tmp_path / "report.json"
        command = json.loads(path.read_text())["command"]
        cli.main([command, "--config", str(path), "--out", str(out)])
        blob = out.read_bytes()
        report = _strict_loads(blob)
        assert blob == _reference_json(report)
        for name, entry in report["matrices"].items():
            assert entry["file"] == f"report.{name}.npy"
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            ["report.json", *(e["file"] for e in report["matrices"].values())]
        )
        cli.parse_report(str(out))

    @pytest.mark.parametrize(
        "matrices",
        [
            {"gram": np.array([[complex(a, b) for b in EXTREMES] for a in EXTREMES])},
            {"gram": np.zeros((0, 0))},
            {"frame": np.zeros((3, 0))},
            {"gram": np.array([[0.5 - 0.25j]])},
            {"frame": np.arange(6.0).reshape(2, 3) + 1j, "gram": np.eye(2)},
            {},
        ],
        ids=["extreme-values", "empty", "n-by-0", "1-by-1", "non-square-and-two", "no-matrices"],
    )
    def test_edge_reports_match_json_dumps(self, matrices, monkeypatch, tmp_path):
        out = tmp_path / "edge.json"
        assert _kb_with_matrices(monkeypatch, out, matrices) == 2
        blob = out.read_bytes()
        assert blob == _reference_json(_strict_loads(blob))
        loaded = cli.parse_report(str(out))["matrices"]
        assert sorted(loaded) == sorted(matrices)
        for name, mat in matrices.items():
            _assert_bit_exact(loaded[name], mat)
            assert (tmp_path / f"edge.{name}.npy").read_bytes().startswith(b"\x93NUMPY")

    def test_report_without_matrices_key_matches_json_dumps(self):
        report = {
            "command": "validate",
            "version": "0",
            "seed_record": {"seed": 0},
            "passed": False,
            "checks": [{"name": "positive-definite", "passed": False, "min_eigenvalue": -1.5}],
            "timing": {"seconds": 0.25},
        }
        assert cli.emit(report) == _reference_json(report)

    def _report(self):
        report, _ = cli.run(cli.parse_config(SZEGO_VALIDATE))
        return report

    def test_json_round_trip(self, tmp_path):
        path = tmp_path / "job.json"
        path.write_text(json.dumps(SZEGO_VALIDATE))
        out = tmp_path / "report.json"
        assert cli.main(["validate", "--config", str(path), "--out", str(out)]) == 0
        parsed, report = cli.parse_report(str(out)), self._report()
        assert parsed.pop("timing").keys() == report.pop("timing").keys()
        assert parsed.pop("matrices")["gram"].tobytes() == report.pop("matrices")["gram"].tobytes()
        assert parsed == report

    def test_json_stable_key_order(self):
        report = self._report()
        assert cli.emit(report) == cli.emit(dict(reversed(report.items())))

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
        parsed = _strict_loads(cli.emit(report))
        assert parsed["matrices"] == {}
        assert parsed["command"] == "morphism-check"


class TestSidecars:
    @pytest.mark.parametrize("config", list(_pipeline_configs()))
    def test_every_pipeline_report_is_strict_json(self, config, tmp_path):
        report, _ = cli.run(cli.parse_config(config))
        _strict_loads(cli.emit(report))
        path = tmp_path / "job.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "report.json"
        assert cli.main([config["command"], "--config", str(path), "--out", str(out)]) in (0, 2)
        _strict_loads(out.read_bytes())
        cli.parse_report(str(out))

    def test_stdout_report_names_no_file_and_writes_none(self, monkeypatch, tmp_path, capsys):
        path = tmp_path / "job.json"
        path.write_text(json.dumps(FACTORIZE_TABLE))
        monkeypatch.chdir(tmp_path)
        assert cli.main(["factorize", "--config", str(path)]) == 0
        entry = _strict_loads(capsys.readouterr().out)["matrices"]["frame"]
        assert entry["file"] is None
        assert sorted(p.name for p in tmp_path.iterdir()) == ["job.json"]
        assert cli.main(["factorize", "--config", str(path), "--out", "r.json"]) == 0
        written = _strict_loads((tmp_path / "r.json").read_bytes())["matrices"]["frame"]
        assert written == {**entry, "file": "r.frame.npy"}

    @pytest.mark.parametrize(
        "tamper",
        [
            lambda npy, entry: npy.write_bytes(npy.read_bytes()[:-1] + b"\x01"),
            lambda npy, entry: npy.write_bytes(npy.read_bytes()[:-16]),
            lambda npy, entry: entry.update(shape=[1, 5]),
            lambda npy, entry: entry.update(dtype="complex64"),
            lambda npy, entry: entry.update(file="../report.gram.npy"),
            lambda npy, entry: entry.update(file=None),
        ],
        ids=["flipped-byte", "truncated", "entry-shape", "entry-dtype", "outside-path",
             "no-file"],
    )
    def test_tampered_sidecar_or_entry_is_refused(self, tamper, tmp_path):
        path = tmp_path / "job.json"
        path.write_text(json.dumps(SZEGO_VALIDATE))
        out = tmp_path / "report.json"
        assert cli.main(["validate", "--config", str(path), "--out", str(out)]) == 0
        report = _strict_loads(out.read_bytes())
        tamper(tmp_path / "report.gram.npy", report["matrices"]["gram"])
        out.write_bytes(_reference_json(report))
        with pytest.raises(ValueError):
            cli.parse_report(str(out))

    def test_non_standard_constant_in_a_report_is_refused(self, tmp_path):
        out = tmp_path / "report.json"
        out.write_text('{"checks": [{"value": NaN}]}')
        with pytest.raises(ValueError):
            cli.parse_report(str(out))

    def test_two_runs_give_identical_reports_and_sidecars(self, tmp_path):
        path = CONFIGS / "clark_two_atoms.json"
        blobs = []
        for run in ("a", "b"):
            (tmp_path / run).mkdir()
            out = tmp_path / run / "report.json"
            assert cli.main(["clark", "--config", str(path), "--out", str(out)]) == 0
            without_timing = re.sub(rb'\n  "timing": \{[^}]*\}', b"", out.read_bytes())
            assert b'"timing"' not in without_timing
            blobs.append((without_timing, (tmp_path / run / "report.gram.npy").read_bytes()))
        assert blobs[0] == blobs[1]

    def test_importing_cli_does_not_load_hashlib(self):
        package_root = str(Path(cli.__file__).resolve().parents[1])
        code = "import sys, kboundary.cli; print('hashlib' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": package_root}, check=True)
        assert proc.stdout.strip() == "False"

    def test_validate_and_factorize_load_only_their_pipeline(self, tmp_path):
        for command in ("validate", "factorize"):
            (tmp_path / f"{command}.json").write_text(
                json.dumps({**SZEGO_VALIDATE, "command": command}))
        code = (
            "import importlib, os, sys\n"
            "from kboundary import cli\n"
            "for command in ('validate', 'factorize'):\n"
            "    config, out = (os.path.join(sys.argv[1], command + end) for end in ('.json', '.out'))\n"
            "    assert cli.main([command, '--config', config, '--out', out]) == 0\n"
            "print(sorted(m for m in ('kboundary.selfcheck', 'kboundary.gaussian',\n"
            "                         'kboundary.clark') if m in sys.modules))\n"
            "import kboundary\n"
            "for name in kboundary.__all__:\n"
            "    module = importlib.import_module('kboundary.' + kboundary._MODULE_OF[name])\n"
            "    assert getattr(kboundary, name) is vars(module)[name], name\n"
            "    assert name in dir(kboundary) and name not in vars(kboundary), name\n"
        )
        package_root = str(Path(cli.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                              capture_output=True, text=True, check=True,
                              env={**os.environ, "PYTHONPATH": package_root})
        assert proc.stdout.strip() == "[]"


class TestMainEntry:
    def test_malformed_json_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert cli.main(["validate", "--config", str(bad)]) == 1
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("blob", [b"\xff{}", b'{"seed": 1%s}' % (b"0" * 5000)],
                             ids=["not-utf-8", "integer-beyond-the-digit-limit"])
    def test_undecodable_config_exits_one(self, blob, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(blob)
        assert cli.main(["validate", "--config", str(bad)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and re.fullmatch(r"kb: config error: config is not valid JSON: .*\n", err)

    @pytest.mark.parametrize("argv", [
        ["validate", "--bogus"],
        ["validate", "--seed", "abc"],
        ["nosuch"],
        ["validate", "--config", str(CONFIGS / "validate_szego.json"), "--format", "csv"],
    ], ids=["unknown-option", "non-integer-seed", "unknown-command", "format"])
    def test_usage_error_is_one_stderr_line_and_exit_one(self, argv, capsys):
        assert cli.main(argv) == 1
        out, err = capsys.readouterr()
        assert out == "" and re.fullmatch(r"kb: config error: .*\n", err)

    @pytest.mark.parametrize("opening, inner, closing", [("[", "", "]"), ('{"a": ', "1", "}")],
                             ids=["array", "object"])
    def test_config_nested_beyond_the_recursion_limit_exits_one(self, opening, inner, closing,
                                                                 tmp_path, capsys):
        path = tmp_path / "deep.json"
        nested = opening * 100_000 + inner + closing * 100_000
        path.write_text('{"command": "validate", "points": %s}' % nested)
        assert cli.main(["validate", "--config", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and re.fullmatch(r"kb: config error: config is nested too deeply: .*\n", err)

    def test_configs_nested_near_the_recursion_limit_exit_one_line(self, tmp_path, capsys):
        # Depths where json decodes the config but repr of it, in jsonschema's
        # message, runs out of stack lie just below the limit.
        path = tmp_path / "deep.json"
        limit = sys.getrecursionlimit()
        for depth in range(limit - 300, limit + 10):
            path.write_text('{"command": "validate", "points": %s}' % ("[" * depth + "]" * depth))
            assert cli.main(["validate", "--config", str(path)]) == 1, depth
            out, err = capsys.readouterr()
            assert out == "" and re.fullmatch(r"kb: config error: .*\n", err), depth

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as raised:
            cli.main(["-h"])
        assert raised.value.code == 0
        assert capsys.readouterr().out.startswith("usage: kb ")

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


@pytest.mark.parametrize("exc, err", [
    (MemoryError("Unable to allocate 149. GiB for an array with shape (100000, 100000) "
                 "and data type complex128"),
     "kb: out of memory: Unable to allocate 149. GiB for an array with shape (100000, 100000) "
     "and data type complex128\n"),
    (MemoryError(), "kb: out of memory: allocation failed\n"),
], ids=["numpy", "bare"])
def test_memory_error_is_one_stderr_line_and_exit_one(exc, err, monkeypatch, capsys):
    def exhausted(cfg):
        raise exc

    monkeypatch.setitem(cli.PIPELINES, "validate", exhausted)
    assert cli.main(["validate"]) == 1
    assert capsys.readouterr() == ("", err)


# -- end-to-end config fuzz ---------------------------------------------------

# Valid configs of every command that reads a config: the worked configs
# (one of them maps two atoms to one), a table, tolerances, a measure inside
# a kernel and source features.
FUZZ_BASES = [
    *(config for name, config in WORKED_CONFIGS.items() if name != "verify_all"),
    {**FACTORIZE_TABLE, "tolerances": {"psd_tol": 1e-10, "fact_tol": 1e-9, "rank_tol": 1e-12}},
    {"command": "validate", "points": [{"re": 0.1}],
     "kernel": {"variant": "debranges-rovnyak", "measure": TWO_ATOM_MEASURE}},
    _morphism_config(target_features=[[{"re": 1.0}]], source_features=[[{"re": 1.0}]]),
]
FUZZED_FIELDS = ("points", "kernel", "measure", "morphism", "tolerances", "sample_count")
# Literals that json.dumps cannot write: each key stands in for its value.
LITERALS = {"<overflow>": "1e999", "<digits>": "1" + "0" * 5000}
# Non-finite, huge, empty and mistyped values.
HOSTILE_VALUES = st.sampled_from([
    float("nan"), float("inf"), float("-inf"), "<overflow>", "<digits>",
    1e308, -1e308, 10**400, -(10**400), 2**64,
    [], {}, "", [[]], [{}], {"re": None},
    None, True, "x", 0, -1, 0.5,
])


@settings(max_examples=500, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_fuzzed_configs_exit_cleanly(data, tmp_path, monkeypatch, capsys):
    """Any config: exit 0, 1 or 2, nothing on stdout with --out, and stderr
    empty unless exit 1, which writes one line."""
    monkeypatch.delenv("KB_LOG", raising=False)
    config = copy.deepcopy(data.draw(st.sampled_from(FUZZ_BASES)))
    for _ in range(data.draw(st.integers(1, 3))):
        paths = [path for path in _paths(config) if path and path[0] in FUZZED_FIELDS]
        path = data.draw(st.sampled_from(paths))
        _at(config, path[:-1])[path[-1]] = copy.deepcopy(data.draw(HOSTILE_VALUES))
    text = json.dumps(config)
    for token, literal in LITERALS.items():
        text = text.replace(json.dumps(token), literal)
    (tmp_path / "job.json").write_text(text)
    code = cli.main([config["command"], "--config", str(tmp_path / "job.json"),
                     "--out", str(tmp_path / "report.json")])
    out, err = capsys.readouterr()
    assert code in (0, 1, 2) and out == ""
    if code == 1:
        assert re.fullmatch(r"kb: [^\n]*\n", err), err
    else:
        assert err == ""
