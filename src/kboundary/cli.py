"""Batch front end: JSON job configs in, machine-readable reports out.

Usage:  kb <command> --config <file.json> [--seed N] [--out path]

Commands: validate, factorize, gaussian-sample, clark, renorm,
morphism-check, verify-all.  Configs are validated strictly against the
shipped JSON schema (unknown fields rejected), which kb's own walker
applies; a rejection names the first place that does not match.  Exit code
0 when every check passes, 2 on a check failure, 1 on a usage, config or
domain error (a negative --seed too) or when memory runs out.
A JSON report written to --out keeps each matrix in a digest-pinned .npy
file beside it.  Reports are deterministic for a fixed (config, seed)
apart from the timing field.  Set KB_LOG=debug|info|warning for verbosity.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import io
import json
import logging
import math
import os
import sys
import time
from importlib import resources
from itertools import repeat

import numpy as np

# Only what validate and factorize run; the other pipelines import the
# self-check suite and the Clark machinery where they run.
from . import __version__, factorization, kernels, measures, rkhs
from .check import Check
from .errors import ConfigError, KernelBoundaryError, ShapeMismatch

log = logging.getLogger("kboundary")

def load_schema() -> dict:
    """A fresh copy of the shipped job-config schema."""
    with resources.files("kboundary.schema").joinpath("job_config.schema.json").open() as fh:
        return json.load(fh)


@functools.cache
def _schema() -> dict:
    """The shipped schema, read once per process; callers must not change it."""
    return load_schema()


def _to_float(x) -> float:
    """float(x), with an integer literal beyond the float range as infinity."""
    try:
        return float(x)
    except OverflowError:
        return math.inf


# -- validity -----------------------------------------------------------------
#
# The shipped schema alone decides which configs are valid, and ``_check``
# alone applies it.

# Keywords that do not constrain the instance.
_ANNOTATIONS = frozenset(("$schema", "$defs", "title", "description", "$comment"))
# JSON type -> its exact Python types, the first naming it in a message; an
# integral float is an integer too.
_JSON_TYPES = {"object": (dict,), "array": (list,), "string": (str,), "integer": (int,),
               "number": (float, int)}
_KINDS = {dict: "an object", list: "an array", str: "a string", int: "an integer",
          float: "a number", bool: "a boolean", type(None): "null"}
# keyword -> the types it applies to; a value of another type passes it
_APPLIES_TO = {"required": (dict,), "properties": (dict,), "additionalProperties": (dict,),
               "items": (list,), "minItems": (list,), "minimum": (float, int),
               "maximum": (float, int)}
_NAME_CHARS = 32  # the most characters of a field name or string that a message shows


def _clip(name) -> str:
    """``name`` with control and non-ASCII characters escaped, cut to
    ``_NAME_CHARS`` characters, so that a message stays one short line."""
    text = json.dumps(str(name)[:_NAME_CHARS + 1])[1:-1]
    return text if len(text) <= _NAME_CHARS else text[:_NAME_CHARS - 3] + "..."


def _kind(t: type) -> str:
    """The JSON type of Python type ``t`` for a message, else ``t`` itself."""
    return _KINDS.get(t) or f"a value of type {_clip(t.__name__)}"


def _has_type(x, name: str) -> bool:
    if name == "integer" and type(x) is float:
        return x.is_integer()
    return type(x) in _JSON_TYPES[name]


def _resolve(schema: dict) -> dict:
    """The ``#/$defs/<name>`` subschema that ``schema``'s $ref names, else ``schema``."""
    ref = schema.get("$ref")
    return schema if ref is None else _schema()["$defs"][ref.removeprefix("#/$defs/")]


def _mismatch(path: str, reason: str):
    raise ConfigError(f"config does not match schema at {path[1:] or 'the top level'}: {reason}")


def _check(x, schema: dict, path: str = "") -> None:
    """Raise a ConfigError at the first place where ``x`` does not match
    ``schema``, a subschema of the shipped one; ``path`` is where ``x`` sits,
    in ".name" and "[i]" steps.

    Draft 2020-12 rules on JSON data: an integral float is an integer, a bool
    is not a number, NaN passes a bound, and a keyword passes a value of a
    type it does not apply to.  A type that json.load does not return (a dict
    subclass, a numpy scalar) matches no ``type``.  Any other keyword raises
    NotImplementedError."""
    for key, rule in schema.items():
        if key in _APPLIES_TO and type(x) not in _APPLIES_TO[key]:
            continue
        if key == "type":
            if not _has_type(x, rule):
                _mismatch(path, f"expected {_kind(_JSON_TYPES[rule][0])}, got {_kind(type(x))}")
        elif key == "enum":
            if type(x) is not str or x not in rule:
                got = f"'{_clip(x)}'" if type(x) is str else _kind(type(x))
                _mismatch(path, f"expected one of {', '.join(rule)}, got {got}")
        elif key == "$ref":
            _check(x, _resolve(schema), path)
        elif key == "oneOf":
            # Over forms of disjoint types, as the shipped schema's are, x
            # matches exactly one form when it matches the form of its type.
            forms = {_resolve(form)["type"]: form for form in rule}
            typed = [form for name, form in forms.items() if _has_type(x, name)]
            if not typed:
                expected = " or ".join(_kind(_JSON_TYPES[name][0]) for name in forms)
                _mismatch(path, f"expected {expected}, got {_kind(type(x))}")
            _check(x, typed[0], path)
        elif key == "required":
            for name in rule:
                if name not in x:
                    _mismatch(path, f"missing required field '{name}'")
        elif key == "properties":
            for name, sub in rule.items():
                if name in x:
                    _check(x[name], sub, f"{path}.{name}")
        elif key == "additionalProperties":
            for name, value in x.items():
                if name not in schema.get("properties", ()):
                    if rule is False:
                        _mismatch(path, f"unknown field '{_clip(name)}'")
                    _check(value, rule, f"{path}.{_clip(name)}")
        elif key == "items":
            for i, item in enumerate(x):
                _check(item, rule, f"{path}[{i}]")
        elif key == "minItems":
            if len(x) < rule:
                _mismatch(path, f"expected {rule} or more items, got {len(x)}")
        elif key == "minimum":
            if x < rule:
                _mismatch(path, f"expected at least {rule}")
        elif key == "maximum":
            if x > rule:
                _mismatch(path, f"expected at most {rule}")
        elif key not in _ANNOTATIONS:
            raise NotImplementedError(f"schema keyword {key!r}")


# -- cnum arrays -----------------------------------------------------------------

_NUMBER_TYPES = frozenset(_JSON_TYPES["number"])
# Where the schema puts cnum arrays: parent key ("" for the root) -> fields.
_CNUM_FIELDS = {"": ("points",), "kernel": ("table",),
                "morphism": ("target_features", "source_features")}


def _floats(values: list) -> np.ndarray:
    """``_to_float`` of each value, ints and floats only, as a float64 vector."""
    try:
        return np.array(values, dtype=float)
    except OverflowError:
        return np.fromiter(map(_to_float, values), float, len(values))


def _decode_cnums(cnums: list) -> np.ndarray | None:
    """The complex vector of ``cnums``, entry k bit-equal to
    ``complex(_to_float(re), _to_float(im))`` of cnum k, a non-finite one
    included; None unless each is a cnum that the schema accepts, a dict
    whose parts are each exactly an int or a float.

    Each step is one C-level pass over the N cnums.  The parts are read with
    ``dict.get``, None where absent.  Once every "re" part is an int or a
    float, each cnum holds "re", and "im" where that part is not None, so its
    length is at least 1 plus that.  The lengths sum to 2N minus the Nones
    among the "im" parts exactly when no cnum has another key or an "im" of
    null; a None among the "im" parts is then an absent one, read as 0."""
    if set(map(type, cnums)) - {dict}:
        return None
    n = len(cnums)
    re = list(map(dict.get, cnums, repeat("re")))
    im = list(map(dict.get, cnums, repeat("im")))
    absent = im.count(None)
    if sum(map(len, cnums)) != 2 * n - absent or not set(map(type, re)) <= _NUMBER_TYPES:
        return None
    if not set(map(type, im)) - {type(None)} <= _NUMBER_TYPES:
        return None
    out = np.zeros(n, dtype=complex)
    out.real = _floats(re)
    if absent < n:
        out.imag = _floats([0.0 if x is None else x for x in im] if absent else im)
    return out


def _row_major(array, points: bool) -> list | None:
    """The entries of ``array``, a list of lists, in row-major order; None
    for any other shape.  With ``points`` an entry may also be a single cnum
    (a dict), and a row must be nonempty, as the schema's points are."""
    if type(array) is not list:
        return None
    flat = []
    for entry in array:
        if type(entry) is list and (entry or not points):
            flat += entry
        elif points and type(entry) is dict:
            flat.append(entry)
        else:
            return None
    return flat


def _screen_cnum_arrays(data) -> tuple[object, dict]:
    """(view, decoded) for a raw config.

    ``decoded`` maps each cnum-array field of ``data`` ("points", "table",
    "target_features", "source_features") that ``_decode_cnums`` accepts
    throughout to its complex vector in row-major order.  ``view`` is a
    shallow copy of ``data`` in which each such array is ``[]``: ``[]`` is
    valid wherever these arrays sit and an accepted array is valid, so the
    view has the schema errors of ``data`` and can be checked without
    walking each number.  A rejected array stays, for ``_check`` to explain.
    """
    if type(data) is not dict:
        return data, {}
    view, decoded = dict(data), {}
    for parent, fields in _CNUM_FIELDS.items():
        holder = view
        if parent:
            if type(view.get(parent)) is not dict:
                continue
            holder = view[parent] = dict(view[parent])
        for field in fields:
            flat = _row_major(holder.get(field), points=field == "points")
            z = None if flat is None else _decode_cnums(flat)
            if z is not None:
                decoded[field] = z
                holder[field] = []
    return view, decoded


def _places(rows):
    """"[i]" for each entry of ``rows`` that is one cnum and "[i][j]" for
    each cnum of a row, in row-major order."""
    for i, entry in enumerate(rows):
        if type(entry) is dict:
            yield f"[{i}]"
        else:
            yield from (f"[{i}][{j}]" for j in range(len(entry)))


def _cnum_vector(rows, z: np.ndarray, name: str) -> np.ndarray:
    """``z``, the screen's vector of the cnums of ``rows`` (rows, or single
    cnums) in row-major order.  A non-finite number is a ConfigError naming
    the place of the first such cnum in the array ``name``, not its value."""
    bad = ~np.isfinite(z)
    if bad.any():
        where = list(_places(rows))[int(bad.argmax())]
        raise ConfigError(f"complex numbers must be finite, got a non-finite one at {name}{where}")
    return z


def _parse_matrix(rows, name: str, z: np.ndarray) -> np.ndarray:
    """``rows`` as a complex matrix, shaped as ``np.array`` shapes it (no rows
    give an empty vector); ``z`` as in ``_cnum_vector``."""
    flat = _cnum_vector(rows, z, name)
    widths = {len(row) for row in rows}
    if len(widths) > 1:
        raise ConfigError(f"{name} rows must all have the same length")
    return flat.reshape(len(rows), *widths)


def _parse_points(raw, z: np.ndarray) -> np.ndarray:
    if not raw:
        raise ConfigError("points must be a nonempty list")
    scalar = isinstance(raw[0], dict)
    if any(isinstance(entry, dict) != scalar for entry in raw):
        raise ConfigError("points must be all scalars or all coordinate tuples")
    if scalar:
        return kernels._as_points(_cnum_vector(raw, z, "points"))
    dims = {len(entry) for entry in raw}
    if len(dims) != 1:
        raise ConfigError("all point tuples must share one dimension")
    return kernels._as_points(_cnum_vector(raw, z, "points").reshape(len(raw), *dims))


def _parse_circle_measure(raw) -> measures.CircleMeasure:
    return measures.CircleMeasure(atoms=raw["atoms"], weights=raw["weights"])


def _parse_discrete_measure(raw) -> measures.DiscreteMeasure:
    return measures.DiscreteMeasure(atoms=tuple(raw["atoms"]), weights=raw["weights"])


# variant -> the kernel fields besides "variant" that it reads
_KERNEL_FIELDS = {"szego": {"dim"}, "polydisk-szego": {"dim"},
                  "debranges-rovnyak": {"measure"}, "table": {"table"}}


def _parse_kernel(raw, points: np.ndarray | None, table: np.ndarray | None):
    """The closed-form kernel that ``raw`` names, or its ``table`` (decoded)
    as a ``FiniteKernel``; ``points``, when given, are read for their count,
    which must be the table's.  A field that the variant does not read is a
    ConfigError."""
    variant = raw["variant"]
    unread = sorted(set(raw) - {"variant"} - _KERNEL_FIELDS[variant])
    if unread:
        raise ConfigError(f"{variant} kernel does not take {', '.join(unread)}")
    if variant in ("szego", "polydisk-szego"):
        return kernels.KernelSpec(dim=int(raw.get("dim", 1)))
    if variant == "debranges-rovnyak":
        if "measure" not in raw:
            raise ConfigError("debranges-rovnyak kernel requires a measure")
        return kernels.KernelSpec(measure=_parse_circle_measure(raw["measure"]))
    if "table" not in raw:
        raise ConfigError("table kernel requires a table")
    gram = _parse_matrix(raw["table"], "kernel.table", table)
    if points is not None and gram.shape != (len(points), len(points)):
        raise ShapeMismatch(f"gram must be {len(points)}x{len(points)}, got {gram.shape}")
    return kernels.FiniteKernel(gram)


def _parse_morphism(raw, decoded: dict) -> tuple:
    """(MeasureMorphism, target features, source features or None) of a raw
    morphism, each feature matrix from the screen's ``decoded`` vector."""
    source = _parse_discrete_measure(raw["source"])
    target = _parse_discrete_measure(raw["target"])
    morphism = factorization.MeasureMorphism(source=source, target=target, map=dict(raw["map"]))
    target_features = _parse_matrix(raw["target_features"], "morphism.target_features",
                                    decoded["target_features"])
    source_features = None
    if "source_features" in raw:
        source_features = _parse_matrix(raw["source_features"], "morphism.source_features",
                                        decoded["source_features"])
    return morphism, target_features, source_features


@dataclasses.dataclass
class JobConfig:
    command: str
    kernel: kernels.KernelSpec | kernels.FiniteKernel | None = None
    points: np.ndarray | None = None  # as kernels._as_points returns them
    measure: measures.CircleMeasure | None = None
    morphism: tuple | None = None  # as _parse_morphism returns it
    seed: int = 0
    sample_count: int | None = None


def parse_config(data: dict, command: str | None = None) -> JobConfig:
    """Strict parse of a config, JSON data as json.load returns it.

    ``_screen_cnum_arrays`` decodes each cnum array (points, table, morphism
    features) that the schema accepts, and ``_check`` walks the rest against
    the schema.  A mismatch or a non-finite complex number is a ConfigError.
    """
    view, decoded = _screen_cnum_arrays(data)
    _check(view, _schema())

    cfg_command = data["command"]
    if command is not None and command != cfg_command:
        raise ConfigError(
            f"command line says {command!r} but config says {cfg_command!r}"
        )

    try:
        points = _parse_points(data["points"], decoded["points"]) if "points" in data else None
        return JobConfig(
            command=cfg_command,
            kernel=(_parse_kernel(data["kernel"], points, decoded.get("table"))
                    if "kernel" in data else None),
            points=points,
            measure=_parse_circle_measure(data["measure"]) if "measure" in data else None,
            morphism=(_parse_morphism(data["morphism"], decoded)
                      if "morphism" in data else None),
            seed=int(data.get("seed", 0)),
            sample_count=data.get("sample_count"),
        )
    except KernelBoundaryError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad config value: {exc}") from exc


def _require(cfg: JobConfig, field: str):
    value = getattr(cfg, field)
    if value is None:
        raise ConfigError(f"command {cfg.command!r} requires {field!r} in the config")
    return value


def _build_kernel(cfg: JobConfig) -> kernels.FiniteKernel:
    kernel = _require(cfg, "kernel")
    if isinstance(kernel, kernels.FiniteKernel):
        return kernel
    return kernels.assemble_gram(kernel, _require(cfg, "points"))


def _residual_check(name: str, residual: float, K: kernels.FiniteKernel, **details) -> Check:
    """Judge ``residual`` by kernels.relative_residual against FACTORIZATION_TOL,
    so that the verdict does not depend on units; an infinite relative
    residual is null and fails."""
    relative = kernels.relative_residual(residual, K)
    tol = factorization.FACTORIZATION_TOL
    return Check(name, relative <= tol, {"residual": residual, "relative_residual": relative,
                                         "tolerance": tol, **details})


def _run_validate(cfg: JobConfig):
    K = _build_kernel(cfg)
    report = kernels.check_positive_definite(K)
    checks = [Check("positive-definite", report.is_psd, {
        "min_eigenvalue": report.min_eigenvalue,
        "max_eigenvalue": report.max_eigenvalue,
        "tolerance": kernels.PSD_TOL,
    })]
    return checks, {"gram": K.gram}, {"seed": cfg.seed}


def _run_factorize(cfg: JobConfig):
    K = _build_kernel(cfg)
    F = rkhs.parseval_factorize(K)
    residual = rkhs.verify_parseval(F)
    # The frame keeps the largest eigenvalues of the spectrum that built it.
    values, rank = K.eigenvalues, F.n_atoms
    checks = [_residual_check(
        "parseval-reconstruction", residual, K, retained_rank=rank,
        rank_tolerance=kernels.default_rank_tol(K.size),
        smallest_kept_eigenvalue=values[-rank] if rank else None,
        largest_dropped_eigenvalue=values[-rank - 1] if rank < K.size else None,
    )]
    return checks, {"frame": F.features.T}, {"seed": cfg.seed}


def _run_gaussian_sample(cfg: JobConfig):
    from . import selfcheck

    K = _build_kernel(cfg)
    n_draws = int(cfg.sample_count or 10000)
    deviation, mean_moduli, emp, seed_record = selfcheck.moment_errors(K, cfg.seed, n_draws)
    cov_bound = selfcheck.covariance_bound(K, n_draws)
    mean_bounds = selfcheck.mean_bounds(K, n_draws)
    checks = [
        Check("covariance-deviation", deviation <= cov_bound,
              {"deviation": deviation, "bound": cov_bound, "n_draws": n_draws}),
        Check("mean-zero", np.all(mean_moduli <= mean_bounds),
              {"max_mean_modulus": mean_moduli.max()}),
    ]
    return checks, {"empirical_covariance": emp}, seed_record


def _clark_points(cfg: JobConfig) -> np.ndarray:
    from . import selfcheck

    if cfg.points is not None:
        if cfg.points.shape[1] != 1:
            raise ConfigError("clark pipelines need 1-dim complex points")
        return cfg.points[:, 0]
    return selfcheck.random_interior(selfcheck._rng(cfg.seed, 100), int(cfg.sample_count or 50))


def _run_clark(cfg: JobConfig):
    from . import clark, selfcheck

    mu = _require(cfg, "measure")
    zs = _clark_points(cfg)
    F = clark.build_kb_factorization(mu, zs)
    residual = factorization.verify_factorization(F)
    minimal = factorization.minimality_test(F)
    herglotz = selfcheck.herglotz_error(mu, zs)
    modulus = selfcheck.modulus_deviation(mu)
    checks = [
        _residual_check("factorization-residual", residual, F.kernel),
        Check("minimality", minimal["is_minimal"] or len(zs) < mu.size,
              {"feature_rank": minimal["feature_rank"], "atoms": mu.size}),
        Check("poisson-herglotz", herglotz <= selfcheck.HERGLOTZ_TOL,
              {"max_abs_error": herglotz}),
        Check("inner-modulus", modulus <= selfcheck.MODULUS_TOL, {"max_deviation": modulus}),
    ]
    return checks, {"gram": F.kernel.gram}, {"seed": cfg.seed, "n_points": len(zs)}


def _run_renorm(cfg: JobConfig):
    from . import clark, selfcheck

    mu = _require(cfg, "measure")
    zs = _clark_points(cfg)
    ctx = clark.renormalize(clark.build_szego_factorization(mu, zs))
    residual, psd = selfcheck.renormalized_identity(ctx)
    cross = selfcheck.inverse_mean_error(mu, zs, ctx.expectations)
    checks = [
        _residual_check("renormalized-identity", residual, ctx.kren_factorization.kernel),
        Check("renormalized-psd", psd.is_psd, {"min_eigenvalue": psd.min_eigenvalue}),
        Check("inverse-mean-matches-b", cross <= selfcheck.INVERSE_MEAN_TOL,
              {"max_abs_error": cross}),
    ]
    return checks, {"kren_gram": ctx.kren_factorization.kernel.gram}, {"seed": cfg.seed, "n_points": len(zs)}


def _run_morphism_check(cfg: JobConfig):
    from . import selfcheck

    morphism, target_features, source_features = _require(cfg, "morphism")
    F1 = factorization.BoundaryFactorization.induced(morphism.target, target_features)
    if source_features is not None:
        F2 = factorization.BoundaryFactorization(
            kernel=F1.kernel, measure=morphism.source, features=source_features)
    else:
        F2 = factorization.pullback(F1, morphism)
    verdicts = factorization.check_morphism(morphism, F1, F2)
    worst_iso = selfcheck.pullback_isometry_error(morphism, selfcheck._rng(cfg.seed, 200))
    checks = [
        Check("pushforward", verdicts["pushforward_ok"]),
        Check("sigma-algebra", verdicts["sigma_ok"]),
        Check("diagram", verdicts["diagram_ok"]),
        Check("pullback-isometry",
              not verdicts["pushforward_ok"] or worst_iso <= selfcheck.ISOMETRY_TOL,
              {"max_residual": worst_iso}),
    ]
    return checks, {}, {"seed": cfg.seed}


def _run_verify_all(cfg: JobConfig):
    from . import selfcheck

    return selfcheck.run_all(seed=cfg.seed), {}, {"seed": cfg.seed}


PIPELINES = {
    "validate": _run_validate,
    "factorize": _run_factorize,
    "gaussian-sample": _run_gaussian_sample,
    "clark": _run_clark,
    "renorm": _run_renorm,
    "morphism-check": _run_morphism_check,
    "verify-all": _run_verify_all,
}
COMMANDS = tuple(PIPELINES)


def run(cfg: JobConfig) -> tuple[dict, int]:
    """Dispatch to the named pipeline and assemble the report.

    Exit code 0 iff all checks pass, 2 on check failure; config and
    domain errors raise and map to exit code 1 in main().
    """
    if cfg.command not in PIPELINES:
        raise ConfigError(f"unknown command {cfg.command!r}")
    log.info("running %s", cfg.command)
    started = time.perf_counter()
    checks, matrices, seed_record = PIPELINES[cfg.command](cfg)
    elapsed = time.perf_counter() - started
    passed = all(check.passed for check in checks)
    report = {
        "command": cfg.command,
        "version": __version__,
        "seed_record": seed_record,
        "passed": passed,
        "checks": [check.as_json() for check in checks],
        "matrices": {name: np.ascontiguousarray(np.atleast_2d(mat), dtype=complex)
                     for name, mat in sorted(matrices.items())},
        "timing": {"seconds": elapsed},
    }
    return report, 0 if passed else 2


def _npy(mat: np.ndarray, file: str | None = None) -> tuple[dict, list]:
    """The report entry of ``mat`` (the sidecar ``file``, None when not
    written, shape, dtype and the sha256 of its ``.npy`` bytes) and those
    bytes in two parts, as np.save writes them: the header of
    ``numpy.lib.format`` and the array's own buffer, which is hashed and
    written without a copy."""
    import hashlib  # on first use, so that importing cli does not load it
    from numpy.lib import format as npy_format

    header = io.BytesIO()
    fields = npy_format.header_data_from_array_1_0(mat)
    npy_format.write_array_header_1_0(header, fields)
    body = mat.T if fields["fortran_order"] else np.ascontiguousarray(mat)
    parts = [header.getvalue(), body]
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part)
    return {"file": file, "shape": list(mat.shape), "dtype": mat.dtype.name,
            "sha256": digest.hexdigest()}, parts


def _unwritten_matrix(obj) -> dict:
    if isinstance(obj, np.ndarray):
        return _npy(obj)[0]
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _write_matrices(matrices: dict, report_path: str) -> dict:
    """Write each matrix next to ``report_path`` as ``<report stem>.<name>.npy``
    and return the report entries, whose ``file`` is relative to the report."""
    folder, base = os.path.split(report_path)
    entries = {}
    for name, mat in matrices.items():
        entries[name], parts = _npy(mat, f"{os.path.splitext(base)[0]}.{name}.npy")
        with open(os.path.join(folder, entries[name]["file"]), "wb") as fh:
            for part in parts:
                fh.write(part)
    return entries


def emit(report: dict) -> bytes:
    """Serialize a report as strict JSON (``Check`` nulls non-finite
    diagnostics), with a matrix not yet written by ``_write_matrices`` given
    as its entry with ``"file": null``."""
    text = json.dumps(report, sort_keys=True, indent=2, allow_nan=False,
                      default=_unwritten_matrix)
    return (text + "\n").encode()


def _reject_constant(name: str):
    raise ValueError(f"non-standard JSON constant {name}")


def parse_report(path: str) -> dict:
    """The strict-JSON report at ``path`` with each matrix loaded from its
    sidecar (``allow_pickle=False``), once the file's sha256, shape and dtype
    are found to match its entry; ValueError otherwise."""
    import hashlib

    with open(path, "rb") as fh:
        report = json.loads(fh.read(), parse_constant=_reject_constant)
    for name, entry in report.get("matrices", {}).items():
        file = entry["file"]
        if file is None or os.path.basename(file) != file:
            raise ValueError(f"matrix {name!r} names no sidecar next to the report: {file!r}")
        with open(os.path.join(os.path.dirname(path), file), "rb") as fh:
            blob = fh.read()
        if hashlib.sha256(blob).hexdigest() != entry["sha256"]:
            raise ValueError(f"sidecar {file} does not match its sha256")
        mat = np.load(io.BytesIO(blob), allow_pickle=False)
        if [list(mat.shape), mat.dtype.name] != [entry["shape"], entry["dtype"]]:
            raise ValueError(f"sidecar {file} does not match its shape and dtype")
        report["matrices"][name] = mat
    return report


class _ArgumentParser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors are config errors (exit 1)."""

    def error(self, message):
        raise ConfigError(message)


@functools.cache
def _parser() -> _ArgumentParser:
    """kb's argument parser, built on the first ``main`` call of a process."""
    parser = _ArgumentParser(
        prog="kb",
        description="Kernel boundary factorization and verification pipelines",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", help="path to the JSON job config")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--out", help="write the report here instead of stdout")
    return parser


def main(argv=None) -> int:
    level = os.environ.get("KB_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))

    try:
        args = _parser().parse_args(argv)
        if args.config is not None:
            try:
                with open(args.config, "rb") as fh:
                    text = fh.read().decode("utf-8")
                if "\r" in text:  # universal newlines, as a text-mode read gives
                    text = text.replace("\r\n", "\n").replace("\r", "\n")
                data = json.loads(text)
            except OSError as exc:
                raise ConfigError(f"cannot read config: {exc}") from exc
            except ValueError as exc:  # bad JSON or UTF-8, or too many integer digits
                raise ConfigError(f"config is not valid JSON: {exc}") from exc
            except RecursionError as exc:
                raise ConfigError(f"config is nested too deeply: {exc}") from exc
        else:
            data = {"command": args.command}
        cfg = parse_config(data, command=args.command)
        if args.seed is not None:
            if args.seed < 0:
                raise ConfigError(f"--seed must be a non-negative integer, got {args.seed}")
            cfg.seed = args.seed

        report, code = run(cfg)
        if args.out:
            try:
                report["matrices"] = _write_matrices(report["matrices"], args.out)
                blob = emit(report)
                with open(args.out, "wb") as fh:
                    fh.write(blob)
            except OSError as exc:
                raise ConfigError(f"cannot write report: {exc}") from exc
        else:
            blob = emit(report)
            try:
                sys.stdout.buffer.write(blob)
                sys.stdout.buffer.flush()
            except BrokenPipeError:
                pass  # reader went away; the exit code still stands
        return code
    except ConfigError as exc:
        print(f"kb: config error: {exc}", file=sys.stderr)
        return 1
    except KernelBoundaryError as exc:
        print(f"kb: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"kb: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
