"""Batch front end: JSON job configs in, machine-readable reports out.

Usage:  kb <command> --config <file.json> [--seed N] [--out path]

Commands: validate, factorize, gaussian-sample, clark, renorm,
morphism-check, verify-all.  Configs are validated strictly against the
shipped JSON schema (unknown fields rejected).  The shipped schema decides
validity: a small acceptor over it proves a valid config valid, and
jsonschema is loaded only for a config the acceptor cannot prove, to decide
it and to explain a rejection.  Exit code 0 when every check passes, 2 on
a check failure, 1 on a usage, config or domain error (a negative --seed
too) or when memory runs out.
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

import numpy as np

# Only what validate and factorize run; the other pipelines import the
# self-check suite and the Clark machinery where they run.
from . import __version__, factorization, kernels, measures, rkhs
from .check import Check
from .errors import ConfigError, KernelBoundaryError

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
# The shipped schema decides which configs are valid.  ``_proves`` accepts a
# config when it can prove it valid against that schema, so that a valid
# config never loads jsonschema; jsonschema decides every config it cannot
# prove, and explains each rejection.

# Keywords that do not constrain the instance.
_ANNOTATIONS = frozenset(("$schema", "$defs", "title", "description", "$comment"))
# JSON type -> the exact Python types that ``_proves`` accepts for it.
_JSON_TYPES = {"object": (dict,), "array": (list,), "string": (str,), "integer": (int,),
               "number": (int, float)}


def _proves(x, schema) -> bool:
    """True only when ``x`` is valid against ``schema``, a subschema of the
    shipped one; False means "not proven", for jsonschema to decide.

    Only type, enum, properties, required, additionalProperties, items,
    minItems, minimum, maximum and ``#/$defs/<name>`` references are
    implemented, on exact JSON types (``type(x) is dict`` and so on).  Any
    other keyword, such as oneOf, is not proven, nor are bools, dict
    subclasses, integral floats as integers and NaN against a bound.
    """
    if type(schema) is not dict:
        return False
    for key, rule in schema.items():
        if key in _ANNOTATIONS:
            continue
        if key == "type":
            ok = type(rule) is str and type(x) in _JSON_TYPES.get(rule, ())
        elif key == "enum":
            ok = type(x) is str and x in rule
        elif key == "required":
            ok = type(x) is dict and all(name in x for name in rule)
        elif key == "properties":
            ok = type(x) is dict and all(
                _proves(x[name], sub) for name, sub in rule.items() if name in x
            )
        elif key == "additionalProperties":
            known = schema.get("properties", {})
            ok = type(x) is dict and all(
                type(name) is str and (name in known or _proves(value, rule))
                for name, value in x.items()
            )
        elif key == "items":
            ok = type(x) is list and all(_proves(item, rule) for item in x)
        elif key == "minItems":
            ok = type(x) is list and len(x) >= rule
        elif key == "minimum":
            ok = type(x) in _JSON_TYPES["number"] and x >= rule
        elif key == "maximum":
            ok = type(x) in _JSON_TYPES["number"] and x <= rule
        elif key == "$ref":
            ok = _proves(x, _local_def(rule))
        else:
            return False
        if not ok:
            return False
    return True


def _local_def(ref: str):
    """The subschema that ``ref`` names when it is ``#/$defs/<name>``, else
    None; a name holding "~", "/" or "%" would need JSON-pointer decoding."""
    name = ref.removeprefix("#/$defs/")
    if name == ref or any(c in name for c in "~/%"):
        return None
    return _schema().get("$defs", {}).get(name)


@functools.cache
def _validator():
    import jsonschema  # only here: a config that _proves accepts never loads it

    # jsonschema.validate minus its check_schema call: the shipped schema is
    # checked against its metaschema once, by the test suite.
    return jsonschema.validators.validator_for(_schema())(_schema())


def _explain(view) -> None:
    """The ConfigError of jsonschema's best-matching error on ``view``, the
    message ``jsonschema.validate`` gives, raised when there is one."""
    import jsonschema

    try:
        error = jsonschema.exceptions.best_match(_validator().iter_errors(view))
    except RecursionError as exc:  # a message's repr of a deeply nested instance
        raise ConfigError(f"config is nested too deeply: {exc}") from exc
    if error is not None:
        raise ConfigError(f"config does not match schema: {error.message}")


# -- cnum arrays -----------------------------------------------------------------

_CNUM_KEYS = frozenset(("re", "im"))
_NUMBER_TYPES = frozenset(_JSON_TYPES["number"])
# Where the schema puts cnum arrays: parent key ("" for the root) -> fields.
_CNUM_FIELDS = {"": ("points",), "kernel": ("table",),
                "morphism": ("target_features", "source_features")}


def _floats(values: list) -> np.ndarray:
    """``_to_float`` of each value, as a float64 vector."""
    try:
        return np.fromiter(map(float, values), float, len(values))
    except OverflowError:
        return np.fromiter(map(_to_float, values), float, len(values))


def _decode_cnums(cnums: list, exact: bool = False) -> np.ndarray | None:
    """The complex vector of ``cnums``, entry k bit-equal to
    ``complex(_to_float(re), _to_float(im))`` of cnum k, a non-finite one
    included.

    With ``exact``, None unless each is a cnum the schema accepts with every
    part exactly an int or a float (bools, numpy scalars, Decimal and dict
    subclasses are left to jsonschema); without it, ``cnums`` must be cnums
    that jsonschema accepted.
    """
    if exact and (set(map(type, cnums)) - {dict}
                  or not all(map(_CNUM_KEYS.issuperset, cnums))):
        return None
    re = [z.get("re") for z in cnums]
    im = [z.get("im", 0.0) for z in cnums]
    if exact and not {*map(type, re), *map(type, im)} <= _NUMBER_TYPES:
        return None
    out = np.empty(len(cnums), dtype=complex)
    out.real = _floats(re)
    out.imag = _floats(im)
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
    walking each number.  A rejected array stays for jsonschema.
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
            z = None if flat is None else _decode_cnums(flat, exact=True)
            if z is not None:
                decoded[field] = z
                holder[field] = []
    return view, decoded


def _cnum_vector(rows, z: np.ndarray | None = None) -> np.ndarray:
    """The cnums of ``rows`` in row-major order as a complex vector: ``z``
    when the screen decoded them, else decoded by ``_decode_cnums``.  A
    non-finite number is a ConfigError naming the first such cnum."""
    if z is None:
        z = _decode_cnums([c for row in rows for c in row])
    bad = ~np.isfinite(z)
    if bad.any():
        first = [c for row in rows for c in row][int(bad.argmax())]
        raise ConfigError(f"complex numbers must be finite, got {first!r}")
    return z


def _parse_matrix(rows, name: str, z: np.ndarray | None = None) -> np.ndarray:
    """``rows`` as a complex matrix, shaped as ``np.array`` shapes it (no rows
    give an empty vector); ``z`` as in ``_cnum_vector``."""
    flat = _cnum_vector(rows, z)
    widths = {len(row) for row in rows}
    if len(widths) > 1:
        raise ConfigError(f"{name} rows must all have the same length")
    return flat.reshape(len(rows), *widths)


def _parse_points(raw, z: np.ndarray | None = None) -> kernels.PointSet:
    if not raw:
        raise ConfigError("points must be a nonempty list")
    scalar = isinstance(raw[0], dict)
    if any(isinstance(entry, dict) != scalar for entry in raw):
        raise ConfigError("points must be all scalars or all coordinate tuples")
    if scalar:
        return kernels.PointSet.from_points(_cnum_vector([raw], z))
    dims = {len(entry) for entry in raw}
    if len(dims) != 1:
        raise ConfigError("all point tuples must share one dimension")
    return kernels.PointSet.from_points(_cnum_vector(raw, z).reshape(len(raw), *dims))


def _parse_circle_measure(raw) -> measures.CircleMeasure:
    return measures.CircleMeasure(atoms=raw["atoms"], weights=raw["weights"])


def _parse_discrete_measure(raw) -> measures.DiscreteMeasure:
    return measures.DiscreteMeasure(atoms=tuple(raw["atoms"]), weights=raw["weights"])


# variant -> the kernel fields besides "variant" that it reads
_KERNEL_FIELDS = {"szego": {"dim"}, "polydisk-szego": {"dim"},
                  "debranges-rovnyak": {"dim", "measure"}, "table": {"table"}}


def _parse_kernel(raw, points: kernels.PointSet | None, table: np.ndarray | None = None):
    """The closed-form kernel that ``raw`` names, or its table as a
    ``FiniteKernel`` over ``points`` (the index points when None).  A field
    that the variant does not read is a ConfigError."""
    variant = raw["variant"]
    unread = sorted(set(raw) - {"variant"} - _KERNEL_FIELDS[variant])
    if unread:
        raise ConfigError(f"{variant} kernel does not take {', '.join(unread)}")
    dim = int(raw.get("dim", 1))
    if variant in ("szego", "polydisk-szego"):
        return kernels.KernelSpec(dim=dim)
    if variant == "debranges-rovnyak":
        if "measure" not in raw:
            raise ConfigError("debranges-rovnyak kernel requires a measure")
        return kernels.KernelSpec(dim=dim, measure=_parse_circle_measure(raw["measure"]))
    if "table" not in raw:
        raise ConfigError("table kernel requires a table")
    return kernels.FiniteKernel.from_table(
        _parse_matrix(raw["table"], "kernel.table", table), points)


def _parse_morphism(raw, decoded: dict) -> tuple:
    """(MeasureMorphism, target features, source features or None) of a raw
    morphism, each feature matrix from its ``decoded`` vector when the
    screen decoded it."""
    source = _parse_discrete_measure(raw["source"])
    target = _parse_discrete_measure(raw["target"])
    morphism = factorization.MeasureMorphism(source=source, target=target, map=dict(raw["map"]))
    target_features = _parse_matrix(raw["target_features"], "morphism.target_features",
                                    decoded.get("target_features"))
    if target_features.ndim != 2 or target_features.shape[1] != target.size:
        raise ConfigError("target_features must be n_points x n_target_atoms")
    source_features = None
    if "source_features" in raw:
        source_features = _parse_matrix(raw["source_features"], "morphism.source_features",
                                        decoded.get("source_features"))
    return morphism, target_features, source_features


@dataclasses.dataclass
class JobConfig:
    command: str
    kernel: kernels.KernelSpec | kernels.FiniteKernel | None = None
    points: kernels.PointSet | None = None
    measure: measures.CircleMeasure | None = None
    morphism: tuple | None = None  # as _parse_morphism returns it
    psd_tol: float = kernels.PSD_TOL
    fact_tol: float = factorization.FACTORIZATION_TOL
    rank_tol: float | None = None
    seed: int = 0
    sample_count: int | None = None
    output_path: str | None = None


def parse_config(data: dict, command: str | None = None) -> JobConfig:
    """Strict parse of a raw config dict; unknown fields are rejected.

    The shipped schema decides validity.  ``_screen_cnum_arrays`` decodes
    every cnum array (points, table, morphism features) that it accepts,
    and ``_proves`` accepts the rest when it can prove it valid; jsonschema
    is imported only for a config it cannot prove, to decide it and to
    explain a rejection with the message ``jsonschema.validate`` gives.  A
    non-finite complex number is a ``ConfigError``.
    """
    view, decoded = _screen_cnum_arrays(data)
    if not _proves(view, _schema()):
        _explain(view)

    cfg_command = data.get("command")
    if command is not None and cfg_command is not None and command != cfg_command:
        raise ConfigError(
            f"command line says {command!r} but config says {cfg_command!r}"
        )
    resolved = command or cfg_command
    if resolved is None:
        raise ConfigError("no command given")

    try:
        # Unset tolerances keep the JobConfig defaults.
        tol = {key: _to_float(v) for key, v in data.get("tolerances", {}).items()}
        if not all(np.isfinite(v) for v in tol.values()):
            raise ConfigError(f"tolerances must be finite, got {tol!r}")
        out = data.get("output", {})
        points = (_parse_points(data["points"], decoded.get("points"))
                  if "points" in data else None)
        return JobConfig(
            command=resolved,
            kernel=(_parse_kernel(data["kernel"], points, decoded.get("table"))
                    if "kernel" in data else None),
            points=points,
            measure=_parse_circle_measure(data["measure"]) if "measure" in data else None,
            morphism=(_parse_morphism(data["morphism"], decoded)
                      if "morphism" in data else None),
            **tol,
            seed=int(data.get("seed", 0)),
            sample_count=data.get("sample_count"),
            output_path=out.get("path"),
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


def _residual_check(name: str, residual: float, K: kernels.FiniteKernel, tol: float,
                    **details) -> Check:
    """Judge ``residual`` by kernels.relative_residual, so that the verdict does
    not depend on units; an infinite relative residual is null and fails."""
    relative = kernels.relative_residual(residual, K)
    return Check(name, relative <= tol, {"residual": residual, "relative_residual": relative,
                                         "tolerance": tol, **details})


def _run_validate(cfg: JobConfig):
    K = _build_kernel(cfg)
    report = kernels.check_positive_definite(K, tol=cfg.psd_tol)
    checks = [Check("positive-definite", report.is_psd, {
        "min_eigenvalue": report.min_eigenvalue,
        "max_eigenvalue": report.max_eigenvalue,
        "tolerance": cfg.psd_tol,
    })]
    return checks, {"gram": K.gram}, {"seed": cfg.seed}


def _run_factorize(cfg: JobConfig):
    K = _build_kernel(cfg)
    F = rkhs.parseval_factorize(K, rank_tol=cfg.rank_tol, psd_tol=cfg.psd_tol)
    residual = rkhs.verify_parseval(F)
    checks = [
        _residual_check("parseval-reconstruction", residual, K, cfg.fact_tol,
                        retained_rank=F.n_atoms),
        Check("tightness", rkhs.tightness_test(F)),
    ]
    return checks, {"frame": F.features.T}, {"seed": cfg.seed}


def _run_gaussian_sample(cfg: JobConfig):
    from . import selfcheck

    K = _build_kernel(cfg)
    n_draws = int(cfg.sample_count or 10000)
    deviation, mean_moduli, emp, seed_record = selfcheck.moment_errors(K, cfg.seed, n_draws)
    cov_bound = selfcheck.covariance_bound(K, n_draws)
    mean_bounds = 5.0 * np.sqrt(np.maximum(np.diag(K.gram).real, 0.0) / n_draws)
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
        if cfg.points.dim != 1:
            raise ConfigError("clark pipelines need 1-dim complex points")
        return cfg.points.coords[:, 0]
    return selfcheck.random_interior(selfcheck._rng(cfg.seed, 100), int(cfg.sample_count or 50))


def _run_clark(cfg: JobConfig):
    from . import clark, selfcheck

    mu = _require(cfg, "measure")
    zs = _clark_points(cfg)
    F = clark.build_kb_factorization(mu, zs)
    residual = factorization.verify_factorization(F)
    minimal = factorization.minimality_test(F, rank_tol=cfg.rank_tol)
    herglotz = selfcheck.herglotz_error(mu, zs)
    modulus = selfcheck.modulus_deviation(mu)
    checks = [
        _residual_check("factorization-residual", residual, F.kernel, cfg.fact_tol),
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
    residual, psd = selfcheck.renormalized_identity(ctx, cfg.psd_tol)
    cross = selfcheck.inverse_mean_error(mu, zs, ctx.expectations)
    checks = [
        _residual_check("renormalized-identity", residual, ctx.kren_factorization.kernel,
                        cfg.fact_tol),
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


def _npy(mat: np.ndarray, file: str | None = None) -> tuple[dict, bytes]:
    """The ``.npy`` bytes of ``mat`` and its report entry: the sidecar
    ``file`` (None when not written), shape, dtype and the bytes' sha256."""
    import hashlib  # on first use, so that importing cli does not load it

    buf = io.BytesIO()
    np.save(buf, mat, allow_pickle=False)
    blob = buf.getvalue()
    return {"file": file, "shape": list(mat.shape), "dtype": mat.dtype.name,
            "sha256": hashlib.sha256(blob).hexdigest()}, blob


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
        entries[name], blob = _npy(mat, f"{os.path.splitext(base)[0]}.{name}.npy")
        with open(os.path.join(folder, entries[name]["file"]), "wb") as fh:
            fh.write(blob)
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
                with open(args.config, "r", encoding="utf-8") as fh:
                    data = json.load(fh)
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
        if args.out is not None:
            cfg.output_path = args.out

        report, code = run(cfg)
        if cfg.output_path:
            try:
                report["matrices"] = _write_matrices(report["matrices"], cfg.output_path)
                blob = emit(report)
                with open(cfg.output_path, "wb") as fh:
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
