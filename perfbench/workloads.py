"""Seeded job lists for the kb benchmark.

Each workload is a list of ``kb`` jobs.  Sizes are fixed per workload so
that every seed costs about the same; the seed and the data set number
draw only the data (points, measures, tables, job seeds).  A run writes
one data set per pass, so no timed pass repeats an input, while the jobs
at one position of the list cost about the same in every pass.  Config
files are written at set-up, so the program under test only ever sees
config files.

``scale`` shrinks every size for the benchmark's self-test.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("gram-sweep", "verify-all")

# (kernel kind, sizes); each size runs under both validate and factorize.
GRAM_SIZES = (
    ("szego", (24, 48, 96, 160)),
    ("polydisk-szego", (16, 32, 64, 96)),
    ("debranges-rovnyak", (12, 24, 48, 80)),
    ("table", (16, 32, 64, 88)),
)
DBR_ATOMS = 3
# Designed negatives: indefinite Hermitian tables, which validate must reject.
INDEFINITE_SIZES = (12, 48)

VERIFY_ALL_JOBS = 6

# The known defect of ROADMAP open item 2: checks held to an absolute 1e-9
# tolerance that valid inputs fail through rounding alone.  The jobs that
# may fail them are known by construction, each with the largest residual
# (by report field) that still counts as that defect: the error that the
# library's own relative cutoffs admit.
#
# Szego and polydisk-Szego factorize fail parseval-reconstruction from
# n = 96 on: Szego n=96 on 32 of 150 data sets, n=160 on all (residuals up
# to 4.4e-9), polydisk-Szego n=96 on 2 of 150 (up to 4.5e-9); smaller sizes
# never did (residuals below 1e-13).  parseval_factorize drops eigenvalues
# up to 1e-12 * n of the largest, which is at most n * max|K(z, w)|, so a
# reconstructed entry may miss the Gram by 1e-12 * n^2 * max|K|.
PARSEVAL_DEFECT_MIN_N = 96
PARSEVAL_DEFECT_MAX_ENTRY = {"szego": 1 / (1 - 0.9**2), "polydisk-szego": 1 / (1 - 0.9**2)**2}
# verify-all fails transform-pair on 29 of 1000 seeds, through the
# projection residual and spectrum distance alone (up to 4.8e-7, heavy
# tailed): the pseudo-inverse keeps eigenvalues down to 1e-12 of the
# largest, so rounding can reach float64 eps / 1e-12 = 2.2e-4 there.  The
# isometry and generator residuals (at most 7e-12 seen) stay within 1e-9.
TRANSFORM_PAIR_DEFECT = {"max_projection_residual": 2.2e-4, "max_spectrum_distance": 2.2e-4,
                         "max_isometry_residual": 1e-9, "max_generator_residual": 1e-9}

# Wall time of one pass over either job list on the reference machine
# (2-CPU Xeon, one BLAS thread).  A run makes seconds // PASS_SECONDS timed
# passes, so the number of job runs, and with it the tail percentile, is
# the same for every commit compared.
PASS_SECONDS = 4.0


@dataclass
class Job:
    """One ``kb <command> --config <config>`` call and what it must report."""

    name: str
    command: str
    config: Path
    must_fail: str | None = None  # the check a designed negative must fail
    known_defects: dict = field(default_factory=dict)  # check -> {field: cap}
    facts: dict = field(default_factory=dict)  # sizes, for the self-test


def _rng(seed: int, stream: int, data_set: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), int(stream), int(data_set)])


def _cnum(z) -> dict:
    return {"re": float(np.real(z)), "im": float(np.imag(z))}


def _table(mat: np.ndarray) -> list:
    if np.iscomplexobj(mat):
        return [[_cnum(z) for z in row] for row in mat]
    return [[{"re": float(x)} for x in row] for row in mat]


def _disk_points(rng: np.random.Generator, count: int) -> np.ndarray:
    """Uniform in the disk of radius 0.9, as the CLI's own generator draws."""
    radius = 0.9 * np.sqrt(rng.uniform(0.0, 1.0, size=count))
    angle = rng.uniform(0.0, 2.0 * np.pi, size=count)
    return radius * np.exp(1j * angle)


def _circle_measure(rng: np.random.Generator, atoms: int, min_sep: float) -> dict:
    while True:
        x = np.sort(rng.uniform(0.0, 1.0, size=atoms))
        gaps = np.diff(np.concatenate([x, [x[0] + 1.0]]))
        if atoms == 1 or gaps.min() >= min_sep:
            break
    w = rng.uniform(1.0, 3.0, size=atoms)
    return {"atoms": x.tolist(), "weights": (w / w.sum()).tolist()}


def _hermitian(mat: np.ndarray) -> np.ndarray:
    return 0.5 * (mat + np.conj(mat).T)


def _psd_table(rng: np.random.Generator, n: int, rank: int, real: bool) -> np.ndarray:
    a = rng.standard_normal((n, rank))
    if not real:
        a = a + 1j * rng.standard_normal((n, rank))
    return _hermitian(a @ np.conj(a).T / rank)


def _gram_sweep(rng: np.random.Generator, scale: float) -> list[tuple[str, str, dict, dict]]:
    jobs = []
    for kind, sizes in GRAM_SIZES:
        for i, n in enumerate(sizes):
            n = max(2, int(n * scale))
            facts = {"kind": kind, "n": n}
            if kind == "table":
                # Real tables are half the config size of complex ones, so the
                # field alternates by size instead of by seed.
                rank = int(rng.integers((3 * n + 3) // 4, n + 1))
                kernel = {"variant": "table", "table": _table(
                    _psd_table(rng, n, rank, real=i % 2 == 0))}
                points = None
            elif kind == "polydisk-szego":
                kernel = {"variant": "polydisk-szego", "dim": 2}
                coords = np.stack([_disk_points(rng, n), _disk_points(rng, n)], axis=1)
                points = [[_cnum(z) for z in row] for row in coords]
            else:
                kernel = {"variant": kind}
                if kind == "debranges-rovnyak":
                    kernel["measure"] = _circle_measure(rng, DBR_ATOMS, 0.1)
                points = [_cnum(z) for z in _disk_points(rng, n)]
            for command in ("validate", "factorize"):
                cfg = {"command": command, "kernel": kernel, "seed": int(rng.integers(2**31))}
                if points is not None:
                    cfg["points"] = points
                job_facts = dict(facts)
                if command == "factorize" and kind in PARSEVAL_DEFECT_MAX_ENTRY \
                        and n >= PARSEVAL_DEFECT_MIN_N:
                    cap = 1e-12 * n * n * PARSEVAL_DEFECT_MAX_ENTRY[kind]
                    job_facts["known_defects"] = {"parseval-reconstruction": {"residual": cap}}
                jobs.append((f"{command}-{kind}-n{n}", command, cfg, job_facts))
    for n in INDEFINITE_SIZES:
        n = max(2, int(n * scale))
        table = _hermitian(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        # Centre the spectrum on 0: the lowest eigenvalue is then clearly negative.
        eigs = np.linalg.eigvalsh(table)
        table = table - 0.5 * (eigs[0] + eigs[-1]) * np.eye(n)
        cfg = {"command": "validate", "kernel": {"variant": "table", "table": _table(table)},
               "seed": int(rng.integers(2**31))}
        jobs.append((f"validate-indefinite-n{n}", "validate", cfg,
                     {"kind": "table", "n": n, "must_fail": "positive-definite"}))
    return jobs


def _verify_all(rng: np.random.Generator, scale: float):
    count = max(1, int(round(VERIFY_ALL_JOBS * scale)))
    return [
        (f"verify-all-{i}", "verify-all", {"command": "verify-all", "seed": int(s)},
         {"known_defects": {"transform-pair": TRANSFORM_PAIR_DEFECT}})
        for i, s in enumerate(rng.integers(2**31, size=count))
    ]


GENERATORS = {
    "gram-sweep": (1, _gram_sweep),
    "verify-all": (4, _verify_all),
}


def passes(seconds: float) -> int:
    """Timed passes per run."""
    return max(2, int(seconds // PASS_SECONDS))


def build(workload: str, seed: int, config_dir: Path, scale: float = 1.0,
          data_set: int = 0) -> list[Job]:
    """Write one data set of the workload's config files under ``config_dir``
    and list its jobs."""
    stream, generate = GENERATORS[workload]
    config_dir.mkdir(parents=True, exist_ok=True)
    jobs = []
    for i, (name, command, cfg, facts) in enumerate(
            generate(_rng(seed, stream, data_set), scale)):
        path = config_dir / f"{i:03d}-{name}.json"
        path.write_text(json.dumps(cfg, allow_nan=False))
        must_fail = facts.pop("must_fail", None)
        known = facts.pop("known_defects", {})
        jobs.append(Job(name=f"{i:03d}-{name}", command=command, config=path,
                        must_fail=must_fail, known_defects=known, facts=facts))
    return jobs


# Each worked config of the repository and the check it must fail, if any.
WORKED_NEGATIVES = {"morphism_collapse.json": "sigma-algebra"}


def worked_configs(configs_dir: Path) -> list[Job]:
    """The repository's worked configs, run once per verify-all run."""
    jobs = []
    for path in sorted(configs_dir.glob("*.json")):
        command = json.loads(path.read_text())["command"]
        must_fail = WORKED_NEGATIVES.get(path.name)
        jobs.append(Job(name=f"worked-{path.stem}", command=command, config=path,
                        must_fail=must_fail))
    return jobs
