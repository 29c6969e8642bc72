"""kb job benchmark: seeded workloads of real ``kb`` jobs, run in-process.

    python3 perfbench/run.py --workload gram-sweep --seed 1 --seconds 30 --trace 0

Run from anywhere; the repository root is the parent of this directory.
Load model: closed loop, one client.  Jobs run back to back in this one
process, as a ``kb`` user waits for each report; each job is a
``kboundary.cli.main([...])`` call on a config file written at set-up.
After one untimed warm-up pass, the job list runs a fixed number of timed
passes, derived from ``--seconds`` and the workload's pass time on the
reference machine, each on fresh inputs of the same sizes, so that every
commit compared runs the same amount of work and no input repeats.  The
warm-up pass's inputs run once more at the end, and their reports must
not change.  Reported times are scaled to the reference host's speed by a
probe timed between jobs (see ``Probe``).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` traces every
second timed pass and prints the per-layer metrics.
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import os

# BLAS threads are pinned before numpy loads, the same on every run compared.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import importlib.metadata  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
SETUP_SNIPPET = (
    "import time; t = time.perf_counter(); import kboundary.cli as cli; "
    "cli.load_schema(); print(time.perf_counter() - t)"
)
# The same kind of work without kboundary: a fresh interpreter importing the
# library's dependencies.  Set-up times are scaled by its time next to them.
SETUP_PROBE_SNIPPET = (
    "import time; t = time.perf_counter(); import jsonschema, numpy; "
    "print(time.perf_counter() - t)"
)
TAIL_BEYOND = 10  # job runs the tail percentile keeps beyond it
PROBE_MATRIX_N = 64
SETUPS_PER_PASS = 2
# Probe times on the reference host (2-vCPU Xeon, one BLAS thread) in its
# fast state; reported times are scaled to that speed.
PROBE_REFERENCE_S = 0.011
SETUP_PROBE_REFERENCE_S = 0.11
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("job_s.p50", "s"), ("job_s.tail", "s"),
              ("peak_rss_mb", "MB"))

clock = time.perf_counter


@dataclass
class Outcome:
    code: int | None
    error: str | None
    seconds: float
    probe: float | None = None  # probe seconds around the job
    reference: float = 0.0  # the probe's seconds on the reference host

    @property
    def scaled(self) -> float:
        """The job's time at the reference host's speed."""
        return self.seconds * self.reference / self.probe


# -- set-up -----------------------------------------------------------------

def fresh_interpreter(snippet: str) -> float:
    """Seconds a fresh interpreter reports for ``snippet``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", snippet], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout)


def measure_setups(count: int) -> list[Outcome]:
    """``count`` set-up times (import kboundary.cli, load the schema), each
    with the set-up probe timed before and after it."""
    setups = []
    before = fresh_interpreter(SETUP_PROBE_SNIPPET)
    for _ in range(count):
        seconds = fresh_interpreter(SETUP_SNIPPET)
        after = fresh_interpreter(SETUP_PROBE_SNIPPET)
        setups.append(Outcome(0, None, seconds, (before + after) / 2, SETUP_PROBE_REFERENCE_S))
        before = after
    return setups


def machine_record() -> dict:
    import numpy as np

    record = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "jsonschema": importlib.metadata.version("jsonschema"),
        "blas_threads": BLAS_THREADS,
        "commit": _git_commit(),
        "source_sha256": _source_digest(),
    }
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        record["blas"] = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        record["blas"] = "unknown"
    return record


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _caches() -> dict:
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"L{level}"] = size
    return caches


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "kboundary").rglob("*")):
        if path.suffix in (".py", ".json"):
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


# -- job execution ----------------------------------------------------------

def run_pass(main, jobs, out_dir: Path, tracer=None, probe=None) -> list[Outcome]:
    """Run every job once, back to back, and time each.  With a ``probe``,
    the probe is timed before the first job and after each job, and a job's
    probe time is the mean of the two around it."""
    out_dir.mkdir(parents=True, exist_ok=True)
    outcomes = []
    probes = [probe.seconds()] if probe else []
    for job in jobs:
        out = out_dir / f"{job.name}.json"
        out.unlink(missing_ok=True)
        if tracer is not None:
            tracer.job = job.name
        argv = [job.command, "--config", str(job.config), "--out", str(out)]
        t0 = clock()
        try:
            code, error = main(argv), None
        except Exception as exc:  # a job that raises is a failed job, not a benchmark crash
            traceback.print_exc()
            code, error = None, f"{type(exc).__name__}: {exc}"
        outcomes.append(Outcome(code, error, clock() - t0))
        if probe:
            probes.append(probe.seconds())
    for outcome, before, after in zip(outcomes if probe else (), probes, probes[1:]):
        outcome.probe, outcome.reference = (before + after) / 2, PROBE_REFERENCE_S
    return outcomes


def _read(path: Path) -> bytes | None:
    try:
        return path.read_bytes()
    except OSError:
        return None


def new_tally() -> dict:
    return {"attempted": 0, "failed": 0, "unknown_failures": 0, "stat_failures": 0,
            "failures": []}


def judge_pass(tally: dict, jobs, outcomes, report_dir: Path, label: str) -> None:
    """Judge every job run of one pass against its input; add to ``tally``."""
    import gate

    for job, outcome in zip(jobs, outcomes):
        verdict = gate.judge(job, outcome.code, outcome.error,
                             _read(report_dir / f"{job.name}.json"))
        tally["attempted"] += 1
        tally["stat_failures"] += verdict.stat_failures
        if verdict.failed:
            _fail(tally, f"{label}/{job.name}", verdict.known_defect, verdict.reason)


def judge_repeat(tally: dict, jobs, first, again, dirs: tuple[Path, Path]) -> None:
    """Judge a second run of a job list on the same configs: besides the
    gate, its exit codes and its reports, once their timing blocks are cut
    out, must equal the first run's."""
    import gate

    for job, a, b in zip(jobs, first, again):
        blobs = [_read(d / f"{job.name}.json") for d in dirs]
        verdict = gate.judge(job, b.code, b.error, blobs[1])
        tally["attempted"] += 1
        tally["stat_failures"] += verdict.stat_failures
        reasons = [verdict.reason] if verdict.failed else []
        known = verdict.known_defect or not verdict.failed
        if a.code != b.code:
            reasons.append("exit code differs between two runs")
            known = False
        elif None not in blobs and gate.without_timing(blobs[0]) != gate.without_timing(blobs[1]):
            reasons.append("report differs between two runs")
            known = False
        if reasons:
            _fail(tally, f"again/{job.name}", known, "; ".join(reasons))


def _fail(tally: dict, job: str, known: bool, reason: str) -> None:
    tally["failed"] += 1
    tally["unknown_failures"] += not known
    tally["failures"].append({"job": job, "known_defect": known, "reason": reason})


# -- host speed -------------------------------------------------------------

class Probe:
    """A fixed unit of work that does not touch kboundary, timed in this process.

    The reference host changes speed by up to 2x, in stretches of a few
    seconds to whole runs (this unit takes 10 ms or 20 ms, in CPU time and
    wall time alike), and kb jobs slow with it.  So the probe is timed
    between jobs, and each job's time is scaled by PROBE_REFERENCE_S /
    (probe time around it): the time the job would have taken at the
    reference host's speed.  The unit mixes the workloads' two kinds of
    work, Python object churn with JSON and small dense eigendecompositions,
    and runs with the garbage collector off, so that the heap the jobs leave
    behind does not slow it.  Set-up times are scaled the same way by a
    fresh interpreter that imports only the library's dependencies.
    """

    def __init__(self):
        import numpy as np

        a = np.cos(np.arange(PROBE_MATRIX_N**2, dtype=float)).reshape(PROBE_MATRIX_N, -1)
        self.matrix = a @ a.T
        self.eigh = np.linalg.eigh  # bound now, before a tracer can wrap it

    def seconds(self) -> float:
        gc.disable()
        try:
            t0 = clock()
            rows = [[{"re": i * 0.1 + j, "im": j * 0.3} for j in range(48)] for i in range(48)]
            json.loads(json.dumps(rows, indent=2))
            for _ in range(6):
                self.eigh(self.matrix)
            return clock() - t0
        finally:
            gc.enable()


@dataclass
class Pass:
    outcomes: list
    layers: dict | None = None  # tracer summary of a traced pass

    @property
    def wall(self) -> float:
        return sum(o.seconds for o in self.outcomes)

    @property
    def scaled_wall(self) -> float:
        return sum(o.scaled for o in self.outcomes)

    @property
    def scale(self) -> float:
        return self.scaled_wall / self.wall


# -- one benchmark run ------------------------------------------------------

def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run: set up, run the job list for about ``seconds``, gate every report.

    Pass 0 is an untimed warm-up.  Each timed pass k runs data set k: the
    same job sizes, fresh inputs.  When tracing, every second timed pass is
    traced.  Before each timed pass, fresh interpreters measure set-up.
    After the timed passes, data set 0 runs again and its reports must equal
    the warm-up's.
    """
    import workloads

    work = WORK / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        n_passes = workloads.passes(seconds)
        n_passes += trace and n_passes % 2  # as many traced passes as untraced
        data = [workloads.build(workload, seed, work / "configs" / f"set{k}", data_set=k)
                for k in range(n_passes + 1)]
        sys.path.insert(0, str(SRC))
        from kboundary import cli

        tally = new_tally()
        if workload == "verify-all":
            worked = workloads.worked_configs(ROOT / "configs")
            outcomes = run_pass(cli.main, worked, work / "worked")
            judge_pass(tally, worked, outcomes, work / "worked", "worked")

        probe = Probe()
        tracer = None
        if trace:
            import tracing

            tracer = tracing.Tracer()
        warm_up = run_pass(cli.main, data[0], work / "reports-0")
        setups, passes = [], []
        for k in range(1, n_passes + 1):
            setups += measure_setups(SETUPS_PER_PASS)
            traced = trace and k % 2 == 0
            main, layers = cli.main, None
            if traced:
                tracer.install()
                main, mark = tracer.job_runner(cli.main), tracer.mark()
            try:
                outcomes = run_pass(main, data[k], work / f"reports-{k}",
                                    tracer if traced else None, probe)
            finally:
                if traced:
                    tracer.uninstall()
                    layers = tracer.summary(mark)
            passes.append(Pass(outcomes, layers))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        again = run_pass(cli.main, data[0], work / "reports-again")
        for k, (jobs, outcomes) in enumerate(zip(data, [warm_up] + [p.outcomes for p in passes])):
            judge_pass(tally, jobs, outcomes, work / f"reports-{k}", f"set{k}")
        judge_repeat(tally, data[0], warm_up, again, (work / "reports-0", work / "reports-again"))
        return {"passes": passes, "setups": setups, "peak_rss_mb": peak_rss_mb,
                "gate": tally, "jobs": data[0], "tracer": tracer,
                "config_bytes": statistics.median(
                    sum(job.config.stat().st_size for job in jobs) for jobs in data[1:])}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _tail(ranked: list[float]) -> tuple[float, int]:
    """The slowest value that keeps TAIL_BEYOND values beyond it, and its percentile."""
    n = len(ranked)
    beyond = min(n - 1, TAIL_BEYOND)
    return ranked[n - 1 - beyond], 100 * (n - beyond) // n


def end_to_end(result: dict, scaled: bool = True) -> tuple[dict, dict]:
    """The end-to-end metrics over the untraced timed passes, each time at
    the reference host's speed (``scaled=False``: as measured)."""
    untraced = [p for p in result["passes"] if p.layers is None]
    time_of = (lambda o: o.scaled) if scaled else (lambda o: o.seconds)
    runs = sorted(time_of(o) for p in untraced for o in p.outcomes)
    tail, percentile = _tail(runs)
    values = {
        "setup_s": statistics.median(time_of(o) for o in result["setups"]),
        "wall_s": statistics.median(sum(time_of(o) for o in p.outcomes) for p in untraced),
        "job_s.p50": statistics.median(runs),
        "job_s.tail": tail,
        "peak_rss_mb": result["peak_rss_mb"],
    }
    stats = {"tail_percentile": percentile, "samples": len(runs), "passes": len(untraced),
             "jobs": len(result["jobs"])}
    return {name: (values[name], unit) for name, unit in END_TO_END}, stats


def per_layer(result: dict) -> dict:
    """Per-layer metrics: the median over traced passes; times are scaled as
    the end-to-end ones are."""
    import tracing
    from kboundary import selfcheck

    stat_failures = result["gate"]["stat_failures"]
    per_pass = []
    for p in result["passes"]:
        if p.layers is None:
            continue
        summary, values = p.layers, {}
        for span in tracing.SELF_TIME_SPANS:
            values[f"{span}.self_s"] = summary["self_s"][span] * p.scale
        for span in tracing.SPAN_CALLS:
            values[f"{span}.calls"] = summary["calls"][span]
        for name in ("kernels.pair_evals", "gaussian.sample.values", "gaussian.sample.bytes",
                     "cli.report_bytes", *(f"clark.{f}.calls" for f in tracing.COUNTED["clark"]),
                     *(f"{m}.decompositions" for m in tracing.DECOMPOSITION_MODULES)):
            values[name] = summary["counts"][name]
        for check in selfcheck.ALL_CHECKS:
            name = f"selfcheck.{check.__name__}"
            values[f"{name}.total_s"] = summary["total_s"][name] * p.scale
        values["cli.config_bytes"] = result["config_bytes"]
        values["gaussian.stat_check_failures"] = stat_failures
        for code in (0, 1, 2):
            values[f"cli.exit{code}"] = sum(o.code == code for o in p.outcomes)
        per_pass.append(values)
    walls = {traced: statistics.median(p.scaled_wall for p in result["passes"]
                                       if (p.layers is not None) == traced)
             for traced in (False, True)}
    units = dict(tracing.layer_metric_names(c.__name__ for c in selfcheck.ALL_CHECKS))
    metrics = {}
    for name, unit in units.items():
        if name == "trace.overhead_s":
            metrics[name] = (walls[True] - walls[False], unit)
        else:
            metrics[name] = (statistics.median(v[name] for v in per_pass), unit)
    return metrics


def _write_record(workload, seed, trace, machine, metrics, stats, result):
    WORK.mkdir(exist_ok=True)
    record = {
        "workload": workload, "seed": seed, "trace": trace, "machine": machine,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "jobs": stats, "gate": result["gate"], "probe_reference_s": PROBE_REFERENCE_S,
        "setups": [(o.seconds, o.probe) for o in result["setups"]],
        "passes": [{"traced": p.layers is not None,
                    "jobs": [(o.seconds, o.probe) for o in p.outcomes]}
                   for p in result["passes"]],
    }
    if result["tracer"] is not None:
        record["spans"] = result["tracer"].spans
    path = WORK / f"last-{workload}-trace{int(trace)}.json"
    path.write_text(json.dumps(record))
    return path


def main(argv=None) -> int:
    sys.path.insert(0, str(BENCH_DIR))
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "kboundary" / "cli.py").is_file():
        print(f"perfbench: no kboundary sources under {SRC}", file=sys.stderr)
        return 2

    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    machine = machine_record()
    e2e, stats = end_to_end(result)
    measured, _ = end_to_end(result, scaled=False)
    metrics = per_layer(result) if args.trace else e2e
    tally = result["gate"]

    print("machine " + json.dumps(machine, sort_keys=True))
    probes = [o.probe for p in result["passes"] for o in p.outcomes]
    print(f"{args.workload} probe = {statistics.median(probes):.6g} s median, "
          f"{min(probes):.6g}-{max(probes):.6g} s (reference {PROBE_REFERENCE_S} s); "
          "times below are at the reference speed")
    for name, (value, unit) in e2e.items():
        print(f"{args.workload} {name} = {value:.6g} {unit} (as measured {measured[name][0]:.6g})")
    print(f"{args.workload} job_s.tail is p{stats['tail_percentile']} of {stats['samples']} "
          f"job runs ({stats['jobs']} jobs x {stats['passes']} untraced timed passes)")
    print(f"{args.workload} ops_failed_frac = {tally['failed'] / tally['attempted']:.6g} "
          f"({tally['failed']} of {tally['attempted']} job runs; "
          f"{tally['unknown_failures']} outside the known defect)")
    for failure in tally["failures"]:
        print(f"{args.workload} failed {failure['job']}: {failure['reason']}"
              f"{' [known defect]' if failure['known_defect'] else ''}")
    print(f"record written to {_write_record(args.workload, args.seed, bool(args.trace), machine, metrics, stats, result)}")
    print(json.dumps({
        "correct": tally["unknown_failures"] == 0,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
