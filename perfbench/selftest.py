"""Self-test of the benchmark: one tiny traced pass of each workload.

    python3 perfbench/selftest.py

The traced counts must match what the generated job list implies; a
wrapper that missed a namespace shows up as a count that is too small.
Every report must also pass the correctness gate, and BENCHMARK.json must
name exactly the metrics the benchmark prints.  Exits 1 on any mismatch.
"""

from __future__ import annotations

import json
import shutil
import sys

import run  # pins the BLAS threads before numpy loads

sys.path.insert(0, str(run.SRC))

import tracing  # noqa: E402
import workloads  # noqa: E402
from kboundary import cli, clark, kernels, selfcheck  # noqa: E402

SCALE = {"gram-sweep": 0.15, "verify-all": 0.1}


def _pairs(jobs, kinds) -> int:
    return sum(j.facts["n"] * (j.facts["n"] + 1) // 2 for j in jobs if j.facts["kind"] in kinds)


def expected_counts(workload: str, jobs) -> dict:
    """Counts that the job list fixes, by metric name (calls of a span: name)."""
    n_jobs = len(jobs)
    by_command = {c: sum(j.command == c for j in jobs) for c in cli.COMMANDS}
    common = {"job": n_jobs, "cli.parse_config": n_jobs, "cli.schema_validate": n_jobs,
              "cli.run": n_jobs, "cli.emit": n_jobs}
    if workload == "gram-sweep":
        dbr = _pairs(jobs, ("debranges-rovnyak",))
        return {**common,
                "kernels.assemble_gram": n_jobs,
                "kernels.FiniteKernel.init": n_jobs,
                "kernels.pair_evals": _pairs(jobs, ("szego", "polydisk-szego",
                                                    "debranges-rovnyak")),
                "clark.kb_eval.calls": dbr,
                "clark.b_eval.calls": 2 * dbr,
                "clark.cauchy_transform.calls": 2 * dbr,
                "kernels.check_positive_definite": by_command["validate"],
                "kernels.decompositions": by_command["validate"],
                "rkhs.parseval_factorize": by_command["factorize"],
                "rkhs.decompositions": 2 * by_command["factorize"]}
    # verify-all: each criterion once per job; the Herglotz corpus is
    # 20 measures x 100 points, and one 4-point Szego Gram is assembled.
    return {**common,
            **{f"selfcheck.{c.__name__}": n_jobs for c in selfcheck.ALL_CHECKS},
            "clark.herglotz_poisson_check": 2000 * n_jobs,
            "kernels.assemble_gram": n_jobs,
            "kernels.pair_evals": 10 * n_jobs}


def check_workload(workload: str) -> list[str]:
    work = run.WORK / f"selftest-{workload}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        jobs = workloads.build(workload, 7, work / "configs", SCALE[workload])
        tracer = tracing.Tracer()
        originals = (kernels.assemble_gram, clark.apply_V, selfcheck.ALL_CHECKS)
        tracer.install()
        try:
            mark = tracer.mark()
            outcomes = run.run_pass(tracer.job_runner(cli.main), jobs, work / "reports", tracer)
            summary = tracer.summary(mark)
        finally:
            tracer.uninstall()
        problems = []
        if (kernels.assemble_gram, clark.apply_V, selfcheck.ALL_CHECKS) != originals:
            problems.append("uninstall did not restore the library")
        observed = {**summary["calls"], **summary["counts"]}
        for name, want in expected_counts(workload, jobs).items():
            if observed.get(name, 0) != want:
                problems.append(f"{name}: traced {observed.get(name, 0)}, job list implies {want}")
        report_bytes = sum((work / "reports" / f"{j.name}.json").stat().st_size for j in jobs)
        if summary["counts"]["cli.report_bytes"] != report_bytes:
            problems.append(f"cli.report_bytes {summary['counts']['cli.report_bytes']} "
                            f"!= {report_bytes} written")
        tally = run.new_tally()
        run.judge_pass(tally, jobs, outcomes, work / "reports", "selftest")
        problems += [f"gate: {f['job']}: {f['reason']}" for f in tally["failures"]]
        return problems
    finally:
        shutil.rmtree(work, ignore_errors=True)


def check_spec() -> list[str]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    layer = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    if layer != tracing.layer_metric_names(c.__name__ for c in selfcheck.ALL_CHECKS):
        problems.append("BENCHMARK.json per_layer differs from the traced metrics")
    if [w["name"] for w in spec["workloads"]] != list(workloads.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from perfbench/workloads.py")
    if [(m["name"], m["unit"]) for m in spec["end_to_end"]] != list(run.END_TO_END):
        problems.append("BENCHMARK.json end_to_end differs from run.py's metrics")
    return problems


def main() -> int:
    failed = False
    for name, problems in [("spec", check_spec())] + [
            (w, check_workload(w)) for w in workloads.WORKLOADS]:
        for problem in problems:
            print(f"FAIL {name}: {problem}")
        print(f"{'FAIL' if problems else 'ok  '} {name}")
        failed = failed or bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
