"""Correctness gate: every kb report is checked against what its input
satisfies by construction.

A job fails when it raises, exits 1, writes a report that is not strict
JSON, reports an exit code that disagrees with its own checks, or reports
an exact verdict that contradicts its input: generated kernels are PSD and
factorizable, so their checks must pass, and a designed negative must fail
its named check.  Statistical verdicts are counted apart, as they fail at
a known rate on correct code.  A failed check counts as the known defect
only when the workload marked the job with it (``Job.known_defects``) and
every residual field capped there is within its cap; any other failure
makes the run incorrect.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

STATISTICAL_CHECKS = ("covariance-deviation", "mean-zero")
# verify-all's sampled criterion: its bounds are statistical, its exact
# marginal identity is not.
STATISTICAL_CRITERION = "gaussian-realization"

_TIMING = re.compile(rb'\n  "timing": \{[^}]*\}')


@dataclass
class Verdict:
    failed: bool = False
    known_defect: bool = False
    stat_failures: int = 0
    reason: str = ""


def _reject_constant(name: str):
    raise ValueError(f"non-standard JSON constant {name}")


def strict_loads(blob: bytes):
    return json.loads(blob, parse_constant=_reject_constant)


def without_timing(blob: bytes) -> bytes:
    """The report with its timing block cut out, for the determinism check."""
    return _TIMING.sub(b"", blob)


def judge(job, code: int | None, error: str | None, blob: bytes | None) -> Verdict:
    """Compare one job's exit code and report with the truth known by construction."""
    if error is not None:
        return Verdict(failed=True, reason=f"raised {error}")
    if code == 1:
        return Verdict(failed=True, reason="exit 1")
    if blob is None:
        return Verdict(failed=True, reason="no report written")
    try:
        report = strict_loads(blob)
    except ValueError as exc:
        return Verdict(failed=True, reason=f"report is not strict JSON: {exc}")

    checks = report.get("checks", [])
    all_passed = all(c.get("passed") is True for c in checks)
    if report.get("passed") is not all_passed or code != (0 if all_passed else 2):
        return Verdict(failed=True, reason=f"exit {code} disagrees with the report's checks")

    verdict = Verdict()
    contradictions = []
    for check in checks:
        name = check.get("name")
        passed = check.get("passed")
        if name == job.must_fail:
            if passed:
                contradictions.append(f"{name} passed on a designed negative")
        elif name in STATISTICAL_CHECKS:
            verdict.stat_failures += not passed
        elif name == STATISTICAL_CRITERION and job.command == "verify-all":
            if check.get("consistency_exact_ok") is not True:
                contradictions.append(f"{name}: exact marginal identity failed")
            verdict.stat_failures += not passed
        elif not passed:
            contradictions.append(name)
    if job.must_fail and job.must_fail not in {c.get("name") for c in checks}:
        contradictions.append(f"designed negative lacks check {job.must_fail}")
    if contradictions:
        verdict.failed = True
        verdict.reason = "; ".join(str(c) for c in contradictions)
        verdict.known_defect = all(_is_known_defect(job, c, checks) for c in contradictions)
    return verdict


def _is_known_defect(job, name: str, checks: list) -> bool:
    """Whether failing check ``name`` is a known defect of ``job``, with every
    residual field the job names present and within its cap."""
    caps = job.known_defects.get(name)
    if caps is None:
        return False
    check = next(c for c in checks if c.get("name") == name)
    return all(isinstance(check.get(k), float) and check[k] <= cap for k, cap in caps.items())
