"""verify-all runs its criteria one after another in the calling process:
each check is the one its criterion makes alone on empty caches, on one CPU
as on many, and where the platform lacks os.fork; nothing is forked."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from kboundary import selfcheck

PACKAGE_ROOT = str(Path(__file__).resolve().parents[1] / "src")


def _as_json(checks) -> str:
    return json.dumps([check.as_json() for check in checks])


def _forbid_fork(monkeypatch):
    def fork():
        raise AssertionError("run_all forked")

    monkeypatch.setattr(os, "fork", fork, raising=False)


@pytest.mark.parametrize("seed", range(10))
def test_run_all_equals_the_criteria_run_in_process(seed, monkeypatch):
    # run_all shares its corpora between criteria; each criterion run alone,
    # from empty caches, makes the same check.
    _forbid_fork(monkeypatch)
    together = _as_json(selfcheck.run_all(seed))
    alone = []
    for check in selfcheck.ALL_CHECKS:
        selfcheck._random_kernel_corpus.cache_clear()
        selfcheck._herglotz_corpus.cache_clear()
        alone.append(check(seed=seed))
    assert together == _as_json(alone)


def test_run_all_on_one_cpu_gives_the_same_checks_from_one_worker(monkeypatch):
    # The calling process is the one worker, on one CPU as on all of them.
    code = textwrap.dedent("""
        import json, os
        from kboundary import selfcheck
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        def fork():
            raise AssertionError("run_all forked")
        os.fork = fork
        print(json.dumps([c.as_json() for c in selfcheck.run_all(3)]))
    """)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env={**os.environ, "PYTHONPATH": PACKAGE_ROOT})
    assert proc.returncode == 0, proc.stderr
    _forbid_fork(monkeypatch)
    assert json.dumps(json.loads(proc.stdout)) == _as_json(selfcheck.run_all(3))


@pytest.mark.parametrize("missing", [("sched_getaffinity",), ("fork", "sched_getaffinity")],
                         ids=["cpu-count", "in-process"])
def test_run_all_is_the_same_where_the_platform_lacks_them(missing, monkeypatch):
    before = _as_json(selfcheck.run_all(5))
    for name in missing:
        monkeypatch.delattr(os, name)
    _forbid_fork(monkeypatch)
    assert _as_json(selfcheck.run_all(5)) == before
