"""verify-all runs its criteria in forked workers: the same checks as a
serial run, the lowest-index error, and no process left behind."""

import json
import os
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from kboundary import cli, selfcheck
from kboundary.errors import DomainViolation, NotPsd
from kboundary.selfcheck import Check

PACKAGE_ROOT = str(Path(__file__).resolve().parents[1] / "src")


def _as_json(checks) -> str:
    return json.dumps([check.as_json() for check in checks])


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _passes(seed):
    return Check("passes", True, {"seed": seed})


@pytest.mark.parametrize("seed", range(10))
def test_run_all_equals_the_criteria_run_in_process(seed):
    forked = _as_json(selfcheck.run_all(seed))
    _assert_no_child_left()
    assert forked == _as_json(check(seed=seed) for check in selfcheck.ALL_CHECKS)


def test_run_all_on_one_cpu_gives_the_same_checks_from_one_worker():
    code = textwrap.dedent("""
        import json, os
        from kboundary import selfcheck
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        forks, fork = [], os.fork
        os.fork = lambda: forks.append(1) or fork()
        checks = selfcheck.run_all(3)
        print(json.dumps({"forks": len(forks), "checks": [c.as_json() for c in checks]}))
    """)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env={**os.environ, "PYTHONPATH": PACKAGE_ROOT})
    assert proc.returncode == 0, proc.stderr
    pinned = json.loads(proc.stdout)
    assert pinned["forks"] == 1
    assert json.dumps(pinned["checks"]) == _as_json(selfcheck.run_all(3))


@pytest.mark.parametrize("missing", [("sched_getaffinity",), ("fork", "sched_getaffinity")],
                         ids=["cpu-count", "in-process"])
def test_run_all_is_the_same_where_the_platform_lacks_them(missing, monkeypatch):
    forked = _as_json(selfcheck.run_all(5))
    for name in missing:
        monkeypatch.delattr(os, name)
    assert _as_json(selfcheck.run_all(5)) == forked
    _assert_no_child_left()


def test_verify_all_raises_the_error_of_the_lowest_index(monkeypatch, capsys):
    def slow_error(seed):
        time.sleep(0.2)  # so that the later criterion fails first
        raise NotPsd("the lower index")

    def fast_error(seed):
        raise DomainViolation("the higher index")

    criteria = [_passes] * 10
    criteria[1], criteria[8] = slow_error, fast_error
    monkeypatch.setattr(selfcheck, "ALL_CHECKS", tuple(criteria))
    assert cli.main(["verify-all", "--seed", "0"]) == 1
    assert capsys.readouterr() == ("", "kb: NotPsd: the lower index\n")
    _assert_no_child_left()


def test_a_worker_that_dies_ends_verify_all_with_one_error():
    # In a child process, so that a collector that waits for good fails the
    # test on the timeout instead of hanging the suite.
    code = textwrap.dedent("""
        import os, sys
        from kboundary import cli, selfcheck
        from kboundary.selfcheck import Check

        def dies(seed):
            os._exit(3)

        criteria = [lambda seed: Check("passes", True)] * 10
        criteria[3] = dies
        selfcheck.ALL_CHECKS = tuple(criteria)
        code = cli.main(["verify-all", "--seed", "0"])
        try:
            os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            print(code)
    """)
    started = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env={**os.environ, "PYTHONPATH": PACKAGE_ROOT})
    assert time.perf_counter() - started < 30
    assert proc.stdout == "1\n"
    lines = proc.stderr.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("kb: WorkerDied: criterion 4 (dies) reported no result;")
    assert "3" in lines[0].split("worker exit statuses", 1)[1]


def test_text_written_before_run_all_is_printed_once(monkeypatch, capfd):
    def prints(seed):
        print("from a worker", flush=True)
        return Check("prints", True)

    monkeypatch.setattr(selfcheck, "ALL_CHECKS", (prints,))
    # A buffered stream on the captured descriptor, as sys.stdout is on a pipe.
    with open(os.dup(1), "w", buffering=1 << 16) as stdout:
        monkeypatch.setattr(sys, "stdout", stdout)
        stdout.write("before run_all;")
        assert [check.name for check in selfcheck.run_all(0)] == ["prints"]
    out = capfd.readouterr().out
    assert out.count("before run_all;") == 1 and out.count("from a worker") == 1
    _assert_no_child_left()
