"""verify-all runs its criteria in the calling process and in forked
workers: the same checks as a serial run, also when a worker dies, the
lowest-index error, and no process left behind."""

import json
import os
import select
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from kboundary import cli, selfcheck
from kboundary.errors import DomainViolation, NotPsd
from kboundary.check import Check

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


def _forks(monkeypatch) -> list:
    """A list that gains one entry per os.fork call."""
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    return forks


def _two_cpus(monkeypatch):
    """run_all sees two CPUs, so it forks one worker, whatever the host has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})


def test_run_all_on_one_cpu_gives_the_same_checks_from_one_worker(monkeypatch):
    # On one CPU the calling process is the only worker: nothing is forked.
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
    assert pinned["forks"] == 0
    _two_cpus(monkeypatch)
    forks = _forks(monkeypatch)
    assert json.dumps(pinned["checks"]) == _as_json(selfcheck.run_all(3))
    assert len(forks) == 1
    _assert_no_child_left()


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


def test_an_error_in_the_caller_wins_over_a_higher_index_in_a_worker(monkeypatch, capsys):
    caller = os.getpid()

    def pinned(fails_in_worker):
        def criterion(seed):
            if os.getpid() == caller:
                raise NotPsd("the caller's error")
            if fails_in_worker:
                raise DomainViolation("a worker's error")
            return _passes(seed)
        return criterion

    # Whichever process claims each index, the caller fails every index it
    # runs, and the worker every index from 3 on.  A criterion that raised in
    # the worker runs again in the caller, so only the caller's error can be
    # raised.
    _two_cpus(monkeypatch)
    monkeypatch.setattr(selfcheck, "ALL_CHECKS", (pinned(False),) * 3 + (pinned(True),) * 7)
    assert cli.main(["verify-all", "--seed", "0"]) == 1
    assert capsys.readouterr() == ("", "kb: NotPsd: the caller's error\n")
    _assert_no_child_left()


def test_a_worker_that_dies_leaves_its_criteria_to_the_caller():
    # In a child process, so that a collector that waits for good fails the
    # test on the timeout instead of hanging the suite.  The forked worker
    # exits on every claim; the caller's first criterion waits until the
    # worker has claimed one, so that the worker dies on a claim.
    code = textwrap.dedent("""
        import json, os, select
        from kboundary import cli, selfcheck

        caller = os.getpid()
        os.sched_getaffinity = lambda pid: {0, 1}
        died, died_in = os.pipe()
        waited = []

        def dies_in_a_worker(check):
            def criterion(seed):
                if os.getpid() != caller:
                    os.write(died_in, b"x")
                    os._exit(3)
                if not waited:
                    waited.append(bool(select.select([died], [], [], 30)[0]))
                return check(seed=seed)
            return criterion

        serial = [check(seed=0).as_json() for check in selfcheck.ALL_CHECKS]
        selfcheck.ALL_CHECKS = tuple(dies_in_a_worker(c) for c in selfcheck.ALL_CHECKS)
        report, code = cli.run(cli.parse_config({"command": "verify-all", "seed": 0}))
        try:
            os.waitpid(-1, os.WNOHANG)
            left = True
        except ChildProcessError:
            left = False
        print(json.dumps({"same": report["checks"] == serial, "code": code, "left": left,
                          "waited": waited}))
    """)
    started = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env={**os.environ, "PYTHONPATH": PACKAGE_ROOT})
    assert time.perf_counter() - started < 30
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"same": True, "code": 0, "left": False,
                                       "waited": [True]}


def test_text_written_before_run_all_is_printed_once(monkeypatch, capfd):
    caller = os.getpid()
    printed, printed_in = os.pipe()
    waited = []

    def prints(seed):
        if os.getpid() != caller:
            print("from a worker", flush=True)
            os.write(printed_in, b"x")
        elif not waited:  # so that the worker runs a criterion, and prints
            waited.append(bool(select.select([printed], [], [], 30)[0]))
        return Check("prints", True, {"pid": os.getpid()})

    _two_cpus(monkeypatch)
    forks = _forks(monkeypatch)
    monkeypatch.setattr(selfcheck, "ALL_CHECKS", (prints, prints))
    # A buffered stream on the captured descriptor, as sys.stdout is on a pipe.
    try:
        with open(os.dup(1), "w", buffering=1 << 16) as stdout:
            monkeypatch.setattr(sys, "stdout", stdout)
            stdout.write("before run_all;")
            checks = selfcheck.run_all(0)
    finally:
        os.close(printed)
        os.close(printed_in)
    out = capfd.readouterr().out
    assert [check.name for check in checks] == ["prints", "prints"]
    assert len(forks) == 1 and False not in waited
    # Each check names the process that made it: the worker prints once per
    # check it made.
    from_worker = sum(check.details["pid"] != caller for check in checks)
    assert from_worker >= 1 and out.count("from a worker") == from_worker
    assert out.count("before run_all;") == 1
    _assert_no_child_left()
