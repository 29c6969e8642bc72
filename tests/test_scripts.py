"""The experiment scripts under scripts/, each run in a fresh interpreter."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _run(script: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")
    return subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          capture_output=True, text=True, env=env, timeout=300)


# The arguments the CI workflow runs the scripts with: three rows each.
@pytest.mark.parametrize("script, args, header", [
    ("clark_sweep.py", ["--trials", "3"],
     ["atoms", "points", "residual", "rank", "herglotz", "1-|b|", "@", "r=1-1e-6"]),
    ("gaussian_convergence.py", ["--sizes", "2000", "20000", "2000000"],
     ["N", "cov", "error", "4", "max|G|/sqrt(N)", "consistency"]),
])
def test_script_runs_and_prints_its_header(script, args, header):
    done = _run(script, *args)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0].split() == header
    assert len(lines) == 4  # the header and three rows
    assert done.stderr == ""


def test_clark_sweep_library_error_is_one_stderr_line():
    # The first measure draws 12 atoms, which no draw keeps 0.08 apart.
    done = _run("clark_sweep.py", "--max-atoms", "13")
    assert done.returncode == 1
    assert "Traceback" not in done.stderr
    assert done.stderr.splitlines() == [
        "clark_sweep: DomainViolation: none of 100000 draws of 12 atoms kept "
        "circular gaps >= 0.08"]
    assert done.stdout.splitlines()[0].split()[0] == "atoms"
