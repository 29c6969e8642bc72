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


def test_clark_sweep_draws_crowded_measures():
    # Up to 12 atoms 0.08 apart: 12 * 0.08 < 1, so every draw can be met.
    done = _run("clark_sweep.py", "--max-atoms", "12", "--trials", "12", "--seed", "0")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert len(lines) == 13  # the header and twelve rows
    assert max(int(line.split()[0]) for line in lines[1:]) > 6
    assert done.stderr == ""


def test_clark_sweep_library_error_is_one_stderr_line():
    # The first measure draws 13 atoms, which cannot keep gaps of 0.08.
    done = _run("clark_sweep.py", "--max-atoms", "15")
    assert done.returncode == 1
    assert "Traceback" not in done.stderr
    assert done.stderr.splitlines() == [
        "clark_sweep: DomainViolation: 13 atoms cannot keep circular gaps >= 0.08"]
    assert done.stdout.splitlines()[0].split()[0] == "atoms"


def test_clark_sweep_refuses_max_atoms_below_one_in_one_stderr_line():
    done = _run("clark_sweep.py", "--max-atoms", "0")
    assert done.returncode == 1
    assert done.stderr.splitlines() == [
        "clark_sweep: DomainViolation: max_atoms must be >= 1, got 0"]
    assert done.stdout.splitlines()[0].split()[0] == "atoms"


def test_gaussian_convergence_library_error_is_one_stderr_line():
    # moments needs at least two draws; the first size has one.
    done = _run("gaussian_convergence.py", "--sizes", "1")
    assert done.returncode == 1
    assert done.stderr.splitlines() == [
        "gaussian_convergence: ShapeMismatch: need at least two draws"]
    assert done.stdout.splitlines()[0].split()[0] == "N"
