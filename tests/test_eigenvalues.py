"""The values-only reads: PSD verdicts and ||G||_2 from FiniteKernel.eigenvalues.

kb validate, clark, renorm and morphism-check read only the extreme
eigenvalues of a Gram, so they decompose it without eigenvectors; factorize
and gaussian-sample keep their one eigendecomposition, whose values the
verdicts then reuse."""

import json
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from kboundary import FiniteKernel, check_positive_definite, cli
from kboundary.kernels import _is_psd, _norm, relative_residual

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
EPS = np.finfo(float).eps


def _planted_table(n, kind, field, seed=0):
    """Q diag(lam) Q^* for a random unitary Q, real or complex: lam uniform on
    [1, 10] ("psd"), with its first n // 2 values 0 ("rank-deficient"), or
    with its first value -0.5 ("indefinite")."""
    rng = np.random.default_rng([seed, n])
    lam = rng.uniform(1.0, 10.0, n)
    if kind == "rank-deficient":
        lam[:n // 2] = 0.0
    elif kind == "indefinite":
        lam[0] = -0.5
    A = rng.standard_normal((n, n))
    if field == "complex":
        A = A + 1j * rng.standard_normal((n, n))
    Q, _ = np.linalg.qr(A)
    return (Q * lam[None, :]) @ np.conj(Q).T


@pytest.mark.parametrize("n", [1, 2, 17, 200])
@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("kind", ["psd", "rank-deficient", "indefinite"])
def test_values_only_verdict_agrees_with_the_spectrum(n, field, kind):
    K = FiniteKernel(_planted_table(n, kind, field))
    report = check_positive_definite(K)
    assert "spectrum" not in K.__dict__  # the verdict decomposed without vectors
    values, vectors = K.spectrum
    # The frame's field is the table's; a 1 x 1 Hermitian table is real.
    assert (vectors.dtype == np.float64) == (field == "real" or n == 1)
    assert report.is_psd == _is_psd(values) == (kind != "indefinite")
    norm = _norm(values)
    bound = 4 * EPS * n * norm
    assert abs(report.min_eigenvalue - values[0]) <= bound
    assert abs(report.max_eigenvalue - values[-1]) <= bound
    values_norm = max(-report.min_eigenvalue, report.max_eigenvalue)
    assert abs(values_norm - norm) <= bound
    assert relative_residual(values_norm, K) == 1.0


def test_eigenvalues_reuse_a_computed_spectrum():
    table = _planted_table(5, "psd", "complex")
    K = FiniteKernel(table)
    values, _ = K.spectrum
    assert K.eigenvalues is values
    lone = FiniteKernel(table)
    values = lone.eigenvalues
    assert lone.eigenvalues is values and not values.flags.writeable
    assert "spectrum" not in lone.__dict__


def _szego_points(n, seed=3) -> list:
    rng = np.random.default_rng(seed)
    z = 0.9 * np.sqrt(rng.uniform(0.0, 1.0, n)) * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, n))
    return [{"re": float(w.real), "im": float(w.imag)} for w in z]


def _values_only_jobs(tmp_path) -> list:
    """(command, config path) of every worked validate, clark, renorm and
    morphism-check config, and of validate, clark and renorm on 60 Szego
    points (a 3-atom measure for the last two)."""
    jobs = []
    for path in sorted(CONFIGS.glob("*.json")):
        command = json.loads(path.read_text())["command"]
        if command in ("validate", "clark", "renorm", "morphism-check"):
            jobs.append((command, path))
    points = _szego_points(60)
    measure = {"atoms": [0.1, 0.45, 0.8], "weights": [0.2, 0.5, 0.3]}
    for command, extra in (("validate", {"kernel": {"variant": "szego"}}),
                           ("clark", {"measure": measure}), ("renorm", {"measure": measure})):
        path = tmp_path / f"szego-{command}.json"
        path.write_text(json.dumps({"command": command, "points": points, **extra}))
        jobs.append((command, path))
    return jobs


def _report(command, config, out) -> tuple:
    """(exit code, report bytes without timing) of kb <command> on ``config``."""
    code = cli.main([command, "--config", str(config), "--out", str(out)])
    report = json.loads(out.read_bytes())
    del report["timing"]
    return code, cli.emit(report)


def _refuse(*args, **kwargs):
    raise AssertionError("numpy.linalg.eigh called by a values-only pipeline")


def test_values_only_commands_never_compute_eigenvectors(monkeypatch, tmp_path):
    jobs = _values_only_jobs(tmp_path)
    assert len(jobs) == 7
    before = [_report(command, config, tmp_path / "report.json") for command, config in jobs]
    monkeypatch.setattr(np.linalg, "eigh", _refuse)
    after = [_report(command, config, tmp_path / "report.json") for command, config in jobs]
    assert after == before
    assert [code for code, _ in after] == [0, 2, 0, 0, 0, 0, 0]  # morphism_collapse fails


def test_factorize_and_gaussian_sample_decompose_each_kernel_once(monkeypatch, tmp_path):
    calls = Counter()
    for name in ("eigh", "eigvalsh", "svd"):
        def counted(*args, _name=name, _fn=getattr(np.linalg, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    table = {"variant": "table", "table": [[{"re": 2.0}, {"re": 1.0, "im": 0.5}],
                                           [{"re": 1.0, "im": -0.5}, {"re": 2.0}]]}
    configs = [
        ("factorize", {"command": "factorize", "kernel": {"variant": "szego"},
                       "points": _szego_points(40)}),
        ("factorize", {"command": "factorize", "kernel": table}),
        ("gaussian-sample", json.loads((CONFIGS / "gaussian_identity.json").read_text())),
        ("gaussian-sample", {"command": "gaussian-sample", "kernel": table, "sample_count": 500}),
    ]
    for command, config in configs:
        path = tmp_path / "job.json"
        path.write_text(json.dumps(config))
        calls.clear()
        assert cli.main([command, "--config", str(path), "--out", str(tmp_path / "r.json")]) == 0
        assert calls == {"eigh": 1}, (command, config)
