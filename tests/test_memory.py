"""One working Gram per job: the Gram builders, checks and writers allocate
at most about one n x n complex array beyond what they return.

Each ceiling is the peak of the allocations that tracemalloc sees during one
call (numpy reports its array buffers to it), beyond what was live before,
in units of one n x n complex Gram, at n = 1000 on Szego points in the
0.9-disk and a 3-atom measure.  The sidecar bytes are the ones np.save
writes, for every shape kb writes."""

import io
import json
import tracemalloc

import numpy as np
import pytest

from kboundary import CircleMeasure, FiniteKernel, cli, clark, factorization
from kboundary.kernels import polydisk_szego_eval

N = 1000
GRAM_BYTES = 16 * N * N
MEASURE = CircleMeasure(atoms=[0.1, 0.45, 0.8], weights=[0.2, 0.5, 0.3])


@pytest.fixture(scope="module")
def points():
    rng = np.random.default_rng(3)
    return 0.9 * np.sqrt(rng.uniform(0.0, 1.0, N)) * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, N))


@pytest.fixture(scope="module")
def szego(points):
    """The Szego factorization of the points under the 3-atom measure."""
    return clark.build_szego_factorization(MEASURE, points)


def _peak_grams(call) -> float:
    """The peak of the allocations during ``call()`` beyond those live
    before it, in Grams; what ``call`` returns is kept until the peak is
    read, so it counts."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = call()
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    del result
    return peak / GRAM_BYTES


def test_szego_evaluator_builds_its_gram_in_one_array(points):
    c = points[:, None]
    assert _peak_grams(lambda: polydisk_szego_eval(c[:, None, :], c[None, :, :])) <= 1.1


def test_finite_kernel_allocates_one_gram_beyond_its_input(points):
    c = points[:, None]
    gram = polydisk_szego_eval(c[:, None, :], c[None, :, :])
    assert _peak_grams(lambda: FiniteKernel(gram=gram)) <= 1.25


def test_kb_gram_holds_one_numerator_and_one_denominator(points):
    assert _peak_grams(lambda: clark.kb_eval(MEASURE, points[:, None], points[None, :])) <= 2.1


def test_residual_overwrites_its_reconstruction(szego):
    F = szego
    peak = _peak_grams(lambda: factorization._residual(F.features, F.measure.weights,
                                                        F.kernel.gram))
    assert peak <= 1.6


def test_renormalize_builds_one_quotient_and_its_kernel(szego):
    assert _peak_grams(lambda: clark.renormalize(szego)) <= 2.2


def test_sidecar_writer_copies_no_gram(szego, tmp_path):
    gram = szego.kernel.gram
    assert _peak_grams(lambda: cli._write_matrices({"gram": gram}, str(tmp_path / "r.json"))) <= 0.1


def _sidecar_matrices():
    """One matrix of each shape kb writes: empty, a row, a column, a square,
    and a complex matrix with zero imaginary part."""
    rng = np.random.default_rng(7)

    def cplx(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    return {"empty": np.zeros((0, 0), dtype=complex), "row": cplx(1, 9), "column": cplx(9, 1),
            "square": cplx(6, 6), "real_valued": rng.standard_normal((4, 5)).astype(complex)}


def test_sidecar_bytes_are_np_saves_and_read_back(tmp_path):
    matrices = _sidecar_matrices()
    report_path = tmp_path / "report.json"
    entries = cli._write_matrices(matrices, str(report_path))
    for name, mat in matrices.items():
        buf = io.BytesIO()
        np.save(buf, mat, allow_pickle=False)
        assert (tmp_path / f"report.{name}.npy").read_bytes() == buf.getvalue(), name
        assert cli._npy(mat)[0] == {**entries[name], "file": None}
    report_path.write_bytes(cli.emit({"matrices": entries}))
    parsed = cli.parse_report(str(report_path))["matrices"]
    assert parsed.keys() == matrices.keys()
    for name, mat in matrices.items():
        assert parsed[name].dtype == mat.dtype and parsed[name].tobytes() == mat.tobytes()


def test_unwritten_matrix_entry_hashes_np_saves_bytes():
    import hashlib

    mat = _sidecar_matrices()["square"]
    buf = io.BytesIO()
    np.save(buf, mat, allow_pickle=False)
    entry = json.loads(cli.emit({"m": mat}))["m"]
    assert entry == {"file": None, "shape": [6, 6], "dtype": "complex128",
                     "sha256": hashlib.sha256(buf.getvalue()).hexdigest()}
