"""Frozen objects, one-pass kernel validation, and nothing kept between calls.

Every object the library builds belongs to its caller.  These tests pin
that a counting measure is built afresh on each call, read-only and equal
to one built by hand, that a frozen object keeps a read-only copy of each
array it is given, that FiniteKernel's one-pass validation keeps its
verdicts, messages and mirror bits, that no library function keeps a
cache and every module-level array is read-only, and that an earlier run
changes no self-check report.
"""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

import kboundary
from kboundary import (
    BoundaryFactorization,
    CircleMeasure,
    DiscreteMeasure,
    DomainViolation,
    FiniteKernel,
    NotHermitian,
    RkhsElement,
    SampleBatch,
    parseval_factorize,
)
from kboundary import factorization, kernels, selfcheck
from kboundary.kernels import _hermitian_mirror, default_rank_tol

PACKAGE_ROOT = str(Path(kboundary.__file__).resolve().parents[1])


@pytest.mark.parametrize("m", [0, 1, 3, 12])
def test_counting_measure_is_shared_read_only_and_equal_to_fresh(m):
    # Each call builds its own measure; none is shared between callers.
    measure = DiscreteMeasure.counting(m)
    assert DiscreteMeasure.counting(np.int64(m)) is not measure
    fresh = DiscreteMeasure(atoms=tuple(range(m)), weights=np.ones(m))
    assert measure.atoms == fresh.atoms and measure.coords is None
    assert measure.weights.tobytes() == fresh.weights.tobytes()
    assert not measure.weights.flags.writeable
    with pytest.raises(ValueError):
        measure.weights[...] = 2.0


def test_counting_measure_size_must_be_an_integer():
    with pytest.raises(TypeError):
        DiscreteMeasure.counting(2.0)
    with pytest.raises(ValueError):
        DiscreteMeasure.counting(-1)


def test_no_library_function_keeps_a_cache_and_every_module_array_is_read_only():
    # Nothing the library builds outlives its call: the parsed schema and the
    # argument parser are the only memos, and an array held by a module
    # cannot be changed by one caller under another.
    cached, writable = set(), []
    for info in pkgutil.iter_modules(kboundary.__path__):
        module = importlib.import_module(f"kboundary.{info.name}")
        for name, value in vars(module).items():
            if callable(value) and hasattr(value, "cache_info"):
                cached.add(f"{value.__module__}.{value.__qualname__}")
            if isinstance(value, np.ndarray) and value.flags.writeable:
                writable.append(f"{module.__name__}.{name}")
    assert cached == {"kboundary.cli._parser", "kboundary.cli._schema"}
    assert writable == []


def _identity_kernel(n):
    return FiniteKernel(gram=np.eye(n))


@pytest.mark.parametrize("given, build", [
    (np.array([0.25, 0.75]),
     lambda a: DiscreteMeasure(atoms=("a", "b"), weights=a).weights),
    (np.array([[0.1], [0.6]]),
     lambda a: DiscreteMeasure(atoms=("a", "b"), weights=[0.5, 0.5], coords=a).coords),
    (np.array([0.25, 0.75]),
     lambda a: CircleMeasure(atoms=[0.0, 0.5], weights=a).weights),
    (np.array([[0.1 + 0.2j], [0.3j]]), kernels._as_points),
    (np.array([[1.0 + 0.0j]]),
     lambda a: BoundaryFactorization(kernel=_identity_kernel(1),
                                     measure=DiscreteMeasure.counting(1), features=a).features),
    (np.array([[1.0 + 0.0j]]),
     lambda a: BoundaryFactorization.induced(DiscreteMeasure.counting(1), a).features),
    (np.array([[1.0 + 0.0j, 2.0j], [3.0, 4.0j]]).T,
     lambda a: RkhsElement(base=_identity_kernel(2), coeffs=a).coeffs),
    (np.array([[1.0 + 0.0j], [2.0j]]),
     lambda a: SampleBatch(draws=a, seed_record={"seed": 0}).draws),
], ids=["measure-weights", "measure-coords", "circle-weights", "point-coords",
        "factorization-features", "induced-features", "rkhs-coeffs", "sample-draws"])
def test_a_frozen_object_keeps_a_read_only_copy_of_the_callers_array(given, build):
    kept = build(given)
    assert given.flags.writeable and not kept.flags.writeable
    assert not np.shares_memory(given, kept)
    # The same memory order, so products with the copy round as with the
    # caller's array (the rkhs case passes a Fortran-ordered matrix).
    assert kept.strides == given.strides
    np.testing.assert_array_equal(kept, given)


def _hermitian_with_signed_zeros(rng, n):
    """A complex matrix that passes the Hermitian test but is not exactly
    Hermitian, with signed zeros in both triangles and on the diagonal."""
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    g = A + A.conj().T
    g += 1e-14 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    zeros = (-0.0 - 0.0j, complex(0.0, -0.0), complex(-0.0, 0.0), 0j)
    for i, j in zip(*np.nonzero(rng.random((n, n)) < 0.2)):
        g[i, j] = zeros[rng.integers(4)]
        g[j, i] = zeros[rng.integers(4)]
    if n:
        g[0, 0] = complex(-0.0, -0.0)
    return g


@pytest.mark.parametrize("n", range(41))
def test_finite_kernel_gram_is_bit_identical_to_the_reference_mirror(n):
    rng = np.random.default_rng(1000 + n)
    g = _hermitian_with_signed_zeros(rng, n)
    before = g.copy()
    K = FiniteKernel(gram=g)
    want = _hermitian_mirror(g)
    assert K.gram.dtype == want.dtype and K.gram.shape == want.shape
    assert K.gram.tobytes() == want.tobytes()
    assert not K.gram.flags.writeable
    assert g.tobytes() == before.tobytes()  # the caller's array is not written


@pytest.mark.parametrize(
    "gram, error, message",
    [
        ([[1.0, 2.0], [0.0, 1.0]], NotHermitian, "gram matrix is not Hermitian"),
        ([[1.0, 1j], [1j, 1.0]], NotHermitian, "gram matrix is not Hermitian"),
        ([[1.0, 0.0], [0.0, np.nan]], DomainViolation, "gram entries must be finite"),
        ([[np.inf, 0.0], [0.0, 1.0]], DomainViolation, "gram entries must be finite"),
    ],
)
def test_finite_kernel_rejects_with_the_same_messages(gram, error, message):
    with pytest.raises(error) as info:
        FiniteKernel(gram=gram)
    assert str(info.value) == message


def test_hermitian_tolerance_is_relative_to_the_largest_entry():
    scale = 1e6
    tilt = 0.5 * kernels.HERMITIAN_TOL * scale
    FiniteKernel(gram=[[scale, tilt], [0.0, 1.0]])
    with pytest.raises(NotHermitian):
        FiniteKernel(gram=[[scale, 4 * tilt], [0.0, 1.0]])


def _whole_matrix_mirror(g):
    """The mirror by whole-matrix formulas, as FiniteKernel once built it."""
    n = g.shape[-1]
    out = np.where(np.tri(n, k=-1, dtype=bool), np.conj(g).swapaxes(-1, -2), g)
    out.imag[..., np.arange(n), np.arange(n)] = 0.0
    return out


def _whole_matrix_rejects(g) -> bool:
    """The Hermitian rule on whole matrices, for finite moduli."""
    return np.abs(g - g.conj().T).max() > kernels.HERMITIAN_TOL * np.abs(g).max()


@pytest.mark.parametrize("n", [5, 17, 40])
def test_row_panels_keep_the_whole_matrix_mirror_and_verdict(monkeypatch, n):
    # Panels of 3 rows, and a last one of 1 or 2, so that every Gram-sized
    # pass takes several.
    monkeypatch.setattr(kernels, "_PANEL_ENTRIES", 3 * n)
    assert [rows.stop - rows.start for rows in kernels._row_panels(n)][-2:] == [3, n % 3]
    rng = np.random.default_rng(2000 + n)
    g = _hermitian_with_signed_zeros(rng, n)
    assert FiniteKernel(gram=g).gram.tobytes() == _whole_matrix_mirror(g).tobytes()
    stack = np.stack([_hermitian_with_signed_zeros(rng, n) for _ in range(3)])
    want = _whole_matrix_mirror(stack).tobytes()
    assert _hermitian_mirror(stack).tobytes() == want
    for _ in range(30):
        tilted = g.copy()
        i, j = rng.integers(n, size=2)
        tilt = rng.choice([0.4, 0.6, 2.0]) * kernels.HERMITIAN_TOL * np.abs(g).max()
        tilted[i, j] += tilt * (1j if i == j else np.exp(2j * np.pi * rng.random()))
        if _whole_matrix_rejects(tilted):
            with pytest.raises(NotHermitian):
                FiniteKernel(gram=tilted)
        else:
            FiniteKernel(gram=tilted)
    # A NaN in the last row outranks a defect in the first panel.
    tilted[0, 1] += 1.0
    tilted[-1, -1] = np.nan
    with pytest.raises(DomainViolation, match="gram entries must be finite"):
        FiniteKernel(gram=tilted)


@pytest.mark.parametrize("n", [17, 600])
@pytest.mark.parametrize("row", [0, 300, -1])
@pytest.mark.parametrize("side", [0.4, 0.6])
def test_a_non_real_diagonal_is_judged_as_twice_its_imaginary_part(n, row, side):
    # The diagonal's defect is |g_ii - conj(g_ii)| = 2 |Im g_ii|: beyond the
    # tolerance at 0.6 of it, and mirrored to a real diagonal at 0.4; in the
    # first, a middle and the last row panel at n = 600.
    g = np.eye(n, dtype=complex)
    row = min(row, n - 1)
    g[row, row] += side * kernels.HERMITIAN_TOL * 1j
    if side > 0.5:
        with pytest.raises(NotHermitian):
            FiniteKernel(gram=g)
    else:
        assert not FiniteKernel(gram=g).gram.imag.any()


# Finite parts whose modulus, 2.1e308, overflows float64.
OVERFLOWING = complex(1.5e308, 1.5e308)


@pytest.mark.parametrize("exponent", [0, -1, -600])
def test_a_non_hermitian_table_is_rejected_whatever_its_scale(exponent):
    table = np.array([[1.0, OVERFLOWING], [0.0, 1.0]]) * 2.0**exponent
    with pytest.raises(NotHermitian, match="gram matrix is not Hermitian"):
        FiniteKernel(table)


def test_a_hermitian_gram_whose_moduli_overflow_is_a_domain_violation():
    table = np.array([[1.0, OVERFLOWING], [np.conj(OVERFLOWING), 1.0]])
    with pytest.raises(DomainViolation, match="gram entry moduli must be finite"):
        FiniteKernel(table)
    FiniteKernel(table / 2)  # moduli up to 1.06e308: a kernel


@pytest.mark.parametrize("lower, error", [
    ({"re": 0.0}, "NotHermitian: gram matrix is not Hermitian"),
    ({"re": 1.5e308, "im": -1.5e308}, "DomainViolation: gram entry moduli must be finite"),
], ids=["not-hermitian", "hermitian"])
def test_kb_validate_rejects_an_overflowing_table_as_a_config_error(lower, error, tmp_path,
                                                                    capsys):
    from kboundary import cli

    table = [[{"re": 1.0}, {"re": 1.5e308, "im": 1.5e308}], [lower, {"re": 1.0}]]
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"command": "validate",
                                "kernel": {"variant": "table", "table": table}}))
    assert cli.main(["validate", "--config", str(path)]) == 1
    assert capsys.readouterr() == ("", f"kb: {error}\n")


def test_feature_projector_is_computed_once_and_read_only():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
    F = parseval_factorize(FiniteKernel(gram=A @ A.conj().T))
    P = F.feature_projector
    assert F.feature_projector is P and not P.flags.writeable
    B = np.sqrt(F.measure.weights)[:, None] * F.features.T
    values, vectors = kernels._eigh(B @ B.conj().T)
    fresh = kernels._projector(vectors, kernels._kept(values, default_rank_tol(F.n_points)))
    assert P.tobytes() == fresh.tobytes()
    sqrt_w = np.sqrt(F.measure.weights)
    want = fresh * sqrt_w[None, :] / sqrt_w[:, None]
    assert factorization.range_projection(F).tobytes() == want.tobytes()
    assert (factorization.projection_spectrum(F).tobytes()
            == kernels._eigh(fresh)[0].tobytes())


def _run_all_json(seed):
    return json.dumps([check.as_json() for check in selfcheck.run_all(seed)])


def test_run_all_is_the_same_before_and_after_other_runs():
    first_a = _run_all_json(3)
    # Each criterion run on its own first, then the whole suite again.
    for check in selfcheck.ALL_CHECKS:
        check(seed=3)
    after_a = _run_all_json(3)
    first_b = _run_all_json(4)
    again_a = _run_all_json(3)
    again_b = _run_all_json(4)
    assert first_a == after_a == again_a
    assert first_b == again_b
    assert first_a != first_b


def _reference_circle_measure(rng, max_atoms=6, min_sep=0.1):
    # The gap test written with np.diff over the closed-up atom list.
    m = int(rng.integers(1, max_atoms + 1))
    while True:
        atoms = np.sort(rng.uniform(0.0, 1.0, size=m))
        gaps = np.diff(np.concatenate([atoms, [atoms[0] + 1.0]]))
        if m == 1 or gaps.min() >= min_sep:
            break
    w = rng.uniform(1.0, 3.0, size=m)
    return atoms, w / w.sum()


def _circular_gaps(atoms):
    return np.diff(np.concatenate([atoms, [atoms[0] + 1.0]]))


@pytest.mark.parametrize("max_atoms, min_sep", [(6, 0.1), (8, 0.02), (3, 0.2)])
def test_random_circle_measure_draws_the_law_of_the_rejection_sampler(max_atoms, min_sep):
    # The direct draw against rejection sampling, for each atom count m: a
    # two-sample KS test on each sorted atom and on the least and the largest
    # circular gap.  A gap may fall short of min_sep by rounding only.  Each
    # row of the stack is one measure: its live atoms first, then zero atoms
    # of zero weight.
    draws, reference = {}, {}
    rng, ref_rng = np.random.default_rng(11), np.random.default_rng(12)
    stack = selfcheck._circle_draws(rng, 1000 * max_atoms, max_atoms, min_sep)
    for row, weights, live in zip(*stack):
        atoms, m = row[live], live.sum()
        assert live[:m].all() and (row[m:] == 0.0).all() and (weights[m:] == 0.0).all()
        assert (weights[:m] > 0.0).all() and abs(weights.sum() - 1.0) <= 1e-12
        assert ((0.0 <= atoms) & (atoms < 1.0)).all()
        assert m == 1 or _circular_gaps(atoms).min() >= min_sep - 4 * np.finfo(float).eps
        draws.setdefault(m, []).append(atoms)
        ref_atoms, _ = _reference_circle_measure(ref_rng, max_atoms, min_sep)
        reference.setdefault(ref_atoms.size, []).append(ref_atoms)
    assert sorted(draws) == sorted(reference) == list(range(1, max_atoms + 1))
    for m in draws:
        samples = []
        for atoms in (np.array(draws[m]), np.array(reference[m])):
            gaps = np.apply_along_axis(_circular_gaps, 1, atoms)
            samples.append(np.column_stack([atoms, gaps.min(axis=1), gaps.max(axis=1)]))
        for column in range(m + 2):
            pvalue = stats.ks_2samp(samples[0][:, column], samples[1][:, column]).pvalue
            assert pvalue > 1e-4, (m, column, pvalue)


@pytest.mark.parametrize(
    "seed, max_atoms, message",
    [
        # default_rng(7) draws m = 13 atoms: 13 * 0.08 >= 1, refused at once.
        (7, 13, "13 atoms cannot keep circular gaps >= 0.08"),
        # default_rng(7) draws m = 12: 12 * 0.08 < 1, so the draw succeeds,
        # where rejection sampling would accept with chance about 4e-16.
        (7, 12, ""),
    ],
)
def test_random_circle_measure_refuses_crowded_atoms_instead_of_hanging(
        seed, max_atoms, message):
    # In a child process, so that a draw that never ends fails the test on
    # the timeout instead of hanging the suite.
    code = textwrap.dedent(f"""
        import numpy as np
        from kboundary.errors import DomainViolation
        from kboundary.selfcheck import random_circle_measure
        try:
            mu = random_circle_measure(np.random.default_rng({seed}), {max_atoms}, 0.08)
            assert mu.size == {max_atoms}
        except DomainViolation as exc:
            print(exc)
    """)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env={**os.environ, "PYTHONPATH": PACKAGE_ROOT})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == message


@pytest.mark.parametrize("max_atoms", [0, -3])
def test_random_circle_measure_refuses_fewer_than_one_atom_before_drawing(max_atoms):
    rng = np.random.default_rng(7)
    state = rng.bit_generator.state
    with pytest.raises(DomainViolation, match=f"max_atoms must be >= 1, got {max_atoms}"):
        selfcheck.random_circle_measure(rng, max_atoms)
    assert rng.bit_generator.state == state


def test_one_atom_never_needs_a_gap():
    for seed in range(10):
        mu = selfcheck.random_circle_measure(np.random.default_rng(seed), 1, 0.99)
        assert mu.size == 1
