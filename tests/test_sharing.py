"""Shared frozen objects and one-pass kernel validation.

Index point sets, counting measures, strict-lower masks and the Herglotz
corpus are built once and shared.  These tests pin that
every shared object is read-only and equal to a freshly built one, that
FiniteKernel's one-pass validation keeps its verdicts, messages and
mirror bits, and that warm caches change no self-check report.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import kboundary
from kboundary import (
    BoundaryFactorization,
    DiscreteMeasure,
    DomainViolation,
    FiniteKernel,
    NotHermitian,
    PointSet,
    parseval_factorize,
)
from kboundary import factorization, kernels, measures, selfcheck
from kboundary.kernels import _hermitian_mirror, default_rank_tol, index_points

PACKAGE_ROOT = str(Path(kboundary.__file__).resolve().parents[1])


def _clear_caches():
    for cached in (kernels.index_points, kernels._strict_lower, measures._counting_measure,
                   selfcheck._herglotz_corpus):
        cached.cache_clear()


@pytest.mark.parametrize("n", [0, 1, 2, 7, 20])
def test_index_points_are_shared_read_only_and_equal_to_fresh(n):
    shared = index_points(n)
    assert index_points(n) is shared
    assert not shared.coords.flags.writeable
    for fresh in (PointSet.from_points(range(n)),
                  PointSet.from_points(np.arange(n, dtype=complex))):
        assert shared.labels == fresh.labels == tuple(f"p{i}" for i in range(n))
        assert shared.coords.dtype == fresh.coords.dtype
        assert shared.coords.shape == fresh.coords.shape == (n, 1)
        assert shared.coords.tobytes() == fresh.coords.tobytes()
    with pytest.raises(ValueError):
        shared.coords[...] = 1.0


@pytest.mark.parametrize("m", [0, 1, 3, 12])
def test_counting_measure_is_shared_read_only_and_equal_to_fresh(m):
    shared = DiscreteMeasure.counting(m)
    assert DiscreteMeasure.counting(np.int64(m)) is shared
    fresh = DiscreteMeasure(atoms=tuple(range(m)), weights=np.ones(m))
    assert shared.atoms == fresh.atoms and shared.coords is None
    assert shared.weights.tobytes() == fresh.weights.tobytes()
    assert not shared.weights.flags.writeable
    with pytest.raises(ValueError):
        shared.weights[...] = 2.0


def test_counting_measure_size_must_be_an_integer():
    with pytest.raises(TypeError):
        DiscreteMeasure.counting(2.0)


def test_induced_factorizations_share_the_index_points():
    meas = DiscreteMeasure.counting(3)
    F1 = BoundaryFactorization.induced(meas, np.ones((4, 3)))
    F2 = BoundaryFactorization.induced(meas, 2.0 * np.ones((4, 3)))
    assert F1.kernel.points is F2.kernel.points is index_points(4)
    assert F1.kernel.gram.tobytes() != F2.kernel.gram.tobytes()


def test_herglotz_corpus_is_read_only_and_equal_to_fresh():
    selfcheck._herglotz_corpus.cache_clear()
    corpus, zs = selfcheck._herglotz_corpus(5)
    assert selfcheck._herglotz_corpus(5)[1] is zs
    assert not zs.flags.writeable
    rng = selfcheck._rng(5, 7)
    fresh = [selfcheck.random_circle_measure(rng) for _ in range(20)]
    fresh_zs = selfcheck.random_interior(rng, 100)
    assert isinstance(corpus, tuple) and len(corpus) == len(fresh)
    for mu, nu in zip(corpus, fresh):
        assert mu.atoms == nu.atoms and mu.coords.tobytes() == nu.coords.tobytes()
        assert mu.weights.tobytes() == nu.weights.tobytes()
        assert not mu.coords.flags.writeable and not mu.weights.flags.writeable
    assert zs.tobytes() == fresh_zs.tobytes()


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
    K = FiniteKernel(points=index_points(n), gram=g)
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
        FiniteKernel(points=index_points(2), gram=gram)
    assert str(info.value) == message


def test_hermitian_tolerance_is_relative_to_the_largest_entry():
    scale = 1e6
    tilt = 0.5 * kernels.HERMITIAN_TOL * scale
    FiniteKernel(points=index_points(2), gram=[[scale, tilt], [0.0, 1.0]])
    with pytest.raises(NotHermitian):
        FiniteKernel(points=index_points(2), gram=[[scale, 4 * tilt], [0.0, 1.0]])


def test_feature_projector_is_computed_once_and_read_only():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
    F = parseval_factorize(FiniteKernel(points=index_points(5), gram=A @ A.conj().T))
    P = F.feature_projector
    assert F.feature_projector is P and not P.flags.writeable
    B = np.sqrt(F.measure.weights)[:, None] * F.features.T
    fresh = kernels.spectrum(B @ B.conj().T).projector(default_rank_tol(F.n_points))
    assert P.tobytes() == fresh.tobytes()
    sqrt_w = np.sqrt(F.measure.weights)
    want = fresh * sqrt_w[None, :] / sqrt_w[:, None]
    assert factorization.range_projection(F).tobytes() == want.tobytes()
    assert (factorization.projection_spectrum(F).tobytes()
            == kernels.spectrum(fresh).values.tobytes())


def _run_all_json(seed):
    return json.dumps([check.as_json() for check in selfcheck.run_all(seed)])


def test_run_all_is_the_same_with_cold_and_warm_caches():
    _clear_caches()
    cold_a = _run_all_json(3)
    # run_all's workers start from this process's caches: warm them here.
    for check in selfcheck.ALL_CHECKS:
        check(seed=3)
    warm_a = _run_all_json(3)
    cold_b = _run_all_json(4)
    again_a = _run_all_json(3)
    _clear_caches()
    cold_b_again = _run_all_json(4)
    assert cold_a == warm_a == again_a
    assert cold_b == cold_b_again
    assert cold_a != cold_b


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


@pytest.mark.parametrize("max_atoms, min_sep", [(6, 0.1), (8, 0.02), (6, 0.08)])
def test_random_circle_measure_keeps_its_stream(max_atoms, min_sep):
    for seed in range(40):
        mu = selfcheck.random_circle_measure(np.random.default_rng(seed), max_atoms, min_sep)
        atoms, weights = _reference_circle_measure(
            np.random.default_rng(seed), max_atoms, min_sep)
        assert mu.coords.tobytes() == atoms.tobytes()
        assert mu.weights.tobytes() == weights.tobytes()


@pytest.mark.parametrize(
    "seed, max_atoms, message",
    [
        # default_rng(7) draws m = 13 atoms: 13 * 0.08 >= 1, refused at once.
        (7, 13, "13 atoms cannot keep circular gaps >= 0.08"),
        # default_rng(7) draws m = 12: 12 * 0.08 < 1, but a draw is accepted
        # with chance about 4e-16, so the attempt budget runs out.
        (7, 12, "none of 100000 draws of 12 atoms kept circular gaps >= 0.08"),
    ],
)
def test_random_circle_measure_refuses_crowded_atoms_instead_of_hanging(
        seed, max_atoms, message):
    # In a child process, so that a rejection loop that never ends fails
    # the test on the timeout instead of hanging the suite.
    code = textwrap.dedent(f"""
        import numpy as np
        from kboundary.errors import DomainViolation
        from kboundary.selfcheck import random_circle_measure
        try:
            random_circle_measure(np.random.default_rng({seed}), {max_atoms}, 0.08)
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
