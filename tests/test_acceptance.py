"""Acceptance gate: every verification criterion at its stated tolerance.

Each test prints one PASS/FAIL line; the numeric criteria run through
the same seeded self-check engine the ``kb verify-all`` command uses,
so the gate and the CLI cannot drift apart.
"""

import time

import pytest

from kboundary import cli, selfcheck

ACCEPTANCE_SEED = 20260809


def _report(number, result):
    status = "PASS" if result.passed else "FAIL"
    print(f"ACCEPTANCE {number:>2} {result.name:28s} {status}")
    assert result.passed, f"{result.name} failed: {result.details}"


def test_criterion_01_parseval_reconstruction():
    # 200 random Hermitian PSD matrices (n <= 20): factorize then verify,
    # max-abs residual <= 1e-10 relative to ||G||_2.
    _report(1, selfcheck.check_parseval_reconstruction(seed=ACCEPTANCE_SEED))


def test_criterion_02_transform_pair():
    # Counting-measure factorizations of the same corpus: W isometry <= 1e-9
    # relative to ||f||^2, V.W generator identity <= 1e-9 relative to
    # ||G||_2, projection idempotency and
    # mu-self-adjointness <= 1e-9, projection spectrum within 1e-7 of {0,1}.
    _report(2, selfcheck.check_transform_pair(seed=ACCEPTANCE_SEED))


def test_criterion_03_schwarz_bound():
    # 500 random (g, xi, factorization) triples with relative slack 1e-9;
    # the parallel-vector equality case matches within 1e-9.
    _report(3, selfcheck.check_schwarz_bound(seed=ACCEPTANCE_SEED))


def test_criterion_04_morphism_checker():
    # The three worked examples give exactly the stated verdict triples;
    # pullback isometry residual <= 1e-12 on passing morphisms.
    _report(4, selfcheck.check_morphism_examples(seed=ACCEPTANCE_SEED))


def test_criterion_05_gaussian_realization():
    # Szego 4-point real-part kernel and identity: N = 2e5, fixed seed,
    # covariance error <= 0.02, means <= 0.012, consistency <= 0.03,
    # runtime <= 10 s.
    start = time.perf_counter()
    result = selfcheck.check_gaussian_realization(seed=ACCEPTANCE_SEED)
    elapsed = time.perf_counter() - start
    _report(5, result)
    assert elapsed <= 10.0, f"criterion 5 took {elapsed:.1f}s"


def test_criterion_06_clark_exactness():
    # b(z)=z and K_b=1 for the point mass; b(z)=z^2 and K_b=1+z conj(w)
    # for the symmetric two-atom measure; 100 random interior points at
    # 1e-12; factorization residual <= 1e-10; rank = number of atoms.
    _report(6, selfcheck.check_clark_exactness(seed=ACCEPTANCE_SEED))


def test_criterion_07_poisson_herglotz():
    # abs error <= 1e-10 at 100 random interior points for 20 random
    # atomic measures with at most 6 atoms.
    _report(7, selfcheck.check_poisson_herglotz(seed=ACCEPTANCE_SEED))


def test_criterion_08_inner_modulus():
    # |1 - |b|| <= 1e-3 at r = 1 - 1e-6 away from atoms; exact power law
    # 1 - r and 1 - r^2 on the worked examples within 1e-12.
    _report(8, selfcheck.check_inner_modulus(seed=ACCEPTANCE_SEED))


def test_criterion_09_renormalization():
    # Worked (3/4, 1/4) example reproduces [[1,1],[1,4]] within 1e-12;
    # identity residual <= 1e-10 on 100 random factorizations with
    # expectations bounded below by 1e-3; 1/E = 1 - b within 1e-12.
    _report(9, selfcheck.check_renormalization(seed=ACCEPTANCE_SEED))


def test_criterion_10_polydisk_density():
    # k=1: saturation at degree m-1 in every trial (m <= 8 distinct atoms);
    # k=2: saturation at or below max_degree = m on 50 random measures.
    _report(10, selfcheck.check_polydisk_density(seed=ACCEPTANCE_SEED))


def test_criterion_11_verify_all_determinism():
    # verify-all twice with the same seed yields byte-identical JSON,
    # timing excluded.
    config = {"command": "verify-all", "seed": ACCEPTANCE_SEED}
    r1, c1 = cli.run(cli.parse_config(dict(config)))
    r2, c2 = cli.run(cli.parse_config(dict(config)))
    for r in (r1, r2):
        r.pop("timing")
    identical = cli.emit(r1) == cli.emit(r2)
    status = "PASS" if (identical and c1 == 0 and c2 == 0) else "FAIL"
    print(f"ACCEPTANCE 11 {'verify-all-determinism':28s} {status}")
    assert c1 == 0 and c2 == 0
    assert identical, "verify-all reports differ between identical runs"


@pytest.fixture(scope="session", autouse=True)
def _banner():
    print("\n== acceptance gate ==")
    yield
