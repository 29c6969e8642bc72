"""Error messages print plain numbers, and name the offending point of an
array rather than the whole array."""

import re

import numpy as np
import pytest

from kboundary import (
    BAtOne,
    BoundaryFactorization,
    CauchyZero,
    CircleMeasure,
    DiscreteMeasure,
    DomainViolation,
    FiniteKernel,
    InvalidMeasure,
    PointSet,
    ZeroExpectation,
    clark,
    polydisk_szego_eval,
    renormalize,
)

POINT_MASS = CircleMeasure(atoms=[0.0], weights=[1.0])


def _zero_mean_factorization():
    meas = DiscreteMeasure(atoms=("0", "1"), weights=[0.5, 0.5])
    kernel = FiniteKernel(points=PointSet.from_points([0.0]), gram=[[1.0]])
    return BoundaryFactorization(kernel=kernel, measure=meas, features=[[1.0, -1.0]])


def _cauchy_zero(monkeypatch):
    # Re C > 1/2 on the disk for a probability measure, so C never vanishes
    # there; a cutoff of 0.6 trips at -0.9 (|C| = 1/1.9), not at 0 (|C| = 1).
    monkeypatch.setattr(clark, "CAUCHY_ZERO_TOL", 0.6)
    clark.b_eval(POINT_MASS, [0.0, -0.9, -0.95])


ONE_MINUS = 1.0 - 5e-15  # b = z for the point mass, so |1 - b| < CAUCHY_ZERO_TOL here

CASES = {
    "disk-guard": (DomainViolation, lambda mp: polydisk_szego_eval(0.9999999999999999, 0.0),
                   "evaluation point has |z| = 0.9999999999999999, outside the open disk guard"),
    "circle-mass": (InvalidMeasure, lambda mp: CircleMeasure(atoms=[0.0], weights=[0.9]),
                    "circle measure must be a probability measure, got mass 0.9"),
    "zero-expectation": (ZeroExpectation, lambda mp: renormalize(_zero_mean_factorization()),
                         "feature mean for point index 0 has modulus 0.0"),
    "cauchy-zero": (CauchyZero, _cauchy_zero, "Cauchy transform vanishes at z = (-0.9+0j)"),
    "b-at-one": (BAtOne, lambda mp: clark.herglotz_poisson_check(POINT_MASS, [0.0, ONE_MINUS]),
                 f"b(z) = 1 within tolerance at z = {complex(ONE_MINUS)!r}"),
}


@pytest.mark.parametrize("name", CASES)
def test_message_prints_plain_numbers(name, monkeypatch):
    error, trigger, message = CASES[name]
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        trigger(monkeypatch)
