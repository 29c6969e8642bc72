"""Error messages print plain numbers, and name the offending point of an
array rather than the whole array."""

import re

import numpy as np
import pytest

from kboundary import (
    BAtOne,
    BoundaryFactorization,
    CircleMeasure,
    DiscreteMeasure,
    DomainViolation,
    FiniteKernel,
    InvalidMeasure,
    ZeroExpectation,
    clark,
    polydisk_szego_eval,
    renormalize,
)

POINT_MASS = CircleMeasure(atoms=[0.0], weights=[1.0])


def _zero_mean_factorization():
    meas = DiscreteMeasure(atoms=("0", "1"), weights=[0.5, 0.5])
    kernel = FiniteKernel(gram=[[1.0]])
    return BoundaryFactorization(kernel=kernel, measure=meas, features=[[1.0, -1.0]])


ONE_MINUS = 1.0 - 5e-15  # b = z for the point mass, so |1 - b| < CAUCHY_ZERO_TOL here

CASES = {
    "disk-guard": (DomainViolation, lambda: polydisk_szego_eval(0.9999999999999999, 0.0),
                   "evaluation point has |z| = 0.9999999999999999, outside the open disk guard"),
    "circle-mass": (InvalidMeasure, lambda: CircleMeasure(atoms=[0.0], weights=[0.9]),
                    "circle measure must be a probability measure, got mass 0.9"),
    "zero-expectation": (ZeroExpectation, lambda: renormalize(_zero_mean_factorization()),
                         "feature mean for point index 0 has modulus 0.0"),
    "b-at-one": (BAtOne, lambda: clark.herglotz_poisson_check(POINT_MASS, [0.0, ONE_MINUS]),
                 f"b(z) = 1 within tolerance at z = {complex(ONE_MINUS)!r}"),
}


@pytest.mark.parametrize("name", CASES)
def test_message_prints_plain_numbers(name):
    error, trigger, message = CASES[name]
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        trigger()
