"""The one verdict record, ``Check``, of every ``kb`` pipeline and of the
self-check suite.

It imports nothing else from the library, so that a command whose pipeline
needs no self-check criterion does not load ``selfcheck``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class Check:
    """One verdict: its name, whether it passed, and numerical details.

    The details are made JSON-ready once, here: numpy scalars become Python
    bool, int and float, and a non-finite float becomes None and fails the
    check, so no report check carries NaN or Infinity.
    """

    name: str
    passed: bool
    details: dict = field(default_factory=dict)

    def __post_init__(self):
        non_finite = []
        object.__setattr__(self, "details", _plain(self.details, non_finite))
        object.__setattr__(self, "passed", bool(self.passed) and not non_finite)

    def as_json(self) -> dict:
        return {"name": self.name, "passed": self.passed, **self.details}


def _plain(value, non_finite: list):
    """``value`` with numpy scalars as Python ones and each non-finite float
    as None, recorded in ``non_finite``; tuples become lists."""
    if isinstance(value, dict):
        return {str(k): _plain(v, non_finite) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v, non_finite) for v in value]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        if math.isfinite(value):
            return float(value)
        non_finite.append(value)
        return None
    return value
