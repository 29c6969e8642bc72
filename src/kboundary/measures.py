"""Finite atomic measures: the computational stand-in for (B, ℬ, mu).

A ``DiscreteMeasure`` is labeled atoms with positive weights, optionally
carrying coordinates in [0,1)^k; the sigma-algebra is always the full power
set of the atoms.  A measure on the circle is one of them: a
``CircleMeasure`` is a probability ``DiscreteMeasure`` whose labels and 1-d
coordinates are its atoms, points of [0,1) identified with the unit circle
via e(x) = exp(i 2 pi x).  Finite atomic measures on the circle are
automatically singular with respect to arc length.

Measures are frozen with read-only arrays, so ``DiscreteMeasure.counting``
hands out one shared instance per size.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import InvalidMeasure

NORMALIZATION_TOL = 1e-12
COORDS_RANGE = "atom coordinates must lie in [0,1)"


def _as_floats(values, message: str) -> np.ndarray:
    """``values`` as a float array; an integer beyond the float range raises
    InvalidMeasure with ``message``, as an infinite entry would."""
    try:
        return np.asarray(values, dtype=float)
    except OverflowError:
        raise InvalidMeasure(message) from None


def _as_weights(weights) -> np.ndarray:
    w = _as_floats(weights, "all weights must be finite")
    if w.ndim != 1:
        raise InvalidMeasure("weights must be a 1-d array")
    if not np.isfinite(w).all():
        raise InvalidMeasure("all weights must be finite")
    if (w <= 0.0).any():
        raise InvalidMeasure("all weights must be strictly positive")
    return w


@dataclass(frozen=True)
class DiscreteMeasure:
    """Finite atomic positive measure on labeled atoms.

    ``coords`` is optional; when present it holds one coordinate tuple in
    [0,1)^k per atom (used by the polydisk density test) and the tuples
    must be pairwise distinct.  This is the one place a measure's atoms,
    coordinates and weights are validated.
    """

    atoms: tuple
    weights: np.ndarray
    coords: np.ndarray | None = field(default=None)

    def __post_init__(self):
        atoms = tuple(self.atoms)
        object.__setattr__(self, "atoms", atoms)
        if self.coords is not None:
            c = np.atleast_2d(_as_floats(self.coords, COORDS_RANGE))
            if c.shape[0] != len(atoms):
                raise InvalidMeasure("coords must supply one tuple per atom")
            if not np.all((c >= 0.0) & (c < 1.0)):  # NaN fails too
                raise InvalidMeasure(COORDS_RANGE)
            if len({tuple(row) for row in c}) != c.shape[0]:
                raise InvalidMeasure("atom coordinates must be pairwise distinct")
            c.setflags(write=False)
            object.__setattr__(self, "coords", c)
        if len(set(atoms)) != len(atoms):
            raise InvalidMeasure("atom labels must be pairwise distinct")
        w = _as_weights(self.weights)
        if w.size != len(atoms):
            raise InvalidMeasure("weights and atoms must have equal length")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @property
    def size(self) -> int:
        return len(self.atoms)

    def total_mass(self) -> float:
        return float(self.weights.sum())

    @staticmethod
    def counting(n: int) -> "DiscreteMeasure":
        """Counting measure on n atoms labeled 0..n-1 (weights 1), one shared
        instance per n."""
        return _counting_measure(operator.index(n))


@lru_cache(maxsize=256)
def _counting_measure(n: int) -> DiscreteMeasure:
    return DiscreteMeasure(atoms=tuple(range(n)), weights=np.ones(n))


class CircleMeasure(DiscreteMeasure):
    """Finite atomic probability measure on the circle: its atoms, points of
    [0,1), are both its labels and its 1-d coordinates."""

    def __init__(self, atoms, weights):
        x = _as_floats(atoms, COORDS_RANGE)
        if x.ndim != 1 or x.size == 0:
            raise InvalidMeasure("atoms must be a nonempty 1-d array")
        # A copy: a caller's array written later must not move the coordinates
        # away from the labels.
        super().__init__(atoms=tuple(x.tolist()), weights=weights,
                         coords=x.reshape(-1, 1).copy())
        mass = float(self.weights.sum())
        if abs(mass - 1.0) > NORMALIZATION_TOL:
            raise InvalidMeasure(
                f"circle measure must be a probability measure, got mass {mass!r}")

    def boundary_points(self) -> np.ndarray:
        """Atom positions on the unit circle, e(x) = exp(i 2 pi x)."""
        return np.exp(2j * np.pi * self.coords[:, 0])
