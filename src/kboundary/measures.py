"""Finite atomic measures: the computational stand-in for (B, ℬ, mu).

Two flavors are used throughout:

* ``DiscreteMeasure`` -- labeled atoms with positive weights, optionally
  carrying coordinates in [0,1)^k.  The sigma-algebra is always the full
  power set of the atoms.
* ``CircleMeasure`` -- atoms are points of [0,1) identified with the unit
  circle via e(x) = exp(i 2 pi x).  Finite atomic measures on the circle
  are automatically singular with respect to arc length.

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
    must be pairwise distinct.
    """

    atoms: tuple
    weights: np.ndarray
    normalized: bool = True
    coords: np.ndarray | None = field(default=None)

    def __post_init__(self):
        atoms = tuple(self.atoms)
        object.__setattr__(self, "atoms", atoms)
        if len(set(atoms)) != len(atoms):
            raise InvalidMeasure("atom labels must be pairwise distinct")
        w = _as_weights(self.weights)
        if w.size != len(atoms):
            raise InvalidMeasure("weights and atoms must have equal length")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)
        if self.normalized and abs(w.sum() - 1.0) > NORMALIZATION_TOL:
            raise InvalidMeasure(
                f"normalized measure must have total mass 1, got {float(w.sum())!r}"
            )
        if self.coords is not None:
            c = np.atleast_2d(_as_floats(self.coords, "coords must lie in [0,1)^k"))
            if c.shape[0] != len(atoms):
                raise InvalidMeasure("coords must supply one tuple per atom")
            if not np.all((c >= 0.0) & (c < 1.0)):  # NaN fails too
                raise InvalidMeasure("coords must lie in [0,1)^k")
            if len({tuple(row) for row in c}) != c.shape[0]:
                raise InvalidMeasure("coordinate tuples must be pairwise distinct")
            c.setflags(write=False)
            object.__setattr__(self, "coords", c)

    @property
    def size(self) -> int:
        return len(self.atoms)

    def total_mass(self) -> float:
        return float(self.weights.sum())

    @staticmethod
    def counting(n: int) -> "DiscreteMeasure":
        """Counting measure on n atoms labeled 0..n-1 (weights 1, not
        normalized), one shared instance per n."""
        return _counting_measure(operator.index(n))


@lru_cache(maxsize=256)
def _counting_measure(n: int) -> DiscreteMeasure:
    return DiscreteMeasure(atoms=tuple(range(n)), weights=np.ones(n), normalized=False)


@dataclass(frozen=True)
class CircleMeasure:
    """Finite atomic probability measure on the circle, atoms in [0,1)."""

    atoms: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        x = _as_floats(self.atoms, "atoms must lie in [0,1)")
        if x.ndim != 1 or x.size == 0:
            raise InvalidMeasure("atoms must be a nonempty 1-d array")
        if not np.all((x >= 0.0) & (x < 1.0)):  # NaN fails too
            raise InvalidMeasure("atoms must lie in [0,1)")
        if len(set(x.tolist())) != x.size:
            raise InvalidMeasure("atoms must be pairwise distinct")
        w = _as_weights(self.weights)
        if w.size != x.size:
            raise InvalidMeasure("weights and atoms must have equal length")
        if abs(w.sum() - 1.0) > NORMALIZATION_TOL:
            raise InvalidMeasure(
                f"circle measure must be a probability measure, got mass {float(w.sum())!r}"
            )
        x.setflags(write=False)
        object.__setattr__(self, "atoms", x)
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @property
    def size(self) -> int:
        return int(self.atoms.size)

    def boundary_points(self) -> np.ndarray:
        """Atom positions on the unit circle, e(x) = exp(i 2 pi x)."""
        return np.exp(2j * np.pi * self.atoms)

    def as_discrete(self) -> DiscreteMeasure:
        """View as a labeled DiscreteMeasure with the atom coordinates attached."""
        return DiscreteMeasure(
            atoms=tuple(float(x) for x in self.atoms),
            weights=np.array(self.weights),
            normalized=True,
            coords=self.atoms.reshape(-1, 1),
        )
