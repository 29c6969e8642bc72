#!/usr/bin/env python3
"""Sweep random atomic circle measures and report Clark-machinery health.

For each measure: the exact finite-sum factorization residual of the
K_b kernel, the feature rank against the atom count, the worst
Herglotz/Poisson identity error, and how fast |b| approaches 1 at the
boundary, each computed by the function behind the matching ``kb clark``
check.  Everything is seeded; rerunning reproduces the table.  A library
error ends the run with one line on stderr and exit code 1.
"""

import argparse
import sys

import numpy as np

from kboundary import (KernelBoundaryError, build_kb_factorization, minimality_test,
                       verify_factorization)
from kboundary.selfcheck import (
    herglotz_error,
    modulus_deviation,
    random_circle_measure,
    random_interior,
)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trials", type=int, default=12)
    ap.add_argument("--max-atoms", type=int, default=6)
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    print(f"{'atoms':>5} {'points':>6} {'residual':>12} {'rank':>4} "
          f"{'herglotz':>12} {'1-|b| @ r=1-1e-6':>18}")
    try:
        for _ in range(args.trials):
            mu = random_circle_measure(rng, args.max_atoms, min_sep=0.08)
            zs = random_interior(rng, mu.size + 2)
            F = build_kb_factorization(mu, zs)
            residual = verify_factorization(F)
            rank = minimality_test(F)["feature_rank"]
            herglotz = herglotz_error(mu, random_interior(rng, 40))
            modulus = modulus_deviation(mu)
            print(f"{mu.size:>5} {len(zs):>6} {residual:>12.3e} {rank:>4} "
                  f"{herglotz:>12.3e} {modulus:>18.3e}")
    except KernelBoundaryError as exc:
        sys.stdout.flush()
        sys.exit(f"clark_sweep: {type(exc).__name__}: {exc}")


if __name__ == "__main__":
    main()
