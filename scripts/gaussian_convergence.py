#!/usr/bin/env python3
"""Empirical covariance convergence of the sampled boundary process.

Draws the Gaussian process of the real part of a Szego Gram matrix over a
small grid through its spectral factorization, at increasing sample
sizes N through ``moments`` (the sums of N draws, drawn in law, so time
and memory stay flat in N), and prints the max-abs
covariance error next to the 4 max|G| / sqrt(N) reference scale, both as
``kb gaussian-sample`` computes them, plus the marginal-consistency
deviation for a fixed subset.  A library error, such as a size below two
draws, ends the run with one line on stderr and exit code 1.
"""

import argparse
import sys

from kboundary import KernelBoundaryError, consistency_check
from kboundary.selfcheck import covariance_bound, moment_errors, szego_real_part_kernel


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--sizes", type=int, nargs="+",
                    default=[2_000, 20_000, 200_000, 1_000_000])
    args = ap.parse_args()

    K = szego_real_part_kernel()
    print(f"{'N':>9} {'cov error':>12} {'4 max|G|/sqrt(N)':>18} {'consistency':>12}")
    try:
        for n in args.sizes:
            err, _, cov, seed_record = moment_errors(K, args.seed, n)
            cons = consistency_check(K, [0, 2], cov, seed_record)
            print(f"{n:>9} {err:>12.4e} {covariance_bound(K, n):>18.4e} "
                  f"{cons['empirical_deviation']:>12.4e}")
    except KernelBoundaryError as exc:
        sys.stdout.flush()
        sys.exit(f"gaussian_convergence: {type(exc).__name__}: {exc}")


if __name__ == "__main__":
    main()
