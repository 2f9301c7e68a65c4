#!/usr/bin/env python3
"""Sweep the Sagle-Yamaguti / Mal'tsev equivalence over random algebras.

The two identities are classically equivalent for anticommutative algebras
in characteristic 0.  This experiment stress-tests that claim empirically:
it runs both checks on every catalog algebra and on a seeded batch of
random antisymmetric dim-3 algebras with small integer constants, and
reports any verdict disagreement (exit code 1 if one is found).
"""
import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# the checkout's package and test generators, whether or not maltsev is installed
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from maltsev import check_equivalence  # noqa: E402
from maltsev.catalog import full_catalog  # noqa: E402
from tests.support import RANDOM_ALGEBRA_SEED, random_dim3_algebras  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=100,
                        help="number of random algebras (default 100)")
    parser.add_argument("--seed", type=int, default=RANDOM_ALGEBRA_SEED)
    parser.add_argument("--verbose", action="store_true",
                        help="print one line per algebra")
    args = parser.parse_args(argv)
    if args.count < 0:
        parser.error(f"--count must be >= 0, got {args.count}")

    algebras = list(full_catalog()) + random_dim3_algebras(args.count, args.seed)

    disagreements = []
    both_hold = 0
    for A in algebras:
        eq = check_equivalence(A)
        if eq.maltsev.holds:
            both_hold += 1
        if args.verbose:
            print(f"{A.name:12s} maltsev={'holds' if eq.maltsev.holds else 'fails':5s} "
                  f"sagle-yamaguti={'holds' if eq.sagle_yamaguti.holds else 'fails':5s} "
                  f"agree={eq.agree}")
        if not eq.agree:
            disagreements.append(eq)

    print(f"\n{len(algebras)} algebras checked "
          f"(catalog {len(full_catalog())} + {args.count} random, seed {args.seed})")
    print(f"both identities hold on {both_hold}, "
          f"verdicts disagree on {len(disagreements)}")
    for eq in disagreements:
        print(f"  DISAGREEMENT on {eq.algebra}: "
              f"maltsev={eq.maltsev.holds} sagle-yamaguti={eq.sagle_yamaguti.holds}")
    return 1 if disagreements else 0


if __name__ == "__main__":
    sys.exit(main())
