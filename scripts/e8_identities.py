#!/usr/bin/env python3
"""Reproduce the explicit E8 pair-invariant identities.

Prints the q^2 coefficient table for the degree-(m,m) invariants, m = 1..9,
then checks each invariant against its closed form in the Eisenstein series
and the discriminant cusp form, all in exact rational arithmetic.

Usage: python scripts/e8_identities.py [--order K]
"""

import argparse
import time

from thetainv.catalog import lattice_by_name
from thetainv.lattice import enumerate_shells
from thetainv.qseries import format_rational
from thetainv.theta import theta_pair
from thetainv.verify import E8_PAIR_CONSTANTS, E8_PAIR_FORMS, E8_PAIR_Q2, e8_pair_form


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--order", type=int, default=5,
                        help="truncation order for the identity checks")
    args = parser.parse_args()

    e8 = lattice_by_name("e8")
    start = time.monotonic()
    shells = enumerate_shells(e8, max(2, args.order))
    print(f"enumerated {sum(shells.sizes().values())} "
          f"vectors up to norm {shells.bound} "
          f"({time.monotonic() - start:.2f}s)\n")

    print("q^2 coefficient of the degree-(m,m) invariant:")
    print(" m | coefficient")
    print("---+------------")
    for m in range(1, 10):
        val = theta_pair(e8, m, 2, shells=shells).coeff(2)
        print(f" {m} | {format_rational(val)}")

    k = args.order
    print(f"\nidentity checks through q^{k}:")
    for m, (form, _) in E8_PAIR_FORMS.items():
        label = f"{format_rational(E8_PAIR_CONSTANTS[m])} * {form}"
        lhs = theta_pair(e8, m, k, shells=shells)
        status = "ok" if lhs == e8_pair_form(m, k) else "MISMATCH"
        print(f"  degree-({m},{m}) invariant == {label}: {status}")
    for m in sorted(set(E8_PAIR_Q2) - set(E8_PAIR_FORMS)):
        lhs = theta_pair(e8, m, k, shells=shells)
        status = "ok" if lhs.is_zero() else "MISMATCH"
        print(f"  degree-({m},{m}) invariant == 0: {status}")


if __name__ == "__main__":
    main()
