"""Acceptance suite: one test per criterion, every comparison exact.

Each test prints a single PASS/FAIL line (visible with pytest -s) so the
module doubles as a human-readable report.
"""

import time
from fractions import Fraction
from math import prod

from thetainv.catalog import lattice_by_name
from thetainv.lattice import enumerate_shells
from thetainv.qseries import delta_series, eisenstein
from thetainv.theta import (
    InvariantRequest,
    theta_general,
    theta_pair,
    theta_triple,
)
from thetainv.verify import (
    E8_PAIR_CONSTANTS,
    E8_PAIR_Q2,
    check_basis_invariance,
    check_combinatorial_lemmas,
    check_pair_integrality,
    check_projectors,
    check_spherical_integrals,
    check_triple_integrality,
)

SEED = 74025


def _report(criterion, ok, message):
    line = f"ACCEPTANCE {criterion:>2} {'PASS' if ok else 'FAIL'}: {message}"
    print(line)
    assert ok, line


def test_criterion_01_e8_second_coefficient_table(e8):
    start = time.monotonic()
    table = enumerate_shells(e8, 2)
    got = {m: theta_pair(e8, m, 2, shells=table).coeff(2) for m in range(1, 10)}
    elapsed = time.monotonic() - start
    ok = got == E8_PAIR_Q2 and elapsed < 10.0
    _report(1, ok, f"q^2 table for m=1..9 exact in {elapsed:.2f}s (limit 10s)")


def test_criterion_02_pair44_is_delta_squared(e8, e8_shells6):
    lhs = theta_pair(e8, 4, 5, shells=e8_shells6)
    rhs = Fraction(3, 896) * delta_series(5) ** 2
    _report(2, lhs == rhs, "degree-(4,4) invariant of e8 equals 3/896 * Delta^2 "
                           "through q^5")


def test_criterion_03_pair66(e8, e8_shells6):
    lhs = theta_pair(e8, 6, 4, shells=e8_shells6)
    rhs = Fraction(7, 658944) * (eisenstein(8, 4) * delta_series(4) ** 2)
    _report(3, lhs == rhs, "degree-(6,6) invariant of e8 equals 7/658944 * G8 "
                           "Delta^2 through q^4")


def test_criterion_04_pair_789(e8, e8_shells6):
    ok = True
    for m, ew in ((7, 6), (8, 8), (9, 10)):
        lhs = theta_pair(e8, m, 3, shells=e8_shells6)
        rhs = E8_PAIR_CONSTANTS[m] * (eisenstein(ew, 3) ** 2 * delta_series(3) ** 2)
        ok = ok and lhs.coeff(2) == rhs.coeff(2) and lhs.coeff(3) == rhs.coeff(3)
    _report(4, ok, "degree-(7,7),(8,8),(9,9) invariants match the squared "
                   "Eisenstein identities at q^2, q^3")


def test_criterion_05_pair_vanishing(e8, e8_shells6):
    ok = all(theta_pair(e8, m, 5, shells=e8_shells6).is_zero()
             for m in (1, 2, 3, 5))
    _report(5, ok, "degree-(m,m) invariants of e8 vanish for m in {1,2,3,5} "
                   "through q^5")


def test_criterion_06_pair_integrality(e8_shells6):
    results = check_pair_integrality(budget=6, seed=SEED, e8_shells=e8_shells6)
    by_name = {r.name: r for r in results}
    samples_ok = by_name["pair-term-integrality"].passed
    series_ok = by_name["series-integrality"].passed
    _report(6, samples_ok and series_ok,
            "pair_scale * pair_term has integer coefficients for n <= 32, "
            "m <= 9; scaled series integral to q^6 on z1..z4, a2, d4, e8")


def test_criterion_07_triple_integrality():
    result = check_triple_integrality(budget=4)
    _report(7, result.passed,
            "8/n-scaled triple invariant integral to q^4 on z2, z3, a2, d4")


def test_criterion_08_oracle_equivalences(skew2, skew3, a2):
    ok = True
    z2 = lattice_by_name("z2")
    z3 = lattice_by_name("z3")
    for lat, m in ((z2, 1), (z2, 2), (z3, 1), (a2, 1), (a2, 2),
                   (skew2, 1), (skew2, 2), (skew3, 1)):
        n = lat.rank
        gen = theta_general(lat, InvariantRequest((m, m), 4))
        pair = theta_pair(lat, m, 4)
        c2m = Fraction(1, prod(n + 2 * j for j in range(2 * m)))
        ok = ok and gen == c2m * pair
    for lat in (z2, z3, a2, skew2, skew3):
        n = lat.rank
        gen = theta_general(lat, InvariantRequest((1, 1, 1), 3))
        tri = theta_triple(lat, 3)
        ok = ok and Fraction(n**4 * (n + 2) * (n + 4)) * gen == tri
    _report(8, ok, "orthonormal-basis route matches the pair route (K=4) and "
                   "the triple route (K=3) exactly")


def test_criterion_09_combinatorial_lemmas():
    results = check_combinatorial_lemmas()
    ok = all(r.passed for r in results)
    detail = next(r.detail for r in results if r.name == "binomial-delta")
    _report(9, ok, f"combinatorial sums verified (d<=8, |w|<=12; {detail}; "
                   "coefficient identities to d<=6, m<=8, n<=12)")


def test_criterion_10_projector_suite():
    results = check_projectors(seed=SEED)
    ok = all(r.passed for r in results)
    _report(10, ok, "projector closed forms (n=2..8), algebra on random "
                    "polynomials (n<=4, m<=6) and kernel dimensions verified")


def test_criterion_11_spherical_integrals():
    result = check_spherical_integrals(seed=SEED)
    _report(11, result.passed,
            "reference sphere averages exact for n=2..10; 10^3 random "
            "odd-exponent monomials vanish")


def test_criterion_12_basis_invariance():
    result = check_basis_invariance(budget=4, seed=SEED)
    _report(12, result.passed,
            "100 random unimodular basis changes per lattice (z2, a2, z3, d4) "
            "leave all invariants unchanged through q^4")
