from fractions import Fraction

import thetainv.verify as verify
from thetainv.verify import DEFAULT_SEED, check_pair_integrality, run_verification

CHECKS_AT_BUDGET_2 = [
    "catalog-validation", "catalog-theta-golden", "e8-pair-q2-table",
    "e8-pair-m4", "e8-pair-m6", "e8-pair-m789", "e8-pair-vanishing",
    "pair-term-integrality", "series-integrality", "triple-integrality",
    "pair-route-equivalence", "triple-route-equivalence", "binomial-delta",
    "binomial-telescope", "projector-coefficient-identity",
    "pair-poly-implicit-identity", "projector-closed-forms", "projector-algebra",
    "projector-radial-structure", "harmonic-dimensions", "pairing-adjointness",
    "spherical-integrals", "basis-invariance",
]


def _failed(results) -> list[str]:
    return [r.name for r in results if not r.passed]


def test_verification_at_budget_2_runs_every_check():
    results = run_verification(2)
    assert [r.name for r in results] == CHECKS_AT_BUDGET_2
    assert all(r.passed and not r.skipped for r in results)


def test_a_wrong_e8_pair_constant_fails_e8_pair_m4_alone(monkeypatch):
    monkeypatch.setitem(verify.E8_PAIR_CONSTANTS, 4, Fraction(1, 896))
    assert _failed(run_verification(2)) == ["e8-pair-m4"]


def test_a_wrong_pair_route_fails_pair_route_equivalence_alone(monkeypatch):
    compute = verify.compute

    def doubled_pair(lattice, request, **kwargs):
        series = compute(lattice, request, **kwargs)
        return 2 * series if request.degrees == (1, 1) else series

    monkeypatch.setattr(verify, "compute", doubled_pair)
    assert _failed(run_verification(2)) == ["pair-route-equivalence"]


def test_pair_term_integrality_catches_an_off_by_one(monkeypatch):
    coeffs = verify.pair_scaled_coeffs
    monkeypatch.setattr(verify, "pair_scaled_coeffs",
                        lambda n, m: (coeffs(n, m)[0] + 1,) + coeffs(n, m)[1:])
    result = check_pair_integrality(0, DEFAULT_SEED, None)[0]
    assert result.name == "pair-term-integrality" and not result.passed
    assert result.detail == ("differs from pair_scale * pair_term at "
                             "n=1 m=1, n=1 m=2, n=1 m=3, n=1 m=4, n=1 m=5")


def test_pair_term_integrality_reaches_rank_32_degree_9(monkeypatch):
    coeffs = verify.pair_scaled_coeffs

    def wrong_at_the_corner(n, m):
        c = coeffs(n, m)
        return c[:-1] + (c[-1] + 1,) if (n, m) == (32, 9) else c

    monkeypatch.setattr(verify, "pair_scaled_coeffs", wrong_at_the_corner)
    result = check_pair_integrality(0, DEFAULT_SEED, None)[0]
    assert not result.passed
    assert result.detail == "differs from pair_scale * pair_term at n=32 m=9"
