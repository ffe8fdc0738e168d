import thetainv.verify as verify
from thetainv.verify import DEFAULT_SEED, check_pair_integrality


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
