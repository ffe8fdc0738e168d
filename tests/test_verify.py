import thetainv.verify as verify
from thetainv.verify import DEFAULT_SEED, check_pair_integrality


def test_pair_term_integrality_catches_an_off_by_one(monkeypatch):
    scaled = verify.pair_term_scaled
    monkeypatch.setattr(verify, "pair_term_scaled",
                        lambda lat, v, w, m: scaled(lat, v, w, m) + 1)
    result = check_pair_integrality(0, DEFAULT_SEED, None)[0]
    assert result.name == "pair-term-integrality" and not result.passed
    assert result.detail == "10000 samples differ from pair_scale * pair_term"
