import json

import numpy as np
import pytest

import thetainv.catalog as catmod
from thetainv.catalog import CatalogEntry, get_lattice, lattice_by_name, parse_lattice_file
from thetainv.cli import _build_parser, main
from thetainv.errors import LatticeFileError, OddDiagonalError
from thetainv.verify import check_catalog


# -- catalog -------------------------------------------------------------------

def test_catalog_names_and_dynamic_zn():
    assert lattice_by_name("E8").rank == 8
    assert lattice_by_name("z5").rank == 5
    assert lattice_by_name("nosuch") is None


def test_catalog_lattices_validate_and_match_goldens():
    results = check_catalog(budget=2)
    assert all(r.passed for r in results)


def test_tampered_catalog_fails_cross_check(monkeypatch):
    # negative control: break one Gram entry of e8 while keeping it a valid
    # lattice; the golden theta prefix must catch it
    entry = catmod.catalog()["e8"]
    gram = [list(r) for r in entry.lattice.gram2]
    gram[0][2] = 0
    gram[2][0] = 0
    bad = catmod.validate_lattice(gram, name="e8")
    tampered = dict(catmod.catalog())
    tampered["e8"] = CatalogEntry("e8", bad, entry.provenance,
                                  entry.theta_golden, entry.golden_order)
    monkeypatch.setattr(catmod, "_CATALOG", tampered)
    import thetainv.verify as verify
    monkeypatch.setattr(verify, "catalog", lambda: tampered)
    results = check_catalog(budget=0)
    golden = next(r for r in results if r.name == "catalog-theta-golden")
    assert not golden.passed


def test_isospectral_pair_same_theta_prefix():
    a = lattice_by_name("e8e8")
    b = lattice_by_name("d16plus")
    assert a.gram2 != b.gram2
    assert a.discriminant() == b.discriminant() == 1
    assert a.level() == b.level() == 1


# -- lattice files --------------------------------------------------------------

def test_parse_lattice_file(tmp_path):
    path = tmp_path / "a2.json"
    path.write_text('{"name": "mine", "rank": 2, "gram2": [[2,1],[1,2]]}')
    lat = parse_lattice_file(str(path))
    assert lat.name == "mine" and lat.discriminant() == 3


def test_parse_lattice_file_odd_diagonal(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"rank": 2, "gram2": [[2,1],[1,3]]}')
    with pytest.raises(OddDiagonalError):
        parse_lattice_file(str(path))


def test_parse_lattice_file_errors(tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text('{"gram2": [[2,')
    with pytest.raises(LatticeFileError, match="line"):
        parse_lattice_file(str(bad))
    with pytest.raises(LatticeFileError):
        parse_lattice_file(str(tmp_path / "missing.json"))
    wrong_rank = tmp_path / "rank.json"
    wrong_rank.write_text('{"rank": 3, "gram2": [[2]]}')
    with pytest.raises(LatticeFileError, match="rank"):
        parse_lattice_file(str(wrong_rank))
    floats = tmp_path / "floats.json"
    floats.write_text('{"gram2": [[2.0]]}')
    with pytest.raises(LatticeFileError, match="integer"):
        parse_lattice_file(str(floats))


def test_get_lattice_prefers_catalog_then_file(tmp_path):
    assert get_lattice("a2").name == "a2"
    path = tmp_path / "custom.json"
    path.write_text('{"gram2": [[4]]}')
    assert get_lattice(str(path)).rank == 1
    with pytest.raises(LatticeFileError):
        get_lattice("not-a-lattice")


# -- CLI ---------------------------------------------------------------------------

def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cli_compute_table(capsys):
    code, out, _ = run_cli(capsys, "compute", "--lattice", "e8",
                           "--degrees", "4,4", "--order", "4", "--no-cache")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("# lattice=e8 degrees=4,4 normalization=pair")
    assert "q^2\t3/896" in lines


def test_cli_compute_a2_theta(capsys):
    code, out, _ = run_cli(capsys, "compute", "--lattice", "a2",
                           "--degrees", "0", "--order", "4",
                           "--format", "csv", "--no-cache")
    assert code == 0
    rows = out.strip().splitlines()
    assert rows[0] == "power,coefficient"
    assert [r.split(",")[1] for r in rows[1:]] == ["1", "6", "0", "6", "6"]


def test_cli_compute_z1_pair_all_zero(capsys):
    code, out, _ = run_cli(capsys, "compute", "--lattice", "z1",
                           "--degrees", "1,1", "--order", "8", "--no-cache")
    assert code == 0
    body = [l for l in out.strip().splitlines() if l.startswith("q^")]
    assert all(l.split("\t")[1] == "0" for l in body)


def test_cli_compute_json_deterministic(capsys):
    args = ("compute", "--lattice", "a2", "--degrees", "1,1",
            "--order", "3", "--format", "json", "--no-cache")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["lattice"] == "a2"
    assert doc["invariant"] == [1, 1]
    assert doc["normalization"] == "pair"
    assert doc["weight"] == "6"
    assert doc["level"] == 3
    assert len(doc["coeffs"]) == 4


def test_cli_compute_decimal_labeled(capsys):
    code, out, _ = run_cli(capsys, "compute", "--lattice", "e8",
                           "--degrees", "4,4", "--order", "2",
                           "--decimal", "--no-cache")
    assert code == 0
    assert "(~0.00334821428571)" in out


def test_cli_bad_lattice_exit_2(capsys):
    code, _, err = run_cli(capsys, "compute", "--lattice", "nosuch",
                           "--degrees", "0", "--order", "2", "--no-cache")
    assert code == 2
    assert "unknown lattice" in err


@pytest.mark.parametrize("doc", [
    '{"gram2": [[2, true], [true, 2]]}',
    '{"rank": true, "gram2": [[2]]}',
    '{"rank": 2.0, "gram2": [[2, 1], [1, 2]]}',
    '{"rank": "2", "gram2": [[2, 1], [1, 2]]}',
], ids=["bool-entries", "bool-rank", "float-rank", "string-rank"])
def test_cli_lattice_file_with_booleans_exit_2(capsys, tmp_path, doc):
    # JSON true loads as a Python bool, which isinstance(x, int) accepts:
    # the first file would otherwise run as a2 and the second as z1; rank
    # 2.0 equals 2, so the third would run as a2 too, and the fourth must
    # not be reported as a rank that does not match
    path = tmp_path / "bools.json"
    path.write_text(doc)
    with pytest.raises(LatticeFileError, match="integer"):
        parse_lattice_file(str(path))
    code, out, err = run_cli(capsys, "compute", "--lattice", str(path),
                             "--degrees", "0", "--order", "2", "--no-cache")
    assert code == 2 and not out
    assert "integer" in err


def test_cli_bad_degrees_exit_2(capsys):
    code, _, err = run_cli(capsys, "compute", "--lattice", "z2",
                           "--degrees", "x,y", "--order", "2", "--no-cache")
    assert code == 2
    assert "degrees" in err


@pytest.mark.parametrize("normalization", ["pair", "triple"])
def test_cli_theta_with_a_fast_route_normalization_exit_2(capsys, normalization):
    # degrees 0 is the theta series; labelling it pair or triple is an error
    code, out, err = run_cli(capsys, "compute", "--lattice", "a2",
                             "--degrees", "0", "--order", "2",
                             "--normalization", normalization, "--no-cache")
    assert code == 2 and not out
    assert f"{normalization} normalization needs degrees" in err


def test_cli_negative_max_tuples_exit_2(capsys):
    code, out, err = run_cli(capsys, "compute", "--lattice", "z2",
                             "--degrees", "1,2", "--order", "2",
                             "--max-tuples", "-1", "--no-cache")
    assert code == 2 and not out
    assert "max_tuples" in err


def test_cli_character_of_even_rank_theta(capsys):
    code, out, _ = run_cli(capsys, "compute", "--lattice", "a2",
                           "--degrees", "0", "--order", "2", "--no-cache")
    assert code == 0
    assert out.splitlines()[0].endswith(" character=kronecker(-3|.)")


def test_cli_resource_limit_exit_3(capsys):
    code, _, err = run_cli(capsys, "compute", "--lattice", "z3",
                           "--degrees", "1,2", "--order", "4",
                           "--max-tuples", "5", "--no-cache")
    assert code == 3
    assert "budget" in err


def test_cli_compare_self_equal(capsys):
    code, out, _ = run_cli(capsys, "compare", "--lattice-a", "a2",
                           "--lattice-b", "a2", "--degrees", "0",
                           "--degrees", "1,1", "--order", "4", "--no-cache")
    assert code == 0
    assert "separated: no invariant differs" in out


def test_cli_compare_z2_vs_a2(capsys):
    code, out, _ = run_cli(capsys, "compare", "--lattice-a", "z2",
                           "--lattice-b", "a2", "--degrees", "0",
                           "--order", "4", "--no-cache")
    assert code == 0
    assert "degrees=(0): differ at q^1 (4 vs 6)" in out
    assert "separated: yes" in out


def test_cli_compare_rank_mismatch_exit_2(capsys):
    code, _, err = run_cli(capsys, "compare", "--lattice-a", "z2",
                           "--lattice-b", "z3", "--order", "2", "--no-cache")
    assert code == 2
    assert "rank mismatch" in err


def test_cli_compare_isospectral_pair(capsys):
    # the two rank-16 catalog lattices share the theta prefix and the
    # degree-(1,1) invariant (both vanish identically), so nothing separates
    code, out, _ = run_cli(capsys, "compare", "--lattice-a", "e8e8",
                           "--lattice-b", "d16plus", "--degrees", "0",
                           "--degrees", "1,1", "--order", "2", "--no-cache")
    assert code == 0
    assert "degrees=(0): equal through q^2" in out
    assert "degrees=(1,1): equal through q^2" in out
    assert "separated: no invariant differs" in out


def test_cli_cache_env_var(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("THETAINV_CACHE_DIR", str(tmp_path))
    code, _, _ = run_cli(capsys, "compute", "--lattice", "a2",
                         "--degrees", "0", "--order", "3")
    assert code == 0
    assert list(tmp_path.glob("shells-*.npz"))


def test_cli_recomputes_over_an_edited_shell_cache(capsys, tmp_path):
    # one e8 root replaced by 7 times itself: trusting the file would print
    # a wrong q^2 coefficient with exit code 0
    argv = ("compute", "--lattice", "e8", "--degrees", "4,4", "--order", "4",
            "--cache-dir", str(tmp_path))
    assert run_cli(capsys, *argv)[0] == 0
    (path,) = tmp_path.glob("shells-*.npz")
    with np.load(path) as npz:
        doc = dict(npz)
    doc["shell_1"] = doc["shell_1"].astype(np.int64)
    doc["shell_1"][0] *= 7
    np.savez(path, **doc)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert "q^2\t3/896" in out.splitlines()


def test_cli_verify_budget_zero_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--order-budget", "0")
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    names = {c["name"] for c in report["checks"]}
    assert "binomial-delta" in names and "e8-pair-q2-table" in names
    skipped = {c["name"] for c in report["checks"] if c["skipped"]}
    assert "basis-invariance" in skipped


def test_cli_verify_text_format(capsys):
    code, out, _ = run_cli(capsys, "verify", "--order-budget", "0",
                           "--format", "text")
    assert code == 0
    assert "[PASS]" in out and "overall: pass" in out


def test_cli_verify_failure_exit_1(capsys, monkeypatch):
    entry = catmod.catalog()["e8"]
    gram = [list(r) for r in entry.lattice.gram2]
    gram[0][2] = 0
    gram[2][0] = 0
    bad = catmod.validate_lattice(gram, name="e8")
    tampered = dict(catmod.catalog())
    tampered["e8"] = CatalogEntry("e8", bad, entry.provenance,
                                  entry.theta_golden, entry.golden_order)
    import thetainv.verify as verify
    monkeypatch.setattr(verify, "catalog", lambda: tampered)
    code, out, _ = run_cli(capsys, "verify", "--order-budget", "0")
    assert code == 1
    report = json.loads(out)
    assert report["passed"] is False


def test_cli_parser_is_built_once_and_keeps_no_parsed_values(capsys):
    # one process reuses one parser; each call must parse as a fresh parser
    # would, with nothing left over from the call before
    calls = [
        ("compare", "--lattice-a", "a2", "--lattice-b", "a2", "--degrees", "0",
         "--degrees", "1,1", "--order", "2", "--no-cache"),
        ("compute", "--lattice", "a2", "--degrees", "1,1", "--order", "2",
         "--no-cache", "--format", "csv"),
        ("verify", "--order-budget", "0"),
        ("compare", "--lattice-a", "a2", "--lattice-b", "a2", "--order", "2",
         "--no-cache"),
    ]
    outs = []
    for argv in calls:
        fresh = vars(_build_parser.__wrapped__().parse_args(argv))
        assert vars(_build_parser().parse_args(argv)) == fresh
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        outs.append(out)
    assert _build_parser() is _build_parser()
    assert "degrees=(0)" in outs[0] and "degrees=(1,1)" in outs[0]
    assert outs[1].splitlines()[0] == "power,coefficient"
    assert json.loads(outs[2])["passed"] is True
    # the repeated --degrees of the first compare are gone: only the default
    assert [line for line in outs[3].splitlines() if line.startswith("degrees=")] == [
        "degrees=(0): equal through q^2"]
