import json
import os
import random
from itertools import product
from math import lcm

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from thetainv.errors import (
    NotPositiveDefiniteError,
    NotSymmetricError,
    OddDiagonalError,
    RankMismatchError,
)
from thetainv.lattice import (
    ShellTable,
    change_basis,
    det_int,
    enumerate_shells,
    invert_rational,
    load_shell_table,
    random_unimodular,
    save_shell_table,
    validate_lattice,
)
from thetainv.qseries import sigma

import oracles


# -- validation ---------------------------------------------------------------

def test_validate_smallest_lattices():
    assert validate_lattice([[2]]).rank == 1
    assert validate_lattice([[2, 1], [1, 2]]).discriminant() == 3


def test_validate_rejects_odd_diagonal():
    with pytest.raises(OddDiagonalError):
        validate_lattice([[1]])
    with pytest.raises(OddDiagonalError):
        validate_lattice([[2, 1], [1, 3]])


def test_validate_rejects_asymmetric():
    with pytest.raises(NotSymmetricError):
        validate_lattice([[2, 1], [0, 2]])
    with pytest.raises(NotSymmetricError):
        validate_lattice([[2, 1]])


def test_validate_rejects_indefinite():
    with pytest.raises(NotPositiveDefiniteError):
        validate_lattice([[2, 3], [3, 2]])
    with pytest.raises(NotPositiveDefiniteError):
        validate_lattice([[-2]])


# -- discriminant and level -----------------------------------------------------

def test_discriminant_values(e8, a2):
    assert validate_lattice([[2]]).discriminant() == 2
    assert a2.discriminant() == 3
    assert e8.discriminant() == 1


def test_determinant_against_sympy_oracle():
    rng = random.Random(5)
    for _ in range(25):
        n = rng.randint(1, 5)
        m = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        assert det_int(m) == int(sympy.Matrix(m).det())


def test_level_values(e8, a2, d4):
    assert validate_lattice([[2]]).level() == 4
    assert a2.level() == 3
    assert e8.level() == 1
    assert d4.level() == 2


@pytest.mark.parametrize("name_gram", [
    ("z1", [[2]]),
    ("z2", [[2, 0], [0, 2]]),
    ("a2", [[2, 1], [1, 2]]),
    ("d4", [[2, 0, -1, 0], [0, 2, -1, 0], [-1, -1, 2, -1], [0, 0, -1, 2]]),
    ("skew", [[2, 1], [1, 4]]),
])
def test_level_minimality(name_gram):
    # N * A^{-1} must be integral with even diagonal, and no smaller positive
    # integer can work: exhaust the divisors of N and of 2 * lcm(denominators)
    name, gram = name_gram
    lat = validate_lattice(gram, name=name)
    n = lat.rank
    big_n = lat.level()
    inv = invert_rational(lat.gram2)

    def works(c):
        scaled = [[c * x for x in row] for row in inv]
        if any(x.denominator != 1 for row in scaled for x in row):
            return False
        return all(scaled[i][i].numerator % 2 == 0 for i in range(n))

    assert works(big_n)
    m = 1
    for row in inv:
        for x in row:
            m = lcm(m, x.denominator)
    candidates = {d for d in range(1, 2 * m + 1) if (2 * m) % d == 0 or big_n % d == 0}
    for c in sorted(candidates):
        if c < big_n:
            assert not works(c)


def test_unimodular_invariance_of_disc_and_level(a2, skew3):
    rng = random.Random(17)
    for lat in (a2, skew3):
        for _ in range(25):
            u = random_unimodular(lat.rank, rng)
            moved = change_basis(lat, u)
            assert moved.discriminant() == lat.discriminant()
            assert moved.level() == lat.level()


def test_change_basis_rejects_non_unimodular(a2):
    with pytest.raises(ValueError):
        change_basis(a2, [[2, 0], [0, 1]])


# -- pairing -------------------------------------------------------------------

def test_inner2_values(a2):
    z2 = validate_lattice([[2, 0], [0, 2]])
    assert z2.inner2((1, 0), (0, 1)) == 0
    assert a2.inner2((1, 0), (0, 1)) == 1
    assert a2.inner2((1, 0), (1, 0)) == 2 * a2.norm((1, 0))


def test_inner2_rank_mismatch(a2):
    with pytest.raises(RankMismatchError):
        a2.inner2((1, 0, 0), (0, 1, 0))


def test_e8_minimal_vector_pairings(e8_shells6):
    # doubled pairings between norm-one vectors take values 0, +-1, +-2 only,
    # with squares {4, 1, 0} hit 480, 26880 and 30240 times over the 240^2 pairs
    hist = e8_shells6.pair_histogram(1, 1)
    assert set(hist) <= {-2, -1, 0, 1, 2}
    squares = {}
    for t, c in hist.items():
        squares[t * t] = squares.get(t * t, 0) + c
    assert squares == {4: 480, 1: 26880, 0: 30240}
    assert sum(hist.values()) == 240 * 240


# -- enumeration ---------------------------------------------------------------

def test_enumerate_z1():
    table = enumerate_shells(validate_lattice([[2]]), 4)
    assert table.shell(0) == ((0,),)
    assert table.shell(1) == ((-1,), (1,))
    assert table.shell(2) == ()
    assert table.shell(3) == ()
    assert table.shell(4) == ((-2,), (2,))


def test_enumerate_a2(a2):
    assert enumerate_shells(a2, 1).sizes() == {0: 1, 1: 6}


def test_enumerate_e8(e8_shells6):
    sizes = e8_shells6.sizes()
    assert sizes[1] == 240
    assert sizes[2] == 2160
    # shell sizes follow the divisor-sum pattern 240 * sigma_3(k)
    for k in range(1, 7):
        assert sizes[k] == 240 * sigma(3, k)


def _brute_shells(gram, bound, box):
    lat = validate_lattice(gram)
    out = {}
    n = lat.rank
    for v in product(range(-box, box + 1), repeat=n):
        q = lat.norm(v)
        if q <= bound:
            out.setdefault(q, set()).add(v)
    return out


@pytest.mark.parametrize("gram,box", [
    ([[2, 1], [1, 2]], 4),
    ([[2, 1], [1, 4]], 4),
    ([[2, 0, -1, 0], [0, 2, -1, 0], [-1, -1, 2, -1], [0, 0, -1, 2]], 5),
])
def test_enumeration_matches_brute_force(gram, box):
    bound = 4
    lat = validate_lattice(gram)
    table = enumerate_shells(lat, bound)
    brute = _brute_shells(gram, bound, box)
    for k in range(bound + 1):
        assert set(table.shell(k)) == brute.get(k, set())


def _gram_from_seed(entries, n):
    b = [[entries[i * n + j] for j in range(n)] for i in range(n)]
    # 2 (B^T B + I): symmetric, even diagonal, positive definite by construction
    g = [[2 * (sum(b[k][i] * b[k][j] for k in range(n)) + (i == j))
          for j in range(n)] for i in range(n)]
    return g


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(
        st.integers(-2, 2), min_size=n * n, max_size=n * n))))
def test_shell_invariants_random_lattices(args):
    n, entries = args
    lat = validate_lattice(_gram_from_seed(entries, n))
    bound = 4
    table = enumerate_shells(lat, bound)
    assert table.shell(0) == ((0,) * n,)
    for k in range(bound + 1):
        sh = table.shell(k)
        for v in sh:
            assert lat.norm(v) == k
        if k >= 1:
            assert len(sh) % 2 == 0
            assert set(sh) == {tuple(-x for x in v) for v in sh}
    # enumerating further extends without changing the lower shells
    bigger = enumerate_shells(lat, bound + 2)
    for k in range(bound + 1):
        assert bigger.shell(k) == table.shell(k)


def test_pair_histogram_total_and_symmetry(a2):
    table = enumerate_shells(a2, 4)
    for k1, k2 in [(1, 1), (1, 3), (3, 4)]:
        hist = table.pair_histogram(k1, k2)
        assert sum(hist.values()) == len(table.shell(k1)) * len(table.shell(k2))
        assert hist == table.pair_histogram(k2, k1)


def test_pair_histogram_fast_path_equals_naive(e8_shells6, a2, d4, skew2, diag246):
    e8_cells = [(k1, k2) for k1 in range(5) for k2 in range(k1, 5 - k1)]
    small_cells = [(k1, k2) for k1 in range(5) for k2 in range(k1, 5)]
    cases = [(e8_shells6, e8_cells)]
    cases += [(enumerate_shells(lat, 4), small_cells) for lat in (a2, d4, skew2, diag246)]
    for table, cells in cases:
        for k1, k2 in cells:
            naive = oracles.pair_histogram(table.lattice, table.shell(k1), table.shell(k2))
            assert table.pair_histogram(k1, k2) == naive


def test_bilinear_sum_and_tuple_histogram_equal_oracles(skew3, diag246):
    for lat in (skew3, diag246):
        table = enumerate_shells(lat, 4)
        metric = [[3 * i - j for j in range(3)] for i in range(3)]
        for k1, k2 in [(1, 2), (2, 3), (3, 4)]:
            want = oracles.bilinear_sum(lat, metric, table.shell(k1), table.shell(k2))
            assert table.bilinear_sum(k1, k2, metric) == want
        for comp in [(1, 2), (0, 1, 2), (1, 1, 2), (2, 2, 2), (1, 1, 1, 1), (0, 1, 1, 2)]:
            want = oracles.tuple_histogram(lat, [table.shell(c) for c in comp])
            assert table.tuple_histogram(comp) == want


def test_inconsistent_shells_raise_instead_of_miscounting(a2):
    good = enumerate_shells(a2, 2)
    shells = {k: list(good.shell(k)) for k in range(3)}
    shells[1][0] = (7, 0)
    table = ShellTable(a2, 2, shells)
    with pytest.raises(ValueError, match="inconsistent"):
        table.pair_histogram(1, 1)


def test_moment_matrix(a2):
    table = enumerate_shells(a2, 1)
    mom = table.moment_matrix(1)
    expected = [[0, 0], [0, 0]]
    for v in table.shell(1):
        for i in range(2):
            for j in range(2):
                expected[i][j] += v[i] * v[j]
    assert mom == tuple(tuple(row) for row in expected)


# -- shell cache ---------------------------------------------------------------

def test_shell_cache_roundtrip(tmp_path, a2):
    cache = str(tmp_path)
    table = enumerate_shells(a2, 3, cache_dir=cache)
    files = list(tmp_path.glob("shells-*.json"))
    assert len(files) == 1
    again = enumerate_shells(a2, 3, cache_dir=cache)
    assert again.sizes() == table.sizes()
    for k in range(4):
        assert again.shell(k) == table.shell(k)


def test_shell_cache_miss_on_other_bound_or_lattice(tmp_path, a2):
    cache = str(tmp_path)
    enumerate_shells(a2, 3, cache_dir=cache)
    assert load_shell_table(a2, 2, cache) is None
    other = validate_lattice([[2, 0], [0, 2]])
    assert load_shell_table(other, 3, cache) is None


def test_shell_cache_rejects_corrupt_file(tmp_path, a2):
    cache = str(tmp_path)
    table = enumerate_shells(a2, 2, cache_dir=cache)
    path = save_shell_table(table, cache)
    with open(path, "w") as fh:
        fh.write("{not json")
    assert load_shell_table(a2, 2, cache) is None
    # a fresh call silently recomputes and rewrites
    again = enumerate_shells(a2, 2, cache_dir=cache)
    assert again.sizes() == table.sizes()


def test_no_cache_flag_respected(tmp_path, a2):
    cache = str(tmp_path)
    enumerate_shells(a2, 2, cache_dir=cache, use_cache=False)
    assert not list(tmp_path.glob("shells-*.json"))


def _edit_cached_doc(path, edit):
    with open(path) as fh:
        doc = json.load(fh)
    edit(doc)
    with open(path, "w") as fh:
        json.dump(doc, fh)


def _scale_first_root(doc):
    doc["shells"]["1"][0] = [7 * x for x in doc["shells"]["1"][0]]


def _repeat_row(doc):
    doc["shells"]["3"][1] = doc["shells"]["3"][0]


def _drop_negation(doc):
    del doc["shells"]["3"][0]


@pytest.mark.parametrize("edit", [
    lambda doc: doc.pop("shells"),
    lambda doc: doc["shells"].pop("2"),
    lambda doc: doc["shells"].__setitem__("1", [[1.5, 0]] * 6),
    lambda doc: doc["shells"].__setitem__("1", [[1, 0, 0]] * 6),
    _scale_first_root,
    _repeat_row,
    _drop_negation,
], ids=["no-shells", "missing-shell", "float", "wrong-rank", "scaled-vector",
        "repeated-row", "not-negation-closed"])
def test_shell_cache_rejects_untrustworthy_content(tmp_path, a2, edit):
    cache = str(tmp_path)
    table = enumerate_shells(a2, 3, cache_dir=cache)
    _edit_cached_doc(save_shell_table(table, cache), edit)
    assert load_shell_table(a2, 3, cache) is None
    again = enumerate_shells(a2, 3, cache_dir=cache)
    assert [again.shell(k) for k in range(4)] == [table.shell(k) for k in range(4)]
    assert load_shell_table(a2, 3, cache) is not None


def test_shell_cache_save_leaves_no_temp_files(tmp_path, a2, monkeypatch):
    cache = str(tmp_path)
    table = enumerate_shells(a2, 2, cache_dir=cache)
    save_shell_table(table, cache)
    assert [p.name for p in tmp_path.iterdir()] == [os.path.basename(
        save_shell_table(table, cache))]

    def broken_dump(*args, **kwargs):
        raise OSError("disk full")

    monkeypatch.setattr("thetainv.lattice.json.dump", broken_dump)
    with pytest.raises(OSError):
        save_shell_table(enumerate_shells(a2, 3), cache)
    assert len(list(tmp_path.iterdir())) == 1
