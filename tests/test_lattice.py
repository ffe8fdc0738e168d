import os
import pickle
import random
import tempfile
import threading
import tracemalloc
from fractions import Fraction
from functools import cache, reduce
from itertools import combinations, product
from math import factorial, isqrt, lcm
from operator import mul

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from thetainv.catalog import lattice_by_name
from thetainv.errors import (
    NotPositiveDefiniteError,
    NotSymmetricError,
    OddDiagonalError,
    RankMismatchError,
)
from thetainv.lattice import (
    Shell,
    ShellTable,
    _isqrt_int64,
    change_basis,
    enumerate_shells,
    load_shell_table,
    monomial_sums,
    random_unimodular,
    save_shell_table,
    validate_lattice,
)
from thetainv.qseries import sigma
from thetainv.theta import InvariantRequest, compute, theta_general
from thetainv.verify import e8_pair_form

import oracles
import thetainv.lattice as lattice_module


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
    inv = oracles.invert_rational(lat.gram2)

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


def _level_from_rational_inverse(gram2):
    inv = oracles.invert_rational(gram2)
    m = reduce(lcm, (x.denominator for row in inv for x in row), 1)
    return m if all((m * inv[i][i]).numerator % 2 == 0 for i in range(len(inv))) else 2 * m


@pytest.mark.parametrize("name", ["a2", "d4", "e8", "e8e8", "d16plus", "z1", "z3",
                                  "skew2", "skew3", "diag246"])
def test_integer_level_equals_rational_inverse(request, name):
    lat = (request.getfixturevalue(name) if name.startswith(("skew", "diag"))
           else lattice_by_name(name))
    rng = random.Random(f"level-{name}")
    lats = [lat] + [change_basis(lat, random_unimodular(lat.rank, rng)) for _ in range(5)]
    for moved in lats:
        assert moved.level() == _level_from_rational_inverse(moved.gram2)


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


def test_non_integer_entries_are_rejected(a2):
    # int(2.5) is 2, so truncation would return a2 for the first matrix and
    # leave a2 unchanged under the second
    with pytest.raises(ValueError, match=r"entry \(0,0\) = 2.5 is not an integer"):
        validate_lattice([[2.5, 1], [1, 2]])
    with pytest.raises(ValueError, match=r"entry \(0,1\) = 0.5 is not an integer"):
        change_basis(a2, [[1, 0.5], [0, 1]])
    with pytest.raises(ValueError, match=r"entry \(1,0\) = '1' is not an integer"):
        validate_lattice([[2, 1], ["1", 2]])
    assert validate_lattice([[2.0, 1], [1, 2]]).gram2 == a2.gram2


# -- the elimination, against sympy and the Fraction oracles ---------------------

@st.composite
def _symmetric_even(draw, dominant):
    """A symmetric integer matrix of rank 1-5 with even diagonal; with
    ``dominant`` each diagonal entry exceeds its row's off-diagonal sum,
    which makes the matrix positive definite."""
    n = draw(st.integers(1, 5))
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            a[i][j] = a[j][i] = draw(st.integers(-3, 3))
    for i in range(n):
        off = sum(abs(x) for j, x in enumerate(a[i]) if j != i)
        low = off // 2 + 1 if dominant else -1
        a[i][i] = 2 * draw(st.integers(low, low + 3))
    return a


@settings(max_examples=30, deadline=None)
@given(_symmetric_even(dominant=True))
def test_elimination_facts_against_sympy_and_oracles(gram2):
    lat = validate_lattice(gram2)
    n = lat.rank
    assert lat.discriminant() == int(sympy.Matrix(gram2).det())
    assert lat.level() == _level_from_rational_inverse(gram2)
    # A = U^T D U with d_k = D_{k+1} / D_k and u_kj = r_kj / D_{k+1}
    pivots, rows, _ = lat._elimination
    d = [Fraction(p, q) for p, q in zip(pivots, [1, *pivots])]
    u = [[Fraction(rows[i][j], pivots[i]) if j >= i else 0 for j in range(n)]
         for i in range(n)]
    assert all(u[i][i] == 1 for i in range(n))
    assert [[sum(u[k][i] * d[k] * u[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)] == gram2
    # the same as sum_k r_k^T r_k / (D_k D_{k+1}), the form the shell search reads
    assert [[sum(Fraction(rows[k][i] * rows[k][j], q * p)
                 for k, (q, p) in enumerate(zip([1, *pivots], pivots)))
             for j in range(n)] for i in range(n)] == gram2
    table = enumerate_shells(lat, 3)
    expected = oracles.enumerate_shells(gram2, 3)
    for k in range(4):
        assert table.shell(k).tolist() == [list(v) for v in expected[k]]


@settings(max_examples=30, deadline=None)
@given(_symmetric_even(dominant=False))
def test_first_non_positive_leading_minor_is_named(gram2):
    minors = [int(sympy.Matrix(gram2)[:k, :k].det()) for k in range(1, len(gram2) + 1)]
    bad = next((k for k, m in enumerate(minors, 1) if m <= 0), None)
    if bad is None:
        assert validate_lattice(gram2).discriminant() == minors[-1]
    else:
        with pytest.raises(NotPositiveDefiniteError) as info:
            validate_lattice(gram2)
        assert str(info.value) == (
            f"leading principal minor of order {bad} is {minors[bad - 1]}")


@st.composite
def _integer_matrix(draw, n):
    """L R with L unit lower triangular and R upper triangular, whose
    diagonal is +-1 but for one entry from 0, +-1, +-2: det is 0, +-1 or +-2."""
    det = draw(st.sampled_from((0, 1, -1, 2, -2)))
    at = draw(st.integers(0, n - 1))
    low = [[1 if i == j else draw(st.integers(-2, 2)) if j < i else 0
            for j in range(n)] for i in range(n)]
    up = [[(det if i == at else draw(st.sampled_from((1, -1)))) if j == i
           else draw(st.integers(-2, 2)) if j > i else 0
           for j in range(n)] for i in range(n)]
    return [[sum(low[i][k] * up[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)]


@settings(max_examples=30, deadline=None)
@given(_symmetric_even(dominant=True).flatmap(
    lambda g: st.tuples(st.just(g), _integer_matrix(len(g)))))
def test_change_basis_raises_exactly_off_unimodular(args):
    gram2, u = args
    lat = validate_lattice(gram2)
    if abs(int(sympy.Matrix(u).det())) != 1:
        with pytest.raises(ValueError, match="determinant"):
            change_basis(lat, u)
    else:
        moved = change_basis(lat, u)
        assert moved.discriminant() == lat.discriminant()
        assert moved.level() == lat.level()


def test_one_elimination_per_lattice(monkeypatch):
    calls = []
    eliminate = lattice_module._eliminate
    monkeypatch.setattr(lattice_module, "_eliminate",
                        lambda a: calls.append(a) or eliminate(a))
    lat = validate_lattice([[2, 1, 0], [1, 4, 1], [0, 1, 6]])
    assert (lat.discriminant(), lat.level()) == (40, 80)
    assert enumerate_shells(lat, 3).sizes() == {0: 1, 1: 2, 2: 4, 3: 2}
    assert len(calls) == 1


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
    hist = oracles.as_dict(e8_shells6.pair_histogram(1, 1))
    assert set(hist) <= {(-2,), (-1,), (0,), (1,), (2,)}
    squares = {}
    for (t,), c in hist.items():
        squares[t * t] = squares.get(t * t, 0) + c
    assert squares == {4: 480, 1: 26880, 0: 30240}
    assert sum(hist.values()) == 240 * 240


# -- enumeration ---------------------------------------------------------------

def test_enumerate_z1():
    table = enumerate_shells(validate_lattice([[2]]), 4)
    assert table.shell(0).tolist() == [[0]]
    assert table.shell(1).tolist() == [[-1], [1]]
    assert table.shell(2).tolist() == []
    assert table.shell(3).tolist() == []
    assert table.shell(4).tolist() == [[-2], [2]]
    assert table.shell(1) and not table.shell(2)


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
        assert set(map(tuple, table.shell(k).tolist())) == brute.get(k, set())


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
    assert table.shell(0).tolist() == [[0] * n]
    for k in range(bound + 1):
        sh = [tuple(v) for v in table.shell(k).tolist()]
        for v in sh:
            assert lat.norm(v) == k
        if k >= 1:
            assert len(sh) % 2 == 0
            assert set(sh) == {tuple(-x for x in v) for v in sh}
    # enumerating further extends without changing the lower shells
    bigger = enumerate_shells(lat, bound + 2)
    for k in range(bound + 1):
        assert bigger.shell(k).tolist() == table.shell(k).tolist()


def test_pair_histogram_total_and_symmetry(a2):
    # the format of every tuple histogram: int64 keys of shape (buckets, 1)
    # in increasing order and their counts, read-only because they are
    # cached, and returned as they are for two slots; a2 has no norm 2
    table = enumerate_shells(a2, 4)
    for k1, k2 in [(1, 1), (1, 3), (3, 4), (3, 1), (0, 3), (4, 0), (2, 2), (1, 2)]:
        keys, counts = hist = table.pair_histogram(k1, k2)
        assert keys.dtype == counts.dtype == np.int64
        assert keys.shape == (len(counts), 1) and (np.diff(keys[:, 0]) > 0).all()
        assert not keys.flags.writeable and not counts.flags.writeable
        assert table.tuple_histogram((k1, k2)) is hist
        assert counts.sum() == len(table.shell(k1)) * len(table.shell(k2))
        assert oracles.as_dict(hist) == oracles.as_dict(table.pair_histogram(k2, k1))


def test_pair_histogram_fast_path_equals_naive(e8_shells6, a2, d4, skew2, diag246):
    e8_cells = [(k1, k2) for k1 in range(5) for k2 in range(k1, 5 - k1)]
    small_cells = [(k1, k2) for k1 in range(5) for k2 in range(k1, 5)]
    cases = [(e8_shells6, e8_cells)]
    cases += [(enumerate_shells(lat, 4), small_cells) for lat in (a2, d4, skew2, diag246)]
    for table, cells in cases:
        for k1, k2 in cells:
            naive = oracles.tuple_histogram(table.lattice, [table.shell(k1).tolist(),
                                                            table.shell(k2).tolist()])
            assert oracles.as_dict(table.pair_histogram(k1, k2)) == naive


def _matmul(x, y):
    return [[sum(map(mul, row, col)) for col in zip(*y)] for row in x]


def _trace(*factors):
    prod_ = reduce(_matmul, factors)
    return sum(prod_[i][i] for i in range(len(prod_)))


def test_bilinear_sum_and_tuple_histogram_equal_oracles(skew3, diag246, a2):
    # the traces theta_triple contracts through: with P_k = A M_k,
    # tr(P_x P_y) is the sum of t^2 over shells x, y, and tr(P_a P_b P_c) is
    # the bilinear sum of t against A M_a A over shells b, c
    skewed = change_basis(a2, [[1, 2**62], [0, 1]])
    for lat in (skew3, diag246, skewed):
        table = enumerate_shells(lat, 4)
        a = lat.gram2
        p = {k: _matmul(a, table.moment_matrix(k)) for k in range(1, 5)}
        shell = {k: table.shell(k).tolist() for k in range(1, 5)}
        for x, y in [(1, 1), (1, 2), (2, 3), (3, 4)]:
            hist = oracles.tuple_histogram(lat, [shell[x], shell[y]])
            assert _trace(p[x], p[y]) == sum(c * t * t for (t,), c in hist.items())
        for ka, kb, kc in [(1, 1, 1), (1, 2, 3), (3, 1, 4), (3, 3, 2), (4, 4, 1)]:
            want = oracles.bilinear_sum(lat, _matmul(p[ka], a), shell[kb], shell[kc])
            assert _trace(p[ka], p[kb], p[kc]) == want
    for lat in (skew3, diag246):
        table = enumerate_shells(lat, 4)
        for comp in [(1, 2), (0, 1, 2), (1, 1, 2), (2, 2, 2), (1, 1, 1, 1), (0, 1, 1, 2)]:
            want = oracles.tuple_histogram(lat, [table.shell(c).tolist() for c in comp])
            assert oracles.as_dict(table.tuple_histogram(comp)) == want


def test_inconsistent_shells_raise_instead_of_miscounting(a2):
    # U_1 of a2 is (1, 0), (-1, 1), (0, 1)
    good = enumerate_shells(a2, 2)
    shells = {k: good._shells[k].tolist() for k in range(3)}
    shells[1][0] = (-1, 0)
    with pytest.raises(ValueError, match="positive last nonzero coordinate"):
        ShellTable(a2, 2, shells)
    # the last root scaled by 7: still sorted with positive last nonzero
    # coordinates, but of norm 49, which only the kernel's range check sees
    shells[1][0], shells[1][-1] = (1, 0), (0, 7)
    table = ShellTable(a2, 2, shells)
    with pytest.raises(ValueError, match="inconsistent"):
        table.pair_histogram(1, 1)
    with pytest.raises(ValueError, match="inconsistent"):
        table.tuple_histogram((1, 1, 1))
    # in the 2^62 basis the kernel runs on Python ints, and these scaled
    # roots pair beyond int64: the range check must catch that too
    skewed = change_basis(a2, [[1, 2**62], [0, 1]])
    good = enumerate_shells(skewed, 2)
    shells = {k: good._shells[k].tolist() for k in range(3)}
    shells[1][-1] = [x * 2**64 for x in shells[1][-1]]
    with pytest.raises(ValueError, match="inconsistent"):
        ShellTable(skewed, 2, shells).pair_histogram(1, 1)


@pytest.mark.parametrize("edit", [
    # a row whose last nonzero coordinate is negative, still sorted
    lambda shells: shells[1].__setitem__(0, (0, -1)),
    lambda shells: shells[1].reverse(),
    # sorted, but the zero row has no positive last nonzero coordinate
    lambda shells: shells[1].insert(0, (0, 0)),
    lambda shells: shells[0].extend([(0, 1)]),
    # a row twice: sorted but not strictly
    lambda shells: shells[1].insert(1, shells[1][1]),
    lambda shells: shells.pop(0),
], ids=["not-negation-closed", "unsorted", "zero-in-shell-1", "nonzero-in-shell-0",
        "repeated-pair", "missing-shell-0"])
def test_shell_table_requires_sorted_negation_closed_shells(a2, edit):
    # the table takes the upper half of each shell k >= 1: a shell closed
    # under negation is one of its rows and that row's negation
    good = enumerate_shells(a2, 2)
    shells = {k: good._shells[k].tolist() for k in range(3)}
    ShellTable(a2, 2, shells)
    edit(shells)
    with pytest.raises(ValueError, match="shell [01]"):
        ShellTable(a2, 2, shells)


def test_shell_table_rejects_a_closed_shell_unsorted_only_in_the_middle(a2):
    # the first two rows of U_1 are the first two from the middle of the
    # whole shell on; swapped, every row keeps its positive last nonzero
    # coordinate, so only the order check can see it
    shells = {k: enumerate_shells(a2, 2)._shells[k].tolist() for k in range(3)}
    shells[1][0], shells[1][1] = shells[1][1], shells[1][0]
    with pytest.raises(ValueError, match="not strictly increasing"):
        ShellTable(a2, 2, shells)


@pytest.mark.parametrize("edit", [
    lambda rows: rows.__setitem__(slice(0, 2), rows[1::-1]),
    lambda rows: rows.insert(0, rows[0]),
], ids=["middle-pair-swapped", "middle-pair-repeated"])
def test_object_dtype_shells_are_checked_for_order(a2, edit):
    # in the 2^62 basis shell 3 holds Python ints, and its rows compare as
    # lists; both edits, to the first rows of U_3, the middle of the whole
    # shell, keep every last nonzero coordinate positive
    skewed = change_basis(a2, [[1, 2**62], [0, 1]])
    shells = {k: enumerate_shells(skewed, 3)._shells[k].tolist() for k in range(4)}
    assert ShellTable(skewed, 3, shells).shell(3).dtype == object
    edit(shells[3])
    with pytest.raises(ValueError, match="shell 3 is not strictly increasing"):
        ShellTable(skewed, 3, shells)


def test_pair_histogram_with_shell_zero_runs_no_kernel(e8, monkeypatch):
    table = enumerate_shells(e8, 3)

    def refuse(*args, **kwargs):
        raise AssertionError("shell 0 went through the pairing kernel")

    monkeypatch.setattr(ShellTable, "pairings", refuse)
    for k in range(4):
        assert oracles.as_dict(table.pair_histogram(0, k)) == {(0,): len(table.shell(k))}
        assert oracles.as_dict(table.pair_histogram(k, 0)) == {(0,): len(table.shell(k))}
    with pytest.raises(AssertionError):
        table.pair_histogram(1, 1)


def _record_pairings(monkeypatch):
    """Patch the kernel to log each call as [k1, k2, rows, columns paired]."""
    calls = []
    pairings = ShellTable.pairings

    def recording(self, k1, k2, *args, **kwargs):
        call = [k1, k2, 0, 0]
        calls.append(call)
        for block in pairings(self, k1, k2, *args, **kwargs):
            call[2] = block.shape[0]
            call[3] += block.shape[1]
            yield block

    monkeypatch.setattr(ShellTable, "pairings", recording)
    return calls


def test_kernel_pairs_quarter_cells_and_half_of_slot_zero(e8_shells6, skew3, monkeypatch):
    # a fresh table, so that no histogram and no orbit data is cached
    e8 = ShellTable(e8_shells6.lattice, 3, {k: e8_shells6._shells[k] for k in range(4)})
    calls = _record_pairings(monkeypatch)
    # (1,1) pairs 120 x 120 < _BLOCK under H = {+-I}: it keeps its quarter
    # cell U_1 x U_1 and builds no orbit data
    e8.pair_histogram(1, 1)
    assert sum(rows * cols for _, _, rows, cols in calls) == 120 * 120
    assert not e8._orbits
    for a, b in [(1, 2), (2, 3)]:
        # shells 1 and 2 of e8 are one orbit each under the root reflections,
        # so their cells pair one representative against U_b
        e8.orbits(a)
        calls.clear()
        e8.pair_histogram(a, b)
        assert calls == [[a, b, 1, len(e8.shell(b)) // 2]]
    table = enumerate_shells(skew3, 2)
    h1, h2 = len(table.shell(1)) // 2, len(table.shell(2)) // 2
    calls.clear()
    table.tuple_histogram((1, 1, 2))
    # slot pairs (0, 1), (0, 2) and (1, 2), every slot on its upper half
    assert calls == [[1, 1, h1, h1], [1, 2, h1, h2], [1, 2, h1, h2]]


# -- orbits of slot 0 under the root reflections ------------------------------------

def _orbit_sizes(table, k):
    rows, weights = table.orbits(k)
    assert (np.diff(rows) > 0).all() and (weights > 0).all()
    assert weights.sum() == len(table.shell(k))
    return sorted(weights.tolist())


def test_orbits_of_e8_d4_and_e8e8(e8_shells6, d4):
    # E8: W(E8) = Aut(E8) is transitive on shells 1, 2, 3 and 5, and shell 4
    # holds the 240 doubled roots apart from the other 17280 vectors
    assert [_orbit_sizes(e8_shells6, k) for k in range(1, 6)] == [
        [240], [2160], [6720], [240, 17280], [30240]]
    d4_table = enumerate_shells(d4, 5)
    assert [len(_orbit_sizes(d4_table, k)) for k in range(1, 6)] == [1, 3, 1, 1, 3]
    # the swap of the two E8 factors is not a reflection
    e8e8 = enumerate_shells(lattice_by_name("e8e8"), 1)
    assert _orbit_sizes(e8e8, 1) == [240, 240]
    assert e8e8._roots.order == 696729600**2


def test_orbits_of_w_alone_where_minus_one_is_not_in_w(a2):
    # -I is not in W(A2) = S3: shell 3 (+-(1,1), +-(1,-2), +-(2,-1) in
    # root coordinates) is two W-orbits of 3, swapped by -I
    assert _orbit_sizes(enumerate_shells(a2, 3), 3) == [3, 3]
    # nor in W(E6): shell 4 is the 72 doubled roots and two orbits of 432
    assert _orbit_sizes(enumerate_shells(validate_lattice(_type_e(6)), 4), 4) == [
        72, 432, 432]


def test_object_dtype_tables_read_w_orbits(a2, e8):
    skewed = change_basis(a2, [[1, 2**62], [0, 1]])
    table = enumerate_shells(skewed, 3)
    assert table.shell(3).dtype == object
    assert [_orbit_sizes(table, k) for k in (1, 3)] == [[6], [3, 3]]
    u = [[int(i == j) for j in range(8)] for i in range(8)]
    u[0][7] = 2**70
    sheared = enumerate_shells(change_basis(e8, u), 3)
    assert sheared.shell(1).dtype == object
    assert [_orbit_sizes(sheared, k) for k in range(1, 4)] == [[240], [2160], [6720]]
    shell = {k: table.shell(k).tolist() for k in range(4)}
    with pytest.MonkeyPatch.context() as mp:
        # every cell reads the orbits
        mp.setattr(lattice_module, "_ORBIT_PAIRS", 1)
        for k1 in range(1, 4):
            for k2 in range(k1, 4 - k1):
                assert oracles.as_dict(table.pair_histogram(k1, k2)) == (
                    oracles.tuple_histogram(skewed, [shell[k1], shell[k2]]))
        assert oracles.as_dict(table.tuple_histogram((1, 1, 1))) == oracles.tuple_histogram(
            skewed, [shell[1]] * 3)


def test_rootless_forms_keep_the_upper_half():
    table = enumerate_shells(validate_lattice([[4, 1], [1, 4]]), 6)
    assert not len(table.shell(1))
    for k in range(1, 7):
        half = len(table.shell(k)) // 2
        # enough partners that a table with roots would read its W-orbits
        [(weight, rows)] = table.slot_zero(k, lattice_module._ORBIT_PAIRS)
        assert weight == 2 and rows.tolist() == list(range(half))
        # W is {I}, whose orbits are single vectors: each row stands for
        # itself and its negation
        assert _orbit_sizes(table, k) == [2] * half


def test_a_row_orthogonal_to_every_root_stands_for_both_of_its_signs(diag246):
    # U_2 of diag246 is e2 alone, orthogonal to its roots +-e1: e2 and -e2
    # are both dominant, two orbits of one vector, so the row weighs 2
    table = enumerate_shells(diag246, 4)
    assert table._shells[2].tolist() == [[0, 1, 0]]
    rows, weights = table.orbits(2)
    assert rows.tolist() == [0] and weights.tolist() == [2]
    shell = {k: table.shell(k).tolist() for k in range(5)}
    with pytest.MonkeyPatch.context() as mp:
        # every cell reads the orbits
        mp.setattr(lattice_module, "_ORBIT_PAIRS", 1)
        for k1 in range(1, 5):
            for k2 in range(k1, 5):
                assert oracles.as_dict(table.pair_histogram(k1, k2)) == (
                    oracles.tuple_histogram(diag246, [shell[k1], shell[k2]]))
        for comp in [(2, 1, 1), (2, 2, 1), (2, 1, 3)]:
            assert oracles.as_dict(table.tuple_histogram(comp)) == oracles.tuple_histogram(
                diag246, [shell[c] for c in comp])


def test_a_wrong_coxeter_order_fails_the_size_check(e8, monkeypatch):
    # |W(E8)|, the product over all 120 positive roots, doubled; the orders
    # of the parabolic subgroups, products over fewer roots, are kept
    order = lattice_module._reflection_order
    monkeypatch.setattr(lattice_module, "_reflection_order",
                        lambda heights: order(heights) * (2 if len(heights) == 120 else 1))
    table = enumerate_shells(e8, 2)
    with pytest.raises(ValueError, match="orbits of shell 1 hold 480 vectors, not 240"):
        table.orbits(1)
    with pytest.raises(ValueError, match="orbits of shell 1 hold 480 vectors"):
        table.pair_histogram(1, 2)


_ORBIT_BLOCKS = {"a2": [[2, 1], [1, 2]], "d4": lattice_by_name("d4").gram2,
                 "z1": [[2]], "rootless": [[4, 1], [1, 4]]}


def _block_sum(grams):
    n = sum(len(g) for g in grams)
    out = [[0] * n for _ in range(n)]
    at = 0
    for g in grams:
        for i, row in enumerate(g):
            out[at + i][at:at + len(g)] = row
        at += len(g)
    return out


def _cartan(rank, edges):
    """The Cartan matrix of a simply-laced Dynkin graph on nodes 0..rank-1."""
    out = [[2 * (i == j) for j in range(rank)] for i in range(rank)]
    for i, j in edges:
        out[i][j] = out[j][i] = -1
    return out


def _type_a(rank):
    return _cartan(rank, [(i, i + 1) for i in range(rank - 1)])


def _type_d(rank):
    # a path of rank - 1 nodes and one more node on its second-to-last
    return _cartan(rank, [(i, i + 1) for i in range(rank - 2)] + [(rank - 3, rank - 1)])


def _type_e(rank):
    # Bourbaki's numbering less one: the path 0, 2, 3, ..., rank - 1 and node 1 on node 3
    return _cartan(rank, [(0, 2), (1, 3)] + [(i, i + 1) for i in range(2, rank - 1)])


# |W| (Humphreys, Reflection Groups and Coxeter Groups, Sect. 2.11) for
# each type; the roots of d16plus are those of D16
_WEYL_GROUPS = {
    "A1": (_type_a(1), 2), "A2": (_type_a(2), 6), "A3": (_type_a(3), 24),
    "A4": (_type_a(4), 120), "A5": (_type_a(5), 720), "D4": (_type_d(4), 192),
    "D5": (_type_d(5), 1920), "D6": (_type_d(6), 23040), "E6": (_type_e(6), 51840),
    "E7": (_type_e(7), 2903040), "E8": (_type_e(8), 696729600),
    "A2+A1": (_block_sum([_type_a(2), _type_a(1)]), 12),
    "E8+E8": (_block_sum([_type_e(8), _type_e(8)]), 696729600**2),
    "D16": (lattice_by_name("d16plus").gram2, 2**15 * factorial(16)),
}


@pytest.mark.parametrize("name", sorted(_WEYL_GROUPS))
def test_weyl_group_orders_and_minus_one_from_root_heights(name):
    gram2, order = _WEYL_GROUPS[name]
    base = validate_lattice(gram2)
    rng = random.Random(len(gram2))
    for lat in (base, change_basis(base, random_unimodular(base.rank, rng))):
        table = enumerate_shells(lat, 1)
        roots = table._roots
        simple, coeffs = oracles.root_data(lat.gram2, table.shell(1).tolist())
        assert roots.simple.tolist() == simple
        assert roots.heights.tolist() == [sum(c) for c in coeffs]
        assert len(roots.simple) == base.rank
        assert roots.order == order


@pytest.mark.parametrize("gram2, shell1, match", [
    # a2 without +-(1,-1): (1,0) and (0,1) pair to 1, so each pairs to 3
    # with their sum, 2 rho, which is twice no height
    ([[2, 1], [1, 2]], [(1, 0), (0, 1)], "positive even numbers"),
    # z2 with +-(1,1), of norm 2, in shell 1: it pairs to 4 with itself,
    # outside the range +-2 that the kernel checks for shell 1
    ([[2, 0], [0, 2]], [(1, 0), (0, 1), (1, 1)], "exceeds"),
], ids=["a2-without-a-root", "z2-with-a-norm-2-vector"])
def test_inconsistent_root_systems_raise(gram2, shell1, match):
    lat = validate_lattice(gram2)
    table = ShellTable(lat, 1, {0: [(0, 0)], 1: shell1})
    with pytest.raises(ValueError, match=f"{match}.*inconsistent"):
        table.orbits(1)


@cache
def _root_table(name):
    return enumerate_shells(lattice_by_name(name), 1)


# pairs i of the upper half of shell 1, which a2, d4 and e8 hold 3, 12 and
# 120 of: each alone, and every two on d4
_ROOT_DROPS = ([(name, (i,)) for name, n in [("a2", 3), ("d4", 12), ("e8", 120)]
                for i in range(n)]
               + [("d4", pair) for pair in combinations(range(12), 2)])


@pytest.mark.parametrize("name, drops", _ROOT_DROPS,
                         ids=[f"{name}-{'-'.join(map(str, drops))}"
                              for name, drops in _ROOT_DROPS])
def test_shell_one_without_some_root_pairs_is_rejected(name, drops):
    # the pairings with 2 rho are then not all positive and even, or the
    # orbit sizes do not add up to the shell
    good = _root_table(name)
    upper = good._shells[1]
    keep = np.ones(len(upper), dtype=bool)
    keep[list(drops)] = False
    table = ShellTable(good.lattice, 1, {0: good.shell(0), 1: upper[keep]})
    with pytest.raises(ValueError, match="inconsistent"):
        table.orbits(1)


@settings(max_examples=25, deadline=None)
@given(names=st.lists(st.sampled_from(sorted(_ORBIT_BLOCKS)), min_size=1, max_size=3)
       .filter(lambda names: sum(len(_ORBIT_BLOCKS[x]) for x in names) <= 5),
       seed=st.integers(0, 2**32 - 1))
def test_orbit_histograms_on_block_sums_equal_the_oracles(names, seed):
    base = validate_lattice(_block_sum([_ORBIT_BLOCKS[x] for x in names]))
    lat = change_basis(base, random_unimodular(base.rank, random.Random(seed)))
    table = enumerate_shells(lat, 3)
    shell = {k: table.shell(k).tolist() for k in range(4)}
    for k in range(1, 4):
        _orbit_sizes(table, k)
    with pytest.MonkeyPatch.context() as mp:
        # every cell reads the orbits, and tuple keys merge over many chunks
        mp.setattr(lattice_module, "_ORBIT_PAIRS", 1)
        mp.setattr(lattice_module, "_TUPLE_KEYS", 64)
        for k1 in range(1, 4):
            for k2 in range(k1, 4):
                assert oracles.as_dict(table.pair_histogram(k1, k2)) == (
                    oracles.tuple_histogram(lat, [shell[k1], shell[k2]]))
        for comp in [(1, 1, 1), (2, 1, 1), (3, 1, 0)]:
            assert oracles.as_dict(table.tuple_histogram(comp)) == oracles.tuple_histogram(
                lat, [shell[c] for c in comp])


def _half_shell_orbits(table, k):
    """The orbits of H = {+-I}: every row of U_k with weight 2."""
    n = len(table._shells[k])
    return np.arange(n), np.full(n, 2)


@pytest.mark.parametrize("name, bound", [
    ("e8", 5), ("d4", 5), ("a2", 6), ("z2", 4), ("z3", 3), ("e8e8", 2), ("d16plus", 2),
    ("skew2", 5), ("skew3", 4), ("diag246", 4), ("rootless", 6), ("e6", 8)])
def test_orbit_histograms_equal_the_half_shell_kernel(request, name, bound):
    if name in ("skew2", "skew3", "diag246"):
        base = request.getfixturevalue(name)
    elif name in ("rootless", "e6"):
        base = validate_lattice(_type_e(6) if name == "e6" else _ORBIT_BLOCKS[name])
    else:
        base = lattice_by_name(name)
    rng = random.Random(bound * 97 + len(name))
    cells = [(k1, k2) for k1 in range(1, bound + 1) for k2 in range(k1, bound + 1 - k1)]
    # the half-shell tuple histograms of rank 8 and 16 take seconds
    comps = [(1, 1, 1), (1, 2, 1), (2, 1, 1)] if base.rank <= 4 else []
    for lat in (base, change_basis(base, random_unimodular(base.rank, rng))):
        shells = dict(enumerate_shells(lat, bound)._shells)
        with pytest.MonkeyPatch.context() as mp:
            # every cell reads the orbits
            mp.setattr(lattice_module, "_ORBIT_PAIRS", 1)
            table = ShellTable(lat, bound, shells)
            got = [oracles.as_dict(table.pair_histogram(*c)) for c in cells]
            got_tuples = [oracles.as_dict(table.tuple_histogram(c)) for c in comps]
        with pytest.MonkeyPatch.context() as mp:
            # H = {+-I} in every cell
            mp.setattr(ShellTable, "orbits", _half_shell_orbits)
            half = ShellTable(lat, bound, shells)
            assert got == [oracles.as_dict(half.pair_histogram(*c)) for c in cells]
            assert got_tuples == [oracles.as_dict(half.tuple_histogram(c)) for c in comps]


@pytest.mark.parametrize("name, bound", [
    ("z8", 4), ("e6", 4), ("a2+z1", 6), ("skew3", 6), ("d4", 5)])
def test_orbits_are_one_row_per_reflection_orbit_weighted_by_its_size(request, name, bound):
    # z8 has many dominant rows per shell with the same orthogonal simple
    # roots (78 rows in shell 4), skew3 has roots that do not span it
    if name == "skew3":
        base = request.getfixturevalue(name)
    elif name == "e6":
        base = validate_lattice(_type_e(6))
    elif name == "a2+z1":
        base = validate_lattice(_block_sum([_ORBIT_BLOCKS["a2"], _ORBIT_BLOCKS["z1"]]))
    else:
        base = lattice_by_name(name)
    # each orbit counts at the row of U_k that is its dominant vector or
    # that vector's negation
    rng = random.Random(bound * 31 + len(name))
    for lat in (base, change_basis(base, random_unimodular(base.rank, rng))):
        table = enumerate_shells(lat, bound)
        shells = oracles.enumerate_shells(lat.gram2, bound)
        shell1 = sorted(shells[1], key=oracles.colex)
        simple, _ = oracles.root_data(lat.gram2, shell1)
        simple = [shell1[len(shell1) // 2 + i] for i in simple]
        for k in range(1, bound + 1):
            want = {}
            for orbit in oracles.reflection_orbits(lat.gram2, shells[1], shells[k]):
                [d] = [v for v in orbit if all(lat.inner2(v, r) >= 0 for r in simple)]
                d = max(d, tuple(-x for x in d), key=oracles.colex)
                want[d] = want.get(d, 0) + len(orbit)
            rows, weights = table.orbits(k)
            assert (np.diff(rows) > 0).all()
            got = {tuple(table._shells[k][r].tolist()): w
                   for r, w in zip(rows, weights.tolist())}
            assert got == want


def test_monomial_sums_are_exact_in_every_tier():
    # monomial values up to 2^50 sum in float64, up to 2^61 in int64, and
    # beyond 2^62, or with weights past the float64 bound, in Python ints
    cases = [
        ([[2**25, -3], [-(2**25), 5], [7, 2**10]], [3, 1, 2]),
        ([[2**30, 1], [-(2**30) + 1, 2]], [2**3, 2**40]),
        ([[2**31, 3], [2**31 - 1, -3]], [1, -1]),
        ([[3, 2**40]], [2**30]),
    ]
    monomials = [(0, 0), (1, 0), (2, 0), (1, 1), (0, 2), (2, 2), (3, 1)]
    for rows, weights in cases:
        want = [sum(w * x**e0 * y**e1 for (x, y), w in zip(rows, weights))
                for e0, e1 in monomials]
        for dtype in (np.int64, object):
            got = monomial_sums(np.array(rows, dtype=dtype),
                                np.array(weights, dtype=np.int64), monomials)
            assert got == want
            assert all(type(g) is int for g in got)
    assert monomial_sums(np.zeros((0, 2), dtype=np.int64),
                         np.zeros(0, dtype=np.int64), monomials) == [0] * len(monomials)


@pytest.mark.parametrize("cells, name, bound", [
    ([(1, 2)], "e8e8", 2),
    ([(3, 3), (2, 4)], "e8", 6),
])
def test_half_shell_histograms_match_moment_traces(request, cells, name, bound):
    # cells too large for the pure-Python oracle: the histogram's zeroth,
    # first and second moments are |S_a||S_b|, 0 (both shells are closed
    # under negation) and tr(P_a P_b) with P_k = gram2 M_k, which the moment
    # matrices give without pairing two vectors
    if name == "e8":
        table = request.getfixturevalue("e8_shells6")
    else:
        table = enumerate_shells(lattice_by_name(name), bound)
    gram2 = table.lattice.gram2
    for a, b in cells:
        hist = oracles.as_dict(table.pair_histogram(a, b))
        assert sum(hist.values()) == len(table.shell(a)) * len(table.shell(b))
        assert sum(c * t for (t,), c in hist.items()) == 0
        want = _trace(_matmul(gram2, table.moment_matrix(a)),
                      _matmul(gram2, table.moment_matrix(b)))
        assert sum(c * t * t for (t,), c in hist.items()) == want


# -- the exact dtype tiers ---------------------------------------------------------

def test_exact_dtype_tiers():
    def tier(top, inner=1):
        # the bound of a (1, inner) @ (inner, 1) product is inner * top * 1
        return lattice_module._exact_dtype(np.full((1, inner), top, dtype=object),
                                           np.ones((inner, 1), dtype=np.int64))
    assert tier(2**53 - 1) is np.float64
    assert tier(2**53) is np.int64
    assert tier(2**52, inner=2) is np.int64
    assert tier(2**51 - 1, inner=4) is np.float64
    assert tier(2**62 - 1) is np.int64
    assert tier(2**62) is object
    assert tier(2**70) is object


_SKEWS = [2**12, 2**13, 2**25, 2**26, 2**27]


def _skewed(a2, s):
    return change_basis(a2, [[1, s], [0, 1]])


def _tiers(table, cells):
    """The dtypes the kernel picks for these pairing cells and for the
    moment matrices of shells 1..bound."""
    gram2 = np.array(table.lattice.gram2, dtype=object)
    shell = {k: np.asarray(table.shell(k)) for k in range(table.bound + 1)}
    pair = {lattice_module._exact_dtype(shell[a], gram2, shell[b].T) for a, b in cells}
    moment = {lattice_module._exact_dtype(shell[k].T, shell[k])
              for k in range(1, table.bound + 1) if len(shell[k])}
    return pair, moment


_SKEW_CELLS = [(1, 1), (1, 3), (3, 4), (4, 4)]


def test_skewed_a2_bases_cross_the_float64_bound(a2):
    # the pairing bound grows like 8 s^4 and crosses 2^53 near s = 2^12, the
    # moment bound like 6 s^2 and crosses it near s = 2^25: the bases of the
    # exactness test below lie on both sides of each
    pair, moment = set(), set()
    for s in _SKEWS:
        p, m = _tiers(enumerate_shells(_skewed(a2, s), 4), _SKEW_CELLS)
        pair |= p
        moment |= m
    assert pair == {np.float64, np.int64, object}
    assert moment == {np.float64, np.int64}


@pytest.mark.parametrize("s", _SKEWS)
def test_kernel_is_exact_on_both_sides_of_the_float64_bound(tmp_path, a2, s):
    lat = _skewed(a2, s)
    table = enumerate_shells(lat, 4, cache_dir=str(tmp_path))
    loaded = load_shell_table(lat, 4, str(tmp_path))
    assert loaded is not None
    for t in (table, loaded):
        shell = {k: t.shell(k).tolist() for k in range(5)}
        for k1, k2 in _SKEW_CELLS + [(0, 4)]:
            assert oracles.as_dict(t.pair_histogram(k1, k2)) == oracles.tuple_histogram(
                lat, [shell[k1], shell[k2]])
        for k in range(5):
            assert t.moment_matrix(k) == oracles.moment_matrix(shell[k], 2)
    assert ([loaded.shell(k).tolist() for k in range(5)]
            == [table.shell(k).tolist() for k in range(5)])


def test_moment_matrix_entries_are_python_ints(e8_shells6, a2):
    tables = [e8_shells6, enumerate_shells(_skewed(a2, 2**26), 4),
              enumerate_shells(_skewed(a2, 2**62), 4)]
    tiers = set()
    for table in tables:
        tiers |= _tiers(table, [])[1]
        for k in range(5):
            assert all(type(x) is int for row in table.moment_matrix(k) for x in row)
    assert tiers == {np.float64, np.int64, object}


@st.composite
def _small_form_and_shear(draw):
    """A diagonally dominant gram2 B of rank 2-3 with entries of at most 10,
    and a unit upper triangular U with entries below 2^29.  U^T B U keeps
    B's first diagonal entry and its Gram-Schmidt lengths, hence its small
    shells, while its other entries reach about 2^58 and the coordinates of
    its shells grow too."""
    n = draw(st.integers(2, 3))
    b = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            b[i][j] = b[j][i] = draw(st.integers(-2, 2))
    for i in range(n):
        off = sum(abs(x) for j, x in enumerate(b[i]) if j != i)
        b[i][i] = 2 * (off // 2 + 1 + draw(st.integers(0, 1)))
    u = [[1 if i == j else draw(st.integers(-2**28, 2**28)) if j > i else 0
          for j in range(n)] for i in range(n)]
    return b, u


def test_large_gram_entries_in_every_dtype_tier_equal_the_oracles():
    seen = set()
    cells = [(k1, k2) for k1 in range(4) for k2 in range(k1, 4)]

    # a2 in the bases e_1, e_2 + s e_1 for s = 2^13 and 2^28, whose cells
    # run in float64 and int64, and in int64 and object
    @settings(max_examples=30, deadline=None)
    @given(_small_form_and_shear(), st.integers(0, 2**32 - 1))
    @example(([[2, 1], [1, 2]], [[1, 2**13], [0, 1]]), 0)
    @example(([[2, 1], [1, 2]], [[1, 2**28], [0, 1]]), 0)
    def check(form_and_shear, seed):
        b, u = form_and_shear
        small = validate_lattice(b)
        # the seeded basis change mixes the small form before the shear, which
        # keeps the Gram-Schmidt lengths, and so the search, small
        mixed = change_basis(small, random_unimodular(small.rank, random.Random(seed)))
        for lat in (change_basis(small, u), change_basis(mixed, u)):
            table = enumerate_shells(lat, 3)
            want = oracles.enumerate_shells(lat.gram2, 3)
            shell = {k: table.shell(k).tolist() for k in range(4)}
            assert shell == {k: [list(v) for v in want[k]] for k in range(4)}
            seen.update(_tiers(table, cells)[0])

            def pair_hist(k1, k2):
                return oracles.tuple_histogram(lat, [shell[k1], shell[k2]])

            def tuple_hist(comp):
                return oracles.tuple_histogram(lat, [shell[c] for c in comp])

            for k1, k2 in cells:
                assert oracles.as_dict(table.pair_histogram(k1, k2)) == pair_hist(k1, k2)
            assert oracles.as_dict(table.tuple_histogram((1, 1, 1))) == tuple_hist((1, 1, 1))
            for m in (1, 2):
                got = compute(lat, InvariantRequest((m, m), 3, "pair"), shells=table)
                assert list(got.coeffs) == oracles.pair_coeffs(lat.rank, m, 3, pair_hist)
            got = theta_general(lat, InvariantRequest((1, 1, 1), 3), shells=table)
            assert list(got.coeffs) == oracles.general_coeffs(lat.rank, (1, 1, 1), 3,
                                                              tuple_hist)

    check()
    assert seen == {np.float64, np.int64, object}


def test_moment_matrix(a2):
    table = enumerate_shells(a2, 1)
    mom = table.moment_matrix(1)
    expected = [[0, 0], [0, 0]]
    for v in table.shell(1).tolist():
        for i in range(2):
            for j in range(2):
                expected[i][j] += v[i] * v[j]
    assert mom == tuple(tuple(row) for row in expected)


# -- enumeration against the depth-first oracle ------------------------------------

def _assert_equals_oracle(lat, bound):
    table = enumerate_shells(lat, bound)
    want = oracles.enumerate_shells(lat.gram2, bound)
    for k in range(bound + 1):
        assert table.shell(k).tolist() == [list(v) for v in want[k]]


@pytest.mark.parametrize("name,bound", [
    ("a2", 6), ("d4", 6), ("skew2", 6), ("skew3", 6), ("diag246", 6), ("e8", 4)])
def test_enumeration_equals_dfs_oracle(request, name, bound):
    lat = request.getfixturevalue(name)
    rng = random.Random(f"oracle-{name}")
    _assert_equals_oracle(lat, bound)
    for _ in range(3):
        _assert_equals_oracle(change_basis(lat, random_unimodular(lat.rank, rng)), bound)


@pytest.mark.parametrize("shift", [100000, 2**62])
def test_object_dtype_enumeration_equals_dfs_oracle(a2, shift):
    # shift 100000: coordinates up to 600006 (stored int32); shift 2^62: the
    # search itself runs on Python ints and shells 3 and 4 are stored as object
    skewed = change_basis(a2, [[1, shift], [0, 1]])
    _assert_equals_oracle(skewed, 6)
    dtypes = {enumerate_shells(skewed, 6).shell(k).dtype for k in range(7)}
    assert dtypes == ({np.dtype(np.int8), np.dtype(np.int32)} if shift == 100000
                      else {np.dtype(np.int8), np.dtype(np.int64), np.dtype(object)})


def test_enumeration_in_one_row_chunks_is_identical(monkeypatch, a2, d4, skew3):
    lats = [d4, skew3, change_basis(a2, [[1, 2**62], [0, 1]])]
    want = [enumerate_shells(lat, 4) for lat in lats]
    monkeypatch.setattr(lattice_module, "_CHUNK", 1)
    for lat, table in zip(lats, want):
        got = enumerate_shells(lat, 4)
        for k in range(5):
            assert got.shell(k).dtype == table.shell(k).dtype
            assert got.shell(k).tolist() == table.shell(k).tolist()


@pytest.mark.parametrize("name", ["a2", "z3", "d4"])
def test_enumeration_with_a_skewed_outermost_coordinate_equals_dfs_oracle(name):
    # [[1, 0], [1000, 1]] on the last two coordinates: basis vector n-2
    # becomes e_{n-2} + 1000 e_{n-1}, so the last coordinate, the outermost
    # level of the search, reaches 1000 in absolute value on shell 1
    lat = lattice_by_name(name)
    n = lat.rank
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    u[n - 1][n - 2] = 1000
    skewed = change_basis(lat, u)
    _assert_equals_oracle(skewed, 4)
    assert max(abs(v[-1]) for v in enumerate_shells(skewed, 4).shell(1).tolist()) >= 1000


@pytest.mark.parametrize("name", ["z3", "diag246"])
def test_enumeration_with_zero_trailing_coordinates_equals_dfs_oracle(request, name):
    lat = lattice_by_name(name) if name == "z3" else request.getfixturevalue(name)
    _assert_equals_oracle(lat, 8)
    shell = enumerate_shells(lat, 8).shell(4).tolist()
    assert any(v[-1] == 0 and any(v) for v in shell)
    assert any(v[-2:] == [0, 0] and any(v) for v in shell)


def _sheared(lat, s):
    """lat on the basis whose last vector gains s times the first."""
    n = lat.rank
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    u[0][n - 1] = s
    return change_basis(lat, u)


@pytest.mark.parametrize("name, shear, bound", [
    ("e8", 0, 3), ("d4", 0, 5), ("skew3", 0, 6), ("a2", 2**62, 6), ("e8", 2**70, 2)])
def test_the_search_sorts_nothing_and_finds_each_half_in_colex_order(
        request, monkeypatch, name, shear, bound):
    # each lattice on its own basis and moved by a seeded unimodular matrix;
    # the shear comes last, because e8 sheared by 2^70 and then moved needs
    # a search count past int64 (it exits 3); the 2^70 shear runs the search
    # in Python ints (object dtype)
    base = request.getfixturevalue(name)
    moved = change_basis(base, random_unimodular(base.rank, random.Random(5)))
    lats = [_sheared(lat, shear) for lat in (base, moved)]
    wants = [oracles.enumerate_shells(lat.gram2, bound) for lat in lats]

    def refuse(*args, **kwargs):
        raise AssertionError("the shell search sorted")

    for sort in ("lexsort", "argsort", "sort"):
        monkeypatch.setattr(np, sort, refuse)
    # frontiers of many chunks, so that the order they are popped in shows
    monkeypatch.setattr(lattice_module, "_CHUNK", 16)
    found = [lattice_module._enumerate(lat, bound) for lat in lats]
    monkeypatch.undo()
    n = base.rank
    for got, want in zip(found, wants):
        assert got[0].tolist() == [[0] * n]
        for k in range(1, bound + 1):
            rows = [tuple(v) for v in got[k].tolist()]
            keys = [oracles.colex(v) for v in rows]
            # strictly increasing in colex order, each row above zero there:
            # its last nonzero coordinate is positive
            assert all(a < b for a, b in zip([(0,) * n] + keys, keys))
            assert [tuple(-x for x in v) for v in reversed(rows)] + rows == want[k]


def _stored_dtype(rows) -> np.dtype:
    """The narrowest of int8..int64 whose symmetric range holds every entry."""
    top = max((abs(x) for v in rows for x in v), default=0)
    return np.dtype(next(t for t in (np.int8, np.int16, np.int32, np.int64)
                         if top <= np.iinfo(t).max))


def _spied(monkeypatch, name):
    """Record every argument of lattice_module.<name> while calling it."""
    seen, real = [], getattr(lattice_module, name)

    def spy(x):
        seen.append(x)
        return real(x)
    monkeypatch.setattr(lattice_module, name, spy)
    return seen


@pytest.mark.parametrize("shear, limit, tier", [
    (2**50 - 2, 2**53 - 1, np.float64), (2**50 - 1, 2**53 + 7, np.int64),
    (2**52 + 1, 2**55 + 23, np.int64)])
def test_the_centre_term_is_exact_on_both_sides_of_the_float64_bound(
        monkeypatch, skew3, shear, limit, tier):
    # the search bound of skew3 sheared by 2^50 - 2 is just below 2^53, so
    # the centre term is a float64 product; one more and it is just above,
    # so it is int64; shells 3 and 4 hold coordinates near the shear.  At the
    # shear 2^52 + 1 a float64 centre term would be inexact (the leaf check
    # on the norms fails then)
    lat = _sheared(skew3, shear)
    limits = _spied(monkeypatch, "_bound_dtype")
    found = lattice_module._enumerate(lat, 4)
    monkeypatch.undo()
    assert set(limits) == {limit} and lattice_module._bound_dtype(limit) is tier
    want = oracles.enumerate_shells(lat.gram2, 4)
    table = enumerate_shells(lat, 4)
    assert found[0].tolist() == [[0, 0, 0]]
    for k in range(1, 5):
        rows = [tuple(v) for v in found[k].tolist()]
        assert [tuple(-x for x in v) for v in reversed(rows)] + rows == want[k]
        assert table.shell(k).tolist() == [list(v) for v in want[k]]
        assert table.shell(k).dtype == _stored_dtype(want[k])
    assert table.shell(4).dtype == np.int64


def test_random_bases_of_e8_search_in_float64(monkeypatch, e8):
    # the basis of e8 from random_unimodular(8, random.Random(81)): its
    # leading minors 10, 31, 58, 77, 52, 251, 10, 1 share few factors, so
    # clearing each row of U^T D U of denominators on its own took the
    # search bound at q^5 to 68 bits, a search in Python ints; the pivot
    # rows keep it below 2^53
    gram2 = [[10, -3, 1, 1, -2, -4, -4, 2], [-3, 4, 0, 1, 2, -1, 1, 0],
             [1, 0, 2, 0, 0, 0, 0, 0], [1, 1, 0, 2, 1, 0, 0, 0],
             [-2, 2, 0, 1, 2, 0, 1, 0], [-4, -1, 0, 0, 0, 10, 2, -4],
             [-4, 1, 0, 0, 1, 2, 2, -1], [2, 0, 0, 0, 0, -4, -1, 2]]
    lat = validate_lattice(gram2)
    assert lat.gram2 == change_basis(e8, random_unimodular(8, random.Random(81))).gram2
    moved = [change_basis(e8, random_unimodular(8, random.Random(s))) for s in range(100)]
    limits = _spied(monkeypatch, "_bound_dtype")
    found = lattice_module._enumerate(lat, 5)
    for other in moved:
        lattice_module._enumerate(other, 2)
    monkeypatch.undo()
    assert max(limits) < 2**53
    want = oracles.enumerate_shells(gram2, 5)
    for k in range(1, 6):
        rows = [tuple(v) for v in found[k].tolist()]
        assert [tuple(-x for x in v) for v in reversed(rows)] + rows == want[k]
    assert compute(lat, InvariantRequest((4, 4), 5, "auto")) == e8_pair_form(4, 5)


def test_shells_are_stored_in_the_dtype_of_their_entries_not_of_the_search_bound(monkeypatch):
    # a basis of D4 on which the search bounds |v_i| by up to 194, past int8,
    # while every vector of norm <= 2 has coordinates of at most 41
    lat = validate_lattice([[22, 48, -38, 35], [48, 116, -102, 86],
                            [-38, -102, 98, -77], [35, 86, -77, 66]])
    narrowed = _spied(monkeypatch, "_narrow")
    lattice_module._enumerate(lat, 2)
    monkeypatch.undo()
    # the first call narrows the bounds vmax, the others the leaf frontiers
    assert narrowed[0].max() > 127
    assert {v.dtype for v in narrowed[1:]} == {np.dtype(np.int16)}
    want = oracles.enumerate_shells(lat.gram2, 2)
    table = enumerate_shells(lat, 2)
    assert table.sizes() == {0: 1, 1: 24, 2: 24}
    for k in range(3):
        assert table.shell(k).tolist() == [list(v) for v in want[k]]
        assert table.shell(k).dtype == np.int8


def test_the_rank16_search_stays_under_30_mb():
    # int8 frontier rows hold the e8e8 search to about 22 MB of Python-
    # tracked memory (numpy reports its buffers); int64 rows took 45 MB
    tracemalloc.start()
    try:
        lattice_module._enumerate(lattice_by_name("e8e8"), 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 30e6, peak


@pytest.mark.parametrize("name", ["e8e8", "d16plus"])
def test_rank16_shells_and_pair_two_two_series(name):
    lat = lattice_by_name(name)
    table = enumerate_shells(lat, 3)
    assert table.sizes() == {0: 1, 1: 480, 2: 61920, 3: 1050240}
    v = table.shell(3).astype(np.int64)
    gram2 = np.array(lat.gram2, dtype=np.int64)
    assert (((v @ gram2) * v).sum(axis=1) == 6).all()
    # Theta_{2,2} of an even unimodular rank-16 lattice is 80 Delta^2
    series = compute(lat, InvariantRequest((2, 2), 3, "auto"), shells=table)
    assert list(series.coeffs) == [0, 0, 80, -3840]


def test_int64_isqrt_is_exact_near_squares():
    # every r below 2^62 next to a square s^2, up to 2^62 - 1 = (2^31 - 1)^2 + 2 (2^31 - 1)
    r = sorted({max(s * s + e, 0) for s in (0, 1, 2, 3, 1000, 2**26 + 1, 2**30 - 1, 2**31 - 1)
                for e in (-1, 0, 1, 2 * s)})
    assert _isqrt_int64(np.array(r, dtype=np.int64)).tolist() == [isqrt(x) for x in r]


def test_shells_are_stored_narrow_sorted_and_read_only(e8_shells6):
    for k in range(7):
        v = e8_shells6.shell(k)
        assert v.dtype == np.int8
        assert v.tolist() == sorted(v.tolist(), key=oracles.colex)
        with pytest.raises(ValueError):
            v[0, 0] = 0


def test_tables_built_from_shell_views_store_plain_arrays(a2):
    table = enumerate_shells(a2, 3)
    copy = ShellTable(a2, 3, {k: table._shells[k].view(Shell) for k in range(4)})
    assert {type(v) for v in copy._shells.values()} == {np.ndarray}
    assert type(copy.shell(1)) is Shell


def test_shell_iterates_as_python_int_tuples(e8_shells6, monkeypatch):
    monkeypatch.setattr(lattice_module, "_CHUNK", 7)
    shell = e8_shells6.shell(2)
    vectors = list(shell)
    assert vectors == [tuple(v) for v in shell.tolist()]
    assert {type(x) for v in vectors for x in v} == {int}
    assert list(shell[5]) == shell.tolist()[5]
    assert {type(x) for x in shell[5]} == {int}


# -- shell cache ---------------------------------------------------------------

def test_shell_cache_roundtrip(tmp_path, a2):
    cache = str(tmp_path)
    table = enumerate_shells(a2, 3, cache_dir=cache)
    files = list(tmp_path.glob("shells-*.npz"))
    assert len(files) == 1
    again = enumerate_shells(a2, 3, cache_dir=cache)
    assert again.sizes() == table.sizes()
    for k in range(4):
        assert again.shell(k).dtype == table.shell(k).dtype
        assert again.shell(k).tolist() == table.shell(k).tolist()


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
    with open(path, "rb") as fh:
        blob = fh.read()
    with open(path, "wb") as fh:
        fh.write(blob[:len(blob) // 2])
    assert load_shell_table(a2, 2, cache) is None
    # a fresh call silently recomputes and rewrites
    again = enumerate_shells(a2, 2, cache_dir=cache)
    assert again.sizes() == table.sizes()
    assert load_shell_table(a2, 2, cache) is not None


def test_concurrently_written_cache_is_trusted_only_when_whole(tmp_path, e8):
    # two writers rename their files over one path while a reader loads it:
    # every load is a miss or the enumerated table, and no temporary file
    # is left behind
    cache = str(tmp_path)
    table = enumerate_shells(e8, 3)
    written = threading.Event()
    errors = []

    def write():
        try:
            for _ in range(20):
                save_shell_table(table, cache)
                written.set()
        except BaseException as exc:
            errors.append(exc)
            written.set()

    writers = [threading.Thread(target=write) for _ in range(2)]
    for writer in writers:
        writer.start()
    written.wait(timeout=60)
    loads = [load_shell_table(e8, 3, cache) for _ in range(50)]
    for writer in writers:
        writer.join()
    assert not errors
    assert any(got is not None for got in loads)
    for got in loads:
        assert got is None or all(np.array_equal(got.shell(k), table.shell(k))
                                  for k in range(4))
    assert len(list(tmp_path.glob("shells-*.npz"))) == 1
    assert not list(tmp_path.glob("*.tmp"))


def test_no_cache_flag_respected(tmp_path, a2):
    cache = str(tmp_path)
    enumerate_shells(a2, 2, cache_dir=cache, use_cache=False)
    assert not list(tmp_path.iterdir())


def _edit_cached_doc(path, table, edit):
    # the file's meta and its rows split into shell_<k> by the table's stored
    # sizes; after the edit, the shell_<k> left are written back as rows,
    # concatenated in the order the doc holds them, and no rows member when
    # none is left
    with np.load(path) as npz:
        doc = {"meta": npz["meta"]}
        ends = np.cumsum([len(v) for v in table._shells.values()])[:-1]
        doc.update((f"shell_{k}", v) for k, v in enumerate(np.split(npz["rows"], ends)))
    edit(doc)
    shells = [doc.pop(name) for name in list(doc) if name.startswith("shell_")]
    if shells:
        doc["rows"] = np.concatenate(shells)
    np.savez(path, **doc)


def _scale_first_root(doc):
    # (1, 0), the first row of U_1 of a2, so that the shell stays sorted
    # with positive last nonzero coordinates and only its norms are wrong
    doc["shell_1"] = doc["shell_1"].astype(np.int64)
    doc["shell_1"][0] *= 7


def _repeat_row(doc):
    doc["shell_3"][1] = doc["shell_3"][0]


def _drop_negation(doc):
    # the first row of U_3 negated: sorted, but its last nonzero coordinate
    # is negative, so the shell rebuilt from it would not be closed under
    # negation
    doc["shell_3"][0] *= -1


def _scale_rows(name, rows):
    def edit(doc):
        v = doc[name].astype(np.int64)
        v[rows(len(v))] *= 7
        doc[name] = v
    return edit


def _extra_column(doc):
    for name in [name for name in doc if name.startswith("shell_")]:
        doc[name] = np.pad(doc[name], ((0, 0), (0, 1)))


def _shell_3_first(doc):
    # U_3 stored where U_1 was and U_1 where U_3 was: each shell sorted
    # with positive last nonzero coordinates, but the norms decrease
    doc["shell_1"], doc["shell_3"] = doc["shell_3"], doc["shell_1"]


def _u3_row_among_roots(doc):
    # the first row (-2, 1) of U_3 stored after the first row (1, 0) of U_1:
    # the norms decrease, and numpy's binary search of them splits the rows
    # into (1, 0), (-2, 1), (-1, 1), (0, 1) and (1, 1), (-1, 2), each sorted
    # with positive last coordinates, so only the norm order rejects the file
    u1, u3 = doc["shell_1"], doc["shell_3"]
    doc["shell_1"] = np.concatenate([u1[:1], u3[:1], u1[1:]])
    doc["shell_3"] = u3[1:]


def _append_norm_4(doc):
    # (0, 2), of norm 4 = bound + 1, after the last row (-1, 2) of U_3: still
    # strictly increasing in colex order with a positive last coordinate
    doc["shell_4"] = np.array([[0, 2]], dtype=np.int8)


def _edit_meta(i, value):
    def edit(doc):
        doc["meta"][i] = value
    return edit


def _middle_pair(n):
    # the first stored row, which the whole shell holds in its middle pair,
    # -U_k[0] then U_k[0]: a norm check that began on row 1 would miss it on
    # shell 1, which stays sorted
    return [0]


def _last_row(n):
    # the last stored row (a2 has no vector of norm 2): still sorted
    return [n - 1]


@pytest.mark.parametrize("edit", [
    lambda doc: [doc.pop(f"shell_{k}") for k in range(4)],
    lambda doc: doc.pop("meta"),
    lambda doc: doc.__setitem__("shell_1", np.array([[1.5, 0]] * 6)),
    _extra_column,
    _scale_first_root,
    _repeat_row,
    _drop_negation,
    _scale_rows("shell_1", _middle_pair),
    _scale_rows("shell_3", _middle_pair),
    _scale_rows("shell_3", _last_row),
    lambda doc: doc.__setitem__("shell_0", doc["shell_0"][:0]),
    _shell_3_first,
    _u3_row_among_roots,
    _append_norm_4,
    _edit_meta(0, 4),
    _edit_meta(1, 4),
    _edit_meta(3, -1),
    lambda doc: doc.__setitem__("bound", np.int64(3)),
], ids=["no-shells", "missing-shell", "float", "wrong-rank", "scaled-vector",
        "repeated-row", "not-negation-closed", "scaled-middle-pair-1",
        "scaled-middle-pair-3", "scaled-upper-row-only", "empty-shell-0",
        "norms-decrease", "norms-decrease-in-sorted-slices", "norm-above-bound",
        "wrong-format", "wrong-bound", "wrong-gram2", "extra-member"])
def test_shell_cache_rejects_untrustworthy_content(tmp_path, a2, edit):
    # "no-shells" leaves no rows member and "missing-shell" no meta member
    cache = str(tmp_path)
    table = enumerate_shells(a2, 3, cache_dir=cache)
    _edit_cached_doc(save_shell_table(table, cache), table, edit)
    assert load_shell_table(a2, 3, cache) is None
    again = enumerate_shells(a2, 3, cache_dir=cache)
    assert ([again.shell(k).tolist() for k in range(4)]
            == [table.shell(k).tolist() for k in range(4)])
    assert load_shell_table(a2, 3, cache) is not None


def test_cache_load_checks_the_norms_of_the_upper_halves_only(tmp_path, e8, monkeypatch):
    cache = str(tmp_path)
    save_shell_table(enumerate_shells(e8, 3), cache)
    exact, seen = lattice_module._exact_dtype, []

    def record(*factors):
        seen.append(factors[0].shape)
        return exact(*factors)

    # the norm pass takes the exact dtype of v^T gram2 v once, for all rows:
    # 1 + 120 + 1080 + 3360, the zero row and U_1, U_2, U_3
    monkeypatch.setattr(lattice_module, "_exact_dtype", record)
    assert load_shell_table(e8, 3, cache) is not None
    assert seen == [(4561, 8)]


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 3).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(
        st.integers(-2, 2), min_size=n * n, max_size=n * n))),
       st.integers(0, 2**32 - 1), st.data())
def test_shell_cache_round_trip_and_scaled_pairs_on_random_lattices(args, seed, data):
    n, entries = args
    base = validate_lattice(_gram_from_seed(entries, n))
    lat = change_basis(base, random_unimodular(n, random.Random(seed)))
    # the shell of the longest basis vector is the last, so one shell above 0
    # is nonempty
    bound = max(base.norm(row) for row in np.eye(n, dtype=int).tolist())
    table = enumerate_shells(lat, bound)
    with tempfile.TemporaryDirectory() as cache:
        path = save_shell_table(table, cache)
        again = load_shell_table(lat, bound, cache)
        assert again is not None
        for k in range(bound + 1):
            assert again.shell(k).dtype == table.shell(k).dtype
            assert again.shell(k).tolist() == table.shell(k).tolist()
        k = data.draw(st.sampled_from([k for k in range(1, bound + 1) if table.sizes()[k]]))
        i = data.draw(st.integers(0, table.sizes()[k] // 2 - 1))
        _edit_cached_doc(path, table, _scale_rows(f"shell_{k}", lambda _: [i]))
        assert load_shell_table(lat, bound, cache) is None


def test_cached_shell_at_its_dtype_minimum_is_untrusted(tmp_path):
    # -(-128) wraps to -128 in int8, so a row -128 has the right norm for
    # the upper half of the norm-16384 shell of Z (gram2 [[2]]); it is
    # stored widened, where its last nonzero coordinate is seen to be
    # negative
    check = lattice_module._check_shell
    stored = lattice_module._as_shell(np.array([[-128]], dtype=np.int8), 1)
    assert stored.dtype == np.int16
    with pytest.raises(ValueError, match="positive last nonzero coordinate"):
        check(16384, stored)
    upper = lattice_module._as_shell(np.array([[128]], dtype=np.int16), 1)
    check(16384, upper)
    # the same through the cache: the rows 0..128 of Z load, and the rows
    # 0..127, -128 in int8 pass the norm pass but not the constructor
    z, cache = validate_lattice([[2]]), str(tmp_path)
    table = enumerate_shells(z, 16384)
    path = save_shell_table(table, cache)
    with np.load(path) as doc:
        meta, rows = doc["meta"], doc["rows"]
    assert rows.dtype == np.int16 and rows.ravel().tolist() == list(range(129))
    assert load_shell_table(z, 16384, cache).shell(16384).tolist() == [[-128], [128]]
    wrapped = np.array([*range(128), -128], dtype=np.int8).reshape(-1, 1)
    np.savez(path, meta=meta, rows=wrapped)
    assert load_shell_table(z, 16384, cache) is None


def test_cached_pair_that_wraps_at_the_dtype_minimum_is_untrusted(tmp_path):
    # Z^2 on the basis b1 = e1, b2 = 128 e1 + e2, where e2 = b2 - 128 b1.  In
    # int8 -(-128, 1) wraps to (-128, -1).  A file of U_1 = (1, 0), (-128, 1)
    # in int8 is read widened, so the whole shell is negated without a wrap;
    # one that also holds the wrapped negation (-128, -1), of norm 65537,
    # is untrusted
    lat = change_basis(validate_lattice([[2, 0], [0, 2]]), [[1, 128], [0, 1]])
    cache = str(tmp_path)
    table = enumerate_shells(lat, 1)
    assert table.shell(1).tolist() == [[128, -1], [-1, 0], [1, 0], [-128, 1]]
    path = save_shell_table(table, cache)
    for rows, trusted in [([[1, 0], [-128, 1]], True),
                          ([[-128, -1], [1, 0], [-128, 1]], False)]:
        _edit_cached_doc(path, table, lambda doc: doc.__setitem__(
            "shell_1", np.array(rows, dtype=np.int8)))
        got = load_shell_table(lat, 1, cache)
        assert (got is not None) == trusted
        if trusted:
            assert got.shell(1).tolist() == table.shell(1).tolist()


def test_cached_shell_beyond_int64_after_narrowing_is_recomputed(tmp_path, a2):
    # (-2^63, 1) fits the int64 file but not the symmetric int64 range, and
    # its norm lies beyond int64: the norm pass runs in numpy object dtype
    # and rejects it, with no OverflowError from a cast
    cache = str(tmp_path)
    table = enumerate_shells(a2, 1)
    upper = np.array([[1, 0], [-2**63, 1]], dtype=np.int64)
    path = save_shell_table(table, cache)
    _edit_cached_doc(path, table, lambda doc: doc.__setitem__("shell_1", upper))
    with np.load(path) as doc:
        assert doc["rows"].tolist() == [[0, 0], [1, 0], [-2**63, 1]]
    assert load_shell_table(a2, 1, cache) is None
    assert enumerate_shells(a2, 1, cache_dir=cache).shell(1).tolist() == (
        table.shell(1).tolist())


_UNPICKLED = []


def _record_unpickling():
    _UNPICKLED.append(True)


class _UnpickleAlarm:
    """Unpickling an instance calls _record_unpickling."""

    def __reduce__(self):
        return (_record_unpickling, ())


def test_shell_cache_never_unpickles(tmp_path, a2):
    cache = str(tmp_path)
    table = enumerate_shells(a2, 3)
    path = save_shell_table(table, cache)
    alarm = np.empty((6, 2), dtype=object)
    alarm[:] = _UnpickleAlarm()
    pickle.loads(pickle.dumps(alarm))  # the alarm works
    assert _UNPICKLED
    _UNPICKLED.clear()
    # the rows member is then an object array of ints and alarms, pickled
    _edit_cached_doc(path, table, lambda doc: doc.__setitem__("shell_1", alarm))
    with np.load(path) as doc:
        assert doc.files == ["meta", "rows"]
    assert load_shell_table(a2, 3, cache) is None
    assert enumerate_shells(a2, 3, cache_dir=cache).sizes()[1] == 6
    assert _UNPICKLED == []


def test_shell_cache_ignores_format_one_json(tmp_path, a2):
    # a format-1 file of the same lattice, with a wrong vector, never is read
    cache = str(tmp_path)
    legacy = tmp_path / "shells-0123456789abcdef0123.json"
    legacy.write_text('{"format_version": 1, "bound": 2, "gram2": [[2, 1], [1, 2]], '
                      '"shells": {"0": [[0, 0]], "1": [[7, 0]], "2": []}}')
    assert load_shell_table(a2, 2, cache) is None
    table = enumerate_shells(a2, 2, cache_dir=cache)
    assert table.sizes() == {0: 1, 1: 6, 2: 0}
    assert len(list(tmp_path.glob("shells-*.npz"))) == 1
    assert load_shell_table(a2, 2, cache) is not None


def test_shell_cache_never_trusts_the_format_three_layout(tmp_path, a2):
    # the halves of cache format 3, lexicographically sorted with a positive
    # first nonzero coordinate, in a format-5 file at the path that format 5
    # reads: their norms are right, but they are not U_k.  A format-4 file,
    # one member per shell, holding the right U_k at that path is not read
    # either
    cache = str(tmp_path)
    table = enumerate_shells(a2, 3)
    path = save_shell_table(table, cache)
    stored = np.concatenate(list(table._shells.values())).tolist()

    def lex_halves(doc):
        assert doc["meta"][0] == 5
        for k in range(1, 4):
            rows = [v for v in sorted(table.shell(k).tolist()) if v > [0, 0]]
            doc[f"shell_{k}"] = np.array(rows, dtype=np.int8).reshape(-1, 2)

    def format_four(path):
        np.savez(path, format_version=np.int64(4), bound=np.int64(3),
                 gram2=np.array(a2.gram2, dtype=np.int64),
                 **{f"shell_{k}": v for k, v in table._shells.items()})

    for edit in (lambda path: _edit_cached_doc(path, table, lex_halves), format_four):
        edit(path)
        assert load_shell_table(a2, 3, cache) is None
        again = enumerate_shells(a2, 3, cache_dir=cache)
        assert [again.shell(k).tolist() for k in range(4)] == [
            table.shell(k).tolist() for k in range(4)]
        with np.load(path) as doc:
            assert doc.files == ["meta", "rows"] and doc["rows"].tolist() == stored
        assert load_shell_table(a2, 3, cache) is not None


def test_object_dtype_table_is_computed_but_not_cached(tmp_path, a2):
    cache = str(tmp_path)
    skewed = change_basis(a2, [[1, 2**62], [0, 1]])
    table = enumerate_shells(skewed, 4, cache_dir=cache)
    assert table.shell(3).dtype == object
    assert not list(tmp_path.iterdir())
    assert save_shell_table(table, cache) is None
    assert not list(tmp_path.iterdir())
    want = oracles.enumerate_shells(skewed.gram2, 4)
    assert [table.shell(k).tolist() for k in range(5)] == [
        [list(v) for v in want[k]] for k in range(5)]


def test_shell_cache_save_leaves_no_temp_files(tmp_path, a2, monkeypatch):
    cache = str(tmp_path)
    table = enumerate_shells(a2, 2, cache_dir=cache)
    save_shell_table(table, cache)
    assert [p.name for p in tmp_path.iterdir()] == [os.path.basename(
        save_shell_table(table, cache))]

    def broken_savez(*args, **kwargs):
        raise OSError("disk full")

    monkeypatch.setattr("thetainv.lattice.np.savez", broken_savez)
    with pytest.raises(OSError):
        save_shell_table(enumerate_shells(a2, 3), cache)
    assert len(list(tmp_path.iterdir())) == 1


def test_shell_cache_save_closes_descriptor_when_fdopen_fails(tmp_path, a2, monkeypatch):
    closed = []
    real_close = os.close

    def broken_fdopen(fd, *args, **kwargs):
        raise OSError("no file object")

    def spy_close(fd):
        closed.append(fd)
        real_close(fd)

    monkeypatch.setattr("thetainv.lattice.os.fdopen", broken_fdopen)
    monkeypatch.setattr("thetainv.lattice.os.close", spy_close)
    with pytest.raises(OSError):
        save_shell_table(enumerate_shells(a2, 2), str(tmp_path))
    assert len(closed) == 1
    assert not list(tmp_path.iterdir())
