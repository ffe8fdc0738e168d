import os
import pickle
import random
from fractions import Fraction
from functools import reduce
from itertools import product
from math import isqrt, lcm
from operator import mul

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from thetainv.catalog import lattice_by_name
from thetainv.errors import (
    NotPositiveDefiniteError,
    NotSymmetricError,
    OddDiagonalError,
    RankMismatchError,
)
from thetainv.lattice import (
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
from thetainv.theta import InvariantRequest, compute

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
            naive = oracles.pair_histogram(table.lattice, table.shell(k1).tolist(),
                                           table.shell(k2).tolist())
            assert table.pair_histogram(k1, k2) == naive


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
            hist = oracles.pair_histogram(lat, shell[x], shell[y])
            assert _trace(p[x], p[y]) == sum(c * t * t for t, c in hist.items())
        for ka, kb, kc in [(1, 1, 1), (1, 2, 3), (3, 1, 4), (3, 3, 2), (4, 4, 1)]:
            want = oracles.bilinear_sum(lat, _matmul(p[ka], a), shell[kb], shell[kc])
            assert _trace(p[ka], p[kb], p[kc]) == want
    for lat in (skew3, diag246):
        table = enumerate_shells(lat, 4)
        for comp in [(1, 2), (0, 1, 2), (1, 1, 2), (2, 2, 2), (1, 1, 1, 1), (0, 1, 1, 2)]:
            want = oracles.tuple_histogram(lat, [table.shell(c).tolist() for c in comp])
            assert table.tuple_histogram(comp) == want


def test_inconsistent_shells_raise_instead_of_miscounting(a2):
    good = enumerate_shells(a2, 2)
    shells = {k: list(good.shell(k)) for k in range(3)}
    shells[1][0] = (7, 0)
    with pytest.raises(ValueError, match="closed under negation"):
        ShellTable(a2, 2, shells)
    # the first root and its negation scaled by 7: still sorted and closed
    # under negation, but of norm 49, which only the kernel's range check sees
    shells[1][0], shells[1][-1] = (-7, 0), (7, 0)
    table = ShellTable(a2, 2, shells)
    with pytest.raises(ValueError, match="inconsistent"):
        table.pair_histogram(1, 1)
    with pytest.raises(ValueError, match="inconsistent"):
        table.tuple_histogram((1, 1, 1))
    # in the 2^62 basis the kernel runs on Python ints, and these scaled
    # roots pair beyond int64: the range check must catch that too
    skewed = change_basis(a2, [[1, 2**62], [0, 1]])
    good = enumerate_shells(skewed, 2)
    shells = {k: good.shell(k).tolist() for k in range(3)}
    for i in (0, -1):
        shells[1][i] = [x * 2**64 for x in shells[1][i]]
    with pytest.raises(ValueError, match="inconsistent"):
        ShellTable(skewed, 2, shells).pair_histogram(1, 1)


@pytest.mark.parametrize("edit", [
    lambda shells: shells[1].pop(),
    lambda shells: shells[1].reverse(),
    lambda shells: shells[1].insert(3, (0, 0)),
    lambda shells: shells[0].extend([(0, 1)]),
], ids=["not-negation-closed", "unsorted", "zero-in-shell-1", "nonzero-in-shell-0"])
def test_shell_table_requires_sorted_negation_closed_shells(a2, edit):
    good = enumerate_shells(a2, 2)
    shells = {k: good.shell(k).tolist() for k in range(3)}
    ShellTable(a2, 2, shells)
    edit(shells)
    with pytest.raises(ValueError, match="shell [01]"):
        ShellTable(a2, 2, shells)


def test_shell_table_rejects_a_closed_shell_unsorted_only_in_the_middle(a2):
    # swapping rows len/2 - 1 and len/2 keeps the shell closed under
    # negation, so only the order check from row len/2 - 1 on can see it
    shells = {k: enumerate_shells(a2, 2).shell(k).tolist() for k in range(3)}
    h = len(shells[1]) // 2
    shells[1][h - 1], shells[1][h] = shells[1][h], shells[1][h - 1]
    with pytest.raises(ValueError, match="not strictly increasing"):
        ShellTable(a2, 2, shells)


def test_pair_histogram_with_shell_zero_runs_no_kernel(e8, monkeypatch):
    table = enumerate_shells(e8, 3)

    def refuse(*args, **kwargs):
        raise AssertionError("shell 0 went through the pairing kernel")

    monkeypatch.setattr(ShellTable, "pairings", refuse)
    for k in range(4):
        assert table.pair_histogram(0, k) == {0: len(table.shell(k))}
        assert table.pair_histogram(k, 0) == {0: len(table.shell(k))}
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
    # a fresh table, so that no histogram is cached
    e8 = ShellTable(e8_shells6.lattice, 3, {k: e8_shells6.shell(k) for k in range(4)})
    calls = _record_pairings(monkeypatch)
    for a, b in [(1, 1), (1, 2), (2, 3)]:
        calls.clear()
        e8.pair_histogram(a, b)
        paired = sum(rows * cols for _, _, rows, cols in calls)
        assert paired == (len(e8.shell(a)) // 2) * (len(e8.shell(b)) // 2)
    table = enumerate_shells(skew3, 2)
    n1, n2 = len(table.shell(1)), len(table.shell(2))
    calls.clear()
    table.tuple_histogram((1, 1, 2))
    # slot pairs (0, 1), (0, 2) and (1, 2), slot 0 on its upper half
    assert calls == [[1, 1, n1 // 2, n1], [1, 2, n1 // 2, n2], [1, 2, n1, n2]]


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
        hist = table.pair_histogram(a, b)
        assert sum(hist.values()) == len(table.shell(a)) * len(table.shell(b))
        assert sum(c * t for t, c in hist.items()) == 0
        want = _trace(_matmul(gram2, table.moment_matrix(a)),
                      _matmul(gram2, table.moment_matrix(b)))
        assert sum(c * t * t for t, c in hist.items()) == want


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
            assert t.pair_histogram(k1, k2) == oracles.pair_histogram(lat, shell[k1],
                                                                      shell[k2])
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
        assert v.tolist() == sorted(v.tolist())
        with pytest.raises(ValueError):
            v[0, 0] = 0


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


def test_no_cache_flag_respected(tmp_path, a2):
    cache = str(tmp_path)
    enumerate_shells(a2, 2, cache_dir=cache, use_cache=False)
    assert not list(tmp_path.iterdir())


def _edit_cached_doc(path, edit):
    with np.load(path) as npz:
        doc = dict(npz)
    edit(doc)
    np.savez(path, **doc)


def _scale_first_root(doc):
    # the root and its negation, the first and last rows, so that the shell
    # stays sorted and closed under negation and only its norms are wrong
    doc["shell_1"] = doc["shell_1"].astype(np.int64)
    doc["shell_1"][[0, -1]] *= 7


def _repeat_row(doc):
    doc["shell_3"][1] = doc["shell_3"][0]


def _drop_negation(doc):
    doc["shell_3"] = doc["shell_3"][1:]


@pytest.mark.parametrize("edit", [
    lambda doc: [doc.pop(f"shell_{k}") for k in range(4)],
    lambda doc: doc.pop("shell_2"),
    lambda doc: doc.__setitem__("shell_1", np.array([[1.5, 0]] * 6)),
    lambda doc: doc.__setitem__("shell_1", np.array([[1, 0, 0]] * 6)),
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
    assert ([again.shell(k).tolist() for k in range(4)]
            == [table.shell(k).tolist() for k in range(4)])
    assert load_shell_table(a2, 3, cache) is not None


def test_cached_shell_at_its_dtype_minimum_is_untrusted():
    # -(-128) wraps to -128 in int8, so [[-128]] would pass the norm, order
    # and negation checks as the norm-16384 shell of Z (gram2 [[2]])
    gram2 = np.array([[2]])
    assert lattice_module._trusted_shell(np.array([[-128], [128]], dtype=np.int16),
                                         16384, gram2)
    assert not lattice_module._trusted_shell(np.array([[-128]], dtype=np.int8),
                                             16384, gram2)


_UNPICKLED = []


def _record_unpickling():
    _UNPICKLED.append(True)


class _UnpickleAlarm:
    """Unpickling an instance calls _record_unpickling."""

    def __reduce__(self):
        return (_record_unpickling, ())


def test_shell_cache_never_unpickles(tmp_path, a2):
    cache = str(tmp_path)
    path = save_shell_table(enumerate_shells(a2, 3), cache)
    alarm = np.empty((6, 2), dtype=object)
    alarm[:] = _UnpickleAlarm()
    pickle.loads(pickle.dumps(alarm))  # the alarm works
    assert _UNPICKLED
    _UNPICKLED.clear()
    _edit_cached_doc(path, lambda doc: doc.__setitem__("shell_1", alarm))
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
