import random
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import groupby, product
from math import prod
from operator import mul

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import thetainv.lattice as latmod
import thetainv.theta as thetamod
import thetainv.verify as verify
from thetainv.catalog import lattice_by_name
from thetainv.cli import compute_invariant
from thetainv.errors import (
    NoRationalEmbeddingError,
    ResourceLimitError,
)
from thetainv.harmonic import Poly, harmonic_project, laplacian, pair_poly, spherical_integral
from thetainv.lattice import change_basis, enumerate_shells, random_unimodular, validate_lattice
from thetainv.qseries import QSeries
from thetainv.theta import (
    InvariantRequest,
    _composition_poly,
    compute,
    first_non_integral,
    invariant_metadata,
    pair_scale,
    pair_scaled_coeffs,
    pair_term,
    spherical_theta,
    theta_general,
    theta_pair,
    theta_series,
    theta_triple,
    triple_form,
)
from thetainv.verify import DEFAULT_SEED, check_pair_integrality

import oracles


def z(n):
    return validate_lattice([[2 if i == j else 0 for j in range(n)] for i in range(n)],
                            name=f"z{n}")


# -- theta series ---------------------------------------------------------------

def test_theta_z1():
    s = theta_series(z(1), 4)
    assert s.coeffs == (1, 2, 0, 0, 2)
    meta = invariant_metadata(z(1), (0,))
    assert meta["weight"] == Fraction(1, 2)
    assert meta["level"] == 4


def test_theta_e8(e8, e8_shells6):
    s = theta_series(e8, 2, shells=e8_shells6)
    assert s.coeffs == (1, 240, 2160)
    meta = invariant_metadata(e8, (0,))
    assert meta["weight"] == 4 and meta["level"] == 1


def test_theta_a2_brute(a2):
    want = {}
    for v in product(range(-4, 5), repeat=2):
        k = a2.norm(v)
        if k <= 4:
            want[k] = want.get(k, 0) + 1
    s = theta_series(a2, 4)
    assert list(s.coeffs) == [want.get(k, 0) for k in range(5)]
    assert s.coeffs == (1, 6, 0, 6, 6)


# -- spherical theta series -------------------------------------------------------

def test_spherical_constant_recovers_theta():
    lat = z(2)
    h = Poly.constant(2, 1)
    assert spherical_theta(lat, h, 4) == theta_series(lat, 4)


def test_spherical_difference_cancels_on_z2():
    lat = z(2)
    h = Poly(2, {(2, 0): 1, (0, 2): -1})
    s = spherical_theta(lat, h, 4)
    assert s.coeff(1) == 0


def test_spherical_needs_embedding(a2):
    h = Poly.constant(2, 1)
    with pytest.raises(NoRationalEmbeddingError):
        spherical_theta(a2, h, 2)


def test_spherical_rejects_bad_embedding():
    lat = z(2)
    bad = [[Fraction(1), Fraction(1)], [Fraction(0), Fraction(1)]]
    with pytest.raises(ValueError):
        spherical_theta(lat, Poly.constant(2, 1), 2, embedding=bad)


def _e8_embedding():
    """Rational coordinates for the norm-halved root lattice: half-integer
    simple-root rows composed with a rational rotation shrinking norms by 2."""
    half = Fraction(1, 2)
    b = [
        [half, -half, -half, -half, -half, -half, -half, half],
        [1, 1, 0, 0, 0, 0, 0, 0],
        [-1, 1, 0, 0, 0, 0, 0, 0],
        [0, -1, 1, 0, 0, 0, 0, 0],
        [0, 0, -1, 1, 0, 0, 0, 0],
        [0, 0, 0, -1, 1, 0, 0, 0],
        [0, 0, 0, 0, -1, 1, 0, 0],
        [0, 0, 0, 0, 0, -1, 1, 0],
    ]
    r = [[Fraction(0)] * 8 for _ in range(8)]
    for blk in range(4):
        i = 2 * blk
        r[i][i] = half
        r[i][i + 1] = half
        r[i + 1][i] = -half
        r[i + 1][i + 1] = half
    return [[sum(Fraction(b[i][k]) * r[k][j] for k in range(8)) for j in range(8)]
            for i in range(8)]


@pytest.mark.parametrize("name", ["z2", "z3", "e8"])
def test_spherical_theta_equals_the_per_vector_evaluation(request, name):
    # a non-harmonic h with odd, even and constant monomials, so the series
    # is not zero; the e8 embedding has denominator 4
    if name == "e8":
        lat, emb, order = request.getfixturevalue("e8"), _e8_embedding(), 2
    else:
        lat, emb, order = lattice_by_name(name), None, 4
    n = lat.rank
    h = Poly(n, {(4,) + (0,) * (n - 1): 3, (1, 3) + (0,) * (n - 2): Fraction(-1, 2),
                 (0, 1) + (0,) * (n - 2): 5, (0,) * n: Fraction(2, 7)})
    table = enumerate_shells(lat, order)
    got = spherical_theta(lat, h, order, embedding=emb, shells=table)
    want = oracles.spherical_coeffs(
        h, emb or thetamod.default_embedding(lat),
        [table.shell(k).tolist() for k in range(order + 1)])
    assert list(got.coeffs) == want
    assert any(want[1:])


def test_e8_spherical_theta_of_degree_two_harmonics_vanishes(e8, e8_shells6):
    emb = _e8_embedding()
    h1 = harmonic_project(Poly.monomial(8, (2, 0, 0, 0, 0, 0, 0, 0)))
    h2 = Poly.monomial(8, (1, 1, 0, 0, 0, 0, 0, 0))
    for h in (h1, h2):
        # h is harmonic, so the series is a modular form of weight 2 + 8/2
        assert laplacian(h).is_zero()
        s = spherical_theta(e8, h, 3, embedding=emb, shells=e8_shells6)
        assert s.is_zero()


# -- pair terms -------------------------------------------------------------------

def test_pair_term_zero_vector_contributes_nothing(a2):
    zero = (0, 0)
    v = (1, 0)
    for m in (1, 2, 3):
        assert pair_term(a2.rank, m, 0, a2.norm(v), 0) == 0


def test_pair_term_scaled_is_scale_times_pair_term(a2, skew3):
    rng = random.Random(23)
    for lat in (a2, skew3, z(4)):
        n = lat.rank
        for _ in range(200):
            m = rng.randint(1, 4)
            v = tuple(rng.randint(-3, 3) for _ in range(n))
            w = tuple(rng.randint(-3, 3) for _ in range(n))
            ab, t = lat.norm(v) * lat.norm(w), lat.inner2(v, w)
            scaled = sum(s * t ** (2 * m - 2 * j) * ab ** j
                         for j, s in enumerate(pair_scaled_coeffs(n, m)))
            assert isinstance(scaled, int)
            term = pair_term(n, m, lat.norm(v), lat.norm(w), t)
            assert Fraction(scaled) == pair_scale(n, m) * term


def test_pair_scaled_coeffs_past_the_verify_table():
    # theta_pair reads pair_scaled_coeffs at every rank, and lattice files
    # may exceed the n <= 32, m <= 9 that verify proves
    for n in range(1, 65):
        for m in range(13):
            want = [pair_scale(n, m) * c / 4 ** (m - j)
                    for j, c in enumerate(pair_poly(n, m))]
            assert list(pair_scaled_coeffs(n, m)) == want, (n, m)


# -- pair invariant -----------------------------------------------------------------

def test_pair_m0_is_theta_squared(a2):
    assert theta_pair(a2, 0, 4) == theta_series(a2, 4) ** 2


def test_pair_z1_degree_one_vanishes():
    assert theta_pair(z(1), 1, 8).is_zero()


def test_pair_e8_q2(e8, e8_shells6):
    s = theta_pair(e8, 4, 2, shells=e8_shells6)
    assert s.coeff(2) == Fraction(3, 896)
    meta = invariant_metadata(e8, (4, 4))
    assert meta["weight"] == 4 * 4 + 8 and meta["level"] == 1


def test_pair_vanishing_threshold(skew3, diag246):
    # coefficients vanish for 0 < k < 2 * (minimal norm)
    for lat in (skew3, diag246):
        table = enumerate_shells(lat, 4)
        l0 = min(k for k, size in table.sizes().items() if k and size)
        for m in (1, 2):
            s = theta_pair(lat, m, 4, shells=table)
            for k in range(1, min(2 * l0, 5)):
                assert s.coeff(k) == 0


def test_pair_matches_naive_pair_loop(a2, skew2, diag246):
    for lat in (a2, skew2, diag246):
        n = lat.rank
        order = 4
        table = enumerate_shells(lat, order)
        for m in (1, 2):
            fast = theta_pair(lat, m, order, shells=table)
            naive = []
            for k in range(order + 1):
                acc = Fraction(0)
                for k1 in range(k + 1):
                    for v in table.shell(k1).tolist():
                        for w in table.shell(k - k1).tolist():
                            acc += pair_term(n, m, k1, k - k1, lat.inner2(v, w))
                naive.append(acc)
            assert list(fast.coeffs) == naive


@pytest.mark.parametrize("shift", [100000, 2**62])
def test_object_dtype_kernel_matches_int64_results(a2, shift):
    # shift 100000: coordinates up to 200002 and a gram2 entry of 20000200002
    # fail the int64 bound; shift 2^62: coordinates no longer fit in int64.
    # Either way the kernel runs on Python ints.
    skewed = change_basis(a2, [[1, shift], [0, 1]])
    table = enumerate_shells(skewed, 4)
    assert next(table.pairings(1, 1)).dtype == object
    for k1, k2 in [(1, 1), (1, 3), (3, 4)]:
        want = oracles.tuple_histogram(skewed, [table.shell(k1).tolist(),
                                                table.shell(k2).tolist()])
        assert oracles.as_dict(table.pair_histogram(k1, k2)) == want
    want = oracles.tuple_histogram(skewed, [table.shell(c).tolist() for c in (1, 1, 3)])
    assert oracles.as_dict(table.tuple_histogram((1, 1, 3))) == want
    assert theta_pair(skewed, 3, 4, shells=table) == theta_pair(a2, 3, 4)
    assert theta_triple(skewed, 4, shells=table) == theta_triple(a2, 4)
    req = InvariantRequest((1, 1, 2, 2), 4)
    assert theta_general(skewed, req, shells=table) == theta_general(a2, req)


_SHEAR_BASES = {"a2": ((2, 1), (1, 2)), "skew2": ((2, 1), (1, 4)),
                "skew3": ((2, 1, 0), (1, 4, 1), (0, 1, 6))}
_SHEAR_ORDER = 4
_SHEAR_REQUEST = InvariantRequest((1, 1, 2), _SHEAR_ORDER)


@lru_cache(maxsize=None)
def _unsheared(name):
    lat = validate_lattice(_SHEAR_BASES[name])
    return theta_pair(lat, 2, _SHEAR_ORDER), theta_general(lat, _SHEAR_REQUEST)


@settings(max_examples=25, deadline=None)
@given(name=st.sampled_from(sorted(_SHEAR_BASES)),
       s=st.integers(0, 40).flatmap(lambda e: st.integers(-2**e, 2**e)))
# the kernel runs a2 at s = 2^10 in float64, at 2^13 in int64 and at 2^40
# in Python ints: each tier is hit whatever Hypothesis draws
@example(name="a2", s=2**10)
@example(name="a2", s=2**13)
@example(name="a2", s=2**40)
def test_sheared_bases_keep_histograms_and_series(name, s):
    base = validate_lattice(_SHEAR_BASES[name])
    u = [[int(i == j) for j in range(base.rank)] for i in range(base.rank)]
    u[0][1] = s
    lat = change_basis(base, u)
    table = enumerate_shells(lat, _SHEAR_ORDER)
    shell = {k: table.shell(k).tolist() for k in range(_SHEAR_ORDER + 1)}
    for k1 in range(1, _SHEAR_ORDER + 1):
        for k2 in range(k1, _SHEAR_ORDER + 1):
            assert oracles.as_dict(table.pair_histogram(k1, k2)) == oracles.tuple_histogram(
                lat, [shell[k1], shell[k2]])
    for comp in [(1, 1, 2), (2, 1, 1), (0, 1, 2), (1, 2, 1, 0)]:
        assert oracles.as_dict(table.tuple_histogram(comp)) == oracles.tuple_histogram(
            lat, [shell[c] for c in comp])
    pair, general = _unsheared(name)
    assert theta_pair(lat, 2, _SHEAR_ORDER, shells=table) == pair
    assert theta_general(lat, _SHEAR_REQUEST, shells=table) == general


# -- triple form --------------------------------------------------------------------

def test_triple_form_zero_argument(a2):
    assert triple_form(a2, (0, 0), (1, 0), (0, 1)) == 0
    assert triple_form(a2, (1, 0), (0, 0), (0, 1)) == 0
    assert triple_form(a2, (1, 0), (0, 1), (0, 0)) == 0


def test_triple_form_rank_one_vanishes():
    lat = validate_lattice([[6]])
    rng = random.Random(1)
    for _ in range(20):
        u, v, w = ((rng.randint(-4, 4),) for _ in range(3))
        assert triple_form(lat, u, v, w) == 0


def test_triple_form_equal_unit_vectors():
    lat = z(3)
    u = (1, 0, 0)
    assert triple_form(lat, u, u, u) == 2  # (n-1)(n-2) at norm one


def test_triple_form_denominator_divides_eight(skew3, a2):
    rng = random.Random(9)
    for lat in (skew3, a2):
        n = lat.rank
        for _ in range(100):
            u, v, w = (tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(3))
            val = triple_form(lat, u, v, w)
            assert 8 % val.denominator == 0


# -- triple invariant ------------------------------------------------------------------

def _triple_brute(lat, order):
    table = enumerate_shells(lat, order)
    vectors = [(k, v) for k in range(order + 1) for v in table.shell(k).tolist()]
    acc = [Fraction(0)] * (order + 1)
    for ku, u in vectors:
        for kv, v in vectors:
            if ku + kv > order:
                continue
            for kw, w in vectors:
                k = ku + kv + kw
                if k <= order:
                    acc[k] += triple_form(lat, u, v, w)
    n = lat.rank
    return [n * x for x in acc]


def test_triple_z1_vanishes():
    assert theta_triple(z(1), 6).is_zero()


def test_triple_e8_needs_three_nonzero_vectors(e8, e8_shells6):
    s = theta_triple(e8, 2, shells=e8_shells6)
    assert s.coeffs == (0, 0, 0)


def test_triple_a2_matches_brute_force(a2):
    fast = theta_triple(a2, 3)
    assert list(fast.coeffs) == _triple_brute(a2, 3)


def test_triple_asymmetric_lattices_nonzero(diag246, skew3):
    got246 = theta_triple(diag246, 4)
    assert list(got246.coeffs) == _triple_brute(diag246, 4) == [0, 0, 0, 48, -144]
    got3 = theta_triple(skew3, 4)
    assert list(got3.coeffs) == _triple_brute(skew3, 4) == [0, 0, 0, 48, -180]
    assert invariant_metadata(skew3, (1, 1, 1))["weight"] == Fraction(3 * 3 + 12, 2)


def test_triple_equals_general_route_across_bases(skew2, skew3, diag246):
    rng = random.Random(5)
    for lat in (skew2, skew3, diag246):
        lats = [lat] + [change_basis(lat, random_unimodular(lat.rank, rng))
                        for _ in range(3)]
        for moved in lats:
            want = theta_general(moved, InvariantRequest((1, 1, 1), 5, "triple"))
            assert theta_triple(moved, 5) == want
            # skew2's series is zero through q^5; the rank-3 ones are not
            assert want.is_zero() == (lat is skew2)


def test_triple_reads_no_pairing_kernel(skew3, monkeypatch):
    table = enumerate_shells(skew3, 5)
    want = _triple_brute(skew3, 5)

    def refuse(*args, **kwargs):
        raise AssertionError("the triple route ran the pairing kernel")

    monkeypatch.setattr(latmod.ShellTable, "pairings", refuse)
    with pytest.raises(AssertionError):
        table.pair_histogram(1, 1)
    assert list(theta_triple(skew3, 5, shells=table).coeffs) == want


# -- general invariant ------------------------------------------------------------------

def test_general_degree_zero_is_theta(a2):
    got = theta_general(a2, InvariantRequest((0,), 4))
    assert got == theta_series(a2, 4)


def test_general_single_positive_degree_vanishes(skew2):
    # the sphere average of one projected kernel factor is zero
    got = theta_general(skew2, InvariantRequest((1,), 4))
    assert got.is_zero()


@pytest.mark.parametrize("m", [1, 2])
def test_general_pair_equivalence(skew2, m):
    n = skew2.rank
    gen = theta_general(skew2, InvariantRequest((m, m), 4))
    pair = theta_pair(skew2, m, 4)
    c2m = Fraction(1, prod(n + 2 * j for j in range(2 * m)))
    assert gen == c2m * pair
    assert not gen.is_zero()


def test_general_triple_equivalence(skew3):
    n = skew3.rank
    gen = theta_general(skew3, InvariantRequest((1, 1, 1), 4))
    tri = theta_triple(skew3, 4)
    assert Fraction(n**4 * (n + 2) * (n + 4)) * gen == tri


def test_general_normalization_shortcuts(skew2, skew3):
    gen_pair = theta_general(skew2, InvariantRequest((1, 1), 4, "pair"))
    assert gen_pair == theta_pair(skew2, 1, 4)
    gen_tri = theta_general(skew3, InvariantRequest((1, 1, 1), 3, "triple"))
    assert gen_tri == theta_triple(skew3, 3)


def test_general_mixed_degrees_basis_invariant(skew3):
    # no fast path exists for (1,2); check the defining invariance instead
    rng = random.Random(31)
    base = theta_general(skew3, InvariantRequest((1, 2), 3))
    for _ in range(5):
        u = random_unimodular(3, rng)
        moved = change_basis(skew3, u)
        assert theta_general(moved, InvariantRequest((1, 2), 3)) == base


def _oracle_tuple_histograms(lat, order):
    """hist(comp) of every explicit tuple, from the pure-Python oracle."""
    shells = enumerate_shells(lat, order)
    return lambda comp: oracles.tuple_histogram(
        lat, [shells.shell(c).tolist() for c in comp])


@pytest.mark.parametrize("degrees", [(1, 1, 1, 1), (1, 1, 2, 2)])
@pytest.mark.parametrize("name", ["skew2", "skew3", "diag246"])
def test_general_four_slots_match_tuple_loop(request, name, degrees):
    lat = request.getfixturevalue(name)
    got = theta_general(lat, InvariantRequest(degrees, 4))
    want = oracles.general_coeffs(lat.rank, degrees, 4, _oracle_tuple_histograms(lat, 4))
    assert list(got.coeffs) == want


@pytest.mark.parametrize("degrees", [(1, 2), (1, 1, 2), (1, 2, 2), (2, 2, 2)])
@pytest.mark.parametrize("name", ["skew2", "skew3", "diag246"])
def test_general_equals_the_ordered_composition_oracle_across_bases(request, name,
                                                                    degrees):
    # the oracle walks every ordered composition; theta_general one per
    # reordering of its equal-degree slots
    base = request.getfixturevalue(name)
    rng = random.Random(sum(degrees) * 31 + len(name))
    for lat in (base, change_basis(base, random_unimodular(base.rank, rng))):
        got = theta_general(lat, InvariantRequest(degrees, 4))
        want = oracles.general_coeffs(lat.rank, degrees, 4,
                                      _oracle_tuple_histograms(lat, 4))
        assert list(got.coeffs) == want


def _library_histograms(table):
    """hist(comp) of the library's tuple histograms, as the oracle's dicts."""
    return lambda comp: oracles.as_dict(table.tuple_histogram(comp))


def _canonical(degrees, comp):
    """comp sorted within each run of equal degrees."""
    out, i = [], 0
    for _, run in groupby(degrees):
        r = len(list(run))
        out += sorted(comp[i:i + r])
        i += r
    return tuple(out)


@settings(max_examples=200, deadline=None)
@given(degrees=st.lists(st.integers(0, 3), min_size=1, max_size=4).map(sorted),
       sizes=st.lists(st.integers(0, 2), min_size=7, max_size=7),
       order=st.integers(0, 6))
@example(degrees=[1, 1, 1, 1], sizes=[1, 2, 0, 2, 2, 2, 2], order=4)
def test_cells_cover_each_ordered_composition_once(degrees, sizes, order):
    # every ordered composition into nonempty shells whose slots of positive
    # degree hold no shell 0: a harmonic polynomial of positive degree
    # vanishes at the zero vector
    def reached(comp):
        return all(sizes[c] and (c or not m) for c, m in zip(comp, degrees))

    sizes = dict(enumerate(sizes))
    cells = list(thetamod._cells(sizes, order, degrees))
    got = Counter()
    for k, comp, mult in cells:
        assert k == sum(comp) <= order and reached(comp)
        assert comp == _canonical(degrees, comp)
        got[comp] += mult
    assert len({comp for _, comp, _ in cells}) == len(cells)
    ordered = [comp for comp in product(range(order + 1), repeat=len(degrees))
               if sum(comp) <= order and reached(comp)]
    assert got == Counter(_canonical(degrees, comp) for comp in ordered)
    assert sum(mult for _, _, mult in cells) == len(ordered)


def test_general_budget_counts_ordered_tuples(e8, e8_shells6):
    # no slot of positive degree holds shell 0, so the one cell to q^3 is
    # (1,1,1) over the 240 roots
    with pytest.raises(ResourceLimitError, match="needs 13824000 lattice tuples"):
        theta_general(e8, InvariantRequest((1, 1, 1), 3), shells=e8_shells6)


def test_general_budget_boundary(e8, e8_shells6):
    # (2,2,2) to q^3 sums the 240^3 tuples of its one cell (1,1,1), to 0
    got = theta_general(e8, InvariantRequest((2, 2, 2), 3, max_tuples=13_824_000),
                        shells=e8_shells6)
    assert got == QSeries(3, [0, 0, 0, 0])
    with pytest.raises(ResourceLimitError, match="needs 13824000 lattice tuples"):
        theta_general(e8, InvariantRequest((2, 2, 2), 3, max_tuples=13_823_999),
                      shells=e8_shells6)


def test_lists_of_unequal_degrees_vanish_by_orthogonality(monkeypatch, e8, e8_shells6):
    # harmonics of different degrees are orthogonal on the sphere, so the
    # composition polynomial of (m1, m2), m1 != m2, is empty in every rank
    for n in range(1, 17):
        for m1 in range(5):
            for m2 in range(m1 + 1, 5):
                assert thetamod._composition_table(n, (m1, m2)) == (1, {})
    # so e8 (1,2) to q^4 builds no histogram and is charged no tuples: it is
    # zero within the default budget, which its 8985600 tuples used to overrun

    def refuse(*args, **kwargs):
        raise AssertionError("a vanishing polynomial built a tuple histogram")

    monkeypatch.setattr(latmod.ShellTable, "tuple_histogram", refuse)
    req = InvariantRequest((1, 2), 4, "general")
    assert compute(e8, req, shells=e8_shells6) == QSeries.zero(4)
    assert compute(e8, req) == QSeries.zero(4)


def test_no_route_asks_for_the_zero_vector_in_a_slot_of_positive_degree(
        monkeypatch, e8, e8_shells6, skew3):
    calls = []

    def spy(owner, name):
        wrapped = getattr(owner, name)

        def call(*args):
            calls.append((name, args[-2:] if name == "pair_histogram" else args[-1]))
            return wrapped(*args)
        monkeypatch.setattr(owner, name, call)

    spy(latmod.ShellTable, "pair_histogram")
    spy(latmod.ShellTable, "tuple_histogram")
    spy(thetamod, "_composition_poly")
    skew3_shells = enumerate_shells(skew3, 4)
    for lat, table, order in ((e8, e8_shells6, 3), (skew3, skew3_shells, 4)):
        for degrees in [(1, 1), (2, 2), (1, 1, 1), (1, 2), (0, 1, 1), (0, 0, 1, 1),
                        (1, 1, 2), (2, 2, 2)]:
            calls.clear()
            if len(degrees) == 2 and degrees[0] == degrees[1]:
                theta_pair(lat, degrees[0], order, shells=table)
            if degrees == (1, 1, 1):
                theta_triple(lat, order, shells=table)
            theta_general(lat, InvariantRequest(degrees, order, max_tuples=10**9),
                          shells=table)
            assert any(name == "_composition_poly" for name, _ in calls)
            for name, shells in calls:
                if name == "pair_histogram":
                    # a two-slot tuple histogram reads its pair histogram
                    assert 0 not in shells or min(degrees) == 0
                else:
                    assert all(c or not m for c, m in zip(shells, degrees)), (name, shells)
    # the dropped cells were zero: the route equals the oracle's sum over
    # every ordered composition, from the oracle's own shells
    whole = oracles.enumerate_shells(skew3.gram2, 4)
    for degrees in [(0, 1, 1), (0, 0, 1, 1)]:
        got = compute(skew3, InvariantRequest(degrees, 4), shells=skew3_shells)
        assert list(got.coeffs) == oracles.general_coeffs(
            3, degrees, 4,
            lambda comp: oracles.tuple_histogram(skew3, [whole[c] for c in comp]))
        assert any(got.coeffs)


def test_integer_reductions_equal_the_bucket_by_bucket_fractions(e8, e8_shells6, skew3,
                                                                 diag246):
    # the same histograms, reduced bucket by bucket in Fractions
    for m in (1, 4, 9):
        got = theta_pair(e8, m, 5, shells=e8_shells6)
        assert list(got.coeffs) == oracles.pair_coeffs(
            8, m, 5, lambda k1, k2: oracles.as_dict(e8_shells6.pair_histogram(k1, k2)))
    got = theta_general(e8, InvariantRequest((6, 6), 3), shells=e8_shells6)
    assert list(got.coeffs) == oracles.general_coeffs(8, (6, 6), 3,
                                                      _library_histograms(e8_shells6))
    assert any(got.coeffs)
    for lat in (skew3, diag246):
        table = enumerate_shells(lat, 5)
        for degrees in [(1, 2, 3), (2, 2, 2), (3, 3)]:
            got = theta_general(lat, InvariantRequest(degrees, 5), shells=table)
            assert list(got.coeffs) == oracles.general_coeffs(3, degrees, 5,
                                                              _library_histograms(table))


def test_request_validation():
    with pytest.raises(ValueError):
        InvariantRequest((), 4)
    with pytest.raises(ValueError):
        InvariantRequest((2, 1), 4)
    with pytest.raises(ValueError):
        InvariantRequest((1, 1), -1)
    with pytest.raises(ValueError):
        InvariantRequest((1, 1), 4, "nope")
    with pytest.raises(ValueError):
        InvariantRequest((1, 2), 4, "pair")
    with pytest.raises(ValueError):
        InvariantRequest((1, 1), 4, "triple")
    with pytest.raises(ValueError, match="max_tuples"):
        InvariantRequest((1, 1), 4, max_tuples=-1)
    with pytest.raises(ValueError, match="pair normalization"):
        InvariantRequest((0,), 4, "pair")
    with pytest.raises(ValueError, match="triple normalization"):
        InvariantRequest((0,), 4, "triple")


@pytest.mark.parametrize("degrees, want", [
    ((0,), "general"), ((2, 2), "pair"), ((1, 1, 1), "triple"),
    ((1, 2), "general"), ((1, 1, 1, 1), "general"), ((0, 0), "pair")])
def test_request_auto_normalization(degrees, want):
    assert InvariantRequest(degrees, 3, "auto").normalization == want
    assert InvariantRequest(degrees, 3).normalization == "general"


# -- the single request-to-series path ------------------------------------------------------

def _route(route, lat, degrees, order):
    """The named route, called directly."""
    return {
        "theta_series": lambda: theta_series(lat, order),
        "theta_pair": lambda: theta_pair(lat, degrees[0], order),
        "theta_triple": lambda: theta_triple(lat, order),
        "theta_general": lambda: theta_general(lat, InvariantRequest(degrees, order)),
    }[route]()


# the route compute takes for each degree list, whatever the normalization
_TAKEN = {(0,): "theta_series", (1, 1): "theta_pair", (2, 2): "theta_pair",
          (1, 1, 1): "theta_triple", (1, 2): "theta_general"}


@pytest.mark.parametrize("degrees, normalization, reference", [
    ((0,), "auto", "theta_series"), ((0,), "general", "theta_series"),
    ((1, 1), "auto", "theta_pair"), ((1, 1), "pair", "theta_pair"),
    ((1, 1), "general", "theta_general"),
    ((2, 2), "auto", "theta_pair"), ((2, 2), "pair", "theta_pair"),
    ((2, 2), "general", "theta_general"),
    ((1, 1, 1), "auto", "theta_triple"), ((1, 1, 1), "triple", "theta_triple"),
    ((1, 1, 1), "general", "theta_general"),
    ((1, 2), "auto", "theta_general"), ((1, 2), "general", "theta_general")])
@pytest.mark.parametrize("name", ["a2", "skew2", "skew3"])
def test_compute_is_the_route_with_metadata(request, monkeypatch, name, degrees,
                                            normalization, reference):
    # compute takes the route of the degrees; its value equals the reference
    # route called directly, so a (1,1), (2,2) or (1,1,1) "general" request
    # read through the pair or triple route equals the general reduction;
    # the series is coefficients only, and its weight, level and character
    # come from invariant_metadata, which is tested on its own below
    lat = request.getfixturevalue(name)
    order = 3
    route = _TAKEN[degrees]

    def wrong_route(*args, **kwargs):
        raise AssertionError(f"compute did not take {route}")
    for other in {"theta_series", "theta_pair", "theta_triple",
                  "theta_general"} - {route}:
        monkeypatch.setattr(thetamod, other, wrong_route)
    got = compute(lat, InvariantRequest(degrees, order, normalization))
    assert got == _route(reference, lat, degrees, order)
    assert compute_invariant(lat, degrees, order, normalization) == got


def test_compute_writes_and_reuses_one_cache_file(tmp_path, skew2, monkeypatch):
    req = InvariantRequest((1, 1), 4, "auto")

    def cached():
        return enumerate_shells(skew2, req.order, cache_dir=str(tmp_path))
    first = compute(skew2, req, shells=cached())
    files = list(tmp_path.iterdir())
    assert len(files) == 1 and files[0].suffix == ".npz"

    def no_search(*args):
        raise AssertionError("shells enumerated despite a cached table")
    monkeypatch.setattr(latmod, "_enumerate", no_search)
    assert compute(skew2, req, shells=cached()) == first
    assert list(tmp_path.iterdir()) == files


def test_compute_rejects_a_table_that_does_not_cover_the_request(a2, skew2):
    with pytest.raises(ValueError, match="does not cover"):
        compute(skew2, InvariantRequest((1, 1), 3), shells=enumerate_shells(a2, 3))
    with pytest.raises(ValueError, match="does not cover"):
        compute(a2, InvariantRequest((0,), 4), shells=enumerate_shells(a2, 3))


def test_resource_limit(skew2):
    with pytest.raises(ResourceLimitError):
        theta_general(skew2, InvariantRequest((1, 1), 4, max_tuples=10))


# -- integrality --------------------------------------------------------------------------

def test_scaled_series_integral_e8(e8, e8_shells6):
    pair = theta_pair(e8, 4, 5, shells=e8_shells6)
    triple = theta_triple(e8, 5, shells=e8_shells6)
    assert first_non_integral(pair, pair_scale(8, 4)) is None
    assert first_non_integral(triple, Fraction(8, 8)) is None


def test_scaled_series_integral_z2():
    lat = z(2)
    assert first_non_integral(theta_pair(lat, 1, 8), pair_scale(2, 1)) is None
    assert first_non_integral(theta_triple(lat, 8), Fraction(8, 2)) is None


def test_integrality_catches_violations(skew3, e8_shells6, monkeypatch):
    # skew3 has a nonzero triple series (scale 8/3) and pair scale 24
    assert first_non_integral(theta_pair(skew3, 1, 4), pair_scale(3, 1)) is None
    assert first_non_integral(theta_triple(skew3, 4), Fraction(8, 3)) is None

    # a series whose q^2 coefficient is 1/7; both scales leave it non-integral
    seventh = QSeries(4, [0, 0, Fraction(1, 7), 0, 0])
    assert first_non_integral(seventh, pair_scale(3, 1)) == (2, Fraction(24, 7))
    assert first_non_integral(seventh, Fraction(8, 3)) == (2, Fraction(8, 21))

    # verify fails every m of a lattice whose triple series fails, and each
    # m whose pair scale leaves 1/7 non-integral
    cases = [(name, rank, m) for name, rank in (("z1", 1), ("z2", 2), ("z3", 3),
                                                ("z4", 4), ("a2", 2), ("d4", 4))
             for m in (1, 2, 3, 4)] + [("e8", 8, 1), ("e8", 8, 4)]
    for route in ("theta_triple", "theta_pair"):
        with monkeypatch.context() as patch:
            patch.setattr(verify, route, lambda *a, **k: seventh)
            result = check_pair_integrality(1, DEFAULT_SEED, e8_shells6)[1]
        want = [f"{name} m={m}" for name, rank, m in cases
                if route == "theta_triple" or pair_scale(rank, m) % 7]
        assert result.name == "series-integrality" and not result.passed
        assert result.detail == "failed: " + ", ".join(want)


# -- metadata --------------------------------------------------------------------------------

def test_invariant_metadata(e8, skew3):
    meta = invariant_metadata(e8, (4, 4))
    assert meta["weight"] == 24 and meta["level"] == 1 and meta["character"] is None
    meta3 = invariant_metadata(skew3, (1, 1, 1))
    assert meta3["weight"] == Fraction(3 * 3, 2) + 6
    assert meta3["character"] is not None


@pytest.mark.parametrize("name, want", [
    # even rank n: ((-1)^(n/2) det gram2 | .)
    ("a2", "kronecker(-3|.)"), ("z2", "kronecker(-4|.)"),
    ("d4", "kronecker(4|.)"), ("e8", "kronecker(1|.)"),
    # odd rank: det gram2, as before
    ("z1", "kronecker(2|.)"), ("skew3", "kronecker(40|.)"),
    ("diag246", "kronecker(48|.)")])
def test_invariant_metadata_character(request, name, want):
    lat = lattice_by_name(name) or request.getfixturevalue(name)
    for degrees in ((0,), (1, 1, 1)):
        assert invariant_metadata(lat, degrees)["character"] == want
    if lat.rank % 2 == 0:
        assert invariant_metadata(lat, (1, 1))["character"] is None


def test_composition_poly_equals_the_fraction_expansion():
    # the library expands once per degree list with symbolic norms; the
    # oracle substitutes the norms first, composition by composition.  Only
    # a slot of degree 0 holds norm 0 (_cells), and it enters no pairing
    cases = [(8, (1, 2), (1, 1)), (8, (4, 4), (2, 3)), (3, (0, 1, 1), (0, 1, 2)),
             (2, (2, 2, 2), (3, 1, 2)), (3, (0, 0, 1, 1), (0, 3, 1, 2)), (4, (3,), (5,))]
    for n, degrees, norms in cases:
        const, cross, den = _composition_poly(n, degrees, norms)
        want = oracles.composition_poly(n, degrees, norms)
        zero = (0,) * (len(degrees) * (len(degrees) - 1) // 2)
        assert Fraction(const, den) == want.get(zero, 0)
        assert {e: Fraction(c, den) for e, c in cross} == {
            e: c for e, c in want.items() if e != zero}


def test_moment_patterns_equal_the_sphere_average_of_the_expanded_product():
    # oracles.composition_poly averages with _moment_patterns too, so the
    # matching formula is checked here against an expansion of
    # prod_l (x . y_l)^{e_l} averaged monomial by monomial; odd exponents
    # (no caller passes them) have no matching and must average to 0
    rng = random.Random(29)
    for _ in range(40):
        n, k = rng.randint(1, 4), rng.randint(1, 3)
        ys = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(k)]
        exps = tuple(rng.randint(0, 4) for _ in range(k))
        s = [[sum(map(mul, ya, yb)) for yb in ys] for ya in ys]
        pairs = [(a, b) for a in range(k) for b in range(a + 1, k)]
        got = sum(w * prod(s[a][a] ** d for a, d in enumerate(diag))
                  * prod(s[a][b] ** c for (a, b), c in zip(pairs, off))
                  for diag, off, w in thetamod._moment_patterns(n, exps))
        product_poly = Poly.constant(n, 1)
        for y, e in zip(ys, exps):
            form = Poly(n, {tuple(int(i == j) for j in range(n)): c
                            for i, c in enumerate(y)})
            for _ in range(e):
                product_poly = product_poly * form
        want = sum(c * spherical_integral(n, mono)
                   for mono, c in product_poly.terms.items())
        assert got == want, (n, ys, exps)


def test_composition_poly_is_memoised_and_read_only():
    poly = _composition_poly(8, (1, 2), (1, 1))
    assert _composition_poly(8, (1, 2), (1, 1)) is poly
    with pytest.raises(TypeError):
        poly[(0,)] = Fraction(1)
