import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thetainv.errors import NotHomogeneousError, RankMismatchError
from thetainv.harmonic import (
    Poly,
    binomial_delta,
    binomial_telescope,
    diff_pairing,
    harmonic_dimension,
    harmonic_project,
    laplacian,
    monomials,
    pair_poly,
    projector_coeffs,
    radial_eigenvalue,
    radial_norm_scale,
    radius_squared,
    spherical_integral,
)


def mono(rank, exps, c=1):
    return Poly.monomial(rank, exps, c)


# -- differential pairing ----------------------------------------------------

def test_pairing_monomials():
    assert diff_pairing(mono(2, (1, 1)), mono(2, (1, 1))) == 1
    assert diff_pairing(mono(2, (2, 0)), mono(2, (2, 0))) == 2
    assert diff_pairing(mono(2, (2, 0)), mono(2, (1, 1))) == 0


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_pairing_radius_squared(n):
    r2 = radius_squared(n)
    assert diff_pairing(r2, r2) == 2 * n


def test_pairing_rank_mismatch():
    with pytest.raises(RankMismatchError):
        diff_pairing(mono(2, (1, 0)), mono(3, (1, 0, 0)))


def poly_strategy(rank, max_degree=4):
    monos = [e for d in range(max_degree + 1) for e in monomials(rank, d)]
    coeff = st.integers(-4, 4)
    return st.lists(
        st.tuples(st.sampled_from(monos), coeff), min_size=0, max_size=6
    ).map(lambda pairs: Poly(rank, {
        e: sum(c for ee, c in pairs if ee == e) for e, _ in pairs}))


@settings(max_examples=80)
@given(poly_strategy(3), poly_strategy(3))
def test_pairing_symmetric(f, g):
    assert diff_pairing(f, g) == diff_pairing(g, f)


@settings(max_examples=80)
@given(poly_strategy(3))
def test_pairing_positive_definite(f):
    val = diff_pairing(f, f)
    assert val > 0 if not f.is_zero() else val == 0


# -- Laplacian ---------------------------------------------------------------

def test_laplacian_sign_convention():
    assert laplacian(mono(2, (2, 0))) == Poly.constant(2, -2)
    assert laplacian(mono(2, (1, 1))).is_zero()


@pytest.mark.parametrize("n", [1, 2, 4])
def test_laplacian_radius(n):
    assert laplacian(radius_squared(n)) == Poly.constant(n, -2 * n)


@settings(max_examples=60)
@given(poly_strategy(3, max_degree=4), poly_strategy(3, max_degree=2))
def test_radial_multiplication_adjoint_to_negated_laplacian(f, p):
    lhs = diff_pairing(radius_squared(3) * p, f)
    rhs = diff_pairing(p, -laplacian(f))
    assert lhs == rhs


# -- structure constants -----------------------------------------------------

def test_radial_norm_scale_values():
    assert radial_norm_scale(5, 0, 3) == 1
    assert radial_norm_scale(8, 1, 1) == 2 * (8 + 4 - 2 - 2)
    assert radial_norm_scale(2, 2, 2) == 8 * (2 + 8 - 4 - 2) * (2 + 8 - 4 - 4)


def test_radial_eigenvalue_values():
    assert radial_eigenvalue(4, 0, 2, 3) == 1
    for n in (2, 3, 8):
        for m in (0, 1, 2):
            assert radial_eigenvalue(n, 1, 1, m) == -2 * (n + 2 * m)
    # zero exactly when k > d
    for k in range(5):
        for d in range(5):
            val = radial_eigenvalue(3, k, d, 2)
            assert (val == 0) == (k > d)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_radial_eigenvalue_matches_operator(n):
    # h = x0 x1 is harmonic of degree 2
    h = mono(n, tuple(1 if i < 2 else 0 for i in range(n)))
    r2 = radius_squared(n)
    for d in range(4):
        f = h
        for _ in range(d):
            f = r2 * f
        for k in range(4):
            g = f
            for _ in range(k):
                g = laplacian(g)
            for _ in range(k):
                g = r2 * g
            assert g == f.scale(radial_eigenvalue(n, k, d, 2))


# -- harmonic projection -----------------------------------------------------

@pytest.mark.parametrize("n", range(2, 9))
def test_projector_closed_forms(n):
    assert projector_coeffs(n, 2) == (Fraction(1), Fraction(1, 2 * n))
    assert projector_coeffs(n, 4) == (
        Fraction(1), Fraction(1, 2 * (n + 4)), Fraction(1, 8 * (n + 2) * (n + 4)))
    assert projector_coeffs(n, 6) == (
        Fraction(1), Fraction(1, 2 * (n + 8)), Fraction(1, 8 * (n + 6) * (n + 8)),
        Fraction(1, 48 * (n + 4) * (n + 6) * (n + 8)))


@pytest.mark.parametrize("n", range(1, 9))
def test_projector_defined_and_satisfies_recurrence(n):
    # closed form must solve the defining recurrence
    # c_d = -(1/b(d,d,m-2d)) sum_{k<d} c_k b(k,d,m-2d) for every even degree
    for m in range(0, 19, 2):
        coeffs = projector_coeffs(n, m)
        for d in range(1, m // 2 + 1):
            acc = sum((coeffs[k] * radial_eigenvalue(n, k, d, m - 2 * d)
                       for k in range(d)), Fraction(0))
            expected = -acc / radial_eigenvalue(n, d, d, m - 2 * d)
            assert coeffs[d] == expected


def test_projection_examples():
    n = 3
    xy = mono(n, (1, 1, 0))
    assert harmonic_project(xy) == xy
    x2 = mono(n, (2, 0, 0))
    expected = x2 - radius_squared(n).scale(Fraction(1, n))
    assert harmonic_project(x2) == expected
    assert harmonic_project(radius_squared(n)).is_zero()


def test_projection_requires_homogeneous():
    f = mono(2, (2, 0)) + mono(2, (1, 0))
    with pytest.raises(NotHomogeneousError):
        harmonic_project(f)


def test_projection_annihilates_radial_multiples():
    rng = random.Random(11)
    for n in (2, 3):
        r2 = radius_squared(n)
        for d in (1, 2):
            h = mono(n, tuple(1 if i < 2 else 0 for i in range(n)))
            f = h
            for _ in range(d):
                f = r2 * f
            assert harmonic_project(f).is_zero()


def _random_homogeneous(rng, n, m):
    terms = {e: Fraction(rng.randint(-3, 3)) for e in monomials(n, m)}
    p = Poly(n, terms)
    return p if not p.is_zero() else mono(n, next(iter(monomials(n, m))))


def test_projection_idempotent_and_harmonic():
    rng = random.Random(7)
    for n in range(1, 5):
        for m in range(2, 7):
            f = _random_homogeneous(rng, n, m)
            pf = harmonic_project(f)
            assert laplacian(pf).is_zero()
            assert harmonic_project(pf) == pf


def test_rank_one_harmonics_vanish_in_high_degree():
    # for a single variable the only harmonics are degree <= 1
    for m in (2, 4, 6):
        assert harmonic_project(mono(1, (m,))).is_zero()
    assert harmonic_dimension(1, 2) == 0


def _rank_of_laplacian(n, m):
    basis = list(monomials(n, m))
    low = list(monomials(n, m - 2)) if m >= 2 else []
    idx = {e: i for i, e in enumerate(low)}
    rows = []
    for e in basis:
        img = laplacian(mono(n, e))
        row = [Fraction(0)] * len(low)
        for ee, c in img.terms.items():
            row[idx[ee]] = c
        rows.append(row)
    rank = 0
    r = 0
    for col in range(len(low)):
        piv = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                f = rows[i][col] / rows[r][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
    return r


def test_harmonic_dimension_formula_by_rank():
    for n in range(1, 5):
        for m in range(0, 7):
            kernel = len(list(monomials(n, m))) - _rank_of_laplacian(n, m)
            assert kernel == harmonic_dimension(n, m)
            expected = comb(n + m - 1, n - 1) - (
                comb(n + m - 3, n - 1) if n + m - 3 >= n - 1 else 0)
            assert harmonic_dimension(n, m) == expected


# -- spherical integrals ------------------------------------------------------

@pytest.mark.parametrize("n", range(2, 11))
def test_spherical_integral_reference_values(n):
    den = n * (n + 2) * (n + 4)
    e = lambda *pairs: tuple(dict(pairs).get(i, 0) for i in range(n))
    assert spherical_integral(n, e((0, 6))) == Fraction(15, den)
    assert spherical_integral(n, e((0, 4), (1, 2))) == Fraction(3, den)
    if n >= 3:
        assert spherical_integral(n, e((0, 2), (1, 2), (2, 2))) == Fraction(1, den)
    assert spherical_integral(n, e()) == 1


def test_spherical_integral_odd_exponent_vanishes():
    assert spherical_integral(3, (1, 2, 2)) == 0
    assert spherical_integral(2, (3, 0)) == 0


def test_spherical_integral_trace():
    for n in range(1, 7):
        total = sum(spherical_integral(n, tuple(2 if i == j else 0 for i in range(n)))
                    for j in range(n))
        assert total == 1


def test_spherical_integral_radius_factor():
    # multiplying by r^2 = sum x_i^2 changes nothing on the sphere:
    # summing the integral over each bumped exponent reproduces the original
    rng = random.Random(3)
    for n in (2, 3, 6):
        for _ in range(20):
            a = [rng.randint(0, 3) for _ in range(n)]
            while sum(a) > 4:
                a[a.index(max(a))] -= 1
            exps = tuple(2 * x for x in a)
            bumped = sum(
                spherical_integral(
                    n, tuple(e + (2 if i == j else 0) for i, e in enumerate(exps)))
                for j in range(n))
            assert bumped == spherical_integral(n, exps)


# -- pair polynomial ----------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 3, 8])
def test_pair_poly_first_cases(n):
    assert pair_poly(n, 0) == (Fraction(1),)
    assert pair_poly(n, 1) == (Fraction(1, 2), Fraction(-1, 2 * n))
    assert pair_poly(n, 2) == (
        Fraction(1, 24), Fraction(-1, 4 * (n + 4)),
        Fraction(1, 8 * (n + 4) * (n + 2)))


def test_projector_and_pair_poly_need_a_positive_rank():
    # every denominator factor is at least the rank, so rank >= 1 is the one check
    for call in (lambda: projector_coeffs(0, 2), lambda: pair_poly(0, 1),
                 lambda: pair_poly(-1, 2)):
        with pytest.raises(ValueError, match="rank must be >= 1"):
            call()


def test_pair_poly_implicit_system():
    # sum_k p_{m-k} / a_{k,m} == c^{2m} / (2m)! as exact polynomials
    from math import factorial
    for n in range(1, 11):
        for m in range(0, 9):
            acc = {}
            for k in range(m + 1):
                sub = pair_poly(n, m - k)
                scale = Fraction(1, radial_norm_scale(n, k, m))
                for i, c in enumerate(sub):
                    e = 2 * (m - k) - 2 * i
                    acc[e] = acc.get(e, Fraction(0)) + c * scale
            acc = {e: c for e, c in acc.items() if c}
            assert acc == {2 * m: Fraction(1, factorial(2 * m))}


# -- combinatorial sums -------------------------------------------------------

def test_binomial_delta_values():
    assert binomial_delta(3, 4) == 0
    assert binomial_delta(2, -1) == 1
    assert binomial_delta(1, -1) == -1


def test_binomial_delta_vanishing_and_sign():
    for d in range(1, 9):
        for w in range(-12, 13):
            val = binomial_delta(d, w)
            if w == -1:
                # measured sign is (-1)^d under the forced binomial convention
                assert val == (-1) ** d
            else:
                assert val == 0


def test_binomial_telescope_values():
    assert binomial_telescope(0, 7) == 7
    assert binomial_telescope(1, 3) == 0
    assert binomial_telescope(2, -4) == 0
    for w in range(-12, 13):
        assert binomial_telescope(0, w) == w
        for r in range(1, 9):
            assert binomial_telescope(r, w) == 0


def test_monomial_count():
    for n in (1, 2, 3, 4):
        for m in range(6):
            assert len(list(monomials(n, m))) == comb(n + m - 1, n - 1)
