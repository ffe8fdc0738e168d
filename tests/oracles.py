"""Pure-Python reference loops for the shell search, the level and the
pairing kernel in ``thetainv.lattice``, and for the reductions in
``thetainv.theta``.

Each one works on explicit vectors with Python integers, so it shares no
arithmetic with the numpy code.  The reduction loops sum their polynomials
bucket by bucket (or vector by vector) in Fractions, where the library forms
integer power sums.  The tests require the library to equal these exactly.
"""

from collections import Counter
from fractions import Fraction
from itertools import product
from math import factorial, isqrt, lcm, prod
from operator import mul

from thetainv.harmonic import projector_coeffs
from thetainv.theta import _moment_patterns, pair_term


def enumerate_shells(gram2, bound) -> dict[int, list[tuple[int, ...]]]:
    """Depth-first Fincke-Pohst enumeration of all v with norm <= bound,
    by shell, each shell sorted.

    The quadratic form is written as sum_i d_i (v_i + c_i(v))^2 from the LDL^T
    decomposition; all comparisons are cleared of denominators up front.
    """
    n = len(gram2)
    m = [[Fraction(x) for x in row] for row in gram2]
    d = []
    u = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        d.append(m[i][i])
        for j in range(i + 1, n):
            u[i][j] = m[i][j] / d[i]
        for r in range(i + 1, n):
            for c in range(r, n):
                m[r][c] -= m[i][r] * m[i][c] / d[i]
                m[c][r] = m[r][c]
    dn = [x.numerator for x in d]
    dd = [x.denominator for x in d]
    cden = []
    cnum = []
    for i in range(n):
        den = 1
        for j in range(i + 1, n):
            den = lcm(den, u[i][j].denominator)
        cden.append(den)
        cnum.append([int(u[i][j] * den) for j in range(i + 1, n)])
    big = 1
    for i in range(n):
        big = lcm(big, dd[i] * cden[i] * cden[i])
    mult = [dn[i] * (big // (dd[i] * cden[i] * cden[i])) for i in range(n)]

    target = 2 * bound * big
    shells = {k: [] for k in range(bound + 1)}
    v = [0] * n

    def descend(i, acc):
        if i < 0:
            q = acc // (2 * big)
            assert acc % (2 * big) == 0
            shells[q].append(tuple(v))
            return
        cn = cnum[i]
        c = sum(cn[j - i - 1] * v[j] for j in range(i + 1, n))
        cd = cden[i]
        rem = target - acc
        a = mult[i]
        # a * (x*cd + c)^2 <= rem  <=>  |x*cd + c| <= s with s = isqrt(rem // a);
        # bounds are exact: x in [ceil((-c - s)/cd), floor((-c + s)/cd)]
        s = isqrt(rem // a)
        lo = -((c + s) // cd)
        hi = (-c + s) // cd
        for x in range(lo, hi + 1):
            t = x * cd + c
            add = a * t * t
            if add <= rem:
                v[i] = x
                descend(i - 1, acc + add)
        v[i] = 0

    descend(n - 1, 0)
    return {k: sorted(vs) for k, vs in shells.items()}


def invert_rational(a) -> list[list[Fraction]]:
    """Exact inverse of an integer matrix over the rationals, by Gauss-Jordan
    elimination with row pivoting in Fractions."""
    n = len(a)
    aug = [[Fraction(a[i][j]) for j in range(n)]
           + [Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            raise ZeroDivisionError("matrix is singular")
        aug[col], aug[piv] = aug[piv], aug[col]
        p = aug[col][col]
        aug[col] = [x / p for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def _times_gram(matrix, vectors):
    """M w for every w, as tuples of Python ints."""
    return [tuple(sum(map(mul, row, w)) for row in matrix) for w in vectors]


def pair_histogram(lattice, s1, s2) -> dict[int, int]:
    """Counts of v^T gram2 w over s1 x s2."""
    rows = _times_gram(lattice.gram2, s2)
    return dict(Counter(sum(map(mul, v, aw)) for v in s1 for aw in rows))


def bilinear_sum(lattice, metric, s1, s2) -> int:
    """Sum of (v^T gram2 w)(v^T metric w) over s1 x s2: the reference for
    the moment-matrix traces of the triple invariant."""
    rows_a = _times_gram(lattice.gram2, s2)
    rows_b = _times_gram(metric, s2)
    return sum(sum(map(mul, v, aw)) * sum(map(mul, v, bw))
               for v in s1 for aw, bw in zip(rows_a, rows_b))


def moment_matrix(vectors, n) -> tuple[tuple[int, ...], ...]:
    """Sum of v v^T over the vectors (each of length n), in Python ints."""
    return tuple(tuple(sum(v[i] * v[j] for v in vectors) for j in range(n))
                 for i in range(n))


def tuple_histogram(lattice, shells) -> dict[tuple[int, ...], int]:
    """Counts of (inner2(v_a, v_b) for a < b) over every tuple of vectors
    drawn from ``shells``, one shell per slot."""
    k = len(shells)
    slots = [(a, b) for a in range(k) for b in range(a + 1, k)]
    return dict(Counter(
        tuple(lattice.inner2(vs[a], vs[b]) for a, b in slots)
        for vs in product(*shells)))


def pair_coeffs(n, m, order, hist) -> list[Fraction]:
    """theta_pair's coefficients, with hist(k1, k2) the pair histogram of
    shells k1 and k2: one pair_term per bucket."""
    coeffs = []
    for k in range(order + 1):
        total = Fraction(0)
        for k1 in range(k + 1):
            for t, cnt in hist(k1, k - k1).items():
                total += cnt * pair_term(n, m, k1, k - k1, t)
        coeffs.append(total)
    return coeffs


def composition_poly(n, degrees, norms) -> dict[tuple[int, ...], Fraction]:
    """theta_general's per-tuple polynomial in the doubled pairings for
    vectors of the given norms, in Fractions with the norms substituted
    from the start: {pairing exponents: coefficient}, zero terms dropped.

    Slot l carries sum_j (-1)^j r_{j,2m_l} norm^j / (2m_l-2j)! times
    (x . v)^{2m_l - 2j}; the product is averaged with _moment_patterns, the
    diagonal s_aa are the norms and s_ab = t_ab / 2.
    """
    slots = [[Fraction((-1) ** j) * projector_coeffs(n, 2 * m).coeffs[j]
              * Fraction(a) ** j / factorial(2 * m - 2 * j) for j in range(m + 1)]
             for m, a in zip(degrees, norms)]
    poly = {}
    for js in product(*(range(m + 1) for m in degrees)):
        coef = prod((slot[j] for slot, j in zip(slots, js)), start=Fraction(1))
        exps = tuple(2 * m - 2 * j for m, j in zip(degrees, js))
        for diag, off, w in _moment_patterns(n, exps):
            c = coef * w * prod(Fraction(a) ** d for a, d in zip(norms, diag))
            poly[off] = poly.get(off, Fraction(0)) + c / Fraction(2) ** sum(off)
    return {e: c for e, c in poly.items() if c}


def general_coeffs(n, degrees, order, hist) -> list[Fraction]:
    """theta_general's raw ("general") coefficients, with hist(comp) the
    tuple histogram of the shells comp: the composition polynomial evaluated
    at every bucket."""
    coeffs = [Fraction(0)] * (order + 1)
    for comp in product(range(order + 1), repeat=len(degrees)):
        if sum(comp) > order:
            continue
        poly = composition_poly(n, degrees, comp)
        for key, cnt in hist(comp).items():
            coeffs[sum(comp)] += cnt * sum(
                c * prod(t**e for t, e in zip(key, exps)) for exps, c in poly.items())
    return coeffs


def spherical_coeffs(h, emb, shells) -> list[Fraction]:
    """spherical_theta's coefficients: h evaluated at the coordinates
    (rows of ``emb`` weighted by v) of every vector v of each shell."""
    n = len(emb)
    coeffs = []
    for shell in shells:
        total = Fraction(0)
        for v in shell:
            total += h.evaluate([sum(Fraction(v[i]) * emb[i][j] for i in range(n))
                                 for j in range(n)])
        coeffs.append(total)
    return coeffs
