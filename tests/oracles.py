"""Pure-Python reference loops for the shell search and the pairing kernel
in ``thetainv.lattice``.

Each one works on explicit vectors with Python integers, so it shares no
arithmetic with the numpy code.  The tests require that code to equal these
exactly.
"""

from collections import Counter
from fractions import Fraction
from itertools import product
from math import isqrt, lcm
from operator import mul


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
