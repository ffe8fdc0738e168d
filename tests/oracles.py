"""Pure-Python reference loops for the pairing kernel in ``ShellTable``.

Each one walks every pair or tuple of vectors explicitly with Python
integers, so it shares no arithmetic with the numpy kernel.  The tests
require the kernel to equal these exactly.
"""

from collections import Counter
from itertools import product
from operator import mul


def _times_gram(matrix, vectors):
    """M w for every w, as tuples of Python ints."""
    return [tuple(sum(map(mul, row, w)) for row in matrix) for w in vectors]


def pair_histogram(lattice, s1, s2) -> dict[int, int]:
    """Counts of v^T gram2 w over s1 x s2."""
    rows = _times_gram(lattice.gram2, s2)
    return dict(Counter(sum(map(mul, v, aw)) for v in s1 for aw in rows))


def bilinear_sum(lattice, metric, s1, s2) -> int:
    """Sum of (v^T gram2 w)(v^T metric w) over s1 x s2."""
    rows_a = _times_gram(lattice.gram2, s2)
    rows_b = _times_gram(metric, s2)
    return sum(sum(map(mul, v, aw)) * sum(map(mul, v, bw))
               for v in s1 for aw, bw in zip(rows_a, rows_b))


def tuple_histogram(lattice, shells) -> dict[tuple[int, ...], int]:
    """Counts of (inner2(v_a, v_b) for a < b) over every tuple of vectors
    drawn from ``shells``, one shell per slot."""
    k = len(shells)
    slots = [(a, b) for a in range(k) for b in range(a + 1, k)]
    return dict(Counter(
        tuple(lattice.inner2(vs[a], vs[b]) for a, b in slots)
        for vs in product(*shells)))
