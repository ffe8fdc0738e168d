"""Integral lattices given by the doubled Gram matrix, with exact shell
enumeration and pair statistics.

A lattice of rank n is stored through the symmetric integer matrix
``gram2`` = twice the Gram matrix, which must have even diagonal entries.
Squared vector lengths are (1/2) v^T gram2 v and are always integers; the
doubled pairing v^T gram2 w keeps all pair statistics integral.

One fraction-free integer elimination of gram2, run once per lattice and
cached, gives the positive-definiteness check, the discriminant, the
adjugate that the level is read from, and the pivot rows r_k that the
shell search reads as its integer constants: with D_k the leading
principal minors (D_0 = 1), v^T gram2 v = sum_k (r_k . v)^2 / (D_k D_{k+1}).
The search runs in integers with integer square roots; a float64 square
root enters only where integer steps then correct it.  Products of
integer arrays run in float64 (BLAS) only when a bound shows that every
partial sum is an integer below 2^53, which float64 represents exactly
whatever order the sum is taken in; otherwise in int64 below 2^62, and in
Python integers beyond that.

Every pair or tuple statistic depends only on the Gram matrix of each
tuple, so a shell k >= 1 enters it only through one vector of each +-v
pair: a table stores its upper half U_k, the vectors whose last nonzero
coordinate is positive, in colex order (coordinate n-1 most significant),
as the shell search finds them, in one integer numpy array, and the disk
cache stores every shell's rows in one array of an ``.npz`` file, each row
read back into the shell of its own norm.  Every summand is even in each
of its vectors (each slot carries a harmonic of even degree), so a
histogram runs each later slot over U_k alone, which its caller doubles,
and slot 0 over one vector per orbit of a group of isometries, weighted
by the orbit size.  On a table with roots (the vectors of norm 1) that
group is W, generated by the reflections in them, whose orbits come from
the dominant vectors and the orders of the parabolic subgroups, each a
product over the heights of its positive roots, their pairings with the
Weyl vector (``ShellTable.orbits``).  Small cells and tables without roots
use {+-I}, whose orbits are the pairs +-v, one row of U_k each
(``ShellTable.slot_zero``).
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import zipfile
from dataclasses import dataclass
from functools import cached_property
from math import gcd, isqrt, lcm, prod
from operator import mul
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import (
    NotPositiveDefiniteError,
    NotSymmetricError,
    OddDiagonalError,
    RankMismatchError,
)

Vector = tuple[int, ...]
IntMatrix = tuple[tuple[int, ...], ...]

SHELL_CACHE_FORMAT = 5

# int64 safety margin of the pairing kernel and of the shell search
_INT64_LIMIT = 2**62
# float64 holds every integer of smaller magnitude exactly
_FLOAT64_LIMIT = 2**53
# entries per pairing block, and per chunk cast from a stored shell, which
# bounds the kernel's transient memory: 512 KB in float64, near cache size;
# blocks of 2^20 entries (8 MB) ran up to 1.5x slower on the e8 cells
_BLOCK = 1 << 16
# rows of shell k1 per pair-histogram tile: each tile casts shell k2 again,
# which costs rank / _TILE_ROWS of the tile's own work
_TILE_ROWS = 1 << 10
# a histogram cell reads the orbits of its slot-0 shell when its work under
# H = {+-I} is at least this many pairs, one pairing block: below that,
# building the orbit data costs more than it saves
_ORBIT_PAIRS = _BLOCK
# packed tuple keys per np.unique call of tuple_histogram
_TUPLE_KEYS = 4_000_000
# frontier rows the shell search expands at once
_CHUNK = 1 << 16
# the dtypes a shell is stored in, narrowest first
_SHELL_DTYPES = (np.int8, np.int16, np.int32, np.int64)


def _as_int(x, i: int, j: int) -> int:
    try:
        if int(x) == x:
            return int(x)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValueError(f"entry ({i},{j}) = {x!r} is not an integer")


def _as_int_matrix(rows: Iterable[Iterable[int]]) -> IntMatrix:
    """The rows as Python ints; ValueError names the first entry that is
    not an integer, as 2.5 or "2" are not (2.0 is)."""
    return tuple(tuple(_as_int(x, i, j) for j, x in enumerate(row))
                 for i, row in enumerate(rows))


class _Elimination(NamedTuple):
    pivots: list[int]
    rows: list[list[int]]
    adj: list[list[int]] | None


def _eliminate(a: IntMatrix) -> _Elimination:
    """Gauss-Jordan elimination of [A | I] without pivoting, fraction-free
    (Bareiss, Math. Comp. 22, 1968), stopped at the first pivot that is not
    positive.

    The pivot of step k is the leading principal minor D_{k+1} of order
    k + 1 (D_0 = 1), and each division by the previous pivot is exact
    (Sylvester's identity).  At step k the pivot row holds r_kj, the minor
    of rows 0..k and columns 0..k-1, j.  When all n pivots are positive, A
    is positive definite, the last pivot is det A, the right-hand block
    ends as adj A, and A = U^T D U with d_k = D_{k+1} / D_k and
    u_kj = r_kj / D_{k+1}, that is A = sum_k r_k^T r_k / (D_k D_{k+1}).
    ``adj`` is None after a stop.
    """
    n = len(a)
    m = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(a)]
    pivots: list[int] = []
    rows: list[list[int]] = []
    prev = 1
    for k in range(n):
        pivot, pivot_row = m[k][k], m[k]
        pivots.append(pivot)
        if pivot <= 0:
            return _Elimination(pivots, rows, None)
        rows.append(pivot_row[:n])
        for i in range(n):
            if i != k:
                row = m[i]
                f = row[k]
                m[i] = [(pivot * x - f * y) // prev for x, y in zip(row, pivot_row)]
        prev = pivot
    return _Elimination(pivots, rows, [row[n:] for row in m])


@dataclass(frozen=True)
class IntegralLattice:
    """Positive-definite integral lattice stored as twice its Gram matrix."""

    gram2: IntMatrix
    name: str | None = None

    @property
    def rank(self) -> int:
        return len(self.gram2)

    def inner2(self, v: Sequence[int], w: Sequence[int]) -> int:
        """Doubled inner product v^T gram2 w (twice the geometric pairing)."""
        n = self.rank
        if len(v) != n or len(w) != n:
            raise RankMismatchError(f"vectors must have length {n}")
        return sum(vi * sum(map(mul, row, w)) for vi, row in zip(v, self.gram2) if vi)

    def norm(self, v: Sequence[int]) -> int:
        """Integer squared length (1/2) v^T gram2 v."""
        q = self.inner2(v, v)
        assert q % 2 == 0
        return q // 2

    def discriminant(self) -> int:
        return self._elimination.pivots[-1]

    def level(self) -> int:
        """Smallest N > 0 with N * gram2^{-1} integral and even on the diagonal."""
        return self._level

    # computed once per lattice: cached_property writes the instance
    # __dict__ directly, which a frozen dataclass allows
    @cached_property
    def _elimination(self) -> _Elimination:
        return _eliminate(self.gram2)

    @cached_property
    def _level(self) -> int:
        # gram2^{-1} = adj / det, so with g = gcd(det, adj) the lcm of its
        # denominators is det / g, and N * gram2^{-1} = adj / g at N = det / g
        det, adj = self.discriminant(), self._elimination.adj
        g = gcd(det, *(x for row in adj for x in row))
        diag_even = all(adj[i][i] // g % 2 == 0 for i in range(self.rank))
        return det // g if diag_even else 2 * det // g

    def label(self) -> str:
        return self.name if self.name else f"lattice-{content_hash(self.gram2)[:12]}"

    def __repr__(self) -> str:
        return f"IntegralLattice(rank={self.rank}, name={self.name!r})"


def validate_lattice(gram2: Iterable[Iterable[int]], name: str | None = None) -> IntegralLattice:
    """Check symmetry, even diagonal and positive definiteness; certify exactly."""
    a = _as_int_matrix(gram2)
    n = len(a)
    if n == 0 or any(len(row) != n for row in a):
        raise NotSymmetricError("matrix must be square and non-empty")
    for i in range(n):
        for j in range(i + 1, n):
            if a[i][j] != a[j][i]:
                raise NotSymmetricError(f"entries ({i},{j}) and ({j},{i}) differ")
    for i in range(n):
        if a[i][i] % 2 != 0:
            raise OddDiagonalError(f"diagonal entry ({i},{i}) = {a[i][i]} is odd")
    lattice = IntegralLattice(a, name)
    pivots = lattice._elimination.pivots
    if pivots[-1] <= 0:
        raise NotPositiveDefiniteError(
            f"leading principal minor of order {len(pivots)} is {pivots[-1]}")
    return lattice


def change_basis(lattice: IntegralLattice, u: Iterable[Iterable[int]]) -> IntegralLattice:
    """Lattice with Gram data U^T A U for a unimodular integer matrix U."""
    um = _as_int_matrix(u)
    n = lattice.rank
    if len(um) != n or any(len(row) != n for row in um):
        raise RankMismatchError("basis-change matrix has wrong shape")
    a = lattice.gram2
    au = [[sum(a[i][k] * um[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    moved = IntegralLattice(
        tuple(tuple(sum(um[k][i] * au[k][j] for k in range(n)) for j in range(n))
              for i in range(n)), lattice.name)
    # U^T A U is symmetric with even diagonal, positive definite exactly when
    # U is invertible, and of determinant det(U)^2 det A: its elimination
    # ends at det A > 0 exactly when U is unimodular
    if moved._elimination.pivots[-1] != lattice.discriminant():
        raise ValueError("basis-change matrix must have determinant +-1")
    return moved


def random_unimodular(rank: int, rng) -> list[list[int]]:
    """Random determinant +-1 integer matrix built from 12 elementary operations."""
    u = [[1 if i == j else 0 for j in range(rank)] for i in range(rank)]
    for _ in range(12):
        op = rng.randrange(3)
        i = rng.randrange(rank)
        j = rng.randrange(rank)
        if op == 0 and i != j:
            c = rng.choice((-2, -1, 1, 2))
            for k in range(rank):
                u[i][k] += c * u[j][k]
        elif op == 1 and i != j:
            u[i], u[j] = u[j], u[i]
        elif op == 2:
            u[i] = [-x for x in u[i]]
    return u


def _isqrt_int64(r: np.ndarray) -> np.ndarray:
    """Exact floor(sqrt(r)) of a nonnegative int64 array below 2^62.  The
    float64 root of such an r is off by far less than one, so its
    truncation is off by at most one, and one integer step each way
    corrects it (in practice only the downward step ever fires)."""
    s = np.sqrt(r).astype(np.int64)
    s -= s * s > r
    s += (s + 1) * (s + 1) <= r
    return s


_isqrt_object = np.frompyfunc(isqrt, 1, 1)


def _narrow(v: np.ndarray) -> np.ndarray:
    """v in the narrowest stored dtype whose symmetric range [-max, max]
    holds every entry, numpy object when none does.  Negating a stored
    vector therefore never overflows."""
    top = max(abs(int(v.max())), abs(int(v.min()))) if v.size else 0
    for dtype in _SHELL_DTYPES:
        if top <= np.iinfo(dtype).max:
            return v.astype(dtype, copy=False)
    return v.astype(object, copy=False)


def _enumerate(lattice: IntegralLattice, bound: int) -> dict[int, np.ndarray]:
    """The zero vector as shell 0 and, for 1 <= k <= bound, the upper half
    U_k of shell k in colex order: the Fincke-Pohst search run level by
    level over numpy frontiers, in exact integers only.

    Its constants are the pivot rows r_i of the lattice's cached
    elimination, read as integers.  r_ij = 0 for j < i and r_ii = D_{i+1},
    so v^T gram2 v = sum_i (r_i . v)^2 / (D_i D_{i+1}) (``_eliminate``).
    With big the lcm of the D_i D_{i+1} and mult_i = big / (D_i D_{i+1}),
    2 * big * norm is sum_i mult_i t_i^2, where t_i = D_{i+1} v_i + c and
    the centre c = r_i[i+1:] . v[i+1:] is an integer.  A frontier row holds
    the coordinates i+1..n-1 chosen so far (the others 0), in the narrowest
    of int8..int64 that holds every bound vmax, and ``acc``, their part of
    2 * big * norm.  Its centre c = v[:, i+1:] @ cvec[i] is a float64 (BLAS)
    product while ``limit`` < 2^53: each partial sum is at most cmax <= limit
    in magnitude, an integer float64 holds exactly whatever order BLAS sums
    in, as in ``_exact_dtype``.  Frontier chunks wait on a stack, and no
    chunk expands to more than _CHUNK rows at once (unless one row alone has
    more children), so transient memory stays bounded.

    Every shell is closed under v -> -v, so the search finds only half of
    it (Fincke & Pohst, Math. Comp. 44, 1985): the all-zero row takes only
    x >= 0, so the search finds 0 and U_k, the vectors whose last nonzero
    coordinate is positive.  Every nonzero partial row so has a positive
    last nonzero coordinate and follows the all-zero row in colex order: a
    chunk carries whether its row 0 is the all-zero row.  The search sorts
    nothing: it runs from the last coordinate inward, every frontier is in
    colex order, each row's children follow it in increasing x, and the
    chunks of each frontier are popped in order, depth first, so every U_k
    comes out in colex order.
    """
    n = lattice.rank
    pivots, pivot_rows, _ = lattice._elimination
    cnum = [row[i + 1:] for i, row in enumerate(pivot_rows)]
    dens = [p * q for p, q in zip([1, *pivots], pivots)]
    big = lcm(*dens)
    mult = [big // den for den in dens]
    target = 2 * bound * big

    # Bound every intermediate: at level i, |s| <= smax, |c| <= cmax and
    # |v_i| <= vmax[i], so that |x * cd + c| and |c + s| stay below limit;
    # acc and mult * t^2 never exceed target, and mult <= big.
    vmax = [0] * n
    limit = max(target, 2 * big)
    for i in reversed(range(n)):
        cmax = sum(abs(x) * vmax[j] for j, x in enumerate(cnum[i], i + 1))
        smax = isqrt(target // mult[i])
        vmax[i] = (cmax + smax) // pivots[i] + 1
        limit = max(limit, (smax + 1) ** 2, vmax[i] * pivots[i] + cmax + smax)
    dtype = np.int64 if limit < _INT64_LIMIT else object
    root = _isqrt_int64 if dtype is np.int64 else _isqrt_object
    cvec = [np.array(row, dtype=_bound_dtype(limit)) for row in cnum]

    found: dict[int, list[np.ndarray]] = {k: [] for k in range(bound + 1)}
    # a stack entry is (level, rows, acc, whether row 0 is the all-zero row)
    rows = np.zeros((1, n), dtype=_narrow(np.array(vmax)).dtype)
    stack = [(n - 1, rows, np.zeros(1, dtype=dtype), True)]
    while stack:
        i, v, acc, zero = stack.pop()
        chunks = []
        c = (v[:, i + 1:] @ cvec[i]).astype(dtype, copy=False)
        cd = pivots[i]
        # a * (x*cd + c)^2 <= rem  <=>  |x*cd + c| <= s with s = isqrt(rem // a),
        # so x runs over [lo, hi] = [ceil((-c - s)/cd), floor((-c + s)/cd)]
        s = root((target - acc) // mult[i])
        lo = -((c + s) // cd)
        if zero:
            # c = 0 on the all-zero row, so its range is [-hi, hi] with
            # hi >= 0: its children x >= 0 are one of each +-v pair
            lo[0] = 0
        counts = (s - c) // cd - lo + 1
        try:
            counts = counts.astype(np.int64)
        except OverflowError:
            raise MemoryError(f"the shell search would expand {counts.sum()} partial "
                              f"vectors at level {i}") from None
        ends = np.cumsum(counts)
        start = 0
        while start < len(v):
            first = ends[start] - counts[start]
            stop = max(start + 1, int(np.searchsorted(ends, first + _CHUNK, side="right")))
            part, size = slice(start, stop), counts[start:stop]
            # the j-th child of row r takes x = lo[r] + j, and row r's
            # children begin at ends[r] - size[r] - first in the chunk
            x = np.arange(ends[stop - 1] - first) + np.repeat(
                lo[part] - (ends[part] - size - first), size)
            t = x * cd + np.repeat(c[part], size)
            child = np.repeat(v[part], size, axis=0)
            child[:, i] = x
            child_acc = np.repeat(acc[part], size) + mult[i] * t * t
            if i:
                # the all-zero row's first child, x = 0, is all zero again
                chunks.append((i - 1, child, child_acc, zero and not start))
            else:
                assert not (child_acc % (2 * big)).any()
                q = (child_acc // (2 * big)).astype(np.int64)
                child = _narrow(child)
                for k in range(bound + 1):
                    found[k].append(child[q == k])
            start = stop
        # the first chunk is popped first
        stack.extend(reversed(chunks))
    return {k: np.concatenate(parts) for k, parts in found.items()}


def content_hash(gram2: IntMatrix, bound: int | None = None) -> str:
    """Hash of the Gram data; with a bound it keys a shell cache file, and
    then the cache format enters it too."""
    payload = {"gram2": [list(r) for r in gram2]}
    if bound is not None:
        payload.update(bound=bound, format=SHELL_CACHE_FORMAT)
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def _exact_dtype(*factors: np.ndarray) -> type:
    """The dtype in which the product factors[0] @ factors[1] @ ... is exact.

    Every partial sum of the product is bounded by the product of the inner
    dimensions and of the largest entry of each factor.  Below 2^53 that is
    float64: each partial sum is then an integer float64 represents exactly,
    so BLAS is exact in whatever order it sums.  Below 2^62 it is int64,
    above that numpy object (Python ints).
    """
    bound = 1
    for f in factors[:-1]:
        bound *= f.shape[-1]
    for f in factors:
        if f.size:
            bound *= max(abs(int(f.max())), abs(int(f.min())), 1)
    return _bound_dtype(bound)


def _bound_dtype(bound: int) -> type:
    """float64 below 2^53, int64 below 2^62, numpy object beyond."""
    if bound < _FLOAT64_LIMIT:
        return np.float64
    return np.int64 if bound < _INT64_LIMIT else object


def monomial_sums(x: np.ndarray, weights: np.ndarray,
                  monomials: Sequence[Sequence[int]]) -> list[int]:
    """Exact sums over the rows i of weights_i * prod_j x_ij^e_j, one for
    each exponent tuple e in ``monomials``, as Python ints.

    With ``bound`` the largest product of the largest entries of a
    monomial's factors, the monomial values are formed in int64 when it is
    below 2^62 and in Python ints otherwise.  Their dot products with the
    weights are bounded by rows * max |weight| * bound, which picks their
    dtype as in ``_exact_dtype``.
    """
    top = np.abs(x).max(axis=0, initial=1).tolist()
    bound = max((prod(t**k for t, k in zip(top, e)) for e in monomials), default=1)
    dtype = np.int64 if bound < _INT64_LIMIT else object
    exps = np.array(monomials, dtype=dtype).reshape(-1, x.shape[1])
    values = np.ones((len(x), len(exps)), dtype=dtype)
    for j, col in enumerate(x.T.astype(dtype)):
        values *= col[:, None] ** exps[:, j]
    dot = _bound_dtype(len(x) * int(np.abs(weights).max(initial=1)) * bound)
    return [int(s) for s in weights.astype(dot) @ values.astype(dot)]


def _checked(blocks: Iterable[np.ndarray], k1: int, k2: int) -> Iterator[np.ndarray]:
    """Pairing blocks of vectors of norms k1 and k2 as int64, checked
    against Cauchy-Schwarz: |v^T A w| <= 2 sqrt(k1 k2), so a value outside
    +-isqrt(4 k1 k2) can only come from vectors without those norms."""
    tmax = isqrt(4 * k1 * k2)
    for block in blocks:
        if block.size and (block.min() < -tmax or block.max() > tmax):
            raise ValueError(_inconsistent(k1, k2, tmax))
        yield block.astype(np.int64, copy=False)


def _reflection_order(heights: np.ndarray) -> int:
    """|W| of a finite reflection group from the heights of its positive
    roots: the product of (ht + 1) / ht over them (I. G. Macdonald, "The
    Poincare series of a Coxeter group", Math. Ann. 199, 1972), in Python
    ints."""
    heights = heights.tolist()
    return prod(h + 1 for h in heights) // prod(heights)


class _Roots(NamedTuple):
    simple: np.ndarray      # row indices of the simple roots in U_1
    heights: np.ndarray     # the height of each positive root, the rows of U_1
    order: int              # |W|


def _inconsistent(k1: int, k2: int, tmax: int) -> str:
    return (f"a pairing of shells {k1} and {k2} exceeds +-{tmax}: "
            f"the shell table is inconsistent")


class Shell(np.ndarray):
    """The vectors of one shell, one per row, as a read-only integer array.

    Like a sequence of vectors, and unlike a plain array, it is true
    exactly when it holds a vector, and iterating it yields each vector as
    a tuple of Python ints (a row yields Python ints), so no narrow numpy
    scalar reaches Python arithmetic.  What is computed from it is a plain
    array.
    """

    def __bool__(self) -> bool:
        return len(self) > 0

    def __iter__(self) -> Iterator:
        if self.ndim != 2:
            return iter(self.tolist())
        # each chunk's Python ints, flat, cut into row tuples by zip
        return (row for start in range(0, len(self), _CHUNK) for row in
                zip(*[iter(self[start:start + _CHUNK].ravel().tolist())] * self.shape[1]))

    def __array_wrap__(self, array, context=None, return_scalar=False):
        return array[()] if return_scalar else array.view(np.ndarray)


def _as_shell(rows, n: int) -> np.ndarray:
    """Rows of one shell as a plain read-only (len, n) ndarray of a stored
    dtype, whatever ndarray subclass (such as ``Shell``) ``rows`` is."""
    if not isinstance(rows, np.ndarray):
        rows = np.array(rows, dtype=object).reshape(len(rows), n)
    v = _narrow(np.asarray(rows)).view()
    v.flags.writeable = False
    return v


def _strictly_increasing(v: np.ndarray) -> bool:
    """Whether the rows of v are in strictly increasing lexicographic order.

    A row of fixed-width integers orders as the bytes of its entries, each
    written big-endian with its sign bit flipped, so each row is compared
    as one byte string, in one numpy pass (numpy ignores trailing NUL
    bytes, which changes no comparison of strings of one length).  Rows of
    Python ints (numpy object) compare as lists."""
    if v.dtype == object:
        rows = v.tolist()
        return all(a < b for a, b in zip(rows, rows[1:]))
    size = v.dtype.itemsize
    flipped = v.view(f"u{size}") ^ np.array(1 << (8 * size - 1), dtype=f"u{size}")
    keys = np.ascontiguousarray(flipped, dtype=f">u{size}").view(f"S{size * v.shape[1]}")
    return bool((keys[1:] > keys[:-1]).all())


def _check_shell(k: int, v: np.ndarray) -> None:
    """Raise ValueError unless the stored shell 0 is the zero vector alone
    and a stored shell k >= 1 is strictly increasing in colex order with a
    positive last nonzero coordinate in every row.

    Colex order is the lexicographic order of the rows read from their last
    coordinate, so the rows with the columns reversed are checked.  A row
    is above zero in it exactly when its last nonzero coordinate is
    positive, so in strictly increasing rows every row is when the first
    one is."""
    if k == 0:
        if len(v) != 1 or v.any():
            raise ValueError("shell 0 must hold the zero vector alone")
    elif not (_strictly_increasing(v[:, ::-1])
              and all(row > [0] * len(row) for row in v[:1, ::-1].tolist())):
        raise ValueError(f"shell {k} is not strictly increasing in colex order with a "
                         f"positive last nonzero coordinate in every row")


class ShellTable:
    """All lattice vectors up to a norm bound, grouped by exact norm, plus
    lazily built pair statistics.

    ``shells`` maps 0 to the zero vector and each k >= 1 to the upper half
    U_k of shell k: the vectors whose last nonzero coordinate is positive,
    one of each +-v pair, in colex order, which the constructor checks
    (``_check_shell``).  Each is stored as one integer array in the
    narrowest dtype that holds it (``_narrow``); only ``shell`` and
    ``sizes`` speak of whole shells.  Immutable after construction apart
    from the caches of read-only pair histograms, moment matrices and orbit
    data, deterministic functions of the shells.  Every pairing goes through
    one kernel, ``pairings``, which casts the stored arrays chunk by chunk
    to its exact dtype.
    """

    def __init__(self, lattice: IntegralLattice, bound: int,
                 shells: dict[int, np.ndarray | Sequence[Vector]]):
        self.lattice = lattice
        self.bound = bound
        self._shells: dict[int, np.ndarray] = {
            k: _as_shell(shells.get(k, ()), lattice.rank) for k in range(bound + 1)}
        for k, v in self._shells.items():
            _check_shell(k, v)
        self._gram2 = _narrow(np.array(lattice.gram2, dtype=object))
        self._pair_hists: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}
        self._moments: dict[int, tuple[tuple[int, ...], ...]] = {}
        self._orbits: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def shell(self, k: int) -> Shell:
        """The vectors of norm k, one per row in colex order, built from
        U_k as -U_k reversed, then U_k (the symmetric stored range makes
        that negation safe); ``.tolist()`` gives them as lists of Python ints."""
        if not 0 <= k <= self.bound:
            raise IndexError(f"shell {k} beyond enumeration bound {self.bound}")
        v = self._shells[k]
        if k:
            v = np.concatenate([-v[::-1], v])
            v.flags.writeable = False
        return v.view(Shell)

    def sizes(self) -> dict[int, int]:
        """The number of vectors of each norm k <= bound."""
        return {k: 2 * len(v) if k else len(v) for k, v in self._shells.items()}

    # -- the pairing kernel ------------------------------------------------

    def pairings(self, k1: int, k2: int,
                 rows: slice | np.ndarray = slice(None)) -> Iterator[np.ndarray]:
        """Exact blocks of v^T A w for v in ``rows`` of U_k1 (block rows)
        and w in consecutive chunks of U_k2 (block columns), A = gram2;
        ``rows`` is a slice or an array of row indices.

        A block has at most about _BLOCK entries.  Its dtype is the one
        ``_exact_dtype`` proves exact: float64 (BLAS) or int64, holding
        integers either way, or numpy object.  The rows and each chunk of
        U_k2 are cast to it as they are needed, never a whole shell.
        An empty U_k2 gives one block without columns.
        """
        v, w = self._shells[k1][rows], self._shells[k2]
        dtype = _exact_dtype(v, self._gram2, w.T)
        va = v.astype(dtype) @ self._gram2.astype(dtype)
        step = max(1, _BLOCK // max(len(v), 1))
        for start in range(0, len(w) or 1, step):
            yield va @ w[start:start + step].T.astype(dtype)

    def _pair_matrix(self, k1: int, k2: int, rows: slice | np.ndarray) -> np.ndarray:
        """The pairings of ``rows`` of U_k1 with all of U_k2 as one int64
        matrix, range-checked by ``_checked``."""
        return np.concatenate(list(_checked(self.pairings(k1, k2, rows), k1, k2)),
                              axis=1)

    # -- orbits of slot 0 ----------------------------------------------------

    @cached_property
    def _roots(self) -> _Roots:
        """The root system of shell 1 and its Weyl group W.

        Every vector r of shell 1 has r^T A r = 2, so x -> x - (x^T A r) r is
        an isometry of the lattice: the reflection in r, whose coroot is r
        itself.  Colex order is compatible with addition, so the stored
        upper half U_1 is a positive system.  The sum of U_1, twice
        the Weyl vector rho, pairs with every positive root to twice its height
        (Bourbaki, Lie Groups and Lie Algebras, Ch. VI, Sect. 1.10, Prop. 29),
        so the heights are the halved row sums of the pairing matrix of U_1,
        and the simple roots are the roots of height 1.  ValueError unless
        every row sum is even and at least 2.  The heights give |W|
        (``_reflection_order``).
        """
        twice = self._pair_matrix(1, 1, slice(None)).sum(axis=1)
        if (twice % 2).any() or (twice < 2).any():
            raise ValueError("the positive roots do not pair with 2 rho to positive even "
                             "numbers: the shell table is inconsistent")
        heights = twice // 2
        return _Roots(np.flatnonzero(heights == 1), heights, _reflection_order(heights))

    def orbits(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Row indices of U_k, k >= 1, in increasing order, that stand for
        the orbits of W, the reflection group of the roots, on the whole
        shell k, with integer weights; built once per shell.  Without roots
        W is {I}, and every row stands for itself and its negation.

        Every orbit holds exactly one dominant vector d, one that pairs
        nonnegatively with every simple root, and its stabiliser is W_J for
        the simple roots J orthogonal to d (Humphreys, Thm. 1.12), so the
        orbit has |W| / |W_J| vectors.  A positive root, a nonnegative
        combination of simple roots, pairs with d as a sum of nonnegative
        terms, so it is orthogonal to d exactly when it is supported in J:
        the positive roots of W_J, whose heights there are their heights in
        W.  So |W_J| comes from each dominant row's own pairings with the
        positive roots.  d is a row u of U_k or its negation, and a summand
        is even in each of its vectors, so it is the same at u and -u, and
        u counts once if it is dominant and once more if -u is: its weight
        is that count times |W| / |W_J|, and a row orthogonal to every root
        stands for both {u} and {-u}.  ValueError unless the weights add up
        to the length of shell k, 2 len(U_k).
        """
        cached = self._orbits.get(k)
        if cached is None:
            roots = self._roots
            # the rows with a dominant sign, block by block of their
            # simple-root pairings, counted in integers: bool + bool is OR
            rows, signs = [np.zeros(0, dtype=np.intp)], [np.zeros(0, dtype=np.int64)]
            start = 0
            for block in _checked(self.pairings(1, k, roots.simple), 1, k):
                count = (block >= 0).all(axis=0).astype(np.int64) + (block <= 0).all(axis=0)
                hit = np.flatnonzero(count)
                rows.append(start + hit)
                signs.append(count[hit])
                start += block.shape[1]
            rows, signs = np.concatenate(rows), np.concatenate(signs)
            pairs = self._pair_matrix(k, 1, rows)
            weights = [c * roots.order // _reflection_order(roots.heights[p == 0])
                       for c, p in zip(signs.tolist(), pairs)]
            n = 2 * len(self._shells[k])
            if sum(weights) != n:
                raise ValueError(f"the orbits of shell {k} hold {sum(weights)} vectors, not "
                                 f"{n}: the shell table is inconsistent")
            cached = rows, np.array(weights, dtype=np.int64)
            self._orbits[k] = cached
        return cached

    def slot_zero(self, k: int, partners: int) -> list[tuple[int, np.ndarray]]:
        """Slot 0 of a histogram over shell k: its row indices grouped by
        their integer weight, as (weight, rows) in increasing weight.
        ``partners`` is the number of vectors each slot-0 vector is paired
        with.

        Every summand depends only on the Gram matrix of its tuple, and an
        isometry permutes each shell, so the sum over slot 0 is the weighted
        sum over one vector per orbit of any group of isometries.  Shell 0
        is its zero row with weight 1.  A cell whose work under H = {+-I},
        len(U_k) times ``partners``, is at least _ORBIT_PAIRS reads the
        W-orbits (``orbits``) when the table has roots.  Otherwise slot 0 is
        the orbits of H: every row of U_k, with weight 2.
        """
        n = len(self._shells[k])
        if not k:
            return [(1, np.arange(n))]
        if n * partners < _ORBIT_PAIRS or not len(self._shells[1]):
            return [(2, np.arange(n))]
        rows, weights = self.orbits(k)
        return [(w, rows[weights == w]) for w in sorted(set(weights.tolist()))]

    # -- pair statistics ---------------------------------------------------

    def pair_histogram(self, k1: int, k2: int) -> tuple[np.ndarray, np.ndarray]:
        """The tuple histogram of two slots: the distinct doubled pairings
        t = v^T A w over shell min(k1, k2) x U_max(k1, k2), in increasing
        order, as int64 keys of shape (buckets, 1), and their int64 counts,
        both read-only and cached under the sorted shell pair.

        With k1 <= k2, slot 0 runs over the rows of ``slot_zero``, each with
        its weight, and slot 1 over U_k2, the stored half of its shell (the
        zero row for k2 = 0): every summand is even in each vector, so the
        rest of the shell, -U_k2, adds as much again, and the caller doubles
        the cell when k2 >= 1.  Under H = {+-I} that is the quarter cell
        U_k1 x U_k2 with weight 2; under the root reflections of e8 it is
        one vector of shell 1 against U_k2.  A pairing outside the
        Cauchy-Schwarz range +-isqrt(4 k1 k2) raises ValueError, as in
        ``_checked``.
        """
        key = (min(k1, k2), max(k1, k2))
        hist = self._pair_hists.get(key)
        if hist is None:
            k1, k2 = key
            tmax = isqrt(4 * k1 * k2)
            size = 2 * tmax + 1
            counts = np.zeros(size, dtype=np.int64)
            groups = self.slot_zero(k1, len(self._shells[k2]))
            try:
                for w, group in groups:
                    for start in range(0, len(group), _TILE_ROWS):
                        tile = group[start:start + _TILE_ROWS]
                        for block in self.pairings(k1, k2, tile):
                            # a t below -tmax makes bincount raise, one
                            # above +tmax lengthens its output so that
                            # += raises
                            counts += w * np.bincount(
                                (block.astype(np.int64) + tmax).ravel(), minlength=size)
            except (ValueError, OverflowError):
                raise ValueError(_inconsistent(k1, k2, tmax)) from None
            hit = np.flatnonzero(counts)
            hist = (hit - tmax).reshape(-1, 1), counts[hit]
            for a in hist:
                a.flags.writeable = False
            self._pair_hists[key] = hist
        return hist

    def ensure_pair_histograms(self, cells: Iterable[tuple[int, int]]) -> None:
        for k1, k2 in cells:
            self.pair_histogram(k1, k2)

    def tuple_histogram(self, comp: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
        """Counts of the pairing vectors (t_ab for slot pairs a < b, in
        lexicographic order) over the tuples whose slot 0 runs over shell
        comp[0] and each later slot b over U_comp[b], the stored half of its
        shell, with t_ab = v_a^T A v_b: (keys, counts), one int64 row of
        keys per distinct pairing vector and its int64 count.

        Every summand is even in each vector, so the caller doubles the
        cell once for each later slot of positive norm.  Two slots return
        the cached, read-only ``pair_histogram`` itself, whose slot 0 is the
        smaller shell.  From three slots on, slot 0 runs over the rows of
        ``slot_zero`` and each later slot over its stored rows.  The tuples
        are counted in chunks of slot-0 rows of one weight: each pairing
        vector is packed into one integer key in mixed radix 2 tmax_ab + 1,
        and each count is multiplied by the weight.
        """
        k = len(comp)
        if k == 2:
            return self.pair_histogram(*comp)
        slots = [(a, b) for a in range(k) for b in range(a + 1, k)]
        lens = [len(self._shells[c]) for c in comp]
        if not all(lens):
            return np.zeros((0, len(slots)), dtype=np.int64), np.zeros(0, dtype=np.int64)
        tmaxes = [isqrt(4 * comp[a] * comp[b]) for a, b in slots]
        radices = [2 * t + 1 for t in tmaxes]
        key_dtype = np.int64 if prod(radices) < _INT64_LIMIT else object
        step = max(1, _TUPLE_KEYS // prod(lens[1:]))
        values: dict[tuple[int, int], np.ndarray] = {}
        packed, counts = [], []
        for w, group in self.slot_zero(comp[0], prod(lens[1:])):
            # slot 0's pairings for this group; the others once
            for a, b in slots:
                if a == 0 or (a, b) not in values:
                    values[a, b] = self._pair_matrix(comp[a], comp[b],
                                                     group if a == 0 else slice(None))
            for start in range(0, len(group), step):
                chunk = slice(start, start + step)
                key = np.zeros((len(group[chunk]),) + (1,) * (k - 1), dtype=key_dtype)
                for (a, b), tmax, radix in zip(slots, tmaxes, radices):
                    t = values[a, b][chunk] if a == 0 else values[a, b]
                    shape = [1] * k
                    shape[a], shape[b] = t.shape
                    key = key * radix + (t + tmax).reshape(shape)
                codes, c = np.unique(key, return_counts=True)
                packed.append(codes)
                counts.append(w * c)
        codes, total = np.concatenate(packed), np.concatenate(counts)
        if len(packed) > 1:
            codes, inverse = np.unique(codes, return_inverse=True)
            merged = np.zeros(len(codes), dtype=np.int64)
            np.add.at(merged, inverse.reshape(-1), total)
            total = merged
        keys = np.empty((len(codes), len(slots)), dtype=np.int64)
        for j in reversed(range(len(slots))):
            keys[:, j] = codes % radices[j] - tmaxes[j]
            codes = codes // radices[j]
        return keys, total

    def moment_matrix(self, k: int) -> tuple[tuple[int, ...], ...]:
        """Sum of v v^T over the shell of norm k (coordinate outer products),
        summed over row chunks in the dtype that is exact for the whole sum,
        as Python ints.  v v^T is even in v, so the stored upper half U_k is
        summed and doubled; shell 0's one row is the zero vector, which adds 0."""
        cached = self._moments.get(k)
        if cached is None:
            v = self._shells[k]
            n = self.lattice.rank
            dtype = _exact_dtype(v.T, v)
            total = np.zeros((n, n), dtype=dtype)
            step = max(1, _BLOCK // n)
            for start in range(0, len(v), step):
                chunk = v[start:start + step].astype(dtype)
                total += chunk.T @ chunk
            cached = tuple(tuple(2 * int(x) for x in row) for row in total.tolist())
            self._moments[k] = cached
        return cached

    def power_sums(self, k: int, matrix: Sequence[Sequence[int]],
                   monomials: Sequence[Sequence[int]]) -> list[int]:
        """Exact sums over the whole shell k of prod_j (v M)_j^e_j, one for
        each exponent tuple e in ``monomials``, with M an integer n x n
        matrix given by its rows, as Python ints.

        v M is formed in the dtype that ``_exact_dtype`` proves exact.  The
        shell is U_k and -U_k, so a monomial of odd degree sums to 0 and one
        of even degree to twice its sum over U_k (``monomial_sums`` with
        weight 2); shell 0 is its zero row once."""
        v, m = self._shells[k], _narrow(np.array(matrix, dtype=object))
        dtype = _exact_dtype(v, m)
        points = v.astype(dtype) @ m.astype(dtype)
        if dtype is np.float64:
            points = points.astype(np.int64)
        even = [e for e in monomials if sum(e) % 2 == 0]
        sums = iter(monomial_sums(points, np.full(len(v), 2 if k else 1, dtype=np.int64),
                                  even))
        return [next(sums) if sum(e) % 2 == 0 else 0 for e in monomials]


def enumerate_shells(lattice: IntegralLattice, bound: int,
                     cache_dir: str | None = None,
                     use_cache: bool = True) -> ShellTable:
    """Enumerate all vectors of norm <= bound, optionally via the disk cache."""
    if bound < 0:
        raise ValueError("bound must be >= 0")
    if cache_dir and use_cache:
        cached = load_shell_table(lattice, bound, cache_dir)
        if cached is not None:
            return cached
    table = ShellTable(lattice, bound, _enumerate(lattice, bound))
    if cache_dir and use_cache:
        save_shell_table(table, cache_dir)
    return table


# -- shell cache -------------------------------------------------------------
#
# One .npz file per lattice and bound holds two arrays: ``meta``, the int64
# array [format, bound, *gram2 in row-major order], and ``rows``, the stored
# shells U_0 (the zero row), U_1, ..., U_bound concatenated in their stored
# order.  No shell boundaries are stored: a row belongs to the shell of its
# own norm, which the loader computes exactly to trust the file.  The file
# is read without pickle, so it never holds an object array: a table whose
# coordinates or Gram entries exceed int64 is not cached.

def _cache_path(gram2: IntMatrix, bound: int, cache_dir: str) -> str:
    return os.path.join(cache_dir, f"shells-{content_hash(gram2, bound)[:20]}.npz")


def save_shell_table(table: ShellTable, cache_dir: str) -> str | None:
    """Write the table's rows to the cache through a private temporary
    file, renamed into place, so that concurrent writers never clobber or
    truncate each other's output.  Returns the path written, or None for a
    table that needs object dtype, which is never cached."""
    rows = np.concatenate(list(table._shells.values()))
    if rows.dtype == object or table._gram2.dtype == object:
        return None
    meta = np.array([SHELL_CACHE_FORMAT, table.bound, *table._gram2.ravel().tolist()],
                    dtype=np.int64)
    os.makedirs(cache_dir, exist_ok=True)
    path = _cache_path(table.lattice.gram2, table.bound, cache_dir)
    fd, tmp = tempfile.mkstemp(dir=cache_dir, prefix=os.path.basename(path) + ".",
                               suffix=".tmp")
    try:
        try:
            fh = os.fdopen(fd, "wb")
        except BaseException:
            os.close(fd)
            raise
        with fh:
            np.savez(fh, meta=meta, rows=rows)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
    return path


def _read_npz(path: str) -> dict[str, np.ndarray] | None:
    """Every array of an .npz file, or None when it is missing or
    unreadable, is not an .npz archive or holds a pickled (object) array."""
    try:
        # np.load leaves a path it opened open when the archive is bad, but
        # never closes a file it is handed, so the file is closed here
        with open(path, "rb") as fh:
            data = np.load(fh, allow_pickle=False)
            if not isinstance(data, np.lib.npyio.NpzFile):
                return None
            with data:
                return {name: data[name] for name in data.files}
    except (OSError, ValueError, EOFError, zipfile.BadZipFile):
        return None


def load_shell_table(lattice: IntegralLattice, bound: int,
                     cache_dir: str) -> ShellTable | None:
    """The cached table of the lattice up to ``bound``, or None when there is
    none or the file cannot be trusted (then the caller recomputes).

    One exact pass of v^T gram2 v over every stored row, in row chunks cast
    to their exact dtype and each row's sum taken as a product with a vector
    of ones (BLAS in float64), gives the doubled norms.  They must not
    decrease or exceed 2 * bound, and they are compared in that dtype, so a
    row whose norm lies beyond int64 is rejected, not cast.  Each shell is
    then the slice of rows of its norm, a view, and the ``ShellTable``
    constructor narrows it (``_narrow``), which widens an entry at the
    minimum of its file dtype so that no negation wraps, and checks its
    order, its signs and the zero row (``_check_shell``)."""
    doc = _read_npz(_cache_path(lattice.gram2, bound, cache_dir))
    if doc is None or set(doc) != {"meta", "rows"}:
        return None
    meta, rows, n = doc["meta"], doc["rows"], lattice.rank
    want = [SHELL_CACHE_FORMAT, bound, *(x for row in lattice.gram2 for x in row)]
    if not (meta.dtype == np.int64 and meta.tolist() == want
            and rows.dtype in _SHELL_DTYPES and rows.shape[1:] == (n,) and len(rows)):
        return None
    gram2 = meta[2:].reshape(n, n)
    dtype = _exact_dtype(rows, gram2, rows.T)  # the diagonal of the pairing block
    a, ones = gram2.astype(dtype), np.ones(n, dtype=dtype)
    step = max(1, _BLOCK // n)
    chunks = (rows[start:start + step].astype(dtype) for start in range(0, len(rows), step))
    norms = np.concatenate([((c @ a) * c) @ ones for c in chunks])
    if (norms[1:] < norms[:-1]).any() or norms[-1] > 2 * bound:
        return None
    starts = np.searchsorted(norms, 2 * np.arange(1, bound + 1))
    try:
        return ShellTable(lattice, bound, dict(enumerate(np.split(rows, starts))))
    except ValueError:
        return None
