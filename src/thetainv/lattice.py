"""Integral lattices given by the doubled Gram matrix, with exact shell
enumeration and pair statistics.

A lattice of rank n is stored through the symmetric integer matrix
``gram2`` = twice the Gram matrix, which must have even diagonal entries.
Squared vector lengths are (1/2) v^T gram2 v and are always integers; the
doubled pairing v^T gram2 w keeps all pair statistics integral.

One fraction-free integer elimination of gram2, run once per lattice and
cached, gives the positive-definiteness check, the discriminant, the
adjugate that the level is read from, and the LDL^T decomposition that
drives the shell search.  The search runs in integers with integer square
roots; a float64 square root enters only where integer steps then correct
it.  Products of integer arrays run in float64 (BLAS) only when
a bound shows that every partial sum is an integer below 2^53, which float64
represents exactly whatever order the sum is taken in; otherwise in int64
below 2^62, and in Python integers beyond that.  Each shell is one integer
numpy array, and the disk cache stores it as such in an ``.npz`` file.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import zipfile
from dataclasses import dataclass
from fractions import Fraction
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

SHELL_CACHE_FORMAT = 2

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
    """Fraction-free Gauss-Jordan elimination of [A | I] without pivoting
    (Bareiss, Math. Comp. 22, 1968), stopped at the first pivot that is not
    positive.

    The pivot of step k is the leading principal minor D_{k+1} of order
    k + 1 (D_0 = 1), and each division by the previous pivot is exact
    (Sylvester's identity).  At step k the pivot row holds r_kj, the minor
    of rows 0..k and columns 0..k-1, j.  When all n pivots are positive, A
    is positive definite, the last pivot is det A, the right-hand block
    ends as adj A, and A = U^T D U with d_k = D_{k+1} / D_k and
    u_kj = r_kj / D_{k+1}.  ``adj`` is None after a stop.
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


def random_unimodular(rank: int, rng, steps: int = 12) -> list[list[int]]:
    """Random determinant +-1 integer matrix built from elementary operations."""
    u = [[1 if i == j else 0 for j in range(rank)] for i in range(rank)]
    for _ in range(steps):
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
    """All v with norm <= bound by shell, each shell sorted lexicographically:
    the Fincke-Pohst search run level by level over numpy frontiers, in
    exact integers only.

    The quadratic form is written as sum_i d_i (v_i + c_i(v))^2 from the LDL^T
    decomposition that the lattice's cached elimination gives; all
    comparisons are cleared of denominators up front.  A frontier row holds
    the coordinates i+1..n-1 chosen so far (the others 0) and ``acc``, their
    part of 2 * big * norm.  Frontier chunks wait on a stack, and no chunk
    expands to more than _CHUNK rows at once (unless one row alone has more
    children), so transient memory stays bounded.

    Every shell is closed under v -> -v, so the search finds only half of
    it (Fincke & Pohst, Math. Comp. 44, 1985): a chunk carries the index of
    its one all-zero row, if it has one, and that row takes only x >= 0.
    The search so finds 0 and the vectors whose last nonzero coordinate is
    positive.  Each leaf chunk then negates the rows whose first nonzero
    coordinate is negative, which makes shell k >= 1 its lexicographic upper
    half U_k; only U_k is sorted, and the shell is -U_k reversed, then U_k.

    The last coordinate stays outermost: with coordinate 0 outermost the
    found half would come out sorted, but on the a2 basis [[1, 2^62],
    [0, 1]] coordinate 0 alone ranges over about 2^62 values.  The order
    stays lexicographic, so the shells, and the cache files that store
    them, are those of a search over whole shells.
    """
    n = lattice.rank
    pivots, pivot_rows, _ = lattice._elimination
    d = [Fraction(p, q) for p, q in zip(pivots, [1, *pivots])]
    dn = [x.numerator for x in d]
    dd = [x.denominator for x in d]
    cden = []
    cnum = []
    for i in range(n):
        u = [Fraction(r, pivots[i]) for r in pivot_rows[i][i + 1:]]
        den = lcm(*(x.denominator for x in u))
        cden.append(den)
        cnum.append([int(x * den) for x in u])
    big = 1
    for i in range(n):
        big = lcm(big, dd[i] * cden[i] * cden[i])
    mult = [dn[i] * (big // (dd[i] * cden[i] * cden[i])) for i in range(n)]
    target = 2 * bound * big

    # Bound every intermediate: at level i, |s| <= smax, |c| <= cmax and
    # |v_i| <= vmax[i], so that |x * cd + c| and |c + s| stay below limit;
    # acc and mult * t^2 never exceed target.
    vmax = [0] * n
    limit = max(target, 2 * big, *mult)
    for i in reversed(range(n)):
        cmax = sum(abs(x) * vmax[j] for j, x in enumerate(cnum[i], i + 1))
        smax = isqrt(target // mult[i])
        vmax[i] = (cmax + smax) // cden[i] + 1
        limit = max(limit, (smax + 1) ** 2, vmax[i] * cden[i] + cmax + smax)
    dtype = np.int64 if limit < _INT64_LIMIT else object
    root = _isqrt_int64 if dtype is np.int64 else _isqrt_object
    cvec = [np.array(row, dtype=dtype) for row in cnum]

    found: dict[int, list[np.ndarray]] = {k: [] for k in range(bound + 1)}
    # a stack entry is (level, rows, acc, index of the all-zero row or -1)
    stack = [(n - 1, np.zeros((1, n), dtype=dtype), np.zeros(1, dtype=dtype), 0)]
    while stack:
        i, v, acc, zero = stack.pop()
        c = v[:, i + 1:] @ cvec[i]
        cd = cden[i]
        # a * (x*cd + c)^2 <= rem  <=>  |x*cd + c| <= s with s = isqrt(rem // a),
        # so x runs over [lo, hi] = [ceil((-c - s)/cd), floor((-c + s)/cd)]
        s = root((target - acc) // mult[i])
        lo = -((c + s) // cd)
        if zero >= 0:
            # c = 0 on the all-zero row, so its range is [-hi, hi] with
            # hi >= 0: its children x >= 0 are one of each +-v pair
            lo[zero] = 0
        counts = ((s - c) // cd - lo + 1).astype(np.int64)
        ends = np.cumsum(counts)
        start = 0
        while start < len(v):
            first = ends[start] - counts[start]
            stop = max(start + 1, int(np.searchsorted(ends, first + _CHUNK, side="right")))
            rows = np.repeat(np.arange(start, stop), counts[start:stop])
            # the j-th child of row r takes x = lo[r] + j
            x = lo[rows] + (np.arange(len(rows)) - (ends[rows] - counts[rows] - first))
            t = x * cd + c[rows]
            child = v[rows]
            child[:, i] = x
            child_acc = acc[rows] + mult[i] * t * t
            if i:
                # the all-zero row's first child, x = 0, is all zero again
                child_zero = ends[zero] - counts[zero] - first if start <= zero < stop else -1
                stack.append((i - 1, child, child_acc, child_zero))
            else:
                assert not (child_acc % (2 * big)).any()
                q = (child_acc // (2 * big)).astype(np.int64)
                child = _narrow(child)
                # the symmetric stored range makes this negation safe
                lead = child[np.arange(len(child)), (child != 0).argmax(axis=1)]
                child[lead < 0] *= -1
                for k in range(bound + 1):
                    found[k].append(child[q == k])
            start = stop
    shells = {}
    for k, parts in found.items():
        u = np.concatenate(parts)
        u = u[np.lexsort(u.T[::-1])]
        shells[k] = np.concatenate([-u[::-1], u]) if k else u
    return shells


def content_hash(gram2: IntMatrix, bound: int | None = None) -> str:
    """Hash of the Gram data; with a bound it keys a shell cache file, and
    then the cache format enters it too."""
    payload = {"gram2": [list(r) for r in gram2]}
    if bound is not None:
        payload.update(bound=bound, format=SHELL_CACHE_FORMAT)
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def _int_array(rows, n: int) -> np.ndarray:
    """Integer rows as an (len(rows), n) array: int64 when every entry fits,
    numpy object (Python ints) otherwise."""
    try:
        arr = np.array(rows, dtype=np.int64)
    except OverflowError:
        arr = np.array(rows, dtype=object)
    return arr.reshape(len(rows), n)


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
        return (tuple(row) for start in range(0, len(self), _CHUNK)
                for row in self[start:start + _CHUNK].tolist())

    def __array_wrap__(self, array, context=None, return_scalar=False):
        return array[()] if return_scalar else array.view(np.ndarray)


def _as_shell(rows, n: int) -> np.ndarray:
    """Rows of one shell as a read-only (len, n) array of a stored dtype."""
    v = _narrow(rows if isinstance(rows, np.ndarray) else _int_array(rows, n)).view()
    v.flags.writeable = False
    return v


def _strictly_increasing(v: np.ndarray) -> bool:
    """Whether the rows of v are in strictly increasing lexicographic order."""
    a, b = v[:-1], v[1:]
    differ = a != b
    first = differ.argmax(axis=1)
    rows = np.arange(len(first))
    return bool(differ[rows, first].all() and (a[rows, first] < b[rows, first]).all())


def _check_shell(k: int, v: np.ndarray) -> None:
    """Raise ValueError unless the stored shell k is strictly increasing and
    closed under negation, and holds the zero vector exactly when k is 0.

    A stored shell is in the symmetric range of its dtype, so negating it
    never overflows, and a strictly increasing shell has no repeated rows;
    its negation read backwards is again strictly increasing, so closure
    under negation is equality with it.  Such a shell holds the zero vector
    exactly when its length is odd, and its upper half, rows len // 2 on,
    is then the vectors whose first nonzero coordinate is positive.

    Closure is checked first.  Negation reverses lexicographic order, so on
    a closed shell the rows before len // 2 - 1 mirror those after it, and
    the order needs checking only from row len // 2 - 1 on.
    """
    if not (np.array_equal(-v[::-1], v) and _strictly_increasing(v[len(v) // 2 - 1:])):
        raise ValueError(f"shell {k} is not strictly increasing and closed "
                         f"under negation")
    if v.any() if k == 0 else len(v) % 2:
        raise ValueError(f"shell {k}: the zero vector must be the only vector "
                         f"of shell 0 and of no other shell")


class ShellTable:
    """All lattice vectors up to a norm bound, grouped by exact norm, plus
    lazily built pair statistics.

    Each shell is one integer array in the narrowest dtype that holds it
    (``_narrow``).  The constructor requires every shell to be strictly
    increasing and closed under negation (``_check_shell``): the search and
    the cache store them sorted, and the pair histograms pair only the upper
    half of a shell.  Immutable after construction apart from the caches of
    pair histograms and moment matrices, which are deterministic functions
    of the shells.  Every pairing goes through one kernel, ``pairings``,
    which casts the stored arrays chunk by chunk to its exact dtype.
    """

    def __init__(self, lattice: IntegralLattice, bound: int,
                 shells: dict[int, np.ndarray | Sequence[Vector]]):
        self.lattice = lattice
        self.bound = bound
        self._shells: dict[int, np.ndarray] = {
            k: _as_shell(shells.get(k, ()), lattice.rank) for k in range(bound + 1)}
        for k, v in self._shells.items():
            _check_shell(k, v)
        self._gram2 = _int_array(lattice.gram2, lattice.rank)
        self._pair_hists: dict[tuple[int, int], dict[int, int]] = {}
        self._moments: dict[int, tuple[tuple[int, ...], ...]] = {}

    def shell(self, k: int) -> Shell:
        """The vectors of norm k, one per row; ``.tolist()`` gives them as
        lists of Python ints."""
        if not 0 <= k <= self.bound:
            raise IndexError(f"shell {k} beyond enumeration bound {self.bound}")
        return self._shells[k].view(Shell)

    def sizes(self) -> dict[int, int]:
        return {k: len(v) for k, v in self._shells.items()}

    def min_norm(self) -> int | None:
        """Smallest positive norm with a nonempty shell, if any within bound."""
        for k in range(1, self.bound + 1):
            if len(self._shells[k]):
                return k
        return None

    # -- the pairing kernel ------------------------------------------------

    def pairings(self, k1: int, k2: int, rows: slice = slice(None),
                 cols: slice = slice(None)) -> Iterator[np.ndarray]:
        """Exact blocks of v^T A w for v in ``rows`` of shell k1 (block rows)
        and w in consecutive chunks of ``cols`` of shell k2 (block columns),
        A = gram2.

        A block has at most about _BLOCK entries.  Its dtype is the one
        ``_exact_dtype`` proves exact: float64 (BLAS) or int64, holding
        integers either way, or numpy object.  The rows and each chunk of
        the columns are cast to it as they are needed, never a whole shell.
        """
        v, w = self._shells[k1][rows], self._shells[k2][cols]
        dtype = _exact_dtype(v, self._gram2, w.T)
        va = v.astype(dtype) @ self._gram2.astype(dtype)
        step = max(1, _BLOCK // max(len(v), 1))
        for start in range(0, len(w), step):
            yield va @ w[start:start + step].T.astype(dtype)

    def _pair_values(self, k1: int, k2: int,
                     rows: slice = slice(None)) -> Iterator[np.ndarray]:
        """The gram2 pairing blocks of ``rows`` of shell k1 against shell k2
        as int64, checked against Cauchy-Schwarz: |v^T A w| <= 2 sqrt(k1 k2),
        so a value outside +-isqrt(4 k1 k2) can only come from shells whose
        vectors do not have their shell's norm."""
        tmax = isqrt(4 * k1 * k2)
        for block in self.pairings(k1, k2, rows):
            if block.size and (block.min() < -tmax or block.max() > tmax):
                raise ValueError(_inconsistent(k1, k2, tmax))
            yield block.astype(np.int64, copy=False)

    # -- pair statistics ---------------------------------------------------

    def pair_histogram(self, k1: int, k2: int) -> dict[int, int]:
        """Counts of the doubled pairing t = v^T A w over shell k1 x shell k2.

        Shell 0 is at most the zero vector, which pairs to 0 with every w.
        Otherwise the lower half of each shell is the negation of its upper
        half U (rows len // 2 on), and negating one vector negates t while
        negating both keeps it.  So only the quarter cell U_1 x U_2 is
        paired, and with c its counts the histogram is 2 (c(t) + c(-t)).  A
        pairing outside the Cauchy-Schwarz range +-isqrt(4 k1 k2) raises
        ValueError, as in ``_pair_values``.
        """
        key = (min(k1, k2), max(k1, k2))
        hist = self._pair_hists.get(key)
        if hist is None:
            k1, k2 = key
            if k1 == 0:
                pairs = len(self._shells[0]) * len(self._shells[k2])
                hist = {0: pairs} if pairs else {}
            else:
                tmax = isqrt(4 * k1 * k2)
                size = 2 * tmax + 1
                counts = np.zeros(size, dtype=np.int64)
                n1 = len(self._shells[k1])
                upper = slice(len(self._shells[k2]) // 2, None)
                try:
                    for start in range(n1 // 2, n1, _TILE_ROWS):
                        tile = slice(start, start + _TILE_ROWS)
                        for block in self.pairings(k1, k2, tile, upper):
                            # a t below -tmax makes bincount raise, one above
                            # +tmax lengthens its output so that += raises
                            counts += np.bincount((block.astype(np.int64) + tmax).ravel(),
                                                  minlength=size)
                except (ValueError, OverflowError):
                    raise ValueError(_inconsistent(k1, k2, tmax)) from None
                counts = 2 * (counts + counts[::-1])
                hist = {t - tmax: c for t, c in enumerate(counts.tolist()) if c}
            self._pair_hists[key] = hist
        return hist

    def ensure_pair_histograms(self, cells: Iterable[tuple[int, int]]) -> None:
        for k1, k2 in cells:
            self.pair_histogram(k1, k2)

    def tuple_histogram(self, comp: Sequence[int]) -> dict[tuple[int, ...], int]:
        """Counts of the pairing vectors (t_ab for slot pairs a < b, in
        lexicographic order) over all tuples of vectors from the shells
        ``comp``, with t_ab = v_a^T A v_b.

        Two slots read the cached pair histogram.  From three slots on, the
        tuples are counted in chunks of slot-0 vectors: each pairing vector
        is packed into one integer key in mixed radix 2 tmax_ab + 1.
        Negating every slot keeps every t_ab, so when slot 0 is a shell of
        positive norm, only its upper half (rows len // 2 on) is paired and
        every count is doubled.
        """
        if len(comp) == 2:
            return {(t,): c for t, c in self.pair_histogram(*comp).items()}
        sizes = [len(self._shells[c]) for c in comp]
        if not all(sizes):
            return {}
        k = len(comp)
        slots = [(a, b) for a in range(k) for b in range(a + 1, k)]
        tmaxes = [isqrt(4 * comp[a] * comp[b]) for a, b in slots]
        radices = [2 * t + 1 for t in tmaxes]
        lo = sizes[0] // 2 if comp[0] else 0
        mult = 2 if comp[0] else 1
        values = {(a, b): np.concatenate(list(self._pair_values(
            comp[a], comp[b], slice(lo if a == 0 else 0, None))), axis=1)
            for a, b in slots}
        key_dtype = np.int64 if prod(radices) < _INT64_LIMIT else object
        step = max(1, _TUPLE_KEYS // prod(sizes[1:]))
        hist: dict[tuple[int, ...], int] = {}
        for start in range(0, sizes[0] - lo, step):
            key = np.zeros((), dtype=key_dtype)
            for (a, b), tmax, radix in zip(slots, tmaxes, radices):
                t = values[a, b][start:start + step] if a == 0 else values[a, b]
                shape = [1] * k
                shape[a], shape[b] = t.shape
                key = key * radix + (t + tmax).reshape(shape)
            packed, counts = np.unique(key, return_counts=True)
            for code, c in zip(packed.tolist(), (mult * counts).tolist()):
                ts = []
                for tmax, radix in zip(reversed(tmaxes), reversed(radices)):
                    code, digit = divmod(code, radix)
                    ts.append(digit - tmax)
                ts = tuple(reversed(ts))
                hist[ts] = hist.get(ts, 0) + c
        return hist

    def moment_matrix(self, k: int) -> tuple[tuple[int, ...], ...]:
        """Sum of v v^T over the shell of norm k (coordinate outer products),
        summed over row chunks in the dtype that is exact for the whole sum,
        as Python ints."""
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
            cached = tuple(tuple(int(x) for x in row) for row in total.tolist())
            self._moments[k] = cached
        return cached


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
# One .npz file per lattice and bound holds the 0-d arrays format_version
# and bound, the (n, n) array gram2, and one (len, n) array shell_<k> per
# norm k <= bound, each in its stored dtype.  The file is read without
# pickle, so it never holds an object array: a table whose coordinates or
# Gram entries exceed int64 is not cached.

def _cache_path(gram2: IntMatrix, bound: int, cache_dir: str) -> str:
    return os.path.join(cache_dir, f"shells-{content_hash(gram2, bound)[:20]}.npz")


def save_shell_table(table: ShellTable, cache_dir: str) -> str | None:
    """Write the table's shells to the cache through a private temporary
    file, renamed into place, so that concurrent writers never clobber or
    truncate each other's output.  Returns the path written, or None for a
    table that needs object dtype, which is never cached."""
    doc = {"format_version": np.int64(SHELL_CACHE_FORMAT),
           "bound": np.int64(table.bound), "gram2": table._gram2}
    doc.update((f"shell_{k}", v) for k, v in table._shells.items())
    if any(a.dtype == object for a in doc.values()):
        return None
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
            np.savez(fh, **doc)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
    return path


def _read_npz(path: str) -> dict[str, np.ndarray] | None:
    """Every array of an .npz file, or None when it is unreadable, is not
    an .npz archive or holds a pickled (object) array."""
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


def _is_int(a: np.ndarray, shape: tuple[int, ...]) -> bool:
    return a.dtype in _SHELL_DTYPES and a.shape == shape


def _trusted_shell(v: np.ndarray, k: int, gram2: np.ndarray) -> bool:
    """Every vector has norm k, and the shell lies in the symmetric range of
    its dtype, where the writer stores it.  The norms are checked over row
    chunks cast to their exact dtype.  Order and closure under negation are
    the ``ShellTable`` constructor's checks."""
    if v.size and v.min() == np.iinfo(v.dtype).min:
        return False
    dtype = _exact_dtype(v, gram2, v.T)  # the diagonal of the pairing block
    a = gram2.astype(dtype)
    step = max(1, _BLOCK // len(gram2))
    for start in range(0, len(v), step):
        c = v[start:start + step].astype(dtype)
        if not (((c @ a) * c).sum(axis=1) == 2 * k).all():
            return False
    return True


def load_shell_table(lattice: IntegralLattice, bound: int,
                     cache_dir: str) -> ShellTable | None:
    """The cached table of the lattice up to ``bound``, or None when there is
    none or the file cannot be trusted (then the caller recomputes)."""
    path = _cache_path(lattice.gram2, bound, cache_dir)
    if not os.path.exists(path):
        return None
    doc = _read_npz(path)
    n = lattice.rank
    names = {"format_version", "bound", "gram2"} | {f"shell_{k}" for k in range(bound + 1)}
    if doc is None or set(doc) != names:
        return None
    if not (_is_int(doc["format_version"], ()) and doc["format_version"] == SHELL_CACHE_FORMAT
            and _is_int(doc["bound"], ()) and doc["bound"] == bound
            and _is_int(doc["gram2"], (n, n))
            and doc["gram2"].tolist() == [list(r) for r in lattice.gram2]):
        return None
    shells = {k: doc[f"shell_{k}"] for k in range(bound + 1)}
    for k, v in shells.items():
        if not _is_int(v, (*v.shape[:1], n)) or not _trusted_shell(v, k, doc["gram2"]):
            return None
    try:
        return ShellTable(lattice, bound, shells)
    except ValueError:
        return None
