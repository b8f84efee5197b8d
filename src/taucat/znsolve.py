"""Exact linear algebra over Z/m for composite m.

Systems A x = b are solved by diagonalising A with unimodular integer row
and column operations (Smith-style reduction carried out modulo m, after
Cohen, A Course in Computational Algebraic Number Theory, 2.4), which
stays valid over Z/m because elementary integer matrices are invertible
over every ring.  Gaussian elimination alone would be wrong here: m is
composite in general, so pivots need not be units.

The reduction gives D = U A V.  V is cols x cols and kept as a matrix.  U
is rows x rows, and the systems solved here are tall, so U is never
formed: the row operations are logged in the order they are applied, and
`apply_rows` replays the log to compute U b.  A `System` is factored once
and then solved for any number of right-hand sides.

Submodules of (Z/m)^n are listed and canonicalised in one pass over their
Howell form (Howell, Linear and Multilinear Algebra 19, 1986; Storjohann
and Mulders, ESA 1998), which `howell` computes once per submodule.
"""

from __future__ import annotations

from itertools import product
from math import gcd, prod


class CapExceeded(ValueError):
    """An enumeration would pass its cap, so the answer is undecided."""


def ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, s, t) with s*a + t*b = g = gcd(a, b), g >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        return -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def index_vectors(counts):
    """Every vector idx with 0 <= idx[i] < counts[i], first coordinate fastest."""
    for idx in product(*map(range, reversed(counts))):
        yield idx[::-1]


def diagonalize(matrix, m: int):
    """Bring ``matrix`` to diagonal form D = U A V over Z/m.

    Returns (D, row_ops, V) with D and V as lists of lists, entries reduced
    into [0, m).  ``row_ops`` is U as the list of row operations applied,
    in order: (i, k, None) swaps rows i and k, (i, k, q) subtracts q times
    row k from row i.  The diagonal entries need not divide one another; a
    diagonal form is all the solvers below require.
    """
    a = [[x % m for x in row] for row in matrix]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    v = _identity(cols)
    ops = []

    def find_pivot(k):
        # a unit pivot clears its row and column in a single pass, and the
        # systems built here are mostly 0/1, so try for a 1 first
        best = None
        for i in range(k, rows):
            row = a[i]
            for j in range(k, cols):
                x = row[j]
                if not x:
                    continue
                if x == 1:
                    return (i, j)
                if best is None or x < a[best[0]][best[1]]:
                    best = (i, j)
        return best

    for k in range(min(rows, cols)):
        while True:
            piv = find_pivot(k)
            if piv is None:
                break
            i, j = piv
            if i != k:
                a[k], a[i] = a[i], a[k]
                ops.append((k, i, None))
            if j != k:
                for r in a + v:
                    r[k], r[j] = r[j], r[k]
            p = a[k][k]
            dirty = False
            for i in range(k + 1, rows):
                if a[i][k]:
                    q = a[i][k] // p
                    a[i] = [(x - q * y) % m for x, y in zip(a[i], a[k])]
                    ops.append((i, k, q))
                    dirty = dirty or a[i][k] != 0
            # a column operation col_j -= q col_k only moves rows with an
            # entry in column k, and it leaves column k as it is
            moved = [r for r in a + v if r[k]]
            for j in range(k + 1, cols):
                if a[k][j]:
                    q = a[k][j] // p
                    for r in moved:
                        r[j] = (r[j] - q * r[k]) % m
                    dirty = dirty or a[k][j] != 0
            if not dirty:
                break
        # pivot settled; outer entries in row/col k are zero
    return a, ops, v


def apply_rows(ops, b, m: int) -> list[int]:
    """U b for the U logged by `diagonalize`."""
    b = [x % m for x in b]
    for i, k, q in ops:
        if q is None:
            b[i], b[k] = b[k], b[i]
        else:
            b[i] = (b[i] - q * b[k]) % m
    return b


class SolutionSet:
    """All solutions of A x = b over Z/m: x0 + span of kernel generators."""

    def __init__(self, m, ncols, x0, kernel, v, y0, col_steps):
        self.m = m
        self.ncols = ncols
        self.x0 = tuple(x0)
        self.kernel = kernel
        self._v = v
        self._y0 = y0
        self._col_steps = col_steps  # per column: (step, count) for y-space freedom

    def count(self) -> int:
        return prod(c for _, c in self._col_steps)

    def enumerate(self, cap: int = 100000):
        """Yield every solution exactly once (product form in y-space)."""
        if self.count() > cap:
            raise CapExceeded(f"solution set of size {self.count()} exceeds cap {cap}")
        m, v = self.m, self._v
        for idx in index_vectors([c for _, c in self._col_steps]):
            y = [(y0 + step * t) % m
                 for (y0, (step, _), t) in zip(self._y0, self._col_steps, idx)]
            yield tuple(sum(v[i][j] * y[j] for j in range(len(y))) % m
                        for i in range(self.ncols))


class System:
    """A x = b over Z/m with A factored once, to be solved for any b.

    Zero and repeated equations are dropped before factoring.  Each
    equation keeps the index of its distinct row (None for a zero row), so
    `solve` can reject a right-hand side that is nonzero on a zero row or
    differs between copies of one row.  ``ncols`` may be None when the
    system has equations to read it from.
    """

    def __init__(self, matrix, m: int, ncols: int | None):
        if m < 1:
            raise ValueError("modulus must be positive")
        if ncols is None:
            if not matrix:
                raise ValueError("empty system needs explicit ncols")
            ncols = len(matrix[0])
        self.m, self.ncols = m, ncols
        # every field is a tuple: a factored system may be shared (memoised)
        distinct = {}
        keys = (tuple(x % m for x in row) for row in matrix)
        self._row_of = tuple(distinct.setdefault(key, len(distinct)) if any(key) else None
                             for key in keys)
        self._rows = len(distinct)
        d, ops, v = diagonalize(list(distinct), m) if distinct else ([], [], _identity(ncols))
        self._ops, self._v = tuple(ops), tuple(map(tuple, v))
        # x = V y, and y[j] is pinned modulo m / g with g = gcd(D[j][j], m);
        # a column beyond the rows has D[j][j] = 0 and is free
        diag = [d[j][j] if j < self._rows else 0 for j in range(ncols)]
        gs = [gcd(dj, m) for dj in diag]
        self._pivots = tuple((g, pow(dj // g, -1, m // g) if m > g else 0)
                             for dj, g in zip(diag, gs))
        self._col_steps = tuple((m // g, g) for g in gs)
        kernel = ([(v[i][j] * step) % m for i in range(ncols)]
                  for j, (step, count) in enumerate(self._col_steps) if count > 1)
        self.kernel = tuple(tuple(gen) for gen in kernel if any(gen))

    def solve(self, rhs) -> SolutionSet | None:
        """All x with A x = rhs; None when infeasible."""
        m, ncols = self.m, self.ncols
        b = [None] * self._rows
        for r, bi in zip(self._row_of, rhs):
            bi %= m
            if r is None:
                if bi:
                    return None
            elif b[r] is None:
                b[r] = bi
            elif b[r] != bi:
                return None
        c = apply_rows(self._ops, b, m)
        if any(c[ncols:]):
            return None  # equations beyond the column range
        y0 = [0] * ncols
        for j, (cj, (g, inv)) in enumerate(zip(c, self._pivots)):
            if cj % g:
                return None
            y0[j] = (cj // g) * inv % (m // g)
        v = self._v
        x0 = [sum(v[i][j] * y0[j] for j in range(ncols)) % m for i in range(ncols)]
        return SolutionSet(m, ncols, x0, self.kernel, v, y0, self._col_steps)


def solve(matrix, rhs, m: int, ncols: int | None = None) -> SolutionSet | None:
    """Solve A x = b over Z/m; None when infeasible.

    ``ncols`` is needed when the system has no equations.
    """
    return System(matrix, m, ncols).solve(rhs)


def kernel_generators(matrix, m: int, ncols: int | None = None):
    return list(System(matrix, m, ncols).kernel)


def pivot(row) -> tuple[int, int]:
    """The column and the value of the first nonzero entry of ``row``."""
    return next((j, v) for j, v in enumerate(row) if v)


def howell(gens, m: int) -> list[tuple[int, ...]]:
    """The Howell rows of the submodule of (Z/m)^n spanned by ``gens``:
    echelon rows whose pivots divide m, such that the members vanishing
    before column j are spanned by the rows with pivot at j or later.

    ``work`` spans the members vanishing before column j; their values at
    j are d Z/m for d = gcd(m, work at j).  A combination with d at j is
    the row at j, and ``work`` less its multiples, plus (m/d) row, spans
    the members vanishing before j + 1.
    """
    work = [g for g in ([v % m for v in g] for g in gens) if any(g)]
    n = len(work[0]) if work else 0
    rows = []
    for j in range(n):
        d = m
        for g in work:
            d = gcd(d, g[j])
        if d == m:
            continue  # no member reaches this column
        # combination vec with vec[j] == d
        vec, cur = [0] * n, m
        for g in work:
            cur, s, t = ext_gcd(cur, g[j])
            vec = [(s * a + t * b) % m for a, b in zip(vec, g)]
            if cur == d:
                break
        rows.append(tuple(vec))
        work = [ng for ng in ([(a - g[j] // d * b) % m for a, b in zip(g, vec)]
                              for g in work) if any(ng)]
        ann = [(m // d) * b % m for b in vec]
        if any(ann):
            work.append(ann)
    return rows


def span_members(gens, m: int, ncols: int, cap: int = 100000):
    """Enumerate the submodule of (Z/m)^ncols spanned by ``gens``, no duplicates:
    the sums of t_k times the k-th Howell row, 0 <= t_k < m / pivot_k."""
    rows = howell(gens, m)
    counts = [m // pivot(row)[1] for row in rows]
    total = prod(counts)
    if total > cap:
        raise CapExceeded(f"span of size {total} exceeds cap {cap}")
    for idx in index_vectors(counts):
        yield tuple(sum(t * row[i] for t, row in zip(idx, rows)) % m
                    for i in range(ncols))


def lexmin_coset(x0, rows, m: int) -> tuple[int, ...]:
    """Lexicographically least element of x0 + span(rows) in (Z/m)^n, for
    Howell rows (`howell`): with the columns before a row's pivot column j
    held, x[j] reaches exactly x[j] + pivot Z/m, so x[j] drops below it.
    """
    x = [v % m for v in x0]
    for row in rows:
        j, d = pivot(row)
        q = x[j] // d
        x = [(a - q * b) % m for a, b in zip(x, row)]
    return tuple(x)
