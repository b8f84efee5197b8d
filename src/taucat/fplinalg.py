"""Dense linear algebra over the prime field F_p (lists of ints in [0, p))."""

from __future__ import annotations

from operator import mul


def matvec(a, v, p):
    """A v over F_p, as a tuple."""
    return tuple(sum(map(mul, row, v)) % p for row in a)


def matmul(a, b, p):
    if not a:
        return []
    cols = len(b[0]) if b else 0
    return [
        [sum(a[i][k] * b[k][j] for k in range(len(b))) % p for j in range(cols)]
        for i in range(len(a))
    ]


def _rref(rows, p, width):
    """Row-reduce in place; returns list of pivot column indices."""
    pivots = []
    r = 0
    for c in range(width):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = pow(rows[r][c], -1, p)
        rows[r] = [(x * inv) % p for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return pivots


def solve(a, b, p, ncols: int | None = None):
    """One solution of A x = b over F_p, or None."""
    if ncols is None:
        ncols = len(a[0]) if a else 0
    if not a:
        return [0] * ncols
    aug = [list(row) + [bi % p] for row, bi in zip(a, b)]
    pivots = _rref(aug, p, ncols)
    for row in aug[len(pivots):]:
        if row[-1]:
            return None
    x = [0] * ncols
    for r, c in enumerate(pivots):
        x[c] = aug[r][-1]
    return x


def nullspace(a, p, ncols: int | None = None):
    """Deterministic basis of the kernel of A over F_p."""
    if ncols is None:
        ncols = len(a[0]) if a else 0
    rows = [list(r) for r in a if any(v % p for v in r)]
    if not rows:
        return [[1 if i == j else 0 for j in range(ncols)] for i in range(ncols)]
    pivots = _rref(rows, p, ncols)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        vec = [0] * ncols
        vec[f] = 1
        for r, c in enumerate(pivots):
            vec[c] = (-rows[r][f]) % p
        basis.append(vec)
    return basis


def matinv(m, p):
    """Inverse of a square matrix over F_p, or None."""
    n = len(m)
    if n == 0:
        return []
    if any(len(r) != n for r in m):
        return None
    aug = [list(row) + [1 if i == j else 0 for j in range(n)] for i, row in enumerate(m)]
    pivots = _rref(aug, p, n)
    if len(pivots) != n:
        return None
    return [row[n:] for row in aug]
