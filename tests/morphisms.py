"""Morphism-level helpers for the `_reference_*` oracles of the tests.

The library reads composites off composition matrices and tensors and
builds no Morphism per basis element; the oracles compose basis elements
one by one with `compose`, and these build their operands.
"""

from taucat.category import Morphism


def basis_morphism(cat, x, y, h, k):
    """Basis element k of Hom^h(x, y)."""
    return Morphism(x, y, h, tuple(int(i == k) for i in range(cat.rank(x, y, h))))


def zero_morphism(cat, x, y, h):
    return Morphism(x, y, h, (0,) * cat.rank(x, y, h))


def from_columns(cols):
    """The matrix, as a tuple of rows, whose k-th column is cols[k]."""
    return tuple(zip(*cols))


def apply_functor(F, m):
    """F applied to a morphism through its hom matrix at (m.src, m.dst, |m|)."""
    mat = F.matrix(m.src, m.dst, m.degree)
    p = F.target.field.p
    coords = tuple(sum(row[i] * m.coords[i] for i in range(len(m.coords))) % p
                   for row in mat)
    return Morphism(F.obj_map[m.src], F.obj_map[m.dst], m.degree, coords)
