"""Half-enriched Yoneda machinery on finite presentations.

For an object X and a in H, the functor yo^a_X sends Y to the graded
module with h-component Hom^{ha}(X, Y) and acts on morphisms by
post-composition.  Targets of natural-transformation computations are
restricted to finite direct sums of such representables, which keeps
every Nat space a finite linear solve.

The evaluation map sends eta: yo^a_X => F to eta_X(id), landing in the
a^-1 component of FX; its inverse sends v there to the transformation
f -> (Ff)(v).  Both directions are computed explicitly and are checked
to be mutually inverse in the tests.  A map that composes with a fixed
morphism is a matrix read off category.postcompose or precompose: F(g)
is block diagonal in postcompose(g) over the summands, and the
evaluation inverse stacks precompose(v_z) over them.  The naturality
equations are read straight off the composition tensors, for the degrees
in cat.nat_degrees alone, which the presentation proves generate every
morphism (for every degree when the proof fails).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from operator import mul

from . import fplinalg
from .category import GradedCatPresentation, Morphism, _column, postcompose, precompose
from .znsolve import CapExceeded


@dataclass(frozen=True)
class RepTarget:
    """A finite direct sum of representable functors yo^{b}_{Z}."""

    pairs: tuple[tuple[int, int], ...]  # (b, Z)


def representable(b: int, z: int) -> RepTarget:
    return RepTarget(((b, z),))


def rep_sum(*pairs) -> RepTarget:
    return RepTarget(tuple((int(b), int(z)) for b, z in pairs))


@dataclass(frozen=True)
class GradedModule:
    """Chosen basis labels per degree component."""

    components: dict  # h -> tuple of labels

    def dim(self, h: int) -> int:
        return len(self.components.get(h, ()))


def evaluate_yoneda(cat: GradedCatPresentation, x: int, a: int, y: int) -> GradedModule:
    """The graded module yo^a_x(y): h-component basis of Hom^{ha}(x, y)."""
    gH = cat.tau.source
    comps = {}
    for h in gH.elements():
        r = cat.rank(x, y, gH.mul(h, a))
        if r:
            comps[h] = tuple((h, k) for k in range(r))
    return GradedModule(comps)


def _target_dim(cat: GradedCatPresentation, F: RepTarget, y: int, h: int) -> int:
    gH = cat.tau.source
    return sum(cat.rank(z, y, gH.mul(h, b)) for (b, z) in F.pairs)


@dataclass(frozen=True)
class GradedNatTrans:
    """Blockwise linear data of a graded natural transformation yo^a_x => F."""

    x: int
    a: int
    F: RepTarget
    blocks: dict  # (y, h) -> tuple of rows (target dim x source dim)

    def block(self, y: int, h: int, rows: int, cols: int):
        blk = self.blocks.get((y, h))
        if blk is None:
            return tuple((0,) * cols for _ in range(rows))
        return blk


def _shapes(cat: GradedCatPresentation, x: int, a: int, F: RepTarget):
    """(y, h, source dim, target dim) of every block of a yo^a_x => F."""
    gH = cat.tau.source
    for y in cat.objects():
        for h in gH.elements():
            yield y, h, cat.rank(x, y, gH.mul(h, a)), _target_dim(cat, F, y, h)


def _block_index(cat: GradedCatPresentation, x: int, a: int, F: RepTarget):
    """Ordered unknown blocks (y, h, source dim, target dim) with offsets:
    the blocks of _shapes with a nonzero source dimension."""
    gH = cat.tau.source
    layout, offset = [], 0
    for y, h in product(cat.objects(), gH.elements()):
        if sdim := cat.rank(x, y, gH.mul(h, a)):
            layout.append((y, h, sdim, tdim := _target_dim(cat, F, y, h), offset))
            offset += sdim * tdim
    return layout, offset


def _nat_rows(cat: GradedCatPresentation, x: int, a: int, F: RepTarget, layout,
              nvars: int):
    """The naturality equations of yo^a_x => F, one row per equation.

    For each basis element g: y -> y2 of degree k in cat.nat_degrees (every
    degree when that is None) and each basis element f of Hom^{ha}(x, y),
    every coordinate of A2 . (g o f) - F(g) . (A1 f) = 0, where A1 and A2
    are the (y, h) and (y2, kh) unknown blocks of layout.  Both terms are
    read off tensors: g o f is T(x, y, y2; ha, k)[.][g][f], and F(g) on a
    summand yo^b_z is T(z, y, y2; hb, k)[.][g][.].
    """
    gH = cat.tau.source
    p = cat.field.p
    degrees = cat.nat_degrees or gH.elements()
    pos = {(y, h): (sdim, off) for (y, h, sdim, _, off) in layout}
    for (y, h, s1, _, off1) in layout:
        ha = gH.mul(h, a)
        for (y2, k, rk) in cat.out_homs(y):
            if k not in degrees:
                continue
            kh = gH.mul(k, h)
            s2, off2 = pos.get((y2, kh), (0, 0))
            t_gf = cat.tensor(x, y, y2, ha, k) or {}
            # F(g_gi), the summands' tensors stacked: (gi, row) -> [(column, constant)]
            moved, rows, d0 = {}, 0, 0
            for (b, z) in F.pairs:
                hb = gH.mul(h, b)
                for (gi, d), entries in (cat.tensor(z, y, y2, hb, k) or {}).items():
                    for q, m in entries:
                        moved.setdefault((gi, rows + q), []).append((d0 + d, m))
                rows, d0 = rows + cat.rank(z, y2, gH.mul(k, hb)), d0 + cat.rank(z, y, hb)
            for gi, fi in product(range(rk), range(s1)):
                gf = _column(t_gf.get((gi, fi), ()), s2)
                for r_out in range(rows):
                    row = [0] * nvars
                    row[off2 + r_out * s2:off2 + (r_out + 1) * s2] = gf
                    for d, m in moved.get((gi, r_out), ()):
                        idx = off1 + d * s1 + fi
                        row[idx] = (row[idx] - m) % p
                    yield row


def nat_space(cat: GradedCatPresentation, x: int, a: int, F: RepTarget):
    """Basis of Nat(yo^a_x, F) by one exhaustive linear solve over F_p.

    The squares of cat.nat_degrees span the row space of the squares of
    every morphism, so the echelon form, and the basis, are the same.
    """
    p = cat.field.p
    layout, nvars = _block_index(cat, x, a, F)
    rows = [row for row in _nat_rows(cat, x, a, F, layout, nvars) if any(row)]
    return [GradedNatTrans(x, a, F, _blocks(layout, vec))
            for vec in fplinalg.nullspace(rows, p, ncols=nvars)]


def _blocks(layout, vec) -> dict:
    """The nonzero blocks of a vector of unknowns laid out as layout."""
    blocks = {}
    for (y, h, sdim, tdim, off) in layout:
        mat = tuple(tuple(vec[off + r * sdim:off + (r + 1) * sdim]) for r in range(tdim))
        if any(any(rw) for rw in mat):
            blocks[(y, h)] = mat
    return blocks


def _unknowns(layout, nvars: int, nt: GradedNatTrans) -> list:
    """The blocks of nt as one vector of unknowns laid out as layout."""
    vec = [0] * nvars
    for (y, h, sdim, tdim, off) in layout:
        for r, row in enumerate(nt.block(y, h, tdim, sdim)):
            vec[off + r * sdim:off + (r + 1) * sdim] = row
    return vec


def verify_graded_nat(cat: GradedCatPresentation, nt: GradedNatTrans) -> bool:
    """Recheck naturality of explicit block data (used on reconstructed etas):
    the blocks, laid out as nat_space's unknowns, satisfy every row."""
    p = cat.field.p
    layout, nvars = _block_index(cat, nt.x, nt.a, nt.F)
    vec = _unknowns(layout, nvars, nt)
    return all(sum(map(mul, row, vec)) % p == 0
               for row in _nat_rows(cat, nt.x, nt.a, nt.F, layout, nvars))


def _rep_matrix(cat: GradedCatPresentation, F: RepTarget, g: Morphism, h: int):
    """Matrix of F(g) from the (g.src, h) component of F to its (g.dst, |g|h)
    component: block diagonal, u -> g o u on each summand Hom^{hb}(z, g.src)."""
    gH = cat.tau.source
    blocks = [(postcompose(cat, g, z, gH.mul(h, b)), cat.rank(z, g.src, gH.mul(h, b)))
              for (b, z) in F.pairs]
    total = sum(w for _, w in blocks)
    rows, left = [], 0
    for blk, w in blocks:
        rows.extend((0,) * left + row + (0,) * (total - left - w) for row in blk)
        left += w
    return rows


def value_layout(cat: GradedCatPresentation, F: RepTarget, x: int, a: int):
    """Segment shapes of (F x)_{a^-1}: one block per representable summand."""
    gH = cat.tau.source
    a_inv = gH.inv(a)
    return [(b, z, cat.rank(z, x, gH.mul(a_inv, b))) for (b, z) in F.pairs]


def phi(cat: GradedCatPresentation, nt: GradedNatTrans):
    """Evaluate at the identity: the image of id_x under the x-component."""
    a_inv = cat.tau.source.inv(nt.a)
    idc = cat.identities[nt.x]
    block = nt.block(nt.x, a_inv, _target_dim(cat, nt.F, nt.x, a_inv), len(idc))
    return fplinalg.matvec(block, idc, cat.field.p)


def phi_inv(cat: GradedCatPresentation, x: int, a: int, F: RepTarget, v):
    """The transformation f -> (F f)(v) attached to v in (F x)_{a^-1}.

    Its (y, h) block stacks, over the summands yo^b_z, the matrices of
    f -> f o v_z, where v_z in Hom^{a^-1 b}(z, x) is v's segment there.
    """
    gH = cat.tau.source
    a_inv = gH.inv(a)
    layout = value_layout(cat, F, x, a)
    if sum(r for _, _, r in layout) != len(v):
        raise ValueError("value vector has the wrong length")
    pieces, seg = [], 0
    for (b, z, r) in layout:
        pieces.append(Morphism(z, x, gH.mul(a_inv, b), tuple(v[seg:seg + r])))
        seg += r
    blocks = {}
    for y in cat.objects():
        for h in gH.elements():
            ha = gH.mul(h, a)
            if cat.rank(x, y, ha) == 0 or _target_dim(cat, F, y, h) == 0:
                continue
            mat = tuple(row for piece in pieces for row in precompose(cat, piece, y, ha))
            if any(any(rw) for rw in mat):
                blocks[(y, h)] = mat
    return GradedNatTrans(x, a, F, blocks)


def nat_equal(cat: GradedCatPresentation, F: RepTarget, n1: GradedNatTrans,
              n2: GradedNatTrans) -> bool:
    return all(n1.block(y, h, tdim, sdim) == n2.block(y, h, tdim, sdim)
               for (y, h, sdim, tdim) in _shapes(cat, n1.x, n1.a, F))


def nat_invertible(cat: GradedCatPresentation, nt: GradedNatTrans) -> bool:
    """Componentwise invertibility: every block square and nonsingular."""
    for (y, h, sdim, tdim) in _shapes(cat, nt.x, nt.a, nt.F):
        if sdim != tdim:
            return False
        blk = [list(r) for r in nt.block(y, h, tdim, sdim)]
        if sdim and fplinalg.matinv(blk, cat.field.p) is None:
            return False
    return True


def has_invertible_nat(cat: GradedCatPresentation, x: int, a: int, F: RepTarget,
                       max_enum: int = 4096) -> bool:
    """Whether some combination of the Nat basis is componentwise invertible.

    No combination is when some block is not square.  Otherwise the basis
    vectors, then all combinations in odometer order (last coefficient
    fastest) are tried; CapExceeded is raised, the question undecided, when
    there are more than max_enum combinations and no basis vector is
    invertible.
    """
    basis = nat_space(cat, x, a, F)
    if not basis or any(s != t for (_, _, s, t) in _shapes(cat, x, a, F)):
        return False
    p = cat.field.p
    if any(nat_invertible(cat, nt) for nt in basis):
        return True
    if p ** len(basis) > max_enum:
        raise CapExceeded(f"{p ** len(basis)} combinations of the Nat basis "
                          f"exceed cap {max_enum}")
    layout, nvars = _block_index(cat, x, a, F)
    columns = list(zip(*(_unknowns(layout, nvars, nt) for nt in basis)))
    for coeffs in product(range(p), repeat=len(basis)):
        if any(coeffs):
            vec = [sum(map(mul, coeffs, col)) % p for col in columns]
            if nat_invertible(cat, GradedNatTrans(x, a, F, _blocks(layout, vec))):
                return True
    return False


def whisker_object_morphism(cat: GradedCatPresentation, nt: GradedNatTrans,
                            xm: Morphism) -> GradedNatTrans:
    """Precompose with the degree-1 morphism xm: x -> x' on the representable side.

    The result is a transformation yo^a_{x'} => F when nt: yo^a_x => F.
    """
    gH = cat.tau.source
    if xm.degree != gH.identity or xm.src != nt.x:
        raise ValueError("whiskering needs a degree-1 morphism out of the anchor")
    x2 = xm.dst
    blocks = {}
    for y in cat.objects():
        for h in gH.elements():
            ha = gH.mul(h, nt.a)
            if cat.rank(x2, y, ha) == 0 or (tdim := _target_dim(cat, nt.F, y, h)) == 0:
                continue
            a1 = nt.block(y, h, tdim, cat.rank(nt.x, y, ha))
            # block times the matrix of f -> f o xm, Hom^{ha}(x', y) -> Hom^{ha}(x, y)
            mat = tuple(map(tuple, fplinalg.matmul(a1, precompose(cat, xm, y, ha),
                                                   cat.field.p)))
            if any(any(rw) for rw in mat):
                blocks[(y, h)] = mat
    return GradedNatTrans(x2, nt.a, nt.F, blocks)


def apply_rep_to_value(cat: GradedCatPresentation, F: RepTarget, xm: Morphism,
                       a: int, v):
    """(F xm) applied to a vector in (F x)_{a^-1}; lands in (F x')_{a^-1}."""
    return fplinalg.matvec(_rep_matrix(cat, F, xm, cat.tau.source.inv(a)), v, cat.field.p)
