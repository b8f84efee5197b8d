"""Half-enriched Yoneda machinery on finite presentations.

For an object X and a in H, the functor yo^a_X sends Y to the graded
module with h-component Hom^{ha}(X, Y) and acts on morphisms by
post-composition.  Targets of natural-transformation computations are
restricted to finite direct sums of such representables, which keeps
every Nat space a finite linear solve.

The evaluation map sends eta: yo^a_X => F to eta_X(id), landing in the
a^-1 component of FX; its inverse sends v there to the transformation
f -> (Ff)(v).  Both directions are computed explicitly and are checked
to be mutually inverse in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from operator import mul

from . import fplinalg
from .category import (GradedCatPresentation, Morphism, basis_morphism,
                       compose, identity_morphism)


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

    def total_dim(self) -> int:
        return sum(len(v) for v in self.components.values())


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


def _block_index(cat: GradedCatPresentation, x: int, a: int, F: RepTarget):
    """Ordered unknown blocks (y, h, source dim, target dim) with offsets."""
    gH = cat.tau.source
    layout = []
    offset = 0
    for y in cat.objects():
        for h in gH.elements():
            sdim = cat.rank(x, y, gH.mul(h, a))
            if sdim == 0:
                continue
            tdim = _target_dim(cat, F, y, h)
            layout.append((y, h, sdim, tdim, offset))
            offset += sdim * tdim
    return layout, offset


def _nat_rows(cat: GradedCatPresentation, x: int, a: int, F: RepTarget, layout,
              nvars: int):
    """The naturality equations of yo^a_x => F, one row per equation.

    For each basis element g: y -> y2 of degree k and each basis element f
    of Hom^{ha}(x, y), every coordinate of A2 . (g o f) - F(g) . (A1 f) = 0,
    where A1 and A2 are the (y, h) and (y2, kh) unknown blocks of layout.
    """
    gH = cat.tau.source
    p = cat.field.p
    pos = {(y, h): (sdim, tdim, off) for (y, h, sdim, tdim, off) in layout}
    for y in cat.objects():
        for (y2, k, rk) in cat.out_homs(y):
            for gi in range(rk):
                g = basis_morphism(cat, y, y2, k, gi)
                for h in gH.elements():
                    sdim = cat.rank(x, y, gH.mul(h, a))
                    if sdim == 0:
                        continue
                    kh = gH.mul(k, h)
                    tdim_src = _target_dim(cat, F, y, h)
                    tdim_dst = _target_dim(cat, F, y2, kh)
                    moved = [_apply_rep(cat, F, g, y, h, [int(i == d) for i in range(tdim_src)])
                             for d in range(tdim_src)]
                    for fi in range(sdim):
                        f = basis_morphism(cat, x, y, gH.mul(h, a), fi)
                        gf = compose(cat, f, g).coords  # in Hom^{kha}(x, y2)
                        for r_out in range(tdim_dst):
                            row = [0] * nvars
                            if (y2, kh) in pos:
                                s2, t2, off2 = pos[(y2, kh)]
                                for c in range(s2):
                                    if gf[c]:
                                        row[off2 + r_out * s2 + c] = (
                                            row[off2 + r_out * s2 + c] + gf[c]) % p
                            s1, t1, off1 = pos[(y, h)]
                            for d in range(t1):
                                if moved[d][r_out]:
                                    idx = off1 + d * s1 + fi
                                    row[idx] = (row[idx] - moved[d][r_out]) % p
                            yield row


def nat_space(cat: GradedCatPresentation, x: int, a: int, F: RepTarget):
    """Basis of Nat(yo^a_x, F) by one exhaustive linear solve over F_p."""
    p = cat.field.p
    layout, nvars = _block_index(cat, x, a, F)
    rows = [row for row in _nat_rows(cat, x, a, F, layout, nvars) if any(row)]
    basis = fplinalg.nullspace(rows, p, ncols=nvars)
    out = []
    for vec in basis:
        blocks = {}
        for (y, h, sdim, tdim, off) in layout:
            if tdim == 0:
                continue
            mat = tuple(tuple(vec[off + r * sdim + c] for c in range(sdim))
                        for r in range(tdim))
            if any(any(rw) for rw in mat):
                blocks[(y, h)] = mat
        out.append(GradedNatTrans(x, a, F, blocks))
    return out


def verify_graded_nat(cat: GradedCatPresentation, nt: GradedNatTrans) -> bool:
    """Recheck naturality of explicit block data (used on reconstructed etas):
    the blocks, laid out as nat_space's unknowns, satisfy every row."""
    p = cat.field.p
    layout, nvars = _block_index(cat, nt.x, nt.a, nt.F)
    vec = [0] * nvars
    for (y, h, sdim, tdim, off) in layout:
        for r, row in enumerate(nt.block(y, h, tdim, sdim)):
            vec[off + r * sdim:off + (r + 1) * sdim] = row
    return all(sum(map(mul, row, vec)) % p == 0
               for row in _nat_rows(cat, nt.x, nt.a, nt.F, layout, nvars))


def _apply_rep(cat: GradedCatPresentation, F: RepTarget, g: Morphism, y: int,
               h: int, vec):
    """F(g) applied to a vector in the (y, h) component of the target."""
    gH = cat.tau.source
    out = []
    seg = 0
    for (b, z) in F.pairs:
        r = cat.rank(z, y, gH.mul(h, b))
        piece = Morphism(z, y, gH.mul(h, b), tuple(vec[seg:seg + r]))
        seg += r
        if r == 0:
            out.extend((0,) * cat.rank(z, g.dst, gH.mul(gH.mul(g.degree, h), b)))
        else:
            out.extend(compose(cat, piece, g).coords)
    return out


def value_layout(cat: GradedCatPresentation, F: RepTarget, x: int, a: int):
    """Segment shapes of (F x)_{a^-1}: one block per representable summand."""
    gH = cat.tau.source
    a_inv = gH.inv(a)
    return [(b, z, cat.rank(z, x, gH.mul(a_inv, b))) for (b, z) in F.pairs]


def phi(cat: GradedCatPresentation, nt: GradedNatTrans):
    """Evaluate at the identity: the image of id_x under the x-component."""
    gH = cat.tau.source
    x, a = nt.x, nt.a
    a_inv = gH.inv(a)
    sdim = cat.rank(x, x, gH.identity)
    tdim = _target_dim(cat, nt.F, x, a_inv)
    block = nt.block(x, a_inv, tdim, sdim)
    idc = identity_morphism(cat, x).coords
    p = cat.field.p
    return tuple(sum(block[r][c] * idc[c] for c in range(sdim)) % p
                 for r in range(tdim))


def phi_inv(cat: GradedCatPresentation, x: int, a: int, F: RepTarget, v):
    """The transformation f -> (F f)(v) attached to v in (F x)_{a^-1}."""
    gH = cat.tau.source
    a_inv = gH.inv(a)
    if sum(r for _, _, r in value_layout(cat, F, x, a)) != len(v):
        raise ValueError("value vector has the wrong length")
    blocks = {}
    for y in cat.objects():
        for h in gH.elements():
            sdim = cat.rank(x, y, gH.mul(h, a))
            if sdim == 0:
                continue
            tdim = _target_dim(cat, F, y, h)
            if tdim == 0:
                continue
            mat = fplinalg.from_columns([
                _apply_rep(cat, F, basis_morphism(cat, x, y, gH.mul(h, a), fi), x, a_inv, v)
                for fi in range(sdim)])
            if any(any(rw) for rw in mat):
                blocks[(y, h)] = mat
    return GradedNatTrans(x, a, F, blocks)


def nat_equal(cat: GradedCatPresentation, F: RepTarget, n1: GradedNatTrans,
              n2: GradedNatTrans) -> bool:
    gH = cat.tau.source
    for y in cat.objects():
        for h in gH.elements():
            sdim = cat.rank(n1.x, y, gH.mul(h, n1.a))
            tdim = _target_dim(cat, F, y, h)
            if n1.block(y, h, tdim, sdim) != n2.block(y, h, tdim, sdim):
                return False
    return True


def nat_invertible(cat: GradedCatPresentation, nt: GradedNatTrans) -> bool:
    """Componentwise invertibility: every block square and nonsingular."""
    gH = cat.tau.source
    for y in cat.objects():
        for h in gH.elements():
            sdim = cat.rank(nt.x, y, gH.mul(h, nt.a))
            tdim = _target_dim(cat, nt.F, y, h)
            if sdim != tdim:
                return False
            if sdim == 0:
                continue
            blk = [list(r) for r in nt.block(y, h, tdim, sdim)]
            if fplinalg.matinv(blk, cat.field.p) is None:
                return False
    return True


def has_invertible_nat(cat: GradedCatPresentation, x: int, a: int, F: RepTarget,
                       max_enum: int = 4096) -> bool:
    """Whether some combination of the Nat basis is componentwise invertible.

    Combinations are tried in odometer order, last coefficient fastest.
    """
    basis = nat_space(cat, x, a, F)
    if not basis:
        return False
    p = cat.field.p
    for nt in basis:
        if nat_invertible(cat, nt):
            return True
    if p ** len(basis) > max_enum:
        return False
    layout, _ = _block_index(cat, x, a, F)
    for coeffs in product(range(p), repeat=len(basis)):
        if not any(coeffs):
            continue
        blocks = {}
        for (y, h, sdim, tdim, off) in layout:
            if tdim == 0:
                continue
            mat = [[0] * sdim for _ in range(tdim)]
            for c, nt in zip(coeffs, basis):
                if c == 0:
                    continue
                blk = nt.block(y, h, tdim, sdim)
                for r in range(tdim):
                    for s in range(sdim):
                        mat[r][s] = (mat[r][s] + c * blk[r][s]) % p
            if any(any(rw) for rw in mat):
                blocks[(y, h)] = tuple(tuple(rw) for rw in mat)
        if nat_invertible(cat, GradedNatTrans(x, a, F, blocks)):
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
            sdim2 = cat.rank(x2, y, gH.mul(h, a := nt.a))
            if sdim2 == 0:
                continue
            tdim = _target_dim(cat, nt.F, y, h)
            if tdim == 0:
                continue
            sdim = cat.rank(nt.x, y, gH.mul(h, a))
            a1 = nt.block(y, h, tdim, sdim)
            cols = []
            for fi in range(sdim2):
                f = basis_morphism(cat, x2, y, gH.mul(h, a), fi)
                fx = compose(cat, xm, f).coords  # f o xm in Hom^{ha}(x, y)
                col = [sum(a1[r][c] * fx[c] for c in range(sdim)) % cat.field.p
                       for r in range(tdim)]
                cols.append(col)
            mat = fplinalg.from_columns(cols)
            if any(any(rw) for rw in mat):
                blocks[(y, h)] = mat
    return GradedNatTrans(x2, nt.a, nt.F, blocks)


def apply_rep_to_value(cat: GradedCatPresentation, F: RepTarget, xm: Morphism,
                       a: int, v):
    """(F xm) applied to a vector in (F x)_{a^-1}; lands in (F x')_{a^-1}."""
    return _apply_rep(cat, F, xm, xm.src, cat.tau.source.inv(a), v)
