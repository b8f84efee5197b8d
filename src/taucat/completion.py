"""Additive completion: formal direct sums with block-matrix morphisms.

Objects are tuples of base objects; a degree-h morphism is a matrix of
base morphisms, one block per (destination part, source part), and its
coordinates are the blocks' coordinates in that row-major order.  The
classification algorithms all run on skeletal presentations, so the
completion's job is `presentation_of`: it re-exposes finitely many sum
objects as an ordinary presentation, on which `category` composes and
inverts and `structure` checks the declared biproducts.  `compose` is the
block product the presentation's tensors encode; it reads the base
tensors directly, as a completion tensor is the base tensors placed by
block.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .category import GradedCatPresentation, Morphism, _contract


@dataclass(frozen=True)
class BlockMorphism:
    src: tuple[int, ...]
    dst: tuple[int, ...]
    degree: int
    blocks: tuple[tuple[tuple[int, ...], ...], ...]  # blocks[dst_part][src_part]


class AdditiveCompletion:
    def __init__(self, base: GradedCatPresentation):
        self.base = base
        self.field = base.field

    def identity(self, obj: tuple) -> BlockMorphism:
        e = self.base.tau.source.identity
        blocks = []
        for i, b in enumerate(obj):
            row = []
            for j, a in enumerate(obj):
                if i == j:
                    row.append(self.base.identities[a])
                else:
                    row.append((0,) * self.base.rank(a, b, e))
            blocks.append(tuple(row))
        return BlockMorphism(tuple(obj), tuple(obj), e, tuple(blocks))

    def compose(self, f: BlockMorphism, g: BlockMorphism) -> BlockMorphism:
        """g after f: block (c, a) is the sum over b of g[c][b] o f[b][a]."""
        if f.dst != g.src:
            raise ValueError("block morphisms are not composable")
        base, p = self.base, self.field.p
        deg = base.tau.source.mul(g.degree, f.degree)
        out = []
        for ci, c_obj in enumerate(g.dst):
            row = []
            for ai, a_obj in enumerate(f.src):
                r = base.rank(a_obj, c_obj, deg)
                terms = [_contract(p, base.tensor(a_obj, b_obj, c_obj, f.degree, g.degree),
                                   r, f.blocks[bi][ai], g.blocks[ci][bi])
                         for bi, b_obj in enumerate(f.dst)]
                row.append(tuple(sum(col) % p for col in zip((0,) * r, *terms)))
            out.append(tuple(row))
        return BlockMorphism(f.src, g.dst, deg, tuple(out))

    def injection(self, obj: tuple, i: int) -> BlockMorphism:
        e = self.base.tau.source.identity
        blocks = []
        for bi, b in enumerate(obj):
            r = self.base.rank(obj[i], b, e)
            blocks.append((self.base.identities[b] if bi == i else (0,) * r,))
        return BlockMorphism((obj[i],), tuple(obj), e, tuple(blocks))

    def projection(self, obj: tuple, i: int) -> BlockMorphism:
        e = self.base.tau.source.identity
        row = []
        for ai, a in enumerate(obj):
            r = self.base.rank(a, obj[i], e)
            row.append(self.base.identities[a] if ai == i else (0,) * r)
        return BlockMorphism(tuple(obj), (obj[i],), e, (tuple(row),))

    def _flatten(self, f: BlockMorphism):
        out = []
        for row in f.blocks:
            for blk in row:
                out.extend(blk)
        return out

    def _offsets(self, src: tuple, dst: tuple, h: int):
        """(starts, rank) of Hom^h(src, dst): starts[bi][ai] is the first
        coordinate of block (bi, ai) in the flattened morphism."""
        starts, total = [], 0
        for b in dst:
            row = []
            for a in src:
                row.append(total)
                total += self.base.rank(a, b, h)
            starts.append(row)
        return starts, total

    def presentation_of(self, objs) -> GradedCatPresentation:
        """Expose finitely many sum objects as an ordinary presentation.

        Every object must be degree-homogeneous.  Composing basis element l
        of block (bi, ai) of Hom^h(a, b) with basis element m of block
        (ci, bi) of Hom^{h2}(b, c) gives entry n of the base tensor
        T(a[ai], b[bi], c[ci]; h, h2)[n][m][l] in block (ci, ai) of
        Hom^{h2 h}(a, c); other block pairs compose to zero.  So each
        tensor is the base's nonzeros moved to their block offsets, with a
        (possibly zero) tensor for every triple of nonzero hom spaces, all
        canonical, so `_trusted` keeps them.  Sum objects whose
        singleton parts are all present get declared direct-sum structure,
        which is what the semisimplicity verdicts consume.
        """
        base = self.base
        objs = [tuple(o) for o in objs]
        degrees = []
        for o in objs:
            degs = {base.degrees[x] for x in o}
            if len(degs) > 1:
                raise ValueError(f"object {o} mixes degrees {degs}")
            degrees.append(degs.pop() if degs else base.tau.target.identity)
        elements, hmul = base.tau.source.elements(), base.tau.source.mul
        hom_rank, tensors, starts = {}, {}, {}
        for (i, a), (j, b), h in product(enumerate(objs), enumerate(objs), elements):
            starts[(i, j, h)], r = self._offsets(a, b, h)
            if r:
                hom_rank[(i, j, h)] = r
        for h, h2 in product(elements, repeat=2):
            base_t = base.tensors.get((h, h2), {})
            for (i, a), (j, b), (k, c) in product(enumerate(objs), repeat=3):
                key1, key2, key3 = (i, j, h), (j, k, h2), (i, k, hmul(h2, h))
                if not (key1 in hom_rank and key2 in hom_rank and key3 in hom_rank):
                    continue
                s1, s2, s3 = starts[key1], starts[key2], starts[key3]
                tensor = tensors.setdefault((h, h2), {})[(i, j, k)] = {}
                for (ci, z), (bi, y), (ai, x) in product(enumerate(c), enumerate(b), enumerate(a)):
                    o1, o2, o3 = s1[bi][ai], s2[ci][bi], s3[ci][ai]
                    for (m, l), entries in base_t.get((x, y, z), {}).items():
                        tensor[(o2 + m, o1 + l)] = tuple((o3 + n, v) for n, v in entries)
        identities = [tuple(self._flatten(self.identity(o))) for o in objs]
        singleton_index = {o[0]: i for i, o in enumerate(objs) if len(o) == 1}
        sums = {}
        for i, o in enumerate(objs):
            if len(o) <= 1:
                continue
            if not all(x in singleton_index for x in o):
                continue
            decl = []
            for slot, x in enumerate(o):
                iota = self.injection(o, slot)
                pi = self.projection(o, slot)
                decl.append((
                    singleton_index[x],
                    Morphism(singleton_index[x], i, iota.degree,
                             tuple(self._flatten(iota))),
                    Morphism(i, singleton_index[x], pi.degree,
                             tuple(self._flatten(pi))),
                ))
            sums[i] = tuple(decl)
        return GradedCatPresentation._trusted(base.tau, base.field, degrees, hom_rank,
                                              tensors, identities, sums=sums)
