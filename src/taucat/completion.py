"""Additive completion: formal direct sums with block-matrix morphisms.

Objects are tuples of base objects; a degree-h morphism is a matrix of
base morphisms, one block per (destination part, source part), and its
coordinates are the blocks' coordinates in that row-major order.  The
classification algorithms all run on skeletal presentations, so the
completion exists to exercise direct sums, h-direct sums and the matrix
calculus, plus `presentation_of` to re-expose finite families of sum
objects to the ordinary verifiers.  Composition reads the base tensors
directly: a completion tensor is the base tensors placed by block.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from . import fplinalg
from .category import (GradedCatPresentation, Morphism, _contract, find_shift,
                       invert)


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

    def rank(self, src: tuple, dst: tuple, h: int) -> int:
        return sum(self.base.rank(a, b, h) for b in dst for a in src)

    def zero(self, src: tuple, dst: tuple, h: int) -> BlockMorphism:
        blocks = tuple(
            tuple((0,) * self.base.rank(a, b, h) for a in src) for b in dst)
        return BlockMorphism(tuple(src), tuple(dst), h, blocks)

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

    def add(self, f: BlockMorphism, g: BlockMorphism) -> BlockMorphism:
        p = self.field.p
        blocks = tuple(
            tuple(tuple((x + y) % p for x, y in zip(bf, bg))
                  for bf, bg in zip(rf, rg))
            for rf, rg in zip(f.blocks, g.blocks))
        return BlockMorphism(f.src, f.dst, f.degree, blocks)

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

    def embed(self, m: Morphism) -> BlockMorphism:
        return BlockMorphism((m.src,), (m.dst,), m.degree, ((m.coords,),))

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

    def direct_sum(self, parts):
        """(object, projections, injections) of the 1-direct sum."""
        obj = tuple(parts)
        pis = [self.projection(obj, i) for i in range(len(obj))]
        iotas = [self.injection(obj, i) for i in range(len(obj))]
        return obj, pis, iotas

    def shift_data(self, x: int, h: int):
        """(target, iso, inverse) of the shift of base object x by h."""
        y, iso, inverse = self._shift(x, h)
        return y, iso, invert(self.base, iso) if inverse is None else inverse

    def _shift(self, x: int, h: int):
        """(target, iso, inverse) of the shift of base object x by h, with
        the inverse None for a recorded shift: find_shift computes one, a
        recorded shift is inverted only by callers that need it."""
        if self.base.shifts is not None and (x, h) in self.base.shifts:
            y, iso = self.base.shifts[(x, h)]
            return y, iso, None
        hit = find_shift(self.base, x, h)
        if hit is None:
            raise ValueError(f"base object {x} has no shift by {h}")
        return hit

    def h_direct_sum(self, parts, h: int):
        """Sum with degree-h injections and degree h^-1 projections.

        Realised as the 1-direct sum of the shifted parts: the injection
        into slot i is the base shift iso composed into the sum, and the
        projection is its inverse projected out.
        """
        data = [self.shift_data(x, h) for x in parts]
        obj, pis, iotas = self.direct_sum([y for y, _, _ in data])
        h_iotas = [self.compose(self.embed(iso), iotas[i])
                   for i, (_, iso, _) in enumerate(data)]
        h_pis = [self.compose(pis[i], self.embed(inverse))
                 for i, (_, _, inverse) in enumerate(data)]
        return obj, h_pis, h_iotas

    def sum_shift(self, obj: tuple, h: int):
        """Block-diagonal shift iso of a sum object (componentwise shifts)."""
        data = [self._shift(x, h) for x in obj]
        target = tuple(y for y, _, _ in data)
        isos = [iso for _, iso, _ in data]
        blocks = []
        for bi, b_obj in enumerate(target):
            row = []
            for ai, a_obj in enumerate(obj):
                if ai == bi:
                    row.append(isos[ai].coords)
                else:
                    row.append((0,) * self.base.rank(a_obj, b_obj, h))
            blocks.append(tuple(row))
        return target, BlockMorphism(obj, target, h, tuple(blocks))

    def verify_biproduct(self, obj, parts, pis, iotas) -> bool:
        for i in range(len(parts)):
            for j in range(len(parts)):
                prod = self.compose(iotas[j], pis[i])
                if i == j:
                    want = self.identity((parts[i],))
                else:
                    want = self.zero((parts[j],), (parts[i],),
                                     prod.degree)
                if prod != want:
                    return False
        total = self.zero(obj, obj, self.base.tau.source.identity)
        for i in range(len(parts)):
            total = self.add(total, self.compose(pis[i], iotas[i]))
        return total == self.identity(obj)

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

    def _unflatten(self, src: tuple, dst: tuple, h: int, vec) -> BlockMorphism:
        """The degree-h block morphism src -> dst with flattened coordinates vec."""
        starts, _ = self._offsets(src, dst, h)
        blocks = tuple(
            tuple(tuple(vec[s:s + self.base.rank(a, b, h)]) for a, s in zip(src, row))
            for b, row in zip(dst, starts))
        return BlockMorphism(tuple(src), tuple(dst), h, blocks)

    def invert(self, f: BlockMorphism):
        """Two-sided inverse found by one linear solve, or None."""
        a_inv = self.base.tau.source.inv(f.degree)
        n = self.rank(f.dst, f.src, a_inv)
        if not n:
            return None
        cols = []
        for k in range(n):
            g = self._unflatten(f.dst, f.src, a_inv, [int(i == k) for i in range(n)])
            cols.append(self._flatten(self.compose(f, g)) + self._flatten(self.compose(g, f)))
        rhs = self._flatten(self.identity(f.src)) + self._flatten(self.identity(f.dst))
        x = fplinalg.solve(fplinalg.from_columns(cols), rhs, self.field.p, ncols=n)
        return None if x is None else self._unflatten(f.dst, f.src, a_inv, x)

    def presentation_of(self, objs) -> GradedCatPresentation:
        """Expose finitely many sum objects as an ordinary presentation.

        Every object must be degree-homogeneous.  Composing basis element l
        of block (bi, ai) of Hom^h(a, b) with basis element m of block
        (ci, bi) of Hom^{h2}(b, c) gives entry n of the base tensor
        T(a[ai], b[bi], c[ci]; h, h2)[n][m][l] in block (ci, ai) of
        Hom^{h2 h}(a, c); other block pairs compose to zero.  So each
        tensor is the base tensors placed by block, with a (possibly zero)
        tensor for every triple of nonzero hom spaces.  Sum objects whose
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
        hom_rank, comp, starts = {}, {}, {}
        for (i, a), (j, b), h in product(enumerate(objs), enumerate(objs), elements):
            starts[(i, j, h)], r = self._offsets(a, b, h)
            if r:
                hom_rank[(i, j, h)] = r
        for (i, a), (j, b), (k, c) in product(enumerate(objs), repeat=3):
            for h, h2 in product(elements, repeat=2):
                key1, key2, key3 = (i, j, h), (j, k, h2), (i, k, hmul(h2, h))
                if not (key1 in hom_rank and key2 in hom_rank and key3 in hom_rank):
                    continue
                s1, s2, s3 = starts[key1], starts[key2], starts[key3]
                tensor = [[[0] * hom_rank[key1] for _ in range(hom_rank[key2])]
                          for _ in range(hom_rank[key3])]
                for (ci, z), (bi, y), (ai, x) in product(enumerate(c), enumerate(b), enumerate(a)):
                    o1, o2 = s1[bi][ai], s2[ci][bi]
                    for layer, out in zip(base.tensor(x, y, z, h, h2) or (), tensor[s3[ci][ai]:]):
                        for row, dst in zip(layer, out[o2:]):
                            dst[o1:o1 + len(row)] = row
                comp[(i, j, k, h, h2)] = tensor
        identities = [self._flatten(self.identity(o)) for o in objs]
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
        return GradedCatPresentation(base.tau, base.field, degrees, hom_rank,
                                     comp, identities, sums=sums)
