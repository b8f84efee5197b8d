"""Additive completion: formal direct sums with block-matrix morphisms.

Objects are tuples of base objects; a degree-h morphism is a matrix of
base morphisms, one block per (destination part, source part).  The
classification algorithms all run on skeletal presentations, so the
completion exists to exercise direct sums, h-direct sums and the matrix
calculus, plus `presentation_of` to re-expose finite families of sum
objects to the ordinary verifiers.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import fplinalg
from .category import (GradedCatPresentation, Morphism, compose, find_shift,
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

    def scale(self, c: int, f: BlockMorphism) -> BlockMorphism:
        p = self.field.p
        blocks = tuple(tuple(tuple((c * x) % p for x in blk) for blk in row)
                       for row in f.blocks)
        return BlockMorphism(f.src, f.dst, f.degree, blocks)

    def compose(self, f: BlockMorphism, g: BlockMorphism) -> BlockMorphism:
        """g after f (matrix product over base composition)."""
        if f.dst != g.src:
            raise ValueError("block morphisms are not composable")
        base = self.base
        deg = base.tau.source.mul(g.degree, f.degree)
        out = []
        for ci, c_obj in enumerate(g.dst):
            row = []
            for ai, a_obj in enumerate(f.src):
                acc = Morphism(a_obj, c_obj, deg,
                               (0,) * base.rank(a_obj, c_obj, deg))
                for bi, b_obj in enumerate(f.dst):
                    fm = Morphism(a_obj, b_obj, f.degree, f.blocks[bi][ai])
                    gm = Morphism(b_obj, c_obj, g.degree, g.blocks[ci][bi])
                    if fm.is_zero() or gm.is_zero():
                        continue
                    term = compose(base, fm, gm)
                    acc = Morphism(a_obj, c_obj, deg, tuple(
                        self.field.add(x, y)
                        for x, y in zip(acc.coords, term.coords)))
                row.append(acc.coords)
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
        if self.base.shifts is not None and (x, h) in self.base.shifts:
            y, iso = self.base.shifts[(x, h)]
            return y, iso, invert(self.base, iso)
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
        data = [self.shift_data(x, h) for x in obj]
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

    def _hom_basis(self, src: tuple, dst: tuple, h: int):
        basis = []
        for bi, b in enumerate(dst):
            for ai, a in enumerate(src):
                for k in range(self.base.rank(a, b, h)):
                    basis.append((bi, ai, k))
        return basis

    def _basis_morphism(self, src: tuple, dst: tuple, h: int, which):
        bi0, ai0, k0 = which
        blocks = []
        for bi, b in enumerate(dst):
            row = []
            for ai, a in enumerate(src):
                r = self.base.rank(a, b, h)
                if (bi, ai) == (bi0, ai0):
                    row.append(tuple(1 if k == k0 else 0 for k in range(r)))
                else:
                    row.append((0,) * r)
            blocks.append(tuple(row))
        return BlockMorphism(tuple(src), tuple(dst), h, tuple(blocks))

    def invert(self, f: BlockMorphism):
        """Two-sided inverse found by one linear solve, or None."""
        gH = self.base.tau.source
        a_inv = gH.inv(f.degree)
        basis = self._hom_basis(f.dst, f.src, a_inv)
        if not basis:
            return None
        cols = []
        for which in basis:
            g = self._basis_morphism(f.dst, f.src, a_inv, which)
            left = self._flatten(self.compose(f, g))
            right = self._flatten(self.compose(g, f))
            cols.append(left + right)
        rhs = self._flatten(self.identity(f.src)) + self._flatten(self.identity(f.dst))
        x = fplinalg.solve(fplinalg.from_columns(cols), rhs, self.field.p,
                           ncols=len(cols))
        if x is None:
            return None
        out = self.zero(f.dst, f.src, a_inv)
        for coeff, which in zip(x, basis):
            if coeff:
                out = self.add(out, self.scale(coeff, self._basis_morphism(
                    f.dst, f.src, a_inv, which)))
        return out

    def presentation_of(self, objs) -> GradedCatPresentation:
        """Expose finitely many sum objects as an ordinary presentation.

        Every object must be degree-homogeneous.  Sum objects whose
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
        hom_rank, comp = {}, {}
        bases = {}
        for i, a in enumerate(objs):
            for j, b in enumerate(objs):
                for h in base.tau.source.elements():
                    r = self.rank(a, b, h)
                    if r:
                        hom_rank[(i, j, h)] = r
                        bases[(i, j, h)] = self._hom_basis(a, b, h)
        hmul = base.tau.source.mul
        for i, a in enumerate(objs):
            for j, b in enumerate(objs):
                for k, c in enumerate(objs):
                    for h in base.tau.source.elements():
                        r1 = hom_rank.get((i, j, h), 0)
                        if not r1:
                            continue
                        for h2 in base.tau.source.elements():
                            r2 = hom_rank.get((j, k, h2), 0)
                            r3 = hom_rank.get((i, k, hmul(h2, h)), 0)
                            if not r2 or not r3:
                                continue
                            tensor = [[[0] * r1 for _ in range(r2)] for _ in range(r3)]
                            for jj, wb in enumerate(bases[(j, k, h2)]):
                                gm = self._basis_morphism(b, c, h2, wb)
                                for ii, wa in enumerate(bases[(i, j, h)]):
                                    fm = self._basis_morphism(a, b, h, wa)
                                    coords = self._flatten(self.compose(fm, gm))
                                    for kk in range(r3):
                                        tensor[kk][jj][ii] = coords[kk]
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
