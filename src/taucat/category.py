"""Finite presentations of categories graded by a group homomorphism.

A presentation fixes a homomorphism tau: H -> G, a prime field, objects
carrying G-degrees, a basis for every nonzero hom space Hom^h(X, Y)
(h in H), and composition structure constants.  Composition multiplies
degrees: Hom^{h'}(Y,Z) x Hom^h(X,Y) -> Hom^{h'h}(X,Z).  Nonzero degree-h
morphisms are only allowed between objects whose degrees differ by tau(h);
`verify_axioms` checks that, the unit laws and associativity exhaustively
over the stored bases.  It reads the laws off the composition tensors:
associativity on every composable path and basis triple is one identity
between two contractions of stored tensors, mod p.  `verify_functor`,
`verify_nat` and `invert` work the same way on the tensors, the functor
hom matrices and the component coordinates, through the one contraction
`compose` uses; none of them builds a Morphism per basis element.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul
from random import Random

from . import fplinalg
from .fields import PrimeField
from .groups import GroupHom


@dataclass(frozen=True)
class Morphism:
    """A homogeneous morphism: coordinates in the chosen basis of its hom space."""

    src: int
    dst: int
    degree: int
    coords: tuple[int, ...]

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)


@dataclass
class Verdict:
    violations: list

    @property
    def ok(self) -> bool:
        return not self.violations

    def __bool__(self) -> bool:
        return self.ok

    def __repr__(self) -> str:
        return "ok" if self.ok else f"violations={self.violations!r}"


class GradedCatPresentation:
    """Objects with degrees, graded hom bases, and composition tensors.

    hom_rank maps (src, dst, h) to the dimension of Hom^h(src, dst); absent
    keys mean zero.  compose maps (src, mid, dst, h, h2) to a tensor
    c[k][j][i] expressing (basis_j of Hom^{h2}(mid,dst)) o (basis_i of
    Hom^h(src,mid)) = sum_k c[k][j][i] basis_k in Hom^{h2 h}(src,dst);
    absent tensors are zero.  `shifts`, when present, records a canonical
    shift datum (target, iso) per (object, degree); `sums` records declared
    direct-sum structure (part, injection, projection) per object.
    """

    def __init__(self, tau: GroupHom, field: PrimeField, degrees, hom_rank,
                 compose, identities, shifts=None, sums=None):
        self.tau = tau
        self.field = field
        self.degrees = tuple(int(d) for d in degrees)
        self.hom_rank = {k: int(r) for k, r in hom_rank.items() if int(r) > 0}
        self.compose_t = {}
        for key, tensor in compose.items():
            t = tuple(tuple(tuple(int(x) % field.p for x in row) for row in layer)
                      for layer in tensor)
            self.compose_t[key] = t
        self.identities = tuple(tuple(int(c) % field.p for c in cid) for cid in identities)
        self.shifts = dict(shifts) if shifts is not None else None
        self.sums = dict(sums) if sums else {}
        self._validate_shapes()
        n = len(self.degrees)
        self._out = [[] for _ in range(n)]
        for (x, y, h), r in sorted(self.hom_rank.items()):
            self._out[x].append((y, h, r))

    @property
    def n_objects(self) -> int:
        return len(self.degrees)

    def objects(self) -> range:
        return range(len(self.degrees))

    def rank(self, x: int, y: int, h: int) -> int:
        return self.hom_rank.get((x, y, h), 0)

    def tensor(self, x: int, y: int, z: int, h: int, h2: int):
        return self.compose_t.get((x, y, z, h, h2))

    def out_homs(self, x: int):
        return self._out[x]

    def hom_keys(self):
        return sorted(self.hom_rank)

    def __eq__(self, other):
        if not isinstance(other, GradedCatPresentation):
            return NotImplemented
        return (self.tau == other.tau and self.field == other.field
                and self.degrees == other.degrees
                and self.hom_rank == other.hom_rank
                and self.compose_t == other.compose_t
                and self.identities == other.identities)

    def _validate_shapes(self):
        n = len(self.degrees)
        ng = self.tau.target.order
        nh = self.tau.source.order
        if len(self.identities) != n:
            raise ValueError("one identity coordinate vector per object required")
        for d in self.degrees:
            if not 0 <= d < ng:
                raise ValueError("object degree out of range")
        for (x, y, h), r in self.hom_rank.items():
            if not (0 <= x < n and 0 <= y < n and 0 <= h < nh):
                raise ValueError(f"hom key out of range: {(x, y, h)}")
        hmul = self.tau.source.mul
        for (x, y, z, h, h2), t in self.compose_t.items():
            if not (0 <= min(x, y, z) and max(x, y, z) < n and 0 <= h < nh
                    and 0 <= h2 < nh):
                raise ValueError(f"composition key out of range: {(x, y, z, h, h2)}")
            r1 = self.rank(x, y, h)
            r2 = self.rank(y, z, h2)
            r3 = self.rank(x, z, hmul(h2, h))
            if len(t) != r3 or any(len(layer) != r2 for layer in t) or any(
                    len(row) != r1 for layer in t for row in layer):
                raise ValueError(f"ragged composition tensor at {(x, y, z, h, h2)}")
        e = self.tau.source.identity
        for x in range(n):
            if len(self.identities[x]) != self.rank(x, x, e):
                raise ValueError(f"identity coordinates of object {x} have wrong length")
        for x, parts in self.sums.items():
            for part, iota, pi in parts:
                if not (0 <= x < n and 0 <= part < n):
                    raise ValueError(f"declared sum {x} has a part out of range")
                for m, ends in ((iota, (part, x)), (pi, (x, part))):
                    if ((m.src, m.dst) != ends
                            or len(m.coords) != self.rank(m.src, m.dst, m.degree)):
                        raise ValueError(f"declared sum {x} has a malformed map at part {part}")


def zero_morphism(cat: GradedCatPresentation, x: int, y: int, h: int) -> Morphism:
    return Morphism(x, y, h, (0,) * cat.rank(x, y, h))


def identity_morphism(cat: GradedCatPresentation, x: int) -> Morphism:
    return Morphism(x, x, cat.tau.source.identity, cat.identities[x])


def basis_morphism(cat: GradedCatPresentation, x: int, y: int, h: int, k: int) -> Morphism:
    r = cat.rank(x, y, h)
    return Morphism(x, y, h, tuple(1 if i == k else 0 for i in range(r)))


def _contract(p: int, t, r: int, f, g) -> tuple:
    """Coordinates of g o f from their composition tensor t, mod p.

    Entry k is sum_{j, i} t[k][j][i] g[j] f[i]; r is the rank of the hom
    space g o f lives in, and None or an empty tensor is zero.
    """
    if not t:
        return (0,) * r
    if r == 1 and len(f) == 1 and len(g) == 1:
        return ((t[0][0][0] * f[0] * g[0]) % p,)
    return tuple(sum(gj * sum(map(mul, row, f)) for gj, row in zip(g, layer) if gj) % p
                 for layer in t)


def compose(cat: GradedCatPresentation, f: Morphism, g: Morphism) -> Morphism:
    """g after f; the result has degree |g| * |f|."""
    if f.dst != g.src:
        raise ValueError("morphisms are not composable")
    h, h2 = f.degree, g.degree
    deg = cat.tau.source.mul(h2, h)
    return Morphism(f.src, g.dst, deg, _contract(
        cat.field.p, cat.tensor(f.src, f.dst, g.dst, h, h2),
        cat.rank(f.src, g.dst, deg), f.coords, g.coords))


def verify_axioms(cat: GradedCatPresentation) -> Verdict:
    """Exhaustive check: grading law, identity degree, unit laws, associativity.

    The unit laws and associativity are read off the stored tensors
    T(x, y, z; h, h2) = cat.tensor(x, y, z, h, h2), an absent tensor counting
    as zero.  For every path w -h1-> x -h2-> y -h3-> z and basis indices
    (i, j, k) of the three hom spaces, associativity is the identity, mod p,

        sum_m T(w,y,z; h2h1,h3)[q][k][m] T(w,x,y; h1,h2)[m][j][i]
            = sum_m T(w,x,z; h1,h3h2)[q][m][i] T(x,y,z; h2,h3)[m][k][j]

    for every q, and each (i, j, k) where it fails is one violation.  The
    unit laws contract identities[x] against T(x,x,y; e,h) and
    T(x,y,y; h,e) in the same way.
    """
    violations = []
    gH, gG = cat.tau.source, cat.tau.target
    e = gH.identity
    p = cat.field.p
    rank, tensor, hmul = cat.hom_rank.get, cat.compose_t.get, gH.mul

    for (x, y, h) in cat.hom_keys():
        if cat.degrees[y] != gG.mul(cat.tau.map[h], cat.degrees[x]):
            violations.append(("grading", x, y, h))

    for x in cat.objects():
        if cat.rank(x, x, e) == 0 or all(c == 0 for c in cat.identities[x]):
            violations.append(("identity-missing", x))

    for (x, y, h) in cat.hom_keys():
        r = rank((x, y, h))
        id_x, id_y = cat.identities[x], cat.identities[y]
        # e_k o id_x and id_y o e_k for every basis element e_k of Hom^h(x, y)
        t = tensor((x, x, y, e, h))
        right = [[sum(c * v for c, v in zip(layer[k], id_x)) % p for layer in t]
                 if t else [0] * r for k in range(r)]
        t = tensor((x, y, y, h, e))
        left = [[sum(row[k] * v for row, v in zip(layer, id_y)) % p for layer in t]
                if t else [0] * r for k in range(r)]
        for k in range(r):
            unit = [int(q == k) for q in range(r)]
            if id_x and right[k] != unit:
                violations.append(("unit-right", x, y, h, k))
            if id_y and left[k] != unit:
                violations.append(("unit-left", x, y, h, k))

    for w in cat.objects():
        for (x, h1, r1) in cat.out_homs(w):
            for (y, h2, r2) in cat.out_homs(x):
                h21 = hmul(h2, h1)
                r21 = rank((w, y, h21), 0)
                t_gf = tensor((w, x, y, h1, h2))
                for (z, h3, r3) in cat.out_homs(y):
                    h32 = hmul(h3, h2)
                    r = rank((w, z, hmul(h32, h1)), 0)
                    if r == 0:
                        continue  # both sides live in a zero hom space
                    r32 = rank((x, z, h32), 0)
                    t_l = tensor((w, y, z, h21, h3))
                    t_hg = tensor((x, y, z, h2, h3))
                    t_r = tensor((w, x, z, h1, h32))
                    if r == r1 == r2 == r3 == r21 == r32 == 1:
                        lhs = t_l[0][0][0] * t_gf[0][0][0] if t_l and t_gf else 0
                        rhs = t_r[0][0][0] * t_hg[0][0][0] if t_r and t_hg else 0
                        if (lhs - rhs) % p:
                            violations.append(("assoc", (w, x, y, z), (h1, h2, h3), (0, 0, 0)))
                        continue
                    for ijk in _assoc_failures(p, r, r1, r2, r3, t_gf, t_l, t_hg, t_r):
                        violations.append(("assoc", (w, x, y, z), (h1, h2, h3), ijk))
    return Verdict(violations)


def _assoc_failures(p, r, r1, r2, r3, t_gf, t_l, t_hg, t_r):
    """Basis triples (i, j, k) of one path where (h o g) o f != h o (g o f).

    t_gf gives g o f, t_l composes h after it, t_hg gives h o g and t_r
    composes it after f; None is the zero tensor.
    """
    zero = [0] * r
    hg = {(j, k): [layer[k][j] for layer in t_hg]
          for j in range(r2) for k in range(r3)} if t_hg and t_r else None
    for i in range(r1):
        r_i = [[row[i] for row in layer] for layer in t_r] if hg else None
        for j in range(r2):
            gf = [layer[j][i] for layer in t_gf] if t_gf and t_l else None
            for k in range(r3):
                lhs = [sum(map(mul, layer[k], gf)) % p for layer in t_l] if gf else zero
                rhs = [sum(map(mul, row, hg[j, k])) % p for row in r_i] if r_i else zero
                if lhs != rhs:
                    yield (i, j, k)


def invert(cat: GradedCatPresentation, f: Morphism):
    """Two-sided inverse of f (degree |f|^-1), or None.

    Solves g o f = id_src and f o g = id_dst for g in Hom^{|f|^-1}(dst, src),
    reading both composites off the tensors.  When the three hom spaces and
    f's own have rank 1 the system is x c1 = id_src, x c2 = id_dst in one
    unknown, solved in closed form with the verdicts of fplinalg.solve.
    """
    gH = cat.tau.source
    a_inv = gH.inv(f.degree)
    r2 = cat.rank(f.dst, f.src, a_inv)
    e = gH.identity
    r_src = cat.rank(f.src, f.src, e)
    r_dst = cat.rank(f.dst, f.dst, e)
    if r2 == 0 or r_src == 0 or r_dst == 0:
        return None
    p = cat.field.p
    t_gf = cat.tensor(f.src, f.dst, f.src, f.degree, a_inv)
    t_fg = cat.tensor(f.dst, f.src, f.dst, a_inv, f.degree)
    id_src, id_dst = cat.identities[f.src], cat.identities[f.dst]
    if r2 == r_src == r_dst == len(f.coords) == 1:
        c1 = t_gf[0][0][0] * f.coords[0] % p if t_gf else 0
        c2 = t_fg[0][0][0] * f.coords[0] % p if t_fg else 0
        (i1,), (i2,) = id_src, id_dst
        if c1:
            x = i1 * pow(c1, -1, p) % p
            solvable = (c2 * x - i2) % p == 0
        elif c2:
            x = i2 * pow(c2, -1, p) % p
            solvable = i1 == 0
        else:
            x, solvable = 0, i1 == i2 == 0
        return Morphism(f.dst, f.src, a_inv, (x,)) if solvable else None
    cols = []
    for j in range(r2):
        gj = tuple(int(i == j) for i in range(r2))
        cols.append(_contract(p, t_gf, r_src, f.coords, gj)
                    + _contract(p, t_fg, r_dst, gj, f.coords))
    x = fplinalg.solve(fplinalg.from_columns(cols), id_src + id_dst, p, ncols=r2)
    if x is None:
        return None
    return Morphism(f.dst, f.src, a_inv, tuple(x))


def _candidate_vectors(p: int, r: int, max_enum: int = 4096, samples: int = 64,
                       seed: int = 0):
    if r == 1:
        yield (1,)
        return
    if p ** r <= max_enum:
        def rec(prefix):
            if len(prefix) == r:
                if any(prefix):
                    yield tuple(prefix)
                return
            for v in range(p):
                yield from rec(prefix + [v])
        yield from rec([])
        return
    rng = Random(seed)
    for _ in range(samples):
        vec = tuple(rng.randrange(p) for _ in range(r))
        if any(vec):
            yield vec


def find_invertible(cat: GradedCatPresentation, x: int, y: int, a: int):
    """(f, f^-1) with f an invertible element of Hom^a(x, y), or None.

    Exhaustive over coordinate vectors while p^rank stays small; beyond
    that a fixed-seed sample is tried, which suffices at this scale.
    """
    r = cat.rank(x, y, a)
    if r == 0:
        return None
    for coords in _candidate_vectors(cat.field.p, r):
        f = Morphism(x, y, a, coords)
        g = invert(cat, f)
        if g is not None:
            return (f, g)
    return None


def find_shift(cat: GradedCatPresentation, x: int, a: int):
    """(target, iso, inverse) realising the shift of x by a, or None.

    Scans objects of the forced degree tau(a)|x| in index order and returns
    the first carrying an invertible element of Hom^a(x, -).
    """
    gH, gG = cat.tau.source, cat.tau.target
    if a == gH.identity:
        idm = identity_morphism(cat, x)
        return (x, idm, idm)
    want = gG.mul(cat.tau.map[a], cat.degrees[x])
    for y in cat.objects():
        if cat.degrees[y] != want:
            continue
        hit = find_invertible(cat, x, y, a)
        if hit is not None:
            return (y, *hit)
    return None


def is_simple(cat: GradedCatPresentation, x: int) -> bool:
    return cat.rank(x, x, cat.tau.source.identity) == 1


def are_disjoint_deg1(cat: GradedCatPresentation, x: int, y: int) -> bool:
    e = cat.tau.source.identity
    return cat.rank(x, y, e) == 0 and cat.rank(y, x, e) == 0


def direct_sum_cat(cats) -> GradedCatPresentation:
    """Disjoint union of presentations over the same tau and field."""
    cats = list(cats)
    if not cats:
        raise ValueError("need at least one presentation")
    first = cats[0]
    for c in cats[1:]:
        if c.tau != first.tau:
            raise ValueError("presentations graded by different homomorphisms")
        if c.field != first.field:
            raise ValueError("presentations over different fields")
    degrees, identities = [], []
    hom_rank, comp = {}, {}
    shifts = {} if all(c.shifts is not None for c in cats) else None
    sums = {}
    offset = 0
    for c in cats:
        for (x, y, h), r in c.hom_rank.items():
            hom_rank[(x + offset, y + offset, h)] = r
        for (x, y, z, h, h2), t in c.compose_t.items():
            comp[(x + offset, y + offset, z + offset, h, h2)] = t
        degrees.extend(c.degrees)
        identities.extend(c.identities)
        if shifts is not None:
            for (x, a), (y, m) in c.shifts.items():
                shifts[(x + offset, a)] = (
                    y + offset,
                    Morphism(m.src + offset, m.dst + offset, m.degree, m.coords))
        for x, parts in c.sums.items():
            sums[x + offset] = tuple(
                (part + offset,
                 Morphism(i.src + offset, i.dst + offset, i.degree, i.coords),
                 Morphism(q.src + offset, q.dst + offset, q.degree, q.coords))
                for (part, i, q) in parts)
        offset += c.n_objects
    return GradedCatPresentation(first.tau, first.field, degrees, hom_rank,
                                 comp, identities, shifts=shifts, sums=sums)


class FunctorData:
    """Degree-preserving functor between presentations as finite linear data.

    hom_maps[(x, y, h)] is a matrix (target rank x source rank) sending
    source basis coordinates to target coordinates; absent keys are zero.
    """

    def __init__(self, source: GradedCatPresentation, target: GradedCatPresentation,
                 obj_map, hom_maps):
        self.source = source
        self.target = target
        self.obj_map = tuple(int(x) for x in obj_map)
        self.hom_maps = {}
        for key, mat in hom_maps.items():
            self.hom_maps[key] = tuple(tuple(int(v) % target.field.p for v in row)
                                       for row in mat)
        for (x, y, h), mat in self.hom_maps.items():
            rows = target.rank(self.obj_map[x], self.obj_map[y], h)
            cols = source.rank(x, y, h)
            if len(mat) != rows or any(len(r) != cols for r in mat):
                raise ValueError(f"functor matrix at {(x, y, h)} has wrong shape")

    def matrix(self, x: int, y: int, h: int):
        mat = self.hom_maps.get((x, y, h))
        if mat is None:
            rows = self.target.rank(self.obj_map[x], self.obj_map[y], h)
            cols = self.source.rank(x, y, h)
            mat = tuple((0,) * cols for _ in range(rows))
        return mat

    def __eq__(self, other):
        if not isinstance(other, FunctorData):
            return NotImplemented
        if self.obj_map != other.obj_map:
            return False
        keys = set(self.source.hom_rank)
        return all(self.matrix(*k) == other.matrix(*k) for k in keys)


def apply_functor(F: FunctorData, m: Morphism) -> Morphism:
    mat = F.hom_maps.get((m.src, m.dst, m.degree))
    p = F.target.field.p
    if mat is not None and len(mat) == 1 and len(m.coords) == 1:
        return Morphism(F.obj_map[m.src], F.obj_map[m.dst], m.degree,
                        ((mat[0][0] * m.coords[0]) % p,))
    if mat is None:
        mat = F.matrix(m.src, m.dst, m.degree)
    coords = tuple(sum(row[i] * m.coords[i] for i in range(len(m.coords))) % p
                   for row in mat)
    return Morphism(F.obj_map[m.src], F.obj_map[m.dst], m.degree, coords)


def identity_functor(cat: GradedCatPresentation) -> FunctorData:
    maps = {}
    for (x, y, h), r in cat.hom_rank.items():
        maps[(x, y, h)] = tuple(tuple(1 if i == j else 0 for j in range(r))
                                for i in range(r))
    return FunctorData(cat, cat, list(cat.objects()), maps)


def compose_functors(F: FunctorData, G: FunctorData) -> FunctorData:
    """Apply F first, then G."""
    if F.target is not G.source and F.target != G.source:
        raise ValueError("functors are not composable")
    maps = {}
    for (x, y, h) in F.source.hom_rank:
        a = F.matrix(x, y, h)
        b = G.matrix(F.obj_map[x], F.obj_map[y], h)
        maps[(x, y, h)] = tuple(tuple(v for v in row) for row in
                                fplinalg.matmul([list(r) for r in b],
                                                [list(r) for r in a],
                                                G.target.field.p))
    return FunctorData(F.source, G.target,
                       [G.obj_map[F.obj_map[x]] for x in F.source.objects()], maps)


def _columns(mat, r: int) -> list:
    return [tuple(row[i] for row in mat) for i in range(r)]


def verify_functor(F: FunctorData) -> Verdict:
    """Identity, composition and degree preservation over all basis data.

    Read off the hom matrices A and the tensors: F(id_x) is A(x,x;e) id_x,
    and for basis elements i of Hom^{h1}(x, y) and j of Hom^{h2}(y, z)
    F(g_j o f_i) = A(x,z;h2h1) T_src(x,y,z;h1,h2)[:, j, i] must equal T_tgt
    contracted with column i of A(x,y;h1) and column j of A(y,z;h2).
    """
    violations = []
    src, tgt = F.source, F.target
    p = tgt.field.p
    e = src.tau.source.identity
    hmul = src.tau.source.mul
    omap = F.obj_map
    for x in src.objects():
        if tgt.degrees[omap[x]] != src.degrees[x]:
            violations.append(("object-degree", x))
    for x in src.objects():
        image = fplinalg.matvec(F.matrix(x, x, e), src.identities[x], p)
        if image != tgt.identities[omap[x]]:
            violations.append(("identity", x))
    for x in src.objects():
        for (y, h1, r1) in src.out_homs(x):
            f_cols = _columns(F.matrix(x, y, h1), r1)
            for (z, h2, r2) in src.out_homs(y):
                h21 = hmul(h2, h1)
                a3 = F.matrix(x, z, h21)
                g_cols = _columns(F.matrix(y, z, h2), r2)
                t_src = src.tensor(x, y, z, h1, h2)
                t_tgt = tgt.tensor(omap[x], omap[y], omap[z], h1, h2)
                r = tgt.rank(omap[x], omap[z], h21)
                for i in range(r1):
                    for j in range(r2):
                        gf = [layer[j][i] for layer in t_src] if t_src else ()
                        lhs = fplinalg.matvec(a3, gf, p)
                        if lhs != _contract(p, t_tgt, r, f_cols[i], g_cols[j]):
                            violations.append(("compose", (x, y, z), (h1, h2), (i, j)))
    return Verdict(violations)


class NatTransData:
    """Natural transformation with degree-1 components, F => G."""

    def __init__(self, source: FunctorData, target: FunctorData, components):
        self.source = source
        self.target = target
        self.components = tuple(components)

    def component(self, x: int) -> Morphism:
        return self.components[x]


def verify_nat(nt: NatTransData) -> Verdict:
    """Component shapes, then naturality on every basis element.

    For f_i in Hom^h(x, y), c_y o F(f_i) = G(f_i) o c_x reads
    T(Fx,Fy,Gy; h,e) against column i of F's matrix and c_y, and
    T(Fx,Gx,Gy; e,h) against c_x and column i of G's matrix.
    """
    violations = []
    F, G = nt.source, nt.target
    src = F.source
    tgt = F.target
    e = tgt.tau.source.identity
    if G.source is not src and G.source != src:
        violations.append(("endpoint-mismatch",))
        return Verdict(violations)
    for x in src.objects():
        c = nt.component(x)
        if c.degree != e or c.src != F.obj_map[x] or c.dst != G.obj_map[x]:
            violations.append(("component-shape", x))
    if violations:
        return Verdict(violations)
    p = tgt.field.p
    for x in src.objects():
        cx = nt.component(x).coords
        fx, gx = F.obj_map[x], G.obj_map[x]
        for (y, h, r) in src.out_homs(x):
            cy = nt.component(y).coords
            fy, gy = F.obj_map[y], G.obj_map[y]
            rank = tgt.rank(fx, gy, h)
            t_l = tgt.tensor(fx, gx, gy, e, h)
            t_r = tgt.tensor(fx, fy, gy, h, e)
            g_cols = _columns(G.matrix(x, y, h), r)
            f_cols = _columns(F.matrix(x, y, h), r)
            for i in range(r):
                lhs = _contract(p, t_l, rank, cx, g_cols[i])
                if lhs != _contract(p, t_r, rank, f_cols[i], cy):
                    violations.append(("naturality", x, y, h, i))
    return Verdict(violations)
