"""Semisimple structure analysis and cohomological classification.

From a verified presentation with shifts this module extracts, per orbit
of simple objects under invertible homogeneous morphisms, the stabiliser
subgroup L, a normalised 2-cocycle psi read off chosen spanning morphisms,
and a base degree g.  The decomposition verdict rebuilds the skeletal
block category on that data and checks the comparison functor is a
degree-preserving equivalence onto the simples.

Equivalences between two skeletal blocks (L, psi, g) and (L', psi', g')
are classified by pairs (t, gamma): t runs over tau^-1(g g'^-1) with
L = t L' t^-1, and gamma solves  psi * (psi'^t)^-1 = d1(gamma).  Solutions
are returned one per class modulo d0-coboundaries, each represented by
its lexicographically least exponent vector.  Natural isomorphisms between
two realised equivalences correspond to 0-cochains eta with
gamma = delta * d0(eta).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import prod

from . import znsolve
from .category import (FunctorData, GradedCatPresentation, Morphism,
                       NatTransData, Verdict, compose,
                       find_invertible, find_shift, identity_morphism, invert,
                       is_simple, verify_functor, verify_nat)
from .cochains import (Cochain1, c1_inv, c1_mul, c2_inv, c2_mul,
                       coboundary_basis_c1, cochain2, d1_cochain, d1_solver,
                       trivial_cochain1, _tree_system, solve_d0, translate)
from .groups import (CosetSpace, Subgroup, cayley_tree, conjugate_subgroup,
                     coset_space, subgroup)
from .mtau import MtauSpec, build_skeleton, mtau_spec


@dataclass
class SimpleOrbit:
    """Everything read off one orbit of simple objects."""

    representative: int
    space: CosetSpace
    shift_targets: tuple[int, ...]
    spanning: dict
    spec: MtauSpec  # the block (L, psi, g) read off the orbit


@dataclass
class DecompositionReport:
    summands: list[MtauSpec]
    orbits: list[SimpleOrbit]
    witness: FunctorData | None
    semisimple: bool
    obstruction: tuple | None


@dataclass(frozen=True)
class EquivalenceDatum:
    t: int
    gamma: Cochain1


def stabilizer_subgroup(cat: GradedCatPresentation, s: int) -> Subgroup:
    """Degrees a with an invertible element of Hom^a(s, s)."""
    gH = cat.tau.source
    members = [a for a in gH.elements() if find_invertible(cat, s, s, a)]
    return subgroup(gH, members)


def analyze_simple(cat: GradedCatPresentation, s: int) -> SimpleOrbit:
    """Extract (L, psi, g) from a simple object of a category with shifts.

    Spanning morphisms are pinned to the basis element with coordinate 1
    (identity for the trivial degree), which keeps the extracted cocycle
    deterministic; the classifier absorbs the remaining choice freedom.
    """
    if not is_simple(cat, s):
        raise ValueError(f"object {s} is not simple")
    gH = cat.tau.source
    e = gH.identity
    L = stabilizer_subgroup(cat, s)
    space = coset_space(gH, L)
    perms = space.act

    targets = []
    for rep in space.reps:
        hit = find_shift(cat, s, rep)
        if hit is None:
            raise ValueError(f"simple object {s} has no shift by {rep}")
        targets.append(hit[0])

    spanning = {}
    for i in range(space.size):
        for a in gH.elements():
            j = perms[a][i]
            src, dst = targets[i], targets[j]
            r = cat.rank(src, dst, a)
            if r != 1:
                raise ValueError(
                    f"Hom^{a}({src},{dst}) has rank {r}; expected 1 for a simple orbit")
            if a == e:
                f = identity_morphism(cat, src)
            else:
                f = Morphism(src, dst, a, (1,))
                if invert(cat, f) is None:
                    raise ValueError(
                        f"spanning morphism of degree {a} at coset {i} is not invertible")
            spanning[(i, a)] = f

    f_field = cat.field
    p = f_field.p
    values = []
    for a in gH.elements():
        row = []
        for b in gH.elements():
            cell = []
            for i in range(space.size):
                # rank 1: one tensor entry times the two spanning scalars
                j = perms[b][i]
                t = cat.tensor(targets[i], targets[j], targets[perms[a][j]], b, a)
                comp = (t[0][0][0] * spanning[(i, b)].coords[0]
                        * spanning[(j, a)].coords[0] % p) if t else 0
                if comp == 0:
                    raise ValueError("composite of spanning morphisms vanished")
                target_f = spanning[(i, gH.mul(a, b))]
                cell.append(f_field.mul(target_f.coords[0], f_field.inv(comp)))
            row.append(tuple(cell))
        values.append(tuple(row))
    # mtau_spec checks L <= ker tau and the cocycle identity of psi
    spec = mtau_spec(cat.tau, f_field, L, cochain2(f_field, space, values),
                     cat.degrees[s])
    return SimpleOrbit(s, space, tuple(targets), spanning, spec)


def _declared_sum_ok(cat: GradedCatPresentation, x: int) -> bool:
    parts = cat.sums.get(x)
    if not parts:
        return False
    e = cat.tau.source.identity
    total = Morphism(x, x, e, (0,) * cat.rank(x, x, e))
    for k, (part, iota, pi) in enumerate(parts):
        if not is_simple(cat, part):
            return False
        for k2, (part2, iota2, _) in enumerate(parts):
            prod = compose(cat, iota2, pi)
            if k == k2:
                if prod != identity_morphism(cat, part):
                    return False
            elif not prod.is_zero():
                return False
        term = compose(cat, pi, iota)
        total = Morphism(x, x, e, tuple(
            cat.field.add(a, b) for a, b in zip(total.coords, term.coords)))
    return total == identity_morphism(cat, x)


class _Classes:
    """Union-find over a list of objects; classes list in order of their roots."""

    def __init__(self, items):
        self.parent = {x: x for x in items}

    def root(self, x):
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def join(self, x, y):
        """Merge the class of y into the class of x."""
        rx, ry = self.root(x), self.root(y)
        if rx != ry:
            self.parent[ry] = rx

    def classes(self):
        groups = {}
        for x in self.parent:
            groups.setdefault(self.root(x), []).append(x)
        return [sorted(v) for _, v in sorted(groups.items())]


def simple_orbits(cat: GradedCatPresentation):
    """Partition the simples by connectivity under invertible morphisms."""
    gH = cat.tau.source
    simples = [x for x in cat.objects() if is_simple(cat, x)]
    orbits = _Classes(simples)
    for i, x in enumerate(simples):
        for y in simples[i + 1:]:
            if orbits.root(x) != orbits.root(y) and any(
                    find_invertible(cat, x, y, a) for a in gH.elements()):
                orbits.join(x, y)
    return orbits.classes()


def decompose(cat: GradedCatPresentation) -> DecompositionReport:
    """Split into skeletal blocks and verify the comparison functor."""
    for x in cat.objects():
        if not is_simple(cat, x) and not _declared_sum_ok(cat, x):
            return DecompositionReport([], [], None, False,
                                       ("not-simple-or-declared-sum", x))

    orbits = [analyze_simple(cat, orbit[0]) for orbit in simple_orbits(cat)]
    specs = [o.spec for o in orbits]

    from .category import direct_sum_cat

    if orbits:
        skeletons = [build_skeleton(sp) for sp in specs]
        source = skeletons[0] if len(skeletons) == 1 else direct_sum_cat(skeletons)
        obj_map = [y for o in orbits for y in o.shift_targets]
        hom_maps, offset = {}, 0
        for o in orbits:
            perms = o.space.act
            for i in range(o.space.size):
                for a in cat.tau.source.elements():
                    j = perms[a][i]
                    f = o.spanning[(i, a)]
                    hom_maps[(offset + i, offset + j, a)] = tuple(
                        (c,) for c in f.coords)
            offset += o.space.size
        witness = FunctorData._trusted(source, cat, obj_map, hom_maps)
        verdict = verify_functor(witness)
        if not verdict.ok:
            return DecompositionReport(specs, orbits, witness, False,
                                       ("witness-functor", verdict.violations[0]))
        if len(set(obj_map)) != len(obj_map):
            return DecompositionReport(specs, orbits, witness, False,
                                       ("witness-not-injective",))
        # fully faithful: matching ranks at every image pair
        for x1 in source.objects():
            for x2 in source.objects():
                for h in cat.tau.source.elements():
                    if source.rank(x1, x2, h) != cat.rank(obj_map[x1], obj_map[x2], h):
                        return DecompositionReport(
                            specs, orbits, witness, False,
                            ("not-fully-faithful", x1, x2, h))
    else:
        witness = None

    image = set()
    for o in orbits:
        image.update(o.shift_targets)
    e = cat.tau.source.identity
    for x in cat.objects():
        if not is_simple(cat, x):
            continue
        if x in image:
            continue
        if not any(find_invertible(cat, y, x, e) for y in image):
            return DecompositionReport(specs, orbits, witness, False,
                                       ("simple-not-reached", x))
    return DecompositionReport(specs, orbits, witness, True, None)


def linear_semisimple_check(cat: GradedCatPresentation):
    """Degree-1 semisimplicity verdict plus the census of simple classes."""
    e = cat.tau.source.identity
    violations = []
    simples = []
    for x in cat.objects():
        if is_simple(cat, x):
            simples.append(x)
        elif not _declared_sum_ok(cat, x):
            violations.append(("not-simple-or-declared-sum", x))
    classes = _Classes(simples)
    for i, x in enumerate(simples):
        for y in simples[i + 1:]:
            if cat.rank(x, y, e) == 0 and cat.rank(y, x, e) == 0:
                continue
            if find_invertible(cat, x, y, e) is None:
                violations.append(("neither-disjoint-nor-isomorphic", x, y))
            else:
                classes.join(x, y)
    return Verdict(violations), [tuple(c) for c in classes.classes()]


@lru_cache(maxsize=None)
def _class_offsets(space: CosetSpace, m: int, cap: int = 100000):
    """The Howell rows of B^1, and offsets from a particular d1 solution,
    one per class of solutions modulo d0-coboundaries, over Z/m, all on
    the |S| s values at the generators S of `groups.cayley_tree`.

    A 1-cocycle is fixed by its values on S (`cochains.d1_solver`), so the
    kernel of the tree system is Z^1 in those coordinates, and B^1 is the
    d0 image on the rows of S.  Like the tree system, kept per (space, m).

    Let Z^1 and B^1 have pivots z_j and b_j at column j (b_j = m where B^1
    has none).  By the Howell property the members of Z^1 (of B^1)
    vanishing before j take the values z_j Z/m (b_j Z/m) at j, and z_j
    divides b_j as B^1 lies in Z^1.  The offsets, sums of t_j times the
    Z^1 row at j with 0 <= t_j < b_j / z_j, meet each class exactly once.
    Every class: a member of Z^1 vanishing before j is c z_j at j; with
    t_j = c mod b_j / z_j the rest is a multiple of b_j at j, which the
    B^1 row at j clears.  Once: if two offsets first differ at t_j, their
    difference lies in B^1 and vanishes before j, so b_j divides
    (t_j - t'_j) z_j, and |t_j - t'_j| < b_j / z_j forces t_j = t'_j.
    """
    gens = cayley_tree(space.parent)[0]
    b_rows = znsolve.howell(coboundary_basis_c1(m, space, gens), m)
    z_rows = znsolve.howell(_tree_system(m, space)[0].kernel, m)
    b_at = dict(map(znsolve.pivot, b_rows))
    ranges = [b_at.get(j, m) // z_j for j, z_j in map(znsolve.pivot, z_rows)]
    total = prod(ranges)
    if total > cap:
        raise znsolve.CapExceeded(f"{total} solution classes exceed cap {cap}")
    nvars = len(gens) * space.size
    offsets = tuple(tuple(sum(t * z[r] for t, z in zip(idx, z_rows)) % m for r in range(nvars))
                    for idx in znsolve.index_vectors(ranges))
    return tuple(b_rows), offsets


def _solution_classes(sols, b_rows, offsets):
    """Class representatives of a d1 solution set modulo d0-coboundaries,
    each canonicalised to its lexicographically least exponent vector.

    The least vector is found on the generator values and then lifted.
    That is the same cochain as the least full 1-cochain of the class: S
    is greedy in element order, so every element below the k-th generator
    lies in the subgroup generated by the ones before it, and the rows of
    a solution up to that generator are fixed by its values at the
    earlier generators.  Two solutions therefore first differ at a
    generator coordinate, and in the same place in both orders.
    """
    m, x0 = sols.coords.m, sols.coords.x0
    canon = {znsolve.lexmin_coset([(a + b) % m for a, b in zip(x0, off)], b_rows, m)
             for off in offsets}
    return [sols.lift(v) for v in sorted(canon)]


def classify_equivalences(spec_a: MtauSpec, spec_b: MtauSpec):
    """All equivalence data (t, gamma) from block A to block B, one per class."""
    tau = spec_a.tau
    if tau != spec_b.tau or spec_a.field != spec_b.field:
        raise ValueError("blocks live over different gradings or fields")
    gH, gG = tau.source, tau.target
    want = gG.mul(spec_a.g, gG.inv(spec_b.g))
    la = set(spec_a.L.elements)
    space_a, space_b = spec_a.psi.space, spec_b.psi.space
    targets = []
    seen_cosets = set()
    for raw_t in gH.elements():
        if tau.map[raw_t] != want:
            continue
        # data with t in the same coset of L' realise the same functor
        c = space_b.coset_of[raw_t]
        if c in seen_cosets:
            continue
        seen_cosets.add(c)
        t = space_b.reps[c]
        if set(conjugate_subgroup(spec_b.L, t).elements) != la:
            continue
        shifted = translate(spec_b.psi, t)
        assert shifted.space == space_a
        targets.append((t, c2_mul(spec_a.psi, c2_inv(shifted))))
    out = []
    if not targets:
        return out
    # every target lives on H/L: the tree system and the classes modulo
    # coboundaries are kept per (modulus, space), so only the first
    # classification on a coset space works them out
    solve = d1_solver(spec_a.field, space_a)
    for t, target in targets:
        sols = solve(target)
        if sols is None:
            continue
        classes = _class_offsets(space_a, spec_a.field.unit_order)
        for gamma in _solution_classes(sols, *classes):
            datum = EquivalenceDatum(t, gamma)
            _check_datum(spec_a, spec_b, datum, target)
            out.append(datum)
    return out


def _check_datum(spec_a: MtauSpec, spec_b: MtauSpec, datum: EquivalenceDatum,
                 target=None):
    """Raise unless datum is an equivalence datum from block A to block B.

    `target` is psi * (psi'^t)^-1 for t = datum.t when the caller has it
    already; otherwise it is built here.
    """
    tau = spec_a.tau
    gG = tau.target
    if tau.map[datum.t] != gG.mul(spec_a.g, gG.inv(spec_b.g)):
        raise ValueError("datum degree element does not match the block degrees")
    if set(conjugate_subgroup(spec_b.L, datum.t).elements) != set(spec_a.L.elements):
        raise ValueError("datum does not conjugate the subgroups onto each other")
    if target is None:
        target = c2_mul(spec_a.psi, c2_inv(translate(spec_b.psi, datum.t)))
    if d1_cochain(datum.gamma) != target:
        raise ValueError("datum 1-cochain does not solve the cocycle equation")


def realize_functor(spec_a: MtauSpec, spec_b: MtauSpec,
                    datum: EquivalenceDatum) -> FunctorData:
    """The equivalence R_hL -> R'_{htL'}, e^a -> gamma(a)(hL) e'^a."""
    _check_datum(spec_a, spec_b, datum)
    return _realize_checked(spec_a, spec_b, datum)


def _realize_checked(spec_a: MtauSpec, spec_b: MtauSpec,
                     datum: EquivalenceDatum) -> FunctorData:
    """`realize_functor` for a datum that `_check_datum` has accepted."""
    src = build_skeleton(spec_a)
    tgt = build_skeleton(spec_b)
    gH = spec_a.tau.source
    space_a, space_b = spec_a.psi.space, spec_b.psi.space
    obj_map = [space_b.coset_of[gH.mul(space_a.reps[i], datum.t)]
               for i in range(space_a.size)]
    if len(set(obj_map)) != space_a.size or space_a.size != space_b.size:
        raise ValueError("translation by t is not a bijection on cosets")
    hom_maps = {}
    units = datum.gamma.units()
    for i in range(space_a.size):
        for a in gH.elements():
            j = space_a.act[a][i]
            if tgt.rank(obj_map[i], obj_map[j], a) != 1:
                raise ValueError("target hom space missing where required")
            hom_maps[(i, j, a)] = ((units[a][i],),)
    functor = FunctorData._trusted(src, tgt, obj_map, hom_maps)
    verdict = verify_functor(functor)
    if not verdict.ok:
        raise ValueError(f"realised functor fails verification: {verdict.violations[0]}")
    return functor


def classify_nat_isos(spec_a: MtauSpec, spec_b: MtauSpec,
                      datum_f: EquivalenceDatum, datum_g: EquivalenceDatum,
                      cap: int = 4096):
    """0-cochains eta giving natural isomorphisms F_{t,gamma} => F_{s,delta}.

    Both data are checked first, so an invalid datum is an error even when
    the two functors could not be isomorphic anyway.
    """
    _check_datum(spec_a, spec_b, datum_f)
    _check_datum(spec_a, spec_b, datum_g)
    space_b = spec_b.psi.space
    if space_b.coset_of[datum_f.t] != space_b.coset_of[datum_g.t]:
        return []
    sols = solve_d0(c1_mul(datum_f.gamma, c1_inv(datum_g.gamma)))
    if sols is None:
        return []
    etas = list(sols.enumerate(cap))
    F = _realize_checked(spec_a, spec_b, datum_f)
    G = _realize_checked(spec_a, spec_b, datum_g)
    for eta in etas:
        comps = [Morphism(F.obj_map[i], G.obj_map[i], spec_a.tau.source.identity, (u,))
                 for i, u in enumerate(eta.units())]
        nt = NatTransData(F, G, comps)
        verdict = verify_nat(nt)
        if not verdict.ok:
            raise ValueError(f"solved eta fails naturality: {verdict.violations[0]}")
    return etas


def composite_datum(spec_a: MtauSpec, spec_b: MtauSpec, spec_c: MtauSpec,
                    d1_: EquivalenceDatum, d2_: EquivalenceDatum) -> EquivalenceDatum:
    """Datum of the composite equivalence A -> B -> C."""
    gH = spec_a.tau.source
    # gamma(a)(hL) = gamma1(a)(hL) * gamma2(a)(h t1 L_B): gamma2 moved onto H/L
    gamma = c1_mul(d1_.gamma, translate(d2_.gamma, d1_.t))
    datum = EquivalenceDatum(gH.mul(d1_.t, d2_.t), gamma)
    _check_datum(spec_a, spec_c, datum)
    return datum


def identity_datum(spec: MtauSpec) -> EquivalenceDatum:
    return EquivalenceDatum(spec.tau.source.identity,
                            trivial_cochain1(spec.field, spec.psi.space))
