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
from math import gcd, prod

from . import znsolve
from .category import (FunctorData, GradedCatPresentation, Morphism,
                       NatTransData, Verdict, basis_morphism, compose,
                       find_invertible, find_shift, identity_morphism, invert,
                       is_simple, verify_functor, verify_nat)
from .cochains import (Cochain1, Cochain2, c2_inv, c2_mul,
                       coboundary_basis_c1, d1_cochain,
                       d1_solver, trivial_cochain1, _c1_to_exponents, _c1_vars,
                       _exponents_to_c1, solve_d0, translate)
from .groups import (CosetSpace, Subgroup, conjugate_subgroup, coset_space,
                     left_action_on_cosets, subgroup)
from .mtau import MtauSpec, build_skeleton, mtau_spec


@dataclass
class SimpleOrbit:
    """Everything read off one orbit of simple objects."""

    representative: int
    space: CosetSpace
    shift_targets: tuple[int, ...]
    shift_isos: tuple[Morphism, ...]
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
    perms = {a: left_action_on_cosets(space, a) for a in gH.elements()}

    targets, isos = [], []
    for rep in space.reps:
        hit = find_shift(cat, s, rep)
        if hit is None:
            raise ValueError(f"simple object {s} has no shift by {rep}")
        y, iso, _ = hit
        targets.append(y)
        isos.append(iso)

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
                f = basis_morphism(cat, src, dst, a, 0)
                if invert(cat, f) is None:
                    raise ValueError(
                        f"spanning morphism of degree {a} at coset {i} is not invertible")
            spanning[(i, a)] = f

    f_field = cat.field
    values = []
    for a in gH.elements():
        row = []
        for b in gH.elements():
            cell = []
            for i in range(space.size):
                comp = compose(cat, spanning[(i, b)], spanning[(perms[b][i], a)])
                target_f = spanning[(i, gH.mul(a, b))]
                if comp.is_zero():
                    raise ValueError("composite of spanning morphisms vanished")
                cell.append(f_field.mul(target_f.coords[0], f_field.inv(comp.coords[0])))
            row.append(tuple(cell))
        values.append(tuple(row))
    # mtau_spec checks L <= ker tau and the cocycle identity of psi
    spec = mtau_spec(cat.tau, f_field, L, Cochain2(f_field, space, tuple(values)),
                     cat.degrees[s])
    return SimpleOrbit(s, space, tuple(targets), tuple(isos), spanning, spec)


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
        obj_map, hom_maps = [], {}
        offset = 0
        for o in orbits:
            for i in range(o.space.size):
                obj_map.append(o.shift_targets[i])
            offset += o.space.size
        offset = 0
        for o in orbits:
            perms = {a: left_action_on_cosets(o.space, a)
                     for a in cat.tau.source.elements()}
            for i in range(o.space.size):
                for a in cat.tau.source.elements():
                    j = perms[a][i]
                    f = o.spanning[(i, a)]
                    hom_maps[(offset + i, offset + j, a)] = tuple(
                        (c,) for c in f.coords)
            offset += o.space.size
        witness = FunctorData(source, cat, obj_map, hom_maps)
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


def _class_offsets(kernel, space, field, cap: int = 100000):
    """Offsets from a particular d1 solution, one per class of solutions
    modulo d0-coboundaries, and the coboundary generators.

    Only the kernel of d1 and the coboundaries enter, so one computation
    serves every target on the coset space.  The coboundary submodule is
    pulled back through the kernel generators, the pullback is
    diagonalised, and one coefficient vector is read off per class.
    """
    m = max(field.unit_order, 1)
    nvars = len(_c1_vars(space))
    b_gens = [g for g in coboundary_basis_c1(field, space) if any(x % m for x in g)]
    k = len(kernel)
    combined = [[g[r] for g in kernel] + [g[r] for g in b_gens] for r in range(nvars)]
    pulled = [g[:k] for g in znsolve.kernel_generators(combined, m, ncols=k + len(b_gens))]
    pulled = [g for g in pulled if any(g)]
    d, ops, _ = znsolve.diagonalize([[g[i] for g in pulled] for i in range(k)], m)
    # gcd(0, m) = m: full freedom along a coefficient the pullback misses
    ranges = [gcd(d[i][i] if i < len(pulled) else 0, m) for i in range(k)]
    total = prod(ranges)
    if total > cap:
        raise znsolve.CapExceeded(f"{total} solution classes exceed cap {cap}")
    offsets = []
    for idx in znsolve.index_vectors(ranges):
        c = znsolve.unapply_rows(ops, idx, m)
        offsets.append([sum(cj * g[r] for cj, g in zip(c, kernel)) % m
                        for r in range(nvars)])
    return b_gens, offsets


def _solution_classes(sols, b_gens, offsets):
    """Class representatives of a d1 solution set modulo d0-coboundaries,
    each canonicalised to its lexicographically least exponent vector."""
    m = max(sols.field.unit_order, 1)
    x0 = _c1_to_exponents(sols.particular)
    canon = {znsolve.lexmin_coset([(a + b) % m for a, b in zip(x0, off)], b_gens, m)
             for off in offsets}
    return [_exponents_to_c1(sols.field, sols.space, v) for v in sorted(canon)]


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
    # every target lives on H/L: one d1 factorisation and one class
    # computation, made at the first solvable target, serve them all
    solve = d1_solver(spec_a.field, space_a)
    classes = None
    for t, target in targets:
        sols = solve(target)
        if sols is None:
            continue
        if classes is None:
            classes = _class_offsets(sols.kernel, space_a, spec_a.field)
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
    src = build_skeleton(spec_a)
    tgt = build_skeleton(spec_b)
    gH = spec_a.tau.source
    space_a, space_b = spec_a.psi.space, spec_b.psi.space
    obj_map = [space_b.coset_of[gH.mul(space_a.reps[i], datum.t)]
               for i in range(space_a.size)]
    if len(set(obj_map)) != space_a.size or space_a.size != space_b.size:
        raise ValueError("translation by t is not a bijection on cosets")
    hom_maps = {}
    perms = {a: left_action_on_cosets(space_a, a) for a in gH.elements()}
    for i in range(space_a.size):
        for a in gH.elements():
            j = perms[a][i]
            if tgt.rank(obj_map[i], obj_map[j], a) != 1:
                raise ValueError("target hom space missing where required")
            hom_maps[(i, j, a)] = ((datum.gamma.values[a][i],),)
    functor = FunctorData(src, tgt, obj_map, hom_maps)
    verdict = verify_functor(functor)
    if not verdict.ok:
        raise ValueError(f"realised functor fails verification: {verdict.violations[0]}")
    return functor


def classify_nat_isos(spec_a: MtauSpec, spec_b: MtauSpec,
                      datum_f: EquivalenceDatum, datum_g: EquivalenceDatum,
                      cap: int = 4096):
    """0-cochains eta giving natural isomorphisms F_{t,gamma} => F_{s,delta}."""
    space_b = spec_b.psi.space
    if space_b.coset_of[datum_f.t] != space_b.coset_of[datum_g.t]:
        return []
    f = spec_a.field
    space = spec_a.psi.space
    target = Cochain1(f, space, tuple(
        tuple(f.mul(a, f.inv(b)) for a, b in zip(ra, rb))
        for ra, rb in zip(datum_f.gamma.values, datum_g.gamma.values)))
    sols = solve_d0(target)
    if sols is None:
        return []
    etas = list(sols.enumerate(cap))
    F = realize_functor(spec_a, spec_b, datum_f)
    G = realize_functor(spec_a, spec_b, datum_g)
    for eta in etas:
        comps = [Morphism(F.obj_map[i], G.obj_map[i], spec_a.tau.source.identity,
                          (eta.values[i],))
                 for i in range(space.size)]
        nt = NatTransData(F, G, comps)
        verdict = verify_nat(nt)
        if not verdict.ok:
            raise ValueError(f"solved eta fails naturality: {verdict.violations[0]}")
    return etas


def composite_datum(spec_a: MtauSpec, spec_b: MtauSpec, spec_c: MtauSpec,
                    d1_: EquivalenceDatum, d2_: EquivalenceDatum) -> EquivalenceDatum:
    """Datum of the composite equivalence A -> B -> C."""
    gH = spec_a.tau.source
    space_a = spec_a.psi.space
    space_b = spec_b.psi.space
    f = spec_a.field
    t = gH.mul(d1_.t, d2_.t)
    vals = []
    for a in gH.elements():
        row = []
        for i in range(space_a.size):
            jb = space_b.coset_of[gH.mul(space_a.reps[i], d1_.t)]
            row.append(f.mul(d1_.gamma.values[a][i], d2_.gamma.values[a][jb]))
        vals.append(tuple(row))
    gamma = Cochain1(f, space_a, tuple(vals))
    datum = EquivalenceDatum(t, gamma)
    _check_datum(spec_a, spec_c, datum)
    return datum


def identity_datum(spec: MtauSpec) -> EquivalenceDatum:
    return EquivalenceDatum(spec.tau.source.identity,
                            trivial_cochain1(spec.field, spec.psi.space))
