from functools import lru_cache
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from taucat import fplinalg
from taucat.category import (FunctorData, GradedCatPresentation, Morphism,
                             NatTransData, Verdict, apply_functor,
                             basis_morphism, compose, compose_functors,
                             direct_sum_cat, find_invertible, find_shift,
                             identity_functor, identity_morphism, invert,
                             is_simple, are_disjoint_deg1, verify_axioms,
                             verify_functor, verify_nat, zero_morphism)
from taucat.cochains import (c1_inv, c1_mul, d0_cochain, d1_cochain,
                             random_cochain0, random_cochain1)
from taucat.completion import AdditiveCompletion
from taucat.fields import field
from taucat.groups import coset_space, cyclic_group, reduction_hom, subgroup
from taucat.modcat import roundtrip
from taucat.mtau import (build_skeleton, cyclic_subgroup_of_order,
                         cyclic_table_category, mtau_spec, parity_tau,
                         trivial_spec)
from taucat.structure import (EquivalenceDatum, classify_equivalences,
                              realize_functor)

F5 = field(5)
TAU = parity_tau()


def twisted_skeleton(seed=11, k=2, g=0):
    L = cyclic_subgroup_of_order(k)
    sp = coset_space(cyclic_group(8), L)
    psi = d1_cochain(random_cochain1(F5, sp, Random(seed)))
    return mtau_spec(TAU, F5, L, psi, g)


def test_c2_table_category_verifies():
    assert verify_axioms(cyclic_table_category(F5, 2)).ok


def test_c8_grading_discrepancy():
    verdict = verify_axioms(cyclic_table_category(F5, 8))
    assert not verdict.ok
    grading = [v for v in verdict.violations if v[0] == "grading"]
    assert grading[0] == ("grading", 0, 0, 1)


def test_one_object_identity_only():
    tau = parity_tau()
    cat = GradedCatPresentation(tau, F5, [0], {(0, 0, 0): 1},
                                {(0, 0, 0, 0, 0): (((1,),),)}, [(1,)])
    assert verify_axioms(cat).ok


def test_compose_unit_and_zero():
    cat = cyclic_table_category(F5, 2)
    f = basis_morphism(cat, 0, 1, 1, 0)
    assert compose(cat, identity_morphism(cat, 0), f) == f
    assert compose(cat, f, identity_morphism(cat, 1)) == f
    z = zero_morphism(cat, 0, 1, 1)
    assert compose(cat, z, basis_morphism(cat, 1, 2, 1, 0)).is_zero()


def test_compose_in_skeleton():
    spec = trivial_spec(TAU, F5, cyclic_subgroup_of_order(2))
    cat = build_skeleton(spec)
    sp = spec.psi.space
    e3 = Morphism(0, sp.coset_of[3], 3, (1,))
    e2 = Morphism(sp.coset_of[3], sp.coset_of[5], 2, (1,))
    out = compose(cat, e3, e2)
    assert out == Morphism(0, sp.coset_of[5], 5, (1,))


def test_invert_identity_and_zero():
    cat = cyclic_table_category(F5, 2)
    idm = identity_morphism(cat, 0)
    assert invert(cat, idm) == idm
    assert invert(cat, zero_morphism(cat, 0, 1, 1)) is None


def test_invert_skeleton_basis():
    spec = twisted_skeleton(3)
    cat = build_skeleton(spec)
    sp = spec.psi.space
    for i in range(sp.size):
        for a in range(8):
            e = Morphism(i, cat.shifts[(i, a)][0], a, (1,))
            g = invert(cat, e)
            assert g is not None
            assert compose(cat, e, g) == identity_morphism(cat, i)
            assert compose(cat, g, e) == identity_morphism(cat, e.dst)
            assert g.degree == cyclic_group(8).inv(a)


def test_find_shift_examples():
    cat = cyclic_table_category(F5, 2)
    idm = identity_morphism(cat, 0)
    assert find_shift(cat, 0, 0) == (0, idm, idm)
    y, iso, inverse = find_shift(cat, 0, 1)
    assert y == 1
    assert inverse == invert(cat, iso) is not None
    for x in cat.objects():
        for a in range(8):
            y, iso, inverse = find_shift(cat, x, a)
            assert y == (x + a) % 4
            assert compose(cat, iso, inverse) == identity_morphism(cat, x)


def test_simplicity_and_disjointness():
    cat = cyclic_table_category(F5, 2)
    assert all(is_simple(cat, x) for x in cat.objects())
    assert are_disjoint_deg1(cat, 0, 1)
    assert not are_disjoint_deg1(cat, 0, 0)


def test_direct_sum_cat():
    c2 = cyclic_table_category(F5, 2)
    assert direct_sum_cat([c2]) == c2
    both = direct_sum_cat([c2, c2])
    assert both.n_objects == 8
    assert verify_axioms(both).ok
    for x in range(4):
        for y in range(4, 8):
            for h in range(8):
                assert both.rank(x, y, h) == 0
    simples = [x for x in both.objects() if is_simple(both, x)]
    assert simples == list(range(8))


def test_identity_functor_and_composition():
    cat = cyclic_table_category(F5, 2)
    F = identity_functor(cat)
    assert verify_functor(F).ok
    assert compose_functors(F, F) == F


def test_functor_perturbation_detected():
    cat = cyclic_table_category(F5, 2)
    F = identity_functor(cat)
    maps = dict(F.hom_maps)
    maps[(0, 1, 1)] = ((3,),)  # scale one hom map only: breaks composition
    broken = FunctorData(cat, cat, F.obj_map, maps)
    verdict = verify_functor(broken)
    assert not verdict.ok
    assert any(v[0] == "compose" for v in verdict.violations)


def test_functor_composition_verifies():
    spec = twisted_skeleton(5)
    cat = build_skeleton(spec)
    F = identity_functor(cat)
    G = compose_functors(F, F)
    assert verify_functor(G).ok


def test_nat_trans_identity():
    cat = cyclic_table_category(F5, 2)
    F = identity_functor(cat)
    nt = NatTransData(F, F, [identity_morphism(cat, x) for x in cat.objects()])
    assert verify_nat(nt).ok


def test_nat_trans_violation():
    cat = cyclic_table_category(F5, 2)
    F = identity_functor(cat)
    comps = [identity_morphism(cat, x) for x in cat.objects()]
    comps[2] = Morphism(2, 2, 0, (3,))
    nt = NatTransData(F, F, comps)
    assert not verify_nat(nt).ok


def test_find_invertible_zero_rank():
    cat = cyclic_table_category(F5, 2)
    assert find_invertible(cat, 0, 1, 0) is None  # no degree-1 part between 0,1


def _reference_verify_axioms(cat):
    """verify_axioms as basis morphisms and compose calls, one per law."""
    violations = []
    gH, gG = cat.tau.source, cat.tau.target
    e = gH.identity
    for (x, y, h) in cat.hom_keys():
        if cat.degrees[y] != gG.mul(cat.tau.map[h], cat.degrees[x]):
            violations.append(("grading", x, y, h))
    for x in cat.objects():
        if cat.rank(x, x, e) == 0 or all(c == 0 for c in cat.identities[x]):
            violations.append(("identity-missing", x))
    for (x, y, h) in cat.hom_keys():
        for k in range(cat.rank(x, y, h)):
            f = basis_morphism(cat, x, y, h, k)
            if cat.rank(x, x, e):
                if compose(cat, identity_morphism(cat, x), f) != f:
                    violations.append(("unit-right", x, y, h, k))
            if cat.rank(y, y, e):
                if compose(cat, f, identity_morphism(cat, y)) != f:
                    violations.append(("unit-left", x, y, h, k))
    for w in cat.objects():
        for (x, h1, r1) in cat.out_homs(w):
            for (y, h2, r2) in cat.out_homs(x):
                for (z, h3, r3) in cat.out_homs(y):
                    for i in range(r1):
                        f = basis_morphism(cat, w, x, h1, i)
                        for j in range(r2):
                            g = basis_morphism(cat, x, y, h2, j)
                            gf = compose(cat, f, g)
                            for k in range(r3):
                                hm = basis_morphism(cat, y, z, h3, k)
                                lhs = compose(cat, gf, hm)
                                rhs = compose(cat, f, compose(cat, g, hm))
                                if lhs != rhs:
                                    violations.append(
                                        ("assoc", (w, x, y, z), (h1, h2, h3), (i, j, k)))
    return Verdict(violations)


def _c12_skeleton(seed):
    tau = reduction_hom(12, 2)
    L = subgroup(tau.source, [0, 6])
    psi = d1_cochain(random_cochain1(F5, coset_space(tau.source, L), Random(seed)))
    return build_skeleton(mtau_spec(tau, F5, L, psi, 1))


def _zero_composite():
    """Objects w, x, y, z with Hom(w, y) = 0: h o (g o f) = 0 but (h o g) o f = 1."""
    homs = [(0, 1), (1, 2), (2, 3), (1, 3), (0, 3)]
    hom_rank = {(a, b, 0): 1 for a, b in homs + [(x, x) for x in range(4)]}
    comp = {}
    for (a, b, _) in hom_rank:
        comp[(a, a, b, 0, 0)] = comp[(a, b, b, 0, 0)] = (((1,),),)
    comp[(1, 2, 3, 0, 0)] = comp[(0, 1, 3, 0, 0)] = (((1,),),)
    return GradedCatPresentation(TAU, F5, [0] * 4, hom_rank, comp, [(1,)] * 4)


AXIOM_CASES = {
    "c8_skeleton": lambda: build_skeleton(twisted_skeleton(21, k=2)),
    "c12_skeleton": lambda: _c12_skeleton(22),
    # End((0, 0)) has rank 4 and Hom((0,), (0, 2)) rank 2
    "completion": lambda: AdditiveCompletion(build_skeleton(twisted_skeleton(23, k=2)))
    .presentation_of([(0,), (1,), (0, 0), (0, 2)]),
    "direct_sum": lambda: direct_sum_cat([build_skeleton(twisted_skeleton(24, k=1)),
                                          build_skeleton(twisted_skeleton(25, k=4, g=1))]),
    "c8_table": lambda: cyclic_table_category(F5, 8),
    "zero_composite": _zero_composite,
}


def _corrupt(cat, kind, rng):
    """One tensor entry changed, one tensor deleted, or one identity coordinate changed."""
    comp = dict(cat.compose_t)
    ids = list(cat.identities)
    p = cat.field.p
    if kind == "entry":
        key = rng.choice(sorted(comp))
        t = [[list(row) for row in layer] for layer in comp[key]]
        q, j, i = (rng.randrange(len(t)), rng.randrange(len(t[0])),
                   rng.randrange(len(t[0][0])))
        t[q][j][i] = (t[q][j][i] + rng.randrange(1, p)) % p
        comp[key] = t
    elif kind == "delete":
        del comp[rng.choice(sorted(comp))]
    elif kind == "identity":
        x = rng.choice([x for x in cat.objects() if ids[x]])
        c = list(ids[x])
        i = rng.randrange(len(c))
        c[i] = (c[i] + rng.randrange(1, p)) % p
        ids[x] = c
    return GradedCatPresentation(cat.tau, cat.field, cat.degrees, cat.hom_rank,
                                 comp, ids)


@pytest.mark.parametrize("name", sorted(AXIOM_CASES))
def test_verify_axioms_matches_reference(name):
    # the tensor contraction reports the same violations, in the same order,
    # as composing basis morphisms one by one
    cat = AXIOM_CASES[name]()
    assert verify_axioms(cat).violations == _reference_verify_axioms(cat).violations
    rng = Random(name)
    kinds = set()
    for kind in ("entry", "delete", "identity"):
        for _ in range(2):
            bad = _corrupt(cat, kind, rng)
            want = _reference_verify_axioms(bad).violations
            assert verify_axioms(bad).violations == want
            kinds.update(v[0] for v in want)
    assert {"assoc", "unit-left", "unit-right"} <= kinds


def _reference_verify_functor(F):
    """verify_functor as apply_functor and compose on basis morphisms."""
    violations = []
    src, tgt = F.source, F.target
    for x in src.objects():
        if tgt.degrees[F.obj_map[x]] != src.degrees[x]:
            violations.append(("object-degree", x))
    for x in src.objects():
        if apply_functor(F, identity_morphism(src, x)) != identity_morphism(
                tgt, F.obj_map[x]):
            violations.append(("identity", x))
    for x in src.objects():
        for (y, h1, r1) in src.out_homs(x):
            for (z, h2, r2) in src.out_homs(y):
                for i in range(r1):
                    f = basis_morphism(src, x, y, h1, i)
                    Ff = apply_functor(F, f)
                    for j in range(r2):
                        g = basis_morphism(src, y, z, h2, j)
                        lhs = apply_functor(F, compose(src, f, g))
                        rhs = compose(tgt, Ff, apply_functor(F, g))
                        if lhs != rhs:
                            violations.append(("compose", (x, y, z), (h1, h2), (i, j)))
    return Verdict(violations)


def _reference_verify_nat(nt):
    """verify_nat as compose on components and images of basis morphisms."""
    violations = []
    F, G = nt.source, nt.target
    src, tgt = F.source, F.target
    e = tgt.tau.source.identity
    if G.source is not src and G.source != src:
        return Verdict([("endpoint-mismatch",)])
    for x in src.objects():
        c = nt.component(x)
        if c.degree != e or c.src != F.obj_map[x] or c.dst != G.obj_map[x]:
            violations.append(("component-shape", x))
    if violations:
        return Verdict(violations)
    for x in src.objects():
        for (y, h, r) in src.out_homs(x):
            for i in range(r):
                f = basis_morphism(src, x, y, h, i)
                lhs = compose(tgt, nt.component(x), apply_functor(G, f))
                rhs = compose(tgt, apply_functor(F, f), nt.component(y))
                if lhs != rhs:
                    violations.append(("naturality", x, y, h, i))
    return Verdict(violations)


def _reference_invert(cat, f):
    """invert as compose on basis morphisms and one fplinalg.solve."""
    gH = cat.tau.source
    a_inv = gH.inv(f.degree)
    r2 = cat.rank(f.dst, f.src, a_inv)
    e = gH.identity
    if r2 == 0 or cat.rank(f.src, f.src, e) == 0 or cat.rank(f.dst, f.dst, e) == 0:
        return None
    cols = []
    for j in range(r2):
        gj = basis_morphism(cat, f.dst, f.src, a_inv, j)
        cols.append(compose(cat, f, gj).coords + compose(cat, gj, f).coords)
    rhs = cat.identities[f.src] + cat.identities[f.dst]
    x = fplinalg.solve(fplinalg.from_columns(cols), rhs, cat.field.p, ncols=r2)
    return None if x is None else Morphism(f.dst, f.src, a_inv, tuple(x))


@lru_cache(maxsize=None)
def _shift_closed_completion():
    """Shift-closed objects of an additive completion: End((0, 0)) has rank 4."""
    comp = AdditiveCompletion(build_skeleton(twisted_skeleton(27, k=4)))
    return comp.presentation_of([(0,), (1,), (0, 0), (1, 1)])


@lru_cache(maxsize=None)
def _realized_pair():
    """Two equivalences F, G of a twisted C8 block and an eta: F => G."""
    spec = twisted_skeleton(28)
    base = classify_equivalences(spec, spec)[-1]
    eta = random_cochain0(F5, spec.psi.space, Random(29))
    other = EquivalenceDatum(base.t, c1_mul(base.gamma, c1_inv(d0_cochain(eta))))
    F = realize_functor(spec, spec, base)
    G = realize_functor(spec, spec, other)
    comps = [Morphism(F.obj_map[x], G.obj_map[x], 0, (eta.values[x],))
             for x in range(spec.psi.space.size)]
    return F, G, comps


def _one_object(deg):
    return GradedCatPresentation(TAU, F5, [deg], {(0, 0, 0): 1},
                                 {(0, 0, 0, 0, 0): (((1,),),)}, [(1,)])


FUNCTOR_CASES = {
    "skeleton": lambda: identity_functor(build_skeleton(twisted_skeleton(26))),
    "realized": lambda: _realized_pair()[0],
    "completion": lambda: identity_functor(AXIOM_CASES["completion"]()),
    # rank-4 and rank-2 hom matrices that are not identities
    "completion_roundtrip": lambda: roundtrip(_shift_closed_completion()).eta,
    "degree_shift": lambda: FunctorData(_one_object(0), _one_object(1), [0],
                                        {(0, 0, 0): ((1,),)}),
}


def _corrupt_matrix(F, rng):
    """F with one entry of one nonempty hom matrix changed."""
    maps = dict(F.hom_maps)
    key = rng.choice(sorted(k for k, m in maps.items() if m and m[0]))
    mat = [list(row) for row in maps[key]]
    i, j = rng.randrange(len(mat)), rng.randrange(len(mat[0]))
    mat[i][j] = (mat[i][j] + rng.randrange(1, F.target.field.p)) % F.target.field.p
    maps[key] = mat
    return FunctorData(F.source, F.target, F.obj_map, maps)


@pytest.mark.parametrize("name", sorted(FUNCTOR_CASES))
def test_verify_functor_matches_reference(name):
    F = FUNCTOR_CASES[name]()
    assert verify_functor(F).violations == _reference_verify_functor(F).violations
    rng = Random(name)
    for _ in range(2):
        bad = _corrupt_matrix(F, rng)
        want = _reference_verify_functor(bad).violations
        assert want and verify_functor(bad).violations == want


def test_verify_functor_reference_cases_reach_every_kind():
    kinds = set()
    for name, build in FUNCTOR_CASES.items():
        F = build()
        rng = Random(name)
        for bad in [F] + [_corrupt_matrix(F, rng) for _ in range(2)]:
            kinds.update(v[0] for v in verify_functor(bad).violations)
    assert kinds == {"object-degree", "identity", "compose"}


def _identity_nat(cat):
    F = identity_functor(cat)
    return NatTransData(F, F, [identity_morphism(cat, x) for x in cat.objects()])


NAT_CASES = {
    "skeleton": lambda: _identity_nat(build_skeleton(twisted_skeleton(26))),
    "completion": lambda: _identity_nat(AXIOM_CASES["completion"]()),
    "shift_closed_completion": lambda: _identity_nat(_shift_closed_completion()),
    "realized": lambda: NatTransData(*_realized_pair()),
}


def _corrupt_nat(nt, kind, rng):
    """One component coordinate, one functor matrix entry, one component
    degree, or the target functor's source category changed."""
    comps = list(nt.components)
    x = rng.randrange(len(comps))
    c = comps[x]
    if kind == "coordinate":
        p = nt.source.target.field.p
        coords = list(c.coords)
        i = rng.randrange(len(coords))
        coords[i] = (coords[i] + rng.randrange(1, p)) % p
        comps[x] = Morphism(c.src, c.dst, c.degree, tuple(coords))
    elif kind == "matrix":
        return NatTransData(nt.source, _corrupt_matrix(nt.target, rng), comps)
    elif kind == "shape":
        comps[x] = Morphism(c.src, c.dst, 1, c.coords)
    elif kind == "endpoints":
        return NatTransData(nt.source, identity_functor(cyclic_table_category(F5, 2)),
                            comps)
    return NatTransData(nt.source, nt.target, comps)


@pytest.mark.parametrize("name", sorted(NAT_CASES))
def test_verify_nat_matches_reference(name):
    nt = NAT_CASES[name]()
    assert verify_nat(nt).violations == _reference_verify_nat(nt).violations == []
    rng = Random(name)
    kinds = set()
    for kind in ("coordinate", "matrix", "shape", "endpoints"):
        for _ in range(2):
            bad = _corrupt_nat(nt, kind, rng)
            want = _reference_verify_nat(bad).violations
            assert verify_nat(bad).violations == want
            kinds.update(v[0] for v in want)
    assert kinds == {"naturality", "component-shape", "endpoint-mismatch"}


@pytest.mark.parametrize("name", sorted(AXIOM_CASES))
def test_invert_matches_reference(name):
    # every basis element and one seeded combination per hom space, on the
    # presentation and on corrupted copies with changed, missing or zero data
    cat = AXIOM_CASES[name]()
    rng = Random(name)
    cats = [cat] + [_corrupt(cat, kind, rng) for kind in ("entry", "delete", "identity")
                    for _ in range(2)]
    found = 0
    for c in cats:
        p = c.field.p
        for (x, y, h), r in c.hom_rank.items():
            vectors = [tuple(int(i == k) for i in range(r)) for k in range(r)]
            vectors.append(tuple(rng.randrange(p) for _ in range(r)))
            for v in vectors:
                f = Morphism(x, y, h, v)
                want = _reference_invert(c, f)
                assert invert(c, f) == want
                found += want is not None
    assert found


@settings(max_examples=300, deadline=None, derandomize=True)
@given(p=st.sampled_from([3, 5, 7, 11]), same=st.booleans(),
       t_gf=st.none() | st.integers(0, 12), t_fg=st.none() | st.integers(0, 12),
       ids=st.tuples(st.integers(0, 12), st.integers(0, 12)),
       v=st.integers(-8, 16))
def test_rank_one_invert_matches_general_solve(p, same, t_gf, t_fg, ids, v):
    # 1x1 hom spaces with zero, missing or arbitrary tensors and identities
    tau1 = reduction_hom(1, 1)
    n = 1 if same else 2
    hom_rank = {(x, y, 0): 1 for x in range(n) for y in range(n)}
    comp = {}
    if t_gf is not None:
        comp[(0, n - 1, 0, 0, 0)] = (((t_gf,),),)
    if t_fg is not None and not same:
        comp[(n - 1, 0, n - 1, 0, 0)] = (((t_fg,),),)
    cat = GradedCatPresentation(tau1, field(p), [0] * n, hom_rank, comp,
                                [(i,) for i in ids[:n]])
    f = Morphism(0, n - 1, 0, (v,))
    assert invert(cat, f) == _reference_invert(cat, f)
