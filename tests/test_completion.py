import json
import sys
from random import Random

import pytest

from taucat import fplinalg, jsonio

from taucat.category import (GradedCatPresentation, Morphism, compose, invert,
                             is_simple, verify_axioms)
from taucat.cochains import d1_cochain, random_cochain1
from taucat.completion import AdditiveCompletion, BlockMorphism
from taucat.fields import field
from taucat.groups import coset_space, cyclic_group, subgroup
from taucat.mtau import (build_skeleton, cyclic_subgroup_of_order,
                         cyclic_table_category, mtau_spec, parity_tau,
                         reduction_hom, trivial_spec)
from taucat.structure import decompose, linear_semisimple_check

from test_yoneda import s3_cat

F5 = field(5)
TAU = parity_tau()


def base_category(seed=None):
    L = cyclic_subgroup_of_order(2)
    if seed is None:
        return build_skeleton(trivial_spec(TAU, F5, L, 0))
    sp = coset_space(cyclic_group(8), L)
    psi = d1_cochain(random_cochain1(F5, sp, Random(seed)))
    return build_skeleton(mtau_spec(TAU, F5, L, psi, 0))


def test_empty_object_is_zero():
    comp = AdditiveCompletion(base_category())
    empty = ()
    assert comp.rank(empty, empty, 0) == 0
    assert comp.identity(empty).blocks == ()


def test_double_object_end_rank():
    comp = AdditiveCompletion(base_category())
    assert comp.rank((0, 0), (0, 0), 0) == 4


def test_biproduct_identities():
    comp = AdditiveCompletion(base_category(seed=21))
    obj, pis, iotas = comp.direct_sum([0, 2, 0])
    assert comp.verify_biproduct(obj, [0, 2, 0], pis, iotas)


def test_h_direct_sum_is_biproduct_with_degrees():
    comp = AdditiveCompletion(base_category(seed=22))
    for h in range(8):
        obj, pis, iotas = comp.h_direct_sum([0, 0], h)
        for pi, iota in zip(pis, iotas):
            assert iota.degree == h
            assert pi.degree == cyclic_group(8).inv(h)
        assert comp.verify_biproduct(obj, [0, 0], pis, iotas)


def test_h_sum_equals_shifted_sum_up_to_degree_one_iso():
    # build the h-direct sum out of shifted parts, then shift the plain sum
    # with the block-diagonal iso and connect the two by a linear solve
    comp = AdditiveCompletion(base_category(seed=23))
    parts = [0, 1]
    h = 3
    obj_h, _, _ = comp.h_direct_sum(parts, h)
    target, r = comp.sum_shift(tuple(parts), h)
    assert target == obj_h
    r_inv = comp.invert(r)
    assert r_inv is not None
    assert comp.compose(r, r_inv) == comp.identity(tuple(parts))
    # a permuted presentation of the same sum is degree-1 isomorphic
    swapped, _, _ = comp.direct_sum([obj_h[1], obj_h[0]])
    iso = comp.zero(obj_h, swapped, comp.base.tau.source.identity)
    iso = comp.add(iso, comp.compose(comp.projection(obj_h, 0),
                                     comp.injection(swapped, 1)))
    iso = comp.add(iso, comp.compose(comp.projection(obj_h, 1),
                                     comp.injection(swapped, 0)))
    iso_inv = comp.invert(iso)
    assert iso_inv is not None
    assert comp.compose(iso, iso_inv) == comp.identity(obj_h)
    assert comp.compose(iso_inv, iso) == comp.identity(swapped)


def test_presentation_of_sums_verifies():
    comp = AdditiveCompletion(base_category(seed=24))
    pres = comp.presentation_of([(0,), (1,), (0, 0), (0,) * 3])
    assert verify_axioms(pres).ok
    assert pres.rank(2, 2, 0) == 4
    assert not is_simple(pres, 2)
    assert is_simple(pres, 0)
    verdict, census = linear_semisimple_check(pres)
    assert verdict.ok
    assert len(census) == 2  # the two singleton classes


def test_presentation_rejects_mixed_degrees():
    comp = AdditiveCompletion(base_category())
    with pytest.raises(ValueError):
        comp.presentation_of([(0, 1)])  # objects 0 and 1 have different degrees


def test_undeclared_sum_fails_check():
    comp = AdditiveCompletion(base_category(seed=25))
    pres = comp.presentation_of([(0, 0)])  # the singleton parts are absent
    verdict, _ = linear_semisimple_check(pres)
    assert not verdict.ok
    assert verdict.violations[0][0] == "not-simple-or-declared-sum"


def test_table_category_completion():
    comp = AdditiveCompletion(cyclic_table_category(F5, 2))
    pres = comp.presentation_of([(0,), (1,), (2,), (3,), (1, 1)])
    assert verify_axioms(pres).ok
    verdict, census = linear_semisimple_check(pres)
    assert verdict.ok
    assert len(census) == 4


def test_rank_bookkeeping_on_sums():
    # Hom^1(A, S) counts the multiplicity of the class of S inside A
    comp = AdditiveCompletion(base_category(seed=26))
    e = comp.base.tau.source.identity
    for multi in [(0,), (0, 0), (0, 0, 0), (0, 2), (2, 2, 0)]:
        for s in comp.base.objects():
            want = sum(1 for x in multi if x == s)
            assert comp.rank(multi, (s,), e) == want
            assert comp.rank((s,), multi, e) == want


@pytest.mark.parametrize("objs", [[(0,), (1,), (2,), (3,), (0, 0)],
                                  [(0,), (1,), (2,), (3,), (0, 2)]])
def test_declared_sums_survive_json_round_trip(objs):
    pres = AdditiveCompletion(base_category(seed=17)).presentation_of(objs)
    doc = json.loads(json.dumps(jsonio.category_to_json(pres)))
    back = jsonio.parse_category(doc)
    assert back == pres and back.sums == pres.sums
    rep = decompose(back)
    assert rep.semisimple and [s.L.order for s in rep.summands] == [2]


def test_sum_free_files_have_no_sums_key():
    assert "sums" not in jsonio.category_to_json(base_category())


@pytest.mark.parametrize("field_, value", [("part", 9), ("injection", [1, 0, 0])])
def test_malformed_declared_sum_rejected(field_, value):
    pres = AdditiveCompletion(base_category()).presentation_of(
        [(0,), (1,), (2,), (3,), (0, 0)])
    doc = jsonio.category_to_json(pres)
    doc["sums"][0]["parts"][0][field_] = value
    with pytest.raises(ValueError):
        jsonio.parse_category(doc)


def c16_cat(seed=31):
    """The C16 -> C2 skeleton with |L| = 4: objects 0 and 2 of degree 0,
    1 and 3 of degree 1."""
    tau = reduction_hom(16, 2)
    L = subgroup(tau.source, [0, 4, 8, 12])
    psi = d1_cochain(random_cochain1(F5, coset_space(tau.source, L), Random(seed)))
    return build_skeleton(mtau_spec(tau, F5, L, psi, 0))


def _flat(f):
    return [c for row in f.blocks for blk in row for c in blk]


def _reference_compose(comp, f, g):
    """g o f as a block matrix product, one compose per nonzero block pair."""
    base, p = comp.base, comp.field.p
    deg = base.tau.source.mul(g.degree, f.degree)
    out = []
    for ci, c in enumerate(g.dst):
        row = []
        for ai, a in enumerate(f.src):
            acc = (0,) * base.rank(a, c, deg)
            for bi, b in enumerate(f.dst):
                fm = Morphism(a, b, f.degree, f.blocks[bi][ai])
                gm = Morphism(b, c, g.degree, g.blocks[ci][bi])
                if not (fm.is_zero() or gm.is_zero()):
                    term = compose(base, fm, gm).coords
                    acc = tuple((x + y) % p for x, y in zip(acc, term))
            row.append(acc)
        out.append(tuple(row))
    return BlockMorphism(f.src, g.dst, deg, tuple(out))


def _basis(comp, src, dst, h):
    """The basis block morphisms of Hom^h(src, dst), block by block."""
    rank = comp.base.rank
    out = []
    for bi, b in enumerate(dst):
        for ai, a in enumerate(src):
            for k in range(rank(a, b, h)):
                blocks = tuple(tuple(
                    tuple(int((bj, aj, l) == (bi, ai, k)) for l in range(rank(x, y, h)))
                    for aj, x in enumerate(src)) for bj, y in enumerate(dst))
                out.append(BlockMorphism(tuple(src), tuple(dst), h, blocks))
    return out


def _reference_invert(comp, f):
    """Two-sided inverse solved for on the basis of Hom^{|f|^-1}, or None."""
    p = comp.field.p
    a_inv = comp.base.tau.source.inv(f.degree)
    basis = _basis(comp, f.dst, f.src, a_inv)
    if not basis:
        return None
    cols = [_flat(_reference_compose(comp, f, g)) + _flat(_reference_compose(comp, g, f))
            for g in basis]
    rhs = _flat(comp.identity(f.src)) + _flat(comp.identity(f.dst))
    x = fplinalg.solve(fplinalg.from_columns(cols), rhs, p, ncols=len(cols))
    if x is None:
        return None
    out = comp.zero(f.dst, f.src, a_inv)
    for coeff, g in zip(x, basis):
        blocks = tuple(tuple(tuple(coeff * v % p for v in blk) for blk in row)
                       for row in g.blocks)
        out = comp.add(out, BlockMorphism(g.src, g.dst, g.degree, blocks))
    return out


def _reference_presentation_of(comp, objs):
    """presentation_of with every tensor entry composed from two basis
    block morphisms."""
    base = comp.base
    objs = [tuple(o) for o in objs]
    degrees = []
    for o in objs:
        degs = {base.degrees[x] for x in o}
        if len(degs) > 1:
            raise ValueError(f"object {o} mixes degrees {degs}")
        degrees.append(degs.pop() if degs else base.tau.target.identity)
    elements, hmul = base.tau.source.elements(), base.tau.source.mul
    bases = {(i, j, h): _basis(comp, a, b, h) for i, a in enumerate(objs)
             for j, b in enumerate(objs) for h in elements}
    hom_rank = {key: len(bs) for key, bs in bases.items() if bs}
    tensors = {}
    for i in range(len(objs)):
        for j in range(len(objs)):
            for k in range(len(objs)):
                for h in elements:
                    for h2 in elements:
                        fs, gs = bases[(i, j, h)], bases[(j, k, h2)]
                        r3 = len(bases[(i, k, hmul(h2, h))])
                        if not (fs and gs and r3):
                            continue
                        tensor = [[[0] * len(fs) for _ in gs] for _ in range(r3)]
                        for jj, g in enumerate(gs):
                            for ii, f in enumerate(fs):
                                for kk, v in enumerate(_flat(_reference_compose(comp, f, g))):
                                    tensor[kk][jj][ii] = v
                        tensors[(i, j, k, h, h2)] = tensor
    identities = [_flat(comp.identity(o)) for o in objs]
    singleton_index = {o[0]: i for i, o in enumerate(objs) if len(o) == 1}
    sums = {}
    for i, o in enumerate(objs):
        if len(o) > 1 and all(x in singleton_index for x in o):
            sums[i] = tuple(
                (singleton_index[x],
                 Morphism(singleton_index[x], i, base.tau.source.identity,
                          tuple(_flat(comp.injection(o, slot)))),
                 Morphism(i, singleton_index[x], base.tau.source.identity,
                          tuple(_flat(comp.projection(o, slot)))))
                for slot, x in enumerate(o))
    return GradedCatPresentation(base.tau, base.field, degrees, hom_rank, tensors,
                                 identities, sums=sums)


PRESENTATION_CASES = {
    "sums-24": (lambda: base_category(seed=24), [(0,), (1,), (0, 0), (0,) * 3]),
    "undeclared-25": (lambda: base_category(seed=25), [(0, 0)]),
    "table-C2": (lambda: cyclic_table_category(F5, 2), [(0,), (1,), (2,), (3,), (1, 1)]),
    "json-00": (lambda: base_category(seed=17), [(0,), (1,), (2,), (3,), (0, 0)]),
    "json-02": (lambda: base_category(seed=17), [(0,), (1,), (2,), (3,), (0, 2)]),
    "duplicates": (lambda: base_category(seed=27), [(0,), (1,), (0,), (1,)]),
    "empty": (lambda: base_category(seed=28), [(), (0,), (1,), (0, 0)]),
    "triples": (lambda: base_category(seed=29), [(0,), (2,), (0,) * 3, (2, 2, 0)]),
    "C16-L4": (c16_cat, [(0,), (1,), (2,), (3,), (0, 2), (3, 1, 3)]),
    # S3 objects 0, 3 and 4 have degree 0, objects 1, 2 and 5 degree 1
    "S3": (s3_cat, [(0,), (1,), (2,), (3,), (4,), (5,), (0, 4), (2, 5, 2)]),
}


@pytest.mark.parametrize("name", sorted(PRESENTATION_CASES))
def test_presentation_of_matches_reference(name):
    build, objs = PRESENTATION_CASES[name]
    comp = AdditiveCompletion(build())
    pres, want = comp.presentation_of(objs), _reference_presentation_of(comp, objs)
    assert pres == want and pres.sums == want.sums
    assert (json.dumps(jsonio.category_to_json(pres))
            == json.dumps(jsonio.category_to_json(want)))


@pytest.mark.parametrize("name", ["sums-24", "C16-L4", "S3"])
def test_compose_matches_reference(name):
    build, objs = PRESENTATION_CASES[name]
    comp = AdditiveCompletion(build())
    rng, p = Random(name), comp.field.p
    elements = list(comp.base.tau.source.elements())

    def random_morphism(src, dst, h):
        return BlockMorphism(src, dst, h, tuple(
            tuple(tuple(rng.randrange(p) for _ in range(comp.base.rank(a, b, h)))
                  for a in src) for b in dst))

    for _ in range(40):
        a, b, c = (rng.choice(objs) for _ in range(3))
        f = random_morphism(a, b, rng.choice(elements))
        g = random_morphism(b, c, rng.choice(elements))
        assert comp.compose(f, g) == _reference_compose(comp, f, g)


def test_invert_matches_reference():
    comp = AdditiveCompletion(base_category(seed=23))
    e = comp.base.tau.source.identity
    cases = [comp.sum_shift(obj, h)[1] for obj in [(0, 1), (0, 2, 0)] for h in range(8)]
    obj, pis, iotas = comp.direct_sum([0, 0])
    idem = comp.compose(pis[0], iotas[0])  # the projection onto slot 0: no inverse
    cases += [idem, comp.zero(obj, obj, e), iotas[1], pis[0], comp.identity(())]
    for f in cases:
        assert comp.invert(f) == _reference_invert(comp, f)
    _, shift = comp.sum_shift((0, 1), 3)
    assert comp.invert(shift) is not None
    assert comp.invert(idem) is None and _reference_invert(comp, idem) is None


def _calls(target, fn) -> int:
    """Calls of the function target while fn runs, by any caller."""
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is target.__code__:
            calls.append(frame)

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return len(calls)


def test_completion_makes_no_compose_calls():
    # each completion operation reads the base tensors directly
    comp = AdditiveCompletion(base_category(seed=24))
    target, shift = comp.sum_shift((0, 2), 3)
    assert _calls(compose, lambda: comp.presentation_of([(0,), (2,), (0, 2)])) == 0
    assert _calls(compose, lambda: comp.compose(shift, comp.identity(target))) == 0
    assert _calls(compose, lambda: comp.invert(shift)) == 0


def _reference_sum_shift(comp, obj, h):
    """sum_shift built from shift_data, which inverts each part's shift."""
    data = [comp.shift_data(x, h) for x in obj]
    target = tuple(y for y, _, _ in data)
    blocks = tuple(tuple(data[ai][1].coords if ai == bi else (0,) * comp.base.rank(a, b, h)
                         for ai, a in enumerate(obj)) for bi, b in enumerate(target))
    return target, BlockMorphism(tuple(obj), target, h, blocks)


def test_sum_shift_inverts_no_recorded_shift():
    # the block-diagonal shift iso needs each part's iso, not its inverse
    comp = AdditiveCompletion(base_category(seed=25))
    assert comp.base.shifts
    for obj, h in [((0, 2, 0), h) for h in range(8)] + [((1, 3), 5), ((), 2)]:
        got = []
        assert _calls(invert, lambda: got.append(comp.sum_shift(obj, h))) == 0
        assert got == [_reference_sum_shift(comp, obj, h)]
