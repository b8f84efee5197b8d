import json
import sys
from random import Random

import pytest

from taucat import fplinalg, jsonio

from taucat.category import (GradedCatPresentation, Morphism, compose, find_shift,
                             identity_morphism, invert, is_simple, verify_axioms)
from taucat.cochains import d1_cochain, random_cochain1
from taucat.completion import AdditiveCompletion, BlockMorphism
from taucat.fields import field
from taucat.groups import coset_space, cyclic_group, subgroup
from taucat.mtau import (build_skeleton, cyclic_subgroup_of_order,
                         cyclic_table_category, mtau_spec, parity_tau,
                         reduction_hom, trivial_spec)
from taucat.structure import _declared_sum_ok, decompose, linear_semisimple_check

from morphisms import from_columns
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


def same_degree_bases(seed):
    """(base, a, b): the C8 block at the seed and the S3 skeleton, each with
    two distinct simple objects of degree 0."""
    return [(base_category(seed=seed), 0, 2), (s3_cat(), 0, 4)]


def _placed(comp, src, dst, h, blocks):
    """The degree-h block morphism src -> dst with blocks[(bi, ai)] in its
    blocks and zero elsewhere."""
    rank = comp.base.rank
    return BlockMorphism(tuple(src), tuple(dst), h, tuple(
        tuple(blocks.get((bi, ai), (0,) * rank(a, b, h)) for ai, a in enumerate(src))
        for bi, b in enumerate(dst)))


def _sum_shift(comp, obj, h):
    """The block-diagonal shift iso of a sum object, from find_shift on the
    base."""
    shifts = [find_shift(comp.base, x, h) for x in obj]
    target = tuple(y for y, _, _ in shifts)
    return _placed(comp, obj, target, h,
                   {(i, i): iso.coords for i, (_, iso, _) in enumerate(shifts)})


def _on(pres, objs, f):
    """The block morphism f as a morphism of pres, whose objects are objs."""
    return Morphism(objs.index(f.src), objs.index(f.dst), f.degree, tuple(_flat(f)))


def test_empty_object_is_zero():
    comp = AdditiveCompletion(base_category())
    pres = comp.presentation_of([(), (0,)])
    assert pres.identities[0] == ()
    assert not any(pres.rank(0, y, h) + pres.rank(y, 0, h) for y in (0, 1) for h in range(8))
    assert comp.identity(()).blocks == ()


def test_double_object_end_rank():
    comp = AdditiveCompletion(base_category())
    assert comp.presentation_of([(0, 0)]).rank(0, 0, 0) == 4


def test_biproduct_identities():
    # the sums presentation_of declares are 1-direct sums of their parts
    for base, a, b in same_degree_bases(21):
        pres = AdditiveCompletion(base).presentation_of([(a,), (b,), (a, b, a)])
        assert [part for part, _, _ in pres.sums[2]] == [0, 1, 0]
        assert _declared_sum_ok(pres, 2)


def test_h_direct_sum_is_biproduct_with_degrees():
    # the h-direct sum is the 1-direct sum of the shifted parts: the degree-h
    # injection into slot i is part i's shift iso placed in block i, and the
    # degree h^-1 projection is its inverse
    for base, a, b in same_degree_bases(22):
        comp, gH = AdditiveCompletion(base), base.tau.source
        parts = (a, b, a)
        for h in gH.elements():
            target = _sum_shift(comp, parts, h).dst
            objs = [(a,), (b,), target]
            pres = comp.presentation_of(objs)
            decl = []
            for i, x in enumerate(parts):
                _, iso, iso_inv = find_shift(base, x, h)
                iota = _placed(comp, (x,), target, h, {(i, 0): iso.coords})
                pi = _placed(comp, target, (x,), gH.inv(h), {(0, i): iso_inv.coords})
                decl.append((objs.index((x,)), _on(pres, objs, iota), _on(pres, objs, pi)))
            pres.sums[2] = tuple(decl)
            assert _declared_sum_ok(pres, 2)


def test_h_sum_equals_shifted_sum_up_to_degree_one_iso():
    # the block-diagonal shift of the plain sum lands on the h-direct sum's
    # object, and a permuted presentation of that sum is degree-1 isomorphic
    for base, a, b in same_degree_bases(23):
        comp = AdditiveCompletion(base)
        e = base.tau.source.identity
        shift = _sum_shift(comp, (a, b), 3)
        target = shift.dst
        swapped = target[::-1]
        swap = _placed(comp, target, swapped, e, {(1, 0): base.identities[target[0]],
                                                  (0, 1): base.identities[target[1]]})
        objs = [(a, b), target, swapped]
        pres = comp.presentation_of(objs)
        for f in (shift, swap):
            m = _on(pres, objs, f)
            m_inv = invert(pres, m)
            assert m_inv is not None
            assert compose(pres, m, m_inv) == identity_morphism(pres, m.src)
            assert compose(pres, m_inv, m) == identity_morphism(pres, m.dst)


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
    multis = [(0,), (0, 0), (0, 0, 0), (0, 2), (2, 2, 0)]
    pres = comp.presentation_of([(s,) for s in comp.base.objects()] + multis)
    for i, multi in enumerate(multis, start=comp.base.n_objects):
        for s in comp.base.objects():
            want = sum(1 for x in multi if x == s)
            assert pres.rank(i, s, e) == want
            assert pres.rank(s, i, e) == want


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
    """Coordinates of the two-sided inverse solved for on the basis of
    Hom^{|f|^-1}, or None."""
    p = comp.field.p
    a_inv = comp.base.tau.source.inv(f.degree)
    basis = _basis(comp, f.dst, f.src, a_inv)
    if not basis:
        return None
    cols = [_flat(_reference_compose(comp, f, g)) + _flat(_reference_compose(comp, g, f))
            for g in basis]
    rhs = _flat(comp.identity(f.src)) + _flat(comp.identity(f.dst))
    x = fplinalg.solve(from_columns(cols), rhs, p, ncols=len(cols))
    if x is None:
        return None
    flats = [_flat(g) for g in basis]
    return tuple(sum(c * g[k] for c, g in zip(x, flats)) % p for k in range(len(basis)))


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
    # category.invert on the presentation of f's two ends
    for base, a, b in same_degree_bases(23):
        comp = AdditiveCompletion(base)
        e = base.tau.source.identity
        shifts = [_sum_shift(comp, obj, h) for obj in [(a, b), (a, b, a)]
                  for h in base.tau.source.elements()]
        obj = (a, a)
        iotas = [comp.injection(obj, i) for i in range(2)]
        pis = [comp.projection(obj, i) for i in range(2)]
        idem = comp.compose(pis[0], iotas[0])  # the projection onto slot 0: no inverse
        got = {}
        for f in shifts + [idem, _placed(comp, obj, obj, e, {}), iotas[1], pis[0],
                           comp.identity(())]:
            objs = [f.src, f.dst]
            pres = comp.presentation_of(objs)
            inv = invert(pres, _on(pres, objs, f))
            got[f] = None if inv is None else inv.coords
            assert got[f] == _reference_invert(comp, f)
        assert all(got[f] is not None for f in shifts)
        assert got[idem] is None and got[comp.identity(())] is None


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
    # presentation_of and the block product read the base tensors directly
    comp = AdditiveCompletion(base_category(seed=24))
    shift = _sum_shift(comp, (0, 2), 3)
    assert _calls(compose, lambda: comp.presentation_of([(0,), (2,), (0, 2)])) == 0
    assert _calls(compose, lambda: comp.compose(shift, comp.identity(shift.dst))) == 0
