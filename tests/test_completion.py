import json
from random import Random

import pytest

from taucat import jsonio

from taucat.category import is_simple, verify_axioms
from taucat.cochains import d1_cochain, random_cochain1
from taucat.completion import AdditiveCompletion
from taucat.fields import field
from taucat.groups import coset_space, cyclic_group
from taucat.mtau import (build_skeleton, cyclic_subgroup_of_order,
                         cyclic_table_category, mtau_spec, parity_tau,
                         trivial_spec)
from taucat.structure import decompose, linear_semisimple_check

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
