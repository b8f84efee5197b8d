"""The trusted construction path of presentations and functors.

GradedCatPresentation(...) and FunctorData(...) are the input boundary:
they normalise and check their arguments.  The builders that make their
data in memory construct through `_trusted`, which skips that walk and
relies on the builder for canonical data.  The oracle here rebuilds each
trusted object through the public constructor from the same fields and
asserts that the two agree and that the stored data are canonical.
"""

import json
from random import Random

import pytest

from taucat import cli, jsonio
from taucat.category import (FunctorData, GradedCatPresentation, compose_functors,
                             direct_sum_cat, identity_functor, identity_morphism)
from taucat.cochains import d1_cochain, random_cochain1
from taucat.completion import AdditiveCompletion
from taucat.fields import field
from taucat.groups import coset_space, cyclic_group, reduction_hom, subgroup
from taucat.modcat import (ModuleCatData, bullet, degree_one_part, extract_action,
                           restrict_functor, roundtrip)
from taucat.mtau import build_group_groupoid, build_skeleton, mtau_spec, trivial_spec
from taucat.structure import classify_equivalences, decompose, realize_functor

from morphisms import dense_tensors

F5 = field(5)


def twisted_skeleton(n, k, seed, g=0):
    """The Cn -> C2 skeleton on the order-k subgroup, twisted by a coboundary."""
    tau = reduction_hom(n, 2)
    L = subgroup(cyclic_group(n), [i * (n // k) for i in range(k)])
    psi = d1_cochain(random_cochain1(F5, coset_space(tau.source, L), Random(seed)))
    return build_skeleton(mtau_spec(tau, F5, L, psi, g))


def _canonical(value, p, depth):
    """Whether value is nested tuples, depth deep, of ints in [0, p)."""
    if depth == 0:
        return type(value) is int and 0 <= value < p
    return type(value) is tuple and all(_canonical(v, p, depth - 1) for v in value)


def _canonical_tensors(cat):
    """Whether every stored tensor is in the store's form: tuples of
    (output, constant) pairs by ascending output, at input pairs and outputs
    below their ranks, each constant an int in [1, p)."""
    p, rank, hmul = cat.field.p, cat.rank, cat.tau.source.mul
    for (h, h2), group in cat.tensors.items():
        for (x, y, z), t in group.items():
            r1, r2, r3 = rank(x, y, h), rank(y, z, h2), rank(x, z, hmul(h2, h))
            for (j, i), entries in t.items():
                ks = [k for k, _ in entries]
                if not (0 <= j < r2 and 0 <= i < r1 and type(entries) is tuple and entries
                        and ks == sorted(set(ks)) and 0 <= ks[0] and ks[-1] < r3
                        and all(_canonical(c, p, 0) and c for _, c in entries)):
                    return False
    return True


def assert_as_checked(cat):
    """cat equals its rebuild through the validating constructor from its
    file form's tensors, and its data are canonical: no zero rank, tuples
    mod p, tensors in the store's form."""
    p = cat.field.p
    checked = GradedCatPresentation(cat.tau, cat.field, cat.degrees, cat.hom_rank,
                                    dense_tensors(cat), cat.identities, sums=cat.sums)
    assert checked == cat
    assert checked.sums == cat.sums
    assert [checked.out_homs(x) for x in checked.objects()] == \
        [cat.out_homs(x) for x in cat.objects()]
    assert type(cat.degrees) is tuple and all(cat.hom_rank.values())
    assert _canonical(cat.identities, p, 2)
    assert _canonical_tensors(cat)


def assert_functor_as_checked(F):
    """F equals its rebuild through the validating constructor, with
    tuple-typed hom matrices reduced mod p."""
    checked = FunctorData(F.source, F.target, F.obj_map, F.hom_maps)
    assert checked.obj_map == F.obj_map and type(F.obj_map) is tuple
    assert checked.hom_maps == F.hom_maps
    assert all(_canonical(m, F.target.field.p, 2) for m in F.hom_maps.values())


def _trivial_rank2_module():
    """C2 acting trivially on a base with a rank-2 endomorphism space, the
    degree-1 part of the completion of a C2 -> C1 skeleton on (0,), (0, 1)."""
    skel = build_skeleton(trivial_spec(reduction_hom(2, 1), F5, subgroup(cyclic_group(2), [0])))
    base = degree_one_part(AdditiveCompletion(skel).presentation_of([(0,), (0, 1)]))
    comps = tuple(identity_morphism(base, x) for x in base.objects())
    action = {h: identity_functor(base) for h in (0, 1)}
    return ModuleCatData(base, action, comps, {(a, b): comps for a in (0, 1) for b in (0, 1)})


def _rank2_completion():
    """Shift-closed completion objects: End((0, 2)) has rank 2."""
    comp = AdditiveCompletion(twisted_skeleton(8, 2, 98))
    return comp.presentation_of([(0,), (1,), (2,), (3,), (0, 2), (1, 3)])


PRESENTATIONS = {
    "skeleton_c8": lambda: twisted_skeleton(8, 2, 1),
    "skeleton_c12": lambda: twisted_skeleton(12, 2, 2),
    "skeleton_c16": lambda: twisted_skeleton(16, 1, 3),
    "group_groupoid": lambda: build_group_groupoid(reduction_hom(8, 2), F5),
    "bullet_rank1": lambda: bullet(extract_action(twisted_skeleton(8, 2, 4))),
    "bullet_matrix": lambda: bullet(_trivial_rank2_module()),
    "direct_sum": lambda: direct_sum_cat([twisted_skeleton(8, 4, 5), _rank2_completion()]),
    "degree_one_skeleton": lambda: degree_one_part(twisted_skeleton(8, 2, 6)),
    "degree_one_completion": lambda: degree_one_part(_rank2_completion()),
    "completion": _rank2_completion,
}


@pytest.mark.parametrize("name", sorted(PRESENTATIONS))
def test_trusted_presentation_matches_checked(name):
    assert_as_checked(PRESENTATIONS[name]())


@pytest.mark.parametrize("source", ["skeleton", "rank2_completion"])
def test_roundtrip_objects_match_checked(source):
    cat = twisted_skeleton(8, 2, 7) if source == "skeleton" else _rank2_completion()
    rt = roundtrip(cat)
    for built in (rt.rebuilt, rt.mod.base, rt.rebuilt_mod.base):
        assert_as_checked(built)
    functors = [rt.eta, rt.eta_inv, rt.nu.functor, rt.nu_inv.functor,
                compose_functors(rt.eta, rt.eta_inv), identity_functor(cat),
                *rt.mod.action.values(), *rt.rebuilt_mod.action.values()]
    for F in functors:
        assert_functor_as_checked(F)


def test_structure_functors_match_checked():
    cat = twisted_skeleton(8, 2, 8)
    rep = decompose(cat)
    assert rep.semisimple
    assert_functor_as_checked(rep.witness)
    spec = rep.summands[0]
    for datum in classify_equivalences(spec, spec):
        F = realize_functor(spec, spec, datum)
        assert_functor_as_checked(F)
        mf, _, _ = restrict_functor(F)
        assert_functor_as_checked(mf.functor)


def _count_checked_tensors(monkeypatch):
    calls = []
    real = GradedCatPresentation._checked_tensor

    def counted(self, key, tensor):
        calls.append(key)
        return real(self, key, tensor)
    monkeypatch.setattr(GradedCatPresentation, "_checked_tensor", counted)
    return calls


def test_roundtrip_command_checks_each_file_tensor_once(tmp_path, monkeypatch, capsys):
    doc = jsonio.category_to_json(twisted_skeleton(8, 2, 9))
    path = tmp_path / "cat.json"
    path.write_text(json.dumps(doc))
    calls = _count_checked_tensors(monkeypatch)
    assert cli.main(["roundtrip", str(path)]) == 0
    assert len(calls) == len(doc["compose"]) > 0


def test_in_memory_roundtrip_checks_no_tensor(monkeypatch):
    calls = _count_checked_tensors(monkeypatch)
    roundtrip(twisted_skeleton(8, 2, 10))
    assert calls == []


def _one_object(tensor):
    tau = reduction_hom(2, 1)
    return GradedCatPresentation(tau, F5, [0], {(0, 0, 0): 2}, {(0, 0, 0, 0, 0): tensor},
                                 [[1, 0]])


def test_constructor_normalises_list_tensors():
    cat = _one_object([[[6, -1], [0, 5]], [[0, 0], [1, 12]]])
    assert cat.tensor(0, 0, 0, 0, 0) == {(0, 0): ((0, 1),), (0, 1): ((0, 4),),
                                         (1, 0): ((1, 1),), (1, 1): ((1, 2),)}
    assert _canonical_tensors(cat)
    assert dense_tensors(cat) == {(0, 0, 0, 0, 0): [[[1, 4], [0, 0]], [[0, 0], [1, 2]]]}
    assert cat.identities == ((1, 0),)
    F = FunctorData(cat, cat, [0], {(0, 0, 0): [[6, 0], [-1, 1]]})
    assert F.hom_maps[(0, 0, 0)] == ((1, 0), (4, 1))


def test_constructor_rejects_a_ragged_tensor():
    with pytest.raises(ValueError, match=r"ragged composition tensor at \(0, 0, 0, 0, 0\)"):
        _one_object([[[1, 0], [0]], [[0, 0], [0, 1]]])


def test_compose_functors_through_a_zero_hom_space():
    # F sends End(0) to a zero space and G sends that back: G F is the
    # zero 1 x 1 matrix, not a matrix with no columns
    tau = reduction_hom(2, 1)
    one = GradedCatPresentation(tau, F5, [0], {(0, 0, 0): 1}, {}, [[1]])
    zero = GradedCatPresentation(tau, F5, [0], {}, {}, [[]])
    F = FunctorData(one, zero, [0], {})
    G = FunctorData(zero, one, [0], {})
    GF = compose_functors(F, G)
    assert GF.hom_maps == {(0, 0, 0): ((0,),)}
    assert_functor_as_checked(GF)
