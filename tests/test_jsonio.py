"""The category-file writer: jsonio.category_text is exactly
json.dumps(category_to_json(cat), sort_keys=True, indent=2), on every kind
of presentation the program builds: skeletons, completions with rank > 1
hom spaces, zero tensors and declared sums, the action groupoid, bullet's
matrix branch, and presentations without composition records."""

import json

import pytest
from hypothesis import Phase, given, settings, strategies as st

from taucat import jsonio
from taucat.category import GradedCatPresentation
from taucat.completion import AdditiveCompletion
from taucat.fields import field
from taucat.groups import reduction_hom
from taucat.modcat import bullet
from taucat.mtau import build_group_groupoid

from test_golden_stdout import _zero_composite_module, _zero_records
from test_trusted import _trivial_rank2_module, twisted_skeleton

F5 = field(5)
# (|H|, |L|) over the parity map C_n -> C_2, every L in the kernel
SHAPES = [(n, k) for n in (8, 12, 16) for k in range(1, n // 2 + 1) if n // 2 % k == 0]


def assert_text_is_the_document(cat):
    assert jsonio.category_text(cat) == json.dumps(jsonio.category_to_json(cat),
                                                   sort_keys=True, indent=2)


@pytest.mark.parametrize("g", (0, 1))
@pytest.mark.parametrize("n,k", SHAPES)
# no shrinking: each example builds a presentation and writes it twice, so
# shrinking a failure would take minutes
@settings(max_examples=3, deadline=None, phases=[Phase.generate])
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_text_of_twisted_skeletons(n, k, g, seed):
    assert_text_is_the_document(twisted_skeleton(n, k, seed, g))


def test_text_of_a_completion_with_zero_tensors_and_sums():
    # End(3) has rank 2, f: 0 -> 1 and g: 1 -> 2 compose to zero, and (0, 3)
    # is declared the sum of (0,) and (3,)
    cat = AdditiveCompletion(_zero_composite_module().base).presentation_of(
        [(0,), (1,), (2,), (3,), (0, 3)])
    doc = jsonio.category_to_json(cat)
    assert doc["sums"] and _zero_records(doc) and max(cat.hom_rank.values()) > 1
    assert_text_is_the_document(cat)


@settings(max_examples=20, deadline=None, phases=[Phase.generate])
@given(parts=st.lists(st.lists(st.integers(0, 3), min_size=1, max_size=3),
                      min_size=1, max_size=4),
       seed=st.integers(0, 2 ** 32 - 1))
def test_text_of_completions(parts, seed):
    base = twisted_skeleton(8, 2, seed, seed % 2)
    # each object's parts share the degree of its first
    objects = [tuple(x for x in o if base.degrees[x] == base.degrees[o[0]]) for o in parts]
    objects += [(x,) for x in base.objects()]  # so every sum object is declared
    assert_text_is_the_document(AdditiveCompletion(base).presentation_of(objects))


@pytest.mark.parametrize("n", (2, 6, 8))
def test_text_of_the_action_groupoid(n):
    assert_text_is_the_document(build_group_groupoid(reduction_hom(n, 2), F5))


@pytest.mark.parametrize("module", (_trivial_rank2_module, _zero_composite_module))
def test_text_of_bullets_matrix_branch(module):
    cat = bullet(module())
    assert max(cat.hom_rank.values()) > 1
    assert_text_is_the_document(cat)


@pytest.mark.parametrize("degrees,hom_rank", [([], {}), ([0, 0], {}),
                                              ([0, 0], {(0, 1, 0): 2, (1, 0, 1): 1})])
def test_text_without_composition_records(degrees, hom_rank):
    tau = reduction_hom(2, 1)
    cat = GradedCatPresentation(tau, F5, degrees, hom_rank, {}, [[] for _ in degrees])
    assert jsonio.category_to_json(cat)["compose"] == []
    assert_text_is_the_document(cat)


def test_text_of_records_on_zero_hom_spaces():
    # Hom(1, 0) is zero, so the tensor at (1, 0, 1) has no columns, and the
    # one at (1, 1, 0) lands in that zero space
    tau = reduction_hom(2, 1)
    homs = {(0, 0, 0): 1, (0, 1, 0): 1, (1, 1, 0): 2}
    compose = {(0, 0, 0, 0, 0): [[[1]]], (1, 0, 1, 0, 0): [[[]], [[]]],
               (1, 1, 0, 0, 0): []}
    cat = GradedCatPresentation(tau, F5, [0, 0], homs, compose, [[1], [1, 0]])
    assert [r["tensor"] for r in jsonio.category_to_json(cat)["compose"]] == \
        [[[[1]]], [[[]], [[]]], []]
    assert_text_is_the_document(cat)
