from itertools import product

import pytest

from taucat.groups import (CosetSpace, GroupHom, cayley_tree, conjugate_subgroup,
                           coset_space, cyclic_group, generated_subgroup,
                           group_from_table, hom, image, kernel,
                           left_action_on_cosets, reduction_hom, subgroup,
                           verify_hom)


def test_trivial_group():
    g = cyclic_group(1)
    assert g.order == 1
    assert g.identity == 0
    assert g.mul(0, 0) == 0


def test_c8_inverse():
    g = cyclic_group(8)
    assert g.inv(3) == 5
    assert g.mul(3, 5) == 0


def test_c2_self_inverse():
    g = cyclic_group(2)
    assert g.mul(1, 1) == 0


def test_bad_table_rejected():
    with pytest.raises(ValueError):
        group_from_table([[0, 1], [1, 1]])  # not a Latin square
    # Latin square without associativity: order-5 quasigroup
    t = [[0, 1, 2, 3, 4],
         [1, 0, 3, 4, 2],
         [2, 4, 0, 1, 3],
         [3, 2, 4, 0, 1],
         [4, 3, 1, 2, 0]]
    with pytest.raises(ValueError):
        group_from_table(t)


def test_parity_hom_ok():
    tau = reduction_hom(8, 2)
    assert verify_hom(tau) is None
    assert tau.map == (0, 1, 0, 1, 0, 1, 0, 1)


def test_broken_hom_witness():
    g8, g2 = cyclic_group(8), cyclic_group(2)
    # x -> y and x^2 -> 1 are fine, but x^3 -> 1 breaks at the pair (1, 2)
    cand = GroupHom(g8, g2, (0, 1, 0, 0, 0, 1, 0, 1))
    assert verify_hom(cand) == (1, 2)


def test_identity_hom_ok():
    g = cyclic_group(6)
    assert verify_hom(GroupHom(g, g, tuple(range(6)))) is None


def test_hom_size_mismatch():
    g8, g2 = cyclic_group(8), cyclic_group(2)
    with pytest.raises(ValueError):
        verify_hom(GroupHom(g8, g2, (0, 1)))


def test_kernel_and_image():
    tau = reduction_hom(8, 2)
    assert kernel(tau).elements == (0, 2, 4, 6)
    assert image(tau).elements == (0, 1)
    ident = hom(cyclic_group(8), cyclic_group(8), range(8))
    assert kernel(ident).elements == (0,)


def test_kernel_is_normal():
    tau = reduction_hom(8, 2)
    g = tau.source
    ker = set(kernel(tau).elements)
    for h in g.elements():
        for k in ker:
            assert g.mul(g.mul(h, k), g.inv(h)) in ker


def test_subgroup_validation():
    g = cyclic_group(8)
    assert subgroup(g, [0, 4]).elements == (0, 4)
    with pytest.raises(ValueError):
        subgroup(g, [0, 3])  # 3+3 = 6 not in the set
    with pytest.raises(ValueError):
        subgroup(g, [4])  # no identity


def test_generated_subgroup():
    g = cyclic_group(8)
    assert generated_subgroup(g, [2]).elements == (0, 2, 4, 6)
    assert generated_subgroup(g, []).elements == (0,)


def test_cayley_tree():
    from test_cochains import S3

    klein = group_from_table([[a ^ b for b in range(4)] for a in range(4)])
    for g, want in ((cyclic_group(1), ()), (cyclic_group(8), (1,)), (klein, (1, 2)),
                    (S3, (1, 2))):
        gens, parent = cayley_tree(g)
        assert gens == want
        assert generated_subgroup(g, gens).order == g.order
        assert parent[g.identity] is None
        for h in g.elements():
            if h != g.identity:
                h1, s = parent[h]
                assert s in gens and g.mul(s, h1) == h
            # the parents lead to the identity: a tree, not a cycle
            path = [h]
            while path[-1] != g.identity:
                path.append(parent[path[-1]][0])
                assert len(path) <= g.order


def test_coset_space_shapes():
    g = cyclic_group(8)
    sp = coset_space(g, subgroup(g, [0, 4]))
    assert sp.reps == (0, 1, 2, 3)
    assert sp.size == 4
    full = coset_space(g, subgroup(g, range(8)))
    assert full.size == 1
    half = coset_space(g, subgroup(g, [0, 2, 4, 6]))
    assert half.reps == (0, 1)


def test_coset_space_is_partition():
    g = cyclic_group(12)
    sub = subgroup(g, [0, 4, 8])
    sp = coset_space(g, sub)
    assert sp.size * sub.order == g.order
    for x in g.elements():
        i = sp.coset_of[x]
        assert any(g.mul(sp.reps[i], l) == x for l in sub.elements)
        for l in sub.elements:
            assert sp.coset_of[g.mul(x, l)] == i


def test_left_action_examples():
    g = cyclic_group(8)
    sp = coset_space(g, subgroup(g, [0, 4]))
    assert left_action_on_cosets(sp, 0) == (0, 1, 2, 3)
    assert left_action_on_cosets(sp, 1) == (1, 2, 3, 0)
    back = left_action_on_cosets(sp, g.inv(3))
    fwd = left_action_on_cosets(sp, 3)
    assert tuple(back[fwd[i]] for i in range(4)) == (0, 1, 2, 3)


def test_left_action_is_homomorphism():
    g = cyclic_group(8)
    sp = coset_space(g, subgroup(g, [0, 4]))
    for a in g.elements():
        for b in g.elements():
            pa = left_action_on_cosets(sp, a)
            pb = left_action_on_cosets(sp, b)
            pab = left_action_on_cosets(sp, g.mul(a, b))
            assert pab == tuple(pa[pb[i]] for i in range(sp.size))


def test_conjugate_subgroup_in_abelian_group():
    g = cyclic_group(8)
    sub = subgroup(g, [0, 4])
    for t in g.elements():
        assert conjugate_subgroup(sub, t).elements == sub.elements
