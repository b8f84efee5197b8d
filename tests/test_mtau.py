from itertools import product
from random import Random

import pytest

from taucat.category import (GradedCatPresentation, Morphism, compose,
                             identity_morphism, invert, is_simple, verify_axioms)
from taucat.cochains import d1_cochain, random_cochain1, trivial_cochain2
from taucat.fields import field
from taucat.groups import (coset_space, cyclic_group, hom, reduction_hom,
                           subgroup)
from taucat.mtau import (basis_inverse, build_group_groupoid, build_skeleton,
                         check_skeleton_inverses, cyclic_subgroup_of_order,
                         cyclic_table_category, mtau_spec, parity_tau,
                         simple_census, trivial_spec)

F5 = field(5)
TAU = parity_tau()
C8 = cyclic_group(8)


def battery(seeds=(1, 2)):
    """Specs over all three admissible subgroups, both degrees, several psi."""
    out = []
    for k in (1, 2, 4):
        L = cyclic_subgroup_of_order(k)
        sp = coset_space(C8, L)
        psis = [trivial_cochain2(F5, sp)]
        for s in seeds:
            psis.append(d1_cochain(random_cochain1(F5, sp, Random(s))))
        for g in (0, 1):
            for psi in psis:
                out.append(mtau_spec(TAU, F5, L, psi, g))
    return out


def test_skeletons_verify():
    for spec in battery():
        assert verify_axioms(build_skeleton(spec)).ok


def test_skeleton_rejects_bad_subgroup():
    # the full group is not inside ker(tau)
    with pytest.raises(ValueError):
        trivial_spec(TAU, F5, subgroup(C8, range(8)))


def test_trivial_group_skeleton():
    tau1 = reduction_hom(1, 1)
    spec = trivial_spec(tau1, F5, subgroup(cyclic_group(1), [0]))
    cat = build_skeleton(spec)
    assert cat.n_objects == 1
    assert cat.rank(0, 0, 0) == 1
    assert verify_axioms(cat).ok


def test_trivial_cocycle_composition():
    spec = trivial_spec(TAU, F5, cyclic_subgroup_of_order(2))
    cat = build_skeleton(spec)
    sp = spec.psi.space
    for i in range(sp.size):
        for a in range(8):
            for b in range(8):
                eb = Morphism(i, sp.coset_of[C8.mul(b, sp.reps[i])], b, (1,))
                ea = Morphism(eb.dst, sp.coset_of[C8.mul(C8.mul(a, b), sp.reps[i])],
                              a, (1,))
                assert compose(cat, eb, ea).coords == (1,)


def test_basis_inverse_closed_form():
    for spec in battery(seeds=(3,)):
        cat = build_skeleton(spec)
        assert check_skeleton_inverses(spec, cat)


def test_basis_inverse_identity_case():
    spec = battery(seeds=(4,))[1]
    cat = build_skeleton(spec)
    for i in range(spec.psi.space.size):
        assert basis_inverse(spec, i, 0) == identity_morphism(cat, i)


def test_skeleton_matches_table_category():
    # the trivially twisted skeleton on the order-k subgroup reproduces the
    # hand-written table category with 8/k objects on the nose (k = 8 is
    # excluded: the full group is not inside the kernel)
    for k in (1, 2, 4):
        spec = trivial_spec(TAU, F5, cyclic_subgroup_of_order(k), 0)
        assert build_skeleton(spec) == cyclic_table_category(F5, k)


def _reference_cyclic_table(field_, k):
    """The hand-written table family: objects a in Z/(8/k) of degree a mod 2,
    Hom^{x^n}(a, b) = R exactly when a + n = b mod 8/k, every structure
    constant 1."""
    n_obj = 8 // k
    degrees = [a % 2 for a in range(n_obj)]
    hom_rank = {}
    for a in range(n_obj):
        for n in range(8):
            hom_rank[(a, (a + n) % n_obj, n)] = 1
    comp = {}
    for a in range(n_obj):
        for n1 in range(8):
            b = (a + n1) % n_obj
            for n2 in range(8):
                c = (b + n2) % n_obj
                comp[(a, b, c, n1, n2)] = (((1,),),)
    identities = [(1,)] * n_obj
    shifts = {}
    for a in range(n_obj):
        for n in range(8):
            shifts[(a, n)] = ((a + n) % n_obj, Morphism(a, (a + n) % n_obj, n, (1,)))
    return GradedCatPresentation(TAU, field_, degrees, hom_rank, comp, identities,
                                 shifts=shifts)


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("k", [1, 2, 4, 8])
def test_cyclic_table_matches_reference(k, p):
    got, want = cyclic_table_category(field(p), k), _reference_cyclic_table(field(p), k)
    assert got == want and got.shifts == want.shifts


def test_cyclic_table_rejects_non_divisors():
    with pytest.raises(ValueError):
        cyclic_table_category(F5, 3)


def test_simple_census_counts():
    for spec in battery(seeds=(5,)):
        cat = build_skeleton(spec)
        census = simple_census(cat)
        want = 4 // spec.L.order  # |ker tau| / |L|
        im_g = {TAU.target.mul(TAU.map[h], spec.g) for h in range(8)}
        assert set(census) == im_g
        assert all(c == want for c in census.values())


def test_skeleton_connected_by_invertibles():
    from taucat.structure import simple_orbits

    for spec in battery(seeds=(6,)):
        cat = build_skeleton(spec)
        assert all(is_simple(cat, x) for x in cat.objects())
        assert len(simple_orbits(cat)) == 1


def test_groupoid_shapes():
    grp = build_group_groupoid(TAU, F5)
    assert grp.n_objects == 2
    assert verify_axioms(grp).ok
    for g in grp.objects():
        for h in range(8):
            assert grp.rank(g, TAU.target.mul(TAU.map[h], g), h) == 1
    # shifts land on tau(a) g
    for g in grp.objects():
        for a in range(8):
            tgt, iso = grp.shifts[(g, a)]
            assert tgt == TAU.target.mul(TAU.map[a], g)
            assert invert(grp, iso) is not None


def test_groupoid_trivial_tau():
    tau1 = reduction_hom(1, 1)
    grp = build_group_groupoid(tau1, F5)
    assert grp.n_objects == 1
    assert grp.rank(0, 0, 0) == 1
    assert verify_axioms(grp).ok
