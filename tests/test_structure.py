import sys
from functools import lru_cache
from itertools import product
from math import gcd
from random import Random

import pytest

from taucat import cochains, structure, znsolve

from taucat.category import (direct_sum_cat, identity_functor, is_simple,
                             verify_axioms, verify_functor)
from taucat.cochains import (c1_mul, c1_inv, c2_inv, c2_mul, cochain2, d0_cochain,
                             d1_cochain, random_cochain0, random_cochain1,
                             trivial_cochain1, trivial_cochain2)
from taucat.completion import AdditiveCompletion
from taucat.fields import field
from taucat.groups import (cayley_tree, conjugate_subgroup, coset_space, cyclic_group,
                           generated_subgroup, group_from_table, hom, kernel,
                           reduction_hom, subgroup)
from taucat.mtau import (build_group_groupoid, build_skeleton,
                         cyclic_subgroup_of_order, cyclic_table_category,
                         mtau_spec, parity_tau, trivial_spec)
from taucat.structure import (EquivalenceDatum, analyze_simple,
                              classify_equivalences, classify_nat_isos,
                              composite_datum, decompose, identity_datum,
                              linear_semisimple_check, realize_functor,
                              simple_orbits, stabilizer_subgroup)
from test_cochains import S3, _subgroups, exponents_to_c1

F5 = field(5)
F3 = field(3)
TAU = parity_tau()
C8 = cyclic_group(8)


def twisted_spec(seed, k=2, g=0):
    L = cyclic_subgroup_of_order(k)
    sp = coset_space(C8, L)
    psi = d1_cochain(random_cochain1(F5, sp, Random(seed)))
    return mtau_spec(TAU, F5, L, psi, g)


def test_analyze_simple_recovers_skeleton_data():
    spec = twisted_spec(31)
    cat = build_skeleton(spec)
    orbit = analyze_simple(cat, 0)
    assert orbit.spec.L.elements == spec.L.elements
    assert orbit.spec.psi == spec.psi
    assert orbit.spec.g == spec.g


def test_analyze_simple_on_table_category():
    cat = cyclic_table_category(F5, 2)
    orbit = analyze_simple(cat, 0)
    assert orbit.spec.L.elements == (0, 4)
    assert all(v == 1 for row in orbit.spec.psi.units() for cell in row for v in cell)


def test_analyze_simple_trivial_group():
    tau1 = reduction_hom(1, 1)
    spec = trivial_spec(tau1, F5, subgroup(cyclic_group(1), [0]))
    cat = build_skeleton(spec)
    orbit = analyze_simple(cat, 0)
    assert orbit.spec.L.order == 1
    assert orbit.spec.psi.units() == (((1,),),)


def test_stabilizer_on_table_category():
    cat = cyclic_table_category(F5, 4)
    assert stabilizer_subgroup(cat, 0).elements == (0, 2, 4, 6)


def test_analyze_rejects_non_simple():
    comp = AdditiveCompletion(cyclic_table_category(F5, 2))
    pres = comp.presentation_of([(0,), (0, 0)])
    with pytest.raises(ValueError):
        analyze_simple(pres, 1)


def test_decompose_single_block():
    for seed in (41, 42):
        spec = twisted_spec(seed, k=2, g=1)
        rep = decompose(build_skeleton(spec))
        assert rep.semisimple
        assert len(rep.summands) == 1
        assert verify_functor(rep.witness).ok
        assert classify_equivalences(spec, rep.summands[0])


def test_decompose_two_blocks():
    both = direct_sum_cat([cyclic_table_category(F5, 2),
                           cyclic_table_category(F5, 4)])
    rep = decompose(both)
    assert rep.semisimple
    assert len(rep.summands) == 2
    assert sorted(s.psi.space.size for s in rep.summands) == [2, 4]


def test_decompose_groupoid():
    grp = build_group_groupoid(TAU, F5)
    rep = decompose(grp)
    assert rep.semisimple
    assert len(rep.summands) == 1
    s = rep.summands[0]
    assert s.L.elements == (0, 2, 4, 6)
    ker_spec = trivial_spec(TAU, F5, subgroup(C8, [0, 2, 4, 6]), 0)
    assert classify_equivalences(s, ker_spec)


def test_decompose_flags_undeclared_sum():
    comp = AdditiveCompletion(cyclic_table_category(F5, 2))
    pres = comp.presentation_of([(0, 0)])
    rep = decompose(pres)
    assert not rep.semisimple
    assert rep.obstruction[0] == "not-simple-or-declared-sum"


def test_decompose_accepts_declared_sums():
    comp = AdditiveCompletion(cyclic_table_category(F5, 2))
    pres = comp.presentation_of([(0,), (1,), (2,), (3,), (0, 0), (1, 3)])
    rep = decompose(pres)
    assert rep.semisimple
    assert len(rep.summands) == 1


def test_idempotency_of_decomposition():
    # decomposing the rebuilt direct sum gives blocks equivalent to the inputs
    spec_a = twisted_spec(43, k=2, g=0)
    spec_b = twisted_spec(44, k=4, g=1)
    source = direct_sum_cat([build_skeleton(spec_a), build_skeleton(spec_b)])
    rep = decompose(source)
    assert rep.semisimple and len(rep.summands) == 2
    matched = 0
    for s in rep.summands:
        for original in (spec_a, spec_b):
            if s.L.elements == original.L.elements and classify_equivalences(
                    original, s):
                matched += 1
                break
    assert matched == 2


def test_classify_identity_present():
    spec = trivial_spec(TAU, F5, cyclic_subgroup_of_order(2), 0)
    data = classify_equivalences(spec, spec)
    ident = identity_datum(spec)
    assert any(d.t == ident.t and d.gamma == ident.gamma for d in data)


def test_classify_planted_coboundary():
    spec = trivial_spec(TAU, F5, cyclic_subgroup_of_order(2), 0)
    rng = Random(51)
    sp = spec.psi.space
    gamma0 = random_cochain1(F5, sp, rng)
    spec_b = mtau_spec(TAU, F5, spec.L, d1_cochain(gamma0), 0)
    data = classify_equivalences(spec, spec_b)
    assert data
    for d in data:
        F = realize_functor(spec, spec_b, d)
        assert verify_functor(F).ok


def test_classify_subgroup_size_obstruction():
    a = trivial_spec(TAU, F5, cyclic_subgroup_of_order(2), 0)
    b = trivial_spec(TAU, F5, cyclic_subgroup_of_order(4), 0)
    assert classify_equivalences(a, b) == []


def test_classify_degree_obstruction():
    # no t with tau(t) = y exists inside the kernel-sized coset when g differs
    a = trivial_spec(TAU, F5, cyclic_subgroup_of_order(2), 0)
    b = trivial_spec(TAU, F5, cyclic_subgroup_of_order(2), 1)
    data = classify_equivalences(a, b)
    assert data  # odd t work here: tau(t) = y
    assert all(TAU.map[d.t] == 1 for d in data)


def test_classify_symmetry():
    pairs = [
        (twisted_spec(61), twisted_spec(62)),
        (twisted_spec(63, g=0), twisted_spec(64, g=1)),
        (trivial_spec(TAU, F5, cyclic_subgroup_of_order(2), 0),
         trivial_spec(TAU, F5, cyclic_subgroup_of_order(4), 0)),
    ]
    for a, b in pairs:
        assert bool(classify_equivalences(a, b)) == bool(classify_equivalences(b, a))


def test_realized_functor_identity_case():
    spec = trivial_spec(TAU, F5, cyclic_subgroup_of_order(2), 0)
    F = realize_functor(spec, spec, identity_datum(spec))
    assert F == identity_functor(build_skeleton(spec))


def test_realize_rejects_stale_datum():
    spec_a = trivial_spec(TAU, F5, cyclic_subgroup_of_order(2), 0)
    spec_b = twisted_spec(65)
    with pytest.raises(ValueError):
        realize_functor(spec_a, spec_b, identity_datum(spec_a))


def test_realize_perturbed_gamma_fails():
    spec = trivial_spec(TAU, F5, cyclic_subgroup_of_order(2), 0)
    ident = identity_datum(spec)
    vals = [list(row) for row in ident.gamma.units()]
    vals[3][1] = 2
    from taucat.cochains import cochain1
    bad = EquivalenceDatum(0, cochain1(F5, spec.psi.space, vals))
    with pytest.raises(ValueError):
        realize_functor(spec, spec, bad)


def test_composites_naturally_isomorphic_to_identity():
    spec_a = trivial_spec(TAU, F5, cyclic_subgroup_of_order(2), 0)
    rng = Random(66)
    gamma0 = random_cochain1(F5, spec_a.psi.space, rng)
    spec_b = mtau_spec(TAU, F5, spec_a.L, d1_cochain(gamma0), 1)
    ab = classify_equivalences(spec_a, spec_b)
    ba = classify_equivalences(spec_b, spec_a)
    assert ab and ba
    witnessed = False
    for d2 in ba:
        comp = composite_datum(spec_a, spec_b, spec_a, ab[0], d2)
        if classify_nat_isos(spec_a, spec_a, comp, identity_datum(spec_a)):
            witnessed = True
            break
    assert witnessed


def test_nat_isos_identity_pair():
    spec = trivial_spec(TAU, F5, cyclic_subgroup_of_order(2), 0)
    ident = identity_datum(spec)
    etas = classify_nat_isos(spec, spec, ident, ident)
    assert any(all(v == 1 for v in e.units()) for e in etas)
    # solutions of the trivial equation are exactly the constants
    assert {e.units() for e in etas} == {(u,) * 4 for u in (1, 2, 3, 4)}


def test_nat_isos_planted():
    spec = trivial_spec(TAU, F5, cyclic_subgroup_of_order(2), 0)
    rng = Random(67)
    data = classify_equivalences(spec, spec)
    base = data[0]
    for _ in range(10):
        eta0 = random_cochain0(F5, spec.psi.space, rng)
        delta = c1_mul(base.gamma, c1_inv(d0_cochain(eta0)))
        other = EquivalenceDatum(base.t, delta)
        etas = classify_nat_isos(spec, spec, base, other)
        assert eta0 in etas


def test_nat_isos_different_cosets_empty():
    spec = trivial_spec(TAU, F5, cyclic_subgroup_of_order(2), 0)
    data = classify_equivalences(spec, spec)
    t0 = [d for d in data if d.t == 0][0]
    t2 = [d for d in data if d.t == 2][0]
    assert classify_nat_isos(spec, spec, t0, t2) == []


def test_class_count_matches_first_cohomology():
    # |classes per t| = |H^1| = |Hom(L, F_p^x)|; here Hom(C2, Z/4) has order 2
    spec = trivial_spec(TAU, F5, cyclic_subgroup_of_order(2), 0)
    data = classify_equivalences(spec, spec)
    per_t = {}
    for d in data:
        per_t[d.t] = per_t.get(d.t, 0) + 1
    assert set(per_t.values()) == {2}
    # trivial subgroup: single class per t
    spec1 = trivial_spec(TAU, F5, cyclic_subgroup_of_order(1), 0)
    data1 = classify_equivalences(spec1, spec1)
    per_t1 = {}
    for d in data1:
        per_t1[d.t] = per_t1.get(d.t, 0) + 1
    assert set(per_t1.values()) == {1}


def test_returned_data_distinct_classes():
    spec = trivial_spec(TAU, F5, cyclic_subgroup_of_order(2), 0)
    data = classify_equivalences(spec, spec)
    for i, d1_ in enumerate(data):
        for d2_ in data[i + 1:]:
            assert not classify_nat_isos(spec, spec, d1_, d2_)


def test_linear_semisimple_check_census():
    spec = twisted_spec(68)
    verdict, census = linear_semisimple_check(build_skeleton(spec))
    assert verdict.ok
    assert len(census) == spec.psi.space.size


def test_linear_semisimple_check_empty_category():
    cat = cyclic_table_category(F5, 2)
    from taucat.category import GradedCatPresentation
    empty = GradedCatPresentation(cat.tau, cat.field, [], {}, {}, [])
    verdict, census = linear_semisimple_check(empty)
    assert verdict.ok
    assert census == []
    rep = decompose(empty)
    assert rep.semisimple
    assert rep.summands == []


def test_orbits_in_disjoint_union():
    both = direct_sum_cat([cyclic_table_category(F5, 2),
                           cyclic_table_category(F5, 2)])
    orbits = simple_orbits(both)
    assert len(orbits) == 2
    assert orbits == [[0, 1, 2, 3], [4, 5, 6, 7]]


def test_one_coset_block_classification():
    # tau collapsing everything: L = ker tau = H gives a one-object block
    tau81 = reduction_hom(8, 1)
    full = subgroup(cyclic_group(8), range(8))
    spec = trivial_spec(tau81, F5, full)
    cat = build_skeleton(spec)
    assert cat.n_objects == 1
    assert verify_axioms(cat).ok
    rep = decompose(cat)
    assert rep.semisimple and len(rep.summands) == 1
    data = classify_equivalences(spec, rep.summands[0])
    assert data
    # class count agrees with the character group Hom(C8, Z/4)
    per_t = {}
    for d in data:
        per_t[d.t] = per_t.get(d.t, 0) + 1
    assert list(per_t.values()) == [4]


def test_classify_between_distinct_coboundaries():
    # both sides nontrivially twisted, both base degrees, all data realised
    rng = Random(99)
    sp = coset_space(C8, cyclic_subgroup_of_order(2))
    for g_a, g_b in ((0, 0), (0, 1), (1, 1)):
        a = mtau_spec(TAU, F5, cyclic_subgroup_of_order(2),
                      d1_cochain(random_cochain1(F5, sp, rng)), g_a)
        b = mtau_spec(TAU, F5, cyclic_subgroup_of_order(2),
                      d1_cochain(random_cochain1(F5, sp, rng)), g_b)
        data = classify_equivalences(a, b)
        assert data
        for d in data:
            F = realize_functor(a, b, d)
            assert verify_functor(F).ok


def _count_calls(monkeypatch, fn):
    """Count calls of fn through every taucat module that binds it."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)
    for name, mod in list(sys.modules.items()):
        if name.startswith("taucat") and getattr(mod, fn.__name__, None) is fn:
            monkeypatch.setattr(mod, fn.__name__, counted)
    return calls


def _clear_classify_caches():
    """Forget every kept tree system and class computation."""
    cochains._tree_system.cache_clear()
    structure._class_offsets.cache_clear()


def _tree_width(space):
    """Unknowns of the tree system: one per generator of H and coset."""
    return len(cayley_tree(space.parent)[0]) * space.size


def test_classify_factors_the_d1_matrix_once(monkeypatch):
    # the four cosets of t share one tree system on H/L, and the classes
    # modulo coboundaries are worked out once for all of them; both are
    # kept, so another classification on the same space factors nothing
    _clear_classify_caches()
    a, b = twisted_spec(71, k=1), twisted_spec(72, k=1)
    calls = _count_calls(monkeypatch, znsolve.diagonalize)
    data = classify_equivalences(a, b)
    assert len({d.t for d in data}) == 4
    assert cochains._tree_system.cache_info().misses == 1
    assert len(calls) == 1  # the tree system; its kernel and B^1 need only Howell forms
    assert len(calls[0][0][0]) == _tree_width(a.psi.space)
    calls.clear()
    assert classify_equivalences(a, b) == data
    assert len(classify_equivalences(twisted_spec(75, k=1), twisted_spec(76, k=1))) == 4
    assert calls == []
    assert cochains._tree_system.cache_info().misses == 1


def test_classify_keeps_one_factorisation_per_modulus(monkeypatch):
    # one coset space at p = 5 (m = 4), then at p = 7 (m = 6): the second
    # field factors its own tree system, and each agrees with a cold run
    L = cyclic_subgroup_of_order(2)
    space = coset_space(C8, L)

    def blocks(f, seed):
        rng = Random(seed)
        return [mtau_spec(TAU, f, L, d1_cochain(random_cochain1(f, space, rng)), 0)
                for _ in range(2)]
    pairs = [blocks(F5, 81), blocks(field(7), 82)]
    cold = []
    for a, b in pairs:
        _clear_classify_caches()
        cold.append(classify_equivalences(a, b))
    _clear_classify_caches()
    calls = _count_calls(monkeypatch, znsolve.diagonalize)
    for misses, ((a, b), want) in enumerate(zip(pairs, cold), 1):
        calls.clear()
        assert classify_equivalences(a, b) == want
        assert len(calls) == 1
        assert len(calls[0][0][0]) == _tree_width(space)
        assert cochains._tree_system.cache_info().misses == misses
    calls.clear()
    for (a, b), want in zip(pairs, cold):
        assert classify_equivalences(a, b) == want
    assert calls == []
    assert [len(data) for data in cold] == [4, 4]


def test_classify_translates_each_target_once(monkeypatch):
    # psi'^t is built once per coset of t, not again for every datum returned
    a, b = twisted_spec(73, k=2), twisted_spec(74, k=2)
    calls = _count_calls(monkeypatch, cochains.translate)
    data = classify_equivalences(a, b)
    assert len(calls) == len({d.t for d in data}) == 2
    assert len(data) == 4


def test_decompose_checks_each_cocycle_once(monkeypatch):
    cat = direct_sum_cat([build_skeleton(twisted_spec(45, k=2)),
                          build_skeleton(twisted_spec(46, k=4, g=1))])
    calls = _count_calls(monkeypatch, cochains.cocycle_violation)
    rep = decompose(cat)
    assert rep.semisimple and len(rep.orbits) == 2
    assert len(calls) == len(rep.orbits)


# -- the tree solver against the dense d1 system ------------------------------
#
# The classification as it was before the spanning-tree solver: one d1
# equation per (a, b, coset) with a, b != 1 on every value of a normalised
# 1-cochain off the identity, and each class canonicalised on all of those
# values.


@lru_cache(maxsize=None)
def _reference_d1_system(m, space):
    g, e = space.parent, space.parent.identity
    unknowns = [(a, i) for a in g.elements() if a != e for i in range(space.size)]
    var = {v: k for k, v in enumerate(unknowns)}
    pairs = [(a, b) for a in g.elements() for b in g.elements() if e not in (a, b)]
    rows = []
    for a, b in pairs:
        ab = g.mul(a, b)
        for i, j in enumerate(space.act[b]):
            row = [0] * len(var)
            if ab != e:
                row[var[(ab, i)]] += 1
            row[var[(a, j)]] -= 1
            row[var[(b, i)]] -= 1
            rows.append(row)
    starts = [(a * g.order + b) * space.size for a, b in pairs]
    return znsolve.System(rows, m, len(var)), starts


def _reference_solve_d1(target):
    """The solutions of d1(gamma) = target on the dense system, or None."""
    m, s = max(target.field.unit_order, 1), target.space.size
    system, starts = _reference_d1_system(m, target.space)
    x = target.exps
    return system.solve([x[k + i] for k in starts for i in range(s)])


def _reference_lexmin(x0, gens, m):
    """The least element of x0 + span(gens), by a greedy column sweep that
    re-closes the generators against each column it settles."""
    n = len(x0)
    x = [v % m for v in x0]
    work = [list(g) for g in gens if any(v % m for v in g)]
    for j in range(n):
        d = m
        for g in work:
            d = gcd(d, g[j] % m)
        if d == m:
            continue
        vec, cur = [0] * n, m
        for g in work:
            cur, s, t = znsolve.ext_gcd(cur, g[j] % m)
            vec = [(s * a + t * b) % m for a, b in zip(vec, g)]
        q = (x[j] - x[j] % d) // d
        x = [(a - q * b) % m for a, b in zip(x, vec)]
        work = [[(a - (g[j] % m) // d * b) % m for a, b in zip(g, vec)] for g in work]
        work = [g for g in work + [[(m // d) * b % m for b in vec]] if any(g)]
    return tuple(x)


def _reference_unapply_rows(ops, y, m):
    """U^-1 y for the U that `znsolve.diagonalize` logs: the inverse steps, last first."""
    y = [x % m for x in y]
    for i, k, q in reversed(ops):
        if q is None:
            y[i], y[k] = y[k], y[i]
        else:
            y[i] = (y[i] + q * y[k]) % m
    return y


def _reference_classes(field_, space, sol):
    """The least full exponent vector of each class of ``sol`` modulo B^1:
    B^1 pulled back through the kernel generators of the dense system and
    diagonalised, one coefficient vector per class."""
    m = max(field_.unit_order, 1)
    kernel = sol.kernel
    nvars = len(sol.x0)
    b_gens = [g for g in cochains.coboundary_basis_c1(
        m, space, [a for a in space.parent.elements() if a != space.parent.identity]) if any(g)]
    k = len(kernel)
    combined = [[g[r] for g in kernel] + [g[r] for g in b_gens] for r in range(nvars)]
    pulled = [g[:k] for g in znsolve.kernel_generators(combined, m, ncols=k + len(b_gens))]
    pulled = [g for g in pulled if any(g)]
    d, ops, _ = znsolve.diagonalize([[g[i] for g in pulled] for i in range(k)], m)
    ranges = [gcd(d[i][i] if i < len(pulled) else 0, m) for i in range(k)]
    canon = set()
    for idx in znsolve.index_vectors(ranges):
        c = _reference_unapply_rows(ops, idx, m)
        x = [(x0 + sum(cj * g[r] for cj, g in zip(c, kernel))) % m
             for r, x0 in enumerate(sol.x0)]
        canon.add(_reference_lexmin(x, b_gens, m))
    return [exponents_to_c1(field_, space, v) for v in sorted(canon)]


def _assert_tree_solver_matches_dense(a, b):
    """Same solvability, solution count and class list per t, and the same
    data from classify_equivalences; returns the number of classes."""
    tau, space_b = a.tau, b.psi.space
    gG = tau.target
    want = []
    for c, t in enumerate(space_b.reps):
        if tau.map[t] != gG.mul(a.g, gG.inv(b.g)):
            continue
        if set(conjugate_subgroup(b.L, t).elements) != set(a.L.elements):
            continue
        target = c2_mul(a.psi, c2_inv(cochains.translate(b.psi, t)))
        dense, tree = _reference_solve_d1(target), cochains.solve_d1(target)
        assert (dense is None) == (tree is None)
        if tree is None:
            continue
        assert tree.count() == dense.count()
        classes = _reference_classes(a.field, a.psi.space, dense)
        assert classes == structure._solution_classes(
            tree, *structure._class_offsets(a.psi.space, max(a.field.unit_order, 1)))
        want += [EquivalenceDatum(t, gamma) for gamma in classes]
    assert classify_equivalences(a, b) == want
    return len(want)


def _coboundary_spec(tau, f, L, rng, g=0):
    space = coset_space(tau.source, L)
    return mtau_spec(tau, f, L, d1_cochain(random_cochain1(f, space, rng)), g)


# the (|H|, |L|) shapes over C_n -> C_2 of the classify benchmark
POOL_SHAPES = [(8, 1), (8, 2), (8, 4), (12, 1), (12, 2), (12, 3), (12, 6),
               (16, 2), (16, 4), (16, 8)]


@pytest.mark.parametrize("p", [3, 5, 7])
def test_tree_solver_matches_dense_system_on_cyclic_blocks(p):
    f, rng = field(p), Random(p)
    cases = [(reduction_hom(n, 2), k) for n, k in POOL_SHAPES]
    cases += [(reduction_hom(n, 3), k) for n in (6, 9) for k in (1, n // 3)]
    for tau, k in cases:
        n = tau.source.order
        L = subgroup(tau.source, range(0, n, n // k))
        a = _coboundary_spec(tau, f, L, rng, rng.randrange(tau.target.order))
        b = _coboundary_spec(tau, f, L, rng, rng.randrange(tau.target.order))
        # Shapiro's lemma: (|ker tau| / |L|) * |Hom(L, F_p^x)| classes
        assert _assert_tree_solver_matches_dense(a, b) == (
            n // tau.target.order // k * gcd(k, p - 1))


def test_tree_solver_matches_dense_system_on_carry_classes():
    # psi_k(a, b) = 2^(k floor((a + b) / 4)) on C4 -> 1 with L = C4 at p = 5:
    # one class of H^2(C4, F_5^x) = Z/4 each, so only equal k are equivalent
    tau, c4 = reduction_hom(4, 1), cyclic_group(4)
    L = subgroup(c4, range(4))
    space = coset_space(c4, L)
    specs = [mtau_spec(tau, F5, L, cochain2(F5, space, [
        [[F5.exp(k * ((a + b) // 4) % 4)] for b in range(4)] for a in range(4)]), 0)
        for k in range(4)]
    counts = [[_assert_tree_solver_matches_dense(a, b) for b in specs] for a in specs]
    assert counts == [[4 if j == k else 0 for k in range(4)] for j in range(4)]


def test_tree_solver_matches_dense_system_on_c2_x_c4():
    # C2 x C4 -> 1 at p = 5, element (a, b) at index 4a + b, with L = {0, 2, 5, 7}
    # the cyclic subgroup generated by (1, 1): half of the 8 classes are
    # reached only through an annihilator row of znsolve.howell
    c2c4 = group_from_table([[4 * ((i // 4 + j // 4) % 2) + (i + j) % 4 for j in range(8)]
                             for i in range(8)])
    tau = hom(c2c4, cyclic_group(1), [0] * 8)
    L = subgroup(c2c4, [0, 2, 5, 7])
    rng = Random(24)
    a, b = _coboundary_spec(tau, F5, L, rng), _coboundary_spec(tau, F5, L, rng)
    # Shapiro's lemma: (|H| / |L|) * |Hom(C4, F_5^x)| = 2 * 4 classes
    assert _assert_tree_solver_matches_dense(a, b) == 8


@pytest.mark.parametrize("p", [3, 5, 7])
def test_tree_solver_matches_dense_system_on_s3(p):
    f, rng = field(p), Random(p)
    c2 = cyclic_group(2)
    # S3 -> 1, and the sign S3 -> C2, which sends the elements of order 2 to 1
    taus = [hom(S3, cyclic_group(1), [0] * 6),
            hom(S3, cyclic_group(2), [int(generated_subgroup(S3, [x]).order == 2)
                                      for x in S3.elements()])]
    for tau in taus:
        ker = set(kernel(tau).elements)
        subs = [L for L in _subgroups(S3) if L.order < 6 and set(L.elements) <= ker]
        for la, lb in product(subs, repeat=2):
            if la.order == lb.order:
                _assert_tree_solver_matches_dense(_coboundary_spec(tau, f, la, rng),
                                                  _coboundary_spec(tau, f, lb, rng))
