from itertools import product
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from taucat.cochains import (Cochain0, Cochain1, Cochain2, UnitFunction, act,
                             cochain1, cochain2, cocycle_violation, constant_one,
                             coboundary_basis_c1, d0, d0_cochain, d1, d1_cochain,
                             d2, is_cocycle, random_cochain0, random_cochain1,
                             solve_d0, solve_d1, translate, translate_c1,
                             trivial_cochain1, trivial_cochain2, unit_function)
from taucat.fields import field
from taucat.groups import coset_space, cyclic_group, reduction_hom, subgroup

F5 = field(5)
F3 = field(3)
C8 = cyclic_group(8)
C4 = cyclic_group(4)
SP84 = coset_space(C8, subgroup(C8, [0, 4]))          # four cosets of C8
SP4_TRIV = coset_space(C4, subgroup(C4, [0]))          # C4 over the trivial subgroup
SP4_HALF = coset_space(C4, subgroup(C4, [0, 2]))       # two cosets of C4


def all_triples(n):
    return product(range(n), repeat=3)


def test_act_identity():
    f = unit_function(F5, SP84, (1, 2, 3, 4))
    assert act(f, 0) == f


def test_act_fixes_constants():
    one = constant_one(F5, SP84)
    for h in range(8):
        assert act(one, h) == one


def test_act_example():
    f = unit_function(F5, SP84, (1, 2, 3, 4))
    assert act(f, 1).values == (2, 3, 4, 1)


def test_act_is_right_action():
    rng = Random(0)
    f = unit_function(F5, SP84, [F5.exp(rng.randrange(4)) for _ in range(4)])
    for h in range(8):
        for k in range(8):
            assert act(act(f, h), k) == act(f, C8.mul(h, k))


def test_unit_function_rejects_zero():
    with pytest.raises(ValueError):
        unit_function(F5, SP84, (1, 0, 1, 1))


def test_d2_trivial_cocycle():
    psi = trivial_cochain2(F5, SP84)
    for a, b, c in all_triples(8):
        assert all(v == 1 for v in d2(psi, a, b, c).values)


def test_d1_of_gamma_is_cocycle():
    rng = Random(9)
    for _ in range(5):
        gamma = random_cochain1(F5, SP84, rng)
        psi = d1_cochain(gamma)
        assert cocycle_violation(psi) is None


def test_perturbed_cocycle_detected():
    rng = Random(5)
    psi = d1_cochain(random_cochain1(F5, SP84, rng))
    vals = [list(list(cell) for cell in row) for row in psi.values]
    vals[3][2][1] = F5.mul(vals[3][2][1], 2)
    broken = Cochain2(F5, SP84, tuple(
        tuple(tuple(c) for c in row) for row in vals))
    assert cocycle_violation(broken) is not None


def test_d1_trivial_and_normalisation():
    gamma = trivial_cochain1(F5, SP84)
    psi = d1_cochain(gamma)
    assert all(v == 1 for row in psi.values for cell in row for v in cell)
    rng = Random(2)
    gamma = random_cochain1(F5, SP84, rng)
    for h in range(8):
        assert all(v == 1 for v in d1(gamma, 0, h).values)
        assert all(v == 1 for v in d1(gamma, h, 0).values)


def test_d0_trivial_and_identity_degree():
    eta = Cochain0(F5, SP84, (1, 1, 1, 1))
    assert all(all(v == 1 for v in d0(eta, a).values) for a in range(8))
    rng = Random(3)
    eta = random_cochain0(F5, SP84, rng)
    assert all(v == 1 for v in d0(eta, 0).values)


def test_dd_is_one():
    rng = Random(7)
    for _ in range(5):
        eta = random_cochain0(F5, SP84, rng)
        gamma = d0_cochain(eta)
        psi = d1_cochain(gamma)
        assert all(v == 1 for row in psi.values for cell in row for v in cell)


def test_translate_identity_and_inverse():
    rng = Random(4)
    psi = d1_cochain(random_cochain1(F5, SP84, rng))
    assert translate(psi, 0) == psi
    for t in range(8):
        back = translate(translate(psi, t), C8.inv(t))
        assert back == psi


def test_translate_preserves_cocycles():
    rng = Random(6)
    psi = d1_cochain(random_cochain1(F5, SP84, rng))
    for t in range(8):
        assert cocycle_violation(translate(psi, t)) is None


def test_translate_commutes_with_d1():
    rng = Random(8)
    gamma = random_cochain1(F5, SP84, rng)
    for t in range(8):
        assert translate(d1_cochain(gamma), t) == d1_cochain(translate_c1(gamma, t))


def test_solve_d1_trivial_target():
    target = trivial_cochain2(F5, SP84)
    sols = solve_d1(target)
    assert sols is not None
    assert all(v == 1 for row in sols.particular.values for v in row)
    # kernel elements decode to 1-cocycles: their coboundary is trivial
    for vec in sols.kernel:
        from taucat.cochains import _exponents_to_c1
        gamma = _exponents_to_c1(F5, SP84, vec)
        assert d1_cochain(gamma) == target


def test_solve_d1_round_trip():
    rng = Random(10)
    for _ in range(5):
        gamma0 = random_cochain1(F5, SP84, rng)
        target = d1_cochain(gamma0)
        sols = solve_d1(target)
        assert sols is not None
        assert d1_cochain(sols.particular) == target
        assert gamma0 in set(sols.enumerate())


def test_solve_d1_rejects_non_cocycle():
    rng = Random(5)
    psi = d1_cochain(random_cochain1(F5, SP84, rng))
    vals = [list(list(cell) for cell in row) for row in psi.values]
    vals[3][2][1] = F5.mul(vals[3][2][1], 2)
    broken = Cochain2(F5, SP84, tuple(tuple(tuple(c) for c in row) for row in vals))
    with pytest.raises(ValueError):
        solve_d1(broken)


def _all_cocycles(f, space):
    """Every normalised 2-cocycle, via the kernel of the linearised d2."""
    from taucat import fplinalg

    g = space.parent
    n = g.order
    m = f.unit_order
    pairs = [(a, b) for a in range(1, n) for b in range(1, n)]
    nvars = len(pairs) * space.size
    idx = {}
    for k, (a, b) in enumerate(pairs):
        for i in range(space.size):
            idx[(a, b, i)] = k * space.size + i

    def var(a, b, i):
        if a == 0 or b == 0:
            return None
        return idx[(a, b, i)]

    from taucat.groups import left_action_on_cosets
    rows = []
    for a in range(n):
        for b in range(n):
            for c in range(n):
                perm_c = left_action_on_cosets(space, c)
                for i in range(space.size):
                    row = [0] * nvars
                    for (aa, bb, ii, sign) in [
                        (b, c, i, 1),
                        (g.mul(a, b), c, i, -1),
                        (a, g.mul(b, c), i, 1),
                        (a, b, perm_c[i], -1),
                    ]:
                        v = var(aa, bb, ii)
                        if v is not None:
                            row[v] = (row[v] + sign) % m
                    if any(row):
                        rows.append(row)
    basis = fplinalg.nullspace(rows, m, ncols=nvars) if m in (2, 3) else None
    assert basis is not None, "enumeration helper assumes prime exponent modulus"
    out = set()
    for coeffs in product(range(m), repeat=len(basis)):
        vec = [0] * nvars
        for cf, bvec in zip(coeffs, basis):
            if cf:
                vec = [(x + cf * y) % m for x, y in zip(vec, bvec)]
        grid = [[[1] * space.size for _ in range(n)] for _ in range(n)]
        for (a, b) in pairs:
            for i in range(space.size):
                grid[a][b][i] = f.exp(vec[idx[(a, b, i)]])
        out.add(cochain2(f, space, grid))
    return out


def _all_coboundaries(f, space):
    g = space.parent
    n = g.order
    m = f.unit_order
    out = set()
    nfree = (n - 1) * space.size
    for exps in product(range(m), repeat=nfree):
        grid = [[1] * space.size for _ in range(n)]
        k = 0
        for a in range(1, n):
            for i in range(space.size):
                grid[a][i] = f.exp(exps[k])
                k += 1
        out.add(d1_cochain(cochain1(f, space, grid)))
    return out


def test_nontrivial_class_is_infeasible():
    # C4 with the index-two subgroup over F_3 carries a nontrivial class
    cocycles = _all_cocycles(F3, SP4_HALF)
    coboundaries = _all_coboundaries(F3, SP4_HALF)
    assert coboundaries < cocycles
    hard = next(iter(cocycles - coboundaries))
    assert solve_d1(hard) is None
    easy = next(iter(coboundaries))
    assert solve_d1(easy) is not None


def test_solve_d0_trivial_target_gives_constants():
    target = trivial_cochain1(F5, SP84)
    sols = solve_d0(target)
    assert sols is not None
    got = {e.values for e in sols.enumerate()}
    assert got == {(u, u, u, u) for u in (1, 2, 3, 4)}


def test_solve_d0_round_trip():
    rng = Random(12)
    for _ in range(5):
        eta0 = random_cochain0(F5, SP84, rng)
        target = d0_cochain(eta0)
        sols = solve_d0(target)
        assert sols is not None
        assert eta0 in set(sols.enumerate())


def test_solve_d0_infeasible():
    # exhaustive scan on C4 over F_3: find a normalised 1-cochain off the image
    images = set()
    for vals in product((1, 2), repeat=SP4_TRIV.size):
        images.add(d0_cochain(Cochain0(F3, SP4_TRIV, vals)))
    found = None
    n = C4.order
    for exps in product(range(2), repeat=(n - 1) * SP4_TRIV.size):
        grid = [[1] * SP4_TRIV.size for _ in range(n)]
        k = 0
        for a in range(1, n):
            for i in range(SP4_TRIV.size):
                grid[a][i] = F3.exp(exps[k])
                k += 1
        cand = cochain1(F3, SP4_TRIV, grid)
        if cand not in images:
            found = cand
            break
    assert found is not None
    assert solve_d0(found) is None


def test_coboundary_basis_spans_d0_image():
    gens = coboundary_basis_c1(F3, SP4_TRIV)
    from taucat import znsolve
    from taucat.cochains import _c1_to_exponents
    span = set(znsolve.span_members(gens, F3.unit_order, len(gens[0])))
    images = set()
    for vals in product((1, 2), repeat=SP4_TRIV.size):
        images.add(_c1_to_exponents(d0_cochain(Cochain0(F3, SP4_TRIV, vals))))
    assert images == span


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.integers(0, 7), st.integers(0, 7), st.integers(0, 7), st.integers(0, 2 ** 16))
def test_d2_of_d1_vanishes_everywhere(a, b, c, seed):
    gamma = random_cochain1(F5, SP84, Random(seed))
    assert all(v == 1 for v in d2(d1_cochain(gamma), a, b, c).values)


def test_one_coset_degenerate_space():
    # L equal to the whole group: a single coset, no special-casing
    from taucat.groups import reduction_hom

    c8 = cyclic_group(8)
    full = subgroup(c8, range(8))
    space = coset_space(c8, full)
    assert space.size == 1
    rng = Random(77)
    gamma = random_cochain1(F5, space, rng)
    psi = d1_cochain(gamma)
    assert cocycle_violation(psi) is None
    sols = solve_d1(psi)
    assert sols is not None
    assert d1_cochain(sols.particular) == psi
    eta = random_cochain0(F5, space, rng)
    back = solve_d0(d0_cochain(eta))
    assert back is not None and eta in set(back.enumerate())
