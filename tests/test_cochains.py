from itertools import permutations, product
from random import Random

import pytest
from hypothesis import Phase, given, settings, strategies as st

from taucat.cochains import (Cochain0, Cochain1, act, cochain1, cochain2,
                             cocycle_violation, constant_one, coboundary_basis_c1, d0,
                             d0_cochain, d1, d1_cochain, d2, random_cochain0,
                             random_cochain1, solve_d0, solve_d1, translate,
                             trivial_cochain1, trivial_cochain2, unit_function, _pack)
from taucat import znsolve
from taucat.fields import field
from taucat.groups import (cayley_tree, conjugate_subgroup, coset_space, cyclic_group,
                           generated_subgroup, group_from_table, reduction_hom,
                           subgroup)

F5 = field(5)
F3 = field(3)
C8 = cyclic_group(8)
C4 = cyclic_group(4)
SP84 = coset_space(C8, subgroup(C8, [0, 4]))          # four cosets of C8
SP4_TRIV = coset_space(C4, subgroup(C4, [0]))          # C4 over the trivial subgroup
SP4_HALF = coset_space(C4, subgroup(C4, [0, 2]))       # two cosets of C4


def exponents_to_c0(f, space, vec):
    return Cochain0(f, space, _pack(f, [x % f.unit_order for x in vec]))


def exponents_to_c1(f, space, vec):
    """The 1-cochain whose exponents off the identity row are ``vec``, the
    layout of a `solve_d1` kernel generator."""
    s, e = space.size, space.parent.identity
    vec = [x % f.unit_order for x in vec]
    return Cochain1(f, space, _pack(f, vec[:e * s] + [0] * s + vec[e * s:]))


def c1_to_exponents(gamma):
    x, s, e = gamma.exps.tolist(), gamma.space.size, gamma.space.parent.identity
    return tuple(x[:e * s] + x[(e + 1) * s:])


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
    assert act(f, 1).units() == (2, 3, 4, 1)


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
        assert all(v == 1 for v in d2(psi, a, b, c).units())


def test_d1_of_gamma_is_cocycle():
    rng = Random(9)
    for _ in range(5):
        gamma = random_cochain1(F5, SP84, rng)
        psi = d1_cochain(gamma)
        assert cocycle_violation(psi) is None


def test_perturbed_cocycle_detected():
    rng = Random(5)
    psi = d1_cochain(random_cochain1(F5, SP84, rng))
    vals = [list(list(cell) for cell in row) for row in psi.units()]
    vals[3][2][1] = F5.mul(vals[3][2][1], 2)
    broken = cochain2(F5, SP84, vals)
    assert cocycle_violation(broken) is not None


def test_d1_trivial_and_normalisation():
    gamma = trivial_cochain1(F5, SP84)
    psi = d1_cochain(gamma)
    assert all(v == 1 for row in psi.units() for cell in row for v in cell)
    rng = Random(2)
    gamma = random_cochain1(F5, SP84, rng)
    for h in range(8):
        assert all(v == 1 for v in d1(gamma, 0, h).units())
        assert all(v == 1 for v in d1(gamma, h, 0).units())


def test_d0_trivial_and_identity_degree():
    eta = unit_function(F5, SP84, (1, 1, 1, 1))
    assert all(all(v == 1 for v in d0(eta, a).units()) for a in range(8))
    rng = Random(3)
    eta = random_cochain0(F5, SP84, rng)
    assert all(v == 1 for v in d0(eta, 0).units())


def test_dd_is_one():
    rng = Random(7)
    for _ in range(5):
        eta = random_cochain0(F5, SP84, rng)
        gamma = d0_cochain(eta)
        psi = d1_cochain(gamma)
        assert all(v == 1 for row in psi.units() for cell in row for v in cell)


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
        assert translate(d1_cochain(gamma), t) == d1_cochain(translate(gamma, t))


def test_solve_d1_trivial_target():
    target = trivial_cochain2(F5, SP84)
    sols = solve_d1(target)
    assert sols is not None
    assert all(v == 1 for row in sols.particular.units() for v in row)
    # kernel elements decode to 1-cocycles: their coboundary is trivial
    for vec in sols.kernel:
        gamma = exponents_to_c1(F5, SP84, vec)
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
    vals = [list(list(cell) for cell in row) for row in psi.units()]
    vals[3][2][1] = F5.mul(vals[3][2][1], 2)
    broken = cochain2(F5, SP84, vals)
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
    got = {e.units() for e in sols.enumerate()}
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
        images.add(d0_cochain(unit_function(F3, SP4_TRIV, vals)))
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
    gens = coboundary_basis_c1(F3.unit_order, SP4_TRIV, range(1, 4))
    span = set(znsolve.span_members(gens, F3.unit_order, len(gens[0])))
    images = set()
    for vals in product((1, 2), repeat=SP4_TRIV.size):
        images.add(c1_to_exponents(d0_cochain(unit_function(F3, SP4_TRIV, vals))))
    assert images == span


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.integers(0, 7), st.integers(0, 7), st.integers(0, 7), st.integers(0, 2 ** 16))
def test_d2_of_d1_vanishes_everywhere(a, b, c, seed):
    gamma = random_cochain1(F5, SP84, Random(seed))
    assert all(v == 1 for v in d2(d1_cochain(gamma), a, b, c).units())


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


def test_constructors_reject_zero():
    with pytest.raises(ValueError, match="not 0"):
        cochain1(F5, SP84, [[1] * 4] + [[1, 1, 0, 1]] + [[1] * 4] * 6)
    row = [[1] * 4] * 8
    with pytest.raises(ValueError, match="not 0"):
        cochain2(F5, SP84, [row, [[1] * 4, [0, 1, 1, 1]] + [[1] * 4] * 6] + [row] * 6)


def test_packed_layout():
    # one width per field, the narrowest that holds 0..p-2: entry (a, b,
    # coset i) at (a*n + b)*s + i, and the top exponents kept whole
    for p, width in ((5, 1), (257, 1), (263, 2), (65537, 2), (65539, 4)):
        f, m = field(p), p - 1
        gamma = random_cochain1(f, SP84, Random(p))
        psi = d1_cochain(gamma)
        assert len(psi.data) == width * 8 * 8 * 4 and len(gamma.data) == width * 8 * 4
        assert len(trivial_cochain2(f, SP84).data) == len(psi.data)
        assert constant_one(f, SP84).data == bytes(width * 4)
        # exponents m-1, m-2, ... off the identity rows; past the next
        # narrower width at p = 263 and p = 65539
        top = cochain2(f, SP84, [[[1] * 4 if 0 in (a, b) else
                                  [f.exp(m - a * b - i) for i in range(4)]
                                  for b in range(8)] for a in range(8)])
        assert max(top.exps) == m - 1 >= 256 ** (width // 2)
        for x in (psi, top):
            units = x.units()
            for a, b, i in product(range(8), range(8), range(4)):
                assert f.exp(x.exps[(a * 8 + b) * 4 + i]) == units[a][b][i]
                assert x.at(a, b).units()[i] == units[a][b][i]
            assert cochain2(f, SP84, units) == x
        assert cochain1(f, SP84, gamma.units()) == gamma


# -- unit-form reference oracles ---------------------------------------------
#
# d1, d2, cocycle_violation and translate as they were written on units, with
# the coset action recomputed from the Cayley table instead of read off the
# coset space's table, so the exponent kernel is checked against a separate
# implementation.


def _perm(space, a):
    g = space.parent
    return tuple(space.coset_of[g.mul(a, r)] for r in space.reps)


def _reference_d0(f, space, eta):
    return tuple(tuple(f.mul(eta[i], f.inv(eta[j])) for i, j in enumerate(_perm(space, a)))
                 for a in range(space.parent.order))


def _reference_d1(f, space, gamma):
    g = space.parent
    return tuple(tuple(tuple(
        f.mul(gamma[g.mul(a, b)][i], f.inv(f.mul(gamma[a][j], gamma[b][i])))
        for i, j in enumerate(_perm(space, b))) for b in range(g.order))
        for a in range(g.order))


def _reference_d2(f, space, psi, a, b, c):
    g = space.parent
    ab, bc = g.mul(a, b), g.mul(b, c)
    return tuple(f.mul(f.mul(psi[b][c][i], f.inv(psi[ab][c][i])),
                       f.mul(psi[a][bc][i], f.inv(psi[a][b][j])))
                 for i, j in enumerate(_perm(space, c)))


def _reference_cocycle_violation(f, space, psi):
    for a, b, c in all_triples(space.parent.order):
        if any(v != 1 for v in _reference_d2(f, space, psi, a, b, c)):
            return (a, b, c)
    return None


def _reference_translate(space, psi, t):
    g = space.parent
    new_space = coset_space(g, conjugate_subgroup(space.subgroup, t))
    lookup = [space.coset_of[g.mul(r, t)] for r in new_space.reps]
    return new_space, tuple(tuple(tuple(cell[i] for i in lookup) for cell in row)
                            for row in psi)


def _s3():
    """S3 as permutations of {0, 1, 2}, composed right to left; the identity
    is element 0 and the transposition (0 1) is element 2."""
    perms = list(permutations(range(3)))
    index = {q: k for k, q in enumerate(perms)}
    return group_from_table([[index[tuple(x[y[i]] for i in range(3))] for y in perms]
                             for x in perms])


S3 = _s3()
REFERENCE_SPACES = {
    "C4/1": (cyclic_group(4), [0]), "C4/2": (cyclic_group(4), [0, 2]),
    "C6/2": (cyclic_group(6), [0, 3]), "C6/3": (cyclic_group(6), [0, 2, 4]),
    "C8/2": (C8, [0, 4]), "C12/2": (cyclic_group(12), [0, 6]),
    "C12/4": (cyclic_group(12), [0, 3, 6, 9]),
    # a non-normal L: conjugation moves it, and a*r differs from r*a
    "S3/2": (S3, [0, 2]), "S3/1": (S3, [0]),
}


def _corrupt(units, rng, f, depth):
    """One entry off the identity rows multiplied by a unit other than 1."""
    n = len(units)
    cells = [list(map(list, row)) if depth == 2 else list(row) for row in units]
    a, b = rng.randrange(1, n), rng.randrange(1, n)
    cell = cells[a][b] if depth == 2 else cells[a]
    i = rng.randrange(len(cell))
    cell[i] = f.mul(cell[i], f.exp(1 + rng.randrange(f.unit_order - 1)))
    return cells


# no shrink phase: a smaller seed is no simpler a counterexample
@settings(max_examples=5, deadline=None, derandomize=True,
          phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(st.integers(0, 2 ** 16))
def test_exponent_kernel_matches_unit_reference(seed):
    # every space, prime and corruption in each example, none left to the draw
    for name, p, corrupt in product(sorted(REFERENCE_SPACES), (3, 5, 7, 263, 65539),
                                    (False, True)):
        _check_against_reference(name, p, seed, corrupt)


def _check_against_reference(name, p, seed, corrupt):
    g, elements = REFERENCE_SPACES[name]
    space = coset_space(g, subgroup(g, elements))
    f, rng = field(p), Random(seed)
    assert g.identity == 0

    gamma = random_cochain1(f, space, rng)
    if corrupt:
        gamma = cochain1(f, space, _corrupt(gamma.units(), rng, f, 1))
    psi = d1_cochain(gamma)
    assert psi.units() == _reference_d1(f, space, gamma.units())
    if corrupt:
        psi = cochain2(f, space, _corrupt(psi.units(), rng, f, 2))
    units = psi.units()

    # with |H| >= 3 a changed entry off the identity rows always breaks d2 = 1
    bad = cocycle_violation(psi)
    assert bad == _reference_cocycle_violation(f, space, units)
    assert (bad is None) == (not corrupt)

    t = rng.randrange(g.order)
    moved = translate(psi, t)
    ref_space, ref_units = _reference_translate(space, units, t)
    assert moved.space == ref_space and moved.units() == ref_units

    if corrupt:
        with pytest.raises(ValueError):
            solve_d1(psi)
    else:
        sols = solve_d1(psi)
        assert _reference_d1(f, space, sols.particular.units()) == units
        ones = trivial_cochain2(f, space).units()
        for vec in sols.kernel:
            assert _reference_d1(f, space, exponents_to_c1(f, space, vec).units()) == ones

    eta = random_cochain0(f, space, rng)
    target = d0_cochain(eta)
    assert target.units() == _reference_d0(f, space, eta.units())
    if corrupt:
        target = cochain1(f, space, _corrupt(target.units(), rng, f, 1))
    sols = solve_d0(target)
    assert (sols is not None) or corrupt
    if sols is not None:
        assert _reference_d0(f, space, sols.particular.units()) == target.units()
        for vec in sols.kernel:  # d0 kills exactly the constants
            assert len(set(exponents_to_c0(f, space, vec).units())) == 1


# -- the first violation, where a generator-middle scan could go wrong ------
#
# A scan of the middles in the generating set S of `groups.cayley_tree`
# alone decides whether psi is a cocycle (Light's test); these cases pin the
# first violation that such a scan would have to hand over to the full one.


def _subgroups(g):
    """Every subgroup of g; each one of these groups is generated by two elements."""
    found = {generated_subgroup(g, (a, b)).elements
             for a in g.elements() for b in g.elements()}
    return [subgroup(g, elements) for elements in sorted(found)]


MIDDLE_SPACES = [coset_space(g, sub)
                 for g in (cyclic_group(4), cyclic_group(6), C8, cyclic_group(12), S3)
                 for sub in _subgroups(g)]


def _corrupt_at(units, f, rng, middles):
    """One entry psi(a, b)(i) with a off the identity and b in ``middles``,
    multiplied by a unit other than 1."""
    cells = [list(map(list, row)) for row in units]
    a, b = rng.randrange(1, len(units)), rng.choice(middles)
    i = rng.randrange(len(cells[a][b]))
    cells[a][b][i] = f.mul(cells[a][b][i], f.exp(1 + rng.randrange(f.unit_order - 1)))
    return cells


def _random_units2(f, space, rng):
    """A random normalised 2-cochain, as units; almost never a cocycle."""
    n, e = space.parent.order, space.parent.identity
    return [[[1 if e in (a, b) else f.exp(rng.randrange(f.unit_order))
              for _ in range(space.size)] for b in range(n)] for a in range(n)]


@settings(max_examples=3, deadline=None, derandomize=True,
          phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(st.integers(0, 2 ** 16))
def test_first_violation_matches_reference_on_every_subgroup(seed):
    # every subgroup of C4, C6, C8, C12 and S3 at p in {3, 5, 7}: a cocycle,
    # a random cochain, and one entry corrupted at any middle and at a middle
    # off the generating set; the first violation must be the reference's
    for space, p in product(MIDDLE_SPACES, (3, 5, 7)):
        f, rng, g = field(p), Random(seed), space.parent
        gens = cayley_tree(g)[0]
        off_gens = [b for b in g.elements() if b not in gens and b != g.identity]
        assert g.identity == 0 and off_gens
        cocycle = d1_cochain(random_cochain1(f, space, rng)).units()
        cases = [cocycle, _random_units2(f, space, rng),
                 _corrupt_at(cocycle, f, rng, list(range(1, g.order))),
                 _corrupt_at(cocycle, f, rng, off_gens)]
        for k, units in enumerate(cases):
            want = _reference_cocycle_violation(f, space, units)
            assert cocycle_violation(cochain2(f, space, units)) == want
            assert (want is None) == (k == 0)


def test_generator_scan_reaches_every_generator():
    # S3 needs two generators.  A 2-cochain that satisfies the identity at
    # every middle in the subgroup of the first one, but not at the second,
    # passes any scan that leaves a generator of S out.
    g1 = cayley_tree(S3)[0][0]
    pairs = [(a, b) for a in range(1, 6) for b in range(1, 6)]
    for space, p in product([sp for sp in MIDDLE_SPACES if sp.parent is S3], (3, 5, 7)):
        f, s = field(p), space.size
        var = {(a, b, i): k * s + i for k, (a, b) in enumerate(pairs) for i in range(s)}
        rows = []
        for a, c, i in product(range(6), range(6), range(s)):
            row = [0] * len(var)
            for key, sign in (((g1, c, i), 1), ((S3.mul(a, g1), c, i), -1),
                              ((a, S3.mul(g1, c), i), 1), ((a, g1, space.act[c][i]), -1)):
                if key in var:
                    row[var[key]] += sign
            rows.append(row)
        kernel = znsolve.System(rows, f.unit_order, len(var)).kernel
        rng = Random(p)
        coeffs = [rng.randrange(f.unit_order) for _ in kernel]
        units = [[[f.exp(sum(c * k[var[a, b, i]] for c, k in zip(coeffs, kernel)))
                   if (a, b, i) in var else 1 for i in range(s)] for b in range(6)]
                 for a in range(6)]
        want = _reference_cocycle_violation(f, space, units)
        assert want is not None and want[1] not in generated_subgroup(S3, [g1]).elements
        assert cocycle_violation(cochain2(f, space, units)) == want
