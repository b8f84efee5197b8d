"""Acceptance battery: one test per criterion, one printed verdict line each.

All arithmetic is exact, so every check is an equality at zero tolerance.
The default instance family lives over H = C8 -> G = C2 with p = 5; the
small-scale cohomology criterion uses C4 -> 1 with p = 3.
"""

import json
import subprocess
import sys
from itertools import product
from random import Random

import pytest

from taucat import fplinalg
from taucat.category import (direct_sum_cat, find_invertible, find_shift,
                             is_simple, verify_axioms, verify_functor)
from taucat.cochains import (c1_inv, c1_mul, cochain1, cochain2,
                             d0_cochain, d1_cochain, random_cochain0,
                             random_cochain1, solve_d1, trivial_cochain2)
from taucat.fields import field
from taucat.groups import (coset_space, cyclic_group, left_action_on_cosets,
                           reduction_hom, subgroup)
from taucat.mtau import (build_skeleton, check_skeleton_inverses,
                         cyclic_subgroup_of_order, cyclic_table_category,
                         mtau_spec, parity_tau, simple_census, trivial_spec)
from taucat.modcat import roundtrip
from taucat.structure import (EquivalenceDatum, classify_equivalences,
                              classify_nat_isos, decompose)
from taucat.yoneda import (has_invertible_nat, nat_equal, nat_space, phi,
                           phi_inv, representable)

F5 = field(5)
F3 = field(3)
TAU = parity_tau()
C8 = cyclic_group(8)


def report(criterion: int, ok: bool, detail: str = ""):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    assert ok, line


@pytest.fixture(scope="module")
def battery():
    """All (L, g, psi) skeleton specs: trivial psi plus 20 seeded coboundaries."""
    rng = Random(0)
    specs = []
    for k in (1, 2, 4):
        L = cyclic_subgroup_of_order(k)
        space = coset_space(C8, L)
        psis = [trivial_cochain2(F5, space)]
        psis += [d1_cochain(random_cochain1(F5, space, rng)) for _ in range(20)]
        for g in (0, 1):
            for psi in psis:
                specs.append(mtau_spec(TAU, F5, L, psi, g))
    return [(spec, build_skeleton(spec)) for spec in specs]


def _associativity_oracle(spec) -> bool:
    """Both association orders of basis composites, straight from the cochain."""
    g = spec.tau.source
    f = spec.field
    space = spec.psi.space
    perms = {a: left_action_on_cosets(space, a) for a in g.elements()}
    vals = spec.psi.units()
    for a in g.elements():
        for b in g.elements():
            ab = g.mul(a, b)
            for c in g.elements():
                bc = g.mul(b, c)
                abc = g.mul(ab, c)
                for i in range(space.size):
                    ci = perms[c][i]
                    left = f.mul(f.inv(vals[a][b][ci]), f.inv(vals[ab][c][i]))
                    right = f.mul(f.inv(vals[b][c][i]), f.inv(vals[a][bc][i]))
                    if left != right:
                        return False
                    if perms[abc][i] != perms[a][perms[b][ci]]:
                        return False
    return True


def test_criterion_1_paper_examples():
    ok = True
    for k in (1, 2, 4):
        cat = cyclic_table_category(F5, k)
        ok = ok and verify_axioms(cat).ok
        dims = {sum(cat.rank(x, y, h) for h in range(8))
                for x in cat.objects() for y in cat.objects()}
        ok = ok and dims == {k}
    c8 = cyclic_table_category(F5, 8)
    verdict = verify_axioms(c8)
    grading = [v for v in verdict.violations if v[0] == "grading"]
    ok = ok and not verdict.ok and grading[0] == ("grading", 0, 0, 1)
    report(1, ok, "C_1/C_2/C_4 verified, dims 1/2/4; C_8 grading witness (0, x)")


def test_criterion_2_block_soundness(battery):
    ok = True
    for spec, cat in battery:
        ok = ok and verify_axioms(cat).ok
        ok = ok and _associativity_oracle(spec)
        ok = ok and check_skeleton_inverses(spec, cat)
        census = simple_census(cat)
        admissible = {TAU.target.mul(TAU.map[h], spec.g) for h in range(8)}
        want = 4 // spec.L.order  # |ker tau| / |L|
        ok = ok and set(census) == admissible
        ok = ok and all(c == want for c in census.values())
    report(2, ok, f"{len(battery)} skeletons: axioms, oracle, inverses, census")


def test_criterion_3_structure_round_trip(battery):
    ok = True
    for spec, cat in battery:
        rep = decompose(cat)
        ok = ok and rep.semisimple and len(rep.summands) == 1
        ok = ok and bool(classify_equivalences(spec, rep.summands[0]))
    both = direct_sum_cat([cyclic_table_category(F5, 2),
                           cyclic_table_category(F5, 4)])
    rep = decompose(both)
    ok = ok and rep.semisimple and len(rep.summands) == 2
    report(3, ok, f"{len(battery)} single-block round trips; C_2 [+] C_4 -> 2 blocks")


def _c4_cocycles_by_kernel(space):
    """Every normalised 2-cocycle over F_3: the d2 condition is linear in the
    exponents, so enumerating its kernel enumerates exactly the filtered set."""
    g = space.parent
    n = g.order
    m = F3.unit_order  # 2
    pairs = [(a, b) for a in range(1, n) for b in range(1, n)]
    idx = {}
    for k, (a, b) in enumerate(pairs):
        for i in range(space.size):
            idx[(a, b, i)] = k * space.size + i
    nvars = len(pairs) * space.size
    rows = []
    for a in range(n):
        for b in range(n):
            for c in range(n):
                perm_c = left_action_on_cosets(space, c)
                for i in range(space.size):
                    row = [0] * nvars
                    for (aa, bb, ii, sign) in ((b, c, i, 1),
                                               (g.mul(a, b), c, i, -1),
                                               (a, g.mul(b, c), i, 1),
                                               (a, b, perm_c[i], -1)):
                        if aa != 0 and bb != 0:
                            row[idx[(aa, bb, ii)]] = (row[idx[(aa, bb, ii)]]
                                                      + sign) % m
                    if any(row):
                        rows.append(row)
    basis = fplinalg.nullspace(rows, m, ncols=nvars)
    out = set()
    for coeffs in product(range(m), repeat=len(basis)):
        vec = [0] * nvars
        for cf, bvec in zip(coeffs, basis):
            if cf:
                vec = [(x + cf * y) % m for x, y in zip(vec, bvec)]
        grid = [[[1] * space.size for _ in range(n)] for _ in range(n)]
        for (a, b) in pairs:
            for i in range(space.size):
                grid[a][b][i] = F3.exp(vec[idx[(a, b, i)]])
        out.add(cochain2(F3, space, grid))
    return out


def test_criterion_4_cohomology_small_scale():
    tau41 = reduction_hom(4, 1)
    c4 = cyclic_group(4)
    L = subgroup(c4, [0])
    space = coset_space(c4, L)

    cocycles = _c4_cocycles_by_kernel(space)

    coboundaries = set()
    n = c4.order
    for exps in product(range(2), repeat=(n - 1) * space.size):
        grid = [[1] * space.size for _ in range(n)]
        pos = 0
        for a in range(1, n):
            for i in range(space.size):
                grid[a][i] = F3.exp(exps[pos])
                pos += 1
        coboundaries.add(d1_cochain(cochain1(F3, space, grid)))

    ok = cocycles == coboundaries
    for target in sorted(cocycles, key=lambda c: c.units()):
        sols = solve_d1(target)
        ok = ok and sols is not None and d1_cochain(sols.particular) == target

    # planted natural-isomorphism round trips
    spec = trivial_spec(tau41, F3, L, 0)
    z1 = list(solve_d1(trivial_cochain2(F3, space)).enumerate())
    rng = Random(0)
    hits = 0
    for _ in range(50):
        t = rng.randrange(4)
        gamma = z1[rng.randrange(len(z1))]
        eta0 = random_cochain0(F3, space, rng)
        datum_a = EquivalenceDatum(t, gamma)
        datum_b = EquivalenceDatum(t, c1_mul(gamma, c1_inv(d0_cochain(eta0))))
        if eta0 in classify_nat_isos(spec, spec, datum_a, datum_b):
            hits += 1
    ok = ok and hits == 50
    report(4, ok, f"{len(cocycles)} cocycles = coboundaries, all solvable; "
                  f"{hits}/50 planted eta recovered")


def test_criterion_5_yoneda_audit():
    rng = Random(1)
    L = cyclic_subgroup_of_order(2)
    space = coset_space(C8, L)
    twisted = build_skeleton(
        mtau_spec(TAU, F5, L, d1_cochain(random_cochain1(F5, space, rng)), 0))
    ok = True
    checked = 0
    for cat in (cyclic_table_category(F5, 2), twisted):
        for x in cat.objects():
            for y in cat.objects():
                for a in range(8):
                    F = representable(a, y)
                    basis = nat_space(cat, x, a, F)
                    ok = ok and len(basis) == cat.rank(y, x, 0)
                    for nt in basis:
                        v = phi(cat, nt)
                        back = phi_inv(cat, x, a, F, v)
                        ok = ok and nat_equal(cat, F, nt, back)
                        ok = ok and phi(cat, back) == v
                    checked += 1
    report(5, ok, f"{checked} (X, a, Y) triples on C_2 and a twisted block")


def test_criterion_6_two_equivalence_round_trip(battery):
    cats = [cyclic_table_category(F5, k) for k in (1, 2, 4)]
    cats += [cat for _, cat in battery]
    ok = True
    for cat in cats:
        try:
            roundtrip(cat)  # verifies all coherences and both strict inverses
        except ValueError:
            ok = False
            break
    report(6, ok, f"{len(cats)} categories: coherent actions, strict inverses")


def test_criterion_7_shifts_and_representability(battery):
    cats = [cyclic_table_category(F5, k) for k in (1, 2, 4)]
    cats += [cat for _, cat in battery]
    ok = True
    for cat in cats:
        for x in cat.objects():
            for a in range(8):
                hit = find_shift(cat, x, a)
                if hit is None:
                    ok = False
                    continue
                want = cat.tau.target.mul(cat.tau.map[a], cat.degrees[x])
                ok = ok and cat.degrees[hit[0]] == want
    c2 = cyclic_table_category(F5, 2)
    for x in c2.objects():
        for y in c2.objects():
            for a in range(8):
                direct = find_invertible(c2, x, y, a) is not None
                via_nat = has_invertible_nat(c2, y, 0, representable(a, x))
                ok = ok and direct == via_nat
    report(7, ok, "all shifts exist with the forced degree; "
                  "representability matches on C_2")


def test_criterion_8_determinism():
    cmd = [sys.executable, "-m", "taucat.cli", "paper-suite", "--p", "5",
           "--seed", "0"]
    first = subprocess.run(cmd, capture_output=True, text=True)
    second = subprocess.run(cmd, capture_output=True, text=True)
    ok = (first.returncode == 0 and second.returncode == 0
          and first.stdout == second.stdout
          and json.loads(first.stdout)["ok"] is True)
    report(8, ok, "byte-identical paper-suite reports")
