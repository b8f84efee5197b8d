import contextlib
import io
import json
from collections import Counter
from itertools import permutations, product
from random import Random

import pytest

from taucat import category, cli, fplinalg, jsonio
from taucat.category import (GradedCatPresentation, Morphism, compose, find_invertible,
                             identity_morphism, verify_axioms)
from taucat.cochains import d1_cochain, random_cochain1
from taucat.completion import AdditiveCompletion
from taucat.fields import field
from taucat.groups import coset_space, cyclic_group, hom, subgroup
from taucat.mtau import (build_skeleton, cyclic_subgroup_of_order,
                         cyclic_table_category, mtau_spec, parity_tau)
from taucat.yoneda import (GradedNatTrans, _block_index, _blocks, _target_dim,
                           apply_rep_to_value, evaluate_yoneda,
                           has_invertible_nat, nat_equal, nat_space, phi,
                           phi_inv, rep_sum, representable, value_layout,
                           verify_graded_nat, whisker_object_morphism)
from taucat.znsolve import CapExceeded

from morphisms import basis_morphism, dense_tensors
from test_cochains import S3

F5 = field(5)
TAU = parity_tau()
C2CAT = cyclic_table_category(F5, 2)


def twisted_cat(seed=71):
    L = cyclic_subgroup_of_order(2)
    sp = coset_space(cyclic_group(8), L)
    psi = d1_cochain(random_cochain1(F5, sp, Random(seed)))
    return build_skeleton(mtau_spec(TAU, F5, L, psi, 0))


def s3_cat(seed=75):
    """The skeleton over the sign map S3 -> C2 with L = 1: six objects, and
    the greedy generating set of S3 has two elements."""
    perms = list(permutations(range(3)))
    sign = hom(S3, cyclic_group(2), [sum(q[j] > q[i] for i in range(3) for j in range(i))
                                     % 2 for q in perms])
    L = subgroup(S3, [S3.identity])
    psi = d1_cochain(random_cochain1(F5, coset_space(S3, L), Random(seed)))
    return build_skeleton(mtau_spec(sign, F5, L, psi, 0))


def ungenerated_cat():
    """One object over C4 -> 1 with basis 1, u, v in degrees 0, 1, 2.

    Every product of non-units is zero, so the presentation verifies, but v
    is no composite of degree-1 morphisms: naturality on the generator
    u alone leaves the degree-2 component free.
    """
    unit = (((1,),),)
    comp = {(0, 0, 0, 0, h): unit for h in range(3)}
    comp.update({(0, 0, 0, h, 0): unit for h in range(3)})
    return GradedCatPresentation(hom(cyclic_group(4), cyclic_group(1), [0] * 4), F5, [0],
                                 {(0, 0, h): 1 for h in range(3)}, comp, [(1,)])


def test_evaluate_examples():
    # identity sits in the a^-1 component at Y = X
    gm = evaluate_yoneda(C2CAT, 0, 0, 0)
    assert gm.dim(0) == 1
    gm = evaluate_yoneda(C2CAT, 0, 1, 0)
    assert gm.dim(7) == 1  # (yo^x_0 0)_{x^-1} contains the identity
    gm = evaluate_yoneda(C2CAT, 0, 1, 1)
    assert gm.dim(0) == 1  # degree-x morphisms 0 -> 1


def total_dim(gm):
    """The dimension of a graded module, summed over its degree components."""
    return sum(len(v) for v in gm.components.values())


def test_evaluate_zero_between_disjoint_blocks():
    from taucat.category import direct_sum_cat

    both = direct_sum_cat([C2CAT, C2CAT])
    for a in range(8):
        gm = evaluate_yoneda(both, 0, a, 4)
        assert total_dim(gm) == 0


def test_nat_dimension_is_reverse_hom():
    for cat in (C2CAT, twisted_cat()):
        for x in cat.objects():
            for y in cat.objects():
                for a in range(8):
                    basis = nat_space(cat, x, a, representable(a, y))
                    assert len(basis) == cat.rank(y, x, 0)


def test_nat_space_cross_block_zero():
    from taucat.category import direct_sum_cat

    both = direct_sum_cat([C2CAT, C2CAT])
    assert nat_space(both, 0, 1, representable(1, 4)) == []


def test_phi_round_trips():
    for cat in (C2CAT, twisted_cat(72)):
        for x in cat.objects():
            for y in cat.objects():
                for a in (0, 1, 3, 6):
                    F = representable(a, y)
                    for nt in nat_space(cat, x, a, F):
                        v = phi(cat, nt)
                        back = phi_inv(cat, x, a, F, v)
                        assert nat_equal(cat, F, nt, back)
                        assert phi(cat, back) == v


def test_phi_inv_zero_vector():
    F = representable(1, 1)
    width = sum(r for (_, _, r) in value_layout(C2CAT, F, 0, 1))
    nt = phi_inv(C2CAT, 0, 1, F, (0,) * width)
    assert nt.blocks == {}


def test_phi_of_identity_transformation():
    # the transformation built from id_X evaluates back to id_X coordinates
    x, a = 0, 1
    F = representable(a, x)
    v = identity_morphism(C2CAT, x).coords
    nt = phi_inv(C2CAT, x, a, F, v)
    assert phi(C2CAT, nt) == tuple(v)
    assert verify_graded_nat(C2CAT, nt)


def test_phi_natural_in_anchor_object():
    # a completion presentation supplies degree-1 morphisms between distinct
    # objects, which the skeletal categories lack
    comp = AdditiveCompletion(C2CAT)
    pres = comp.presentation_of([(0,), (0, 0), (1,), (2,)])
    gH = pres.tau.source
    for a in (0, 1, 5):
        for y in pres.objects():
            F = representable(a, y)
            for x in pres.objects():
                for x2 in pres.objects():
                    r = pres.rank(x, x2, gH.identity)
                    for k in range(r):
                        xm = basis_morphism(pres, x, x2, gH.identity, k)
                        for nt in nat_space(pres, x, a, F):
                            lhs = phi(pres, whisker_object_morphism(pres, nt, xm))
                            rhs = tuple(apply_rep_to_value(pres, F, xm, a,
                                                           phi(pres, nt)))
                            assert lhs == rhs


def test_verify_graded_nat_rejects_every_single_entry_change():
    # a basis transformation of nat_space with one block entry changed no
    # longer satisfies the naturality rows nat_space solved
    pres = AdditiveCompletion(C2CAT).presentation_of([(0,), (0, 0), (1,), (2,)])
    for x in pres.objects():
        for a in (0, 1):
            F = representable(a, 1)
            for nt in nat_space(pres, x, a, F):
                assert verify_graded_nat(pres, nt)
                for (y, h), blk in nt.blocks.items():
                    for r, c in product(range(len(blk)), range(len(blk[0]))):
                        changed = [list(row) for row in blk]
                        changed[r][c] = (changed[r][c] + 1) % 5
                        bad = GradedNatTrans(x, a, F, {**nt.blocks, (y, h): changed})
                        assert not verify_graded_nat(pres, bad)


def test_rep_sum_dimensions_add():
    x, a = 0, 1
    single = nat_space(C2CAT, x, a, representable(a, 1))
    double = nat_space(C2CAT, x, a, rep_sum((a, 1), (a, 1)))
    assert len(double) == 2 * len(single)
    for nt in double:
        v = phi(C2CAT, nt)
        back = phi_inv(C2CAT, x, a, rep_sum((a, 1), (a, 1)), v)
        assert nat_equal(C2CAT, nt.F, nt, back)


def test_shift_representability_cross_check():
    for x in C2CAT.objects():
        for y in C2CAT.objects():
            for a in range(8):
                direct = find_invertible(C2CAT, x, y, a) is not None
                via_nat = has_invertible_nat(C2CAT, y, 0, representable(a, x))
                assert direct == via_nat


def _reference_apply_rep(cat, F, g, y, h, vec):
    """F(g) on a vector of the (y, h) component, one compose per summand."""
    gH = cat.tau.source
    out, seg = [], 0
    for (b, z) in F.pairs:
        r = cat.rank(z, y, gH.mul(h, b))
        piece = Morphism(z, y, gH.mul(h, b), tuple(vec[seg:seg + r]))
        seg += r
        if r == 0:
            out.extend((0,) * cat.rank(z, g.dst, gH.mul(gH.mul(g.degree, h), b)))
        else:
            out.extend(compose(cat, piece, g).coords)
    return out


def _reference_nat_rows(cat, x, a, F, layout, nvars):
    """nat_space's rows from compose on basis morphisms and _reference_apply_rep."""
    gH = cat.tau.source
    p = cat.field.p
    pos = {(y, h): (sdim, tdim, off) for (y, h, sdim, tdim, off) in layout}
    for y in cat.objects():
        for (y2, k, rk) in cat.out_homs(y):
            for gi in range(rk):
                g = basis_morphism(cat, y, y2, k, gi)
                for h in gH.elements():
                    sdim = cat.rank(x, y, gH.mul(h, a))
                    if sdim == 0:
                        continue
                    kh = gH.mul(k, h)
                    tdim_src = _target_dim(cat, F, y, h)
                    moved = [_reference_apply_rep(cat, F, g, y, h,
                                                  [int(i == d) for i in range(tdim_src)])
                             for d in range(tdim_src)]
                    for fi in range(sdim):
                        f = basis_morphism(cat, x, y, gH.mul(h, a), fi)
                        gf = compose(cat, f, g).coords
                        for r_out in range(_target_dim(cat, F, y2, kh)):
                            row = [0] * nvars
                            if (y2, kh) in pos:
                                s2, _, off2 = pos[(y2, kh)]
                                for c in range(s2):
                                    row[off2 + r_out * s2 + c] = gf[c]
                            s1, t1, off1 = pos[(y, h)]
                            for d in range(t1):
                                idx = off1 + d * s1 + fi
                                row[idx] = (row[idx] - moved[d][r_out]) % p
                            yield row


def _reference_phi_inv(cat, x, a, F, v):
    """phi_inv with column f_i of each block F(f_i)(v), f_i a basis morphism."""
    gH = cat.tau.source
    blocks = {}
    for y in cat.objects():
        for h in gH.elements():
            sdim = cat.rank(x, y, gH.mul(h, a))
            if sdim == 0 or _target_dim(cat, F, y, h) == 0:
                continue
            mat = tuple(zip(*[_reference_apply_rep(
                cat, F, basis_morphism(cat, x, y, gH.mul(h, a), fi), x, gH.inv(a), v)
                for fi in range(sdim)]))
            if any(any(rw) for rw in mat):
                blocks[(y, h)] = mat
    return GradedNatTrans(x, a, F, blocks)


def _reference_nat_space(cat, x, a, F):
    """nat_space's basis from the squares of every basis morphism."""
    layout, nvars = _block_index(cat, x, a, F)
    rows = list(_reference_nat_rows(cat, x, a, F, layout, nvars))
    return [GradedNatTrans(x, a, F, _blocks(layout, vec))
            for vec in fplinalg.nullspace(rows, cat.field.p, ncols=nvars)]


YONEDA_CASES = {
    # End((0, 0)) has rank 4 and Hom((0,), (0, 0)) rank 2; the subcategory
    # lacks object 3, so degree-1 morphisms do not generate it
    "completion": lambda: AdditiveCompletion(C2CAT).presentation_of(
        [(0,), (0, 0), (1,), (2,)]),
    # End((0, 2)) has rank 2, over a skeleton with a nontrivial cocycle
    "twisted_completion": lambda: AdditiveCompletion(twisted_cat(73)).presentation_of(
        [(0,), (1,), (0, 2), (1, 3)]),
    "skeleton": twisted_cat,
    # a nonabelian H, generated by two elements
    "s3_skeleton": s3_cat,
}


@pytest.mark.parametrize("name", sorted(YONEDA_CASES))
def test_nat_rows_and_phi_inv_match_reference(name):
    """nat_space solves on the squares of nat_degrees alone; its basis is the
    one the squares of every basis morphism give, vector for vector."""
    pres = YONEDA_CASES[name]()
    assert max(pres.hom_rank.values()) == {"completion": 4, "twisted_completion": 2}.get(name, 1)
    assert len(pres.nat_degrees or ()) == {"completion": 0, "s3_skeleton": 3}.get(name, 2)
    rng = Random(name)
    p = pres.field.p
    for x in pres.objects():
        for a in (0, 1, pres.tau.source.order - 2):
            for F in [representable(a, y) for y in pres.objects()] + [rep_sum((a, 1), (0, 2))]:
                assert nat_space(pres, x, a, F) == _reference_nat_space(pres, x, a, F)
                width = sum(r for (_, _, r) in value_layout(pres, F, x, a))
                vectors = [tuple(int(i == k) for i in range(width)) for k in range(width)]
                vectors.append(tuple(rng.randrange(p) for _ in range(width)))
                for v in vectors:
                    assert phi_inv(pres, x, a, F, v) == _reference_phi_inv(pres, x, a, F, v)


def test_unproved_generators_take_the_full_path():
    F = representable(0, 0)
    cat = ungenerated_cat()
    assert verify_axioms(cat).ok and cat.nat_degrees is None
    assert len(nat_space(cat, 0, 0, F)) == 1
    assert nat_space(cat, 0, 0, F) == _reference_nat_space(cat, 0, 0, F)
    # solving on the generator u alone would leave the degree-2 block free
    forced = ungenerated_cat()
    forced.nat_degrees = frozenset({0, 1})
    assert len(nat_space(forced, 0, 0, F)) == 2
    # one structure constant changed: composition fails to verify, so even
    # with degree-1 morphisms spanning everything the proof is refused
    comp = dense_tensors(C2CAT)
    comp[(0, 1, 2, 1, 1)] = (((2,),),)
    bad = GradedCatPresentation(C2CAT.tau, F5, C2CAT.degrees, C2CAT.hom_rank, comp,
                                C2CAT.identities)
    assert not verify_axioms(bad).ok and bad.nat_degrees is None
    for a in (0, 1):
        for y in bad.objects():
            F = representable(a, y)
            assert nat_space(bad, 0, a, F) == _reference_nat_space(bad, 0, a, F)


def test_generation_proof_runs_once_per_presentation(monkeypatch, tmp_path):
    """One proof and one verdict per presentation serve verify_axioms, which
    checks associativity on the generating middle degrees, and nat_degrees."""
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(category, "verify_axioms", counted("verify", verify_axioms))
    prop = GradedCatPresentation.generating_degrees
    monkeypatch.setattr(prop, "func", counted("proof", prop.func))
    monkeypatch.setattr(cli, "nat_space", counted("nat_space", nat_space))
    cat = twisted_cat()
    ok, _ = cli._yoneda_audit(cat)
    assert ok
    assert calls == {"nat_space": 128, "verify": 1, "proof": 1}
    assert category.verify_axioms(cat).ok and cat.verdict.ok
    assert calls == {"nat_space": 128, "verify": 2, "proof": 1}
    # yoneda-check verifies the file's presentation once, and the audit reuses
    # that verdict and its proof
    calls.clear()
    path = tmp_path / "twisted.json"
    path.write_text(json.dumps(jsonio.category_to_json(twisted_cat())))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(["yoneda-check", str(path)]) == 0
    assert calls == {"nat_space": 128, "verify": 1, "proof": 1}


def test_has_invertible_nat_is_exact_or_undecided():
    # every block is 1 x 2, so no combination is invertible, whatever the cap
    assert has_invertible_nat(C2CAT, 0, 0, rep_sum((0, 0), (0, 0)), max_enum=1) is False
    # object 1 is (0, 0): an invertible combination exists, but no basis
    # vector alone is one, and one cap below 5^4 leaves the question open
    pres = YONEDA_CASES["completion"]()
    assert has_invertible_nat(pres, 1, 0, representable(0, 1)) is True
    with pytest.raises(CapExceeded):
        has_invertible_nat(pres, 1, 0, representable(0, 1), max_enum=1)
