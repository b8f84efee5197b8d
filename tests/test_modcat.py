import importlib
import json
import sys
from pathlib import Path
from random import Random

import pytest

from taucat import cli, jsonio, modcat

from taucat.category import (FunctorData, Morphism, NatTransData,
                             apply_functor, compose, compose_functors,
                             identity_functor, identity_morphism, invert,
                             verify_axioms, verify_functor, verify_nat)
from taucat.cochains import d1_cochain, random_cochain1
from taucat.fields import field
from taucat.groups import coset_space, cyclic_group, reduction_hom, subgroup
from taucat.mtau import (build_skeleton, cyclic_subgroup_of_order,
                         cyclic_table_category, mtau_spec, parity_tau,
                         trivial_spec)
from taucat.modcat import (ModuleCatData, bullet, bullet_functor, bullet_nat,
                           check_tau_module, compose_module_functors,
                           degree_one_part, extract_action,
                           identity_module_functor, restrict_functor,
                           roundtrip, roundtrip_nu, shift_table,
                           verify_module_category, verify_module_functor,
                           verify_module_nat)
from taucat.structure import classify_equivalences, identity_datum, realize_functor

F5 = field(5)
TAU = parity_tau()


def twisted_cat(seed=81, k=2, g=0):
    L = cyclic_subgroup_of_order(k)
    sp = coset_space(cyclic_group(8), L)
    psi = d1_cochain(random_cochain1(F5, sp, Random(seed)))
    return build_skeleton(mtau_spec(TAU, F5, L, psi, g))


def test_extract_action_cyclic_permutation():
    mod = extract_action(cyclic_table_category(F5, 2))
    assert mod.action[1].obj_map == (1, 2, 3, 0)
    assert mod.action[0].obj_map == (0, 1, 2, 3)
    assert verify_module_category(mod).ok
    assert check_tau_module(mod).ok


def test_extract_action_twisted_mu():
    cat = twisted_cat(82)
    mod = extract_action(cat)
    scalars = {c.coords[0] for nt in mod.mu.values() for c in nt.components}
    assert len(scalars) > 1  # the cocycle shows up in the multiplicators
    assert verify_module_category(mod).ok


def test_extract_action_trivial_group():
    tau1 = reduction_hom(1, 1)
    cat = build_skeleton(trivial_spec(tau1, F5, subgroup(cyclic_group(1), [0])))
    mod = extract_action(cat)
    assert all(c.coords == (1,) for c in mod.epsilon.components)


def test_epsilon_components_are_identities():
    mod = extract_action(twisted_cat(83))
    for x in mod.base.objects():
        assert mod.epsilon.component(x) == identity_morphism(mod.base, x)


def test_bullet_of_trivial_action():
    # trivial group: the rebuilt category is the base concentrated in degree 1
    tau1 = reduction_hom(1, 1)
    cat = build_skeleton(trivial_spec(tau1, F5, subgroup(cyclic_group(1), [0])))
    mod = extract_action(cat)
    b = bullet(mod)
    assert b.hom_rank == degree_one_part(cat).hom_rank
    assert verify_axioms(b).ok


def test_bullet_matches_original_ranks():
    for cat in (cyclic_table_category(F5, 2), twisted_cat(84)):
        b = bullet(extract_action(cat))
        assert verify_axioms(b).ok
        for x in cat.objects():
            for y in cat.objects():
                for h in range(8):
                    assert b.rank(x, y, h) == cat.rank(x, y, h)


def test_check_tau_module_perturbation_witness():
    # sending object 0 to an even-degree object under the degree-x action
    # breaks the parity law (swapping same-parity targets would not)
    cat = cyclic_table_category(F5, 2)
    mod = extract_action(cat)
    action = dict(mod.action)
    swapped = list(action[1].obj_map)
    swapped[0], swapped[1] = swapped[1], swapped[0]
    action[1] = FunctorData(mod.base, mod.base, swapped, action[1].hom_maps)
    verdict = check_tau_module(ModuleCatData(mod.base, action, mod.epsilon, mod.mu))
    assert not verdict.ok
    assert verdict.violations[0][0] == "degree-law"


def test_check_tau_module_trivial_target():
    tau1 = reduction_hom(8, 1)
    ident = subgroup(cyclic_group(8), [0])
    cat = build_skeleton(trivial_spec(tau1, F5, ident))
    assert check_tau_module(extract_action(cat)).ok


def test_roundtrip_eta_on_family():
    for cat in (cyclic_table_category(F5, 1), cyclic_table_category(F5, 2),
                cyclic_table_category(F5, 4), twisted_cat(85), twisted_cat(86, k=4)):
        rt = roundtrip(cat)
        assert verify_functor(rt.eta).ok and verify_functor(rt.eta_inv).ok
        assert compose_functors(rt.eta, rt.eta_inv) == identity_functor(rt.rebuilt)
        assert compose_functors(rt.eta_inv, rt.eta) == identity_functor(cat)


def test_roundtrip_eta_degree_one_is_plain():
    cat = twisted_cat(87)
    rt = roundtrip(cat)
    e = cat.tau.source.identity
    for (x, y, h), r in rt.rebuilt.hom_rank.items():
        if h != e:
            continue
        mat = rt.eta.matrix(x, y, h)
        # the identity-degree block is conjugation by r_{X,1} = id
        assert mat == tuple(tuple(1 if i == j else 0 for j in range(r))
                            for i in range(r))


def test_roundtrip_nu_on_family():
    for cat in (cyclic_table_category(F5, 2), twisted_cat(88)):
        rt = roundtrip(cat)
        assert verify_module_functor(rt.nu, rt.rebuilt_mod, rt.mod).ok
        assert verify_module_functor(rt.nu_inv, rt.mod, rt.rebuilt_mod).ok


def test_nu_natural_against_module_functors():
    # nu o (bullet(F))^1 = F o nu for a realised equivalence F
    spec = trivial_spec(TAU, F5, cyclic_subgroup_of_order(2), 0)
    data = classify_equivalences(spec, spec)
    F = realize_functor(spec, spec, data[1])
    mf, mod_c, mod_d = restrict_functor(F)
    b_c, b_d = bullet(mod_c), bullet(mod_d)
    nu_c, _, bmod_c = roundtrip_nu(mod_c, b_c)
    nu_d, _, bmod_d = roundtrip_nu(mod_d, b_d)
    bf = bullet_functor(mf, mod_c, mod_d)
    mf_b, bc, bd = restrict_functor(bf, src_shifts=shift_table(b_c),
                                    dst_shifts=shift_table(b_d))
    left = compose_module_functors(mf_b, nu_d, bc, bd, mod_d)
    right = compose_module_functors(nu_c, mf, bc, mod_c, mod_d)
    assert left.functor == right.functor


def test_restrict_functor_two_functoriality():
    # identity restricts to the identity; composites restrict to composites
    cat = twisted_cat(89)
    mf_id, mod_c, _ = restrict_functor(identity_functor(cat))
    assert mf_id == identity_module_functor(mod_c)

    spec = trivial_spec(TAU, F5, cyclic_subgroup_of_order(2), 0)
    data = classify_equivalences(spec, spec)
    F = realize_functor(spec, spec, data[1])
    G = realize_functor(spec, spec, data[2])
    table = shift_table(build_skeleton(spec))
    mf_f, mc, md = restrict_functor(F, table, table)
    mf_g, _, me = restrict_functor(G, table, table)
    mf_fg, _, _ = restrict_functor(compose_functors(F, G), table, table)
    composed = compose_module_functors(mf_f, mf_g, mc, md, me)
    assert mf_fg == composed


def test_bullet_functor_identity_and_composite():
    cat = cyclic_table_category(F5, 2)
    mod = extract_action(cat)
    mf_id = identity_module_functor(mod)
    bf = bullet_functor(mf_id, mod, mod)
    assert bf == identity_functor(bullet(mod))

    spec = trivial_spec(TAU, F5, cyclic_subgroup_of_order(2), 0)
    skel = build_skeleton(spec)
    table = shift_table(skel)
    data = classify_equivalences(spec, spec)
    F = realize_functor(spec, spec, data[1])
    G = realize_functor(spec, spec, data[2])
    mf_f, mc, md = restrict_functor(F, table, table)
    mf_g, _, me = restrict_functor(G, table, table)
    lhs = bullet_functor(compose_module_functors(mf_f, mf_g, mc, md, me), mc, me)
    rhs = compose_functors(bullet_functor(mf_f, mc, md),
                           bullet_functor(mf_g, md, me))
    assert lhs == rhs


def test_bullet_nat_identity():
    cat = cyclic_table_category(F5, 2)
    mod = extract_action(cat)
    mf = identity_module_functor(mod)
    ident = NatTransData(mf.functor, mf.functor,
                         [identity_morphism(mod.base, x)
                          for x in mod.base.objects()])
    assert verify_module_nat(ident, mf, mf, mod, mod).ok
    out = bullet_nat(ident, mf, mf, mod, mod)
    assert verify_nat(out).ok
    b = bullet(mod)
    for x in b.objects():
        assert out.component(x) == identity_morphism(b, x)


def test_bullet_nat_planted():
    from taucat.cochains import c1_inv, c1_mul, d0_cochain, random_cochain0
    from taucat.structure import EquivalenceDatum, classify_nat_isos

    spec = trivial_spec(TAU, F5, cyclic_subgroup_of_order(2), 0)
    skel = build_skeleton(spec)
    table = shift_table(skel)
    data = classify_equivalences(spec, spec)
    base = data[0]
    eta0 = random_cochain0(F5, spec.psi.space, Random(91))
    other = EquivalenceDatum(base.t,
                             c1_mul(base.gamma, c1_inv(d0_cochain(eta0))))
    etas = classify_nat_isos(spec, spec, base, other)
    assert eta0 in etas
    mf_f, mc, md = restrict_functor(realize_functor(spec, spec, base),
                                    table, table)
    mf_g, _, _ = restrict_functor(realize_functor(spec, spec, other),
                                  table, table)
    comps = [Morphism(mf_f.functor.obj_map[x], mf_g.functor.obj_map[x], 0,
                      (eta0.values[x],)) for x in mc.base.objects()]
    nt = NatTransData(mf_f.functor, mf_g.functor, comps)
    assert verify_module_nat(nt, mf_f, mf_g, mc, md).ok
    out = bullet_nat(nt, mf_f, mf_g, mc, md)
    assert verify_nat(out).ok


def test_module_square_failure_detected():
    spec = trivial_spec(TAU, F5, cyclic_subgroup_of_order(2), 0)
    skel = build_skeleton(spec)
    table = shift_table(skel)
    mf, mc, md = restrict_functor(identity_functor(skel), table, table)
    comps = [identity_morphism(mc.base, x) for x in mc.base.objects()]
    comps[1] = Morphism(1, 1, 0, (2,))
    nt = NatTransData(mf.functor, mf.functor, comps)
    verdict = verify_module_nat(nt, mf, mf, mc, md)
    assert not verdict.ok


def test_degree_one_part_shapes():
    cat = twisted_cat(90)
    base = degree_one_part(cat)
    assert base.n_objects == cat.n_objects
    assert all(h == 0 for (_, _, h) in base.hom_rank)
    assert verify_axioms(base).ok


def test_roundtrip_command_builds_each_object_once(tmp_path, monkeypatch):
    # one rebuild shared by both round trips; one action extracted from the
    # input and one from the rebuilt category
    path = tmp_path / "cat.json"
    path.write_text(json.dumps(jsonio.category_to_json(twisted_cat(92))))
    calls = {"bullet": 0, "extract_action": 0}
    for name in calls:
        def counted(*args, _name=name, _real=getattr(modcat, name), **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(modcat, name, counted)
    assert cli.main(["roundtrip", str(path)]) == 0
    assert calls == {"bullet": 1, "extract_action": 2}


def _count_in_taucat(monkeypatch, fn):
    """Count calls of fn through every taucat module that binds it."""
    calls = []
    for name, module in list(sys.modules.items()):
        if name.startswith("taucat") and getattr(module, fn.__name__, None) is fn:
            monkeypatch.setattr(module, fn.__name__,
                                lambda *args: calls.append(args) or fn(*args))
    return calls


def test_roundtrip_command_checks_the_degree_law_once(tmp_path, monkeypatch):
    # bullet checks the degree law; the report does not check it again
    path = tmp_path / "cat.json"
    path.write_text(json.dumps(jsonio.category_to_json(twisted_cat(94))))
    calls = _count_in_taucat(monkeypatch, check_tau_module)
    assert cli.main(["roundtrip", str(path)]) == 0
    assert len(calls) == 1


def test_roundtrip_inverts_each_shift_iso_once(tmp_path, monkeypatch):
    # the shift table carries each iso's inverse to extract_action and
    # roundtrip_eta, which would otherwise invert all 4 x 8 isos once more;
    # the 4 x 7 isos that find_shift scans for come with their inverses
    cat = twisted_cat(93)
    path = tmp_path / "cat.json"
    path.write_text(json.dumps(jsonio.category_to_json(cat)))
    calls = _count_in_taucat(monkeypatch, invert)
    assert cli.main(["roundtrip", str(path)]) == 0
    n, order = cat.n_objects, cat.tau.source.order
    assert len(calls) == 972 - n * order - n * (order - 1)


def test_traced_layer_functions_resolve():
    # the traced benchmark wraps every function in bench/layers.json by name
    layers = json.loads((Path(__file__).resolve().parents[1] / "bench" /
                         "layers.json").read_text())
    missing = []
    for module, spec in layers.items():
        obj = importlib.import_module(f"taucat.{module}")
        for name in spec["functions"]:
            target = obj
            for part in name.split("."):
                target = getattr(target, part, None)
            if not callable(target):
                missing.append(f"{module}.{name}")
    assert missing == []
