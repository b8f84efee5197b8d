import importlib
import json
import sys
from functools import lru_cache
from pathlib import Path
from random import Random

import pytest

from taucat import cli, jsonio, modcat

from taucat.category import (FunctorData, GradedCatPresentation, Morphism,
                             NatTransData, Verdict, apply_functor,
                             basis_morphism, compose, compose_functors,
                             identity_functor, identity_morphism, invert,
                             verify_axioms, verify_functor, verify_nat)
from taucat.completion import AdditiveCompletion
from taucat.cochains import d1_cochain, random_cochain1
from taucat.fields import field
from taucat.groups import coset_space, cyclic_group, reduction_hom, subgroup
from taucat.mtau import (build_skeleton, cyclic_subgroup_of_order,
                         cyclic_table_category, mtau_spec, parity_tau,
                         trivial_spec)
from taucat.modcat import (ModuleCatData, ModuleFunctorData, bullet,
                           bullet_functor, bullet_nat,
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
    # the 4 x 7 isos that find_shift scans for come with their inverses.
    # The extracted action keeps the epsilon and mu inverses its check
    # computed, so bullet (4 + 4 x 64 components) and roundtrip_nu
    # (4 epsilon components) invert none of them again
    cat = twisted_cat(93)
    path = tmp_path / "cat.json"
    path.write_text(json.dumps(jsonio.category_to_json(cat)))
    calls = _count_in_taucat(monkeypatch, invert)
    assert cli.main(["roundtrip", str(path)]) == 0
    n, order = cat.n_objects, cat.tau.source.order
    reused = n + n * order ** 2 + n
    assert len(calls) == 972 - n * order - n * (order - 1) - reused == 648


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


def _reference_verify_module_category(mod):
    """verify_module_category as compose and apply_functor on Morphisms."""
    violations = []
    base = mod.base
    gH = mod.group
    e = gH.identity
    v = verify_nat(mod.epsilon)
    if not v.ok:
        violations.append(("epsilon-naturality", v.violations[0]))
    for x in base.objects():
        if invert(base, mod.epsilon.component(x)) is None:
            violations.append(("epsilon-not-invertible", x))
    for (a, b), nt in sorted(mod.mu.items()):
        v = verify_nat(nt)
        if not v.ok:
            violations.append(("mu-naturality", a, b, v.violations[0]))
        for x in base.objects():
            if invert(base, nt.component(x)) is None:
                violations.append(("mu-not-invertible", a, b, x))
    if violations:
        return Verdict(violations)
    for h in gH.elements():
        ah = mod.action[h]
        for x in base.objects():
            hx = ah.obj_map[x]
            lhs = compose(base, mod.epsilon.component(hx), mod.mu[(e, h)].component(x))
            if lhs != identity_morphism(base, hx):
                violations.append(("unit-left", h, x))
            rhs = compose(base, apply_functor(ah, mod.epsilon.component(x)),
                          mod.mu[(h, e)].component(x))
            if rhs != identity_morphism(base, hx):
                violations.append(("unit-right", h, x))
    for a in gH.elements():
        for b in gH.elements():
            for c in gH.elements():
                for x in base.objects():
                    cx = mod.action[c].obj_map[x]
                    lhs = compose(base, mod.mu[(a, b)].component(cx),
                                  mod.mu[(gH.mul(a, b), c)].component(x))
                    rhs = compose(base, apply_functor(mod.action[a],
                                                      mod.mu[(b, c)].component(x)),
                                  mod.mu[(a, gH.mul(b, c))].component(x))
                    if lhs != rhs:
                        violations.append(("assoc", a, b, c, x))
    return Verdict(violations)


def _reference_verify_module_functor(mf, src, dst):
    """verify_module_functor as compose and apply_functor on Morphisms."""
    violations = []
    F = mf.functor
    gH = src.group
    e = gH.identity
    v = verify_functor(F)
    if not v.ok:
        violations.append(("functor", v.violations[0]))
    base_d = dst.base
    for h in gH.elements():
        nt = mf.comparison[h]
        if (nt.source != compose_functors(F, dst.action[h])
                or nt.target != compose_functors(src.action[h], F)):
            violations.append(("comparison-endpoints", h))
            continue
        v = verify_nat(nt)
        if not v.ok:
            violations.append(("comparison-naturality", h, v.violations[0]))
        for x in src.base.objects():
            if invert(base_d, nt.component(x)) is None:
                violations.append(("comparison-not-invertible", h, x))
    if violations:
        return Verdict(violations)
    for x in src.base.objects():
        lhs = compose(base_d, dst.epsilon.component(F.obj_map[x]),
                      mf.comparison[e].component(x))
        if lhs != apply_functor(F, src.epsilon.component(x)):
            violations.append(("unit-triangle", x))
    for a in gH.elements():
        for b in gH.elements():
            ab = gH.mul(a, b)
            for x in src.base.objects():
                bx = src.action[b].obj_map[x]
                lhs = compose(base_d, dst.mu[(a, b)].component(F.obj_map[x]),
                              mf.comparison[ab].component(x))
                step = apply_functor(dst.action[a], mf.comparison[b].component(x))
                step = compose(base_d, step, mf.comparison[a].component(bx))
                rhs = compose(base_d, step,
                              apply_functor(F, src.mu[(a, b)].component(x)))
                if lhs != rhs:
                    violations.append(("hexagon", a, b, x))
    return Verdict(violations)


def _trivial_c2_action():
    """C2 acting trivially on a base with a rank-2 endomorphism space.

    The base is the degree-1 part of the completion of a C2 -> C1 skeleton
    on the objects (0,) and (0, 1); End((0, 1)) has rank 2.
    """
    tau = reduction_hom(2, 1)
    skel = build_skeleton(trivial_spec(tau, F5, subgroup(cyclic_group(2), [0])))
    base = degree_one_part(AdditiveCompletion(skel).presentation_of([(0,), (0, 1)]))
    ident = identity_functor(base)
    comps = [identity_morphism(base, x) for x in base.objects()]
    action = {h: ident for h in (0, 1)}
    mu = {(a, b): NatTransData(compose_functors(ident, ident), ident, comps)
          for a in (0, 1) for b in (0, 1)}
    return ModuleCatData(base, action, NatTransData(ident, ident, comps), mu)


@lru_cache(maxsize=None)
def _shift_closed_completion():
    """Shift-closed objects of an additive completion: End((0, 0)) has rank 4."""
    comp = AdditiveCompletion(twisted_cat(95, k=4))
    return comp.presentation_of([(0,), (1,), (0, 0), (1, 1)])


@lru_cache(maxsize=None)
def _roundtrip_of(name):
    return roundtrip({"skeleton": lambda: twisted_cat(96),
                      "completion": _shift_closed_completion}[name]())


MODULE_CASES = {
    "skeleton": lambda: _roundtrip_of("skeleton").mod,
    "table": lambda: extract_action(cyclic_table_category(F5, 2)),
    "rebuilt": lambda: _roundtrip_of("skeleton").rebuilt_mod,
    "completion": lambda: _roundtrip_of("completion").mod,
    # rank 1 everywhere, but with isomorphic distinct objects, so the laws
    # compose across objects and a deleted tensor can reach them
    "duplicated": lambda: extract_action(AdditiveCompletion(twisted_cat(95, k=4))
                                         .presentation_of([(0,), (1,), (0,), (1,)])),
    "trivial_rank2": _trivial_c2_action,
}


def _corrupt_component(nt, rng, kind):
    """nt with one coordinate of one component changed, or one component
    scaled by a unit other than 1, or zeroed."""
    p = nt.source.target.field.p
    comps = list(nt.components)
    x = rng.randrange(len(comps))
    c = comps[x]
    coords = list(c.coords)
    if kind == "coordinate":
        i = rng.randrange(len(coords))
        coords[i] = (coords[i] + rng.randrange(1, p)) % p
    else:
        s = 0 if kind == "zero" else rng.randrange(2, p)
        coords = [s * v % p for v in coords]
    comps[x] = Morphism(c.src, c.dst, c.degree, tuple(coords))
    return NatTransData(nt.source, nt.target, comps)


CORRUPTIONS = ("coordinate", "scale", "zero", "matrix")


def _corrupt_module(mod, kind, rng):
    """One coordinate or one whole component of epsilon or a mu, one entry
    of an action hom matrix, or one composition tensor of the base
    (deleted, so that some composites read a missing tensor), changed.

    A deleted tensor composes into a different object where there is one:
    the inverses of the components only read tensors X -> Y -> X."""
    eps, mu, action = mod.epsilon, dict(mod.mu), dict(mod.action)
    if kind == "tensor":
        b = mod.base
        comp = dict(b.compose_t)
        del comp[rng.choice(sorted(k for k in comp if k[0] != k[2]) or sorted(comp))]
        base = GradedCatPresentation(b.tau, b.field, b.degrees, b.hom_rank, comp,
                                     b.identities)
        return ModuleCatData(base, action, eps, mu)
    if kind == "matrix":
        h = rng.choice(sorted(action))
        F = action[h]
        maps = dict(F.hom_maps)
        key = rng.choice(sorted(k for k, m in maps.items() if m and m[0]))
        mat = [list(row) for row in maps[key]]
        i, j = rng.randrange(len(mat)), rng.randrange(len(mat[0]))
        mat[i][j] = (mat[i][j] + rng.randrange(1, 5)) % 5
        maps[key] = mat
        action[h] = FunctorData(F.source, F.target, F.obj_map, maps)
    elif rng.randrange(3) == 0:
        eps = _corrupt_component(eps, rng, kind)
    else:
        ab = rng.choice(sorted(mu))
        mu[ab] = _corrupt_component(mu[ab], rng, kind)
    return ModuleCatData(mod.base, action, eps, mu)


@pytest.mark.parametrize("name", sorted(MODULE_CASES))
def test_verify_module_category_matches_reference(name):
    # the contraction reports the same violations, in the same order, as
    # composing Morphism objects law by law
    mod = MODULE_CASES[name]()
    assert verify_module_category(mod).ok and _reference_verify_module_category(mod).ok
    rng = Random(name)
    for kind in CORRUPTIONS + ("tensor",):
        for _ in range(2):
            bad = _corrupt_module(mod, kind, rng)
            want = _reference_verify_module_category(bad).violations
            assert verify_module_category(bad).violations == want


def test_verify_module_category_reference_cases_reach_every_kind():
    kinds = set()
    for name, build in MODULE_CASES.items():
        mod = build()
        rng = Random(name)
        for kind in CORRUPTIONS + ("tensor",):
            for _ in range(2):
                bad = _corrupt_module(mod, kind, rng)
                kinds.update(v[0] for v in verify_module_category(bad).violations)
    assert kinds == {"epsilon-naturality", "epsilon-not-invertible", "mu-naturality",
                     "mu-not-invertible", "unit-left", "unit-right", "assoc"}


def _restricted_equivalence():
    spec = trivial_spec(TAU, F5, cyclic_subgroup_of_order(2), 0)
    table = shift_table(build_skeleton(spec))
    F = realize_functor(spec, spec, classify_equivalences(spec, spec)[1])
    return restrict_functor(F, table, table)


MODULE_FUNCTOR_CASES = {
    "nu": lambda: (_roundtrip_of("skeleton").nu, _roundtrip_of("skeleton").rebuilt_mod,
                   _roundtrip_of("skeleton").mod),
    "nu_inv_completion": lambda: (_roundtrip_of("completion").nu_inv,
                                  _roundtrip_of("completion").mod,
                                  _roundtrip_of("completion").rebuilt_mod),
    "restricted": _restricted_equivalence,
    "trivial_rank2": lambda: (identity_module_functor(_trivial_c2_action()),
                              _trivial_c2_action(), _trivial_c2_action()),
}


def _corrupt_module_functor(mf, kind, rng):
    """One coordinate or one whole comparison component, or one entry of a
    hom matrix of the underlying functor, changed."""
    if kind == "matrix":
        F = mf.functor
        maps = dict(F.hom_maps)
        key = rng.choice(sorted(k for k, m in maps.items() if m and m[0]))
        mat = [list(row) for row in maps[key]]
        i, j = rng.randrange(len(mat)), rng.randrange(len(mat[0]))
        mat[i][j] = (mat[i][j] + rng.randrange(1, 5)) % 5
        maps[key] = mat
        return ModuleFunctorData(FunctorData(F.source, F.target, F.obj_map, maps),
                                 mf.comparison)
    comparison = dict(mf.comparison)
    h = rng.choice(sorted(comparison))
    comparison[h] = _corrupt_component(comparison[h], rng, kind)
    return ModuleFunctorData(mf.functor, comparison)


@pytest.mark.parametrize("name", sorted(MODULE_FUNCTOR_CASES))
def test_verify_module_functor_matches_reference(name):
    mf, src, dst = MODULE_FUNCTOR_CASES[name]()
    assert verify_module_functor(mf, src, dst).ok
    assert _reference_verify_module_functor(mf, src, dst).ok
    rng = Random(name)
    for kind in CORRUPTIONS:
        for _ in range(2):
            bad = _corrupt_module_functor(mf, kind, rng)
            want = _reference_verify_module_functor(bad, src, dst).violations
            assert verify_module_functor(bad, src, dst).violations == want


def test_verify_module_functor_reference_cases_reach_every_kind():
    kinds = set()
    for name, build in MODULE_FUNCTOR_CASES.items():
        mf, src, dst = build()
        rng = Random(name)
        for kind in CORRUPTIONS:
            for _ in range(2):
                bad = _corrupt_module_functor(mf, kind, rng)
                kinds.update(v[0] for v in verify_module_functor(bad, src, dst).violations)
    assert kinds == {"functor", "comparison-endpoints", "comparison-naturality",
                     "comparison-not-invertible", "unit-triangle", "hexagon"}


def test_verifiers_build_no_morphisms(monkeypatch):
    # the verifiers and invert read every law off tensors, hom matrices and
    # component coordinates; the round trip still composes Morphisms elsewhere
    tau = reduction_hom(12, 2)
    L = subgroup(tau.source, [0, 6])
    psi = d1_cochain(random_cochain1(F5, coset_space(tau.source, L), Random(97)))
    cat = build_skeleton(mtau_spec(tau, F5, L, psi, 1))
    made = {fn.__name__: _count_in_taucat(monkeypatch, fn)
            for fn in (compose, apply_functor, basis_morphism)}

    def total():
        return sum(len(calls) for calls in made.values())

    inside = {}
    for fn in (verify_module_category, verify_functor, verify_nat, invert):
        def counted(*args, _fn=fn, **kwargs):
            before = total()
            out = _fn(*args, **kwargs)
            inside[_fn.__name__] = inside.get(_fn.__name__, 0) + total() - before
            return out
        for name, module in list(sys.modules.items()):
            if name.startswith("taucat") and getattr(module, fn.__name__, None) is fn:
                monkeypatch.setattr(module, fn.__name__, counted)
    roundtrip(cat)
    assert set(inside) == {"verify_module_category", "verify_functor", "verify_nat",
                           "invert"}
    assert inside == dict.fromkeys(inside, 0)
    assert len(made["compose"]) > 0
