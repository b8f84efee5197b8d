import importlib
import json
import re
import sys
from functools import lru_cache
from itertools import product
from pathlib import Path
from random import Random

import pytest

from taucat import cli, jsonio, modcat

from taucat.category import (FunctorData, GradedCatPresentation, Morphism,
                             NatTransData, Verdict, compose, compose_functors,
                             identity_functor, identity_morphism, invert,
                             verify_axioms, verify_functor, verify_nat)
from taucat.completion import AdditiveCompletion
from taucat.cochains import d1_cochain, random_cochain1
from taucat.fields import field
from taucat.groups import (cayley_tree, coset_space, cyclic_group, reduction_hom,
                           subgroup)
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

from morphisms import apply_functor, basis_morphism, dense_tensors
from test_yoneda import s3_cat

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
    scalars = {c.coords[0] for comps in mod.mu.values() for c in comps}
    assert len(scalars) > 1  # the cocycle shows up in the multiplicators
    assert verify_module_category(mod).ok


def test_extract_action_trivial_group():
    tau1 = reduction_hom(1, 1)
    cat = build_skeleton(trivial_spec(tau1, F5, subgroup(cyclic_group(1), [0])))
    mod = extract_action(cat)
    assert all(c.coords == (1,) for c in mod.epsilon)


def test_epsilon_components_are_identities():
    mod = extract_action(twisted_cat(83))
    for x in mod.base.objects():
        assert mod.epsilon[x] == identity_morphism(mod.base, x)


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
                      (eta0.units()[x],)) for x in mc.base.objects()]
    nt = NatTransData(mf_f.functor, mf_g.functor, comps)
    assert verify_module_nat(nt, mf_f, mf_g, mc, md).ok
    out = bullet_nat(nt, mf_f, mf_g, mc, md)
    assert verify_nat(out).ok


def test_bullet_nat_rebuilds_each_category_once(monkeypatch):
    # both bullet functors of one bullet_nat share the rebuilt source and
    # target categories: one bullet each, not one per functor
    spec = trivial_spec(TAU, F5, cyclic_subgroup_of_order(2), 0)
    skel = build_skeleton(spec)
    table = shift_table(skel)
    mf, mc, md = restrict_functor(identity_functor(skel), table, table)
    assert mc is not md
    nt = NatTransData(mf.functor, mf.functor,
                      [identity_morphism(mc.base, x) for x in mc.base.objects()])
    calls = []
    real = modcat.bullet
    monkeypatch.setattr(modcat, "bullet", lambda mod: calls.append(mod) or real(mod))
    out = bullet_nat(nt, mf, mf, mc, md)
    assert verify_nat(out).ok
    assert len(calls) == 2  # four before the rebuild was kept on the module
    assert calls[0] is mc and calls[1] is md
    assert out.source.source is mc.rebuilt and out.source.target is md.rebuilt


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
    # The extracted action keeps its epsilon and mu inverses, so bullet
    # (4 + 4 x 64 components) and roundtrip_nu (4 epsilon components)
    # invert none of them again.  roundtrip_nu verifies nu but not its
    # strict inverse, whose 4 x 8 comparisons would be inverted by a
    # module-functor check.  Both extracted actions, of the lawful input and
    # of its lawful rebuild, compose those inverses from their shift tables
    # instead of inverting them: 2 x (4 + 4 x 64) = 520 fewer.  Both shift
    # tables pair the identity at the unit degree with itself, as find_shift
    # does, instead of inverting it: 2 x 4 = 8 fewer.  roundtrip_nu builds
    # the inverse epsilon^-1 o mu of each identity shift of the rebuild off
    # the unit instead of inverting it: 4 x 7 = 28 fewer.  nu's 4 x 8
    # comparisons are identities of the base, each its own inverse, and
    # verify_module_functor inverts no identity: 32 fewer.  What is left is
    # 4 x 8 - 4 = 28: the 4 x 7 scans of the input
    cat = twisted_cat(93)
    path = tmp_path / "cat.json"
    path.write_text(json.dumps(jsonio.category_to_json(cat)))
    calls = _count_in_taucat(monkeypatch, invert)
    assert cli.main(["roundtrip", str(path)]) == 0
    n, order = cat.n_objects, cat.tau.source.order
    reused = n + n * order ** 2 + n
    composed = 2 * (n + n * order ** 2)
    identities = 2 * n
    rebuilt_shifts = n * (order - 1)
    nu_comparisons = n * order
    assert (len(calls) == 972 - n * order - n * (order - 1) - reused - n * order - composed
            - identities - rebuilt_shifts - nu_comparisons == n * order - n == 28)


def test_identity_comparisons_are_not_inverted(monkeypatch):
    # every comparison of nu is an identity of the base, its own inverse, so
    # checking nu inverts nothing; a comparison changed to a non-identity
    # that has no inverse is still reported, as the reference reports it
    cat = twisted_cat(93)
    rt = roundtrip(cat)
    nu, src, dst = rt.nu, rt.rebuilt_mod, rt.mod
    calls = _count_in_taucat(monkeypatch, invert)
    assert verify_module_functor(nu, src, dst).ok
    assert calls == []
    h, x = 3, 1
    c = nu.comparison[h][x]
    zero = Morphism(c.src, c.dst, c.degree, (0,) * len(c.coords))
    bad = ModuleFunctorData(nu.functor, {**nu.comparison, h: tuple(
        zero if i == x else comp for i, comp in enumerate(nu.comparison[h]))})
    got = verify_module_functor(bad, src, dst).violations
    assert ("comparison-not-invertible", h, x) in got
    assert got == _reference_verify_module_functor(bad, src, dst).violations
    assert len(calls) == 1


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
    """verify_module_category as compose and apply_functor on Morphisms, with
    the endpoints of epsilon and mu built as functors from the current action."""
    violations = []
    base = mod.base
    gH = mod.group
    e = gH.identity
    v = verify_nat(NatTransData(identity_functor(base), mod.action[e], mod.epsilon))
    if not v.ok:
        violations.append(("epsilon-naturality", v.violations[0]))
    for x in base.objects():
        if invert(base, mod.epsilon[x]) is None:
            violations.append(("epsilon-not-invertible", x))
    for (a, b), comps in sorted(mod.mu.items()):
        v = verify_nat(NatTransData(compose_functors(mod.action[b], mod.action[a]),
                                    mod.action[gH.mul(a, b)], comps))
        if not v.ok:
            violations.append(("mu-naturality", a, b, v.violations[0]))
        for x in base.objects():
            if invert(base, comps[x]) is None:
                violations.append(("mu-not-invertible", a, b, x))
    if violations:
        return Verdict(violations)
    for h in gH.elements():
        ah = mod.action[h]
        for x in base.objects():
            hx = ah.obj_map[x]
            lhs = compose(base, mod.epsilon[hx], mod.mu[(e, h)][x])
            if lhs != identity_morphism(base, hx):
                violations.append(("unit-left", h, x))
            rhs = compose(base, apply_functor(ah, mod.epsilon[x]), mod.mu[(h, e)][x])
            if rhs != identity_morphism(base, hx):
                violations.append(("unit-right", h, x))
    for a in gH.elements():
        for b in gH.elements():
            for c in gH.elements():
                for x in base.objects():
                    cx = mod.action[c].obj_map[x]
                    lhs = compose(base, mod.mu[(a, b)][cx], mod.mu[(gH.mul(a, b), c)][x])
                    rhs = compose(base, apply_functor(mod.action[a], mod.mu[(b, c)][x]),
                                  mod.mu[(a, gH.mul(b, c))][x])
                    if lhs != rhs:
                        violations.append(("assoc", a, b, c, x))
    return Verdict(violations)


def _reference_verify_module_functor(mf, src, dst):
    """verify_module_functor as compose and apply_functor on Morphisms, with
    the endpoints of each comparison built as functors from the current data."""
    violations = []
    F = mf.functor
    gH = src.group
    e = gH.identity
    v = verify_functor(F)
    if not v.ok:
        violations.append(("functor", v.violations[0]))
    base_d = dst.base
    for h in gH.elements():
        comps = mf.comparison[h]
        v = verify_nat(NatTransData(compose_functors(F, dst.action[h]),
                                    compose_functors(src.action[h], F), comps))
        if not v.ok:
            violations.append(("comparison-naturality", h, v.violations[0]))
        for x in src.base.objects():
            if invert(base_d, comps[x]) is None:
                violations.append(("comparison-not-invertible", h, x))
    if violations:
        return Verdict(violations)
    for x in src.base.objects():
        lhs = compose(base_d, dst.epsilon[F.obj_map[x]], mf.comparison[e][x])
        if lhs != apply_functor(F, src.epsilon[x]):
            violations.append(("unit-triangle", x))
    for a in gH.elements():
        for b in gH.elements():
            ab = gH.mul(a, b)
            for x in src.base.objects():
                bx = src.action[b].obj_map[x]
                lhs = compose(base_d, dst.mu[(a, b)][F.obj_map[x]], mf.comparison[ab][x])
                step = apply_functor(dst.action[a], mf.comparison[b][x])
                step = compose(base_d, step, mf.comparison[a][bx])
                rhs = compose(base_d, step, apply_functor(F, src.mu[(a, b)][x]))
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
    comps = tuple(identity_morphism(base, x) for x in base.objects())
    action = {h: identity_functor(base) for h in (0, 1)}
    mu = {(a, b): comps for a in (0, 1) for b in (0, 1)}
    return ModuleCatData(base, action, comps, mu)


@lru_cache(maxsize=None)
def _shift_closed_completion():
    """Shift-closed objects of an additive completion: End((0, 0)) has rank 4."""
    comp = AdditiveCompletion(twisted_cat(95, k=4))
    return comp.presentation_of([(0,), (1,), (0, 0), (1, 1)])


def _rank2_completion():
    """Shift-closed objects of an additive completion: End((0, 2)) has rank 2."""
    comp = AdditiveCompletion(twisted_cat(98, k=2))
    return comp.presentation_of([(0,), (1,), (2,), (3,), (0, 2), (1, 3)])


ROUNDTRIP_SOURCES = {"skeleton": lambda: twisted_cat(96),
                     "rank2_completion": _rank2_completion,
                     "completion": _shift_closed_completion}


def _lawful(cat):
    """cat once its verdict has passed, as the CLI has it before it extracts
    or round-trips: the square and functor scans shorten only then."""
    assert cat.verdict.ok
    return cat


@lru_cache(maxsize=None)
def _roundtrip_of(name):
    return roundtrip(_lawful(ROUNDTRIP_SOURCES[name]()))


MODULE_CASES = {
    "skeleton": lambda: _roundtrip_of("skeleton").mod,
    "table": lambda: extract_action(_lawful(cyclic_table_category(F5, 2))),
    "rebuilt": lambda: _roundtrip_of("skeleton").rebuilt_mod,
    "completion": lambda: _roundtrip_of("completion").mod,
    # rank 1 everywhere, but with isomorphic distinct objects, so the laws
    # compose across objects and a deleted tensor can reach them
    "duplicated": lambda: extract_action(_lawful(AdditiveCompletion(twisted_cat(95, k=4))
                                                 .presentation_of([(0,), (1,), (0,), (1,)]))),
    "trivial_rank2": _trivial_c2_action,
    # nonabelian H: S3 over the sign map, with a two-element generating set
    "s3": lambda: extract_action(_lawful(s3_cat())),
}


def _corrupt_component(comps, rng, kind):
    """comps with one coordinate of one component changed, or one component
    scaled by a unit other than 1, or zeroed."""
    p = F5.p
    comps = list(comps)
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
    return tuple(comps)


CORRUPTIONS = ("coordinate", "scale", "zero", "matrix")


def _corrupt_module(mod, kind, rng):
    """One coordinate or one whole component of epsilon or a mu, one entry
    of an action hom matrix, or one composition tensor of the base
    (deleted, so that some composites read a missing tensor, with the
    action moved onto the changed base), changed.

    A deleted tensor composes into a different object where there is one:
    the inverses of the components only read tensors X -> Y -> X."""
    eps, mu, action = mod.epsilon, dict(mod.mu), dict(mod.action)
    if kind == "tensor":
        b = mod.base
        comp = dense_tensors(b)
        del comp[rng.choice(sorted(k for k in comp if k[0] != k[2]) or sorted(comp))]
        base = GradedCatPresentation(b.tau, b.field, b.degrees, b.hom_rank, comp,
                                     b.identities)
        action = {h: FunctorData(base, base, F.obj_map, F.hom_maps)
                  for h, F in action.items()}
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


def _rescale_mu(mod, middles, rng):
    """mod with every component of one mu[(a, b)], a not the unit and b
    outside middles, multiplied by one unit other than 1.  The result is
    still natural and invertible, and satisfies both unit triangles."""
    e = mod.group.identity
    p = mod.base.field.p
    ab = rng.choice(sorted((a, b) for (a, b) in mod.mu if a != e and b not in middles))
    s = rng.randrange(2, p)
    comps = tuple(Morphism(c.src, c.dst, c.degree, tuple(s * v % p for v in c.coords))
                  for c in mod.mu[ab])
    return ModuleCatData(mod.base, mod.action, mod.epsilon, {**mod.mu, ab: comps})


@pytest.mark.parametrize("name", sorted(MODULE_CASES))
def test_verify_module_category_matches_reference(name):
    # the contraction reports the same violations, in the same order, as
    # composing Morphism objects law by law, whether a passing square is
    # decided on the middle degrees S and the unit or on every degree
    mod = MODULE_CASES[name]()
    middles = modcat._square_middles(mod)
    assert (middles is None) == (name == "trivial_rank2")  # S and the unit are all of C2
    assert verify_module_category(mod).ok and _reference_verify_module_category(mod).ok
    rng = Random(name)
    for kind in CORRUPTIONS + ("tensor",):
        for _ in range(2):
            bad = _corrupt_module(mod, kind, rng)
            want = _reference_verify_module_category(bad).violations
            assert verify_module_category(bad).violations == want
    for _ in range(2 if middles else 0):
        # only squares fail, some with a middle outside S and the unit: the
        # list is the full scan's, not the restricted scan's
        bad = _rescale_mu(mod, middles, rng)
        want = _reference_verify_module_category(bad).violations
        assert {v[0] for v in want} == {"assoc"}
        assert any(v[2] not in middles for v in want)
        assert verify_module_category(bad).violations == want


@pytest.mark.parametrize("name", ["completion", "duplicated", "s3"])
def test_mu_changes_outside_generating_degrees_match_reference(name):
    # one coordinate of one component of each mu[(a, b)], b outside S and the
    # unit, changed: the restricted pass reads no naturality square of these
    # columns, and the list reported is the full scan's
    mod = MODULE_CASES[name]()
    middles = mod.square_middles
    assert middles is not None
    rng = Random(name)
    reported = []
    for ab in sorted(k for k in mod.mu if k[1] not in middles):
        comps = _corrupt_component(mod.mu[ab], rng, "coordinate")
        bad = ModuleCatData(mod.base, mod.action, mod.epsilon, {**mod.mu, ab: comps})
        want = _reference_verify_module_category(bad).violations
        assert verify_module_category(bad).violations == want
        reported += want
    # some change is reported at a degree b outside S and the unit
    assert any(v[0] in ("mu-naturality", "assoc") and v[2] not in middles for v in reported)


def _c16_skeleton(seed=99):
    """The C16 -> C2 skeleton with |L| = 4 (four objects), psi a coboundary."""
    tau = reduction_hom(16, 2)
    L = subgroup(tau.source, [0, 4, 8, 12])
    psi = d1_cochain(random_cochain1(F5, coset_space(tau.source, L), Random(seed)))
    return build_skeleton(mtau_spec(tau, F5, L, psi, 0))


def test_passing_module_square_scans_generating_middles(monkeypatch):
    # epsilon and the |H| |S u {e}| mu transformations with b in S and the
    # unit are checked for naturality, then |H| |S u {e}| |H| objects squares
    # instead of |H|^3 objects: each costs two `then` calls, as does each
    # naturality square and unit triangle
    mod = extract_action(_lawful(_c16_skeleton()))
    calls = []
    real = modcat._scalar_ops

    def counted(m):
        then, image = real(m)
        return (lambda f, g: calls.append(1) or then(f, g)), image

    monkeypatch.setattr(modcat, "_scalar_ops", counted)
    assert verify_module_category(mod).ok
    order, n = mod.group.order, mod.base.n_objects
    basis = sum(mod.base.hom_rank.values())
    squares = (len(calls) - 2 * (1 + order * 2) * basis - 2 * order * n) / 2
    assert modcat._square_middles(mod) == {0, 1}
    assert squares == order * 2 * order * n == 2048


def test_passing_module_functor_scans_generating_hexagons(monkeypatch):
    # between lawful modules the hexagons (a, b, x) are scanned for b in S
    # and the unit: |H| |S u {e}| objects instead of |H|^2 objects, three
    # `_then` calls each, after two per naturality square of the |H|
    # comparisons and one per unit triangle
    rt = roundtrip(_lawful(_c16_skeleton()))
    src, dst = rt.rebuilt_mod, rt.mod
    assert src.lawful and dst.lawful
    calls = []
    real = modcat._then
    monkeypatch.setattr(modcat, "_then", lambda *args: calls.append(1) or real(*args))
    assert verify_module_functor(rt.nu, src, dst).ok
    order, n = src.group.order, src.base.n_objects
    basis = sum(src.base.hom_rank.values())
    hexagons = (len(calls) - 2 * order * basis - n) / 3
    assert hexagons == order * 2 * n == 128  # 1,024 on the full scan


@pytest.mark.parametrize("command, verified", [("roundtrip", 2), ("decompose", 1)])
def test_read_commands_verify_only_their_presentations(tmp_path, monkeypatch, command,
                                                       verified):
    # roundtrip verifies the input file and the rebuild, decompose the input
    # file: the functor and module scans read verdicts already computed and
    # run verify_axioms on nothing else, such as decompose's skeletons
    path = tmp_path / "cat.json"
    path.write_text(json.dumps(jsonio.category_to_json(_c16_skeleton())))
    calls = _count_in_taucat(monkeypatch, verify_axioms)
    assert cli.main([command, str(path)]) == 0
    assert len(calls) == verified


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


def test_every_action_matrix_entry_change_is_rejected():
    # epsilon and mu are checked against endpoints applied from the current
    # action, so a changed action hom matrix cannot hide behind endpoints
    # that were built before the change
    for name, build in sorted(MODULE_CASES.items()):
        mod = build()
        p = mod.base.field.p
        for h, F in sorted(mod.action.items()):
            for key, mat in sorted(F.hom_maps.items()):
                for i, j in product(range(len(mat)), range(len(mat[0]) if mat else 0)):
                    changed = [list(row) for row in mat]
                    changed[i][j] = (changed[i][j] + 1) % p
                    action = {**mod.action, h: FunctorData(
                        F.source, F.target, F.obj_map, {**F.hom_maps, key: changed})}
                    bad = ModuleCatData(mod.base, action, mod.epsilon, mod.mu)
                    bad.inverses = mod.inverses  # the components are unchanged
                    assert not verify_module_category(bad).ok, (name, h, key, i, j)


@pytest.mark.parametrize("coords", [(1, 0), ()], ids=["extra", "empty"])
def test_component_coordinate_counts_are_shape_violations(coords):
    # End(x) has rank 1 on the skeleton: a component with two coordinates
    # or none has the wrong shape, whatever its composites would read
    mod = MODULE_CASES["skeleton"]()
    c = mod.epsilon[1]
    eps = mod.epsilon[:1] + (Morphism(c.src, c.dst, c.degree, coords),) + mod.epsilon[2:]
    bad = ModuleCatData(mod.base, mod.action, eps, mod.mu)
    assert verify_module_category(bad).violations[0] == (
        "epsilon-naturality", ("component-shape", 1))
    mf, src, dst = MODULE_FUNCTOR_CASES["nu"]()
    comparison = dict(mf.comparison)
    c = comparison[3][1]
    comparison[3] = comparison[3][:1] + (Morphism(c.src, c.dst, c.degree, coords),) \
        + comparison[3][2:]
    bad = ModuleFunctorData(mf.functor, comparison)
    assert verify_module_functor(bad, src, dst).violations[0] == (
        "comparison-naturality", 3, ("component-shape", 1))


def _restricted_equivalence():
    """A restricted equivalence between fresh copies of its two modules,
    whose verdicts are not computed: the modules are not known lawful, so
    the hexagons are scanned in full."""
    spec = trivial_spec(TAU, F5, cyclic_subgroup_of_order(2), 0)
    table = shift_table(build_skeleton(spec))
    F = realize_functor(spec, spec, classify_equivalences(spec, spec)[1])
    mf, src, dst = restrict_functor(F, table, table)
    return mf, *(ModuleCatData(m.base, m.action, m.epsilon, m.mu) for m in (src, dst))


@lru_cache(maxsize=None)
def _s3_roundtrip():
    return roundtrip(_lawful(s3_cat()))


MODULE_FUNCTOR_CASES = {
    "nu": lambda: (_roundtrip_of("skeleton").nu, _roundtrip_of("skeleton").rebuilt_mod,
                   _roundtrip_of("skeleton").mod),
    "nu_inv_completion": lambda: (_roundtrip_of("completion").nu_inv,
                                  _roundtrip_of("completion").mod,
                                  _roundtrip_of("completion").rebuilt_mod),
    "restricted": _restricted_equivalence,
    "trivial_rank2": lambda: (identity_module_functor(_trivial_c2_action()),
                              _trivial_c2_action(), _trivial_c2_action()),
    # nonabelian H: the hexagons are decided on a two-element S and the unit
    "s3": lambda: (_s3_roundtrip().nu, _s3_roundtrip().rebuilt_mod, _s3_roundtrip().mod),
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


# S and the unit are all of C2 in trivial_rank2
@pytest.mark.parametrize("name", sorted(set(MODULE_FUNCTOR_CASES) - {"trivial_rank2"}))
def test_rescaled_comparisons_match_reference(name):
    # a whole comparison s^h, h outside S and the unit, times a unit stays
    # natural and invertible and keeps the unit triangle: only hexagons fail,
    # some with b outside S and the unit, and the list is the full scan's
    # whether the modules are lawful (restricted scan first) or not
    mf, src, dst = MODULE_FUNCTOR_CASES[name]()
    assert (src.lawful and dst.lawful) == (name != "restricted")
    middles = frozenset(cayley_tree(src.group)[0]) | {src.group.identity}
    p = dst.base.field.p
    outside = [h for h in sorted(mf.comparison) if h not in middles]
    for h, u in product(outside, range(2, p)):
        comps = tuple(Morphism(c.src, c.dst, c.degree, tuple(u * v % p for v in c.coords))
                      for c in mf.comparison[h])
        bad = ModuleFunctorData(mf.functor, {**mf.comparison, h: comps})
        want = _reference_verify_module_functor(bad, src, dst).violations
        assert {v[0] for v in want} == {"hexagon"}
        assert any(v[2] not in middles for v in want)
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
    assert kinds == {"functor", "comparison-naturality", "comparison-not-invertible",
                     "unit-triangle", "hexagon"}


def test_verifiers_build_no_morphisms(monkeypatch):
    # the verifiers and invert read every law off tensors, hom matrices and
    # component coordinates, and the constructions read every composite off
    # composition matrices: no compose call is left in the whole round trip
    tau = reduction_hom(12, 2)
    L = subgroup(tau.source, [0, 6])
    psi = d1_cochain(random_cochain1(F5, coset_space(tau.source, L), Random(97)))
    cat = build_skeleton(mtau_spec(tau, F5, L, psi, 1))
    calls = _count_in_taucat(monkeypatch, compose)

    def total():
        return len(calls)

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
    assert set(inside) == {"verify_module_category", "verify_functor", "invert"}
    assert inside == dict.fromkeys(inside, 0)
    assert calls == []


def _reference_hom_maps(src, image):
    """Hom matrices on src whose column k at (x, y, h) is image(basis_k)."""
    return {key: tuple(zip(*[image(basis_morphism(src, *key, k)).coords
                             for k in range(r)]))
            for key, r in src.hom_rank.items()}


def _reference_extract_action(cat, table):
    """The action hom maps, as r o f o r^-1 on each basis morphism f, the mu
    components, as two compose calls each, and (epsilon^-1, mu^-1), as
    invert on each component."""
    gH = cat.tau.source
    base = degree_one_part(cat)
    maps = {h: _reference_hom_maps(base, lambda f, h=h: compose(
        cat, compose(cat, table[(f.src, h)][2], f), table[(f.dst, h)][1]))
        for h in gH.elements()}
    mu = {}
    for a in gH.elements():
        for b in gH.elements():
            comps = []
            for x in cat.objects():
                xb = table[(x, b)][0]
                m = compose(cat, table[(xb, a)][2], table[(x, b)][2])
                comps.append(compose(cat, m, table[(x, gH.mul(a, b))][1]))
            mu[(a, b)] = tuple(comps)
    inverses = ([invert(base, table[(x, gH.identity)][1]) for x in cat.objects()],
                {ab: [invert(base, c) for c in comps] for ab, comps in mu.items()})
    return maps, mu, inverses


# the presentations the extracted MODULE_CASES come from, and the rebuilds
# of the round-trip sources and of s3
EXTRACT_SOURCES = {
    "skeleton": lambda: _lawful(ROUNDTRIP_SOURCES["skeleton"]()),
    "table": lambda: _lawful(cyclic_table_category(F5, 2)),
    "completion": lambda: _lawful(_shift_closed_completion()),
    "duplicated": lambda: _lawful(AdditiveCompletion(twisted_cat(95, k=4))
                                  .presentation_of([(0,), (1,), (0,), (1,)])),
    "s3": lambda: _lawful(s3_cat()),
    **{f"rebuilt_{name}": lambda name=name: _roundtrip_of(name).rebuilt
       for name in ROUNDTRIP_SOURCES},
    "rebuilt_s3": lambda: roundtrip(_lawful(s3_cat())).rebuilt,
}


@pytest.mark.parametrize("name", sorted(EXTRACT_SOURCES))
def test_extract_action_matches_reference(name):
    # hom maps and mu read off scalars (rank 1) or composed, and the inverses
    # composed from the shift table, equal compose on basis morphisms and
    # invert on every component
    cat = EXTRACT_SOURCES[name]()
    assert cat.lawful
    table = shift_table(cat)
    mod = extract_action(cat, shifts=table)
    assert "inverses" in mod.__dict__  # filled by extract_action, not inverted
    maps, mu, inverses = _reference_extract_action(cat, table)
    assert {h: F.hom_maps for h, F in mod.action.items()} == maps
    assert mod.mu == mu
    assert mod.inverses == inverses


def test_unverified_presentation_verifies_once_and_inverts_nothing(monkeypatch):
    # extract_action reads the verdict of a presentation it is handed
    # unverified: one verify_axioms run, whose pass proves the laws the
    # table's composites rest on, so no epsilon or mu component is inverted
    cat = twisted_cat(96)
    table = shift_table(cat)
    assert not cat.lawful
    verified = _count_in_taucat(monkeypatch, verify_axioms)
    inverted = _count_in_taucat(monkeypatch, invert)
    mod = extract_action(cat, shifts=table)
    assert cat.lawful and mod.lawful
    assert len(verified) == 1 and inverted == []
    maps, mu, inverses = _reference_extract_action(cat, table)
    assert {h: F.hom_maps for h, F in mod.action.items()} == maps
    assert mod.mu == mu and mod.inverses == inverses


def test_module_built_elsewhere_inverts_each_component(monkeypatch):
    # a module that extract_action did not build, parsed or built by hand,
    # inverts each of its n + n |H|^2 epsilon and mu components once, when
    # its own check or bullet first reads them
    mod = extract_action(twisted_cat(96))
    n, order = mod.base.n_objects, mod.group.order
    calls = _count_in_taucat(monkeypatch, invert)
    parsed = jsonio.parse_modcat(jsonio.modcat_to_json(mod))
    assert len(calls) == n + n * order ** 2
    assert parsed.inverses == mod.inverses
    calls.clear()
    by_hand = ModuleCatData(mod.base, mod.action, mod.epsilon, mod.mu)
    assert bullet(by_hand) == mod.rebuilt
    assert len(calls) == n + n * order ** 2
    assert by_hand.inverses == mod.inverses


def test_constructions_raise_on_unverified_input():
    # extract_action refuses a presentation whose verdict fails, and bullet a
    # module whose verdict fails, with the first violation, before building
    cat = twisted_cat(96)
    table = shift_table(cat)
    comp = dense_tensors(cat)
    key = sorted(comp)[5]
    comp[key] = (((2 * comp[key][0][0][0] % F5.p,),),)
    bad = GradedCatPresentation(cat.tau, cat.field, cat.degrees, cat.hom_rank, comp,
                                cat.identities)
    first = verify_axioms(bad).violations[0]
    for shifts in (None, table):
        with pytest.raises(ValueError, match=re.escape(f"category fails verification: {first}")):
            extract_action(bad, shifts=shifts)
    # roundtrip reads the verdict before it scans for shifts: the one object
    # of the k = 8 table category has none of odd degree
    grading = cyclic_table_category(F5, 8)
    first = verify_axioms(grading).violations[0]
    with pytest.raises(ValueError, match=re.escape(f"category fails verification: {first}")):
        roundtrip(grading)
    rng = Random("bullet")
    mod = MODULE_CASES["skeleton"]()
    for kind in CORRUPTIONS:
        bad_mod = _corrupt_module(mod, kind, rng)
        first = verify_module_category(bad_mod).violations[0]
        with pytest.raises(ValueError, match=re.escape(f"module data fails coherence: {first}")):
            bullet(bad_mod)


def _reference_roundtrip_maps(cat, table, rt):
    """The hom maps of eta, eta_inv, nu and nu_inv as compose on basis morphisms."""
    e = cat.tau.source.identity
    eta = _reference_hom_maps(rt.rebuilt, lambda f: compose(
        cat, table[(f.src, f.degree)][1],
        Morphism(table[(f.src, f.degree)][0], f.dst, e, f.coords)))
    eta_inv = _reference_hom_maps(cat, lambda f: compose(
        cat, table[(f.src, f.degree)][2], f))
    mod = rt.mod
    a1 = mod.action[e].obj_map
    nu = _reference_hom_maps(rt.rebuilt_mod.base, lambda f: compose(
        mod.base, mod.epsilon[f.src], Morphism(a1[f.src], f.dst, e, f.coords)))
    nu_inv = _reference_hom_maps(mod.base, lambda f: compose(
        mod.base, mod.inverses[0][f.src], f))
    return eta, eta_inv, nu, nu_inv


@pytest.mark.parametrize("name", sorted(ROUNDTRIP_SOURCES))
def test_constructions_match_reference(name):
    # the action, mu and the round-trip functors read off composition
    # matrices equal the same maps composed basis morphism by basis morphism
    cat = ROUNDTRIP_SOURCES[name]()
    assert max(cat.hom_rank.values()) == {"skeleton": 1, "rank2_completion": 2,
                                          "completion": 4}[name]
    table = shift_table(cat)
    rt = _roundtrip_of(name)
    maps, mu, inverses = _reference_extract_action(cat, table)
    assert {h: F.hom_maps for h, F in rt.mod.action.items()} == maps
    assert rt.mod.mu == mu
    assert rt.mod.inverses == inverses
    eta, eta_inv, nu, nu_inv = _reference_roundtrip_maps(cat, table, rt)
    assert rt.eta.hom_maps == eta
    assert rt.eta_inv.hom_maps == eta_inv
    assert rt.nu.functor.hom_maps == nu
    assert rt.nu_inv.functor.hom_maps == nu_inv


def _random_iso(cat, x, y, rng, tries=30):
    """A random invertible degree-1 morphism x -> y, or None if none was found."""
    e = cat.tau.source.identity
    r = cat.rank(x, y, e)
    if not r or r != cat.rank(y, x, e):
        return None
    for _ in range(tries):
        m = Morphism(x, y, e, tuple(rng.randrange(F5.p) for _ in range(r)))
        if invert(cat, m) is not None:
            return m
    return None


def _twisted_table(cat, table, rng):
    """Another choice of shifts, at every degree including the unit:
    r_{x,a} becomes j o r_{x,a} o u for a random automorphism u of x and a
    random iso j from x<a> onto an object isomorphic to it, possibly another."""
    out = {}
    for (x, a), (y, iso, _) in table.items():
        u = _random_iso(cat, x, x, rng)
        js = [j for z in cat.objects() if (j := _random_iso(cat, y, z, rng))]
        twisted = compose(cat, compose(cat, u, iso), rng.choice(js))
        out[(x, a)] = (twisted.dst, twisted, invert(cat, twisted))
    return out


def _conjugation_functor(cat, v):
    """The graded functor f -> v_y o f o v_x^-1 for automorphisms v_x."""
    inv = [invert(cat, m) for m in v]
    return FunctorData(cat, cat, list(cat.objects()), _reference_hom_maps(
        cat, lambda f: compose(cat, compose(cat, inv[f.src], f), v[f.dst])))


def _reference_restrict_comparisons(F, table_c, table_d):
    return {a: tuple(compose(F.target, table_d[(F.obj_map[x], a)][2],
                             apply_functor(F, table_c[(x, a)][1]))
                     for x in F.source.objects())
            for a in F.source.tau.source.elements()}


def _reference_compose_comparisons(mf1, mf2, src):
    F, E = mf1.functor, mf2.functor
    return {h: tuple(compose(E.target, mf2.comparison[h][F.obj_map[x]],
                             apply_functor(E, mf1.comparison[h][x]))
                     for x in src.base.objects())
            for h in src.group.elements()}


def _reference_bullet_functor_maps(mf, src, dst, b_src):
    """The hom maps of bullet_functor on b_src = bullet(src), as F f o s^h_X."""
    e = src.group.identity
    return _reference_hom_maps(b_src, lambda f: compose(
        dst.base, mf.comparison[f.degree][f.src],
        apply_functor(mf.functor, Morphism(src.action[f.degree].obj_map[f.src], f.dst,
                                           e, f.coords))))


def _reference_verify_module_nat(nt, mf_src, mf_dst, src, dst):
    v = verify_nat(nt)
    if not v.ok:
        return Verdict([("naturality", v.violations[0])])
    violations = []
    for h in src.group.elements():
        for x in src.base.objects():
            lhs = compose(dst.base, mf_src.comparison[h][x],
                          nt.component(src.action[h].obj_map[x]))
            rhs = compose(dst.base, apply_functor(dst.action[h], nt.component(x)),
                          mf_dst.comparison[h][x])
            if lhs != rhs:
                violations.append(("module-square", h, x))
    return Verdict(violations)


def _reference_bullet_nat(nt, mf_src, mf_dst, src, dst):
    comps = []
    for x in src.base.objects():
        ex = mf_src.functor.obj_map[x]
        m = compose(dst.base, dst.inverses[0][ex], nt.component(x))
        comps.append(Morphism(ex, mf_dst.functor.obj_map[x], src.group.identity, m.coords))
    return tuple(comps)


def _as_tuples(maps):
    return {k: tuple(map(tuple, m)) for k, m in maps.items()}


MODULE_FUNCTOR_SOURCES = {
    **ROUNDTRIP_SOURCES,
    # rank 1, but with isomorphic distinct objects for the twisted shifts to
    # land on, so a composite taken in the wrong order is not even composable
    "duplicated": lambda: AdditiveCompletion(twisted_cat(95, k=4))
    .presentation_of([(0,), (1,), (0,), (1,)]),
}


@pytest.mark.parametrize("name", sorted(MODULE_FUNCTOR_SOURCES))
def test_module_constructions_match_reference(name):
    # restrict_functor, compose_module_functors, bullet_functor,
    # verify_module_nat and bullet_nat against compose on Morphisms, for the
    # identity and a conjugation functor restricted along twisted shift
    # tables, so that every comparison and epsilon is a random automorphism
    cat = MODULE_FUNCTOR_SOURCES[name]()
    rng = Random(name)
    t1 = shift_table(cat)
    t2, t3 = _twisted_table(cat, t1, rng), _twisted_table(cat, t1, rng)
    v = [_random_iso(cat, x, x, rng) for x in cat.objects()]
    K, ident = _conjugation_functor(cat, v), identity_functor(cat)

    mf_k, m1, m2 = restrict_functor(K, t1, t2)
    mf_a = restrict_functor(ident, t1, t2)[0]
    mf_i, _, m3 = restrict_functor(ident, t2, t3)
    assert mf_k.comparison == _reference_restrict_comparisons(K, t1, t2)
    assert mf_i.comparison == _reference_restrict_comparisons(ident, t2, t3)
    assert mf_k.comparison != mf_a.comparison

    composed = compose_module_functors(mf_k, mf_i, m1, m2, m3)
    assert composed.comparison == _reference_compose_comparisons(mf_k, mf_i, m1)
    assert composed == restrict_functor(compose_functors(K, ident), t1, t3)[0]

    bf = bullet_functor(mf_k, m1, m2)
    assert _as_tuples(bf.hom_maps) == _reference_bullet_functor_maps(mf_k, m1, m2, bf.source)

    # v is natural from the identity to K, and compatible with the comparisons
    nt = NatTransData(mf_a.functor, mf_k.functor, list(v))
    assert verify_module_nat(nt, mf_a, mf_k, m1, m2).ok
    assert bullet_nat(nt, mf_a, mf_k, m1, m2).components == \
        _reference_bullet_nat(nt, mf_a, mf_k, m1, m2)
    # corrupted components, and the right components against K paired with
    # the identity's comparisons
    cases = [(NatTransData(nt.source, nt.target,
                           _corrupt_component(nt.components, rng, kind)), mf_k)
             for kind in ("coordinate", "scale", "zero") for _ in range(3)]
    cases.append((nt, ModuleFunctorData(mf_k.functor, mf_a.comparison)))
    kinds = set()
    for bad, mf_dst in cases:
        got = verify_module_nat(bad, mf_a, mf_dst, m1, m2).violations
        assert got == _reference_verify_module_nat(bad, mf_a, mf_dst, m1, m2).violations
        kinds.update(g[0] for g in got)
    assert "module-square" in kinds
    assert name == "skeleton" or "naturality" in kinds
