"""Bridge between graded categories with shifts and module-category data.

One direction restricts a graded category to its degree-1 part and turns a
choice of shift isomorphisms r_{X,h}: X -> X<h> into a group action: the
functors act by conjugation f -> r o f o r^-1, the unit comparison is
r_{X,1} (pinned to the identity) and the multiplication comparison is

    mu_{a,b,X} = r_{X,ab} o r_{X,b}^-1 o r_{X<b>,a}^-1 .

The other direction rebuilds a graded category out of an action: degree-h
morphisms X -> Y are plain morphisms alpha^h X -> Y, composed through
mu^-1, and X<a> = alpha^a X with the identity as shift iso.  Both round
trips admit strict inverses, which the verifiers here check componentwise.
"""

from __future__ import annotations

from dataclasses import dataclass

from .category import (FunctorData, GradedCatPresentation, Morphism,
                       NatTransData, Verdict, apply_functor, basis_morphism,
                       compose, compose_functors, find_shift, identity_functor,
                       identity_morphism, invert, verify_axioms, verify_functor,
                       verify_nat)
from .fplinalg import from_columns


def shift_table(cat: GradedCatPresentation):
    """(object, degree) -> (target, iso, inverse), identity pinned at degree 1.

    Uses the canonical shifts recorded on the presentation when present,
    otherwise scans with find_shift, which returns each inverse it found;
    raises when some shift is missing or not invertible.  Each iso is
    inverted at most once, for every user of the table.
    """
    gH = cat.tau.source
    e = gH.identity
    table = {}
    for x in cat.objects():
        for a in gH.elements():
            inverse = None
            if a == e:
                y, iso = x, identity_morphism(cat, x)
            elif cat.shifts is not None and (x, a) in cat.shifts:
                y, iso = cat.shifts[(x, a)]
            else:
                hit = find_shift(cat, x, a)
                if hit is None:
                    raise ValueError(f"object {x} has no shift by {a}")
                y, iso, inverse = hit
            if inverse is None:
                inverse = invert(cat, iso)
                if inverse is None:
                    raise ValueError(f"shift iso at {(x, a)} is not invertible")
            table[(x, a)] = (y, iso, inverse)
    return table


def _hom_maps(src: GradedCatPresentation, image) -> dict:
    """FunctorData hom maps on src: column k at (x, y, h) is image(basis_k)."""
    return {key: from_columns([image(basis_morphism(src, *key, k)).coords
                               for k in range(r)])
            for key, r in src.hom_rank.items()}


def degree_one_part(cat: GradedCatPresentation) -> GradedCatPresentation:
    """The subcategory of degree-1 morphisms, same objects and degrees."""
    e = cat.tau.source.identity
    hom_rank = {k: r for k, r in cat.hom_rank.items() if k[2] == e}
    comp = {k: t for k, t in cat.compose_t.items() if k[3] == e and k[4] == e}
    return GradedCatPresentation(cat.tau, cat.field, cat.degrees, hom_rank,
                                 comp, cat.identities)


@dataclass
class ModuleCatData:
    """A linear category with a group action given by explicit matrices."""

    base: GradedCatPresentation
    action: dict  # h -> FunctorData on base
    epsilon: NatTransData  # id => action[1]
    mu: dict  # (a, b) -> NatTransData  action[a] action[b] => action[ab]

    @property
    def group(self):
        return self.base.tau.source


@dataclass
class ModuleFunctorData:
    """A functor together with comparison isos s^h: beta^h F => F alpha^h."""

    functor: FunctorData
    comparison: dict  # h -> NatTransData

    def __eq__(self, other):
        if not isinstance(other, ModuleFunctorData):
            return NotImplemented
        if self.functor != other.functor:
            return False
        keys = set(self.comparison) | set(other.comparison)
        for h in keys:
            a = self.comparison[h].components
            b = other.comparison[h].components
            if a != b:
                return False
        return True


def extract_action(cat: GradedCatPresentation, shifts=None) -> ModuleCatData:
    """The action of H on the degree-1 part induced by a choice of shifts."""
    gH = cat.tau.source
    base = degree_one_part(cat)
    table = shifts if shifts is not None else shift_table(cat)

    action = {}
    for h in gH.elements():
        obj_map = [table[(x, h)][0] for x in cat.objects()]
        hom_maps = _hom_maps(base, lambda f: compose(
            cat, compose(cat, table[(f.src, h)][2], f), table[(f.dst, h)][1]))
        action[h] = FunctorData(base, base, obj_map, hom_maps)

    e = gH.identity
    eps = NatTransData(identity_functor(base), action[e],
                       [table[(x, e)][1] for x in cat.objects()])
    mu = {}
    for a in gH.elements():
        for b in gH.elements():
            comps = []
            for x in cat.objects():
                xb = table[(x, b)][0]
                m = compose(cat, table[(xb, a)][2], table[(x, b)][2])
                m = compose(cat, m, table[(x, gH.mul(a, b))][1])
                comps.append(m)
            mu[(a, b)] = NatTransData(
                compose_functors(action[b], action[a]), action[gH.mul(a, b)], comps)
    mod = ModuleCatData(base, action, eps, mu)
    verdict = verify_module_category(mod)
    if not verdict.ok:
        raise ValueError(f"extracted action fails coherence: {verdict.violations[0]}")
    return mod


def verify_module_category(mod: ModuleCatData) -> Verdict:
    """Naturality, invertibility, unit triangle and associativity square."""
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
                    rhs = compose(base,
                                  apply_functor(mod.action[a],
                                                mod.mu[(b, c)].component(x)),
                                  mod.mu[(a, gH.mul(b, c))].component(x))
                    if lhs != rhs:
                        violations.append(("assoc", a, b, c, x))
    return Verdict(violations)


def check_tau_module(mod: ModuleCatData) -> Verdict:
    """The degree law: alpha^h sends degree g objects to degree tau(h)g."""
    violations = []
    base = mod.base
    tau = base.tau
    for h in mod.group.elements():
        for x in base.objects():
            want = tau.target.mul(tau.map[h], base.degrees[x])
            if base.degrees[mod.action[h].obj_map[x]] != want:
                violations.append(("degree-law", h, x))
    return Verdict(violations)


def bullet(mod: ModuleCatData) -> GradedCatPresentation:
    """Rebuild a graded category: Hom^h(X, Y) := Hom(alpha^h X, Y)."""
    base = mod.base
    gH = mod.group
    e = gH.identity
    tdeg = check_tau_module(mod)
    if not tdeg.ok:
        raise ValueError(f"action violates the degree law: {tdeg.violations[0]}")
    eps_inv = [invert(base, mod.epsilon.component(x)) for x in base.objects()]
    mu_inv = {}
    for (a, b), nt in mod.mu.items():
        mu_inv[(a, b)] = [invert(base, nt.component(x)) for x in base.objects()]

    hom_rank = {}
    for x in base.objects():
        for h in gH.elements():
            hx = mod.action[h].obj_map[x]
            for y in base.objects():
                r = base.rank(hx, y, e)
                if r:
                    hom_rank[(x, y, h)] = r
    comp = {}
    for x in base.objects():
        for h in gH.elements():
            hx = mod.action[h].obj_map[x]
            for y in base.objects():
                r1 = base.rank(hx, y, e)
                if not r1:
                    continue
                for h2 in gH.elements():
                    h2y = mod.action[h2].obj_map[y]
                    for z in base.objects():
                        r2 = base.rank(h2y, z, e)
                        if not r2:
                            continue
                        deg = gH.mul(h2, h)
                        r3 = hom_rank.get((x, z, deg), 0)
                        if not r3:
                            continue
                        tensor = [[[0] * r1 for _ in range(r2)] for _ in range(r3)]
                        start = mu_inv[(h2, h)][x]
                        for i in range(r1):
                            f = basis_morphism(base, hx, y, e, i)
                            mid = compose(base, start,
                                          apply_functor(mod.action[h2], f))
                            for j in range(r2):
                                g = basis_morphism(base, h2y, z, e, j)
                                coords = compose(base, mid, g).coords
                                for k in range(r3):
                                    tensor[k][j][i] = coords[k]
                        comp[(x, y, z, h, h2)] = tensor
    identities = [eps_inv[x].coords for x in base.objects()]
    shifts = {}
    for x in base.objects():
        for a in gH.elements():
            ax = mod.action[a].obj_map[x]
            shifts[(x, a)] = (ax, Morphism(x, ax, a, base.identities[ax]))
    out = GradedCatPresentation(base.tau, base.field, base.degrees, hom_rank,
                                comp, identities, shifts=shifts)
    verdict = verify_axioms(out)
    if not verdict.ok:
        raise ValueError(f"incoherent action data: {verdict.violations[0]}")
    return out


def verify_module_functor(mf: ModuleFunctorData, src: ModuleCatData,
                          dst: ModuleCatData) -> Verdict:
    """Functor axioms plus the unit triangle and composition hexagon for s."""
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
        want_src = compose_functors(F, dst.action[h])
        want_dst = compose_functors(src.action[h], F)
        if nt.source != want_src or nt.target != want_dst:
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
        fx = F.obj_map[x]
        lhs = compose(base_d, dst.epsilon.component(fx),
                      mf.comparison[e].component(x))
        rhs = apply_functor(F, src.epsilon.component(x))
        if lhs != rhs:
            violations.append(("unit-triangle", x))
    for a in gH.elements():
        for b in gH.elements():
            ab = gH.mul(a, b)
            for x in src.base.objects():
                bx = src.action[b].obj_map[x]
                fx = F.obj_map[x]
                lhs = compose(base_d, dst.mu[(a, b)].component(fx),
                              mf.comparison[ab].component(x))
                step = apply_functor(dst.action[a], mf.comparison[b].component(x))
                step = compose(base_d, step, mf.comparison[a].component(bx))
                rhs = compose(base_d, step,
                              apply_functor(F, src.mu[(a, b)].component(x)))
                if lhs != rhs:
                    violations.append(("hexagon", a, b, x))
    return Verdict(violations)


def identity_module_functor(mod: ModuleCatData) -> ModuleFunctorData:
    F = identity_functor(mod.base)
    comparison = {}
    for h in mod.group.elements():
        ah = mod.action[h]
        comps = [identity_morphism(mod.base, ah.obj_map[x])
                 for x in mod.base.objects()]
        comparison[h] = NatTransData(compose_functors(F, ah),
                                     compose_functors(ah, F), comps)
    return ModuleFunctorData(F, comparison)


def compose_module_functors(mf1: ModuleFunctorData, mf2: ModuleFunctorData,
                            src: ModuleCatData, mid: ModuleCatData,
                            dst: ModuleCatData) -> ModuleFunctorData:
    """Apply mf1 first, then mf2; comparisons compose as E s^h o r^h_F."""
    F, E = mf1.functor, mf2.functor
    comp_f = compose_functors(F, E)
    comparison = {}
    base_d = dst.base
    for h in src.group.elements():
        comps = []
        for x in src.base.objects():
            m = compose(base_d, mf2.comparison[h].component(F.obj_map[x]),
                        apply_functor(E, mf1.comparison[h].component(x)))
            comps.append(m)
        comparison[h] = NatTransData(
            compose_functors(comp_f, dst.action[h]),
            compose_functors(src.action[h], comp_f), comps)
    return ModuleFunctorData(comp_f, comparison)


def verify_module_nat(nt: NatTransData, mf_src: ModuleFunctorData,
                      mf_dst: ModuleFunctorData, src: ModuleCatData,
                      dst: ModuleCatData) -> Verdict:
    """Plain naturality plus compatibility with the comparison isos."""
    violations = []
    v = verify_nat(nt)
    if not v.ok:
        violations.append(("naturality", v.violations[0]))
        return Verdict(violations)
    base_d = dst.base
    for h in src.group.elements():
        for x in src.base.objects():
            lhs = compose(base_d, mf_src.comparison[h].component(x),
                          nt.component(src.action[h].obj_map[x]))
            rhs = compose(base_d,
                          apply_functor(dst.action[h], nt.component(x)),
                          mf_dst.comparison[h].component(x))
            if lhs != rhs:
                violations.append(("module-square", h, x))
    return Verdict(violations)


def bullet_functor(mf: ModuleFunctorData, src: ModuleCatData,
                   dst: ModuleCatData) -> FunctorData:
    """Degree-h morphisms f: alpha^h X -> Y map to F f o s^h_X."""
    b_src = bullet(src)
    b_dst = bullet(dst)
    F = mf.functor
    e = src.group.identity
    hom_maps = _hom_maps(b_src, lambda f: compose(
        dst.base, mf.comparison[f.degree].component(f.src),
        apply_functor(F, Morphism(src.action[f.degree].obj_map[f.src], f.dst, e,
                                  f.coords))))
    out = FunctorData(b_src, b_dst, F.obj_map, hom_maps)
    verdict = verify_functor(out)
    if not verdict.ok:
        raise ValueError(f"bullet functor fails verification: {verdict.violations[0]}")
    return out


def bullet_nat(nt: NatTransData, mf_src: ModuleFunctorData,
               mf_dst: ModuleFunctorData, src: ModuleCatData,
               dst: ModuleCatData) -> NatTransData:
    """Components eta_X o (epsilon^beta_{EX})^-1 in the rebuilt category."""
    bf_src = bullet_functor(mf_src, src, dst)
    bf_dst = bullet_functor(mf_dst, src, dst)
    base_d = dst.base
    comps = []
    for x in src.base.objects():
        ex = mf_src.functor.obj_map[x]
        eps_inv = invert(base_d, dst.epsilon.component(ex))
        m = compose(base_d, eps_inv, nt.component(x))
        comps.append(Morphism(ex, mf_dst.functor.obj_map[x],
                              src.group.identity, m.coords))
    out = NatTransData(bf_src, bf_dst, comps)
    verdict = verify_nat(out)
    if not verdict.ok:
        raise ValueError(f"bullet nat fails verification: {verdict.violations[0]}")
    return out


def restrict_functor(F: FunctorData, src_shifts=None,
                     dst_shifts=None) -> tuple[ModuleFunctorData, ModuleCatData, ModuleCatData]:
    """The degree-1 restriction of a graded functor, with its comparisons."""
    cat_c, cat_d = F.source, F.target
    table_c = src_shifts if src_shifts is not None else shift_table(cat_c)
    table_d = dst_shifts if dst_shifts is not None else shift_table(cat_d)
    mod_c = extract_action(cat_c, shifts=table_c)
    mod_d = extract_action(cat_d, shifts=table_d)
    e = cat_c.tau.source.identity
    hom_maps = {k: F.matrix(*k) for k in mod_c.base.hom_rank}
    F1 = FunctorData(mod_c.base, mod_d.base, F.obj_map, hom_maps)
    comparison = {}
    for a in cat_c.tau.source.elements():
        comps = []
        for x in cat_c.objects():
            r_c = table_c[(x, a)][1]
            r_d_inv = table_d[(F.obj_map[x], a)][2]
            m = compose(cat_d, r_d_inv, apply_functor(F, r_c))
            comps.append(m)
        comparison[a] = NatTransData(
            compose_functors(F1, mod_d.action[a]),
            compose_functors(mod_c.action[a], F1), comps)
    mf = ModuleFunctorData(F1, comparison)
    verdict = verify_module_functor(mf, mod_c, mod_d)
    if not verdict.ok:
        raise ValueError(f"restriction fails module axioms: {verdict.violations[0]}")
    return mf, mod_c, mod_d


@dataclass
class RoundTrip:
    """Both strict round trips of a category with shifts, sharing one rebuild."""

    mod: ModuleCatData
    rebuilt: GradedCatPresentation
    eta: FunctorData
    eta_inv: FunctorData
    nu: ModuleFunctorData
    nu_inv: ModuleFunctorData
    rebuilt_mod: ModuleCatData


def roundtrip(cat: GradedCatPresentation) -> RoundTrip:
    """Extract the action, rebuild once, and check both round trips."""
    table = shift_table(cat)
    mod = extract_action(cat, shifts=table)
    rebuilt = bullet(mod)
    eta, eta_inv = roundtrip_eta(cat, table, rebuilt)
    nu, nu_inv, rebuilt_mod = roundtrip_nu(mod, rebuilt)
    return RoundTrip(mod, rebuilt, eta, eta_inv, nu, nu_inv, rebuilt_mod)


def roundtrip_eta(cat: GradedCatPresentation, table, rebuilt: GradedCatPresentation):
    """Strictly invertible comparison from the rebuilt category back to cat.

    `table` is the shift table the action of `rebuilt` was extracted with.
    Returns (eta, eta_inv) with eta o eta_inv and eta_inv o eta the identity
    functors on the nose.
    """
    e = cat.tau.source.identity
    eta = FunctorData(rebuilt, cat, list(cat.objects()), _hom_maps(
        rebuilt, lambda f: compose(cat, table[(f.src, f.degree)][1],
                                   Morphism(table[(f.src, f.degree)][0], f.dst, e,
                                            f.coords))))
    eta_inv = FunctorData(cat, rebuilt, list(cat.objects()), _hom_maps(
        cat, lambda f: compose(cat, table[(f.src, f.degree)][2], f)))

    for F in (eta, eta_inv):
        verdict = verify_functor(F)
        if not verdict.ok:
            raise ValueError(f"round trip functor fails: {verdict.violations[0]}")
    if compose_functors(eta, eta_inv) != identity_functor(rebuilt):
        raise ValueError("eta_inv is not a strict left inverse")
    if compose_functors(eta_inv, eta) != identity_functor(cat):
        raise ValueError("eta_inv is not a strict right inverse")
    return eta, eta_inv


def roundtrip_nu(mod: ModuleCatData, rebuilt: GradedCatPresentation):
    """Strictly invertible module comparison from the rebuilt action to mod.

    `rebuilt` is bullet(mod).  Returns (nu, nu_inv, rebuilt_mod); both
    composites are checked equal to the identity module functors.
    """
    bmod = extract_action(rebuilt)
    base = mod.base
    e = mod.group.identity
    a1 = mod.action[e].obj_map
    nu_f = FunctorData(bmod.base, base, list(base.objects()), _hom_maps(
        bmod.base, lambda f: compose(base, mod.epsilon.component(f.src),
                                     Morphism(a1[f.src], f.dst, e, f.coords))))
    eps_inv = [invert(base, c) for c in mod.epsilon.components]
    nu_inv_f = FunctorData(base, bmod.base, list(base.objects()), _hom_maps(
        base, lambda f: compose(base, eps_inv[f.src], f)))

    comparison = {}
    inv_comparison = {}
    for h in mod.group.elements():
        comps = [identity_morphism(base, hx) for hx in mod.action[h].obj_map]
        comparison[h] = NatTransData(
            compose_functors(nu_f, mod.action[h]),
            compose_functors(bmod.action[h], nu_f), comps)
        inv_comps = [identity_morphism(bmod.base, hx) for hx in mod.action[h].obj_map]
        inv_comparison[h] = NatTransData(
            compose_functors(nu_inv_f, bmod.action[h]),
            compose_functors(mod.action[h], nu_inv_f), inv_comps)
    nu = ModuleFunctorData(nu_f, comparison)
    nu_inv = ModuleFunctorData(nu_inv_f, inv_comparison)

    v = verify_module_functor(nu, bmod, mod)
    if not v.ok:
        raise ValueError(f"nu fails module axioms: {v.violations[0]}")
    v = verify_module_functor(nu_inv, mod, bmod)
    if not v.ok:
        raise ValueError(f"nu inverse fails module axioms: {v.violations[0]}")
    left = compose_module_functors(nu_inv, nu, mod, bmod, mod)
    if left != identity_module_functor(mod):
        raise ValueError("nu_inv is not a strict right inverse")
    right = compose_module_functors(nu, nu_inv, bmod, mod, bmod)
    if right != identity_module_functor(bmod):
        raise ValueError("nu_inv is not a strict left inverse")
    return nu, nu_inv, bmod
