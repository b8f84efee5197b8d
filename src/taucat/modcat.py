"""Bridge between graded categories with shifts and module-category data.

One direction restricts a graded category to its degree-1 part and turns a
choice of shift isomorphisms r_{X,h}: X -> X<h> into a group action: the
functors act by conjugation f -> r o f o r^-1, the unit comparison is
r_{X,1} (pinned to the identity) and the multiplication comparison is

    mu_{a,b,X} = r_{X,ab} o r_{X,b}^-1 o r_{X<b>,a}^-1 .

The other direction rebuilds a graded category out of an action: degree-h
morphisms X -> Y are plain morphisms alpha^h X -> Y, composed through
mu^-1.  Its shifts X<a> = alpha^a X by the identity, with their inverses
epsilon^-1 o mu_{a^-1,a}, are a table that roundtrip_nu builds, as no
presentation records shifts (shift_table scans for them).  Both round trips
admit strict inverses, checked componentwise.  The rebuild, the degree-1
part and the functors of the round trips are built by the trusted
constructors (GradedCatPresentation._trusted, FunctorData._trusted): their
data are canonical by construction.

Module data stores only components.  epsilon: id => alpha^1,
mu_{a,b}: alpha^a alpha^b => alpha^{ab} and the comparisons
s^h: beta^h F => F alpha^h have endpoints that the action and the functor
already fix, so each is a tuple of degree-1 morphisms, one per object, and
the verifiers derive the endpoints from the current action and functor.
Naturality, the unit triangles, the associativity square and the
module-functor hexagon are read off the base's composition tensors, the
hom matrices of the action functors and the component coordinates, as
(src, dst, coords) triples rather than Morphism objects; when every
degree-1 hom space has rank 1 each composite is one product of scalars.
Naturality is category._nat_violations, the scan verify_nat lists; the
module checks take its first violation.

The constructions take verified input: extract_action reads the verdict
of its presentation and bullet the verdict of its module, and each raises
the first violation.  Each chooses its arithmetic once per call.  When
every hom space has rank 1, each tensor of the presentation's one store
is its one constant (category._constant): extract_action reads the
action's hom maps and each mu component off those constants and the shift
table's coordinates, bullet builds its tensors from them and the action's
1 x 1 hom matrices, and the checks above read the same two.  Otherwise
every hom map is read off category.precompose and postcompose, e.g.
alpha^h at (x, y) is postcompose(r_{y,h}) precompose(r_{x,h}^-1), and
bullet's tensors are precompose matrices.  The inverse of each mu
component is composed from the shift table in the same loop as mu,
r_{X<b>,a} o r_{X,b} o r_{X,ab}^-1, which is two-sided because the table's
pairs are, so no component of an extracted action is inverted.

Over a lawful base, with each alpha^a a functor and every component
invertible, the module laws are decided on the degrees S and the unit of
groups.cayley_tree.  The degrees b whose column mu_{., b} is natural are
closed under left multiplication by S, through the square (a, s, c); the
middle degrees b whose squares all hold are closed under products, through
the cube on (a, b1, b2, c) (d3 d2 = 0, categorically).  Between lawful
modules the hexagons of a module functor close like the columns of mu.  A
failing verdict is reported from the full scan; verify_module_category and
verify_module_functor spell the proofs out.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property, partial

from .category import (FunctorData, GradedCatPresentation, Morphism,
                       NatTransData, Verdict, _constant, _coords, _image, _nat_violations,
                       _scalar, _then, compose, compose_functors, find_shift,
                       identity_functor, identity_morphism, invert, postcompose,
                       precompose, verify_functor, verify_nat)
from .fplinalg import matmul, matvec
from .groups import cayley_tree


def shift_table(cat: GradedCatPresentation):
    """(object, degree) -> find_shift's (target, iso, inverse), the identity
    paired with itself at degree 1; raises when some shift is missing."""
    table = {}
    for x in cat.objects():
        for a in cat.tau.source.elements():
            table[(x, a)] = hit = find_shift(cat, x, a)
            if hit is None:
                raise ValueError(f"object {x} has no shift by {a}")
    return table


def degree_one_part(cat: GradedCatPresentation) -> GradedCatPresentation:
    """The subcategory of degree-1 morphisms, same objects and degrees."""
    e = cat.tau.source.identity
    hom_rank = {k: r for k, r in cat.hom_rank.items() if k[2] == e}
    tensors = {(e, e): cat.tensors[(e, e)]} if (e, e) in cat.tensors else {}
    out = GradedCatPresentation._trusted(cat.tau, cat.field, cat.degrees, hom_rank,
                                         tensors, cat.identities)
    if cat.lawful:  # every law of the part is one of cat's laws
        out.verdict = Verdict([])
    return out


@dataclass
class ModuleCatData:
    """A linear category with a group action given by explicit matrices.

    base has degree-1 morphisms only.  epsilon and each mu[(a, b)] are
    tuples of degree-1 components, one per object: x -> alpha^1 x and
    alpha^a alpha^b x -> alpha^{ab} x.
    """

    base: GradedCatPresentation
    action: dict  # h -> FunctorData on base
    epsilon: tuple  # components of id => action[1]
    mu: dict  # (a, b) -> components of action[a] action[b] => action[ab]

    @property
    def group(self):
        return self.base.tau.source

    @cached_property
    def inverses(self):
        """(epsilon^-1, mu^-1) componentwise, None where a component has none.

        Computed once per instance: verify_module_category checks them, and
        bullet, bullet_nat and roundtrip_nu read them.  extract_action fills
        them from its shift table, as composites of the table's two-sided
        pairs (see there); a module built any other way, parsed or by hand,
        inverts each component here.
        """
        base = self.base
        return ([invert(base, c) for c in self.epsilon],
                {ab: [invert(base, c) for c in comps] for ab, comps in self.mu.items()})

    @cached_property
    def square_middles(self):
        """_square_middles(self), once per instance.  Its verify_functor runs
        are what proves each alpha^a a functor on a lawful base."""
        return _square_middles(self)

    @cached_property
    def verdict(self) -> Verdict:
        """verify_module_category(self), run once per instance."""
        return verify_module_category(self)

    @property
    def lawful(self) -> bool:
        """Whether `verdict` has been computed and passed, with `square_middles`
        proving the base lawful and every alpha^a a functor.

        Reading this runs no check, as GradedCatPresentation.lawful: the
        full scan of verify_module_category never checks functoriality, so a
        verdict it passed alone does not make the module lawful here.
        """
        verdict = self.__dict__.get("verdict")
        return (verdict is not None and verdict.ok
                and self.__dict__.get("square_middles") is not None)

    @cached_property
    def rebuilt(self) -> GradedCatPresentation:
        """bullet(self), rebuilt once per instance for roundtrip and for
        every bullet functor out of or into it."""
        return bullet(self)


@dataclass
class ModuleFunctorData:
    """A functor together with comparison isos s^h: beta^h F => F alpha^h,
    each a tuple of degree-1 components beta^h F x -> F alpha^h x."""

    functor: FunctorData
    comparison: dict  # h -> components


def extract_action(cat: GradedCatPresentation, shifts=None) -> ModuleCatData:
    """The action of H on the degree-1 part induced by a choice of shifts.

    cat must pass verify_axioms: its verdict is read first, and the first
    violation is raised as a ValueError.  `shifts` is a shift table
    (shift_table): each (iso, inverse) pair comes from invert or
    find_shift, is the identity, or is roundtrip_nu's closed form, so it is
    a two-sided pair.  alpha^h sends f: x -> y to r_{y,h} o f o r_{x,h}^-1
    and epsilon_x is r_{x,1}.
    Each mu component and its inverse are built in one loop:

        mu_{a,b,x} = r_{x,ab} o r_{x,b}^-1 o r_{x<b>,a}^-1,
        mu'_{a,b,x} = r_{x<b>,a} o r_{x,b} o r_{x,ab}^-1.

    When every hom space of cat has rank 1 and every table morphism one
    coordinate, each hom map and each component is one product of the
    table's coordinates and the one constants of two stored tensors.  Each
    such tensor is nonzero: the composites here are of isos with nonzero
    morphisms, which are nonzero in a lawful cat.  Otherwise the
    hom map at (x, y) is postcompose(r_{y,h}) times precompose(r_{x,h}^-1),
    and each component is two `compose` steps.  The choice is made once
    per call.

    mu'_{a,b,x} is the two-sided inverse of mu_{a,b,x}:
    mu o mu' = r_{x,ab} o r_{x,b}^-1 o (r_{x<b>,a}^-1 o r_{x<b>,a}) o r_{x,b}
    o r_{x,ab}^-1 = id by associativity and the units, and mu' o mu = id the
    same way.  A two-sided inverse is unique (g = g o (f o g') =
    (g o f) o g' = g'), so it is the one invert would solve for, and
    mod.inverses is filled with mu' and the table's r_{x,1}^-1.
    """
    verdict = cat.verdict
    if not verdict.ok:
        raise ValueError(f"category fails verification: {verdict.violations[0]}")
    gH = cat.tau.source
    e = gH.identity
    p = cat.field.p
    base = degree_one_part(cat)
    table = shifts if shifts is not None else shift_table(cat)
    rank_one = (all(r == 1 for r in cat.hom_rank.values())
               and all(len(m.coords) == 1 for _, iso, back in table.values()
                       for m in (iso, back)))
    elements = list(gH.elements())
    objects = list(cat.objects())
    inv = {a: gH.inv(a) for a in elements}

    action = {}
    for h in elements:
        h_inv = inv[h]
        hom_maps = {}
        if rank_one:  # alpha^h(f) = r_{y,h} o f o r_{x,h}^-1; t[0, 0][0][1] is _constant(t)
            pre, post = cat.tensors.get((h_inv, e), {}), cat.tensors.get((h_inv, h), {})
            for (x, y, _) in base.hom_rank:
                hx, _, inv_x = table[(x, h)]
                hy, r_y, _ = table[(y, h)]
                hom_maps[(x, y, e)] = ((pre[hx, x, y][0, 0][0][1] * post[hx, y, hy][0, 0][0][1]
                                        * inv_x.coords[0] * r_y.coords[0] % p,),)
        else:
            for (x, y, _) in base.hom_rank:
                hx, _, inv_x = table[(x, h)]
                ba = matmul(postcompose(cat, table[(y, h)][1], hx, h_inv),
                            precompose(cat, inv_x, y, e), p)
                hom_maps[(x, y, e)] = tuple(map(tuple, ba))
        action[h] = FunctorData._trusted(base, base, [table[(x, h)][0] for x in objects],
                                         hom_maps)

    if rank_one:
        # per degree, (target, iso coordinate, inverse coordinate) by object
        rows = {a: [(y, iso.coords[0], back.coords[0])
                    for y, iso, back in (table[(x, a)] for x in objects)] for a in elements}
    mu, mu_inv = {}, {}
    for a in elements:
        for b in elements:
            ab = gH.mul(a, b)
            comps, invs = [], []
            if rank_one:
                t_mu = cat.tensors.get((inv[a], inv[b]), {}), cat.tensors.get((inv[ab], ab), {})
                t_inv = cat.tensors.get((inv[ab], b), {}), cat.tensors.get((inv[a], a), {})
                rows_a, rows_b, rows_ab = rows[a], rows[b], rows[ab]
                for x in objects:
                    xb, r_b, i_b = rows_b[x]
                    xba, r_a, i_a = rows_a[xb]
                    xab, r_ab, i_ab = rows_ab[x]
                    c = (t_mu[0][xba, xb, x][0, 0][0][1] * t_mu[1][xba, x, xab][0, 0][0][1]
                         * i_a * i_b * r_ab % p)
                    c_inv = (t_inv[0][xab, x, xb][0, 0][0][1] * t_inv[1][xab, xb, xba][0, 0][0][1]
                             * i_ab * r_b * r_a % p)
                    comps.append(Morphism(xba, xab, e, (c,)))
                    invs.append(Morphism(xab, xba, e, (c_inv,)))
            else:
                for x in objects:
                    xb, r_b, inv_b = table[(x, b)]
                    _, r_a, inv_a = table[(xb, a)]
                    _, r_ab, inv_ab = table[(x, ab)]
                    comps.append(compose(cat, compose(cat, inv_a, inv_b), r_ab))
                    invs.append(compose(cat, compose(cat, inv_ab, r_b), r_a))
            mu[(a, b)] = tuple(comps)
            mu_inv[(a, b)] = invs
    mod = ModuleCatData(base, action, tuple(table[(x, e)][1] for x in objects), mu)
    mod.__dict__["inverses"] = ([table[(x, e)][2] for x in objects], mu_inv)
    verdict = mod.verdict
    if not verdict.ok:
        raise ValueError(f"extracted action fails coherence: {verdict.violations[0]}")
    return mod


def _scalar_ops(mod: ModuleCatData):
    """(then, image) on degree-1 (src, dst, coords) morphisms of mod.base,
    products of stored constants, 1 x 1 hom matrices and coordinates, or
    None unless every hom space of the base, every object's endomorphisms
    and every component have rank 1.  An absent tensor or matrix is 0."""
    base = mod.base
    e = mod.group.identity
    comps = [*mod.epsilon, *(c for cs in mod.mu.values() for c in cs)]
    if not (all(r == 1 for r in base.hom_rank.values())
            and all(len(c) == 1 for c in base.identities)
            and all(len(c.coords) == 1 and (c.src, c.dst, e) in base.hom_rank for c in comps)):
        return None
    p = base.field.p
    tensors = base.tensors.get((e, e), {})
    action = {a: (F.obj_map, F.hom_maps) for a, F in mod.action.items()}

    def then(f, g):
        if f[1] != g[0]:
            raise ValueError("morphisms are not composable")
        t = tensors.get((f[0], f[1], g[1]))  # its one constant, as _constant reads it
        return (f[0], g[1], (t[0, 0][0][1] * f[2][0] * g[2][0] % p if t else 0,))

    def image(a, f):
        obj_map, maps = action[a]
        m = maps.get((f[0], f[1], e))
        return (obj_map[f[0]], obj_map[f[1]], (m[0][0] * f[2][0] % p if m else 0,))

    return then, image


def verify_module_category(mod: ModuleCatData) -> Verdict:
    """Naturality, invertibility, unit triangles and associativity square.

    epsilon is checked as id => alpha^1 and mu[(a, b)] as
    alpha^a alpha^b => alpha^{ab}, with the endpoints applied from the
    current action.  Every law is read off the base's composition tensors,
    the action's hom matrices and the component coordinates, over every
    degree and object.  When every degree-1 hom space has rank 1
    (skeletons, their direct sums, bullet rebuilds) each morphism is a
    single scalar.

    When `square_middles` holds (the base is lawful, every alpha^a keeps
    identities and composites, and S and the unit are not all of H, S the
    generating set of cayley_tree(H)), one restricted pass runs first:
    epsilon naturality, invertibility of every component, naturality of
    mu[(a, b)] only for b in S and the unit, both unit triangles, and the
    squares with middle degree b in S and the unit.  A clean pass decides
    the verdict, by the two closures below.  Otherwise, as whenever the
    hypotheses fail, every law is scanned in order, and the list is the one
    the full scan gives.

    The square for (a, b, c) at x is

        mu_{ab,c,x} o mu_{a,b,alpha^c x} = mu_{a,bc,x} o alpha^a(mu_{b,c,x}).

    mu-naturality.  Let N be the set of degrees c whose column mu_{., c}
    is natural; the pass puts S and the unit in N.  For s in S the square
    (a, s, c), middle s, gives
    mu_{a,sc} = mu_{as,c} o mu_{a,s} alpha^c o alpha^a(mu_{s,c})^-1, every
    component being invertible.  For c in N the three factors are natural:
    mu_{as,c} since c is in N, mu_{a,s} whiskered by alpha^c since s is in
    N, and alpha^a(mu_{s,c})^-1 since alpha^a is a functor and mu_{s,c} a
    natural iso.  Over an associative base their composite is natural, so
    sc is in N.  Every element of the finite group H is a product of
    elements of S, so N = H (Mac Lane, CWM II.7).

    Squares.  Let M be the set of middles b for which the square holds
    for every a, c and x; M is closed under products.  Take b1, b2 in M and
    P = mu_{a b1 b2,c} o mu_{a b1,b2} o mu_{a,b1}, from
    alpha^a alpha^b1 alpha^b2 alpha^c x to alpha^{a b1 b2 c} x.  The faces
    (a b1, b2, c), (a, b1, b2 c) and (b1, b2, c) of the cube on
    (a, b1, b2, c) have middle b1 or b2, so they commute, the last one
    carried by the functor alpha^a; with the naturality square of
    mu_{a,b1} at mu_{b2,c,x} between them they rewrite P as
    mu_{a,b1 b2 c} o alpha^a(mu_{b1 b2,c}) o alpha^a(mu_{b1,b2}).  The face
    (a, b1, b2), middle b1, rewrites P as
    mu_{a b1 b2,c} o mu_{a,b1 b2} o alpha^a(mu_{b1,b2}).  The common last
    factor alpha^a(mu_{b1,b2,alpha^c x}) is invertible, since mu is and
    alpha^a is a functor, so the (a, b1 b2, c) face commutes: this is the
    identity d3 d2 = 0 in categorical form (Light's test, Clifford and
    Preston I, 1.2).  Hence M contains <S> = H.
    """
    base = mod.base
    # images repeat across the degrees the naturality squares pair them with
    then, image = _scalar_ops(mod) or (lambda f, g: _then(base, f, g),
                                       cache(lambda a, f: _image(mod.action[a], f)))
    middles = mod.square_middles
    if middles is not None and next(_module_violations(mod, then, image, middles), None) is None:
        return Verdict([])
    return Verdict(list(_module_violations(mod, then, image)))


def _module_violations(mod: ModuleCatData, then, image, middles=None):
    """The law violations of mod in report order, with mu-naturality and
    the squares scanned only for b in middles (every b when None).  A
    component that is not natural or not invertible ends the scan before
    the unit triangles and squares."""
    base = mod.base
    gH = mod.group
    e = gH.identity
    eps_inv, mu_inv = mod.inverses
    violations = []

    def unnatural(comps, F, G):
        """The first violation of comps as F => G, or None; every morphism
        of the base has degree 1, so then and image take no degrees."""
        return next(_nat_violations(base, base, comps, F, G, lambda f, g, *_: then(f, g)),
                    None)

    v = unnatural(mod.epsilon, lambda f, h: f, lambda f, h: image(e, f))
    if v:
        violations.append(("epsilon-naturality", v))
    for x in base.objects():
        if eps_inv[x] is None:
            violations.append(("epsilon-not-invertible", x))
    for (a, b), comps in sorted(mod.mu.items()):
        if middles is None or b in middles:
            ab = gH.mul(a, b)
            v = unnatural(comps, lambda f, h: image(a, image(b, f)),
                          lambda f, h: image(ab, f))
            if v:
                violations.append(("mu-naturality", a, b, v))
        for x in base.objects():
            if mu_inv[(a, b)][x] is None:
                violations.append(("mu-not-invertible", a, b, x))
    if violations:
        yield from violations
        return

    eps = [_coords(c) for c in mod.epsilon]
    mu = {ab: [_coords(c) for c in comps] for ab, comps in mod.mu.items()}
    for h in gH.elements():
        ah = mod.action[h].obj_map
        for x in base.objects():
            hx = ah[x]
            identity = (hx, hx, base.identities[hx])
            if then(eps[hx], mu[(e, h)][x]) != identity:
                yield ("unit-left", h, x)
            if then(image(h, eps[x]), mu[(h, e)][x]) != identity:
                yield ("unit-right", h, x)
    yield from _square_violations(mod, mu, then, image, middles)


def _square_middles(mod: ModuleCatData):
    """S and the unit, when the laws at these degrees decide the rest (see
    verify_module_category), or None; ModuleCatData.square_middles keeps it.

    None when they are every degree, when the base is not known lawful, or
    when some alpha^a is no functor on the base: one on another presentation,
    or one that breaks the identity or composition law.  verify_functor also
    reports that alpha^a moves object degrees, by tau(a), which the proofs
    do not need.
    """
    gH, base = mod.group, mod.base
    middles = frozenset(cayley_tree(gH)[0]) | {gH.identity}
    if len(middles) == gH.order or not base.lawful:
        return None
    if any(F.source is not base or F.target is not base for F in mod.action.values()):
        return None
    if any(v[0] != "object-degree" for F in mod.action.values()
           for v in verify_functor(F).violations):
        return None
    return middles


def _square_violations(mod: ModuleCatData, mu, then, image, middles=None):
    """The associativity squares (a, b, c, x) that fail, with b in middles
    (every b when None), in (a, b, c, x) order."""
    gH = mod.group
    elements = list(gH.elements())
    mids = [b for b in elements if middles is None or b in middles]
    objects = list(mod.base.objects())
    for a in elements:
        for b in mids:
            ab = gH.mul(a, b)
            mu_ab = mu[(a, b)]
            for c in elements:
                c_map = mod.action[c].obj_map
                mu_ab_c, mu_bc = mu[(ab, c)], mu[(b, c)]
                mu_a_bc = mu[(a, gH.mul(b, c))]
                for x in objects:
                    lhs = then(mu_ab[c_map[x]], mu_ab_c[x])
                    if lhs != then(image(a, mu_bc[x]), mu_a_bc[x]):
                        yield ("assoc", a, b, c, x)


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
    """Rebuild a graded category: Hom^h(X, Y) := Hom(alpha^h X, Y).

    mod must pass verify_module_category: its verdict is read first, and
    the first violation is raised as a ValueError, as is the first
    violation of the degree law.  The degree-h2 morphism
    g: alpha^{h2} Y -> Z after the degree-h morphism f: alpha^h X -> Y is
    g o alpha^{h2}(f) o mu^-1_{h2,h,X}, from s = alpha^{h2 h} X.  Column i
    of mids, precompose(mu^-1) times alpha^{h2}'s hom matrix, is
    alpha^{h2}(f_i) o mu^-1, and precompose of it to Z gives the tensor's
    entries at (j, i).  When every hom space of the base has rank 1, that
    column is one product of scalars, and each tensor is it times the one
    constant of the base's tensor, an absent one counting as 0, as the
    matrices give.  The choice is made once per call.
    """
    verdict = mod.verdict
    if not verdict.ok:
        raise ValueError(f"module data fails coherence: {verdict.violations[0]}")
    base = mod.base
    gH = mod.group
    e = gH.identity
    tdeg = check_tau_module(mod)
    if not tdeg.ok:
        raise ValueError(f"action violates the degree law: {tdeg.violations[0]}")
    eps_inv, mu_inv = mod.inverses
    p = base.field.p
    rank_one = all(r == 1 for r in base.hom_rank.values())
    tensors = base.tensors.get((e, e), {})

    # the base has degree-1 morphisms only: out_homs(hx) lists the nonzero Hom(hx, y)
    hom_rank = {(x, y, h): r for x in base.objects() for h in gH.elements()
                for y, _, r in base.out_homs(mod.action[h].obj_map[x])}
    # (g_j o alpha^{h2}(f_i) o mu^-1)[k] = sum_m T(s, h2y, z)[k][j][m] mids[m][i]
    # with column i of mids alpha^{h2}(f_i) o mu^-1_{h2,h,x}: s -> h2y, s = alpha^{h2 h} x
    comp = {}
    for x in base.objects():
        for h in gH.elements():
            hx = mod.action[h].obj_map[x]
            for y, _, r1 in base.out_homs(hx):
                for h2 in gH.elements():
                    deg = gH.mul(h2, h)
                    start, h2y = mu_inv[(h2, h)][x], mod.action[h2].obj_map[y]
                    s, group = start.src, comp.setdefault((h, h2), {})
                    if rank_one:
                        alpha = mod.action[h2].hom_maps.get((hx, y, e))
                        mid = (_constant(tensors.get((s, start.dst, h2y))) * start.coords[0]
                               * (alpha[0][0] if alpha else 0) % p)
                        for z, _, _ in base.out_homs(h2y):
                            if (x, z, deg) in hom_rank:
                                group[(x, y, z)] = _scalar(_constant(tensors.get((s, h2y, z)))
                                                           * mid % p)
                    else:
                        mids = matmul(precompose(base, start, h2y, e),
                                      mod.action[h2].matrix(hx, y, e), p)
                        # column i of mids is alpha^{h2}(f_i) o mu^-1: s -> h2y
                        befores = [Morphism(s, h2y, e, u) for u in zip(*mids)]
                        for z, _, _ in base.out_homs(h2y):
                            if (x, z, deg) in hom_rank:
                                group[(x, y, z)] = {
                                    (j, i): nonzero for i, u in enumerate(befores)
                                    for j, col in enumerate(zip(*precompose(base, u, z, e)))
                                    if (nonzero := tuple((k, c) for k, c in enumerate(col) if c))}
    identities = [eps_inv[x].coords for x in base.objects()]
    out = GradedCatPresentation._trusted(base.tau, base.field, base.degrees, hom_rank,
                                         comp, identities)
    verdict = out.verdict
    if not verdict.ok:
        raise ValueError(f"incoherent action data: {verdict.violations[0]}")
    return out


def verify_module_functor(mf: ModuleFunctorData, src: ModuleCatData,
                          dst: ModuleCatData) -> Verdict:
    """Functor axioms plus the unit triangle and composition hexagon for s.

    Each comparison s^h is checked as beta^h F => F alpha^h, with the
    endpoints applied from the current functor and actions.  The hexagon
    H(a, b) at x is

        s^{ab}_x o mu^beta_{a,b,Fx} = F(mu^alpha_{a,b,x}) o s^a_{alpha^b x} o beta^a(s^b_x).

    Once F is a functor from src.base to dst.base, every s^h is natural and
    invertible, the unit triangle holds, and both modules are lawful
    (ModuleCatData.lawful) over one group, the hexagons are first scanned
    only for b in S and the unit (src.square_middles).  For s in S, H(a, sc)
    follows from H(as, c), H(a, s) at alpha^c x and H(s, c).  Compose its
    left side with the invertible beta^a(mu^beta_{s,c,Fx}) and rewrite:
    the square (a, s, c) of beta splits mu^beta_{a,sc}; H(as, c) moves
    mu^beta_{as,c} across; naturality of mu^beta_{a,s} at s^c_x and then
    H(a, s) at alpha^c x move mu^beta_{a,s}; F is a functor, so the square
    (a, s, c) of alpha joins F(mu^alpha_{as,c}) o F(mu^alpha_{a,s,alpha^c x})
    into F(mu^alpha_{a,sc}) o F alpha^a(mu^alpha_{s,c}); naturality of s^a
    at mu^alpha_{s,c,x} and beta^a a functor collect
    beta^a(F(mu^alpha_{s,c}) o s^s_{alpha^c x} o beta^s(s^c_x)), which is
    beta^a(s^{sc}_x o mu^beta_{s,c,Fx}) by H(s, c).  Both sides of H(a, sc)
    then end in beta^a(mu^beta_{s,c,Fx}), which cancels.  So the columns b
    whose hexagons all hold contain the unit and are closed under left
    multiplication by S: they are all of H.  A violation found there, or a
    hypothesis not established, runs the full ordered scan, and the list is
    the one it gives.
    """
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
        beta, alpha = dst.action[h], src.action[h]
        v = next(_nat_violations(src.base, base_d, comps,
                                 lambda f, h: _image(beta, _image(F, f, h), h),
                                 lambda f, h: _image(F, _image(alpha, f, h), h),
                                 partial(_then, base_d)), None)
        if v:
            violations.append(("comparison-naturality", h, v))
        for x, c in enumerate(comps):
            # an identity of base_d is its own inverse: nu's comparisons all are
            identity = c.src in base_d.objects() and c == identity_morphism(base_d, c.src)
            if not identity and invert(base_d, c) is None:
                violations.append(("comparison-not-invertible", h, x))
    if violations:
        return Verdict(violations)

    s = {h: [_coords(c) for c in comps] for h, comps in mf.comparison.items()}
    for x in src.base.objects():
        lhs = _then(base_d, _coords(dst.epsilon[F.obj_map[x]]), s[e][x])
        if lhs != _image(F, _coords(src.epsilon[x])):
            violations.append(("unit-triangle", x))
    middles = None
    if (not violations and src.lawful and dst.lawful and src.group == dst.group
            and F.source is src.base and F.target is base_d):
        middles = src.square_middles
    if middles is None or next(_hexagon_violations(mf, src, dst, s, middles), None):
        violations.extend(_hexagon_violations(mf, src, dst, s))
    return Verdict(violations)


def _hexagon_violations(mf: ModuleFunctorData, src: ModuleCatData, dst: ModuleCatData,
                        s, middles=None):
    """The hexagons (a, b, x) that fail, with b in middles (every b when
    None), in (a, b, x) order; s holds the comparisons as coordinates."""
    F = mf.functor
    gH = src.group
    base_d = dst.base
    for a in gH.elements():
        for b in gH.elements():
            if middles is not None and b not in middles:
                continue
            ab = gH.mul(a, b)
            for x in src.base.objects():
                bx = src.action[b].obj_map[x]
                lhs = _then(base_d, _coords(dst.mu[(a, b)][F.obj_map[x]]), s[ab][x])
                step = _then(base_d, _image(dst.action[a], s[b][x]), s[a][bx])
                rhs = _then(base_d, step, _image(F, _coords(src.mu[(a, b)][x])))
                if lhs != rhs:
                    yield ("hexagon", a, b, x)


def identity_module_functor(mod: ModuleCatData) -> ModuleFunctorData:
    return ModuleFunctorData(identity_functor(mod.base), {
        h: tuple(identity_morphism(mod.base, hx) for hx in mod.action[h].obj_map)
        for h in mod.group.elements()})


def compose_module_functors(mf1: ModuleFunctorData, mf2: ModuleFunctorData,
                            src: ModuleCatData, mid: ModuleCatData,
                            dst: ModuleCatData) -> ModuleFunctorData:
    """Apply mf1 first, then mf2; comparisons compose as E s^h o r^h_F."""
    F, E = mf1.functor, mf2.functor
    e = src.group.identity
    comparison = {}
    for h in src.group.elements():
        s1, s2 = mf1.comparison[h], mf2.comparison[h]
        comparison[h] = tuple(Morphism(c[0], c[1], e, c[2]) for c in (
            _then(dst.base, _coords(s2[F.obj_map[x]]), _image(E, _coords(s1[x])))
            for x in src.base.objects()))
    return ModuleFunctorData(compose_functors(F, E), comparison)


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
            lhs = _then(base_d, _coords(mf_src.comparison[h][x]),
                        _coords(nt.component(src.action[h].obj_map[x])))
            rhs = _then(base_d, _image(dst.action[h], _coords(nt.component(x))),
                        _coords(mf_dst.comparison[h][x]))
            if lhs != rhs:
                violations.append(("module-square", h, x))
    return Verdict(violations)


def bullet_functor(mf: ModuleFunctorData, src: ModuleCatData,
                   dst: ModuleCatData) -> FunctorData:
    """Degree-h morphisms f: alpha^h X -> Y map to F f o s^h_X."""
    b_src, b_dst = src.rebuilt, dst.rebuilt
    F = mf.functor
    e = src.group.identity
    p = dst.base.field.p
    hom_maps = {}
    for (x, y, h) in b_src.hom_rank:
        after = precompose(dst.base, mf.comparison[h][x], F.obj_map[y], e)
        hom_maps[(x, y, h)] = matmul(after, F.matrix(src.action[h].obj_map[x], y, e), p)
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
        m = _then(base_d, _coords(dst.inverses[0][ex]), _coords(nt.component(x)))
        comps.append(Morphism(ex, mf_dst.functor.obj_map[x], src.group.identity, m[2]))
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
    p = cat_d.field.p
    hom_maps = {k: F.matrix(*k) for k in mod_c.base.hom_rank}
    F1 = FunctorData._trusted(mod_c.base, mod_d.base, F.obj_map, hom_maps)
    comparison = {}
    for a in cat_c.tau.source.elements():
        comps = []
        for x in cat_c.objects():
            # F(r_{x,a}) o r_{Fx,a}^-1: alpha^a F x -> F alpha^a x
            ax, iso, _ = table_c[(x, a)]
            image = Morphism(F.obj_map[x], F.obj_map[ax], a,
                             matvec(F.matrix(x, ax, a), iso.coords, p))
            comps.append(compose(cat_d, table_d[(F.obj_map[x], a)][2], image))
        comparison[a] = tuple(comps)
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
    table = shift_table(cat) if cat.verdict.ok else None  # else extract_action raises
    mod = extract_action(cat, shifts=table)
    rebuilt = mod.rebuilt
    eta, eta_inv = roundtrip_eta(cat, table, rebuilt)
    nu, nu_inv, rebuilt_mod = roundtrip_nu(mod, rebuilt)
    return RoundTrip(mod, rebuilt, eta, eta_inv, nu, nu_inv, rebuilt_mod)


def roundtrip_eta(cat: GradedCatPresentation, table, rebuilt: GradedCatPresentation):
    """Strictly invertible comparison from the rebuilt category back to cat.

    `table` is the shift table the action of `rebuilt` was extracted with.
    Returns (eta, eta_inv) with eta o eta_inv and eta_inv o eta the identity
    functors on the nose.  Only eta is verified: a strict two-sided inverse
    G of a functor F is a functor, since G(id) = G(F(id)) = id and
    G(g o f) = G(F(G g) o F(G f)) = G(F(G g o G f)) = G g o G f.
    """
    e = cat.tau.source.identity
    # eta: f -> f o r_{x,h} on Hom(alpha^h x, y); eta_inv: f -> f o r_{x,h}^-1
    eta = FunctorData._trusted(rebuilt, cat, cat.objects(), {
        (x, y, h): precompose(cat, table[(x, h)][1], y, e)
        for (x, y, h) in rebuilt.hom_rank})
    eta_inv = FunctorData._trusted(cat, rebuilt, cat.objects(), {
        (x, y, h): precompose(cat, table[(x, h)][2], y, h) for (x, y, h) in cat.hom_rank})

    verdict = verify_functor(eta)
    if not verdict.ok:
        raise ValueError(f"round trip functor fails: {verdict.violations[0]}")
    if compose_functors(eta, eta_inv) != identity_functor(rebuilt):
        raise ValueError("eta_inv is not a strict left inverse")
    if compose_functors(eta_inv, eta) != identity_functor(cat):
        raise ValueError("eta_inv is not a strict right inverse")
    return eta, eta_inv


def roundtrip_nu(mod: ModuleCatData, rebuilt: GradedCatPresentation):
    """Strictly invertible module comparison from the rebuilt action to mod.

    `rebuilt` is bullet(mod), and rebuilt_mod its action on the identity
    shifts X<a> = alpha^a X.  Returns (nu, nu_inv, rebuilt_mod); both
    composites are checked equal to the identity module functors.  Only nu
    is verified as a module functor.  Write nu = (F, s) and nu_inv = (G, t).
    G is a functor, as a strict inverse of one (roundtrip_eta).  The
    composite nu_inv then nu has comparisons F(t^h_x) o s^h_{Gx}, so its
    being the identity forces t^h_x = G((s^h_{Gx})^-1).  So t^h is G
    applied to the inverse of the natural iso s^h whiskered by G: natural
    and invertible.  G applied to the inverted unit triangle and hexagon
    of (F, s) at Gx gives those of (G, t) at x.

    The shift of x by a is i = id_{alpha^a x}, of degree a in the rebuild,
    and its inverse there is the base morphism
    j = epsilon_x^-1 o mu_{a^-1,a,x}: alpha^{a^-1} alpha^a x -> x of degree
    a^-1, so no shift is inverted.  Rebuilt composition is
    g . f = g o alpha^{h2}(f) o mu^-1_{h2,h}, and the rebuild's identity at
    x is epsilon_x^-1.  mod is a module category (extract_action's alpha^a
    are functors), so
    j . i = epsilon_x^-1 o mu_{a^-1,a,x} o alpha^{a^-1}(id) o mu^-1_{a^-1,a,x}
    = epsilon_x^-1.  The unit triangles give alpha^a(epsilon_x^-1) = mu_{a,1,x}
    and epsilon_{ax}^-1 = mu_{1,a,x}, and the square (a, a^-1, a) at x gives
    mu_{a,1,x} o alpha^a(mu_{a^-1,a,x}) = mu_{1,a,x} o mu_{a,a^-1,ax}; so
    i . j = alpha^a(epsilon_x^-1 o mu_{a^-1,a,x}) o mu^-1_{a,a^-1,ax}
    = epsilon_{ax}^-1, the identity at ax.
    """
    base = mod.base
    gH = mod.group
    e = gH.identity
    eps_inv = mod.inverses[0]
    table = {}  # x -> alpha^a x by the identity of alpha^a x; id_x at the unit
    for a, F in mod.action.items():
        a_inv = gH.inv(a)
        mu = mod.mu[(a_inv, a)]
        for x, ax in enumerate(F.obj_map):
            if a == e:
                idm = identity_morphism(rebuilt, x)
                table[(x, a)] = (x, idm, idm)
            else:
                back = _then(base, _coords(mu[x]), _coords(eps_inv[x]))[2]
                table[(x, a)] = (ax, Morphism(x, ax, a, base.identities[ax]),
                                 Morphism(ax, x, a_inv, back))
    bmod = extract_action(rebuilt, shifts=table)
    # nu: f -> f o epsilon_x on Hom(alpha^1 x, y); nu_inv: f -> f o epsilon_x^-1
    nu_f = FunctorData._trusted(bmod.base, base, base.objects(), {
        (x, y, e): precompose(base, mod.epsilon[x], y, e) for (x, y, _) in bmod.base.hom_rank})
    nu_inv_f = FunctorData._trusted(base, bmod.base, base.objects(), {
        (x, y, e): precompose(base, eps_inv[x], y, e) for (x, y, _) in base.hom_rank})

    ident, ident_b = identity_module_functor(mod), identity_module_functor(bmod)
    nu = ModuleFunctorData(nu_f, ident.comparison)
    nu_inv = ModuleFunctorData(nu_inv_f, ident_b.comparison)

    v = verify_module_functor(nu, bmod, mod)
    if not v.ok:
        raise ValueError(f"nu fails module axioms: {v.violations[0]}")
    left = compose_module_functors(nu_inv, nu, mod, bmod, mod)
    if left != ident:
        raise ValueError("nu_inv is not a strict right inverse")
    right = compose_module_functors(nu, nu_inv, bmod, mod, bmod)
    if right != ident_b:
        raise ValueError("nu_inv is not a strict left inverse")
    return nu, nu_inv, bmod
