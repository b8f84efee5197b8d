"""Builders for the canonical graded categories.

`build_skeleton` realises the indecomposable semisimple skeleton attached
to a subgroup L <= ker(tau) and a normalised 2-cocycle psi on H/L: one
object per coset hL, a one-dimensional Hom^a(R_hL, R_ahL) spanned by a
basis morphism e, composition e^a o e^b = psi(a,b)(hL)^-1 e^{ab}, object
degrees tau(h) g.  `build_group_groupoid` linearises the action groupoid
of tau.  The cyclic table family of C8 -> C2 examples is the trivially
twisted skeleton on each subgroup of C8, including the whole group, which
is not inside ker(tau) and so breaks the grading law.
"""

from __future__ import annotations

from dataclasses import dataclass

from .category import GradedCatPresentation, Morphism, invert, is_simple
from .cochains import Cochain2, c2_inv, cocycle_violation, trivial_cochain2
from .fields import PrimeField
from .groups import (GroupHom, Subgroup, coset_space, cyclic_group, kernel, reduction_hom,
                     subgroup)


@dataclass(frozen=True)
class MtauSpec:
    """The data (L, psi, g) presenting one indecomposable semisimple block."""

    tau: GroupHom
    field: PrimeField
    L: Subgroup
    psi: Cochain2
    g: int


def mtau_spec(tau: GroupHom, field: PrimeField, L: Subgroup, psi: Cochain2,
              g: int) -> MtauSpec:
    ker = set(kernel(tau).elements)
    if not set(L.elements) <= ker:
        raise ValueError("L must be contained in the kernel of tau")
    space = coset_space(tau.source, L)
    if psi.space != space:
        raise ValueError("psi is not a cochain on H/L")
    if psi.field != field:
        raise ValueError("psi lives over a different field")
    bad = cocycle_violation(psi)
    if bad is not None:
        raise ValueError(f"psi is not a 2-cocycle; fails at {bad}")
    if not 0 <= g < tau.target.order:
        raise ValueError("base degree g out of range")
    return MtauSpec(tau, field, L, psi, g)


def trivial_spec(tau: GroupHom, field: PrimeField, L: Subgroup,
                 g: int | None = None) -> MtauSpec:
    if g is None:
        g = tau.target.identity
    return mtau_spec(tau, field, L, trivial_cochain2(field, coset_space(tau.source, L)), g)


def build_skeleton(spec: MtauSpec) -> GradedCatPresentation:
    """One simple object per coset of L, with psi twisting composition."""
    tau, f = spec.tau, spec.field
    gH, gG = tau.source, tau.target
    space = spec.psi.space
    n = space.size
    perms = space.act
    psi_inv = c2_inv(spec.psi).units()

    degrees = [gG.mul(tau.map[space.reps[i]], spec.g) for i in range(n)]
    hom_rank = {}
    for i in range(n):
        for a in gH.elements():
            hom_rank[(i, perms[a][i], a)] = 1
    comp = {}
    for i in range(n):
        for b in gH.elements():
            j = perms[b][i]
            for a in gH.elements():
                k = perms[a][j]
                comp[(i, j, k, b, a)] = (((psi_inv[a][b][i],),),)
    identities = [(1,)] * n
    return GradedCatPresentation._trusted(tau, f, degrees, hom_rank, comp, identities)


def basis_inverse(spec: MtauSpec, coset: int, a: int) -> Morphism:
    """Closed-form inverse of the basis morphism e^a out of the given coset."""
    gH = spec.tau.source
    space = spec.psi.space
    j = space.act[a][coset]
    a_inv = gH.inv(a)
    scalar = spec.field.exp(spec.psi.at(a_inv, a).exps[coset])
    return Morphism(j, coset, a_inv, (scalar,))


def build_group_groupoid(tau: GroupHom, field: PrimeField) -> GradedCatPresentation:
    """Linearised action groupoid: objects G, morphisms (h, g): g -> tau(h)g."""
    gH, gG = tau.source, tau.target
    n = gG.order
    degrees = list(range(n))
    hom_rank = {}
    for g in range(n):
        for h in gH.elements():
            hom_rank[(g, gG.mul(tau.map[h], g), h)] = 1
    comp = {}
    for g in range(n):
        for h in gH.elements():
            mid = gG.mul(tau.map[h], g)
            for h2 in gH.elements():
                dst = gG.mul(tau.map[h2], mid)
                comp[(g, mid, dst, h, h2)] = (((1,),),)
    identities = [(1,)] * n
    return GradedCatPresentation._trusted(tau, field, degrees, hom_rank, comp, identities)


def parity_tau() -> GroupHom:
    """The homomorphism C8 -> C2, x -> x mod 2 (the running example family)."""
    return reduction_hom(8, 2)


def cyclic_table_category(field: PrimeField, k: int) -> GradedCatPresentation:
    """The C8 -> C2 table family: 8/k objects, congruence mod 8/k.

    Objects a in Z/(8/k) have degree a mod 2 and Hom^{x^n}(a, b) = R exactly
    when a + n = b mod 8/k; all structure constants are 1.  That is the
    trivially twisted skeleton on the order-k subgroup at g = 0, whose
    shift_table scan finds a -> a + n by coordinate 1 when k < 8.  For k = 8
    the subgroup is not inside ker(tau), so the spec bypasses mtau_spec: the
    single object cannot track parity, the grading law genuinely fails there
    and `verify_axioms` reports it.
    """
    tau = parity_tau()
    L = cyclic_subgroup_of_order(k)
    psi = trivial_cochain2(field, coset_space(tau.source, L))
    return build_skeleton(MtauSpec(tau, field, L, psi, 0))


def cyclic_subgroup_of_order(k: int) -> Subgroup:
    """The order-k subgroup of C8 (k dividing 8)."""
    if k not in (1, 2, 4, 8):
        raise ValueError("k must divide 8")
    c8 = cyclic_group(8)
    step = 8 // k
    return subgroup(c8, [i * step % 8 for i in range(k)])


def simple_census(cat: GradedCatPresentation):
    """Number of simple objects per object degree."""
    census = {}
    for x in cat.objects():
        if is_simple(cat, x):
            census[cat.degrees[x]] = census.get(cat.degrees[x], 0) + 1
    return census


def check_skeleton_inverses(spec: MtauSpec, cat: GradedCatPresentation) -> bool:
    """basis_inverse agrees with the linear-algebra inverse, which is
    two-sided by construction, on every (coset, a)."""
    gH = spec.tau.source
    space = spec.psi.space
    for i in range(space.size):
        for a in gH.elements():
            e = Morphism(i, space.act[a][i], a, (1,))
            direct = basis_inverse(spec, i, a)
            if invert(cat, e) != direct:
                return False
    return True
