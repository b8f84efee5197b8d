"""Normalised cochains on a finite group H valued in Map(H/L, F_p^x).

The coefficient module carries the right H-action (f <| h)(kL) = f(hkL).
Degrees 0, 1, 2 are enough for the classification machinery: 2-cocycles
present skeletal categories, 1-cochains twist equivalences between them,
0-cochains twist natural isomorphisms between those.

Differentials (all multiplicative, pointwise on cosets):

    d0(eta)(a)(hL)    = eta(hL) * eta(a hL)^-1
    d1(gamma)(a,b)(hL) = gamma(ab)(hL) * gamma(a)(b hL)^-1 * gamma(b)(hL)^-1
    d2(psi)(a,b,c)    = psi(b,c) * psi(ab,c)^-1 * psi(a,bc) * (psi(a,b)^-1 <| c)

With these conventions d1(d0(eta)) = 1 and d2(d1(gamma)) = 1 identically,
and a 1-cochain gamma solving  target = d1(gamma)  twists basis morphisms
e -> gamma * e' into a functor that strictly preserves composition.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random

from . import znsolve
from .fields import PrimeField
from .groups import (CosetSpace, conjugate_subgroup, coset_space,
                     left_action_on_cosets)


@dataclass(frozen=True)
class UnitFunction:
    """A unit of F_p attached to every coset of H/L."""

    field: PrimeField
    space: CosetSpace
    values: tuple[int, ...]


def unit_function(field: PrimeField, space: CosetSpace, values) -> UnitFunction:
    vals = tuple(int(v) % field.p for v in values)
    if len(vals) != space.size:
        raise ValueError("one unit per coset required")
    if any(v == 0 for v in vals):
        raise ValueError("unit functions must avoid 0")
    return UnitFunction(field, space, vals)


def constant_one(field: PrimeField, space: CosetSpace) -> UnitFunction:
    return UnitFunction(field, space, (1,) * space.size)


def uf_mul(f: UnitFunction, g: UnitFunction) -> UnitFunction:
    return UnitFunction(f.field, f.space,
                        tuple(f.field.mul(a, b) for a, b in zip(f.values, g.values)))


def uf_inv(f: UnitFunction) -> UnitFunction:
    return UnitFunction(f.field, f.space, tuple(f.field.inv(v) for v in f.values))


def act(f: UnitFunction, h: int) -> UnitFunction:
    """Right action: act(f, h)(kL) = f(h k L)."""
    perm = left_action_on_cosets(f.space, h)
    return UnitFunction(f.field, f.space, tuple(f.values[perm[i]] for i in range(f.space.size)))


@dataclass(frozen=True)
class Cochain0:
    field: PrimeField
    space: CosetSpace
    values: tuple[int, ...]  # unit per coset


@dataclass(frozen=True)
class Cochain1:
    field: PrimeField
    space: CosetSpace
    values: tuple[tuple[int, ...], ...]  # values[a][coset]

    def at(self, a: int) -> UnitFunction:
        return UnitFunction(self.field, self.space, self.values[a])


@dataclass(frozen=True)
class Cochain2:
    field: PrimeField
    space: CosetSpace
    values: tuple[tuple[tuple[int, ...], ...], ...]  # values[a][b][coset]

    def at(self, a: int, b: int) -> UnitFunction:
        return UnitFunction(self.field, self.space, self.values[a][b])


def cochain1(field: PrimeField, space: CosetSpace, values) -> Cochain1:
    n = space.parent.order
    e = space.parent.identity
    vals = tuple(tuple(int(v) % field.p for v in values[a]) for a in range(n))
    for a in range(n):
        if len(vals[a]) != space.size or any(v == 0 for v in vals[a]):
            raise ValueError("1-cochain needs a unit per (element, coset)")
    if any(v != 1 for v in vals[e]):
        raise ValueError("1-cochain must be normalised: value 1 at the identity")
    return Cochain1(field, space, vals)


def cochain2(field: PrimeField, space: CosetSpace, values) -> Cochain2:
    n = space.parent.order
    e = space.parent.identity
    vals = tuple(
        tuple(tuple(int(v) % field.p for v in values[a][b]) for b in range(n))
        for a in range(n)
    )
    for a in range(n):
        for b in range(n):
            if len(vals[a][b]) != space.size or any(v == 0 for v in vals[a][b]):
                raise ValueError("2-cochain needs a unit per (pair, coset)")
    for h in range(n):
        if any(v != 1 for v in vals[e][h]) or any(v != 1 for v in vals[h][e]):
            raise ValueError("2-cochain must be normalised on identity pairs")
    return Cochain2(field, space, vals)


def trivial_cochain1(field: PrimeField, space: CosetSpace) -> Cochain1:
    n = space.parent.order
    return Cochain1(field, space, tuple(((1,) * space.size) for _ in range(n)))


def trivial_cochain2(field: PrimeField, space: CosetSpace) -> Cochain2:
    n = space.parent.order
    row = tuple(((1,) * space.size) for _ in range(n))
    return Cochain2(field, space, tuple(row for _ in range(n)))


def random_cochain1(field: PrimeField, space: CosetSpace, rng: Random) -> Cochain1:
    n = space.parent.order
    e = space.parent.identity
    m = max(field.unit_order, 1)
    vals = []
    for a in range(n):
        if a == e:
            vals.append((1,) * space.size)
        else:
            vals.append(tuple(field.exp(rng.randrange(m)) for _ in range(space.size)))
    return Cochain1(field, space, tuple(vals))


def random_cochain0(field: PrimeField, space: CosetSpace, rng: Random) -> Cochain0:
    m = max(field.unit_order, 1)
    return Cochain0(field, space,
                    tuple(field.exp(rng.randrange(m)) for _ in range(space.size)))


def c1_mul(x: Cochain1, y: Cochain1) -> Cochain1:
    f = x.field
    return Cochain1(f, x.space, tuple(
        tuple(f.mul(a, b) for a, b in zip(ra, rb)) for ra, rb in zip(x.values, y.values)))


def c1_inv(x: Cochain1) -> Cochain1:
    f = x.field
    return Cochain1(f, x.space, tuple(tuple(f.inv(v) for v in row) for row in x.values))


def c2_mul(x: Cochain2, y: Cochain2) -> Cochain2:
    f = x.field
    return Cochain2(f, x.space, tuple(
        tuple(tuple(f.mul(a, b) for a, b in zip(ca, cb)) for ca, cb in zip(ra, rb))
        for ra, rb in zip(x.values, y.values)))


def c2_inv(x: Cochain2) -> Cochain2:
    f = x.field
    return Cochain2(f, x.space, tuple(
        tuple(tuple(f.inv(v) for v in cell) for cell in row) for row in x.values))


def d0(eta: Cochain0, a: int) -> UnitFunction:
    f = eta.field
    perm = left_action_on_cosets(eta.space, a)
    return UnitFunction(f, eta.space, tuple(
        f.mul(eta.values[i], f.inv(eta.values[perm[i]])) for i in range(eta.space.size)))


def d0_cochain(eta: Cochain0) -> Cochain1:
    n = eta.space.parent.order
    return Cochain1(eta.field, eta.space, tuple(d0(eta, a).values for a in range(n)))


def d1(gamma: Cochain1, a: int, b: int) -> UnitFunction:
    f = gamma.field
    g = gamma.space.parent
    perm_b = left_action_on_cosets(gamma.space, b)
    ab = g.mul(a, b)
    vals = tuple(
        f.mul(gamma.values[ab][i],
              f.inv(f.mul(gamma.values[a][perm_b[i]], gamma.values[b][i])))
        for i in range(gamma.space.size)
    )
    return UnitFunction(f, gamma.space, vals)


def d1_cochain(gamma: Cochain1) -> Cochain2:
    n = gamma.space.parent.order
    return Cochain2(gamma.field, gamma.space, tuple(
        tuple(d1(gamma, a, b).values for b in range(n)) for a in range(n)))


def d2(psi: Cochain2, a: int, b: int, c: int) -> UnitFunction:
    g = psi.space.parent
    ab, bc = g.mul(a, b), g.mul(b, c)
    out = uf_mul(psi.at(b, c), uf_inv(psi.at(ab, c)))
    out = uf_mul(out, psi.at(a, bc))
    return uf_mul(out, act(uf_inv(psi.at(a, b)), c))


def cocycle_violation(psi: Cochain2):
    """First (a, b, c) where the 2-cocycle identity fails, else None."""
    n = psi.space.parent.order
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if any(v != 1 for v in d2(psi, a, b, c).values):
                    return (a, b, c)
    return None


def is_cocycle(psi: Cochain2) -> bool:
    return cocycle_violation(psi) is None


def _conjugate_lookup(space: CosetSpace, t: int):
    """The coset space of t L' t^-1, and for each of its cosets hL the
    L'-coset of h*t, which is independent of the representative chosen."""
    g = space.parent
    new_space = coset_space(g, conjugate_subgroup(space.subgroup, t))
    return new_space, tuple(space.coset_of[g.mul(r, t)] for r in new_space.reps)


def translate(psi: Cochain2, t: int) -> Cochain2:
    """Transport a 2-cochain on H/L' to the conjugate subgroup t L' t^-1."""
    new_space, lookup = _conjugate_lookup(psi.space, t)
    return Cochain2(psi.field, new_space, tuple(
        tuple(tuple(cell[i] for i in lookup) for cell in row) for row in psi.values))


def translate_c1(gamma: Cochain1, t: int) -> Cochain1:
    """Same transport as `translate`, one degree down."""
    new_space, lookup = _conjugate_lookup(gamma.space, t)
    return Cochain1(gamma.field, new_space, tuple(
        tuple(row[i] for i in lookup) for row in gamma.values))


# -- linear solvers ----------------------------------------------------------
#
# Unknowns are discrete logs of the cochain values; the multiplicative
# equations then become linear systems over Z/(p-1), solved exactly.


def _c1_vars(space: CosetSpace):
    e = space.parent.identity
    return [(a, i) for a in range(space.parent.order) if a != e
            for i in range(space.size)]


def _c1_to_exponents(gamma: Cochain1):
    f = gamma.field
    return tuple(f.log(gamma.values[a][i]) for (a, i) in _c1_vars(gamma.space))


def _exponents_to_c1(field: PrimeField, space: CosetSpace, vec) -> Cochain1:
    n = space.parent.order
    e = space.parent.identity
    grid = [[1] * space.size for _ in range(n)]
    for (a, i), x in zip(_c1_vars(space), vec):
        grid[a][i] = field.exp(x)
    grid[e] = [1] * space.size
    return Cochain1(field, space, tuple(tuple(row) for row in grid))


def _exponents_to_c0(field: PrimeField, space: CosetSpace, vec) -> Cochain0:
    return Cochain0(field, space, tuple(field.exp(x) for x in vec))


@dataclass(frozen=True)
class CochainSolutions:
    """All solutions of one coboundary equation: a particular cochain plus
    the kernel generators, as exponent vectors over Z/(p-1)."""

    field: PrimeField
    space: CosetSpace
    particular: Cochain0 | Cochain1
    kernel: tuple[tuple[int, ...], ...]
    _raw: znsolve.SolutionSet
    _from_exponents: object  # (field, space, exponent vector) -> cochain

    def count(self) -> int:
        return self._raw.count()

    def enumerate(self, cap: int = 100000):
        for vec in self._raw.enumerate(cap):
            yield self._from_exponents(self.field, self.space, vec)


def _factored(field: PrimeField, space: CosetSpace, rows, nvars: int, from_exponents):
    """Solve rows . x = rhs over Z/(p-1) for any rhs, the rows factored once."""
    system = znsolve.System(rows, max(field.unit_order, 1), nvars)

    def solve(rhs):
        sol = system.solve(rhs)
        if sol is None:
            return None
        return CochainSolutions(field, space, from_exponents(field, space, sol.x0),
                                sol.kernel, sol, from_exponents)
    return solve


def d1_solver(field: PrimeField, space: CosetSpace):
    """`solve_d1` for every target on ``space``.

    The d1 matrix depends only on the coset space, one equation per
    (a, b, coset) with a, b != 1; a target only supplies the right-hand
    side.  So the matrix is built and factored once, here.
    """
    g = space.parent
    e = g.identity
    variables = _c1_vars(space)
    var_index = {v: k for k, v in enumerate(variables)}
    pairs = [(a, b) for a in range(g.order) for b in range(g.order) if e not in (a, b)]
    rows = []
    for a, b in pairs:
        ab = g.mul(a, b)
        perm_b = left_action_on_cosets(space, b)
        for i in range(space.size):
            row = [0] * len(variables)
            if ab != e:
                row[var_index[(ab, i)]] += 1
            row[var_index[(a, perm_b[i])]] -= 1
            row[var_index[(b, i)]] -= 1
            rows.append(row)
    solve = _factored(field, space, rows, len(variables), _exponents_to_c1)

    def solve_target(target: Cochain2):
        if not is_cocycle(target):
            raise ValueError("solve_d1 target is not a 2-cocycle")
        return solve([field.log(v) for a, b in pairs for v in target.values[a][b]])
    return solve_target


def solve_d1(target: Cochain2):
    """All normalised gamma with d1(gamma) = target, or None.

    The target must itself be a normalised 2-cocycle (coboundaries always
    are, so anything else is rejected outright).
    """
    return d1_solver(target.field, target.space)(target)


def solve_d0(target: Cochain1):
    """All eta with d0(eta) = target, or None."""
    space, f = target.space, target.field
    rows, rhs = [], []
    for a in range(space.parent.order):
        perm = left_action_on_cosets(space, a)
        for i in range(space.size):
            row = [0] * space.size
            row[i] += 1
            row[perm[i]] -= 1
            rows.append(row)
            rhs.append(f.log(target.values[a][i]))
    return _factored(f, space, rows, space.size, _exponents_to_c0)(rhs)


def coboundary_basis_c1(field: PrimeField, space: CosetSpace):
    """Exponent vectors spanning the image of d0 inside 1-cochains."""
    n = space.size
    m = max(field.unit_order, 1)
    gens = []
    for k in range(n):
        eta = [0] * n
        eta[k] = 1
        vec = []
        for (a, i) in _c1_vars(space):
            perm = left_action_on_cosets(space, a)
            vec.append((eta[i] - eta[perm[i]]) % m)
        gens.append(tuple(vec))
    return gens
