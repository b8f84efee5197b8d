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

Generators.  d1(gamma) = target is solved for the values of gamma at the
generating set S of `groups.cayley_tree` (`d1_solver`, which proves that
nothing is lost).

Storage.  F_p^x is cyclic of order m = p - 1, so every value is g^k for
the field's generator g, and a cochain stores the exponent k in Z/m, not
the unit: products become sums and inverses negations mod m, and every
differential above is linear.  The exponents of one cochain sit in one
flat immutable buffer, 1 byte each when p - 1 <= 256, 2 when p - 1 <=
65536 and 4 beyond (array types 'B', 'H', 'I'), so one field has one
width and equality stays on bytes.  With n = |H| and s = |H/L|, entry
(a, b, coset i) of a 2-cochain is at (a*n + b)*s + i, entry (a, i) of a
1-cochain at a*s + i, and entry i of a unit function at i.  The action of H on
the cosets is read off `space.act`, the table that `groups.coset_space`
builds once per (H, L) and every cochain on that space shares.  Units
appear only at the edges: `unit_function`, `cochain1` and `cochain2` take
them (through `PrimeField.log`, which rejects 0), `units()` gives them back.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from operator import itemgetter
from random import Random

from . import znsolve
from .fields import PrimeField
from .groups import (CosetSpace, FiniteGroup, cayley_tree, conjugate_subgroup,
                     coset_space)


def _code(field: PrimeField) -> str:
    """Array typecode of the exponents 0..p-2: the narrowest that holds them."""
    return "B" if field.unit_order <= 256 else "H" if field.unit_order <= 65536 else "I"


def _pack(field: PrimeField, exps) -> bytes:
    return array(_code(field), exps).tobytes()


@dataclass(frozen=True)
class _Exponents:
    field: PrimeField
    space: CosetSpace
    data: bytes  # packed exponents, laid out as in the module docstring
    degree = 0  # the cochain degree, also how deep units() nests the rows

    @property
    def exps(self) -> memoryview:
        return memoryview(self.data).cast(_code(self.field))

    def units(self) -> tuple:
        """The values as units, indexed [a][b][i], [a][i] or [i] by degree."""
        vals = tuple(map(self.field.exp, self.exps))
        for size in (self.space.size, self.space.parent.order)[:self.degree]:
            vals = tuple(vals[k:k + size] for k in range(0, len(vals), size))
        return vals

    def _row(self, k: int) -> UnitFunction:
        s = self.exps.itemsize * self.space.size
        return UnitFunction(self.field, self.space, self.data[k * s:(k + 1) * s])


class UnitFunction(_Exponents):
    """A unit of F_p attached to every coset of H/L."""


Cochain0 = UnitFunction  # a 0-cochain is one unit per coset


class Cochain1(_Exponents):
    degree = 1

    def at(self, a: int) -> UnitFunction:
        return self._row(a)


class Cochain2(_Exponents):
    degree = 2

    def at(self, a: int, b: int) -> UnitFunction:
        return self._row(a * self.space.parent.order + b)


def _logs(field: PrimeField, space: CosetSpace, rows, what: str) -> bytes:
    """Packed exponents of rows of units, one unit per coset in each row."""
    rows = [list(row) for row in rows]
    if any(len(row) != space.size for row in rows):
        raise ValueError(f"{what} needs one unit per coset in every entry")
    try:
        return _pack(field, [field.log(int(u)) for u in chain.from_iterable(rows)])
    except ZeroDivisionError:
        raise ValueError(f"{what} values must be units, not 0") from None


def unit_function(field: PrimeField, space: CosetSpace, values) -> UnitFunction:
    return UnitFunction(field, space, _logs(field, space, [values], "unit function"))


def constant_one(field: PrimeField, space: CosetSpace) -> UnitFunction:
    return UnitFunction(field, space, _pack(field, [0] * space.size))


def act(f: UnitFunction, h: int) -> UnitFunction:
    """Right action: act(f, h)(kL) = f(h k L)."""
    x = f.exps
    return UnitFunction(f.field, f.space, _pack(f.field, [x[j] for j in f.space.act[h]]))


def cochain1(field: PrimeField, space: CosetSpace, values) -> Cochain1:
    n = space.parent.order
    gamma = Cochain1(field, space, _logs(field, space, (values[a] for a in range(n)),
                                         "1-cochain"))
    if any(gamma.at(space.parent.identity).exps):
        raise ValueError("1-cochain must be normalised: value 1 at the identity")
    return gamma


def cochain2(field: PrimeField, space: CosetSpace, values) -> Cochain2:
    n, e = space.parent.order, space.parent.identity
    psi = Cochain2(field, space, _logs(
        field, space, (values[a][b] for a in range(n) for b in range(n)), "2-cochain"))
    if any(any(psi.at(e, h).exps) or any(psi.at(h, e).exps) for h in range(n)):
        raise ValueError("2-cochain must be normalised on identity pairs")
    return psi


def trivial_cochain1(field: PrimeField, space: CosetSpace) -> Cochain1:
    return Cochain1(field, space, _pack(field, [0] * space.parent.order * space.size))


def trivial_cochain2(field: PrimeField, space: CosetSpace) -> Cochain2:
    return Cochain2(field, space, _pack(field, [0] * space.parent.order ** 2 * space.size))


def random_cochain1(field: PrimeField, space: CosetSpace, rng: Random) -> Cochain1:
    e, m = space.parent.identity, field.unit_order
    return Cochain1(field, space, _pack(field, [0 if a == e else rng.randrange(m)
                                                for a in range(space.parent.order)
                                                for _ in range(space.size)]))


def random_cochain0(field: PrimeField, space: CosetSpace, rng: Random) -> Cochain0:
    m = field.unit_order
    return Cochain0(field, space, _pack(field, [rng.randrange(m) for _ in range(space.size)]))


def c2_mul(x, y):
    """Pointwise product of two cochains of one degree on one space."""
    m = x.field.unit_order
    return type(x)(x.field, x.space,
                   _pack(x.field, [(u + v) % m for u, v in zip(x.exps, y.exps)]))


def c2_inv(x):
    """Pointwise inverse of a cochain of any degree."""
    m = x.field.unit_order
    return type(x)(x.field, x.space, _pack(x.field, [-u % m for u in x.exps]))


c1_mul, c1_inv = c2_mul, c2_inv


def d0(eta: Cochain0, a: int) -> UnitFunction:
    x, m = eta.exps, eta.field.unit_order
    return UnitFunction(eta.field, eta.space, _pack(eta.field,
        [(x[i] - x[j]) % m for i, j in enumerate(eta.space.act[a])]))


def d0_cochain(eta: Cochain0) -> Cochain1:
    n = eta.space.parent.order
    return Cochain1(eta.field, eta.space, b"".join(d0(eta, a).data for a in range(n)))


def d1(gamma: Cochain1, a: int, b: int) -> UnitFunction:
    x, s, m = gamma.exps, gamma.space.size, gamma.field.unit_order
    ab = gamma.space.parent.mul(a, b) * s
    return UnitFunction(gamma.field, gamma.space, _pack(gamma.field,
        [(x[ab + i] - x[a * s + j] - x[b * s + i]) % m
         for i, j in enumerate(gamma.space.act[b])]))


def _gather(idx):
    """seq -> tuple(seq[k] for k in idx), in C; a tuple even for one index."""
    return itemgetter(*idx) if len(idx) > 1 else lambda seq: (seq[idx[0]],)


def d1_cochain(gamma: Cochain1) -> Cochain2:
    """All of d1(gamma) in one pass over the rows of gamma."""
    s, m, x = gamma.space.size, gamma.field.unit_order, gamma.exps.tolist()
    rows = [x[k:k + s] for k in range(0, len(x), s)]
    moved = [_gather(perm) for perm in gamma.space.act]  # moved[b](row)[i] = row[b.i]
    out = []
    for row_a, prods in zip(rows, gamma.space.parent.table):
        for b, row_b in enumerate(rows):
            out += [(u - v - w) % m for u, v, w in zip(rows[prods[b]], moved[b](row_a), row_b)]
    return Cochain2(gamma.field, gamma.space, _pack(gamma.field, out))


def d2(psi: Cochain2, a: int, b: int, c: int) -> UnitFunction:
    g, s, x, m = psi.space.parent, psi.space.size, psi.exps, psi.field.unit_order
    n = g.order
    bc, abc = (b * n + c) * s, (g.mul(a, b) * n + c) * s
    a_bc, ab = (a * n + g.mul(b, c)) * s, (a * n + b) * s
    return UnitFunction(psi.field, psi.space, _pack(psi.field,
        [(x[bc + i] - x[abc + i] + x[a_bc + i] - x[ab + j]) % m
         for i, j in enumerate(psi.space.act[c])]))


def cocycle_violation(psi: Cochain2):
    """First (a, b, c) where the 2-cocycle identity fails, else None.

    Every (a, b, c, coset) is checked, in that order.  For fixed (a, b) the
    identity at all lanes (c, i) is one vector equation mod m,
        psi(b, c)(i) + psi(a, bc)(i) = psi(ab, c)(i) + psi(a, b)(c.i),
    whose four terms are a block of the buffer, a block with its rows
    permuted by b, and the row psi(a, b) spread through the action table.
    """
    g, s, m = psi.space.parent, psi.space.size, psi.field.unit_order
    n, ns, x = g.order, g.order * s, psi.exps.tolist()
    block = [x[k:k + ns] for k in range(0, n * ns, ns)]  # block[a][c*s + i]
    times = [_gather([g.mul(b, c) * s + i for c in range(n) for i in range(s)])
             for b in range(n)]
    spread = _gather([j for perm in psi.space.act for j in perm])
    for a in range(n):
        for b in range(n):
            row = x[(a * n + b) * s:(a * n + b + 1) * s]
            lanes = [(u + v - w - z) % m for u, v, w, z in zip(
                block[b], times[b](block[a]), block[g.mul(a, b)], spread(row))]
            if any(lanes):
                return (a, b, next(k for k, d in enumerate(lanes) if d) // s)
    return None


def translate(x, t: int):
    """Transport a 1- or 2-cochain on H/L' to the conjugate subgroup t L' t^-1.

    The new row entry at a coset hL is the old one at the L'-coset of h*t,
    which is independent of the representative chosen.
    """
    g, space = x.space.parent, x.space
    new_space = coset_space(g, conjugate_subgroup(space.subgroup, t))
    lookup = [space.coset_of[g.mul(r, t)] for r in new_space.reps]
    e = x.exps
    return type(x)(x.field, new_space, _pack(x.field,
        [e[k + j] for k in range(0, len(e), space.size) for j in lookup]))


# -- linear solvers ----------------------------------------------------------
#
# The unknowns are the stored exponents themselves; the multiplicative
# equations are linear systems over Z/(p-1), solved exactly.


@dataclass(frozen=True)
class CochainSolutions:
    """All solutions of one coboundary equation: a particular cochain, the
    kernel generators as exponent vectors over Z/(p-1) (for a 1-cochain,
    every row but the identity's), and every solution through `enumerate`.
    ``coords`` solves the system actually factored, which for d1 is on the
    values at the generators of H, and ``lift`` turns its vectors into
    cochains."""

    particular: Cochain0 | Cochain1
    kernel: tuple[tuple[int, ...], ...]
    coords: znsolve.SolutionSet
    lift: object

    def count(self) -> int:
        return self.coords.count()

    def enumerate(self, cap: int = 100000):
        return map(self.lift, self.coords.enumerate(cap))


@lru_cache(maxsize=None)
def _tree(g: FiniteGroup):
    """(S, steps, edges) of `groups.cayley_tree`: steps holds (h, h', s) with
    h = s h' for every h off S and 1, parents first, and edges the pairs
    (s, b) for which b -> s b is not a tree edge."""
    gens, parent = cayley_tree(g)

    def depth(h):
        return 0 if parent[h] is None else 1 + depth(parent[h][0])
    steps = [(h, *parent[h]) for h in sorted(g.elements(), key=depth)
             if parent[h] is not None and parent[h][0] != g.identity]
    edges = [(s, b) for s in gens for b in g.elements() if parent[g.mul(s, b)] != (b, s)]
    return gens, steps, edges


def _extend(space: CosetSpace, m: int, x, t=None) -> list[int]:
    """Exponents of the 1-cochain with values x at S that solves d1 = t on
    every tree edge (t None: zero), gamma(s h')(i) = t(s, h')(i) +
    gamma(s)(h'.i) + gamma(h')(i); its identity row included."""
    n, sz = space.parent.order, space.size
    gens, steps, _ = _tree(space.parent)
    out = [0] * (n * sz)
    for k, s in enumerate(gens):
        out[s * sz:(s + 1) * sz] = x[k * sz:(k + 1) * sz]
    for h, h1, s in steps:
        k = (s * n + h1) * sz
        out[h * sz:(h + 1) * sz] = [
            (out[s * sz + j] + out[h1 * sz + i] + (t[k + i] if t else 0)) % m
            for i, j in enumerate(space.act[h1])]
    return out


def _residual(space: CosetSpace, gamma, t=None) -> list[int]:
    """d1(gamma)(s, b)(i) - t(s, b)(i) on every non-tree edge (s, b)."""
    g, sz = space.parent, space.size
    return [gamma[g.mul(s, b) * sz + i] - gamma[s * sz + j] - gamma[b * sz + i]
            - (t[(s * g.order + b) * sz + i] if t else 0)
            for s, b in _tree(g)[2] for i, j in enumerate(space.act[b])]


@lru_cache(maxsize=None)
def _tree_system(m: int, space: CosetSpace):
    """The `d1_solver` system of ``space`` over Z/m, factored, and its kernel
    as 1-cochains.  Memoised like `groups.coset_space`, and keyed on the
    integer m rather than on the field, whose hash walks its dlog table."""
    r, e, sz = len(_tree(space.parent)[0]) * space.size, space.parent.identity, space.size
    columns = [_residual(space, _extend(space, m, [int(j == k) for j in range(r)]))
               for k in range(r)]
    system = znsolve.System([list(row) for row in zip(*columns)], m, r)
    full = (_extend(space, m, gen) for gen in system.kernel)
    return system, tuple(tuple(x[:e * sz] + x[(e + 1) * sz:]) for x in full)


def d1_solver(field: PrimeField, space: CosetSpace):
    """`solve_d1` for every target on ``space``, by the presentation method
    (Holt, Eick and O'Brien, Handbook of Computational Group Theory, 7.6).

    Solving d1(gamma) = target on the edges of the spanning tree of
    `groups.cayley_tree` fixes gamma by its values at S (`_extend`), so
    those |S| s exponents are the unknowns and the non-tree edges the
    equations.  For a cocycle target that is all: delta = d1(gamma) -
    target is then a cocycle with delta(s, b) = 0 for s in S, and the
    cocycle identity at (s, b, c) reads delta(s b, c) = delta(b, c), so
    delta = 0 by induction on word length.  The system depends only on
    (p - 1, space) and is kept for the life of the process (`_tree_system`);
    a target adds its cocycle check, two tree walks and a back-substitution.
    """
    m = field.unit_order
    system, kernel = _tree_system(m, space)

    def solve_target(target: Cochain2):
        if cocycle_violation(target) is not None:
            raise ValueError("solve_d1 target is not a 2-cocycle")
        t = target.exps.tolist()
        base = _extend(space, m, [0] * system.ncols, t)
        sol = system.solve([-r for r in _residual(space, base, t)])
        if sol is None:
            return None

        def lift(x):
            return Cochain1(field, space, _pack(field, _extend(space, m, x, t)))
        return CochainSolutions(lift(sol.x0), kernel, sol, lift)
    return solve_target


def solve_d1(target: Cochain2):
    """All normalised gamma with d1(gamma) = target, or None.

    The target must itself be a normalised 2-cocycle (coboundaries always
    are, so anything else is rejected outright).
    """
    return d1_solver(target.field, target.space)(target)


def solve_d0(target: Cochain1):
    """All eta with d0(eta) = target, or None."""
    field, space, m = target.field, target.space, target.field.unit_order
    rows = [[(k == i) - (k == j) for k in range(space.size)]
            for perm in space.act for i, j in enumerate(perm)]
    sol = znsolve.System(rows, m, space.size).solve(target.exps.tolist())
    if sol is None:
        return None

    def lift(x):
        return Cochain0(field, space, _pack(field, [v % m for v in x]))
    return CochainSolutions(lift(sol.x0), sol.kernel, sol, lift)


def coboundary_basis_c1(m: int, space: CosetSpace, elements):
    """Exponent vectors over Z/m spanning the image of d0 inside 1-cochains,
    on the rows of ``elements``: the image of each coset's indicator."""
    return [tuple(((i == k) - (space.act[a][i] == k)) % m
                  for a in elements for i in range(space.size))
            for k in range(space.size)]
