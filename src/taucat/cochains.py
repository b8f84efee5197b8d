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
from .groups import CosetSpace, conjugate_subgroup, coset_space


def _code(field: PrimeField) -> str:
    """Array typecode of the exponents 0..p-2: the narrowest that holds them."""
    return "B" if field.unit_order <= 256 else "H" if field.unit_order <= 65536 else "I"


def _pack(field: PrimeField, exps) -> bytes:
    return array(_code(field), exps).tobytes()


def _modulus(field: PrimeField) -> int:
    return max(field.unit_order, 1)


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
    e, m = space.parent.identity, _modulus(field)
    return Cochain1(field, space, _pack(field, [0 if a == e else rng.randrange(m)
                                                for a in range(space.parent.order)
                                                for _ in range(space.size)]))


def random_cochain0(field: PrimeField, space: CosetSpace, rng: Random) -> Cochain0:
    m = _modulus(field)
    return Cochain0(field, space, _pack(field, [rng.randrange(m) for _ in range(space.size)]))


def c2_mul(x, y):
    """Pointwise product of two cochains of one degree on one space."""
    m = _modulus(x.field)
    return type(x)(x.field, x.space,
                   _pack(x.field, [(u + v) % m for u, v in zip(x.exps, y.exps)]))


def c2_inv(x):
    """Pointwise inverse of a cochain of any degree."""
    m = _modulus(x.field)
    return type(x)(x.field, x.space, _pack(x.field, [-u % m for u in x.exps]))


c1_mul, c1_inv = c2_mul, c2_inv


def d0(eta: Cochain0, a: int) -> UnitFunction:
    x, m = eta.exps, _modulus(eta.field)
    return UnitFunction(eta.field, eta.space, _pack(eta.field,
        [(x[i] - x[j]) % m for i, j in enumerate(eta.space.act[a])]))


def d0_cochain(eta: Cochain0) -> Cochain1:
    n = eta.space.parent.order
    return Cochain1(eta.field, eta.space, b"".join(d0(eta, a).data for a in range(n)))


def d1(gamma: Cochain1, a: int, b: int) -> UnitFunction:
    x, s, m = gamma.exps, gamma.space.size, _modulus(gamma.field)
    ab = gamma.space.parent.mul(a, b) * s
    return UnitFunction(gamma.field, gamma.space, _pack(gamma.field,
        [(x[ab + i] - x[a * s + j] - x[b * s + i]) % m
         for i, j in enumerate(gamma.space.act[b])]))


def _gather(idx):
    """seq -> tuple(seq[k] for k in idx), in C; a tuple even for one index."""
    return itemgetter(*idx) if len(idx) > 1 else lambda seq: (seq[idx[0]],)


def d1_cochain(gamma: Cochain1) -> Cochain2:
    """All of d1(gamma) in one pass over the rows of gamma."""
    s, m, x = gamma.space.size, _modulus(gamma.field), gamma.exps.tolist()
    rows = [x[k:k + s] for k in range(0, len(x), s)]
    moved = [_gather(perm) for perm in gamma.space.act]  # moved[b](row)[i] = row[b.i]
    out = []
    for row_a, prods in zip(rows, gamma.space.parent.table):
        for b, row_b in enumerate(rows):
            out += [(u - v - w) % m for u, v, w in zip(rows[prods[b]], moved[b](row_a), row_b)]
    return Cochain2(gamma.field, gamma.space, _pack(gamma.field, out))


def d2(psi: Cochain2, a: int, b: int, c: int) -> UnitFunction:
    g, s, x, m = psi.space.parent, psi.space.size, psi.exps, _modulus(psi.field)
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
    g, s, m = psi.space.parent, psi.space.size, _modulus(psi.field)
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


def is_cocycle(psi: Cochain2) -> bool:
    return cocycle_violation(psi) is None


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


def _c1_vars(space: CosetSpace):
    e = space.parent.identity
    return [(a, i) for a in range(space.parent.order) if a != e
            for i in range(space.size)]


def _c1_to_exponents(gamma: Cochain1):
    x, s, e = gamma.exps.tolist(), gamma.space.size, gamma.space.parent.identity
    return tuple(x[:e * s] + x[(e + 1) * s:])


def _exponents_to_c1(field: PrimeField, space: CosetSpace, vec) -> Cochain1:
    m, s, e = _modulus(field), space.size, space.parent.identity
    vec = [x % m for x in vec]
    return Cochain1(field, space, _pack(field, vec[:e * s] + [0] * s + vec[e * s:]))


def _exponents_to_c0(field: PrimeField, space: CosetSpace, vec) -> Cochain0:
    m = _modulus(field)
    return Cochain0(field, space, _pack(field, [x % m for x in vec]))


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


def _solutions(field: PrimeField, space: CosetSpace, system, rhs, from_exponents):
    """All x with system . x = rhs over Z/(p-1), as cochains; None when infeasible."""
    sol = system.solve(rhs)
    if sol is None:
        return None
    return CochainSolutions(field, space, from_exponents(field, space, sol.x0),
                            sol.kernel, sol, from_exponents)


@lru_cache(maxsize=None)
def _d1_system(m: int, space: CosetSpace):
    """The d1 equations of ``space`` over Z/m, one per (a, b, coset) with
    a, b != 1, factored, and where each (a, b) row of a target starts in its
    buffer.  Memoised like `groups.coset_space`, and keyed on the integer m
    rather than on the field, whose hash walks its dlog table."""
    g, e = space.parent, space.parent.identity
    var_index = {v: k for k, v in enumerate(_c1_vars(space))}
    pairs = [(a, b) for a in range(g.order) for b in range(g.order) if e not in (a, b)]
    rows = []
    for a, b in pairs:
        ab = g.mul(a, b)
        for i, j in enumerate(space.act[b]):
            row = [0] * len(var_index)
            if ab != e:
                row[var_index[(ab, i)]] += 1
            row[var_index[(a, j)]] -= 1
            row[var_index[(b, i)]] -= 1
            rows.append(row)
    starts = tuple((a * g.order + b) * space.size for a, b in pairs)
    return znsolve.System(rows, m, len(var_index)), starts


def d1_solver(field: PrimeField, space: CosetSpace):
    """`solve_d1` for every target on ``space``.  The d1 matrix depends only
    on (p - 1, space), so its factorisation is kept per (modulus, space) for
    the life of the process (`_d1_system`); a target adds its cocycle check
    and a back-substitution."""
    system, starts = _d1_system(_modulus(field), space)
    s = space.size

    def solve_target(target: Cochain2):
        if not is_cocycle(target):
            raise ValueError("solve_d1 target is not a 2-cocycle")
        x = target.exps
        return _solutions(field, space, system, [x[k + i] for k in starts for i in range(s)],
                          _exponents_to_c1)
    return solve_target


def solve_d1(target: Cochain2):
    """All normalised gamma with d1(gamma) = target, or None.

    The target must itself be a normalised 2-cocycle (coboundaries always
    are, so anything else is rejected outright).
    """
    return d1_solver(target.field, target.space)(target)


def solve_d0(target: Cochain1):
    """All eta with d0(eta) = target, or None."""
    space = target.space
    rows = [[(k == i) - (k == j) for k in range(space.size)]
            for perm in space.act for i, j in enumerate(perm)]
    system = znsolve.System(rows, _modulus(target.field), space.size)
    return _solutions(target.field, space, system, target.exps.tolist(), _exponents_to_c0)


def coboundary_basis_c1(m: int, space: CosetSpace):
    """Exponent vectors over Z/m spanning the image of d0 inside 1-cochains:
    the image of each coset's indicator eta_k."""
    return [tuple(((i == k) - (space.act[a][i] == k)) % m for a, i in _c1_vars(space))
            for k in range(space.size)]
