"""Finite groups as dense Cayley tables, with homomorphisms, subgroups and cosets.

Elements of a group of order n are the integers 0..n-1.  Every constructor
checks its defining axioms exhaustively; the intended scale (order <= 64)
makes brute force the most trustworthy option.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache


@dataclass(frozen=True)
class FiniteGroup:
    table: tuple[tuple[int, ...], ...]
    identity: int
    inverse: tuple[int, ...]

    @property
    def order(self) -> int:
        return len(self.table)

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self.inverse[a]

    def elements(self) -> range:
        return range(len(self.table))


def group_from_table(table) -> FiniteGroup:
    """Build and fully verify a group from its Cayley table."""
    n = len(table)
    if n == 0:
        raise ValueError("empty Cayley table")
    rows = tuple(tuple(int(x) for x in row) for row in table)
    for row in rows:
        if len(row) != n:
            raise ValueError("Cayley table is not square")
        if sorted(row) != list(range(n)):
            raise ValueError("Cayley table rows must be permutations of 0..n-1")
    for j in range(n):
        if sorted(rows[i][j] for i in range(n)) != list(range(n)):
            raise ValueError("Cayley table columns must be permutations of 0..n-1")
    identity = next(
        (e for e in range(n)
         if all(rows[e][x] == x and rows[x][e] == x for x in range(n))),
        None,
    )
    if identity is None:
        raise ValueError("Cayley table has no two-sided identity")
    inverse = []
    for a in range(n):
        b = next((b for b in range(n) if rows[a][b] == identity), None)
        if b is None or rows[b][a] != identity:
            raise ValueError(f"element {a} has no two-sided inverse")
        inverse.append(b)
    for a in range(n):
        for b in range(n):
            ab = rows[a][b]
            row_ab = rows[ab]
            row_b = rows[b]
            row_a = rows[a]
            for c in range(n):
                if row_ab[c] != row_a[row_b[c]]:
                    raise ValueError(f"associativity fails at ({a},{b},{c})")
    return FiniteGroup(rows, identity, tuple(inverse))


@lru_cache(maxsize=None)
def cyclic_group(n: int) -> FiniteGroup:
    """Z/n with table[a][b] = (a+b) mod n."""
    if n < 1:
        raise ValueError("cyclic group order must be >= 1")
    table = tuple(tuple((a + b) % n for b in range(n)) for a in range(n))
    return FiniteGroup(table, 0, tuple((-a) % n for a in range(n)))


@dataclass(frozen=True)
class GroupHom:
    source: FiniteGroup
    target: FiniteGroup
    map: tuple[int, ...]

    def __call__(self, a: int) -> int:
        return self.map[a]


def verify_hom(hom: GroupHom):
    """None when the map respects products everywhere, else the first bad pair."""
    if len(hom.map) != hom.source.order:
        raise ValueError("hom map length does not match source order")
    if any(not (0 <= x < hom.target.order) for x in hom.map):
        raise ValueError("hom map has out-of-range values")
    src, tgt, f = hom.source, hom.target, hom.map
    for a in src.elements():
        for b in src.elements():
            if f[src.mul(a, b)] != tgt.mul(f[a], f[b]):
                return (a, b)
    return None


def hom(source: FiniteGroup, target: FiniteGroup, mapping) -> GroupHom:
    """Verified homomorphism; raises on any violation."""
    h = GroupHom(source, target, tuple(int(x) for x in mapping))
    bad = verify_hom(h)
    if bad is not None:
        raise ValueError(f"not a homomorphism: fails at pair {bad}")
    return h


@lru_cache(maxsize=None)
def reduction_hom(n: int, d: int) -> GroupHom:
    """Z/n -> Z/d, x -> x mod d (requires d | n)."""
    if n % d:
        raise ValueError("reduction_hom needs d dividing n")
    return hom(cyclic_group(n), cyclic_group(d), [a % d for a in range(n)])


@dataclass(frozen=True)
class Subgroup:
    parent: FiniteGroup
    elements: tuple[int, ...]

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, a: int) -> bool:
        return a in self.elements


def subgroup(parent: FiniteGroup, elements) -> Subgroup:
    elts = tuple(sorted(set(int(x) for x in elements)))
    if parent.identity not in elts:
        raise ValueError("subgroup must contain the identity")
    s = set(elts)
    for a in elts:
        if parent.inv(a) not in s:
            raise ValueError(f"subgroup not closed under inverse at {a}")
        for b in elts:
            if parent.mul(a, b) not in s:
                raise ValueError(f"subgroup not closed under product at ({a},{b})")
    return Subgroup(parent, elts)


def generated_subgroup(parent: FiniteGroup, generators) -> Subgroup:
    """Closure of a generating set under products (plumbing helper)."""
    elts = {parent.identity}
    frontier = [parent.identity] + [int(g) for g in generators]
    while frontier:
        a = frontier.pop()
        for g in list(elts) + [int(x) for x in generators]:
            for c in (parent.mul(a, g), parent.mul(g, a)):
                if c not in elts:
                    elts.add(c)
                    frontier.append(c)
    return subgroup(parent, elts)


@lru_cache(maxsize=None)
def cayley_tree(g: FiniteGroup):
    """(S, parent): a generating set S of g and a spanning tree of its Cayley graph.

    S is greedy in element order (so (1,) for cyclic_group(n)); the tree is
    breadth first from the identity, and parent[h] = (h', s) with s in S and
    h = s h' for every h other than the identity, whose entry is None.
    """
    gens, reached = [], {g.identity}
    for a in g.elements():
        if a not in reached:
            gens.append(a)
            reached = set(generated_subgroup(g, gens).elements)
    parent, queue = {g.identity: None}, [g.identity]
    for h in queue:
        for s in gens:
            if (c := g.mul(s, h)) not in parent:
                parent[c] = (h, s)
                queue.append(c)
    return tuple(gens), tuple(parent[h] for h in g.elements())


def conjugate_subgroup(sub: Subgroup, t: int) -> Subgroup:
    g = sub.parent
    return subgroup(g, (g.mul(g.mul(t, a), g.inv(t)) for a in sub.elements))


def kernel(h: GroupHom) -> Subgroup:
    e = h.target.identity
    return subgroup(h.source, (a for a in h.source.elements() if h.map[a] == e))


def image(h: GroupHom) -> Subgroup:
    return subgroup(h.target, set(h.map))


@dataclass(frozen=True)
class CosetSpace:
    parent: FiniteGroup
    subgroup: Subgroup
    reps: tuple[int, ...]
    coset_of: tuple[int, ...]
    # act[a][i] is the coset of a * reps[i]; fixed by the fields above
    act: tuple[tuple[int, ...], ...] = field(compare=False, repr=False)

    @property
    def size(self) -> int:
        return len(self.reps)


@lru_cache(maxsize=None)
def coset_space(parent: FiniteGroup, sub: Subgroup) -> CosetSpace:
    """Left cosets aL with canonical representatives and the action table.

    The subgroup's own coset is listed first with the identity as its
    representative; the remaining cosets carry their least element and are
    ordered by it, so every downstream construction is deterministic.
    Memoised, like `cyclic_group`: every cochain on the same (H, L) shares
    one space, and so one action table.
    """
    if sub.parent is not parent and sub.parent != parent:
        raise ValueError("subgroup belongs to a different group")
    n = parent.order
    seen = [False] * n
    blocks = []
    for a in range(n):
        if seen[a]:
            continue
        members = sorted(parent.mul(a, l) for l in sub.elements)
        for x in members:
            seen[x] = True
        blocks.append(members)
    def rep_of(block):
        return parent.identity if parent.identity in block else block[0]
    blocks.sort(key=lambda blk: (parent.identity not in blk, rep_of(blk)))
    reps = []
    coset_of = [-1] * n
    for i, blk in enumerate(blocks):
        reps.append(rep_of(blk))
        for x in blk:
            coset_of[x] = i
    if len(reps) * sub.order != n:
        raise ValueError("cosets do not partition the group")
    act = tuple(tuple(coset_of[parent.mul(a, r)] for r in reps) for a in range(n))
    if any(sorted(perm) != list(range(len(reps))) for perm in act):
        raise ValueError("left action did not give a permutation")
    return CosetSpace(parent, sub, tuple(reps), tuple(coset_of), act)


def left_action_on_cosets(space: CosetSpace, a: int) -> tuple[int, ...]:
    """The permutation i -> coset of a * reps[i]."""
    return space.act[a]
