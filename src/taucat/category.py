"""Finite presentations of categories graded by a group homomorphism.

A presentation fixes a homomorphism tau: H -> G, a prime field, objects
carrying G-degrees, a basis for every nonzero hom space Hom^h(X, Y)
(h in H), and composition structure constants.  Composition multiplies
degrees: Hom^{h'}(Y,Z) x Hom^h(X,Y) -> Hom^{h'h}(X,Z).  Nonzero degree-h
morphisms are only allowed between objects whose degrees differ by tau(h);
`verify_axioms` checks that, the unit laws and associativity exhaustively
over the stored bases.  It reads the laws off the composition tensors:
associativity on a composable path and basis triple is one identity
between two contractions of stored tensors, mod p.  The middle morphisms g
with (h o g) o f = h o (g o f) for all f and h form a subspace closed under
composition (Light's test, Clifford and Preston, The Algebraic Theory of
Semigroups I, 1.2).  So once a presentation proves that the morphisms of
its `generating_degrees` generate every morphism, the paths with a middle
degree among them decide the verdict; a failing verdict is reported from
the full scan of every path.  `verify_functor` and `verify_nat` read their
laws off the tensors, the functor hom matrices and the component
coordinates.  The same closure decides the functor law: between lawful
presentations, the morphisms g with F(g o f) = F(g) o F(f) for every f form
a subspace closed under composition, so `verify_functor` checks the paths
whose outer degree is generating and falls back to the full scan on a
violation.

Each tensor is stored once, as its nonzero constants grouped by input pair
(GAP Reference Manual, "Constructing Algebras by Structure Constants"), and
every contraction reads that store, so a scan costs what the nonzeros cost.
Composing with a fixed morphism is one matrix read off one tensor,
`precompose` (u -> u o f) or `postcompose` (u -> g o u); `invert` solves
the two stacked.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property, partial
from itertools import product
from random import Random

from . import fplinalg
from .fields import PrimeField
from .groups import GroupHom, cayley_tree
from .znsolve import CapExceeded


_ARRAYS = (list, tuple)
_NONE = {}  # the tensors of a degree pair that has none; never written to


def _int(value, what: str) -> int:
    """value, which must be an integer; a bool, a float or a string is not one."""
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, not {value!r}")
    return value


def _array(value, what: str):
    """value, which must be an array: a JSON array, or a tuple built in memory."""
    if type(value) not in _ARRAYS:
        raise ValueError(f"{what} must be a JSON array, not {type(value).__name__}")
    return value


@dataclass(frozen=True)
class Morphism:
    """A homogeneous morphism: coordinates in the chosen basis of its hom space."""

    src: int
    dst: int
    degree: int
    coords: tuple[int, ...]

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)


@dataclass
class Verdict:
    violations: list

    @property
    def ok(self) -> bool:
        return not self.violations

    def __bool__(self) -> bool:
        return self.ok

    def __repr__(self) -> str:
        return "ok" if self.ok else f"violations={self.violations!r}"


class GradedCatPresentation:
    """Objects with degrees, graded hom bases, and composition tensors.

    hom_rank maps (src, dst, h) to the dimension of Hom^h(src, dst); absent
    keys mean zero.  compose maps (src, mid, dst, h, h2) to a tensor
    c[k][j][i] expressing (basis_j of Hom^{h2}(mid,dst)) o (basis_i of
    Hom^h(src,mid)) = sum_k c[k][j][i] basis_k in Hom^{h2 h}(src,dst);
    absent tensors are zero.  It is kept as `tensors`,
    {(h, h2): {(src, mid, dst): {(j, i): ((k, c), ...)}}}, each input pair
    with its nonzero c in [1, p) by ascending k; a tensor between rank-1
    spaces is its one constant (`_constant`).  A zero tensor given stays as
    an empty entry, so jsonio's writer, the one place that lays tensors out
    dense, gives back every record it read.  `sums` records declared
    direct-sum structure (part, injection, projection) per object.  No
    shift choice is recorded: that is a table its users hold
    (modcat.shift_table).

    The constructor is the input boundary: it normalises its arguments to
    tuples of ints mod p, drops zero ranks, and checks keys, tensors and
    identities in one walk whose messages are the file form's; tensors are
    walked group by group of the store.  jsonio hands `_grouped` file data
    unchecked, its tensors already in that grouping.  The builders that
    make their data in memory (mtau, modcat, completion, direct_sum_cat)
    use `_trusted`, which skips that walk and takes the store; they owe it
    canonical data.
    """

    def __init__(self, tau: GroupHom, field: PrimeField, degrees, hom_rank,
                 compose, identities, sums=None):
        tensors = {}
        for key, t in compose.items():
            tensors.setdefault(key[3:], {})[key[:3]] = t
        self._checked(tau, field, degrees, hom_rank, tensors, identities, sums)

    @classmethod
    def _grouped(cls, tau: GroupHom, field: PrimeField, degrees, hom_rank, tensors,
                 identities, sums=None) -> GradedCatPresentation:
        """The constructor, for unchecked tensors that come grouped as the
        store keeps them, {(h, h2): {(src, mid, dst): tensor}}: the validating
        walk replaces each tensor by its store form in place (jsonio's reader)."""
        cat = cls.__new__(cls)
        cat._checked(tau, field, degrees, hom_rank, tensors, identities, sums)
        return cat

    def _checked(self, tau, field, degrees, hom_rank, tensors, identities, sums):
        p = field.p
        self._store(tau, field, tuple(int(d) for d in degrees),
                    {k: int(r) for k, r in hom_rank.items() if int(r)},
                    tuple(tuple(int(c) % p for c in cid) for cid in identities), sums)
        # a file's first fault is found in this order: keys, tensors, identities
        self._validate_keys()
        check = self._checked_tensor
        for hh2, group in tensors.items():
            for xyz, t in group.items():
                group[xyz] = check(xyz + hh2, t)
        self._validate_shapes()
        self._finish(tensors)

    @classmethod
    def _trusted(cls, tau: GroupHom, field: PrimeField, degrees, hom_rank, tensors,
                 identities, sums=None) -> GradedCatPresentation:
        """The presentation of canonical data, without the validating walk.

        The caller owes what the walk would establish: hom and tensor keys
        in range, no zero rank in hom_rank, every identity an int in [0, p)
        held in tuples and shaped by its rank, and `tensors` in the store's
        form, each index below the rank of its hom space.  hom_rank and
        tensors are kept, not copied.
        """
        cat = cls.__new__(cls)
        cat._store(tau, field, tuple(degrees), hom_rank, tuple(identities), sums)
        cat._finish(tensors)
        return cat

    def _store(self, tau, field, degrees, hom_rank, identities, sums):
        self.tau, self.field = tau, field
        self.degrees, self.hom_rank, self.identities = degrees, hom_rank, identities
        self.sums = dict(sums) if sums else {}

    def _finish(self, tensors):
        """Keep the tensors and list each object's nonzero hom spaces."""
        self.tensors = tensors
        self._out = [[] for _ in self.degrees]
        for (x, y, h), r in sorted(self.hom_rank.items()):
            self._out[x].append((y, h, r))

    @property
    def n_objects(self) -> int:
        return len(self.degrees)

    def objects(self) -> range:
        return range(len(self.degrees))

    def rank(self, x: int, y: int, h: int) -> int:
        return self.hom_rank.get((x, y, h), 0)

    def tensor(self, x: int, y: int, z: int, h: int, h2: int):
        """T(x, y, z; h, h2) as {(j, i): ((k, c), ...)}, None when absent."""
        return self.tensors.get((h, h2), _NONE).get((x, y, z))

    def out_homs(self, x: int):
        return self._out[x]

    def hom_keys(self):
        return sorted(self.hom_rank)

    @cached_property
    def generating_degrees(self):
        """S and the identity, for the generating set S of cayley_tree(H), or None.

        This is the generation proof, computed once per presentation: every
        Hom^h(x, y), h outside these degrees, must be spanned by the
        composites Hom^s(z, y) o Hom^{h'}(x, z) over all z, along h's tree
        edge h = s h'.  Then, by induction along the tree, every morphism is
        a sum of composites of morphisms of these degrees.  The proof reads
        only ranks and tensors; it assumes neither associativity nor units,
        so `verify_axioms` can rest on it.
        """
        gens, parent = cayley_tree(self.tau.source)
        degrees = frozenset(gens) | {self.tau.source.identity}
        for (x, y, h), r in self.hom_rank.items():
            if h not in degrees:
                h1, s = parent[h]
                tensors = self.tensors.get((h1, s), _NONE)
                cols = [_column(entries, r) for z in self.objects()
                        for entries in tensors.get((x, z, y), _NONE).values()]
                if fplinalg.nullspace(cols, self.field.p, ncols=r):
                    return None
        return degrees

    @cached_property
    def verdict(self) -> Verdict:
        """verify_axioms(self), run once per presentation."""
        return verify_axioms(self)

    @property
    def lawful(self) -> bool:
        """Whether `verdict` has been computed and passed.

        Reading this never runs verify_axioms: a scan that rests on the laws
        of a presentation (verify_functor, verify_module_category) shortens
        only when they are already known, since proving them would cost more
        than the scan saves.
        """
        verdict = self.__dict__.get("verdict")
        return verdict is not None and verdict.ok

    @cached_property
    def nat_degrees(self):
        """The degrees whose naturality squares fix every transformation, or None.

        These are the generating degrees when composition verifies: a
        transformation natural for f and g is natural for g o f and for sums
        (Mac Lane, CWM II.7).
        """
        return self.generating_degrees if self.verdict.ok else None

    def __eq__(self, other):
        if not isinstance(other, GradedCatPresentation):
            return NotImplemented
        return (self.tau == other.tau and self.field == other.field
                and self.degrees == other.degrees
                and self.hom_rank == other.hom_rank
                and self.tensors == other.tensors
                and self.identities == other.identities)

    def _checked_tensor(self, key, tensor) -> dict:
        """The nonzeros of tensor mod p in the store's form, after one walk
        that checks its key, its shape against the ranks of its three hom
        spaces, and that it is an array of arrays of arrays of integers: file
        tensors reach it unchecked, so its messages are the file form's."""
        x, y, z, h, h2 = key
        gH = self.tau.source
        n, nh = len(self.degrees), gH.order
        if not (0 <= x < n and 0 <= y < n and 0 <= z < n and 0 <= h < nh and 0 <= h2 < nh):
            raise ValueError(f"composition key out of range: {key}")
        rank, p = self.hom_rank.get, self.field.p
        r1, r2 = rank((x, y, h), 0), rank((y, z, h2), 0)
        r3 = rank((x, z, gH.table[h2][h]), 0)
        if r1 == r2 == r3 == 1 and type(tensor) in _ARRAYS and len(tensor) == 1:
            # a 1x1x1 array of an int, the common shape, is read without the walk
            layer = tensor[0]
            if type(layer) in _ARRAYS and len(layer) == 1:
                row = layer[0]
                if type(row) in _ARRAYS and len(row) == 1 and type(row[0]) is int:
                    return _scalar(row[0] % p)
        what = "composition tensor"  # a wrong type is reported before a wrong length
        ragged = len(_array(tensor, what)) != r3
        out = {}
        for k, layer in enumerate(tensor):  # the checks inline _array and _int
            if type(layer) not in _ARRAYS:
                _array(layer, what)
            ragged |= len(layer) != r2
            for j, row in enumerate(layer):
                if type(row) not in _ARRAYS:
                    _array(row, what)
                ragged |= len(row) != r1
                for i, v in enumerate(row):
                    if type(v) is not int:
                        _int(v, what)
                    if v % p:  # k ascends, so each pair's entries do too
                        out[j, i] = out.get((j, i), ()) + ((k, v % p),)
        if ragged:
            raise ValueError(f"ragged composition tensor at {key}")
        return _scalar(out[0, 0][0][1] if out else 0) if r1 == r2 == r3 == 1 else out

    def _validate_keys(self):
        """One identity per object, object degrees in G, hom keys in range,
        hom ranks not negative."""
        n = len(self.degrees)
        ng = self.tau.target.order
        nh = self.tau.source.order
        if len(self.identities) != n:
            raise ValueError("one identity coordinate vector per object required")
        for d in self.degrees:
            if not 0 <= d < ng:
                raise ValueError("object degree out of range")
        for (x, y, h), r in self.hom_rank.items():
            if not (0 <= x < n and 0 <= y < n and 0 <= h < nh):
                raise ValueError(f"hom key out of range: {(x, y, h)}")
            if r < 0:
                raise ValueError(f"negative hom rank at {(x, y, h)}")

    def _validate_shapes(self):
        """Identity and declared-sum coordinates against their ranks."""
        n = len(self.degrees)
        e = self.tau.source.identity
        for x in range(n):
            if len(self.identities[x]) != self.rank(x, x, e):
                raise ValueError(f"identity coordinates of object {x} have wrong length")
        for x, parts in self.sums.items():
            for part, iota, pi in parts:
                if not (0 <= x < n and 0 <= part < n):
                    raise ValueError(f"declared sum {x} has a part out of range")
                for m, ends in ((iota, (part, x)), (pi, (x, part))):
                    if ((m.src, m.dst) != ends
                            or len(m.coords) != self.rank(m.src, m.dst, m.degree)):
                        raise ValueError(f"declared sum {x} has a malformed map at part {part}")


def identity_morphism(cat: GradedCatPresentation, x: int) -> Morphism:
    return Morphism(x, x, cat.tau.source.identity, cat.identities[x])


def _constant(t) -> int:
    """The one constant of a tensor between rank-1 hom spaces, 0 if none."""
    return t[0, 0][0][1] if t else 0


@cache
def _scalar(c: int) -> dict:
    """The tensor between rank-1 hom spaces with constant c, one object per c
    shared by every store (none is written to once built)."""
    return {(0, 0): ((0, c),)} if c else {}


def _column(entries, r: int) -> list:
    """The composite of one input pair, ((k, c), ...), as a vector of length r."""
    out = [0] * r
    for k, c in entries:
        out[k] = c
    return out


def _contract(p: int, t, r: int, f, g) -> tuple:
    """Coordinates of g o f from their composition tensor t, mod p.

    Entry k is sum_{j, i} T[k][j][i] g[j] f[i]; r is the rank of the hom
    space g o f lives in, and None or an empty tensor is zero.
    """
    out = [0] * r
    for (j, i), entries in (t or _NONE).items():
        if c := g[j] * f[i]:
            for k, v in entries:
                out[k] += v * c
    return (out[0] % p,) if r == 1 else tuple([v % p for v in out])


def _check_rank(cat: GradedCatPresentation, m: Morphism) -> None:
    """Reject a coordinate vector whose length is not the rank of its hom space."""
    r = cat.rank(m.src, m.dst, m.degree)
    if len(m.coords) != r:
        raise ValueError(f"morphism {m.src} -> {m.dst} of degree {m.degree} has "
                         f"{len(m.coords)} coordinates for a hom space of rank {r}")


def precompose(cat: GradedCatPresentation, f: Morphism, z: int, h2: int) -> tuple:
    """Matrix of u -> u o f, from Hom^{h2}(f.dst, z) to Hom^{h2|f|}(f.src, z):
    entry [k][j] is sum_i T(f.src, f.dst, z; |f|, h2)[k][j][i] f[i], and an
    absent tensor gives the zero matrix."""
    _check_rank(cat, f)
    return _fixed(cat, cat.tensor(f.src, f.dst, z, f.degree, h2), f.coords, 1,
                  cat.rank(f.src, z, cat.tau.source.mul(h2, f.degree)), cat.rank(f.dst, z, h2))


def postcompose(cat: GradedCatPresentation, g: Morphism, x: int, h: int) -> tuple:
    """Matrix of u -> g o u, from Hom^h(x, g.src) to Hom^{|g|h}(x, g.dst):
    entry [k][i] is sum_j T(x, g.src, g.dst; h, |g|)[k][j][i] g[j], and an
    absent tensor gives the zero matrix."""
    _check_rank(cat, g)
    return _fixed(cat, cat.tensor(x, g.src, g.dst, h, g.degree), g.coords, 0,
                  cat.rank(x, g.dst, cat.tau.source.mul(g.degree, h)), cat.rank(x, g.src, h))


def _fixed(cat: GradedCatPresentation, t, v, pos: int, rows: int, cols: int) -> tuple:
    """The rows x cols matrix of composing with the morphism v at position
    pos of t's input pairs: [k][m] sums T[k][j][i] v[.] over pairs with m."""
    mat = [[0] * cols for _ in range(rows)]
    for ji, entries in (t or _NONE).items():
        if c := v[ji[pos]]:
            row = ji[1 - pos]
            for k, w in entries:
                mat[k][row] += w * c
    p = cat.field.p
    return tuple(tuple(w % p for w in row) for row in mat)


def _coords(m: Morphism) -> tuple:
    """m as a (src, dst, coords) triple."""
    return (m.src, m.dst, m.coords)


def _then(cat: GradedCatPresentation, f: tuple, g: tuple, h=None, h2=None) -> tuple:
    """g o f for (src, dst, coords) morphisms of degrees h and h2, the unit
    when None, read off cat's tensors."""
    if f[1] != g[0]:
        raise ValueError("morphisms are not composable")
    gH = cat.tau.source
    h, h2 = gH.identity if h is None else h, gH.identity if h2 is None else h2
    return (f[0], g[1], _contract(cat.field.p, cat.tensor(f[0], f[1], g[1], h, h2),
                                  cat.rank(f[0], g[1], gH.mul(h2, h)), f[2], g[2]))


def compose(cat: GradedCatPresentation, f: Morphism, g: Morphism) -> Morphism:
    """g after f; the result has degree |g| * |f|."""
    _check_rank(cat, f)
    _check_rank(cat, g)
    src, dst, coords = _then(cat, _coords(f), _coords(g), f.degree, g.degree)
    return Morphism(src, dst, cat.tau.source.mul(g.degree, f.degree), coords)


def verify_axioms(cat: GradedCatPresentation) -> Verdict:
    """Exhaustive check: grading law, identity degree, unit laws, associativity.

    The unit laws and associativity are read off the stored tensors
    T(x, y, z; h, h2) = cat.tensor(x, y, z, h, h2), an absent tensor counting
    as zero.  For a path w -h1-> x -h2-> y -h3-> z and basis indices
    (i, j, k) of the three hom spaces, associativity is the identity, mod p,

        sum_m T(w,y,z; h2h1,h3)[q][k][m] T(w,x,y; h1,h2)[m][j][i]
            = sum_m T(w,x,z; h1,h3h2)[q][m][i] T(x,y,z; h2,h3)[m][k][j]

    for every q, and each (i, j, k) where it fails is one violation; both
    sides are sums over nonzero constants only (_assoc_failures).  The unit
    laws ask that the matrices of precompose(id_x) and postcompose(id_y) on
    Hom^h(x, y) be the identity.

    Associativity is first checked only on paths whose middle degree h2 lies
    in cat.generating_degrees.  The middle morphisms that associate with
    every f and h form a subspace closed under composition, so when the
    proof holds and these paths pass, every path passes.  Otherwise (no
    proof, or a violation found) every path is scanned in order, and the
    list is the one the full scan gives.
    """
    violations = []
    gH, gG = cat.tau.source, cat.tau.target
    e = gH.identity

    for (x, y, h) in cat.hom_keys():
        if cat.degrees[y] != gG.mul(cat.tau.map[h], cat.degrees[x]):
            violations.append(("grading", x, y, h))

    for x in cat.objects():
        if cat.rank(x, x, e) == 0 or all(c == 0 for c in cat.identities[x]):
            violations.append(("identity-missing", x))

    for (x, y, h), r in sorted(cat.hom_rank.items()):
        id_x, id_y = cat.identities[x], cat.identities[y]
        # column k: e_k o id_x and id_y o e_k, for each basis element e_k of Hom^h(x, y)
        right = list(zip(*_fixed(cat, cat.tensor(x, x, y, e, h), id_x, 1, r, r))) if id_x else ()
        left = list(zip(*_fixed(cat, cat.tensor(x, y, y, h, e), id_y, 0, r, r))) if id_y else ()
        for k in range(r):
            unit = tuple(int(q == k) for q in range(r))
            if right and right[k] != unit:
                violations.append(("unit-right", x, y, h, k))
            if left and left[k] != unit:
                violations.append(("unit-left", x, y, h, k))

    middle = cat.generating_degrees
    if middle is None or next(_assoc_violations(cat, middle), None):
        violations.extend(_assoc_violations(cat))
    return Verdict(violations)


def _assoc_violations(cat: GradedCatPresentation, middle=None):
    """The associativity violations of every path whose middle degree lies
    in middle (every path when None), in path and basis order."""
    p, rank, table = cat.field.p, cat.hom_rank.get, cat.tau.source.table
    degrees = range(len(table))  # grid[h][h2] = {(x, y, z): T(x, y, z; h, h2)}
    grid = [[cat.tensors.get((h, h2), _NONE) for h2 in degrees] for h in degrees]
    mids = [[hom for hom in cat.out_homs(x) if middle is None or hom[1] in middle]
            for x in cat.objects()]
    for w in cat.objects():
        for (x, h1, r1) in cat.out_homs(w):
            for (y, h2, r2) in mids[x]:
                h21 = table[h2][h1]
                r21 = rank((w, y, h21), 0)
                t_gf = grid[h1][h2].get((w, x, y))
                for (z, h3, r3) in cat.out_homs(y):
                    h32 = table[h3][h2]
                    r = rank((w, z, table[h32][h1]), 0)
                    if r == 0:
                        continue  # both sides live in a zero hom space
                    t_l = grid[h21][h3].get((w, y, z))
                    t_hg = grid[h2][h3].get((x, y, z))
                    t_r = grid[h1][h32].get((w, x, z))
                    if r == r1 == r2 == r3 == r21 == rank((x, z, h32), 0) == 1:
                        # one constant each (_constant), inlined on this hot path
                        lhs = t_l[0, 0][0][1] * t_gf[0, 0][0][1] if t_l and t_gf else 0
                        rhs = t_r[0, 0][0][1] * t_hg[0, 0][0][1] if t_r and t_hg else 0
                        if (lhs - rhs) % p:
                            yield ("assoc", (w, x, y, z), (h1, h2, h3), (0, 0, 0))
                        continue
                    for ijk in _assoc_failures(p, t_gf, t_l, t_hg, t_r):
                        yield ("assoc", (w, x, y, z), (h1, h2, h3), ijk)


def _assoc_failures(p, t_gf, t_l, t_hg, t_r) -> list:
    """Basis triples (i, j, k) of one path where (h o g) o f != h o (g o f),
    in order: t_gf gives g o f, t_l composes h after it, t_hg gives h o g
    and t_r composes it after f (None is zero).  Each side sums products of
    nonzero constants matched on their middle index m."""
    diff = {}  # (i, j, k) -> {q: lhs - rhs}
    # left: T_l[q][k][m] T_gf[m][j][i], pairs (a, b) = (j, i) and (k, m);
    # right: T_r[q][m][i] T_hg[m][k][j], pairs (a, b) = (k, j) and (m, i)
    for first, second, pos, sign in ((t_gf, t_l, 1, 1), (t_hg, t_r, 0, -1)):
        by_m = {}  # m -> (the other index of second's pair, entries)
        for pair, entries in (second or _NONE).items():
            by_m.setdefault(pair[pos], []).append((pair[1 - pos], entries))
        for (a, b), composite in (first or _NONE).items() if by_m else ():
            for m, c in composite:
                for other, entries in by_m.get(m, ()):
                    d = diff.setdefault((b, a, other) if sign == 1 else (other, b, a), {})
                    for q, v in entries:
                        d[q] = d.get(q, 0) + sign * c * v
    return sorted(ijk for ijk, d in diff.items() if any(v % p for v in d.values()))


def invert(cat: GradedCatPresentation, f: Morphism):
    """Two-sided inverse of f (degree |f|^-1), or None.

    Solves g o f = id_src and f o g = id_dst for g in Hom^{|f|^-1}(dst, src):
    one linear system whose matrix stacks precompose(f) on postcompose(f),
    in closed form with the verdicts of fplinalg.solve when every rank is
    1.  A vector of the wrong length is no morphism, and has no inverse.
    """
    gH = cat.tau.source
    a_inv = gH.inv(f.degree)
    r2 = cat.rank(f.dst, f.src, a_inv)
    e = gH.identity
    r_src = cat.rank(f.src, f.src, e)
    r_dst = cat.rank(f.dst, f.dst, e)
    if 0 in (r2, r_src, r_dst) or len(f.coords) != cat.rank(f.src, f.dst, f.degree):
        return None
    p = cat.field.p
    id_src, id_dst = cat.identities[f.src], cat.identities[f.dst]
    if r2 == r_src == r_dst == len(f.coords) == 1:
        c1 = _constant(cat.tensor(f.src, f.dst, f.src, f.degree, a_inv)) * f.coords[0] % p
        c2 = _constant(cat.tensor(f.dst, f.src, f.dst, a_inv, f.degree)) * f.coords[0] % p
        (i1,), (i2,) = id_src, id_dst
        if c1:
            x = i1 * pow(c1, -1, p) % p
            solvable = (c2 * x - i2) % p == 0
        elif c2:
            x = i2 * pow(c2, -1, p) % p
            solvable = i1 == 0
        else:
            x, solvable = 0, i1 == i2 == 0
        return Morphism(f.dst, f.src, a_inv, (x,)) if solvable else None
    system = precompose(cat, f, f.src, a_inv) + postcompose(cat, f, f.dst, a_inv)
    x = fplinalg.solve(system, id_src + id_dst, p, ncols=r2)
    if x is None:
        return None
    return Morphism(f.dst, f.src, a_inv, tuple(x))


_MAX_ENUM, _SAMPLES = 4096, 64


def _candidate_vectors(p: int, r: int, seed: int = 0):
    if r == 1:
        yield (1,)
        return
    if p ** r <= _MAX_ENUM:
        yield from (vec for vec in product(range(p), repeat=r) if any(vec))
        return
    rng = Random(seed)
    for _ in range(_SAMPLES):
        vec = tuple(rng.randrange(p) for _ in range(r))
        if any(vec):
            yield vec


def find_invertible(cat: GradedCatPresentation, x: int, y: int, a: int):
    """(f, f^-1) with f an invertible element of Hom^a(x, y), or None.

    On a lawful presentation an invertible f makes g -> f^-1 o g embed
    Hom^a(x, y) in End(x), and g -> g o f^-1 embed it in End(y); so when
    either end is simple, a rank other than 1 is an exact None.  Otherwise
    the search is exhaustive over coordinate vectors while p^rank <= 4096.
    Beyond that a fixed-seed sample is tried: a hit is exact, since invert
    proves it, and a miss raises CapExceeded, the question undecided.
    """
    r = cat.rank(x, y, a)
    if r == 0 or (r > 1 and cat.lawful and (is_simple(cat, x) or is_simple(cat, y))):
        return None
    p = cat.field.p
    for coords in _candidate_vectors(p, r):
        f = Morphism(x, y, a, coords)
        g = invert(cat, f)
        if g is not None:
            return (f, g)
    if r > 1 and p ** r > _MAX_ENUM:
        raise CapExceeded(f"{_SAMPLES} sampled of the {p}^{r} vectors of "
                          f"Hom^{a}({x}, {y}) hold no invertible")
    return None


def find_shift(cat: GradedCatPresentation, x: int, a: int):
    """(target, iso, inverse) realising the shift of x by a, or None.

    Scans objects of the forced degree tau(a)|x| in index order and returns
    the first carrying an invertible element of Hom^a(x, -).
    """
    gH, gG = cat.tau.source, cat.tau.target
    if a == gH.identity:
        idm = identity_morphism(cat, x)
        return (x, idm, idm)
    want = gG.mul(cat.tau.map[a], cat.degrees[x])
    for y in cat.objects():
        if cat.degrees[y] != want:
            continue
        hit = find_invertible(cat, x, y, a)
        if hit is not None:
            return (y, *hit)
    return None


def is_simple(cat: GradedCatPresentation, x: int) -> bool:
    return cat.rank(x, x, cat.tau.source.identity) == 1


def direct_sum_cat(cats) -> GradedCatPresentation:
    """Disjoint union of presentations over the same tau and field."""
    cats = list(cats)
    if not cats:
        raise ValueError("need at least one presentation")
    first = cats[0]
    for c in cats[1:]:
        if c.tau != first.tau:
            raise ValueError("presentations graded by different homomorphisms")
        if c.field != first.field:
            raise ValueError("presentations over different fields")
    degrees, identities, hom_rank, comp, sums, offset = [], [], {}, {}, {}, 0
    for c in cats:
        hom_rank.update(((x + offset, y + offset, h), r) for (x, y, h), r in c.hom_rank.items())
        for hh2, group in c.tensors.items():
            comp.setdefault(hh2, {}).update(
                ((x + offset, y + offset, z + offset), t) for (x, y, z), t in group.items())
        degrees.extend(c.degrees)
        identities.extend(c.identities)
        for x, parts in c.sums.items():
            sums[x + offset] = tuple(
                (part + offset,
                 Morphism(i.src + offset, i.dst + offset, i.degree, i.coords),
                 Morphism(q.src + offset, q.dst + offset, q.degree, q.coords))
                for (part, i, q) in parts)
        offset += c.n_objects
    return GradedCatPresentation._trusted(first.tau, first.field, degrees, hom_rank,
                                          comp, identities, sums=sums)


class FunctorData:
    """Degree-preserving functor between presentations as finite linear data.

    hom_maps[(x, y, h)] is a matrix (target rank x source rank) sending
    source basis coordinates to target coordinates; absent keys are zero.
    The constructor checks each key and normalises and shapes each matrix;
    the functors built in memory (identity_functor, compose_functors, the
    module bridge's and structure's functors) use `_trusted`, which skips
    that loop.
    """

    def __init__(self, source: GradedCatPresentation, target: GradedCatPresentation,
                 obj_map, hom_maps):
        self.source = source
        self.target = target
        self.obj_map = tuple(int(x) for x in obj_map)
        self.hom_maps = {}
        n, nh = source.n_objects, source.tau.source.order
        for key, mat in hom_maps.items():
            x, y, h = key
            if not (0 <= x < n and 0 <= y < n and 0 <= h < nh):
                raise ValueError(f"functor hom key out of range: {key}")
            self.hom_maps[key] = tuple(tuple(int(v) % target.field.p for v in row)
                                       for row in mat)
        for (x, y, h), mat in self.hom_maps.items():
            rows = target.rank(self.obj_map[x], self.obj_map[y], h)
            cols = source.rank(x, y, h)
            if len(mat) != rows or any(len(r) != cols for r in mat):
                raise ValueError(f"functor matrix at {(x, y, h)} has wrong shape")

    @classmethod
    def _trusted(cls, source: GradedCatPresentation, target: GradedCatPresentation,
                 obj_map, hom_maps) -> FunctorData:
        """The functor of canonical data, without the checking loop.

        The caller owes keys of source hom spaces and, at each, a tuple of
        tuples of ints in [0, p), shaped target rank x source rank; hom_maps
        is kept, not copied.
        """
        F = cls.__new__(cls)
        F.source, F.target, F.obj_map, F.hom_maps = source, target, tuple(obj_map), hom_maps
        return F

    def matrix(self, x: int, y: int, h: int):
        mat = self.hom_maps.get((x, y, h))
        if mat is None:
            rows = self.target.rank(self.obj_map[x], self.obj_map[y], h)
            cols = self.source.rank(x, y, h)
            mat = tuple((0,) * cols for _ in range(rows))
        return mat

    def __eq__(self, other):
        if not isinstance(other, FunctorData):
            return NotImplemented
        if self.obj_map != other.obj_map:
            return False
        keys = set(self.source.hom_rank)
        return all(self.matrix(*k) == other.matrix(*k) for k in keys)


def identity_functor(cat: GradedCatPresentation) -> FunctorData:
    maps = {}
    for (x, y, h), r in cat.hom_rank.items():
        maps[(x, y, h)] = tuple(tuple(1 if i == j else 0 for j in range(r))
                                for i in range(r))
    return FunctorData._trusted(cat, cat, cat.objects(), maps)


def compose_functors(F: FunctorData, G: FunctorData) -> FunctorData:
    """Apply F first, then G."""
    if F.target is not G.source and F.target != G.source:
        raise ValueError("functors are not composable")
    maps = {}
    for (x, y, h), r in F.source.hom_rank.items():
        a = F.matrix(x, y, h)
        b = G.matrix(F.obj_map[x], F.obj_map[y], h)
        ba = fplinalg.matmul([list(row) for row in b], [list(row) for row in a],
                             G.target.field.p)
        # a has no rows when F sends Hom^h(x, y) to a zero space; b a then has r zero columns
        maps[(x, y, h)] = tuple(map(tuple, ba)) if a else ((0,) * r,) * len(b)
    return FunctorData._trusted(F.source, G.target,
                                [G.obj_map[F.obj_map[x]] for x in F.source.objects()], maps)


def _columns(mat, r: int) -> list:
    return [tuple(row[i] for row in mat) for i in range(r)]


def verify_functor(F: FunctorData) -> Verdict:
    """Identity, composition and degree preservation over all basis data.

    Read off the hom matrices A and the tensors: F(id_x) is A(x,x;e) id_x,
    and for basis elements i of Hom^{h1}(x, y) and j of Hom^{h2}(y, z)
    F(g_j o f_i) = A(x,z;h2h1) T_src(x,y,z;h1,h2)[:, j, i] must equal T_tgt
    contracted with column i of A(x,y;h1) and column j of A(y,z;h2).

    The composition law is first checked only where the outer degree h2 lies
    in the source's generating degrees, when both presentations are lawful
    and some hom space of the source has a degree outside them.  The
    morphisms g with F(g o f) = F(g) o F(f) for every f form a subspace, and
    it is closed under composition: for g1, g2 in it,
    F((g2 g1) f) = F(g2 (g1 f)) = F(g2) F(g1 f) = F(g2) (F(g1) F(f))
    = (F(g2) F(g1)) F(f) = F(g2 g1) F(f), by associativity of the source,
    then of the target.  It contains the generating degrees, which generate
    every morphism, so when these paths pass every path passes.  Otherwise
    (no proof, or a violation found) every path is scanned in order, and
    the list is the one the full scan gives.
    """
    violations = []
    src, tgt = F.source, F.target
    p = tgt.field.p
    e = src.tau.source.identity
    omap = F.obj_map
    for x in src.objects():
        if tgt.degrees[omap[x]] != src.degrees[x]:
            violations.append(("object-degree", x))
    for x in src.objects():
        image = fplinalg.matvec(F.matrix(x, x, e), src.identities[x], p)
        if image != tgt.identities[omap[x]]:
            violations.append(("identity", x))
    outer = src.generating_degrees if src.lawful and tgt.lawful else None
    if outer is not None and all(h in outer for (_, _, h) in src.hom_rank):
        outer = None  # the restricted scan would be the full scan
    if outer is None or next(_functor_violations(F, outer), None):
        violations.extend(_functor_violations(F))
    return Verdict(violations)


def _functor_violations(F: FunctorData, outer=None):
    """The composition-law violations of F on every path whose outer degree
    lies in outer (every path when None), in path and basis order."""
    src, tgt = F.source, F.target
    p = tgt.field.p
    hmul = src.tau.source.mul
    omap = F.obj_map
    outs = [[hom for hom in src.out_homs(y) if outer is None or hom[1] in outer]
            for y in src.objects()]
    for x in src.objects():
        for (y, h1, r1) in src.out_homs(x):
            f_cols = _columns(F.matrix(x, y, h1), r1)
            for (z, h2, r2) in outs[y]:
                h21 = hmul(h2, h1)
                a3 = F.matrix(x, z, h21)
                g_cols = _columns(F.matrix(y, z, h2), r2)
                t_src = src.tensor(x, y, z, h1, h2) or _NONE
                t_tgt = tgt.tensor(omap[x], omap[y], omap[z], h1, h2)
                r, r_src = tgt.rank(omap[x], omap[z], h21), src.rank(x, z, h21)
                for i in range(r1):
                    for j in range(r2):
                        lhs = fplinalg.matvec(a3, _column(t_src.get((j, i), ()), r_src), p)
                        if lhs != _contract(p, t_tgt, r, f_cols[i], g_cols[j]):
                            yield ("compose", (x, y, z), (h1, h2), (i, j))


class NatTransData:
    """Natural transformation with degree-1 components, F => G."""

    def __init__(self, source: FunctorData, target: FunctorData, components):
        self.source = source
        self.target = target
        self.components = tuple(components)

    def component(self, x: int) -> Morphism:
        return self.components[x]


def _image(F: FunctorData, f: tuple, h=None) -> tuple:
    """F applied to a (src, dst, coords) morphism of degree h, the unit when None."""
    mat = F.matrix(f[0], f[1], F.source.tau.source.identity if h is None else h)
    return (F.obj_map[f[0]], F.obj_map[f[1]], fplinalg.matvec(mat, f[2], F.target.field.p))


def _nat_violations(src: GradedCatPresentation, tgt: GradedCatPresentation, comps,
                    F, G, then):
    """Every violation of comps as a transformation F => G, in report order.

    F(f, h) and G(f, h) send a degree-h (src, dst, coords) morphism f of src
    to tgt, their object maps read off the images of identities, and
    then(f, g, h, h2) is g o f in tgt.  Every component that is not a
    degree-1 morphism Fx -> Gx with one coordinate per basis element of its
    hom space is reported ("component-shape"); only when none is, every
    basis element f of src with c_y o F(f) != G(f) o c_x ("naturality").
    """
    e = src.tau.source.identity
    shapes = []
    for x in src.objects():
        c = comps[x]
        ident = (x, x, src.identities[x])
        if (c.degree != e or (c.src, c.dst) != (F(ident, e)[0], G(ident, e)[0])
                or len(c.coords) != tgt.rank(c.src, c.dst, e)):
            shapes.append(("component-shape", x))
    if shapes:
        yield from shapes
        return
    for x in src.objects():
        cx = _coords(comps[x])
        for (y, h, r) in src.out_homs(x):
            cy = _coords(comps[y])
            for i in range(r):
                f = (x, y, tuple(int(k == i) for k in range(r)))
                if then(cx, G(f, h), e, h) != then(F(f, h), cy, h, e):
                    yield ("naturality", x, y, h, i)


def verify_nat(nt: NatTransData) -> Verdict:
    """Component shapes, then naturality on every basis element: once F and
    G share their source ("endpoint-mismatch"), every violation
    _nat_violations lists, each composite read off the target's tensors."""
    F, G = nt.source, nt.target
    if G.source is not F.source and G.source != F.source:
        return Verdict([("endpoint-mismatch",)])
    tgt = F.target
    return Verdict(list(_nat_violations(
        F.source, tgt, nt.components, partial(_image, F), partial(_image, G),
        partial(_then, tgt))))
