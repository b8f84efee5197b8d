"""Transport of structure: verdicts do not depend on labels or bases.

Each presentation is moved by a random relabelling of its objects and a
random invertible change of basis in every hom space; its identities and
declared sums move with it.  If the new basis of Hom^h(x, y) is the columns
of P (in old coordinates), a morphism's coordinates become P^-1 times the
old ones, and the composition tensor becomes

    T'[k'][j'][i'] = sum P3^-1[k'][k] T[k][j][i] P2[j][j'] P1[i][i'].

The moved presentation is isomorphic to the first, so `verify_axioms`, the
outcome of `roundtrip` and the blocks `decompose` finds must not change.
The blocks are compared up to equivalence (`classify_equivalences`), not
by bytes: a reported base degree g moves with the orbit representative.
"""

from random import Random

import pytest

from taucat import fplinalg
from taucat.category import GradedCatPresentation, Morphism, verify_axioms
from taucat.completion import AdditiveCompletion
from taucat.modcat import roundtrip
from taucat.mtau import build_skeleton
from taucat.structure import classify_equivalences, decompose

from morphisms import dense_tensors
from test_category import twisted_skeleton
from test_yoneda import s3_cat


def _invertible(r, p, rng):
    """(P, P^-1) for a random invertible r x r matrix over F_p."""
    while True:
        mat = [[rng.randrange(p) for _ in range(r)] for _ in range(r)]
        inv = fplinalg.matinv([row[:] for row in mat], p)
        if inv is not None:
            return mat, inv


def _apply(mat, vec, p):
    return tuple(sum(m * v for m, v in zip(row, vec)) % p for row in mat)


def transport(cat, rng):
    """cat relabelled by a random permutation and rebased in every hom space."""
    p = cat.field.p
    e = cat.tau.source.identity
    perm = list(cat.objects())
    rng.shuffle(perm)  # old object x is new object perm[x]
    bases = {key: _invertible(r, p, rng) for key, r in sorted(cat.hom_rank.items())}
    degrees = [0] * cat.n_objects
    for x, d in enumerate(cat.degrees):
        degrees[perm[x]] = d
    hom_rank = {(perm[x], perm[y], h): r for (x, y, h), r in cat.hom_rank.items()}
    comp = {}
    for (x, y, z, h, h2), t in dense_tensors(cat).items():
        r1, r2 = cat.rank(x, y, h), cat.rank(y, z, h2)
        r3 = cat.rank(x, z, cat.tau.source.mul(h2, h))
        p1 = bases[(x, y, h)][0] if r1 else []
        p2 = bases[(y, z, h2)][0] if r2 else []
        q3 = bases[(x, z, cat.tau.source.mul(h2, h))][1] if r3 else []
        comp[(perm[x], perm[y], perm[z], h, h2)] = [
            [[sum(q3[k2][k] * t[k][j][i] * p2[j][j2] * p1[i][i2]
                  for k in range(r3) for j in range(r2) for i in range(r1)) % p
              for i2 in range(r1)] for j2 in range(r2)] for k2 in range(r3)]

    def moved(m):
        coords = _apply(bases[(m.src, m.dst, m.degree)][1], m.coords, p) if m.coords else ()
        return Morphism(perm[m.src], perm[m.dst], m.degree, coords)

    identities = [()] * cat.n_objects
    for x, c in enumerate(cat.identities):
        identities[perm[x]] = _apply(bases[(x, x, e)][1], c, p) if c else ()
    sums = {perm[x]: tuple((perm[part], moved(i), moved(q)) for part, i, q in parts)
            for x, parts in cat.sums.items()}
    return GradedCatPresentation(cat.tau, cat.field, degrees, hom_rank, comp,
                                 identities, sums=sums)


def _roundtrip_outcome(cat):
    try:
        roundtrip(cat)
    except ValueError:
        return "refused"
    return "ok"


def _equivalent_blocks(specs_a, specs_b):
    """Whether each block of specs_a is equivalent to a distinct block of specs_b."""
    left = list(specs_b)
    for a in specs_a:
        match = next((b for b in left if classify_equivalences(a, b)), None)
        if match is None:
            return False
        left.remove(match)
    return not left


CASES = {
    "c8_skeleton": lambda: build_skeleton(twisted_skeleton(31, k=2)),
    "s3": s3_cat,
    "completion": lambda: AdditiveCompletion(build_skeleton(twisted_skeleton(32, k=2)))
    .presentation_of([(0,), (1,), (2,), (3,), (0, 2)]),
}


@pytest.mark.parametrize("name", sorted(CASES))
@pytest.mark.parametrize("seed", range(3))
def test_verdicts_survive_transport_of_structure(name, seed):
    cat = CASES[name]()
    moved = transport(cat, Random(f"{name}/{seed}"))
    assert verify_axioms(moved).ok == verify_axioms(cat).ok
    assert _roundtrip_outcome(moved) == _roundtrip_outcome(cat)
    report, moved_report = decompose(cat), decompose(moved)
    assert report.semisimple and moved_report.semisimple
    assert _equivalent_blocks(report.summands, moved_report.summands)
