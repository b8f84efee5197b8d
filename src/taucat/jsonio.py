"""JSON encodings for groups, homs, cochains, categories, block data and
module-category data.

Sparse conventions: omitted hom spaces are zero, omitted composition
tensors are zero, omitted cochain entries are 1.  Parsers re-verify
everything through the ordinary constructors, so malformed files fail
loudly rather than producing broken in-memory structures.
"""

from __future__ import annotations

from .category import (FunctorData, GradedCatPresentation, Morphism, NatTransData,
                       compose_functors, identity_functor)
from .cochains import Cochain1, Cochain2, cochain1, cochain2, trivial_cochain2
from .fields import PrimeField, field
from .groups import (FiniteGroup, GroupHom, coset_space, cyclic_group,
                     group_from_table, hom, subgroup)
from .modcat import ModuleCatData, verify_module_category
from .mtau import MtauSpec, mtau_spec


def _object(doc, what: str) -> dict:
    if not isinstance(doc, dict):
        raise ValueError(f"{what} must be a JSON object, not {type(doc).__name__}")
    return doc


def _int(value, what: str) -> int:
    try:
        return int(value)
    except (TypeError, OverflowError):
        raise ValueError(f"{what} must be an integer, not {value!r}") from None


def _array(value, what: str, depth: int = 0) -> list:
    """A JSON array; with depth > 0, integers nested that many arrays deep."""
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a JSON array, not {type(value).__name__}")
    if depth == 1:
        return [_int(v, what) for v in value]
    if depth > 1:
        return [_array(v, what, depth - 1) for v in value]
    return value


def _records(value, what: str, *keys: str):
    """Each object of a JSON array, with the named integer fields read off."""
    for rec in _array(value, what):
        rec = _object(rec, what)
        yield rec, tuple(_int(rec[k], f"{what} {k}") for k in keys)


def parse_group(doc) -> FiniteGroup:
    doc = _object(doc, "group")
    if "cyclic" in doc:
        return cyclic_group(_int(doc["cyclic"], "cyclic group order"))
    if "table" in doc:
        return group_from_table(_array(doc["table"], "Cayley table", 2))
    raise ValueError("group document needs 'cyclic' or 'table'")


def group_to_json(g: FiniteGroup):
    return {"order": g.order, "table": [list(row) for row in g.table]}


def parse_hom(doc) -> GroupHom:
    doc = _object(doc, "homomorphism")
    src = parse_group(doc["source"])
    tgt = parse_group(doc["target"])
    return hom(src, tgt, _array(doc["map"], "homomorphism map", 1))


def hom_to_json(h: GroupHom):
    return {"source": group_to_json(h.source), "target": group_to_json(h.target),
            "map": list(h.map)}


def parse_cochain2(doc, f: PrimeField, tau: GroupHom) -> Cochain2:
    sub = subgroup(tau.source, doc["subgroup"])
    space = coset_space(tau.source, sub)
    n = tau.source.order
    grid = [[[1] * space.size for _ in range(n)] for _ in range(n)]
    for key, vals in doc.get("values", {}).items():
        a_s, b_s = key.split(",")
        grid[int(a_s)][int(b_s)] = [int(v) for v in vals]
    return cochain2(f, space, grid)


def cochain2_to_json(psi: Cochain2):
    out = {"subgroup": list(psi.space.subgroup.elements), "values": {}}
    n = psi.space.parent.order
    for a in range(n):
        for b in range(n):
            vals = psi.values[a][b]
            if any(v != 1 for v in vals):
                out["values"][f"{a},{b}"] = list(vals)
    return out


def parse_cochain1(doc, f: PrimeField, tau: GroupHom) -> Cochain1:
    sub = subgroup(tau.source, doc["subgroup"])
    space = coset_space(tau.source, sub)
    n = tau.source.order
    grid = [[1] * space.size for _ in range(n)]
    for key, vals in doc.get("values", {}).items():
        grid[int(key)] = [int(v) for v in vals]
    return cochain1(f, space, grid)


def cochain1_to_json(gamma: Cochain1):
    out = {"subgroup": list(gamma.space.subgroup.elements), "values": {}}
    for a in range(gamma.space.parent.order):
        vals = gamma.values[a]
        if any(v != 1 for v in vals):
            out["values"][str(a)] = list(vals)
    return out


def parse_mtau_spec(doc) -> MtauSpec:
    tau = parse_hom(doc["tau"])
    f = field(int(doc["p"]))
    sub = subgroup(tau.source, doc["L"])
    psi_doc = doc.get("psi", "trivial")
    if psi_doc == "trivial":
        psi = trivial_cochain2(f, coset_space(tau.source, sub))
    else:
        psi = parse_cochain2(psi_doc, f, tau)
        if psi.space.subgroup != sub:
            raise ValueError("psi subgroup does not match L")
    return mtau_spec(tau, f, sub, psi, int(doc.get("g", tau.target.identity)))


def mtau_spec_to_json(spec: MtauSpec):
    return {"tau": hom_to_json(spec.tau), "p": spec.field.p,
            "L": list(spec.L.elements), "psi": cochain2_to_json(spec.psi),
            "g": spec.g}


def parse_category(doc) -> GradedCatPresentation:
    doc = _object(doc, "category")
    tau = parse_hom(doc["tau"])
    f = field(_int(doc["p"], "p"))
    degrees = [deg for _, (deg,) in _records(doc["objects"], "objects", "deg")]
    hom_rank = {key: _int(rec["rank"], "hom rank")
                for rec, key in _records(doc.get("homs", []), "homs", "src", "dst", "h")}
    comp = {key: _array(rec["tensor"], "composition tensor", 3)
            for rec, key in _records(doc.get("compose", []), "compose",
                                     "src", "mid", "dst", "h", "h2")}
    identities = _array(doc["identities"], "identities", 2)
    e = tau.source.identity
    sums = {}
    for rec, (x,) in _records(doc.get("sums", []), "sums", "object"):
        sums[x] = tuple(
            (part, Morphism(part, x, e, tuple(_array(pd["injection"], "injection", 1))),
             Morphism(x, part, e, tuple(_array(pd["projection"], "projection", 1))))
            for pd, (part,) in _records(rec["parts"], "sum parts", "part"))
    return GradedCatPresentation(tau, f, degrees, hom_rank, comp, identities,
                                 sums=sums)


def category_to_json(cat: GradedCatPresentation):
    """The file form of a presentation.  Declared direct sums are kept, with
    degree-1 injections and projections; shift choices are not, since no
    verdict depends on which shift is chosen."""
    out = {
        "tau": hom_to_json(cat.tau),
        "p": cat.field.p,
        "objects": [{"deg": d} for d in cat.degrees],
        "homs": [{"src": x, "dst": y, "h": h, "rank": r}
                 for (x, y, h), r in sorted(cat.hom_rank.items())],
        "compose": [
            {"src": x, "mid": y, "dst": z, "h": h, "h2": h2,
             "tensor": [[list(row) for row in layer] for layer in t]}
            for (x, y, z, h, h2), t in sorted(cat.compose_t.items())
        ],
        "identities": [list(c) for c in cat.identities],
    }
    if cat.sums:
        out["sums"] = [{"object": x, "parts": [
            {"part": part, "injection": list(i.coords), "projection": list(q.coords)}
            for part, i, q in parts]} for x, parts in sorted(cat.sums.items())]
    return out


def _object_map(value, what: str, n: int) -> list:
    """One entry per object, each an object index."""
    out = _array(value, what, 1)
    if len(out) != n or not all(0 <= x < n for x in out):
        raise ValueError(f"{what} must send each of the {n} objects to an object")
    return out


def _components(value, what: str, n: int) -> list:
    """Coordinate vectors of one degree-1 morphism per object."""
    out = _array(value, what, 2)
    if len(out) != n:
        raise ValueError(f"{what} needs one component per object, not {len(out)}")
    return out


def _component(base: GradedCatPresentation, src: int, dst: int, coords,
               what: str) -> Morphism:
    """A degree-1 component, one coordinate per basis element of its hom space."""
    r = base.rank(src, dst, base.tau.source.identity)
    if len(coords) != r:
        raise ValueError(f"{what} component {src} -> {dst} has {len(coords)} "
                         f"coordinates for a hom space of rank {r}")
    return Morphism(src, dst, base.tau.source.identity, tuple(coords))


def parse_modcat(doc) -> ModuleCatData:
    """Module-category data, checked for coherence before it is returned."""
    doc = _object(doc, "module category")
    base = parse_category(doc["base"])
    gH = base.tau.source
    e = gH.identity
    n = base.n_objects
    action = {}
    for h_s, blk in _object(doc["action"], "action").items():
        blk = _object(blk, "action entry")
        maps = {(x, y, e): _array(rec["matrix"], "action matrix", 2)
                for rec, (x, y) in _records(blk.get("maps", []), "action maps",
                                            "src", "dst")}
        action[_int(h_s, "action degree")] = FunctorData(
            base, base, _object_map(blk["objects"], "action objects", n), maps)
    eps = NatTransData(identity_functor(base), action[e], [
        _component(base, x, action[e].obj_map[x], coords, "epsilon")
        for x, coords in enumerate(_components(doc["epsilon"], "epsilon", n))])
    mu = {}
    for key, rows in _object(doc["mu"], "mu").items():
        a, b = (_int(v, "mu degree") for v in key.split(","))
        ab = gH.mul(a, b)
        comps = [_component(base, action[a].obj_map[action[b].obj_map[x]],
                            action[ab].obj_map[x], coords, f"mu {a},{b}")
                 for x, coords in enumerate(_components(rows, "mu components", n))]
        mu[(a, b)] = NatTransData(compose_functors(action[b], action[a]),
                                  action[ab], comps)
    mod = ModuleCatData(base, action, eps, mu)
    verdict = verify_module_category(mod)
    if not verdict.ok:
        raise ValueError(f"module data fails coherence: {verdict.violations[0]}")
    return mod


def modcat_to_json(mod: ModuleCatData):
    out = {
        "base": category_to_json(mod.base),
        "action": {},
        "epsilon": [list(c.coords) for c in mod.epsilon.components],
        "mu": {},
    }
    for h, F in sorted(mod.action.items()):
        out["action"][str(h)] = {
            "objects": list(F.obj_map),
            "maps": [{"src": x, "dst": y, "matrix": [list(r) for r in mat]}
                     for (x, y, _), mat in sorted(F.hom_maps.items())],
        }
    for (a, b), nt in sorted(mod.mu.items()):
        out["mu"][f"{a},{b}"] = [list(c.coords) for c in nt.components]
    return out


def datum_to_json(datum):
    return {"t": datum.t, "gamma": cochain1_to_json(datum.gamma)}


def parse_datum(doc, spec: MtauSpec):
    from .structure import EquivalenceDatum

    gamma_doc = doc.get("gamma", {"subgroup": list(spec.L.elements), "values": {}})
    if "subgroup" not in gamma_doc:
        gamma_doc = dict(gamma_doc)
        gamma_doc["subgroup"] = list(spec.L.elements)
    gamma = parse_cochain1(gamma_doc, spec.field, spec.tau)
    return EquivalenceDatum(int(doc["t"]), gamma)
