"""JSON encodings for groups, homs, cochains, categories, block data and
module-category data.

Sparse conventions: omitted hom spaces are zero, omitted composition
tensors are zero, omitted cochain entries are 1.  Parsers re-verify
everything through the ordinary constructors, so malformed files fail
loudly rather than producing broken in-memory structures.

A module file stores the base, the action's object maps and hom
matrices, and the coordinates of the epsilon and mu components; the
endpoints of epsilon and mu are fixed by the action, so neither the file
nor ModuleCatData stores them.
"""

from __future__ import annotations

from .category import FunctorData, GradedCatPresentation, Morphism, _int
from .category import _array as _check_array
from .cochains import Cochain1, Cochain2, cochain1, cochain2, trivial_cochain2
from .fields import PrimeField, field
from .groups import (FiniteGroup, GroupHom, coset_space, cyclic_group,
                     group_from_table, hom, subgroup)
from .modcat import ModuleCatData
from .mtau import MtauSpec, mtau_spec


def _object(doc, what: str) -> dict:
    if not isinstance(doc, dict):
        raise ValueError(f"{what} must be a JSON object, not {type(doc).__name__}")
    return doc


def _array(value, what: str, depth: int = 0) -> list:
    """A JSON array; with depth > 0, integers nested that many arrays deep."""
    _check_array(value, what)
    if depth == 1:
        return [_int(v, what) for v in value]
    if depth > 1:
        return [_array(v, what, depth - 1) for v in value]
    return value


def _degree(value, what: str, order: int) -> int:
    """A group element, given as its index."""
    h = _int(value, what)
    if not 0 <= h < order:
        raise ValueError(f"{what} {h} is not an element of a group of order {order}")
    return h


def _records(value, what: str, *keys: str):
    """Each object of a JSON array, with the named integer fields read off."""
    for rec in _array(value, what):
        rec = _object(rec, what)
        fields = tuple(rec[k] for k in keys)
        if not all(type(v) is int for v in fields):
            for k, v in zip(keys, fields):
                _int(v, f"{what} {k}")
        yield rec, fields


def _keyed(value, what: str, *keys: str):
    """_records, refusing a key (the named fields) that repeats."""
    seen = set()
    for rec, key in _records(value, what, *keys):
        if key in seen:
            raise ValueError(f"repeated {what} key {key}")
        seen.add(key)
        yield rec, key


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


def parse_subgroup(value, what: str, parent: FiniteGroup):
    """A subgroup of parent, given as the list of its element indices."""
    return subgroup(parent, [_degree(v, what, parent.order) for v in _array(value, what)])


def _cochain_doc(doc, tau: GroupHom, arity: int):
    """(coset space, {elements: values}) of a sparse cochain document whose
    keys are `arity` comma-separated elements of H."""
    what = f"{arity}-cochain"
    doc = _object(doc, what)
    space = coset_space(tau.source, parse_subgroup(doc["subgroup"], "subgroup", tau.source))
    entries = {}
    for key, vals in _object(doc.get("values", {}), f"{what} values").items():
        elements = tuple(_degree(int(v), f"{what} key", tau.source.order)
                         for v in key.split(","))
        if len(elements) != arity:
            raise ValueError(f"{what} key {key!r} needs {arity} comma-separated elements")
        entries[elements] = _array(vals, f"{what} value at {key!r}", 1)
    return space, entries


def parse_cochain2(doc, f: PrimeField, tau: GroupHom) -> Cochain2:
    space, entries = _cochain_doc(doc, tau, 2)
    n = tau.source.order
    return cochain2(f, space, [[entries.get((a, b), [1] * space.size) for b in range(n)]
                               for a in range(n)])


def cochain2_to_json(psi: Cochain2):
    out = {"subgroup": list(psi.space.subgroup.elements), "values": {}}
    for a, row in enumerate(psi.units()):
        for b, vals in enumerate(row):
            if any(v != 1 for v in vals):
                out["values"][f"{a},{b}"] = list(vals)
    return out


def parse_cochain1(doc, f: PrimeField, tau: GroupHom) -> Cochain1:
    space, entries = _cochain_doc(doc, tau, 1)
    return cochain1(f, space, [entries.get((a,), [1] * space.size)
                               for a in range(tau.source.order)])


def cochain1_to_json(gamma: Cochain1):
    out = {"subgroup": list(gamma.space.subgroup.elements), "values": {}}
    for a, vals in enumerate(gamma.units()):
        if any(v != 1 for v in vals):
            out["values"][str(a)] = list(vals)
    return out


def parse_mtau_spec(doc) -> MtauSpec:
    doc = _object(doc, "block spec")
    tau = parse_hom(doc["tau"])
    f = field(_int(doc["p"], "p"))
    sub = parse_subgroup(doc["L"], "L", tau.source)
    psi_doc = doc.get("psi", "trivial")
    if psi_doc == "trivial":
        psi = trivial_cochain2(f, coset_space(tau.source, sub))
    else:
        psi = parse_cochain2(psi_doc, f, tau)
        if psi.space.subgroup != sub:
            raise ValueError("psi subgroup does not match L")
    return mtau_spec(tau, f, sub, psi, _int(doc.get("g", tau.target.identity), "g"))


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
                for rec, key in _keyed(doc.get("homs", []), "homs", "src", "dst", "h")}
    # GradedCatPresentation checks each tensor in the walk that normalises it
    comp = {key: rec["tensor"] for rec, key in _keyed(
        doc.get("compose", []), "compose", "src", "mid", "dst", "h", "h2")}
    identities = _array(doc["identities"], "identities", 2)
    e = tau.source.identity
    sums = {}
    for rec, (x,) in _keyed(doc.get("sums", []), "sums", "object"):
        sums[x] = tuple(
            (part, Morphism(part, x, e, tuple(_array(pd["injection"], "injection", 1))),
             Morphism(x, part, e, tuple(_array(pd["projection"], "projection", 1))))
            for pd, (part,) in _records(rec["parts"], "sum parts", "part"))
    return GradedCatPresentation(tau, f, degrees, hom_rank, comp, identities,
                                 sums=sums)


def _dense(cat: GradedCatPresentation, x, y, z, h, h2) -> list:
    """T(x, y, z; h, h2) as the file's array c[k][j][i], shaped by the ranks
    of its three hom spaces: the one place a tensor is laid out dense."""
    rank = cat.hom_rank.get
    out = [[[0] * rank((x, y, h), 0) for _ in range(rank((y, z, h2), 0))]
           for _ in range(rank((x, z, cat.tau.source.table[h2][h]), 0))]
    for (j, i), entries in cat.tensors[h, h2][x, y, z].items():
        for k, c in entries:
            out[k][j][i] = c
    return out


def category_to_json(cat: GradedCatPresentation):
    """The file form of a presentation: every stored tensor, a declared
    zero one included, as a dense record.  Declared direct sums are kept,
    with degree-1 injections and projections.  A presentation records no
    shift choice, and no verdict depends on one: a reader of the file takes
    modcat.shift_table's scan."""
    out = {
        "tau": hom_to_json(cat.tau),
        "p": cat.field.p,
        "objects": [{"deg": d} for d in cat.degrees],
        "homs": [{"src": x, "dst": y, "h": h, "rank": r}
                 for (x, y, h), r in sorted(cat.hom_rank.items())],
        "compose": [{"src": x, "mid": y, "dst": z, "h": h, "h2": h2,
                     "tensor": _dense(cat, x, y, z, h, h2)}
                    for x, y, z, h, h2 in sorted(xyz + hh2 for hh2, group in cat.tensors.items()
                                                 for xyz in group)],
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
    if any(h != e for (_, _, h) in base.hom_rank):
        raise ValueError("module base has morphisms of degree other than 1")
    action = {}
    for h_s, blk in _object(doc["action"], "action").items():
        blk = _object(blk, "action entry")
        maps = {(x, y, e): _array(rec["matrix"], "action matrix", 2)
                for rec, (x, y) in _keyed(blk.get("maps", []), "action maps", "src", "dst")}
        action[_degree(int(h_s), "action degree", gH.order)] = FunctorData(
            base, base, _object_map(blk["objects"], "action objects", n), maps)
    if len(action) != gH.order:
        raise ValueError(f"action needs one entry per element of H, not {len(action)}")
    eps = tuple(_component(base, x, action[e].obj_map[x], coords, "epsilon")
                for x, coords in enumerate(_components(doc["epsilon"], "epsilon", n)))
    mu = {}
    for key, rows in _object(doc["mu"], "mu").items():
        a, b = (_degree(int(v), "mu degree", gH.order) for v in key.split(","))
        ab = gH.mul(a, b)
        mu[(a, b)] = tuple(
            _component(base, action[a].obj_map[action[b].obj_map[x]],
                       action[ab].obj_map[x], coords, f"mu {a},{b}")
            for x, coords in enumerate(_components(rows, "mu components", n)))
    if len(mu) != gH.order ** 2:
        raise ValueError(f"mu needs one entry per pair of elements of H, not {len(mu)}")
    mod = ModuleCatData(base, action, eps, mu)
    verdict = mod.verdict
    if not verdict.ok:
        raise ValueError(f"module data fails coherence: {verdict.violations[0]}")
    return mod


def modcat_to_json(mod: ModuleCatData):
    out = {
        "base": category_to_json(mod.base),
        "action": {},
        "epsilon": [list(c.coords) for c in mod.epsilon],
        "mu": {},
    }
    for h, F in sorted(mod.action.items()):
        out["action"][str(h)] = {
            "objects": list(F.obj_map),
            "maps": [{"src": x, "dst": y, "matrix": [list(r) for r in mat]}
                     for (x, y, _), mat in sorted(F.hom_maps.items())],
        }
    for (a, b), comps in sorted(mod.mu.items()):
        out["mu"][f"{a},{b}"] = [list(c.coords) for c in comps]
    return out


def datum_to_json(datum):
    return {"t": datum.t, "gamma": cochain1_to_json(datum.gamma)}


def parse_datum(doc, spec: MtauSpec):
    from .structure import EquivalenceDatum

    doc = _object(doc, "equivalence datum")
    gamma_doc = {"subgroup": list(spec.L.elements),
                 **_object(doc.get("gamma", {}), "datum gamma")}
    gamma = parse_cochain1(gamma_doc, spec.field, spec.tau)
    return EquivalenceDatum(_degree(doc["t"], "datum t", spec.tau.source.order), gamma)
