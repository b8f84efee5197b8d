"""JSON encodings for groups, homs, cochains, categories, block data and
module-category data.

Sparse conventions: omitted hom spaces are zero, omitted composition
tensors are zero, omitted cochain entries are 1.  Parsers re-verify
everything through the ordinary constructors, so malformed files fail
loudly rather than producing broken in-memory structures.

A category file's bytes are a contract, since every report hashes its
input: `category_text(cat)` is exactly
`json.dumps(category_to_json(cat), sort_keys=True, indent=2)`.  It formats
each `homs` record and each `compose` record between rank-1 hom spaces
from one template, any other tensor with a small formatter for nested
int arrays, and the remaining fields with `json.dumps`, indented one
level deeper (the encoder's text at depth d is its depth-0 text with 2d
more spaces after each newline).

A module file stores the base, the action's object maps and hom
matrices, and the coordinates of the epsilon and mu components; the
endpoints of epsilon and mu are fixed by the action, so neither the file
nor ModuleCatData stores them.
"""

from __future__ import annotations

import json

from .category import FunctorData, GradedCatPresentation, Morphism, _constant, _int
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
    tensors = _compose_records(doc.get("compose", []))
    identities = _array(doc["identities"], "identities", 2)
    e = tau.source.identity
    sums = {}
    for rec, (x,) in _keyed(doc.get("sums", []), "sums", "object"):
        sums[x] = tuple(
            (part, Morphism(part, x, e, tuple(_array(pd["injection"], "injection", 1))),
             Morphism(x, part, e, tuple(_array(pd["projection"], "projection", 1))))
            for pd, (part,) in _records(rec["parts"], "sum parts", "part"))
    # GradedCatPresentation checks each tensor in the walk that normalises it
    return GradedCatPresentation._grouped(tau, f, degrees, hom_rank, tensors, identities,
                                          sums=sums)


def _compose_records(value) -> dict:
    """The compose records as {(h, h2): {(src, mid, dst): tensor}}, the
    store's grouping, each tensor as the file gives it: one pass that checks
    each record's fields and refuses a key that repeats."""
    out = {}
    for rec in _array(value, "compose"):
        if type(rec) is not dict:
            _object(rec, "compose")
        xyz = x, y, z = rec["src"], rec["mid"], rec["dst"]
        hh2 = h, h2 = rec["h"], rec["h2"]
        if not type(x) is type(y) is type(z) is type(h) is type(h2) is int:
            for k in ("src", "mid", "dst", "h", "h2"):
                _int(rec[k], f"compose {k}")
        group = out.get(hh2)
        if group is None:
            group = out[hh2] = {}
        elif xyz in group:
            raise ValueError(f"repeated compose key {xyz + hh2}")
        group[xyz] = rec["tensor"]
    return out


def _sorted_tensors(cat: GradedCatPresentation) -> list:
    """Each stored tensor, a declared zero one included, in the file's record
    order, as (src, mid, dst, h, h2, tensor): the tensor is its one constant
    when its three hom spaces have rank 1, else the file's dense array."""
    rank, table = cat.hom_rank.get, cat.tau.source.table
    out = []
    for (h, h2), group in cat.tensors.items():
        h2h = table[h2][h]
        for (x, y, z), t in group.items():
            r1, r2, r3 = rank((x, y, h), 0), rank((y, z, h2), 0), rank((x, z, h2h), 0)
            out.append((x, y, z, h, h2, _constant(t) if r1 == r2 == r3 == 1
                        else _dense(t, r1, r2, r3)))
    out.sort()  # the keys differ, so no tensor is compared
    return out


def _dense(t, r1: int, r2: int, r3: int) -> list:
    """A stored tensor as the file's array c[k][j][i], shaped by the ranks of
    its three hom spaces: the one place a tensor is laid out dense."""
    out = [[[0] * r1 for _ in range(r2)] for _ in range(r3)]
    for (j, i), entries in t.items():
        for k, c in entries:
            out[k][j][i] = c
    return out


def _file_form(cat: GradedCatPresentation, homs, compose) -> dict:
    """The fields of a category file, with its `homs` and `compose` records
    as given, in category_to_json's order (a document dumped without
    sort_keys, as the benchmark and the golden table write some, keeps it)."""
    out = {
        "tau": hom_to_json(cat.tau),
        "p": cat.field.p,
        "objects": [{"deg": d} for d in cat.degrees],
        "homs": homs,
        "compose": compose,
        "identities": [list(c) for c in cat.identities],
    }
    if cat.sums:
        out["sums"] = [{"object": x, "parts": [
            {"part": part, "injection": list(i.coords), "projection": list(q.coords)}
            for part, i, q in parts]} for x, parts in sorted(cat.sums.items())]
    return out


def category_to_json(cat: GradedCatPresentation):
    """The file form of a presentation: every stored tensor, a declared
    zero one included, as a dense record.  Declared direct sums are kept,
    with degree-1 injections and projections.  A presentation records no
    shift choice, and no verdict depends on one: a reader of the file takes
    modcat.shift_table's scan."""
    return _file_form(
        cat, [{"src": x, "dst": y, "h": h, "rank": r}
              for (x, y, h), r in sorted(cat.hom_rank.items())],
        [{"src": x, "mid": y, "dst": z, "h": h, "h2": h2,
          "tensor": [[[t]]] if type(t) is int else t}
         for x, y, z, h, h2, t in _sorted_tensors(cat)])


def _int_array(value, indent: int) -> str:
    """json.dumps(value, indent=2) of nested arrays of ints whose first line
    sits `indent` spaces deep."""
    if not value:
        return "[]"
    inner = "\n" + " " * (indent + 2)
    items = ([_int_array(v, indent + 2) for v in value] if type(value[0]) is list
             else map(str, value))
    return "[" + inner + ("," + inner).join(items) + "\n" + " " * indent + "]"


def _list_text(items: list) -> str:
    """A top-level field's array of records, each record's text given."""
    return "[\n" + ",\n".join(items) + "\n  ]" if items else "[]"


# the records of category_to_json, keys sorted, as items of a top-level field
_HOM = '    {\n      "dst": %d,\n      "h": %d,\n      "rank": %d,\n      "src": %d\n    }'
_COMPOSE = ('    {\n      "dst": %d,\n      "h": %d,\n      "h2": %d,\n      "mid": %d,\n'
            '      "src": %d,\n      "tensor": %s\n    }')
_COMPOSE_1 = _COMPOSE.replace("%s", _int_array([[["%d"]]], 6))


def category_text(cat: GradedCatPresentation) -> str:
    """json.dumps(category_to_json(cat), sort_keys=True, indent=2), written
    from the store in one sorted walk of its records."""
    records = ("homs", "compose")  # given to _file_form as their text
    fields = _file_form(
        cat, _list_text([_HOM % (y, h, r, x) for (x, y, h), r in sorted(cat.hom_rank.items())]),
        _list_text([_COMPOSE_1 % (z, h, h2, y, x, t) if type(t) is int
                    else _COMPOSE % (z, h, h2, y, x, _int_array(t, 6))
                    for x, y, z, h, h2, t in _sorted_tensors(cat)]))
    return "{\n" + ",\n".join(
        f'  "{k}": ' + (v if k in records
                        else json.dumps(v, sort_keys=True, indent=2).replace("\n", "\n  "))
        for k, v in sorted(fields.items())) + "\n}"


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
