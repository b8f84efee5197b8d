"""Command-line front end.

Exit codes separate mathematics from operations: 0 means the command ran
and the verdict was positive, 1 means it ran and the verdict was negative
(axiom violation, empty classification, not semisimple), 2 means the
input could not be processed at all, or an enumeration passed its cap and
the question is undecided.  Reports are canonical JSON on
stdout; wall-clock timing goes to stderr so repeated runs stay
byte-identical.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from functools import cache
from random import Random

from . import jsonio
from .category import direct_sum_cat, find_invertible, find_shift
from .cochains import d1_cochain, random_cochain1
from .fields import field
from .groups import coset_space, cyclic_group
from .mtau import (build_group_groupoid, build_skeleton, check_skeleton_inverses,
                   cyclic_subgroup_of_order, cyclic_table_category, mtau_spec,
                   parity_tau, simple_census, trivial_spec)
from .structure import classify_equivalences, classify_nat_isos, decompose
from .modcat import bullet, extract_action, roundtrip
from .yoneda import has_invertible_nat, nat_equal, nat_space, phi, phi_inv, representable
from .znsolve import CapExceeded


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _load(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _emit(report, out_path=None):
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    sys.stdout.write(text)


def _violations_json(verdict):
    return [list(map(str, v)) for v in verdict.violations]


def cmd_verify(args) -> int:
    cat = jsonio.parse_category(_load(args.category))
    verdict = cat.verdict
    report = {
        "command": "verify",
        "inputs": {args.category: _digest(args.category)},
        "ok": verdict.ok,
        "violations": _violations_json(verdict),
    }
    _emit(report, args.output)
    return 0 if verdict.ok else 1


def cmd_build_mtau(args) -> int:
    tau = jsonio.parse_hom(_load(args.tau))
    f = field(args.p)
    sub = jsonio.parse_subgroup([int(v) for v in args.L.split(",")], "--L",
                                tau.source)
    if args.psi == "trivial":
        spec = trivial_spec(tau, f, sub, args.g)
    else:
        psi = jsonio.parse_cochain2(_load(args.psi), f, tau)
        spec = mtau_spec(tau, f, sub, psi, args.g)
    cat = build_skeleton(spec)
    report = jsonio.category_to_json(cat)
    _emit(report, args.output)
    return 0


def cmd_build_groupoid(args) -> int:
    tau = jsonio.parse_hom(_load(args.tau))
    cat = build_group_groupoid(tau, field(args.p))
    _emit(jsonio.category_to_json(cat), args.output)
    return 0


def _verified_category(args, command: str, violations: bool = False):
    """The category file of a read command, or None once the refusal report
    of a failing verdict is emitted, with the violations when asked."""
    cat = jsonio.parse_category(_load(args.category))
    verdict = cat.verdict
    if verdict.ok:
        return cat
    report = {"command": command, "ok": False, "error": "category fails verification"}
    if violations:
        report["violations"] = _violations_json(verdict)
    _emit(report, args.output)
    return None


def _reported(args, command: str, fn, cat):
    """fn(cat), or None once its ValueError is emitted as a negative verdict;
    CapExceeded, an undecided search, is none and propagates."""
    try:
        return fn(cat)
    except CapExceeded:
        raise
    except ValueError as err:  # a missing shift or a failed coherence
        _emit({"command": command, "ok": False, "error": str(err)}, args.output)
        return None


def cmd_decompose(args) -> int:
    cat = _verified_category(args, "decompose", violations=True)
    if cat is None:
        return 1
    rep = decompose(cat)
    report = {
        "command": "decompose",
        "inputs": {args.category: _digest(args.category)},
        "semisimple": rep.semisimple,
        "obstruction": list(map(str, rep.obstruction)) if rep.obstruction else None,
        "summands": [jsonio.mtau_spec_to_json(s) for s in rep.summands],
    }
    _emit(report, args.output)
    return 0 if rep.semisimple else 1


def cmd_classify_equiv(args) -> int:
    spec_a = jsonio.parse_mtau_spec(_load(args.spec_a))
    spec_b = jsonio.parse_mtau_spec(_load(args.spec_b))
    data = classify_equivalences(spec_a, spec_b)
    report = {
        "command": "classify-equiv",
        "inputs": {args.spec_a: _digest(args.spec_a),
                   args.spec_b: _digest(args.spec_b)},
        "equivalent": bool(data),
        "data": [jsonio.datum_to_json(d) for d in data],
    }
    _emit(report, args.output)
    return 0 if data else 1


def cmd_classify_nat(args) -> int:
    spec_a = jsonio.parse_mtau_spec(_load(args.spec_a))
    spec_b = jsonio.parse_mtau_spec(_load(args.spec_b))
    datum_a = jsonio.parse_datum(_load(args.datum_a), spec_a)
    datum_b = jsonio.parse_datum(_load(args.datum_b), spec_a)
    etas = classify_nat_isos(spec_a, spec_b, datum_a, datum_b)
    report = {
        "command": "classify-nat",
        "inputs": {args.spec_a: _digest(args.spec_a),
                   args.spec_b: _digest(args.spec_b),
                   args.datum_a: _digest(args.datum_a),
                   args.datum_b: _digest(args.datum_b)},
        "isomorphic": bool(etas),
        "etas": [list(e.units()) for e in etas],
    }
    _emit(report, args.output)
    return 0 if etas else 1


def _yoneda_audit(cat):
    gH = cat.tau.source
    e = gH.identity
    table = []
    ok = True
    for x in cat.objects():
        for y in cat.objects():
            for a in gH.elements():
                F = representable(a, y)
                basis = nat_space(cat, x, a, F)
                want = cat.rank(y, x, e)
                good = len(basis) == want
                for nt in basis:
                    v = phi(cat, nt)
                    if not nat_equal(cat, F, nt, phi_inv(cat, x, a, F, v)):
                        good = False
                ok = ok and good
                table.append({"x": x, "a": a, "y": y,
                              "nat_dim": len(basis), "hom_dim": want,
                              "ok": good})
    return ok, table


def cmd_yoneda_check(args) -> int:
    cat = _verified_category(args, "yoneda-check")
    if cat is None:
        return 1
    ok, table = _yoneda_audit(cat)
    report = {
        "command": "yoneda-check",
        "inputs": {args.category: _digest(args.category)},
        "ok": ok,
        "dimensions": table,
    }
    _emit(report, args.output)
    return 0 if ok else 1


def cmd_roundtrip(args) -> int:
    cat = _verified_category(args, "roundtrip")
    rt = None if cat is None else _reported(args, "roundtrip", roundtrip, cat)
    if rt is None:
        return 1
    report = {
        "command": "roundtrip",
        "inputs": {args.category: _digest(args.category)},
        "ok": True,
        # bullet has raised on any degree-law violation before this point
        "degree_law": True,
        "rebuilt_objects": rt.rebuilt.n_objects,
    }
    _emit(report, args.output)
    return 0


def cmd_bullet(args) -> int:
    cat = bullet(jsonio.parse_modcat(_load(args.modcat)))
    _emit(jsonio.category_to_json(cat), args.output)
    return 0


def cmd_extract(args) -> int:
    cat = _verified_category(args, "extract")
    mod = None if cat is None else _reported(args, "extract", extract_action, cat)
    if mod is None:
        return 1
    _emit(jsonio.modcat_to_json(mod), args.output)
    return 0


def run_paper_suite(p: int, seed: int):
    """The full worked-example battery; returns (report, all_ok)."""
    f = field(p)
    tau = parity_tau()
    rng = Random(seed)
    report = {"command": "paper-suite", "p": p, "seed": seed, "sections": {}}
    ok_all = True

    # 1. hand-written cyclic family; sections 3 to 5 reuse these presentations
    sect = {}
    tables = {k: cyclic_table_category(f, k) for k in (1, 2, 4)}
    for k, cat in tables.items():
        v = cat.verdict
        dims = set()
        for x in cat.objects():
            for y in cat.objects():
                dims.add(sum(cat.rank(x, y, h) for h in cat.tau.source.elements()))
        sect[f"C_{k}"] = {"ok": v.ok, "total_hom_dim": sorted(dims)}
        ok_all = ok_all and v.ok and dims == {k}
    v8 = cyclic_table_category(f, 8).verdict
    witness = [v for v in v8.violations if v[0] == "grading"]
    c8_ok = (not v8.ok) and witness and witness[0][1] == 0 and witness[0][3] == 1
    sect["C_8"] = {"grading_violation": bool(witness),
                   "witness": list(map(str, witness[0])) if witness else None}
    ok_all = ok_all and c8_ok
    report["sections"]["cyclic_family"] = sect

    # 2. skeleton battery
    sect = {}
    c8g = cyclic_group(8)
    kernel_order = 4
    specs = []
    for k in (1, 2, 4):
        L = cyclic_subgroup_of_order(k)
        space = coset_space(c8g, L)
        psis = [None] + [d1_cochain(random_cochain1(f, space, rng))
                         for _ in range(3)]
        for g in (0, 1):
            for psi in psis:
                spec = (trivial_spec(tau, f, L, g) if psi is None
                        else mtau_spec(tau, f, L, psi, g))
                specs.append(spec)
    built = []
    all_good = True
    for spec in specs:
        cat = build_skeleton(spec)
        good = cat.verdict.ok
        good = good and check_skeleton_inverses(spec, cat)
        census = simple_census(cat)
        want = kernel_order // spec.L.order
        good = good and all(c == want for c in census.values())
        built.append((spec, cat))
        all_good = all_good and good
    sect["count"] = len(specs)
    sect["all_verified"] = all_good
    ok_all = ok_all and all_good
    report["sections"]["skeletons"] = sect

    # 3. structure round trip
    sect = {}
    good = True
    for spec, cat in built[::4]:
        rep = decompose(cat)
        good = good and rep.semisimple and len(rep.summands) == 1
        good = good and bool(classify_equivalences(spec, rep.summands[0]))
    both = direct_sum_cat([tables[2], tables[4]])
    rep2 = decompose(both)
    good = good and rep2.semisimple and len(rep2.summands) == 2
    sect["ok"] = good
    ok_all = ok_all and good
    report["sections"]["structure"] = sect

    # 4. yoneda audit on C_2 and one twisted skeleton
    sect = {}
    good, _ = _yoneda_audit(tables[2])
    L2 = cyclic_subgroup_of_order(2)
    space2 = coset_space(c8g, L2)
    tw = build_skeleton(mtau_spec(tau, f, L2,
                                  d1_cochain(random_cochain1(f, space2, rng)), 0))
    good2, _ = _yoneda_audit(tw)
    sect["C_2"] = good
    sect["twisted_skeleton"] = good2
    ok_all = ok_all and good and good2
    report["sections"]["yoneda"] = sect

    # 5. shifts and module round trips
    sect = {}
    cats = list(tables.values())
    cats += [cat for _, cat in built[:4]]
    good = True
    for cat in cats:
        gH = cat.tau.source
        for x in cat.objects():
            for a in gH.elements():
                hit = find_shift(cat, x, a)
                if hit is None:
                    good = False
                    continue
                want = cat.tau.target.mul(cat.tau.map[a], cat.degrees[x])
                good = good and cat.degrees[hit[0]] == want
        try:
            roundtrip(cat)
        except ValueError:
            good = False
    c2cat = tables[2]
    for x in c2cat.objects():
        for y in c2cat.objects():
            for a in c2cat.tau.source.elements():
                direct = find_invertible(c2cat, x, y, a) is not None
                via = has_invertible_nat(c2cat, y, 0, representable(a, x))
                good = good and direct == via
    sect["ok"] = good
    ok_all = ok_all and good
    report["sections"]["shifts_and_roundtrips"] = sect

    report["ok"] = ok_all
    return report, ok_all


def cmd_paper_suite(args) -> int:
    report, ok = run_paper_suite(args.p, args.seed)
    _emit(report, args.output)
    return 0 if ok else 1


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parsing does not change it."""
    ap = argparse.ArgumentParser(prog="taucat",
                                 description="exact engine for group-homomorphism-graded categories")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("-o", "--output", default=None, help="also write the report here")

    sp = sub.add_parser("verify", help="check the axioms of a category file")
    sp.add_argument("category")
    common(sp)
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("build-mtau", help="build a skeletal block category")
    sp.add_argument("--tau", required=True)
    sp.add_argument("--p", type=int, default=5)
    sp.add_argument("--L", required=True, help="comma-separated subgroup elements")
    sp.add_argument("--psi", default="trivial", help="cochain file or 'trivial'")
    sp.add_argument("--g", type=int, default=0)
    common(sp)
    sp.set_defaults(fn=cmd_build_mtau)

    sp = sub.add_parser("build-groupoid", help="linearised action groupoid of tau")
    sp.add_argument("--tau", required=True)
    sp.add_argument("--p", type=int, default=5)
    common(sp)
    sp.set_defaults(fn=cmd_build_groupoid)

    sp = sub.add_parser("decompose", help="semisimple decomposition report")
    sp.add_argument("category")
    common(sp)
    sp.set_defaults(fn=cmd_decompose)

    sp = sub.add_parser("classify-equiv", help="equivalence data between two blocks")
    sp.add_argument("spec_a")
    sp.add_argument("spec_b")
    common(sp)
    sp.set_defaults(fn=cmd_classify_equiv)

    sp = sub.add_parser("classify-nat", help="natural isomorphisms between two equivalences")
    sp.add_argument("spec_a")
    sp.add_argument("spec_b")
    sp.add_argument("--datumA", dest="datum_a", required=True)
    sp.add_argument("--datumB", dest="datum_b", required=True)
    common(sp)
    sp.set_defaults(fn=cmd_classify_nat)

    sp = sub.add_parser("yoneda-check", help="evaluation-isomorphism audit")
    sp.add_argument("category")
    common(sp)
    sp.set_defaults(fn=cmd_yoneda_check)

    sp = sub.add_parser("roundtrip", help="category <-> module category round trips")
    sp.add_argument("category")
    common(sp)
    sp.set_defaults(fn=cmd_roundtrip)

    sp = sub.add_parser("extract", help="export the module-category data of a category")
    sp.add_argument("category")
    common(sp)
    sp.set_defaults(fn=cmd_extract)

    sp = sub.add_parser("bullet", help="rebuild a graded category from module data")
    sp.add_argument("modcat")
    common(sp)
    sp.set_defaults(fn=cmd_bullet)

    sp = sub.add_parser("paper-suite", help="run the full worked-example battery")
    sp.add_argument("--p", type=int, default=5)
    sp.add_argument("--seed", type=int, default=0)
    common(sp)
    sp.set_defaults(fn=cmd_paper_suite)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as err:
        return 2 if err.code not in (0, None) else 0
    start = time.monotonic()
    try:
        code = args.fn(args)
    except CapExceeded as err:
        sys.stderr.write(f"undecided: enumeration cap exceeded: {err}\n")
        return 2
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as err:
        sys.stderr.write(f"error: {err}\n")
        return 2
    sys.stderr.write(f"elapsed: {time.monotonic() - start:.3f}s\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
