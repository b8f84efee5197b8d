"""Golden stdout: sha256 digests of stdout, with exit codes, of fixed CLI runs.

The inputs are C8/C12/C16 skeleton files built by `build-mtau`, a direct
sum, two additive-completion files (one closed under shifts), the module
files `extract` writes for them, the six-object S3 -> C2 skeleton (H
nonabelian, so x<b><a> and x<ab> are reached in different orders), a
one-object C4 -> 1 presentation
whose Yoneda audit cannot be solved on a generating set of degrees, and two
presentations that fail verification: the C12 skeleton with one structure
constant changed at degrees outside the generating set, and a completion
that no generating set of degrees spans, with one structure constant
changed.  Last come the C8 action groupoid, the equivalence classes
between two pairs of C8 block files, and the natural isomorphisms between
data of the second pair, which the classification prints.  Each command
runs in process from a temporary working directory with relative
file names, because reports echo their input paths.  A refactor
that keeps every verdict and every report byte keeps this table; a change
that moves a digest changes what the CLI prints.

`PYTHONPATH=src python tests/test_golden_stdout.py` prints the current
table in the form GOLDEN takes.
"""

import contextlib
import hashlib
import io
import json
from random import Random

import pytest

from taucat import cli, jsonio
from taucat.category import (GradedCatPresentation, direct_sum_cat, identity_functor,
                             identity_morphism)
from taucat.cochains import d1_cochain, random_cochain1
from taucat.completion import AdditiveCompletion
from taucat.fields import field
from taucat.groups import coset_space, cyclic_group, reduction_hom, subgroup
from taucat.modcat import ModuleCatData, bullet
from taucat.mtau import build_skeleton, mtau_spec, parity_tau
from test_yoneda import s3_cat, ungenerated_cat

F5 = field(5)

# name -> (exit code, sha256 of stdout)
GOLDEN = {
    "paper-suite/0": (0, "ddc6acf61662d12bf777f7020bc395b38db5461a8785ce6b8d97c4051e0a235e"),
    "paper-suite/1": (0, "1e0e883321e7e8050f47e311dd41b76aabfba2d0189f817d7c69ff41677f55d2"),
    "paper-suite/2": (0, "ca23127291e3440ec3194cda004019de36437fa40d4d3eca599ab41bc2ef5edd"),
    "build-mtau/C8L1.json": (0, "97a422530e0c8e219a0b02b4bceb655207de63b35451eca870c764b329e00251"),
    "build-mtau/C12L2.json": (0, "a97d02238d1b44da682ac24dc4cf4db45e437bc3077ed34fd415df82cb723ba2"),
    "build-mtau/C16L4.json": (0, "00fe4c8719d9af89335a1d5dbd001acabaafd074f41e47f1b53aa23f4f0b7123"),
    "verify/C8L1.json": (0, "ef3ad5cf615a4945c7a8feae72265fc066260824e1c4eacaa83213ad4fe470a4"),
    "decompose/C8L1.json": (0, "761a505de6200a0343c16d9d8ab9f4da840a3623769025a6705173187fe20ec6"),
    "roundtrip/C8L1.json": (0, "3601b7a12deecb3f9b82b3d80a6acbaa1859cc8a2ddf74d305aa284dce48f77d"),
    "yoneda-check/C8L1.json": (0, "3dba07753a2211bd0bd7bdb29a5460109d1b5e1e0d43cbfcf0ed0184c4457fed"),
    "extract/C8L1.json": (0, "d365425c0330181f1fc6121c2889d538ef6b396846731d3a1e4a5c9f624460a5"),
    "bullet/C8L1-mod.json": (0, "97a422530e0c8e219a0b02b4bceb655207de63b35451eca870c764b329e00251"),
    "verify/C12L2.json": (0, "eba36308ecc7389f8bf2ea06a329f6bd0306d98da77e7f0461950550b8b2abb8"),
    "decompose/C12L2.json": (0, "3fb350fe74efa375588727b8aa4c4834655492a5d20522ed2d522443b1606e95"),
    "roundtrip/C12L2.json": (0, "811ca4c14bcd1b644a37f764ac3af5a2e727553692e25a98d2605bafebafce9a"),
    "extract/C12L2.json": (0, "ce8e24fd44d8ea36adffcece0318c30cb7cf21601413b09e5ccfec399711f2ba"),
    "bullet/C12L2-mod.json": (0, "a97d02238d1b44da682ac24dc4cf4db45e437bc3077ed34fd415df82cb723ba2"),
    "verify/C16L4.json": (0, "f2e50514100db21890c2e7035bc660dceafc0c223430112e94e94af4365a6419"),
    "decompose/C16L4.json": (0, "0c71eb2f6d5465f003ab939335f355c3fda71d16e7fdcb76c51beb6786ec243d"),
    "roundtrip/C16L4.json": (0, "0cd312213912b3bbac262399127a17f9cc6b2c3f2f590a31e0a7851987311c5c"),
    "extract/C16L4.json": (0, "274b954e8f0062dec4a4049199c73c4527eb4faa61093ce6834ec9a3eafde65d"),
    "bullet/C16L4-mod.json": (0, "00fe4c8719d9af89335a1d5dbd001acabaafd074f41e47f1b53aa23f4f0b7123"),
    "verify/sum.json": (0, "b576806cbc29f931e4da3498d3a4cb6f9e6ee5dd6c5aeb641434b754326512a3"),
    "decompose/sum.json": (0, "344092a618eb303d13d1a543009ee4a0acf23f11e39c6f7c6e152f49b4a90f24"),
    "roundtrip/sum.json": (0, "d4d446d98ee4ff8ea5cab49a3360e2f25837d1c3afdda049073f9c6091847626"),
    "yoneda-check/sum.json": (0, "ee5e8b37c69cfd4bb362c6cda8c9f2f0c0b257789383c2329015c5fe802f51e3"),
    "extract/sum.json": (0, "f67fc236a85cf46dadad35dbeb95572aaee5e0005447bf1bbbc253cb9a2d177d"),
    "bullet/sum-mod.json": (0, "f7ed4cfa5c2b9d96a912a6c3d3efe70c17c0f2212c6bc9d2b2923f9a399e498d"),
    "verify/completion.json": (0, "bf204787d63d07a5c7c4adce22bfa240e4260cd78d0145dfd4fa79bacfa6fe0a"),
    "decompose/completion.json": (0, "52522dbc0035a13c46b7d8bbc7410e58ee70aba70256158cf3cf9a91a05df5a2"),
    "roundtrip/completion.json": (1, "8e0333b90b9ad5b601f6829f693688fd1bc10b923b9b599ed9c3c8571a281d66"),
    "yoneda-check/completion.json": (0, "6da7e0a308c855ab8ab8ff4a8cf8ce45ae25fd78d494c64e2d95233b2b8cedb1"),
    "extract/completion.json": (1, "b31dfa6d8771905ffe7c8409cea6433bcb365b976bb496163b896cdf8e8e5e1c"),
    "verify/closed.json": (0, "218718bfa596669902c0a153c8cd9281ce5fcb90149a585ad6e821eaf53a805b"),
    "decompose/closed.json": (0, "a436cfb37f111b4a9addfb0ffbdd4f45f5daa5941bcbb2a635558ae66312b268"),
    "roundtrip/closed.json": (0, "e266df94c3d541a06fce8580518cc2bc20c3d104f9eb3324639e7a57b29b385f"),
    "extract/closed.json": (0, "5e509fe4a4fb3e1d5ab98642a8ef4be329222d556ac3704777c5fa3926ec5571"),
    "bullet/closed-mod.json": (0, "fe2653603948ec14b81ce28d9d3d6fd80855f06410009c19a3f55a86ce0919e1"),
    "extract/S3.json": (0, "e705b6f4edc518a45d3f2c34c03ebb347cf252cf8aac75b10e21220111945c27"),
    "bullet/S3-mod.json": (0, "0d17f43612189f01bcaa24c06de5c918ef2f1308782dfaf3299ab128b214bf0c"),
    "roundtrip/S3.json": (0, "ed45054dddbd0c1bb5d0ff0cf12501717091a7ff057dd705a48332214bea4414"),
    "yoneda-check/ungenerated.json": (0, "cb4eb313a5b2f3ac1f002eed0e6c9fcc8c48a762855acdad5ba82632c89cd016"),
    "verify/C12bad.json": (1, "72d647404a351f00d303a52e8347eac5c4139acb73f36ffede5a3bc823b2c3fe"),
    "decompose/C12bad.json": (1, "bf1e2cf38df97e3f81f0a30b61f4b66490b9f60cd1f1ba036f38f985a88f0da0"),
    "verify/gappy.json": (1, "f4781f7e8dc13f72a8fc3036086d4fbd3d142954fe244fcad67811a812f89245"),
    "decompose/gappy.json": (1, "12bc2b2fee67a83491afe0c78f609fb4b398d929c7c375a0edab6e32656503b0"),
    "build-groupoid/tau8.json": (0, "266b61f4be57c4e3e7493eff71336f5673f87abab3cd4caf608eea8e52d4b92f"),
    "classify-equiv/C8L1": (0, "4e951de9ab98482be7e00a006d35db211d1bad4e517f22554d2e59be42957727"),
    "classify-equiv/C8L4": (0, "c0dde65347ad98ece7c3be046bcf60f6568eec66e9ce33154500a04a8b1991c3"),
    "classify-nat/datum0.json+datum0.json": (0, "ded69c5e765cf4fe4a891d6a225a0a7cf9fa3468b58e0d2f683e6378f9453fe8"),
    "classify-nat/datum0.json+datum1.json": (1, "27834183985dacfae380e958235314d3f13f423bf0b617bbe143819208bf61e4"),
}


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


def _write(name, doc):
    with open(name, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return name


def _psi(n, k, seed):
    space = coset_space(cyclic_group(n), subgroup(cyclic_group(n), range(0, n, n // k)))
    return d1_cochain(random_cochain1(F5, space, Random(seed)))


def golden_runs():
    """Build the inputs in the current directory; yield (name, argv)."""
    for s in range(3):
        yield f"paper-suite/{s}", ["paper-suite", "--p", "5", "--seed", str(s)]
    categories = []
    for n, k, g in ((8, 1, 0), (12, 2, 1), (16, 4, 0)):
        tau = _write(f"tau{n}.json", {"source": {"cyclic": n}, "target": {"cyclic": 2},
                                      "map": [a % 2 for a in range(n)]})
        psi = _write(f"psi{n}.json", jsonio.cochain2_to_json(_psi(n, k, n)))
        name = f"C{n}L{k}.json"
        yield f"build-mtau/{name}", ["build-mtau", "--tau", tau, "--p", "5", "--L",
                                     ",".join(str(a) for a in range(0, n, n // k)),
                                     "--psi", psi, "--g", str(g), "-o", name]
        categories.append(name)
    tau8 = parity_tau()
    specs = [mtau_spec(tau8, F5, subgroup(cyclic_group(8), range(0, 8, 8 // k)),
                       _psi(8, k, 80 + k), k % 2) for k in (1, 4)]
    categories.append(_write("sum.json", jsonio.category_to_json(
        direct_sum_cat([build_skeleton(s) for s in specs]))))
    spec = mtau_spec(tau8, F5, subgroup(cyclic_group(8), (0, 4)), _psi(8, 2, 82), 0)
    pres = AdditiveCompletion(build_skeleton(spec)).presentation_of(
        [(0,), (1,), (2,), (3,), (0, 2)])
    categories.append(_write("completion.json", jsonio.category_to_json(pres)))
    # every object has all its shifts, so the round trip runs on rank-2 homs
    closed = AdditiveCompletion(build_skeleton(spec)).presentation_of(
        [(0,), (1,), (2,), (3,), (0, 2), (1, 3)])
    categories.append(_write("closed.json", jsonio.category_to_json(closed)))
    for name in categories:
        for cmd in ("verify", "decompose", "roundtrip"):
            yield f"{cmd}/{name}", [cmd, name]
        if name in ("C8L1.json", "sum.json", "completion.json"):
            yield f"yoneda-check/{name}", ["yoneda-check", name]
        stem = name.removesuffix(".json")
        yield f"extract/{name}", ["extract", name, "-o", f"{stem}-mod.json"]
        if name != "completion.json":  # a sum object has no shift to extract
            yield f"bullet/{stem}-mod.json", ["bullet", f"{stem}-mod.json"]
    # nonabelian H: its mu components and the rebuilt tensors read x<b><a>
    # and x<ab>, which an abelian H never tells apart
    name = _write("S3.json", jsonio.category_to_json(s3_cat()))
    yield f"extract/{name}", ["extract", name, "-o", "S3-mod.json"]
    yield "bullet/S3-mod.json", ["bullet", "S3-mod.json"]
    yield f"roundtrip/{name}", ["roundtrip", name]
    # a presentation no generating set of degrees certifies
    name = _write("ungenerated.json", jsonio.category_to_json(ungenerated_cat()))
    yield f"yoneda-check/{name}", ["yoneda-check", name]
    # failing runs print every violation; C12 is generated by degree 1, and
    # the completion lacks the objects (2,) and (3,) its degree-1 homs factor through
    with open("C12L2.json", encoding="utf-8") as fh:
        c12 = json.load(fh)
    _write("C12bad.json", _changed_entry(c12, lambda e: min(e["h"], e["h2"]) >= 2))
    gappy = AdditiveCompletion(build_skeleton(spec)).presentation_of(
        [(0,), (1,), (0, 0), (0, 2)])
    _write("gappy.json", _changed_entry(jsonio.category_to_json(gappy),
                                        lambda e: len(e["tensor"]) > 1))
    for name in ("C12bad.json", "gappy.json"):
        for cmd in ("verify", "decompose"):
            yield f"{cmd}/{name}", [cmd, name]
    yield "build-groupoid/tau8.json", ["build-groupoid", "--tau", "tau8.json", "--p", "5"]
    # coboundary blocks: with L = 1 each class has its own t, with |L| = 4
    # the classes share one t and come from H^1(L, F_5^x)
    for k in (1, 4):
        L = subgroup(cyclic_group(8), range(0, 8, 8 // k))
        pair = [_write(f"C8L{k}{s}.json", jsonio.mtau_spec_to_json(
            mtau_spec(tau8, F5, L, _psi(8, k, seed), 0))) for s, seed in (("a", 90), ("b", 91))]
        yield f"classify-equiv/C8L{k}", ["classify-equiv", *pair, "-o", f"equiv{k}.json"]
    # the first datum against itself, then against the second
    with open("equiv4.json", encoding="utf-8") as fh:
        data = [_write(f"datum{i}.json", d) for i, d in enumerate(json.load(fh)["data"][:2])]
    for other in data:
        yield f"classify-nat/{data[0]}+{other}", [
            "classify-nat", "C8L4a.json", "C8L4b.json", "--datumA", data[0], "--datumB", other]


def _changed_entry(doc, where):
    """doc with entry [0][0][0] of the first tensor satisfying where doubled mod 5."""
    entry = next(e for e in doc["compose"] if where(e) and e["tensor"][0][0][0])
    entry["tensor"][0][0][0] = entry["tensor"][0][0][0] * 2 % 5
    return doc


def record():
    """The current table, for pasting into GOLDEN."""
    return {name: _run(argv) for name, argv in golden_runs()}


def test_golden_stdout(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    got = record()
    assert set(got) == set(GOLDEN)
    for name in GOLDEN:
        assert got[name] == GOLDEN[name], name


# the category files golden_runs writes; the corrupted ones are written
# before the run named here, and the skeletons by the build-mtau runs
CATEGORY_FILES = ("C8L1.json", "C12L2.json", "C16L4.json", "sum.json", "completion.json",
                  "closed.json", "S3.json", "ungenerated.json", "C12bad.json", "gappy.json")


def _written(name, cat):
    """The bytes golden_runs wrote for the category file `name`: the CLI's
    text, or _write's json.dump of category_to_json, whose keys keep their
    order, except that C12bad.json keeps the sorted keys of C12L2.json."""
    if name in CATEGORY_FILES[:3]:
        return jsonio.category_text(cat) + "\n"
    return json.dumps(jsonio.category_to_json(cat), sort_keys=name == "C12bad.json")


def test_writer_reproduces_every_category_file(tmp_path, monkeypatch):
    # parse then write gives back each file the golden table reads, byte for
    # byte: every record, zero tensors included, in the same order with the
    # same entries; and the text writer is the sorted, indented document
    monkeypatch.chdir(tmp_path)
    for name, argv in golden_runs():
        if name == "verify/C12bad.json":
            break
        if name.startswith("build-mtau/"):
            assert _run(argv)[0] == 0
    for name in CATEGORY_FILES:
        with open(name, encoding="utf-8") as fh:
            text = fh.read()
        doc = json.loads(text)
        cat = jsonio.parse_category(doc)
        assert _written(name, cat) == text, name
        assert jsonio.category_text(cat) == json.dumps(doc, sort_keys=True, indent=2), name


def _zero_records(doc):
    return [r for r in doc["compose"] if not any(v for layer in r["tensor"]
                                                 for row in layer for v in row)]


def _zero_composite_module():
    """C2 acting trivially on a lawful base where f: 0 -> 1 and g: 1 -> 2
    compose to zero in Hom(0, 2), of rank 1, and End(3) is the dual numbers
    1, u with u o u = 0, of rank 2."""
    homs = {(0, 1, 0): 1, (1, 2, 0): 1, (0, 2, 0): 1, (3, 3, 0): 2,
            **{(x, x, 0): 1 for x in range(3)}}
    one = [[[1]]]
    comp = {(x, x, y, 0, 0): one for (x, y, _) in homs if x != 3}
    comp.update({(x, y, y, 0, 0): one for (x, y, _) in homs if x != 3})
    comp[(3, 3, 3, 0, 0)] = [[[1, 0], [0, 0]], [[0, 1], [1, 0]]]
    base = GradedCatPresentation(reduction_hom(2, 1), F5, [0] * 4, homs, comp,
                                 [[1], [1], [1], [1, 0]])
    comps = tuple(identity_morphism(base, x) for x in base.objects())
    action = {h: identity_functor(base) for h in (0, 1)}
    return ModuleCatData(base, action, comps, {(a, b): comps for a in (0, 1) for b in (0, 1)})


def test_zero_tensors_survive_as_records():
    # presentation_of declares a tensor for every triple of nonzero hom
    # spaces, and bullet's matrix branch one for every nonzero target space:
    # both declare the zero tensor at (0, 1, 2), which stays a record through
    # a parse and a write
    mod = _zero_composite_module()
    sums = AdditiveCompletion(mod.base).presentation_of([(0,), (1,), (2,), (3,), (0, 3)])
    for cat in (sums, bullet(mod)):
        doc = jsonio.category_to_json(cat)
        assert (0, 1, 2) in {(r["src"], r["mid"], r["dst"]) for r in _zero_records(doc)}
        again = jsonio.category_to_json(jsonio.parse_category(json.loads(json.dumps(doc))))
        assert again == doc

if __name__ == "__main__":
    import os
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        for name, result in record().items():
            print(f"    {name!r}: {result!r},")
