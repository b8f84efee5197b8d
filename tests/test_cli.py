import json
import subprocess
import sys

import pytest

from taucat import category, cli, structure
from taucat.znsolve import CapExceeded

TAUDOC = {"source": {"cyclic": 8}, "target": {"cyclic": 2},
          "map": [0, 1, 0, 1, 0, 1, 0, 1]}


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "taucat.cli", *args],
                          capture_output=True, text=True)


@pytest.fixture()
def tau_file(tmp_path):
    path = tmp_path / "tau.json"
    path.write_text(json.dumps(TAUDOC))
    return str(path)


@pytest.fixture()
def category_file(tmp_path, tau_file):
    out = tmp_path / "cat.json"
    r = run_cli("build-mtau", "--tau", tau_file, "--p", "5", "--L", "0,4",
                "--g", "0", "-o", str(out))
    assert r.returncode == 0
    return str(out)


def spec_doc(L, g=0):
    return {"tau": TAUDOC, "p": 5, "L": L, "psi": "trivial", "g": g}


def test_verify_ok(category_file):
    r = run_cli("verify", category_file)
    assert r.returncode == 0
    assert json.loads(r.stdout)["ok"] is True


def test_verify_reports_violations(tmp_path, category_file):
    doc = json.loads(open(category_file).read())
    doc["objects"][0]["deg"] = 1  # break the grading
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    r = run_cli("verify", str(bad))
    assert r.returncode == 1
    assert json.loads(r.stdout)["ok"] is False


def test_malformed_input_exit_2(tmp_path):
    bad = tmp_path / "junk.json"
    bad.write_text('{"nope": 1}')
    assert run_cli("verify", str(bad)).returncode == 2
    assert run_cli("verify", str(tmp_path / "missing.json")).returncode == 2


@pytest.mark.parametrize("variant", ["objects_int", "tensor_int", "top_level_list",
                                     "compose_degree_out_of_range", "psi_value_int",
                                     "psi_value_zero",
                                     "psi_top_level_list", "psi_key_out_of_range",
                                     "spec_L_int", "datum_gamma_value_int",
                                     "datum_t_out_of_range", "L_option_out_of_range",
                                     "negative_rank", "repeated_homs", "repeated_compose",
                                     "repeated_sums", "compose_src_string",
                                     "compose_record_int", "compose_object",
                                     "compose_field_missing", "tensor_missing",
                                     "tensor_ragged", "tensor_entry_bool",
                                     "tensor_entry_float", "tensor_layer_int"])
def test_schema_errors_exit_2_without_traceback(tmp_path, tau_file, category_file,
                                                variant):
    bad = tmp_path / "bad.json"
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(spec_doc([0, 4])))
    datum = tmp_path / "datum.json"
    datum.write_text(json.dumps({"t": 0}))
    # the psi, spec and datum files and the --L option reach build-mtau,
    # classify-equiv and classify-nat; the others are category files for verify
    argv = ("verify", str(bad))
    named = None  # what the error must name
    doc = json.loads(open(category_file).read())
    first = doc["compose"][0]
    key = "({src}, {mid}, {dst}, {h}, {h2})".format(**first)
    if variant == "objects_int":
        doc["objects"] = 5
        named = "objects must be a JSON array, not int"
    elif variant == "tensor_int":
        first["tensor"] = 7
        named = "composition tensor must be a JSON array, not int"
    elif variant == "tensor_layer_int":
        first["tensor"] = [7]
        named = "composition tensor must be a JSON array, not int"
    elif variant == "compose_degree_out_of_range":
        first["h2"] = 99
        named = "composition key out of range: ({src}, {mid}, {dst}, {h}, 99)".format(**first)
    elif variant == "compose_src_string":
        first["src"] = str(first["src"])
        named = f"compose src must be an integer, not {first['src']!r}"
    elif variant == "compose_record_int":
        doc["compose"][1] = 4
        named = "compose must be a JSON object, not int"
    elif variant == "compose_object":
        doc["compose"] = {"0": first}
        named = "compose must be a JSON array, not dict"
    elif variant == "compose_field_missing":
        del first["h2"]
        named = "error: 'h2'"
    elif variant == "tensor_missing":
        del first["tensor"]
        named = "error: 'tensor'"
    elif variant == "tensor_ragged":
        first["tensor"] = [[[1, 0]]]
        named = f"ragged composition tensor at {key}"
    elif variant == "tensor_entry_bool":
        first["tensor"] = [[[True]]]
        named = "composition tensor must be an integer, not True"
    elif variant == "tensor_entry_float":
        first["tensor"] = [[[1.0]]]
        named = "composition tensor must be an integer, not 1.0"
    elif variant == "negative_rank":  # was dropped as a zero rank
        doc["homs"].append({"src": 0, "dst": 1, "h": 0, "rank": -3})
        named = "negative hom rank at (0, 1, 0)"
    elif variant == "repeated_homs":
        doc["homs"].append(doc["homs"][0])
        named = "repeated homs key ({src}, {dst}, {h})".format(**doc["homs"][0])
    elif variant == "repeated_compose":
        # the last record used to win, so this contradicting first one verified
        doc["compose"].insert(0, {**doc["compose"][0], "tensor": [[[3]]]})
        named = "repeated compose key ({src}, {mid}, {dst}, {h}, {h2})".format(
            **doc["compose"][0])
    elif variant == "repeated_sums":
        doc["sums"] = [{"object": 0, "parts": [{"part": 0, "injection": [1],
                                                "projection": [1]}]}] * 2
        named = "repeated sums key (0,)"
    elif variant.startswith("psi_"):
        doc = {"subgroup": [0, 4], "values": {"1,2": [1, 1]}}
        if variant == "psi_value_int":
            doc["values"]["1,2"] = 5
        elif variant == "psi_value_zero":
            doc["values"]["1,2"] = [0, 1]  # 0 is not a unit
        elif variant == "psi_top_level_list":
            doc = [doc]
        else:
            doc["values"]["9,9"] = [1, 1]
        argv = ("build-mtau", "--tau", tau_file, "--L", "0,4", "--psi", str(bad))
    elif variant == "spec_L_int":
        doc = {**spec_doc([0, 4]), "L": 5}
        argv = ("classify-equiv", str(bad), str(spec))
    elif variant == "L_option_out_of_range":
        argv = ("build-mtau", "--tau", tau_file, "--L", "0,99")
    elif variant.startswith("datum_"):
        doc = ({"t": 0, "gamma": {"values": {"0": 3}}} if variant == "datum_gamma_value_int"
               else {"t": 99})
        argv = ("classify-nat", str(spec), str(spec), "--datumA", str(bad),
                "--datumB", str(datum))
    else:
        doc = [doc]
        named = "category must be a JSON object, not list"
    bad.write_text(json.dumps(doc))
    r = run_cli(*argv)
    assert r.returncode == 2
    assert "Traceback" not in r.stderr
    assert named is None or named in r.stderr


@pytest.mark.parametrize("variant", ["tensor_entry_float", "p_float", "p_string",
                                     "rank_bool"])
def test_non_integers_are_not_read_as_integers(tmp_path, category_file, variant):
    # int() would read 1.5 and 5.9 as 1 and 5, "5" as 5 and true as 1, and
    # the tensor case would verify; JSON integers are the only integers
    doc = json.loads(open(category_file).read())
    if variant == "tensor_entry_float":
        doc["compose"][0]["tensor"][0][0][0] += 0.5
    elif variant == "p_float":
        doc["p"] = 5.9
    elif variant == "p_string":
        doc["p"] = "5"
    else:
        doc["homs"][0]["rank"] = True
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    r = run_cli("verify", str(bad))
    assert r.returncode == 2
    assert r.stdout == ""
    assert "must be an integer" in r.stderr
    assert "Traceback" not in r.stderr


def test_classify_nat_rejects_an_invalid_datum(tmp_path):
    # t = 1 has tau(1) = 1, not g_A g_B^-1 = 0, so the first datum is no
    # equivalence datum at all; that is an input error even though the two
    # data's t also lie in different cosets of L
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(spec_doc([0, 4])))
    data = []
    for t in (1, 0):
        data.append(tmp_path / f"datum{t}.json")
        data[-1].write_text(json.dumps({"t": t}))
    r = run_cli("classify-nat", str(spec), str(spec), "--datumA", str(data[0]),
                "--datumB", str(data[1]))
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr.startswith("error: ")
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize("variant", ["top_level_list", "action_list", "epsilon_int",
                                     "mu_list", "maps_int", "epsilon_length",
                                     "mu_length", "mu_degree_out_of_range",
                                     "map_src_out_of_range", "action_degree_99",
                                     "action_degree_negative", "base_degree_not_1",
                                     "action_degree_missing", "mu_pair_missing",
                                     "repeated_map"])
def test_module_schema_errors_exit_2_without_traceback(tmp_path, category_file,
                                                       variant):
    r = run_cli("extract", category_file)
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    if variant == "action_list":
        doc["action"] = []
    elif variant == "epsilon_int":
        doc["epsilon"] = 5
    elif variant == "mu_list":
        doc["mu"] = [1]
    elif variant == "maps_int":
        doc["action"]["1"]["maps"] = 3
    elif variant == "epsilon_length":
        doc["epsilon"][0] = [1, 3]  # End(0) has rank 1
    elif variant == "mu_length":
        doc["mu"]["1,1"][0] = []
    elif variant == "mu_degree_out_of_range":
        doc["mu"]["9,9"] = doc["mu"]["1,1"]
    elif variant == "map_src_out_of_range":
        doc["action"]["1"]["maps"][0]["src"] = 99
    elif variant in ("action_degree_99", "action_degree_negative"):
        doc["action"]["99" if variant == "action_degree_99" else "-1"] = doc["action"]["1"]
    elif variant == "action_degree_missing":
        del doc["action"]["3"]
    elif variant == "mu_pair_missing":
        del doc["mu"]["1,1"]
    elif variant == "repeated_map":  # the last record used to win
        doc["action"]["1"]["maps"].append(doc["action"]["1"]["maps"][0])
    elif variant == "base_degree_not_1":
        # the acted-on category has degree-1 morphisms only
        doc["base"]["homs"].append({"src": 0, "dst": 1, "h": 1, "rank": 1})
    else:
        doc = [doc]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    r = run_cli("bullet", str(bad))
    assert r.returncode == 2
    assert "Traceback" not in r.stderr
    if variant in ("action_degree_missing", "mu_pair_missing"):
        assert "one entry per" in r.stderr
    if variant == "repeated_map":
        assert "repeated action maps key" in r.stderr


def test_decompose_exit_codes(category_file):
    r = run_cli("decompose", category_file)
    assert r.returncode == 0
    rep = json.loads(r.stdout)
    assert rep["semisimple"] is True
    assert len(rep["summands"]) == 1


def test_classify_equiv_exit_codes(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps(spec_doc([0, 4])))
    b.write_text(json.dumps(spec_doc([0, 2, 4, 6])))
    same = run_cli("classify-equiv", str(a), str(a))
    assert same.returncode == 0
    assert json.loads(same.stdout)["equivalent"] is True
    diff = run_cli("classify-equiv", str(a), str(b))
    assert diff.returncode == 1
    assert json.loads(diff.stdout)["data"] == []


def test_classify_nat_flow(tmp_path):
    a = tmp_path / "a.json"
    a.write_text(json.dumps(spec_doc([0, 4])))
    ce = run_cli("classify-equiv", str(a), str(a))
    data = json.loads(ce.stdout)["data"]
    d0 = tmp_path / "d0.json"
    d0.write_text(json.dumps(data[0]))
    d1 = tmp_path / "d1.json"
    d1.write_text(json.dumps(data[1]))
    same = run_cli("classify-nat", str(a), str(a), "--datumA", str(d0),
                   "--datumB", str(d0))
    assert same.returncode == 0
    diff = run_cli("classify-nat", str(a), str(a), "--datumA", str(d0),
                   "--datumB", str(d1))
    assert diff.returncode == 1


def test_exceeded_cap_is_reported_as_undecided(tmp_path):
    # over F_4099 the natural isomorphisms of the identity are the 4098
    # constant units, past classify_nat_isos' cap of 4096: not a malformed
    # input and not a negative answer
    spec = tmp_path / "a.json"
    spec.write_text(json.dumps({**spec_doc([0, 2, 4, 6]), "p": 4099}))
    datum = tmp_path / "d.json"
    datum.write_text(json.dumps({"t": 0}))
    r = run_cli("classify-nat", str(spec), str(spec), "--datumA", str(datum),
                "--datumB", str(datum))
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr == ("undecided: enumeration cap exceeded: "
                        "solution set of size 4098 exceeds cap 4096\n")


@pytest.mark.parametrize("cmd", ["roundtrip", "extract", "decompose"])
def test_shift_search_past_the_cap_is_undecided(category_file, monkeypatch, capsys, cmd):
    # a sampled search for an iso that misses past the cap is no negative
    # verdict: no report, exit 2
    def undecided(*args):
        raise CapExceeded("no invertible sampled")

    monkeypatch.setattr(category, "find_invertible", undecided)
    monkeypatch.setattr(structure, "find_invertible", undecided)
    assert cli.main([cmd, category_file]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "undecided: enumeration cap exceeded: no invertible sampled\n"


def test_yoneda_and_roundtrip(category_file):
    assert run_cli("yoneda-check", category_file).returncode == 0
    assert run_cli("roundtrip", category_file).returncode == 0


def test_groupoid_and_bullet_pipeline(tmp_path, tau_file, category_file):
    g = run_cli("build-groupoid", "--tau", tau_file, "--p", "5")
    assert g.returncode == 0
    mod = tmp_path / "mod.json"
    r = run_cli("extract", category_file, "-o", str(mod))
    assert r.returncode == 0
    b = run_cli("bullet", str(mod))
    assert b.returncode == 0
    rebuilt = json.loads(b.stdout)
    original = json.loads(open(category_file).read())
    assert rebuilt["homs"] == original["homs"]


def test_paper_suite_deterministic():
    first = run_cli("paper-suite", "--p", "5", "--seed", "0")
    second = run_cli("paper-suite", "--p", "5", "--seed", "0")
    assert first.returncode == 0
    assert first.stdout == second.stdout
    report = json.loads(first.stdout)
    assert report["ok"] is True


def test_unknown_flag_exit_2():
    assert run_cli("verify", "--bogus").returncode == 2
