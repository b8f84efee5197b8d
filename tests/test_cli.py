import json
import subprocess
import sys

import pytest

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
                                     "compose_degree_out_of_range"])
def test_schema_errors_exit_2_without_traceback(tmp_path, category_file, variant):
    doc = json.loads(open(category_file).read())
    if variant == "objects_int":
        doc["objects"] = 5
    elif variant == "tensor_int":
        doc["compose"][0]["tensor"] = 7
    elif variant == "compose_degree_out_of_range":
        doc["compose"][0]["h2"] = 99
    else:
        doc = [doc]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    r = run_cli("verify", str(bad))
    assert r.returncode == 2
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize("variant", ["top_level_list", "action_list", "epsilon_int",
                                     "mu_list", "maps_int", "epsilon_length",
                                     "mu_length"])
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
    else:
        doc = [doc]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    r = run_cli("bullet", str(bad))
    assert r.returncode == 2
    assert "Traceback" not in r.stderr


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
