"""The benchmark tracer (bench/spans.py) wraps every function that
bench/layers.json lists, looking each one up by name; a function renamed
or deleted in taucat would crash `bench/run.py --trace 1`."""

import importlib
import json
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[1] / "bench" / "layers.json"


def test_every_traced_function_resolves():
    missing = []
    for layer, spec in json.loads(LAYERS.read_text(encoding="utf-8")).items():
        module = importlib.import_module(f"taucat.{layer}")
        for dotted in spec["functions"]:
            owner = module
            for attr in dotted.split("."):
                owner = getattr(owner, attr, None)
            if not callable(owner):
                missing.append(f"{layer}.{dotted}")
    assert missing == []
