"""The benchmark reaches taucat by name.  Its tracer (bench/spans.py) wraps
every function that bench/layers.json lists, and its jobs
(bench/workloads.py) call `ns.<module>.<name>`; a function renamed or
deleted in taucat would crash `bench/run.py --trace 1` or fail every job
that calls it."""

import ast
import importlib
import json
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"
LAYERS = BENCH / "layers.json"
WORKLOADS = BENCH / "workloads.py"


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


def _module_of(node):
    """The module name of an `ns.<module>` or `self.ns.<module>` node, or None."""
    if not isinstance(node, ast.Attribute):
        return None
    ns = node.value
    if (isinstance(ns, ast.Name) and ns.id == "ns"
            or isinstance(ns, ast.Attribute) and ns.attr == "ns"
            and isinstance(ns.value, ast.Name) and ns.value.id == "self"):
        return node.attr
    return None


def _namespace_chains(tree) -> set:
    """(module, name) of every `ns.<module>.<name>` and
    `self.ns.<module>.<name>` in tree, and of `<alias>.<name>` after
    `<alias> = ns.<module>`."""
    aliases = {node.targets[0].id: _module_of(node.value) for node in ast.walk(tree)
               if isinstance(node, ast.Assign) and len(node.targets) == 1
               and isinstance(node.targets[0], ast.Name) and _module_of(node.value)}
    chains = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            module = (aliases.get(node.value.id) if isinstance(node.value, ast.Name)
                      else _module_of(node.value))
            if module:
                chains.add((module, node.attr))
    return chains


def test_every_benchmark_call_resolves():
    chains = _namespace_chains(ast.parse(WORKLOADS.read_text(encoding="utf-8")))
    assert {("jsonio", "category_to_json"), ("jsonio", "cochain2_to_json"),
            ("jsonio", "datum_to_json"), ("mtau", "build_skeleton"),
            ("cli", "main"), ("groups", "hom")} <= chains
    missing = [f"{module}.{name}" for module, name in sorted(chains)
               if not callable(getattr(importlib.import_module(f"taucat.{module}"), name, None))]
    assert missing == []
