"""Public API of src/taucat that no command reaches.

Run as a script, this module runs every golden CLI invocation of
test_golden_stdout (three `paper-suite --p 5` runs among them) in process
under `sys.setprofile`, and prints the sorted public functions and methods
of src/taucat that no `cli.main` call entered.  The inputs are built with
the profiler off, so only what a command does counts, and every memoised
function of src/taucat starts each command cold.  It compares the list with
UNREACHED, so new API that only tests use fails here, and deleting or
exercising an entry shortens the list.

`PYTHONPATH=src python tests/test_reach.py` prints the current list.
"""

import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys
import tempfile
from functools import cached_property

UNREACHED = [
    # traced by name in bench/layers.json
    "cochains.solve_d1",
    "completion.AdditiveCompletion.compose",
    "completion.AdditiveCompletion.presentation_of",
    # which calls these three
    "completion.AdditiveCompletion.identity",
    "completion.AdditiveCompletion.injection",
    "completion.AdditiveCompletion.projection",
    "groups.left_action_on_cosets",
    "structure.realize_functor",
    "znsolve.kernel_generators",
    "znsolve.solve",
    "znsolve.span_members",
    # called by tests, or by src code on inputs these commands never give
    "category.NatTransData.component",
    "cochains.CochainSolutions.count",
    "cochains.act",
    "cochains.constant_one",
    "cochains.d0",
    "cochains.d0_cochain",
    "cochains.d1",
    "cochains.d2",
    "cochains.random_cochain0",
    "cochains.trivial_cochain1",
    "cochains.unit_function",
    "modcat.bullet_functor",
    "modcat.bullet_nat",
    "modcat.restrict_functor",
    "modcat.verify_module_nat",
    "structure.composite_datum",
    "structure.identity_datum",
    "structure.linear_semisimple_check",
    "yoneda.GradedModule.dim",
    "yoneda.apply_rep_to_value",
    "yoneda.evaluate_yoneda",
    "yoneda.rep_sum",
    "yoneda.verify_graded_nat",
    "yoneda.whisker_object_morphism",
]


def _modules():
    import taucat

    return [importlib.import_module(f"taucat.{info.name}")
            for info in pkgutil.iter_modules(taucat.__path__)]


def public_code():
    """{qualified name: code object} of the public functions and methods
    defined in src/taucat, with property getters and memoised functions
    unwrapped."""
    out = {}
    for module in _modules():
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            members = [(name, obj)]
            if inspect.isclass(obj):
                members = [(f"{name}.{attr}", member) for attr, member in vars(obj).items()
                           if not attr.startswith("_")]
            for qualname, member in members:
                if isinstance(member, (staticmethod, classmethod)):
                    member = member.__func__
                elif isinstance(member, property):
                    member = member.fget
                elif isinstance(member, cached_property):
                    member = member.func
                member = inspect.unwrap(member) if callable(member) else member
                if inspect.isfunction(member):
                    out[f"{module.__name__.removeprefix('taucat.')}.{qualname}"] = member.__code__
    return out


def unreached():
    """Run the golden invocations in the current directory; return the
    public names no cli.main call entered."""
    from test_golden_stdout import _run, golden_runs

    code = public_code()
    caches = [obj for module in _modules() for obj in vars(module).values()
              if hasattr(obj, "cache_clear")]
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    for _, argv in golden_runs():
        for memo in caches:  # building the inputs may have warmed them
            memo.cache_clear()
        sys.setprofile(profile)
        try:
            _run(argv)
        finally:
            sys.setprofile(None)
    return sorted(name for name, c in code.items() if c not in entered)


def test_unreached_public_api_is_pinned():
    res = subprocess.run([sys.executable, __file__], capture_output=True, text=True,
                         check=True)
    assert json.loads(res.stdout) == sorted(UNREACHED)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        print(json.dumps(unreached(), indent=1))
