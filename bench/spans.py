"""Per-layer tracing from outside the program.

`Tracer.install` replaces the public functions of each taucat layer with
timing wrappers and rebinds every module attribute that refers to them, so
call sites that did `from .category import compose` are traced too.  Spans
are aggregated in memory per (parent span, function): hot leaves such as
`compose` run hundreds of thousands of times per job, so one record per
call would cost more than the call.  Self time is a span's duration minus
the time its child spans cover.

The `fields` module and `FiniteGroup.mul` are deliberately not wrapped:
they run millions of times per job and their cost shows up in their
callers' self time.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from pathlib import Path

# layer -> public functions wrapped (a dotted name is a method of a class),
# with the end-to-end metrics each layer should and should not move
with open(Path(__file__).with_name("layers.json"), encoding="utf-8") as _fh:
    LAYERS = {layer: spec["functions"] for layer, spec in json.load(_fh).items()}

CLASSIFY = "structure.classify_equivalences"
LEXMIN = "znsolve.lexmin_coset"


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _matrix_cells(matrix, ncols):
    rows = len(matrix)
    if ncols is None:
        ncols = len(matrix[0]) if rows else 0
    return rows * ncols


class Tracer:
    """Aggregated spans and layer counters of one traced pass."""

    def __init__(self):
        self.stack = []     # open spans: [name, time covered by children]
        self.spans = {}     # (parent, name) -> [calls, total_s, self_s]
        self.counts = {}    # extra deterministic counters
        self._coset_spaces = set()

    def reset(self):
        self.spans.clear()
        self.counts.clear()
        self._coset_spaces.clear()

    def _count(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    # hooks that read a call's arguments and result into extra counters
    def _after(self, name, args, kwargs, result):
        if name == "znsolve.solve":
            self._count("znsolve.solve.cells", _matrix_cells(
                args[0], _arg(args, kwargs, 3, "ncols")))
        elif name == "znsolve.diagonalize":
            self._count("znsolve.diagonalize.cells", _matrix_cells(args[0], None))
        elif name == "cochains.solve_d1":
            self._count("cochains.solve_d1.solved", result is not None)
        elif name == CLASSIFY:
            spec_a = args[0]
            key = (spec_a.psi.space, spec_a.field.p)
            self._count(CLASSIFY + ".shared_coset", key in self._coset_spaces)
            self._coset_spaces.add(key)
            self._count(CLASSIFY + ".classes", len(result))

    def wrap(self, name, fn):
        stack, spans, clock = self.stack, self.spans, time.perf_counter
        after = self._after if name in (
            "znsolve.solve", "znsolve.diagonalize", "cochains.solve_d1",
            CLASSIFY) else None

        def record(parent, frame, dt):
            if stack:
                stack[-1][1] += dt
            rec = spans.get((parent, name))
            if rec is None:
                rec = spans[(parent, name)] = [0, 0.0, 0.0]
            rec[1] += dt
            rec[2] += dt - frame[1]
            return rec

        if inspect.isgeneratorfunction(fn):
            # time each resumption; the consumer's work between items is not ours
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                parent = stack[-1][0] if stack else None
                record(parent, [name, 0.0], 0.0)[0] += 1
                it = fn(*args, **kwargs)
                while True:
                    frame = [name, 0.0]
                    stack.append(frame)
                    t0 = clock()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        dt = clock() - t0
                        stack.pop()
                        record(parent, frame, dt)
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                record(parent, frame, dt)[0] += 1
            if after is not None:
                after(name, args, kwargs, result)
            return result
        return wrapper

    def install(self, package="taucat"):
        """Wrap every function in LAYERS and rebind all references to it."""
        replaced = {}
        for layer, names in LAYERS.items():
            module = sys.modules[f"{package}.{layer}"]
            for dotted in names:
                owner_name, _, attr = dotted.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                original = getattr(owner, attr)
                wrapped = self.wrap(f"{layer}.{dotted}", original)
                setattr(owner, attr, wrapped)
                replaced[id(original)] = (original, wrapped)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != package and not mod_name.startswith(package + "."):
                continue
            for attr, value in list(vars(module).items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])

    def metrics(self):
        """Per-layer metrics of the pass: calls and self time per function,
        the extra counters, and the ratios built from them."""
        out = {}
        for layer, names in LAYERS.items():
            for dotted in names:
                out[f"{layer}.{dotted}.calls"] = 0
                out[f"{layer}.{dotted}.self_s"] = 0.0
        for (_, name), (calls, _, self_s) in self.spans.items():
            out[name + ".calls"] += calls
            out[name + ".self_s"] += self_s
        c = self.counts
        out["znsolve.solve.cells"] = c.get("znsolve.solve.cells", 0)
        out["znsolve.diagonalize.cells"] = c.get("znsolve.diagonalize.cells", 0)
        d1_calls = out["cochains.solve_d1.calls"]
        out["cochains.solve_d1.solved_ratio"] = (
            c.get("cochains.solve_d1.solved", 0) / d1_calls if d1_calls else 0.0)
        lexmin = self.spans.get((CLASSIFY, LEXMIN), [0])[0]
        out[CLASSIFY + ".classes_per_lexmin"] = (
            c.get(CLASSIFY + ".classes", 0) / lexmin if lexmin else 0.0)
        n_classify = out[CLASSIFY + ".calls"]
        out[CLASSIFY + ".shared_coset_frac"] = (
            c.get(CLASSIFY + ".shared_coset", 0) / n_classify if n_classify else 0.0)
        return out

    def exact_counts(self):
        """The counters that must repeat exactly for one seed."""
        counts = {"/".join(map(str, key)): rec[0] for key, rec in self.spans.items()}
        counts.update(self.counts)
        return counts

    def span_table(self):
        return [{"parent": parent, "span": name, "calls": calls,
                 "total_s": round(total, 6), "self_s": round(self_s, 6)}
                for (parent, name), (calls, total, self_s)
                in sorted(self.spans.items(), key=lambda kv: (str(kv[0][0]), kv[0][1]))]
