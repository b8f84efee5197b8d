"""The three benchmark workloads: job generators, job runners and oracles.

Each workload hands out its jobs in rounds.  A round is a fixed set of
job shapes in a seeded order, with seeded random cocycles and base
degrees, so every run measures the same mix and only the inputs change
with the seed.  A job's kind names its shape and is unique within a
round, so the same kind recurs once every `period` rounds.  A job returns its output bytes (compared between traced
and untraced passes) and whether its oracle accepted them; a wrong answer
or an exception is recorded, never raised out of the harness.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import traceback
from dataclasses import dataclass
from math import gcd
from random import Random

P = 5


@dataclass
class Job:
    kind: str
    run: object            # () -> Outcome
    malformed: bool = False
    coset_space: tuple | None = None   # (|H|, |L|) of the d1 system a classify job solves


@dataclass
class Outcome:
    output: bytes
    ok: bool
    error: str | None = None


@dataclass
class CliResult:
    code: int | None
    stdout: str
    stderr: str


def run_cli(ns, argv) -> CliResult:
    """One `taucat` command, in process, with its streams captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = ns.cli.main(list(argv))
        except Exception:  # an uncaught error is a failed job, not a harness crash
            traceback.print_exc()
            code = None
    return CliResult(code, out.getvalue(), err.getvalue())


def parity_tau(ns, n):
    g = ns.groups
    return g.hom(g.cyclic_group(n), g.cyclic_group(2), [a % 2 for a in range(n)])


def cyclic_subgroup(ns, n, k):
    """The order-k subgroup of C_n; it lies in the parity kernel when n/k is even."""
    return ns.groups.subgroup(ns.groups.cyclic_group(n), range(0, n, n // k))


def random_spec(ns, rng, n, k, g=None):
    """A validated block over C_n -> C_2 with |L| = k and psi = d1(random gamma)."""
    f = ns.fields.field(P)
    tau = parity_tau(ns, n)
    L = cyclic_subgroup(ns, n, k)
    space = ns.groups.coset_space(tau.source, L)
    psi = ns.cochains.d1_cochain(ns.cochains.random_cochain1(f, space, rng))
    return ns.mtau.mtau_spec(tau, f, L, psi, rng.randrange(2) if g is None else g)


class Workload:
    period = 1

    def __init__(self, ns, seed, workdir):
        self.ns, self.seed, self.workdir = ns, seed, workdir
        self._rounds = {}

    def rng(self, tag):
        return Random(f"{self.name}/{self.seed}/{tag}")

    def round(self, r):
        if r not in self._rounds:
            self._rounds = {r: self.make_round(r)}
        return self._rounds[r]


class Suite(Workload):
    """`taucat paper-suite --p 5 --seed s`; one job per round."""

    name = "suite"
    period = 3

    def __init__(self, ns, seed, workdir):
        super().__init__(ns, seed, workdir)
        self.reference = {}

    def job(self, s):
        def run():
            res = run_cli(self.ns, ["paper-suite", "--p", str(P), "--seed", str(s)])
            data = res.stdout.encode()
            ok = res.code == 0 and json.loads(res.stdout).get("ok") is True
            # the report must be byte-identical whenever a seed repeats
            ok = ok and self.reference.setdefault(s, data) == data
            return Outcome(data, ok, None if ok else f"exit {res.code}\n{res.stderr}")
        return Job(f"suite/seed+{s - self.seed}", run)

    def warmup(self):
        return self.job(self.seed)

    def make_round(self, r):
        return [self.job(self.seed + r % self.period)]


# (n, |L|) over C_n -> C_2 at p = 5; C16 with |L| = 1 takes ~40 s and is left out
CLASSIFY_POOL = [(8, 1), (8, 2), (8, 4), (12, 1), (12, 2), (12, 3), (12, 6),
                 (16, 2), (16, 4), (16, 8)]


class Classify(Workload):
    """`structure.classify_equivalences(A, B)` on seeded block pairs."""

    name = "classify"

    def job(self, rng, n, k):
        a = random_spec(self.ns, rng, n, k)
        b = random_spec(self.ns, rng, n, k)
        # Shapiro's lemma for cyclic H and coboundary psi: classes are
        # (|ker tau| / |L|) * |H^1(L, F_p^x)|, and |H^1| = gcd(|L|, p - 1)
        want = (n // 2 // k) * gcd(k, P - 1)

        def run():
            data = self.ns.structure.classify_equivalences(a, b)
            out = json.dumps([self.ns.jsonio.datum_to_json(d) for d in data],
                             sort_keys=True).encode()
            ok = len(data) == want
            return Outcome(out, ok, None if ok else f"{len(data)} classes, want {want}")
        return Job(f"C{n}/L{k}", run, coset_space=(n, k))

    def warmup(self):
        return self.job(self.rng("warmup"), 8, 2)

    def make_round(self, r):
        rng = self.rng(r)
        shapes = list(CLASSIFY_POOL)
        rng.shuffle(shapes)
        return [self.job(rng, n, k) for n, k in shapes]


SKELETONS = [(8, 1), (12, 2), (16, 4)]
DIRECT_SUMS = [((8, 1), (8, 4)), ((8, 2), (8, 2))]
# objects of the completion over a C8 block with |L| = 2: every simple plus one sum
COMPLETIONS = [[(0,), (1,), (2,), (3,), (0, 0)], [(0,), (1,), (2,), (3,), (0, 2)]]
MALFORMED = ["truncated", "objects_int", "tensor_int", "top_level_list"]
READ_SIDE = ["verify", "decompose", "roundtrip"]


class Pipeline(Workload):
    """What a CLI user does with a category file: write it, then read it back."""

    name = "pipeline"

    def __init__(self, ns, seed, workdir):
        super().__init__(ns, seed, workdir)
        self.tau_files = {}
        for n in sorted({n for n, _ in SKELETONS}):
            path = self.path(f"tau{n}.json")
            self.write(path, {"source": {"cyclic": n}, "target": {"cyclic": 2},
                              "map": [a % 2 for a in range(n)]})
            self.tau_files[n] = path
        valid = ns.mtau.build_skeleton(random_spec(ns, self.rng("malformed"), 8, 4))
        self.valid_doc = ns.jsonio.category_to_json(valid)

    def path(self, name):
        return os.path.join(self.workdir, name)

    @staticmethod
    def write(path, doc):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)

    def read_side(self, path, commands, expect_blocks):
        """Run the read-side commands; expect exit 0 and the given summands."""
        log, ok, err = [], True, None
        for cmd in commands:
            res = run_cli(self.ns, [cmd, path])
            log.append([cmd, res.code, res.stdout])
            if res.code != 0:
                ok, err = False, err or f"{cmd}: exit {res.code}\n{res.stdout}{res.stderr}"
                continue
            report = json.loads(res.stdout)
            if cmd == "decompose":
                got = sorted(len(s["L"]) for s in report["summands"])
                if not report["semisimple"] or got != sorted(expect_blocks):
                    ok, err = False, err or f"decompose: summand orders {got}, want {sorted(expect_blocks)}"
            elif not report["ok"]:
                ok, err = False, err or f"{cmd}: not ok"
        return Outcome(json.dumps(log).encode(), ok, err)

    def skeleton_job(self, rng, tag, n, k):
        spec = random_spec(self.ns, rng, n, k)
        psi_path = self.path(f"{tag}-psi.json")
        self.write(psi_path, self.ns.jsonio.cochain2_to_json(spec.psi))
        cat_path = self.path(f"{tag}.json")
        build = ["build-mtau", "--tau", self.tau_files[n], "--p", str(P),
                 "--L", ",".join(map(str, spec.L.elements)), "--psi", psi_path,
                 "--g", str(spec.g), "-o", cat_path]

        def run():
            res = run_cli(self.ns, build)
            if res.code != 0:
                return Outcome(res.stdout.encode(), False,
                               f"build-mtau: exit {res.code}\n{res.stderr}")
            return self.read_side(cat_path, READ_SIDE, [k])
        return Job(f"skeleton/C{n}L{k}", run)

    def direct_sum_job(self, rng, tag, shapes):
        specs = [random_spec(self.ns, rng, n, k) for n, k in shapes]
        cat_path = self.path(f"{tag}.json")

        def run():
            ns = self.ns
            cat = ns.category.direct_sum_cat([ns.mtau.build_skeleton(s) for s in specs])
            self.write(cat_path, ns.jsonio.category_to_json(cat))
            return self.read_side(cat_path, READ_SIDE, [k for _, k in shapes])
        return Job("direct_sum/" + "+".join(f"C{n}L{k}" for n, k in shapes), run)

    def completion_job(self, rng, tag, objects):
        spec = random_spec(self.ns, rng, 8, 2)
        cat_path = self.path(f"{tag}.json")

        def run():
            ns = self.ns
            base = ns.mtau.build_skeleton(spec)
            pres = ns.completion.AdditiveCompletion(base).presentation_of(objects)
            self.write(cat_path, ns.jsonio.category_to_json(pres))
            # declared sums decompose into the base's single block;
            # roundtrip is left out because it fails in memory on sum objects
            return self.read_side(cat_path, READ_SIDE[:2], [2])
        return Job("completion/" + "+".join(map(str, objects[-1])), run)

    def malformed_job(self, tag, variant):
        doc = copy.deepcopy(self.valid_doc)
        if variant == "objects_int":
            doc["objects"] = 5
        elif variant == "tensor_int":
            doc["compose"][0]["tensor"] = 7
        elif variant == "top_level_list":
            doc = [doc]
        text = json.dumps(doc)
        if variant == "truncated":
            text = text[:len(text) // 2]
        path = self.path(f"{tag}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)

        def run():
            log, ok, err = [], True, None
            for cmd in READ_SIDE:
                res = run_cli(self.ns, [cmd, path])
                log.append([cmd, res.code, res.stdout])
                # malformed input must exit 2 cleanly, never with a traceback
                if res.code != 2 or "Traceback" in res.stderr:
                    ok, err = False, err or f"{cmd}: exit {res.code}\n{res.stderr}"
            return Outcome(json.dumps(log).encode(), ok, err)
        return Job(f"malformed/{variant}", run, malformed=True)

    def warmup(self):
        return self.skeleton_job(self.rng("warmup"), "warmup", 8, 2)

    def make_round(self, r):
        rng = self.rng(r)
        jobs = [self.skeleton_job(rng, f"r{r}-skel{i}", n, k)
                for i, (n, k) in enumerate(SKELETONS)]
        jobs += [self.direct_sum_job(rng, f"r{r}-sum{i}", shapes)
                 for i, shapes in enumerate(DIRECT_SUMS)]
        jobs += [self.completion_job(rng, f"r{r}-compl{i}", objs)
                 for i, objs in enumerate(COMPLETIONS)]
        jobs += [self.malformed_job(f"r{r}-{variant}", variant) for variant in MALFORMED]
        rng.shuffle(jobs)
        return jobs


WORKLOADS = {w.name: w for w in (Suite, Classify, Pipeline)}
# job kinds that fail on the current program because of known open defects:
# the CLI raises TypeError on some schema errors instead of exiting 2, and the
# category file format drops declared direct sums.  They still count as failed.
KNOWN_DEFECT_KINDS = ("malformed/", "completion/")
