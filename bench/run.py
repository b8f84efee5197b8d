"""taucat benchmark: a single-threaded, closed-loop client of the program.

    python3 bench/run.py --workload {suite,classify,pipeline} --seed N \
        --seconds S --trace {0,1}
    python3 bench/run.py [--seed N --seconds S --trace T]    # all workloads

One client sends the next job only after the previous one returned.  With
`--trace 0` the run sets up the workload several times (import, input
generation, file writing and one warm-up job each; the median is
`setup_s`), then runs whole rounds of jobs for at least `--seconds`, with
every job kind at least MIN_REPEATS times, and prints the end-to-end
metrics named in BENCHMARK.json.  Times are in seconds at a reference
host speed (speed.py); each job kind counts with its fastest repeat.
With `--trace 1`
it runs round 0 untraced, then twice with every public layer function
wrapped (see spans.py), checks that outputs are byte-identical with
tracing on and off and that the call counts repeat exactly, and prints the
per-layer metrics.  Every job's output is checked by its workload's
oracle.  The last stdout line is the JSON result; diagnostics go to stderr.

The program is imported from `src/` of the checkout this file lives in.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

from spans import Tracer  # noqa: E402
from speed import Speedometer  # noqa: E402
from workloads import KNOWN_DEFECT_KINDS, WORKLOADS, Outcome  # noqa: E402

MODULES = ["groups", "fields", "znsolve", "fplinalg", "cochains", "category",
           "mtau", "completion", "structure", "yoneda", "modcat", "jsonio", "cli"]
SETUPS = 3
MIN_REPEATS = 2
clock = time.perf_counter


def load_taucat():
    """A fresh import of the program, so that each set-up starts cold."""
    for name in [m for m in sys.modules if m == "taucat" or m.startswith("taucat.")]:
        del sys.modules[name]
    mods = {m: importlib.import_module(f"taucat.{m}") for m in MODULES}
    origin = Path(sys.modules["taucat"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise RuntimeError(f"taucat imported from {origin}, not from {SRC}")
    return SimpleNamespace(**mods)


def run_job(job) -> Outcome:
    try:
        return job.run()
    except Exception:  # a crash is a failed job; the loop goes on
        return Outcome(b"", False, traceback.format_exc())


def setup(cls, seed, workdir):
    """Import, generate round 0, write its files and run the warm-up job."""
    ns = load_taucat()
    workload = cls(ns, seed, workdir)
    workload.round(0)
    warmup = workload.warmup()
    return workload, (warmup, run_job(warmup))


def timed_rounds(workload, seconds, speedometer):
    """Whole rounds until `seconds` of job time and every job kind ran
    MIN_REPEATS times; round generation is untimed."""
    results, busy, r = [], 0.0, 0
    while busy < seconds or r < MIN_REPEATS * workload.period:
        for job in workload.round(r):
            outcome, wall, scaled = speedometer.time(lambda: run_job(job))
            results.append((job, outcome, wall, scaled))
            busy += wall
        r += 1
    return results, busy


def job_failed_unexpectedly(job, outcome):
    return not outcome.ok and not job.kind.startswith(KNOWN_DEFECT_KINDS)


def report_failures(name, pairs):
    seen = set()
    for job, outcome in pairs:
        if outcome.ok or job.kind in seen:
            continue
        seen.add(job.kind)
        sys.stderr.write(f"[{name}] failed job {job.kind}: {outcome.error}\n")


def end_to_end(cls, seed, seconds, workroot):
    speedometer = Speedometer()
    setups, warmups = [], []
    for i in range(SETUPS):
        workdir = os.path.join(workroot, f"setup{i}")
        os.makedirs(workdir)
        (workload, warm), _, scaled = speedometer.time(lambda: setup(cls, seed, workdir))
        setups.append(scaled)
        warmups.append(warm)
    gc.collect()
    results, busy = timed_rounds(workload, seconds, speedometer)
    # Each job kind is timed as the minimum over its repeats in the run, in
    # seconds at the reference host speed (speed.py); the percentiles and
    # the throughput are taken over those per-kind times.
    kinds, malformed = {}, set()
    for job, outcome, wall, scaled in results:
        kind = kinds.setdefault(job.kind, {"attempted": 0, "failed": 0,
                                           "best_s": scaled, "best_wall_s": wall})
        kind["attempted"] += 1
        kind["failed"] += not outcome.ok
        kind["best_s"] = min(kind["best_s"], scaled)
        kind["best_wall_s"] = min(kind["best_wall_s"], wall)
        if job.malformed:
            malformed.add(job.kind)
    best = {name: kind["best_s"] for name, kind in kinds.items()}
    latencies = [dt for name, dt in best.items() if name not in malformed]
    failed = sum(not outcome.ok for _, outcome, _, _ in results)
    metrics = {
        "job_s.p50": statistics.median(latencies),
        "job_s.p90": statistics.quantiles(latencies, n=10, method="inclusive")[8],
        "jobs_per_s": len(best) / sum(best.values()),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    pairs = [(job, outcome) for job, outcome, _, _ in results] + warmups
    report_failures(cls.name, pairs)
    correct = not any(job_failed_unexpectedly(j, o) for j, o in pairs)
    # share of jobs whose d1 system (one per coset space) was already solved
    # earlier in the run, by the warm-up or an earlier job
    seen = {job.coset_space for job, _ in warmups}
    shared = 0
    for job, _, _, _ in results:
        if job.coset_space is not None:
            shared += job.coset_space in seen
            seen.add(job.coset_space)
    notes = {"failed_frac": failed / len(results),
             "wall_jobs_per_s": len(results) / busy,
             "shared_coset_frac": shared / len(results),
             "jobs_by_kind": {name: {k: round(v, 4) for k, v in kind.items()}
                              for name, kind in sorted(kinds.items())}}
    return correct, len(results), failed, metrics, notes


def per_layer(cls, seed, workroot):
    workdir = os.path.join(workroot, "setup0")
    os.makedirs(workdir)
    workload, warm = setup(cls, seed, workdir)
    jobs = workload.round(0)
    gc.collect()
    start = clock()
    plain = [run_job(job) for job in jobs]
    untraced_s = clock() - start

    tracer = Tracer()
    tracer.install()
    passes = []
    for _ in range(2):
        tracer.reset()
        gc.collect()
        start = clock()
        outcomes = [run_job(job) for job in jobs]
        passes.append((outcomes, clock() - start, tracer.metrics(),
                       tracer.exact_counts(), tracer.span_table()))
    (traced, traced_s, metrics, counts, table), (again, _, _, counts2, _) = passes

    same_bytes = all(a.output == b.output == c.output
                     for a, b, c in zip(plain, traced, again))
    same_counts = counts == counts2
    if not same_bytes:
        sys.stderr.write(f"[{cls.name}] outputs differ with tracing on and off\n")
    if not same_counts:
        diff = sorted(k for k in set(counts) | set(counts2)
                      if counts.get(k) != counts2.get(k))
        sys.stderr.write(f"[{cls.name}] call counts differ between traced passes: {diff[:10]}\n")
    metrics["trace.overhead_frac"] = traced_s / untraced_s - 1
    json.dump({"workload": cls.name, "seed": seed, "spans": table}, sys.stderr)
    sys.stderr.write("\n")

    pairs = list(zip(jobs, plain)) + [warm]
    report_failures(cls.name, pairs)
    correct = same_bytes and same_counts and not any(
        job_failed_unexpectedly(j, o) for j, o in pairs)
    failed = sum(not o.ok for o in plain)
    notes = {"failed_frac": failed / len(jobs), "untraced_s": untraced_s,
             "traced_s": traced_s, "outputs_identical": same_bytes,
             "counts_repeat": same_counts}
    return correct, len(jobs), failed, metrics, notes


def benchmark_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def run_workload(args):
    if not (SRC / "taucat" / "__init__.py").is_file():
        sys.exit(f"error: no taucat sources under {SRC}")
    sys.path.insert(0, str(SRC))
    cls = WORKLOADS[args.workload]
    os.makedirs(ROOT / ".bench_work", exist_ok=True)
    workroot = tempfile.mkdtemp(prefix=f"{cls.name}-", dir=ROOT / ".bench_work")
    try:
        if args.trace:
            result = per_layer(cls, args.seed, workroot)
        else:
            result = end_to_end(cls, args.seed, args.seconds, workroot)
    finally:
        shutil.rmtree(workroot, ignore_errors=True)
        try:
            os.rmdir(ROOT / ".bench_work")
        except OSError:
            pass
    correct, attempted, failed, values, notes = result

    declared = benchmark_spec()["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    for name, m in metrics.items():
        print(f"{cls.name:9s} {name:58s} {m['value']:>14.6g} {m['unit']}")
    for name, value in notes.items():
        print(f"{cls.name:9s} {name:58s} {json.dumps(value)}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def run_all(args):
    """Each workload in its own process, so peak_rss_mb is that workload's."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        for line in lines[:-1]:
            print(line)
        if proc.returncode != 0 or not lines:
            status = proc.returncode or 1
            continue
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, m in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = m
    if status:
        return status
    print(json.dumps(combined))
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), default=None,
                    help="one workload; all of them, each in its own process, when omitted")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="job time to measure; run_seconds of BENCHMARK.json by default")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds is None:
        args.seconds = benchmark_spec()["run_seconds"]
    if args.workload is None:
        return run_all(args)
    run_workload(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
