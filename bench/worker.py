"""One benchmark workload in a fresh interpreter.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/worker.py --workload NAME --setup-only

Runs the workload as a closed loop with a single client (one job in flight,
the next sent once the previous answer has been checked), one pass of jobs
after another, and prints one JSON line with the raw results.
`bench/run.py` starts it, with `src` on PYTHONPATH, and turns the results
into metrics.

With --trace 1 the run measures layers instead of end-to-end figures: the
named workload runs untraced for half the time, then the same jobs run again
with every call into cubartin timed, which gives the per-layer times and the
tracing overhead.  Every other workload runs its first pass traced, so
a traced run reports every layer, and the scaling series follow.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

import networkx

import workloads as wls
from cubartin import constructions, cube_model, toolkit
from cubartin import defining_graph as dg
from cubartin.artin_algebra import SphericalContext

ROOT = Path(__file__).resolve().parent.parent
MIN_PASSES = 2
WORKLOADS = {
    "cli-mix": wls.CliMix,
    "graph-build": wls.GraphBuild,
    "word-problem": wls.WordProblem,
    "toolkit-geometry": wls.ToolkitGeometry,
}


class Tracer:
    """Durations of the benchmark's calls into each layer, and work counts
    read from what those calls return.  Disabled, `call` is a plain call."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: dict[str, list[float]] = defaultdict(list)
        self.counts: dict[str, int] = {}
        self.counting = True  # counts cover a fixed prefix of the job stream

    def call(self, name, fn, *args):
        if not self.enabled:
            return fn(*args)
        t = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.spans[name].append(time.perf_counter() - t)

    def record(self, name: str, seconds: float) -> None:
        if self.enabled:
            self.spans[name].append(seconds)

    def count(self, name: str, k: int) -> None:
        if self.enabled and self.counting:
            self.counts[name] = self.counts.get(name, 0) + k

    def peak(self, name: str, k: int) -> None:
        if self.enabled and self.counting:
            self.counts[name] = max(self.counts.get(name, 0), k)


def make_workload(name: str, seed: int, tmp: Path, env: dict):
    return WORKLOADS[name](f"{name}/{seed}", tmp, env)


def closed_loop(wl, tr, jobs, deadline: float = math.inf, min_jobs: int = 0, keep: bool = False, first: int = 0):
    """Run jobs one at a time until the deadline has passed and at least
    `min_jobs` ran.  A job's latency covers its calls into cubartin only;
    making its input and checking its answer happen outside the clock.
    Counts and the output digest cover the `first` jobs, one round unless
    given; `keep` returns the jobs for a replay."""
    prefix = first or len(wl.round_kinds)
    latencies, failed, ran = [], 0, []
    digest = hashlib.sha256()
    for i, job in enumerate(jobs):
        if i >= min_jobs and time.perf_counter() >= deadline:
            break
        tr.counting = i < prefix
        t = time.perf_counter()
        try:
            out = wl.run(job, tr)
            latencies.append(time.perf_counter() - t)
            ok = wl.check(job, out)
            if i < prefix:
                digest.update(hashlib.sha256(wl.digest_bytes(job, out)).digest())
        except Exception:  # a job that raises is a failed job, not a failed run
            latencies.append(time.perf_counter() - t)
            traceback.print_exc(file=sys.stderr)
            ok = False
        if not ok:
            failed += 1
            print(f"job {i} ({job.kind}) failed: {repr(job.data)[:400]}", file=sys.stderr)
        if tr.enabled:
            wl.aside(job, tr)
        if keep:
            ran.append(job)
    return {"latencies": latencies, "failed": failed, "jobs": ran, "digest": digest.hexdigest()}


def generated(wl):
    while True:
        yield wl.next_job()


def layer_metrics(tr: Tracer, busy: float) -> dict:
    out = dict(tr.counts)
    for name, xs in tr.spans.items():
        out[f"{name}.ms"] = statistics.median(xs) * 1000
        out[f"{name}.share"] = sum(xs) / busy
    return out


# -- scaling series --------------------------------------------------------------

def slope(xs, ts) -> float:
    """Least-squares slope of log t against log x."""
    lx, lt = [math.log(x) for x in xs], [math.log(t) for t in ts]
    mx, mt = statistics.fmean(lx), statistics.fmean(lt)
    return sum((a - mx) * (b - mt) for a, b in zip(lx, lt)) / sum((a - mx) ** 2 for a in lx)


def timed(fn, *args) -> float:
    t = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t


def scaling(seed: int) -> dict:
    """Growth exponents: the log-log slope of time against input size over
    sizes that grow geometrically, each point the median of a few calls."""
    out = {}
    labels = (51, 101, 201, 401, 801)
    ts = []
    for n in labels:
        plan = dg.verdict(dg.parse_graph(f"vertex a\nvertex b\nedge a b {n}\n")).plan
        c = constructions.build_from_plan(plan)
        ts.append(statistics.median(timed(constructions.extracted_presentation, c) for _ in range(3 if n <= 201 else 1)))
    out["scaling.extracted_presentation.exponent"] = slope(labels, ts)

    sides = (4, 6, 9, 13, 20)  # (side + 1)^2 vertices: 25 .. 441
    grids = [wls.grid(s, s)[0] for s in sides]
    sizes = [len(c.vertices) for c in grids]
    out["scaling.check_npc.exponent"] = slope(sizes, [
        statistics.median(timed(cube_model.check_npc, c) for _ in range(3 if s <= 9 else 1))
        for s, c in zip(sides, grids)
    ])
    out["scaling.is_median.exponent"] = slope(sizes, [
        statistics.median(timed(toolkit.is_median, c) for _ in range(3 if s <= 9 else 1))
        for s, c in zip(sides, grids)
    ])

    ctx = SphericalContext(3)
    rng = random.Random(f"scaling/{seed}")
    lengths = (25, 50, 100, 200)
    ts = []
    for n in lengths:
        words = [tuple((rng.choice("abc"), rng.choice((1, -1))) for _ in range(n)) for _ in range(3)]
        ts.append(statistics.median(timed(ctx.garside.word_nf, w) for w in words))
    out["scaling.word_nf.exponent"] = slope(lengths, ts)
    return out


# -- runs ------------------------------------------------------------------------------

def peak_rss_mb(name: str) -> float:
    # the process doing the work: the CLI children for cli-mix, this one otherwise
    who = resource.RUSAGE_CHILDREN if name == "cli-mix" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def untraced_run(name: str, seed: int, seconds: float, tmp: Path, env: dict) -> dict:
    """The same pass of jobs again and again while another pass fits in
    `seconds`, at least MIN_PASSES times; a job's latency is its slowest
    pass.  The host runs most of the time at one speed and now and then,
    for seconds to minutes, up to a third faster: a job's slowest try is
    the usual speed, which repeats across runs, where its fastest try, its
    median or a mean follow how many fast spells a run happened to catch."""
    tr = Tracer(False)
    wl = make_workload(name, seed, tmp, env)
    wl.setup(tr)
    n_jobs = len(wl.round_kinds) * wl.pass_rounds
    start = time.perf_counter()
    tries: list[list[float]] = [[] for _ in range(n_jobs)]
    attempted, failed, digest, took = 0, 0, None, 0.0
    while len(tries[0]) < MIN_PASSES or time.perf_counter() - start + took < seconds:
        t = time.perf_counter()
        wl.restart()  # the same jobs as new objects
        res = closed_loop(wl, tr, (wl.next_job() for _ in range(n_jobs)))
        for xs, x in zip(tries, res["latencies"]):
            xs.append(x)
        attempted += len(res["latencies"])
        failed += res["failed"]
        digest = digest or res["digest"]
        took = time.perf_counter() - t
    return {
        "latencies": [max(xs) for xs in tries],
        "attempted": attempted,
        "failed": failed,
        "passes": len(tries[0]),
        "digest": digest,
        "peak_rss_mb": peak_rss_mb(name),
    }


def traced_run(name: str, seed: int, seconds: float, tmp: Path, env: dict) -> dict:
    metrics, attempted, failed = {}, 0, 0
    for other in WORKLOADS:
        tr = Tracer(True)
        wl = make_workload(other, seed, tmp, env)
        wl.setup(tr)
        wl.trace_extra(tr)
        # a pass holds the same sizes for every seed, so its shares and counts do
        n_pass = len(wl.round_kinds) * wl.pass_rounds
        if other == name:
            plain = closed_loop(wl, Tracer(False), generated(wl), time.perf_counter() + seconds / 2, n_pass, keep=True)
            res = closed_loop(wl, tr, iter(plain["jobs"]), first=n_pass)
            busy = sum(res["latencies"])
            metrics["trace.overhead_ratio"] = sum(plain["latencies"]) / busy
            attempted += len(plain["latencies"])
            failed += plain["failed"]
        else:
            res = closed_loop(wl, tr, (wl.next_job() for _ in range(n_pass)), first=n_pass)
            busy = sum(res["latencies"])
        attempted += len(res["latencies"])
        failed += res["failed"]
        layer = layer_metrics(tr, busy)
        if other == "cli-mix":
            start_ms = layer["cli.python_start.ms"] + layer["cli.import.ms"]
            layer["cli.startup_share"] = start_ms / (statistics.median(res["latencies"]) * 1000)
        metrics.update(layer)
    metrics.update(scaling(seed))
    return {"metrics": metrics, "attempted": attempted, "failed": failed}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    if args.setup_only:
        make_workload(args.workload, args.seed, ROOT, dict(os.environ)).setup(Tracer(False))
        return 0
    tmp = ROOT / ".bench_build" / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    try:
        run = traced_run if args.trace else untraced_run
        result = run(args.workload, args.seed, args.seconds, tmp, env)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    result["env"] = {"python": sys.version.split()[0], "networkx": networkx.__version__}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
