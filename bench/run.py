"""cubartin benchmark: seeded closed-loop workloads with end-to-end and
per-layer metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

Run from anywhere; the program is taken from `src/` next to this directory.
The workloads, metrics and bounds are declared in BENCHMARK.json at the
repository root; bench/README.md explains them.

With --trace 0 the run reports the end-to-end metrics of one workload:
set-up time as the median of six fresh interpreters, three before and three
after a closed loop run for the given seconds in one more fresh interpreter
(bench/worker.py), which repeats one pass of jobs and takes each job's
latency as its slowest pass.  With
--trace 1 it reports the per-layer metrics instead.  Human-readable lines
come first; the last line of stdout is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  The exit code is 0 when the
run completed, whether or not every job's answer was right; the JSON says
which.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_SAMPLES = 6
# run on request but are not BENCHMARK.json workloads (bench/README.md says
# why); their layers are in every traced run
UNLISTED = ("cli-mix", "word-problem")
# per-layer metric names that read better without the span's dotted suffix
ALIASES = {
    "cli.python_start_ms": "cli.python_start.ms",
    "cli.import_ms": "cli.import.ms",
    "cli.main_ms": "cli.main.ms",
}


class BenchError(Exception):
    pass


def git_sha() -> str:
    """HEAD's commit read from .git without running git, which would look
    outside the checkout; a plain source tree has none."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def child(args: list[str], env: dict, timeout: float) -> subprocess.CompletedProcess:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), *args],
        stdout=subprocess.PIPE, env=env, timeout=timeout,
    )
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited with {proc.returncode}")
    return proc


def setup_samples(workload: str, env: dict, n: int) -> list[float]:
    """Wall time from a fresh interpreter to ready-for-the-first-job."""
    samples = []
    for _ in range(n):
        t = time.perf_counter()
        child(["--workload", workload, "--setup-only"], env, 60)
        samples.append(time.perf_counter() - t)
    return samples


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten jobs beyond it, and its rank;
    the slowest job when there are too few jobs for one."""
    s = sorted(latencies)
    k = len(s) - 11 if len(s) > 10 else len(s) - 1
    return s[k], 100 * (k + 1) / len(s)


def run_workload(name: str, seed: int, seconds: float, trace: int, spec: dict, env: dict) -> dict:
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    if not trace:
        # one untimed start writes the bytecode caches; the timed starts are
        # split around the loop so that a slow spell of the host hits few
        setup_samples(name, env, 1)
        setup = setup_samples(name, env, SETUP_SAMPLES // 2)
    argv = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    raw = json.loads(child(argv, env, 150).stdout.decode().splitlines()[-1])
    if not trace:
        setup += setup_samples(name, env, SETUP_SAMPLES - SETUP_SAMPLES // 2)
    print(f"workload {name}  seed {seed}  seconds {seconds:g}  trace {trace}")
    info = {"git_sha": git_sha(), **raw["env"], "nproc": os.cpu_count()}
    print("env: " + "  ".join(f"{k}={v}" for k, v in info.items()))
    if trace:
        measured = raw["metrics"]
        attempted, failed = raw["attempted"], raw["failed"]
    else:
        lat = raw["latencies"]
        attempted, failed = raw["attempted"], raw["failed"]
        tail_s, tail_pct = tail(lat)
        measured = {
            "setup_s": statistics.median(setup),
            "throughput_jobs_s": len(lat) / sum(lat),
            "p50_ms": statistics.median(lat) * 1000,
            "tail_ms": tail_s * 1000,
            "peak_rss_mb": raw["peak_rss_mb"],
        }
    metrics = {}
    for m in declared:
        key = ALIASES.get(m["name"], m["name"])
        if key not in measured:
            raise BenchError(f"{name}: metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": measured[key], "unit": m["unit"]}
        print(f"  {m['name']:<48} {measured[key]:>14.6g} {m['unit']}")
    if not trace:
        print(f"  a job's latency is the slowest of its {raw['passes']} passes; tail_ms is p{tail_pct:.2f} of {len(lat)} jobs (the 11th slowest)")
        print(f"  stdout/complex digest of the first round: {raw['digest']}")
    print(f"  fail_ratio {failed / attempted:.6g} ratio ({failed} of {attempted} jobs)")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*names, *UNLISTED, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "cubartin" / "__init__.py").is_file():
        print(f"error: no cubartin sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    chosen = names if args.workload == "all" else [args.workload]
    try:
        results = {n: run_workload(n, args.seed, args.seconds, args.trace, spec, env) for n in chosen}
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        (result,) = results.values()
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
