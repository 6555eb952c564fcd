"""Benchmark entry point: runs one workload (or all) against the checkout's xtoplat.

    python3 perfbench/run.py --workload spec-grid --seed 1 --seconds 60 --trace 0
    python3 perfbench/run.py --workload all
    python3 perfbench/run.py --record-golden

Every repetition of a workload runs in a fresh single-threaded child
(``worker.py``), one after another: a closed loop with one client.  The
untraced run (``--trace 0``) repeats the workload while another
repetition still fits in ``--seconds`` and reports the end-to-end
metrics.  The traced run (``--trace 1``) runs one untraced and one
traced repetition and reports the per-layer metrics.  Both check every
job's exit code and stdout digest against ``golden.json``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The full record of a run goes
to ``.perfbench-results/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(ROOT, ".perfbench-results")
WORKER = os.path.join(HERE, "worker.py")
GOLDEN = os.path.join(HERE, "golden.json")

BUDGET_S = 170  # a run gives up, printing no result, after this long
TAIL_BEYOND = 10  # job_tail_ms: highest percentile with this many jobs beyond

# Layers whose traced self time should be the majority on each job family.
PREDICTIONS = {
    "spec-grid": ("semiring", "lattice"),
    "classify-wide": ("lattice", "topology"),
    "classify-tall": ("separation",),
    "verify-sweep": ("enumeration", "separation"),
}


class RunError(Exception):
    pass


def tail_percentile(jobs: int) -> int | None:
    """Highest whole percentile that leaves TAIL_BEYOND jobs beyond it."""
    for p in range(99, 0, -1):
        if jobs - math.ceil(p * jobs / 100) >= TAIL_BEYOND:
            return p
    return None


def nearest_rank(values: list[float], p: float) -> float:
    ordered = sorted(values)
    return ordered[max(math.ceil(p * len(ordered) / 100) - 1, 0)]


def git_head() -> str:
    """HEAD of the checkout when it is a git work tree, else "unknown"."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        done = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, env=env, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


class Runner:
    def __init__(self, workload: str, seed: int, deadline: float):
        self.workload = workload
        self.seed = seed
        self.deadline = deadline

    def child(self, *extra: str) -> dict:
        """Run one worker to completion and return its JSON result."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise RunError("time budget exhausted")
        env = dict(os.environ, PYTHONHASHSEED="0")
        argv = [
            sys.executable, "-S", WORKER,
            "--root", ROOT,
            "--workload", self.workload,
            "--seed", str(self.seed),
        ]
        try:
            done = subprocess.run(
                argv + list(extra),
                stdout=subprocess.PIPE, text=True, env=env, timeout=remaining,
            )
        except subprocess.TimeoutExpired:
            raise RunError("worker ran past the time budget") from None
        if done.returncode != 0:
            raise RunError(f"worker exited with code {done.returncode}")
        return json.loads(done.stdout.strip().splitlines()[-1])

    def repetitions(self, seconds: float) -> tuple[list[dict], list[dict]]:
        """Repeat the workload while another repetition fits in ``seconds``.

        Each repetition is preceded by a child that only sets up, so the
        set-up samples are spread over the run like the repetitions.
        """
        setups: list[dict] = []
        reps: list[dict] = []
        start = time.monotonic()
        longest = 0.0
        while not reps or time.monotonic() - start + longest <= seconds:
            began = time.monotonic()
            setups.append(self.child("--setup-only"))
            reps.append(self.child())
            longest = max(longest, time.monotonic() - began)
        return setups, reps


def _failures(reps: list[dict]) -> list[dict]:
    return [f for rep in reps for f in rep["failures"]]


def untraced(runner: Runner, seconds: float) -> dict:
    runner.child("--setup-only")  # warm-up: byte-compiles src/ if needed
    setups, reps = runner.repetitions(seconds)
    # The repetitions run the same jobs in the same order. Each job is timed
    # at its fastest, which filters out slow phases of a shared host.
    best = [min(times) for times in zip(*(rep["latencies_ms"] for rep in reps))]
    p = tail_percentile(len(best))
    median = statistics.median
    metrics = {
        "setup_s": (median([r["setup_s"] for r in setups + reps]), "s"),
        "wall_s": (sum(best) / 1000, "s"),
        "job_p50_ms": (median(best), "ms"),
        "job_tail_ms": (nearest_rank(best, p or 100), "ms"),
        "peak_rss_mb": (median([r["peak_rss_mb"] for r in reps]), "MB"),
    }
    failures = _failures(reps)
    attempted = len(best) * len(reps)
    return {
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "attempted": attempted,
        "failures": failures,
        "error_rate": len(failures) / attempted,
        "repetitions": len(reps),
        "jobs": len(best),
        "tail_percentile": p or 100,
        "xtoplat_file": reps[0]["xtoplat_file"],
        "setup_samples_s": [r["setup_s"] for r in setups],
        "reps": reps,
    }


def traced(runner: Runner) -> dict:
    spans_path = os.path.join(RESULTS, f"spans-{runner.workload}.json")
    plain = runner.child()
    traced_rep = runner.child("--trace", spans_path)
    with open(spans_path, encoding="utf-8") as handle:
        trace = json.load(handle)
    metrics, absent, _ = tracer.layer_metrics(trace)
    for name in absent:
        print(f"warning: {name} is absent: its traced function is gone", file=sys.stderr)
    metrics["trace.overhead_ratio"] = {
        "value": traced_rep["wall_s"] / plain["wall_s"],
        "unit": "ratio",
    }
    families = [workloads.family(job) for job in workloads.jobs(runner.workload, runner.seed)]
    predictions, layer_self_s = {}, {}
    for name in dict.fromkeys(families):
        part = tracer.Summary(trace, {k for k, f in enumerate(families) if f == name})
        layer_self_s[name] = {layer: part.self_s[layer] for layer in tracer.LAYERS}
        total = sum(layer_self_s[name].values())
        layers = PREDICTIONS[name]
        share = sum(part.self_s[layer] for layer in layers) / total if total else 0.0
        predictions[name] = {"layers": list(layers), "share": share, "held": share > 0.5}
    failures = _failures([plain, traced_rep])
    jobs = len(plain["latencies_ms"])
    return {
        "metrics": metrics,
        "absent": absent,
        "attempted": 2 * jobs,
        "failures": failures,
        "error_rate": len(failures) / (2 * jobs),
        "jobs": jobs,
        "spans": spans_path,
        "layer_self_s": layer_self_s,
        "predictions": predictions,
        "xtoplat_file": plain["xtoplat_file"],
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool, deadline: float) -> dict:
    runner = Runner(workload, seed, deadline)
    os.makedirs(RESULTS, exist_ok=True)
    result = traced(runner) if trace else untraced(runner, seconds)
    result.update(workload=workload, seed=seed, trace=trace, git_head=git_head())
    path = os.path.join(RESULTS, f"{workload}-seed{seed}-trace{int(trace)}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1)
    return result


def report(result: dict) -> None:
    mode = "traced" if result["trace"] else "untraced"
    print(f"{result['workload']} (seed {result['seed']}, {mode}): {result['jobs']} jobs", end="")
    if "repetitions" in result:
        print(f" x {result['repetitions']} repetition(s), tail = p{result['tail_percentile']}", end="")
    print()
    for name, metric in result["metrics"].items():
        print(f"  {name:30} {metric['value']:14.6f} {metric['unit']}")
    print(f"  {'error_rate':30} {result['error_rate']:14.6f} ratio"
          f"  ({len(result['failures'])}/{result['attempted']} jobs failed)")
    for failure in result["failures"][:10]:
        print(f"    FAILED {failure['job']}: {failure['reason']}")
    for name, pred in result.get("predictions", {}).items():
        verdict = "held" if pred["held"] else "FAILED"
        print(f"  prediction on {name}: {'+'.join(pred['layers'])} > 50% of self time: "
              f"{pred['share']:.1%}, {verdict}")
    print(f"  xtoplat {result['xtoplat_file']}  git {result['git_head']}")


def record_golden(deadline: float) -> None:
    """Write every job's exit code and stdout digest to golden.json."""
    golden = {}
    for workload in workloads.WORKLOADS:
        rep = Runner(workload, 0, deadline).child("--record")
        golden.update(rep["digests"])
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        handle.write('{"git_head": "%s", "jobs": {\n' % git_head())
        handle.write(",\n".join(
            f"{json.dumps(key)}: {json.dumps(golden[key])}" for key in sorted(golden)
        ))
        handle.write("\n}}\n")
    print(f"recorded {len(golden)} jobs in {GOLDEN}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[*workloads.WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "xtoplat", "cli.py")):
        print(f"error: no xtoplat sources under {ROOT}/src", file=sys.stderr)
        return 2
    start = time.monotonic()
    names = workloads.WORKLOADS if args.workload == "all" else [args.workload]
    try:
        if args.record_golden:
            record_golden(start + 4 * BUDGET_S)
            return 0
        results = []
        for name in names:
            deadline = time.monotonic() + BUDGET_S
            results.append(run_workload(name, args.seed, args.seconds, bool(args.trace), deadline))
            report(results[-1])
    except RunError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    prefix = len(results) > 1
    summary = {
        "correct": all(not r["failures"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(len(r["failures"]) for r in results),
        "metrics": {
            (f"{r['workload']}.{k}" if prefix else k): v
            for r in results
            for k, v in r["metrics"].items()
        },
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
