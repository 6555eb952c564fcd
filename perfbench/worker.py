"""One repetition of a workload, run in a fresh process by ``run.py``.

The worker imports ``xtoplat.cli`` from the checkout's ``src/``, builds
the job list, then runs every job through ``cli.main(argv, out=buffer)``
one after another and checks each exit code and stdout digest against
``golden.json``.  It prints one JSON object on stdout.

    python3 -S perfbench/worker.py --root . --workload spec-grid --seed 0

``--setup-only`` stops once set-up is done; ``--trace SPANS`` records
spans and writes them to SPANS; ``--record`` reports digests instead of
checking them.
"""

from __future__ import annotations

import time

STARTED = time.monotonic()  # set-up is timed from here, before any import

import argparse
import hashlib
import io
import json
import os
import resource
import sys

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden.json")


def _import_cli(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    from xtoplat import cli
    import xtoplat

    package = os.path.realpath(os.path.dirname(xtoplat.__file__))
    if package != os.path.realpath(os.path.join(src, "xtoplat")):
        raise SystemExit(f"worker: imported xtoplat from {package}, not from {src}")
    return cli, xtoplat.__file__


def _mismatch(code, digest: str, expected: dict | None) -> str | None:
    """Why a job's exit code and stdout digest fail ``expected``, if they do."""
    if expected is None:
        return "no golden output"
    if code != expected["exit"]:
        return f"exit {code}, expected {expected['exit']}"
    if digest != expected["sha256"]:
        return "stdout digest mismatch"
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", metavar="SPANS")
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)

    job_list = workloads.jobs(args.workload, args.seed)
    golden = {}
    if not args.record:
        with open(GOLDEN, encoding="utf-8") as handle:
            golden = json.load(handle)["jobs"]
    cli, xtoplat_file = _import_cli(args.root)
    setup_s = time.monotonic() - STARTED
    result = {"setup_s": setup_s, "xtoplat_file": xtoplat_file}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    latencies, failures, digests = [], [], {}
    clock = time.perf_counter
    first = clock()
    for index, job in enumerate(job_list):
        if tracer:
            tracer.job = index
        buffer = io.StringIO()
        crash = None
        start = clock()
        try:
            code = cli.main(job, out=buffer)
        except SystemExit as stop:  # argparse exits on a bad command line
            code = stop.code
        except Exception as err:  # a crashing job is a failed job
            code, crash = None, f"{type(err).__name__}: {err}"
        latencies.append(clock() - start)
        digest = hashlib.sha256(buffer.getvalue().encode("utf-8")).hexdigest()
        key = workloads.job_key(job)
        if args.record:
            digests[key] = {"exit": code, "sha256": digest}
            continue
        reason = crash or _mismatch(code, digest, golden.get(key))
        if reason:
            failures.append({"job": key, "reason": reason})
    wall_s = clock() - first

    if tracer:
        tracer.dump(args.trace)
    result.update(
        wall_s=wall_s,
        latencies_ms=[t * 1000 for t in latencies],
        failures=failures,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    if args.record:
        result["digests"] = digests
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
