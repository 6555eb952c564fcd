"""Self-tests of the benchmark; run from the repository root:

    python3 perfbench/selftest.py          # everything (about 10 s)
    python3 perfbench/selftest.py -k Jobs  # one class
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import unittest
from collections import Counter

import run
import tracer
import worker
import workloads


class JobsTest(unittest.TestCase):
    def test_job_counts(self):
        counts = {w: len(workloads.jobs(w, 0)) for w in workloads.WORKLOADS}
        self.assertEqual(counts, {"spec-grid": 185, "classify-verify": 103})
        families = Counter(map(workloads.family, workloads.jobs("classify-verify", 0)))
        self.assertEqual(families, {"classify-wide": 77, "classify-tall": 22, "verify-sweep": 4})

    def test_job_sets_do_not_depend_on_seed(self):
        for workload in workloads.WORKLOADS:
            canonical = sorted(map(tuple, workloads.jobs(workload, 0)))
            for seed in (1, 2, 3, 12345):
                jobs = workloads.jobs(workload, seed)
                self.assertEqual(sorted(map(tuple, jobs)), canonical, workload)

    def test_seed_permutes_groups(self):
        self.assertNotEqual(workloads.jobs("spec-grid", 1), workloads.jobs("spec-grid", 2))
        self.assertEqual(workloads.jobs("spec-grid", 7), workloads.jobs("spec-grid", 7))

    def test_semiring_jobs_stay_together(self):
        for seed in (0, 1, 2):
            jobs = workloads.jobs("spec-grid", seed)
            for k, job in enumerate(jobs):
                if job[1:3] == ["--bni", str(workloads.SPEC_MAX_N)] and len(job) == 4:
                    tail = [j[5] for j in jobs[k + 1 : k + 4]]
                    self.assertEqual(tail, ["max", "min", "drop-zero"])
                    self.assertTrue(all(j[:4] == job for j in jobs[k + 1 : k + 4]))

    def test_verify_suites_sharing_posets_stay_in_order(self):
        for seed in (0, 1, 2, 3):
            jobs = workloads.jobs("classify-verify", seed)
            first = next(k for k, job in enumerate(jobs) if job[:2] == ["verify", "xct"])
            self.assertEqual(
                [job[:2] for job in jobs[first : first + 3]],
                [["verify", "xct"], ["verify", "quarter"], ["verify", "discrete"]],
            )

    def test_repeat_share_of_spec_grid(self):
        jobs = workloads.jobs("spec-grid", 0)
        repeats = sum(1 for job in jobs if "--subspace" in job)
        self.assertEqual(repeats, 48)

    def test_forests_match_the_library_generator(self):
        sys.path.insert(0, os.path.join(run.ROOT, "src"))
        from xtoplat.enumeration import forest_specs
        from xtoplat.formats import format_forest_spec

        def points(spec):
            return sum(k if kind == "C" else k + 1 for kind, k in spec)

        wide_n, tall_n = workloads.WIDE_POINTS, workloads.TALL_POINTS
        wide = {format_forest_spec(s) for s in forest_specs(wide_n) if points(s) == wide_n}
        tall = {
            format_forest_spec(s)
            for s in forest_specs(tall_n, kinds="C")
            if points(s) == tall_n and len(s) <= 3 and all(k >= 2 for _, k in s)
        }
        jobs = workloads.jobs("classify-verify", 0)
        for name, specs in (("classify-wide", wide), ("classify-tall", tall)):
            self.assertEqual({j[-1] for j in jobs if workloads.family(j) == name}, specs)

    def test_golden_covers_every_job(self):
        with open(run.GOLDEN, encoding="utf-8") as handle:
            golden = json.load(handle)["jobs"]
        keys = {workloads.job_key(job) for w in workloads.WORKLOADS for job in workloads.jobs(w, 0)}
        self.assertEqual(set(golden), keys)
        self.assertTrue(all(entry["exit"] == 0 for entry in golden.values()))

    def test_tail_percentiles(self):
        self.assertEqual(
            [run.tail_percentile(n) for n in (185, 103, 4)], [94, 90, None]
        )
        self.assertEqual(run.nearest_rank([5.0, 1.0, 3.0, 2.0, 4.0], 60), 3.0)


class GoldenCheckTest(unittest.TestCase):
    def test_mismatch_reasons(self):
        expected = {"exit": 0, "sha256": "ab"}
        self.assertIsNone(worker._mismatch(0, "ab", expected))
        self.assertEqual(worker._mismatch(3, "ab", expected), "exit 3, expected 0")
        self.assertEqual(worker._mismatch(0, "cd", expected), "stdout digest mismatch")
        self.assertEqual(worker._mismatch(0, "ab", None), "no golden output")


def _span(name, start, end, parent, sizes=None):
    return [name, start, end, parent, 0, sizes]


class SelfTimeTest(unittest.TestCase):
    # cli.main [0, 10] -> topology.from_poset [1, 7] -> lattice.upset_lattice [2, 5]
    #                                                -> topology.build_space [5, 6.5]
    #                 -> separation.separation_report [7, 9.5]
    SPANS = [
        _span("cli.main", 0.0, 10.0, -1),
        _span("topology.from_poset", 1.0, 7.0, 0),
        _span("lattice.upset_lattice", 2.0, 5.0, 1),
        _span("topology.build_space", 5.0, 6.5, 1, (3, 4, 8)),
        _span("separation.separation_report", 7.0, 9.5, 0),
        _span("topology.build_space", 11.0, 12.0, -1, (1, 2, 2)),
    ]

    def test_self_times(self):
        self.assertEqual(tracer.self_times(self.SPANS), [1.5, 1.5, 3.0, 1.5, 2.5, 1.0])

    def test_self_times_sum_to_root_durations(self):
        roots = sum(end - start for _, start, end, parent, *_ in self.SPANS if parent < 0)
        self.assertAlmostEqual(sum(tracer.self_times(self.SPANS)), roots)

    def test_layer_metrics(self):
        wrapped = sorted({span[0] for span in self.SPANS})
        metrics, absent, summary = tracer.layer_metrics({"wrapped": wrapped, "spans": self.SPANS})
        self.assertEqual(summary.self_s["topology"], 4.0)
        self.assertEqual(metrics["topology.build_space_s"]["value"], 2.5)
        self.assertEqual(metrics["topology.build_space_calls"]["value"], 2)
        self.assertEqual(metrics["topology.points"]["value"], 4)
        self.assertEqual(metrics["topology.closed_sets"]["value"], 6)
        self.assertEqual(metrics["topology.point_share"]["value"], 0.4)
        self.assertEqual(metrics["cli.self_s"]["value"], 1.5)
        self.assertEqual(metrics["separation.spaces"]["value"], 1)
        # nothing from these modules was traced, so their metrics are absent
        self.assertIn("verify.xct_s", absent)
        self.assertIn("semiring.spec_share", absent)
        self.assertNotIn("verify.xct_s", metrics)
        self.assertEqual(set(metrics) | set(absent), set(tracer.PER_LAYER))


class TracedRunTest(unittest.TestCase):
    """Every job of every workload, traced, against the golden digests."""

    def test_traced_runs_match_golden(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload), tempfile.TemporaryDirectory() as tmp:
                spans = os.path.join(tmp, "spans.json")
                done = subprocess.run(
                    [sys.executable, "-S", run.WORKER, "--root", run.ROOT,
                     "--workload", workload, "--seed", "3", "--trace", spans],
                    stdout=subprocess.PIPE, text=True, timeout=170,
                )
                self.assertEqual(done.returncode, 0)
                result = json.loads(done.stdout.splitlines()[-1])
                self.assertEqual(result["failures"], [])
                self.assertEqual(len(result["latencies_ms"]), len(workloads.jobs(workload, 3)))
                with open(spans, encoding="utf-8") as handle:
                    trace = json.load(handle)
                metrics, absent, summary = tracer.layer_metrics(trace)
                self.assertEqual(absent, [])
                self.assertEqual(summary.calls["cli.main"], len(result["latencies_ms"]))
                if workload == "classify-verify":
                    # cli calls from_poset through its own binding of the name
                    jobs = workloads.jobs(workload, 3)
                    wide = {k for k, job in enumerate(jobs) if workloads.family(job) == "classify-wide"}
                    part = tracer.Summary(trace, wide)
                    self.assertEqual(part.calls["cli.main"], 77)
                    self.assertEqual(part.calls["topology.from_poset"], 77)
                    self.assertEqual(part.calls["lattice.FiniteLattice.validate"], 77)


if __name__ == "__main__":
    unittest.main()
