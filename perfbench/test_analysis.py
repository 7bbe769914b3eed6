"""Tests of the benchmark's analysis helpers.

Run them with `python3 perfbench/run.py selftest`, which also builds the
driver and has it write a trace for the round-trip test; plain
`python3 -m unittest test_analysis` (from perfbench/) skips that one.
"""

import json
import os
import statistics
import unittest

import analysis


def write_chrome_trace(spans):
    """Inverse of analysis.read_chrome_trace, in the driver's layout."""
    events = []
    for s in spans:
        events.append({
            "name": s["name"], "cat": "perfbench", "ph": "X", "pid": 1,
            "tid": s["tid"], "ts": s["start"] / 1000.0,
            "dur": (s["end"] - s["start"]) / 1000.0,
            "args": {k: s[k] for k in
                     ("id", "parent", "ordinal", "node", "items")},
        })
    return json.dumps({"displayTimeUnit": "ns", "traceEvents": events})


def span(sid, name, start, end, parent=0, tid=1, items=0):
    return {"id": sid, "name": name, "start": start, "end": end,
            "parent": parent, "tid": tid, "ordinal": 0, "node": 0,
            "items": items}


class SelfTimeTest(unittest.TestCase):
    def test_union_merges_overlaps_and_gaps(self):
        self.assertEqual(analysis.union_length([]), 0)
        self.assertEqual(analysis.union_length([(0, 10), (5, 15), (20, 25)]), 20)
        self.assertEqual(analysis.union_length([(5, 15), (0, 10)]), 15)

    def test_parallel_children_are_merged_not_summed(self):
        spans = [
            span(1, "runtime.round", 0, 100),
            span(2, "telecom.step", 10, 50, parent=1, tid=1),
            span(3, "telecom.step", 30, 70, parent=1, tid=2),  # overlaps 2
            span(4, "telecom.step", 90, 120, parent=1, tid=2),  # runs past
            span(5, "inner", 12, 20, parent=2),
        ]
        selfs = analysis.self_times(spans)
        # covered: [10, 70] and [90, 100] -> 70 of 100
        self.assertEqual(selfs[1], 30)
        self.assertEqual(selfs[2], 40 - 8)
        self.assertEqual(selfs[3], 40)
        self.assertEqual(selfs[5], 8)

    def test_loop_span_names(self):
        self.assertTrue(analysis.is_loop_span("runtime.round"))
        self.assertTrue(analysis.is_loop_span("core.closed_loop.both"))
        self.assertFalse(analysis.is_loop_span("runtime.rounds"))
        self.assertFalse(analysis.is_loop_span("telecom.step"))


class PercentileTest(unittest.TestCase):
    def test_tail_needs_ten_samples_beyond(self):
        self.assertEqual(analysis.tail_percentile(range(1, 1001)), (99.0, 990))
        self.assertEqual(analysis.tail_percentile(range(1, 10001)),
                         (99.9, 9990))
        # 999 samples leave only 9 beyond p99.
        self.assertEqual(analysis.tail_percentile(range(1, 1000))[0], 90.0)
        self.assertIsNone(analysis.tail_percentile(range(1, 16)))

    def test_round_p99_only_with_enough_rounds(self):
        def raw(n):
            rep = {"mode": "plain", "wall_s": 1.0, "round_s": [1e-3] * n,
                   "values": {"failed": 0, "evaluations": 10}}
            return {"reps": [rep]}
        self.assertIn("round_p99_ms", analysis.scoped_end_to_end(raw(1000)))
        self.assertNotIn("round_p99_ms", analysis.scoped_end_to_end(raw(999)))
        self.assertAlmostEqual(
            analysis.scoped_end_to_end(raw(999))["round_p50_ms"][0], 1.0)
        self.assertNotIn("round_p50_ms", analysis.scoped_end_to_end(raw(0)))

    def test_step_total_picks_per_step(self):
        # Every run has one slow step, a different one each time: per-step
        # picks leave them out, where any pick over run totals would not.
        runs = [[9, 1, 1], [1, 9, 1], [1, 1, 9], [1, 2, 1]]
        self.assertEqual(analysis.step_total(runs, min), 3)
        self.assertEqual(analysis.step_total(runs, statistics.median),
                         1 + 1.5 + 1)
        self.assertEqual(analysis.step_total([[2.5]], min), 2.5)
        with self.assertRaises(ValueError):
            analysis.step_total([[1, 2], [1]], min)


PIPELINE_OK = {"auc_ubf": 0.83, "auc_hsmm": 0.78, "availability": 0.996,
               "availability_none": 0.977, "unavail_ratio": 0.17}
DENSE_OK = {"check.nodes": 8, "check.nodes_at_horizon": 8,
            "runtime.rounds": 5760, "check.expected_rounds": 5760,
            "check.quarantined": 0}
SERVING_OK = {"check.unscripted_quarantines": 0, "membership.joined": 96,
              "check.plan_joins": 96, "membership.left": 96,
              "check.plan_leaves": 96, "injection.faults.node_crash": 1,
              "check.plan_crashes": 1, "injection.faults.action_failure": 141,
              "core.action_faults": 141, "injection.faults.sample_drop": 20661,
              "telecom.samples": 1007588,
              "injection.faults.predictor_throw": 212,
              "injection.faults.predictor_nan": 202,
              "runtime.node_steps": 131943}


def failing(checks):
    return [c["name"] for c in checks if not c["ok"]]


class PropertyCheckTest(unittest.TestCase):
    def test_healthy_outputs_pass(self):
        self.assertEqual(failing(analysis.check_pipeline(PIPELINE_OK)), [])
        self.assertEqual(failing(analysis.check_dense(DENSE_OK)), [])
        self.assertEqual(failing(analysis.check_serving(SERVING_OK)), [])

    def test_pipeline_properties(self):
        bad = dict(PIPELINE_OK, auc_hsmm=0.55, unavail_ratio=0.6,
                   availability=0.97)
        self.assertEqual(len(failing(analysis.check_pipeline(bad))), 3)

    def test_dense_properties(self):
        bad = dict(DENSE_OK, **{"check.nodes_at_horizon": 7,
                                "runtime.rounds": 5761})
        self.assertEqual(len(failing(analysis.check_dense(bad))), 2)

    def test_serving_rejects_unscripted_quarantine_and_churn_drift(self):
        bad = dict(SERVING_OK, **{"check.unscripted_quarantines": 1,
                                  "membership.joined": 95})
        self.assertEqual(len(failing(analysis.check_serving(bad))), 2)

    def test_serving_rejects_counts_read_from_freed_wrappers(self):
        bad = dict(SERVING_OK,
                   **{"injection.faults.sample_drop": 15454758009586280633})
        self.assertEqual(failing(analysis.check_serving(bad)),
                         ["sample drops <= samples monitored"])

    def test_run_checks_compare_fingerprints(self):
        def rep(mode, fp):
            return {"mode": mode, "fingerprint": fp,
                    "values": dict(DENSE_OK, failed=0)}
        raw = {"workload": "fleet_dense",
               "reps": [rep("plain", "a"), rep("traced", "a")],
               "reference": {"fingerprint": "a"}}
        self.assertEqual(failing(analysis.check_run(raw)), [])
        raw["reps"][1]["fingerprint"] = "b"
        raw["reference"]["fingerprint"] = "c"
        self.assertEqual(len(failing(analysis.check_run(raw))), 2)


class ChromeTraceTest(unittest.TestCase):
    def test_python_round_trip_is_exact(self):
        spans = [span(1 << 40 | 1, "runtime.run", 1234567, 9876543),
                 span(2 << 40 | 1, "telecom.step", 1234999, 1240001,
                      parent=1 << 40 | 1, tid=2, items=3)]
        self.assertEqual(
            analysis.read_chrome_trace(write_chrome_trace(spans)),
            spans)

    @unittest.skipUnless(os.environ.get("PERFBENCH_TEST_TRACE"),
                         "needs a trace written by pfm_perfbench")
    def test_driver_trace_round_trip(self):
        with open(os.environ["PERFBENCH_TEST_TRACE"]) as f:
            text = f.read()
        spans = analysis.read_chrome_trace(text)
        by_name = {s["name"]: s for s in spans}
        root = by_name["test.root"]
        local = by_name["test.local_child"]
        worker = by_name["test.worker_child"]
        # The worker thread had no open span: it adopts the root scope.
        self.assertEqual(local["parent"], root["id"])
        self.assertEqual(worker["parent"], root["id"])
        self.assertNotEqual(local["tid"], worker["tid"])
        self.assertEqual((root["ordinal"], root["node"]), (7, 3))
        self.assertEqual((worker["items"], local["items"]), (5, 4))
        for s in spans:
            self.assertLessEqual(s["start"], s["end"])
        # Re-encoding reproduces the driver's spans to the nanosecond.
        self.assertEqual(
            analysis.read_chrome_trace(write_chrome_trace(spans)),
            spans)
        selfs = analysis.self_times(spans)
        covered = analysis.union_length(
            [(max(c["start"], root["start"]), min(c["end"], root["end"]))
             for c in (local, worker)])
        self.assertEqual(selfs[root["id"]],
                         root["end"] - root["start"] - covered)


if __name__ == "__main__":
    unittest.main()
