#!/usr/bin/env python3
"""Unit tests for tools/bench_to_json.py (stdlib unittest; also runs
under pytest). Wired into ctest as ToolsBenchToJson and into the lint
workflow's observability job.

The interesting properties:
  - scraping tolerates garbage and keeps valid records;
  - a missing binary or a bench with no JSON rows exits non-zero
    *before* any BENCH_*.json is written (no partial refresh);
  - the shard-scaling gate fires when the 8-shard/8-thread event-driven
    run is not >=1.5x faster than the 8-thread lockstep baseline, and
    refuses to compare rows from different fleet sizes;
  - the churn-overhead gate fires when the armed-but-idle elastic
    membership arm costs >5%, when its policy fired (the ratio is then
    not an overhead measurement), or when the arm's row is missing;
  - the quality-overhead gate fires when the online scoreboard arm
    costs >5%, when it resolved no instants (the ratio is then not an
    overhead measurement), or when the arm's row is missing;
  - the frozen-serving gate fires when the artifact serving rate drops
    below 0.7x the live engine's, or when the row is missing;
  - every overhead gate reads the paired median and refuses a row
    measured from fewer than five off/on pairs;
  - benches sharing an output file (the three fleet benches all feed
    BENCH_fleet.json) merge into one array in bench order, never
    clobbering each other;
  - every written row carries the host signature: CPU count, and the
    compiler and build type from the build directory's CMakeCache.txt.
"""

import json
import os
import pathlib
import stat
import sys
import tempfile
import unittest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
import bench_to_json  # noqa: E402


def shard_rows(lockstep_wall, event_wall, nodes=512, event_nodes=None):
    return [
        {"bench": "fleet_shard_scaling", "mode": "lockstep", "nodes": nodes,
         "shards": 1, "threads": 8, "wall_seconds": lockstep_wall},
        {"bench": "fleet_shard_scaling", "mode": "event",
         "nodes": event_nodes if event_nodes is not None else nodes,
         "shards": 8, "threads": 8, "wall_seconds": event_wall},
    ]


class ScrapeTest(unittest.TestCase):
    def test_keeps_valid_lines_and_skips_garbage(self):
        text = "\n".join([
            "== some table ==",
            '{"bench":"fleet_throughput","threads":1,"wall_seconds":1.0}',
            '{"bench":"broken", unparsable}',
            "  threads  wall [s]",
            '  {"bench":"fleet_throughput","threads":8,"wall_seconds":0.5}',
            '{"not_a_bench":"x"}',
        ])
        records = bench_to_json.scrape_json_lines(text)
        self.assertEqual(len(records), 2)
        self.assertEqual(records[0]["bench"], "fleet_throughput")
        self.assertEqual(records[1]["threads"], 8)


class ShardGateTest(unittest.TestCase):
    def test_speedup_is_lockstep_over_event(self):
        self.assertAlmostEqual(
            bench_to_json.shard_speedup(shard_rows(3.0, 1.5)), 2.0)

    def test_missing_rows_yield_none_and_fail_the_gate(self):
        rows = shard_rows(3.0, 1.5)[:1]
        self.assertIsNone(bench_to_json.shard_speedup(rows))
        with self.assertRaises(SystemExit):
            bench_to_json.check_shard_scaling(rows)

    def test_mismatched_fleet_sizes_are_not_comparable(self):
        rows = shard_rows(3.0, 1.5, nodes=512, event_nodes=100000)
        self.assertIsNone(bench_to_json.shard_speedup(rows))

    def test_extra_rows_of_other_shapes_are_ignored(self):
        rows = shard_rows(3.0, 1.5)
        rows.append({"bench": "fleet_shard_scaling", "mode": "event",
                     "nodes": 512, "shards": 4, "threads": 8,
                     "wall_seconds": 0.01})
        rows.append({"bench": "fleet_shard_scaling", "mode": "event",
                     "nodes": 512, "shards": 8, "threads": 1,
                     "wall_seconds": 9.0})
        self.assertAlmostEqual(bench_to_json.shard_speedup(rows), 2.0)

    def test_speedup_below_floor_fails(self):
        with self.assertRaises(SystemExit):
            bench_to_json.check_shard_scaling(shard_rows(1.4, 1.0))

    def test_speedup_at_or_above_floor_passes(self):
        bench_to_json.check_shard_scaling(shard_rows(1.5, 1.0))
        bench_to_json.check_shard_scaling(shard_rows(2.0, 1.0))


def frozen_row(ratio):
    return {"bench": "frozen_serving",
            "kernels": 64, "dim": 8, "batch": 2048,
            "live_scores_per_second": 1.0e6,
            "frozen_scores_per_second": 1.0e6 * ratio, "ratio": ratio}


class FrozenServingGateTest(unittest.TestCase):
    def test_ratio_at_or_above_floor_passes(self):
        bench_to_json.check_frozen_serving([frozen_row(0.7)])
        bench_to_json.check_frozen_serving([frozen_row(1.02)])

    def test_ratio_below_floor_fails(self):
        with self.assertRaises(SystemExit):
            bench_to_json.check_frozen_serving([frozen_row(0.5)])

    def test_missing_row_fails(self):
        with self.assertRaises(SystemExit):
            bench_to_json.check_frozen_serving(
                [{"bench": "fleet_throughput", "wall_seconds": 1.0}])


def paired_fields(overhead_pct, pairs):
    return {"pairs": pairs, "baseline_seconds": 1.0,
            "observed_seconds": 1.0 + overhead_pct / 100.0,
            "overhead_pct": overhead_pct,
            "overhead_min_pct": overhead_pct - 2.0,
            "overhead_max_pct": overhead_pct + 2.0}


def obs_overhead_row(overhead_pct, pairs=7):
    return {"bench": "fleet_obs_overhead", "nodes": 16, "threads": 4,
            **paired_fields(overhead_pct, pairs),
            "spans_recorded": 1000, "spans_dropped": 0}


class ObsOverheadTest(unittest.TestCase):
    def test_overhead_above_budget_fails(self):
        with self.assertRaises(SystemExit):
            bench_to_json.check_obs_overhead([obs_overhead_row(7.5)])

    def test_overhead_within_budget_passes(self):
        bench_to_json.check_obs_overhead([obs_overhead_row(1.2)])


def churn_overhead_row(overhead_pct, policy_joins=0, pairs=7):
    return {"bench": "fleet_churn_overhead", "nodes": 16,
            **paired_fields(overhead_pct, pairs),
            "policy_joins": policy_joins}


def quality_overhead_row(overhead_pct, instants_resolved=4000, pairs=7):
    return {"bench": "fleet_quality_overhead", "nodes": 16,
            **paired_fields(overhead_pct, pairs),
            "instants_resolved": instants_resolved}


class PairedOverheadTest(unittest.TestCase):
    def test_gate_reads_the_median_not_the_spread(self):
        # A max above budget is one noisy pair; only the median is gated.
        row = obs_overhead_row(2.0)
        row["overhead_max_pct"] = 12.0
        bench_to_json.check_obs_overhead([row])

    def test_fewer_than_five_pairs_fail_every_gate(self):
        for check, row in (
                (bench_to_json.check_obs_overhead, obs_overhead_row(1.0, 4)),
                (bench_to_json.check_churn_overhead,
                 churn_overhead_row(1.0, pairs=4)),
                (bench_to_json.check_quality_overhead,
                 quality_overhead_row(1.0, pairs=4))):
            with self.assertRaises(SystemExit):
                check([row])

    def test_five_pairs_suffice(self):
        bench_to_json.check_obs_overhead([obs_overhead_row(1.0, 5)])
        bench_to_json.check_churn_overhead([churn_overhead_row(1.0, pairs=5)])
        bench_to_json.check_quality_overhead(
            [quality_overhead_row(1.0, pairs=5)])

    def test_row_without_pairs_fails(self):
        row = obs_overhead_row(1.0)
        del row["pairs"]
        with self.assertRaises(SystemExit):
            bench_to_json.check_obs_overhead([row])


class HostSignatureTest(unittest.TestCase):
    def test_reads_compiler_and_build_type_from_the_cache(self):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = pathlib.Path(tmp)
            compiler = tmp / "g++-real"
            compiler.write_text("")
            (tmp / "c++").symlink_to(compiler)
            (tmp / "CMakeCache.txt").write_text(
                "# comment\n"
                "//CMAKE_BUILD_TYPE help text\n"
                "CMAKE_BUILD_TYPE:STRING=Release\n"
                f"CMAKE_CXX_COMPILER:FILEPATH={tmp / 'c++'}\n")
            host = bench_to_json.host_signature(tmp)
            self.assertEqual(host["nproc"], os.cpu_count())
            self.assertEqual(host["build_type"], "Release")
            self.assertEqual(host["compiler"], os.path.realpath(compiler))

    def test_missing_cache_leaves_compiler_and_build_type_empty(self):
        with tempfile.TemporaryDirectory() as tmp:
            host = bench_to_json.host_signature(pathlib.Path(tmp))
            self.assertEqual(host["compiler"], "")
            self.assertEqual(host["build_type"], "")


class QualityGateTest(unittest.TestCase):
    def test_overhead_within_budget_passes(self):
        bench_to_json.check_quality_overhead([quality_overhead_row(1.3)])

    def test_negative_overhead_passes(self):
        bench_to_json.check_quality_overhead([quality_overhead_row(-0.8)])

    def test_overhead_above_budget_fails(self):
        with self.assertRaises(SystemExit):
            bench_to_json.check_quality_overhead([quality_overhead_row(5.9)])

    def test_idle_scoreboard_invalidates_the_measurement(self):
        # Even a cheap run is rejected when the scoreboard resolved no
        # instants: the observed arm did none of the work being costed.
        with self.assertRaises(SystemExit):
            bench_to_json.check_quality_overhead(
                [quality_overhead_row(0.1, instants_resolved=0)])

    def test_missing_overhead_row_fails(self):
        with self.assertRaises(SystemExit):
            bench_to_json.check_quality_overhead(
                [{"bench": "fleet_quality", "precision": 1.0}])


class ChurnGateTest(unittest.TestCase):
    def test_overhead_within_budget_passes(self):
        bench_to_json.check_churn_overhead([churn_overhead_row(1.7)])

    def test_negative_overhead_passes(self):
        bench_to_json.check_churn_overhead([churn_overhead_row(-2.4)])

    def test_overhead_above_budget_fails(self):
        with self.assertRaises(SystemExit):
            bench_to_json.check_churn_overhead([churn_overhead_row(6.3)])

    def test_policy_that_fired_invalidates_the_measurement(self):
        # Even a cheap run is rejected when the "idle" policy joined
        # nodes: the two arms no longer did the same work.
        with self.assertRaises(SystemExit):
            bench_to_json.check_churn_overhead(
                [churn_overhead_row(0.1, policy_joins=2)])

    def test_missing_overhead_row_fails(self):
        with self.assertRaises(SystemExit):
            bench_to_json.check_churn_overhead(
                [{"bench": "fleet_churn", "mode": "static",
                  "wall_seconds": 1.0}])


class MainAtomicityTest(unittest.TestCase):
    """main() must not write any BENCH_*.json until everything passed."""

    def run_main(self, build_dir, out_dir, extra=()):
        argv = ["bench_to_json.py", "--build-dir", str(build_dir),
                "--out-dir", str(out_dir), *extra]
        old = sys.argv
        sys.argv = argv
        try:
            bench_to_json.main()
        finally:
            sys.argv = old

    def fake_bench(self, bench_dir, name, lines):
        path = bench_dir / name
        body = "#!/bin/sh\n" + "".join(f"echo '{line}'\n" for line in lines)
        path.write_text(body)
        path.chmod(path.stat().st_mode | stat.S_IEXEC)

    def good_fleet_lines(self):
        return [
            json.dumps({"bench": "fleet_throughput", "threads": 8,
                        "wall_seconds": 1.0}),
            *(json.dumps(row) for row in shard_rows(3.0, 1.5)),
            json.dumps(frozen_row(0.98)),
        ]

    def good_churn_lines(self):
        return [
            json.dumps({"bench": "fleet_churn", "mode": "static",
                        "churn_events_per_day": 4.0, "wall_seconds": 1.0}),
            json.dumps(churn_overhead_row(1.0)),
        ]

    def good_quality_lines(self):
        return [
            json.dumps({"bench": "fleet_quality", "nodes": 16,
                        "precision": 0.9, "recall": 0.8,
                        "model_availability": 0.999}),
            json.dumps(quality_overhead_row(1.0)),
        ]

    def test_missing_binary_exits_nonzero_and_writes_nothing(self):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = pathlib.Path(tmp)
            (tmp / "build" / "bench").mkdir(parents=True)
            out = tmp / "out"
            with self.assertRaises(SystemExit):
                self.run_main(tmp / "build", out)
            self.assertFalse(out.exists())

    def test_bench_with_no_rows_exits_nonzero_and_writes_nothing(self):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = pathlib.Path(tmp)
            bench_dir = tmp / "build" / "bench"
            bench_dir.mkdir(parents=True)
            self.fake_bench(bench_dir, "bench_fleet_throughput",
                            self.good_fleet_lines())
            self.fake_bench(bench_dir, "bench_fleet_churn",
                            self.good_churn_lines())
            self.fake_bench(bench_dir, "bench_fleet_quality",
                            self.good_quality_lines())
            self.fake_bench(bench_dir, "bench_fault_injection",
                            ["no json here"])
            out = tmp / "out"
            with self.assertRaises(SystemExit):
                self.run_main(tmp / "build", out)
            # The fleet benches succeeded, but their output must not have
            # been committed when the injection bench produced nothing.
            self.assertFalse((out / "BENCH_fleet.json").exists())

    def test_happy_path_writes_both_files(self):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = pathlib.Path(tmp)
            bench_dir = tmp / "build" / "bench"
            bench_dir.mkdir(parents=True)
            self.fake_bench(bench_dir, "bench_fleet_throughput",
                            self.good_fleet_lines())
            self.fake_bench(bench_dir, "bench_fleet_churn",
                            self.good_churn_lines())
            self.fake_bench(bench_dir, "bench_fleet_quality",
                            self.good_quality_lines())
            self.fake_bench(bench_dir, "bench_fault_injection",
                            [json.dumps({"bench": "injection", "arm": "x"})])
            (tmp / "build" / "CMakeCache.txt").write_text(
                "CMAKE_BUILD_TYPE:STRING=RelWithDebInfo\n")
            out = tmp / "out"
            self.run_main(tmp / "build", out)
            fleet = json.loads((out / "BENCH_fleet.json").read_text())
            # All three fleet benches merged into one array, in BENCHES
            # order: throughput rows, then churn, then quality.
            self.assertEqual(len(fleet), 8)
            self.assertEqual(fleet[0]["bench"], "fleet_throughput")
            self.assertEqual(fleet[3]["bench"], "frozen_serving")
            self.assertEqual(fleet[4]["bench"], "fleet_churn")
            self.assertEqual(fleet[5]["bench"], "fleet_churn_overhead")
            self.assertEqual(fleet[6]["bench"], "fleet_quality")
            self.assertEqual(fleet[7]["bench"], "fleet_quality_overhead")
            injection = json.loads((out / "BENCH_injection.json").read_text())
            self.assertEqual(injection[0]["bench"], "injection")
            for row in fleet + injection:
                self.assertEqual(row["host"]["build_type"], "RelWithDebInfo")
                self.assertEqual(row["host"]["nproc"], os.cpu_count())


if __name__ == "__main__":
    # Quiet the bench stdout passthrough during the atomicity tests;
    # unittest itself reports on stderr.
    with open(os.devnull, "w") as devnull:
        stdout = sys.stdout
        sys.stdout = devnull
        try:
            unittest.main()
        finally:
            sys.stdout = stdout
