"""Tests of the benchmark's own arithmetic on fixed inputs.

Run with: python3 perfbench/run.py --selftest
"""

import contextlib
import copy
import io
import json
import math
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import analysis  # noqa: E402
import run  # noqa: E402


def dump(**counters):
    """A ccdd metrics dump holding the given counters."""
    return {name: {"type": "counter", "value": value}
            for name, value in counters.items()}


def ledger(sent, **outcomes):
    out = {"sent": sent, "received": sent, "ok": sent, "rounds": 0,
           "backpressure": 0, "deadline": 0, "errors": 0}
    out.update(outcomes)
    return out


def serve_record(latencies=1000, failed=0):
    """A consistent three-episode ingest_stream record, traced."""
    def episode(i):
        sent = 20 + i
        final = dump(**{"ccd.serve.submitted": sent,
                        "ccd.serve.responses": sent - 1})
        before = dump(**{"ccd.cache.misses": 100,
                         "ccd.cache.evictions": 0})
        before["ccd.serve.queue_wait_us"] = {"count": 10, "sum": 100.0}
        before["ccd.serve.request_us"] = {"count": 10, "sum": 1000.0}
        after = dump(**{"ccd.cache.misses": 300, "ccd.cache.evictions": 0})
        after["ccd.serve.queue_wait_us"] = {"count": 110, "sum": 600.0}
        after["ccd.serve.request_us"] = {"count": 110, "sum": 31000.0}
        return {"setup_s": 1.0 + i, "setup_cpu_s": 3.0 + i,
                "timed_s": 2.0, "timed_cpu_s": 4.0,
                "timed_attempted": 100, "timed_failed": failed,
                "peak_rss_kb": 1024 * (10 + i), "ledger": ledger(sent),
                "metrics_before": before, "metrics_after": after,
                "metrics_final": final,
                "latencies_us": [float(v) for v in range(1, latencies + 1)],
                "cpu_us": [float(v) / 2 for v in range(1, latencies + 1)]}

    measure = {"episodes": [episode(i) for i in range(3)]}
    return {
        "workload": "ingest_stream", "seed": 1, "seconds": 1.0,
        "trace": True, "build_type": "release", "compiler": "test",
        "nproc": 4, "checkpoint_fs": "tmpfs", "workers_per_op": 200.0,
        "measure": measure, "traced": copy.deepcopy(measure),
        "spans": [["serve.round", -1, 0, 100],
                  ["serve.protocol.decode", 0, 0, 10],
                  ["serve.session.refit", 0, 10, 90]],
        "counts": {"replayed_rounds": 4, "contract.ksweeps": 200,
                   "contract.cache_hits": 0, "contract.cache_lookups": 200,
                   "serve.protocol.request_bytes": 4843},
        "checkpoint_bytes": [],
        "checks": [{"name": "ingest_stream.ok", "ok": True, "detail": ""}],
    }


class PercentileTest(unittest.TestCase):
    def test_p99_needs_ten_samples_beyond(self):
        samples = list(range(1, 1001))
        q, value = analysis.tail_percentile(samples, 0.99)
        self.assertEqual((q, value), (0.99, 990))
        self.assertEqual(sum(1 for s in samples if s > value), 10)

    def test_too_few_samples_lower_the_percentile(self):
        q, value = analysis.tail_percentile(list(range(1, 1000)), 0.99)
        self.assertEqual(value, 989)
        self.assertAlmostEqual(q, 989 / 999)
        q, value = analysis.tail_percentile(list(range(1, 101)), 0.99)
        self.assertEqual((q, value), (0.9, 90))

    def test_median_and_tiny_samples(self):
        self.assertEqual(analysis.tail_percentile([5, 1, 3] * 10, 0.5),
                         (0.5, 3))
        self.assertEqual(analysis.tail_percentile([1.0] * 10, 0.5),
                         (0.0, None))

    def test_failed_operations_miss_the_tail_and_count_as_samples(self):
        record = serve_record(latencies=1000, failed=15)
        _, info = analysis.end_to_end(record, record["measure"])
        self.assertEqual(info["samples"], 3045)
        self.assertEqual(info["failed"], 45)
        self.assertEqual(info["wall_latency_ms_tail"], math.inf)
        self.assertEqual(info["wall_latency_ms_p50"], 0.508)
        self.assertEqual(info["cpu_ms_p50"], 0.254)

    def test_p50_is_the_median_of_episode_medians(self):
        record = serve_record(latencies=100)
        record["measure"]["episodes"][0]["latencies_us"] = [1e6] * 100
        _, info = analysis.end_to_end(record, record["measure"])
        self.assertEqual(info["wall_latency_ms_p50"], 0.05)

    def test_tail_pools_the_samples_of_every_episode(self):
        record = serve_record(latencies=1000)
        _, info = analysis.end_to_end(record, record["measure"])
        self.assertEqual(info["samples"], 3000)
        self.assertEqual(info["wall_latency_ms_tail_quantile"], 0.99)
        self.assertEqual(info["wall_latency_ms_tail"], 0.99)
        # A stall in one episode that holds more than 1% of the run's
        # samples sets the tail.
        stalled = record["measure"]["episodes"][1]["latencies_us"]
        stalled[-40:] = [1e6] * 40
        _, info = analysis.end_to_end(record, record["measure"])
        self.assertEqual(info["wall_latency_ms_tail"], 1000.0)

    def test_short_runs_fall_back_to_pooled_samples(self):
        record = serve_record(latencies=3)
        _, info = analysis.end_to_end(record, record["measure"])
        self.assertEqual(info["wall_latency_ms_p50"], 0.002)
        self.assertEqual(info["wall_latency_ms_tail"], 0.003)
        self.assertEqual(info["wall_latency_ms_tail_quantile"], 1.0)


class EndToEndTest(unittest.TestCase):
    def test_metrics_come_from_cpu_clocks(self):
        record = serve_record()
        metrics, info = analysis.end_to_end(record, record["measure"])
        self.assertEqual(metrics["setup_s"], 4.0)
        self.assertEqual(metrics["workers_per_cpu_s"], 200.0 * 100 / 4.0)
        self.assertEqual(metrics["peak_rss_mb"], 11.0)
        self.assertEqual(info["wall_setup_s"], 2.0)
        self.assertEqual(info["wall_workers_per_s"], 200.0 * 100 / 2.0)
        self.assertEqual(info["wall_ops_per_s"], 50.0)

    def test_throughput_is_the_median_over_episodes(self):
        record = serve_record()
        episodes = record["measure"]["episodes"]
        episodes[0]["timed_cpu_s"] = 100.0
        episodes[2]["timed_cpu_s"] = 1.0
        metrics, _ = analysis.end_to_end(record, record["measure"])
        self.assertEqual(metrics["workers_per_cpu_s"], 200.0 * 100 / 4.0)

    def test_goodput_excludes_failures(self):
        record = serve_record(failed=10)
        metrics, _ = analysis.end_to_end(record, record["measure"])
        self.assertEqual(metrics["workers_per_cpu_s"], 200.0 * 90 / 4.0)


class LedgerTest(unittest.TestCase):
    def test_matching_ledger_reconciles(self):
        counters = dump(**{"ccd.serve.submitted": 12,
                           "ccd.serve.responses": 11,
                           "ccd.serve.backpressure": 2})
        self.assertEqual(
            analysis.reconcile(ledger(12, backpressure=2), counters), [])

    def test_every_mismatch_is_named(self):
        counters = dump(**{"ccd.serve.submitted": 13,
                           "ccd.serve.responses": 11,
                           "ccd.serve.errors": 1})
        problems = analysis.reconcile(ledger(12, received=11), counters)
        self.assertEqual(len(problems), 3)
        self.assertIn("ccd.serve.submitted=13, clients saw 12", problems[0])
        self.assertIn("ccd.serve.errors=1, clients saw 0", problems[1])
        self.assertIn("sent 12 requests, received 11", problems[2])

    def test_unreconciled_episode_fails_the_run(self):
        record = serve_record()
        record["measure"]["episodes"][1]["ledger"]["sent"] += 1
        correct, problems = analysis.verdict(record)
        self.assertFalse(correct)
        self.assertTrue(problems[0].startswith("episode 1:"))


class SlopeTest(unittest.TestCase):
    def test_bytes_per_round(self):
        points = [(r, 30000 + 2432 * r) for r in range(100, 200)]
        self.assertAlmostEqual(analysis.slope(points), 2432.0)

    def test_constant_size_has_zero_slope(self):
        self.assertEqual(analysis.slope([(r, 5000) for r in range(10)]), 0.0)
        self.assertEqual(analysis.slope([(1, 5)]), 0.0)


class SelfTimeTest(unittest.TestCase):
    SPANS = [
        ["round", -1, 0, 100],
        ["a", 0, 10, 30],
        ["b", 0, 20, 50],   # overlaps a: [10, 50) covered once
        ["c", 0, 90, 120],  # clipped to the parent's end
        ["a", -1, 200, 205],
    ]

    def test_self_time_subtracts_covered_interval(self):
        layers = analysis.self_times(self.SPANS)
        self.assertEqual(layers["round"], (1, 100, 50))
        self.assertEqual(layers["a"], (2, 25, 25))
        self.assertEqual(layers["b"], (1, 30, 30))
        self.assertEqual(layers["c"], (1, 30, 30))

    def test_residual_share_counts_only_spans_with_children(self):
        self.assertEqual(analysis.residual_share(self.SPANS), 0.5)
        self.assertEqual(analysis.residual_share([["x", -1, 0, 10]]), 0.0)

    def test_per_layer_uses_mean_self_time(self):
        values, layers = analysis.per_layer(serve_record())
        self.assertEqual(values["serve.session.refit_us"], 0.08)
        self.assertEqual(layers["serve.round"], (1, 100, 10))
        self.assertAlmostEqual(values["trace.residual_pct"],
                               100 * 195.5 / 500.5)
        self.assertEqual(values["contract.ksweeps"], 50.0)
        self.assertEqual(values["contract.cache_hit_ratio"], 0.0)
        self.assertEqual(values["contract.cache_tables"], 300)
        self.assertEqual(values["serve.queue_wait_us"], 5.0)
        self.assertEqual(values["serve.request_us"], 300.0)
        self.assertAlmostEqual(values["serve.wire_us"], 500.5 - 305.0)
        self.assertEqual(values["data.generate_ms"], 0.0)


class ResultTest(unittest.TestCase):
    def result_of(self, record):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = run.report(record, {})
        return code, json.loads(out.getvalue().splitlines()[-1])

    def test_result_line_has_exactly_the_declared_metrics(self):
        record = serve_record()
        code, result = self.result_of(record)
        self.assertEqual(code, 0)
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertEqual(set(result["metrics"]),
                         {name for name, _ in analysis.PER_LAYER})
        record["trace"] = False
        _, result = self.result_of(record)
        self.assertEqual(result["metrics"]["setup_s"],
                         {"value": 4.0, "unit": "s"})
        self.assertEqual(set(result["metrics"]),
                         {name for name, _ in analysis.END_TO_END})
        self.assertEqual((result["attempted"], result["failed"]), (300, 0))

    def test_failed_output_check_exits_nonzero(self):
        record = serve_record()
        record["checks"].append({"name": "ingest_stream.bitwise",
                                 "ok": False, "detail": "1 differs"})
        code, result = self.result_of(record)
        self.assertEqual(code, 1)
        self.assertFalse(result["correct"])

    def test_a_run_without_checks_is_not_correct(self):
        record = serve_record()
        record["checks"] = []
        self.assertEqual(self.result_of(record)[0], 1)

    def test_benchmark_json_declares_the_same_metrics(self):
        declared = json.loads((HERE.parent.parent / "BENCHMARK.json")
                              .read_text())
        self.assertEqual([(m["name"], m["unit"])
                          for m in declared["end_to_end"]],
                         analysis.END_TO_END)
        self.assertEqual([(m["name"], m["unit"])
                          for m in declared["per_layer"]],
                         analysis.PER_LAYER)
        self.assertEqual([w["name"] for w in declared["workloads"]],
                         list(run.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
