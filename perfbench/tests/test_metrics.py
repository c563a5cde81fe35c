"""Tests for the benchmark's metric math, checks, trace and compare mode.

    python3 -m unittest discover -s perfbench/tests
"""

import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import metrics  # noqa: E402
import run  # noqa: E402


def request(**kw):
    r = {"id": 0, "prompt": 100, "context": 0, "decode_tokens": 4,
         "arrival": 0, "admit_tick": 0, "first_token_tick": 0,
         "finish_tick": 0, "prefill_time": 0, "prefill_chunks": 1,
         "ttft_ms": 100.0, "mean_tbt_ms": 10.0,
         "outcome": metrics.COMPLETED, "tokens_emitted": 5,
         "preemptions": 0, "recompute_time": 0, "kv_blocked_time": 0,
         "swapped_in_blocks": 0, "prefix_reused_tokens": 0}
    r.update(kw)
    return r


def replica(reqs, **kw):
    st = {f: 0 for f in metrics.SUM_FIELDS}
    st.update(sim_makespan=10**9, extrapolation_factor=2.0,
              goodput_tokens_per_s=0.0, avg_channel_util=0.5,
              npu_array_util=0.0, kv_blocks_total=0,
              kv_blocks_high_water=0, wear_spread_pe=0.0, tbt_n=0,
              tbt_p50_ms=0.0, tbt_p95_ms=0.0, tbt_p99_ms=0.0,
              finite_run_tokens_per_s=0.0, requests=reqs)
    st["total_tokens"] = sum(r["tokens_emitted"] for r in reqs)
    st["completed"] = sum(r["outcome"] == metrics.COMPLETED for r in reqs)
    st.update(kw)
    return st


def record(replicas, closed_loop=False, workload="x", **kw):
    rec = {"workload": workload, "seed": 1, "model": "m",
           "closed_loop": closed_loop, "slo_ttft_ms": 150.0,
           "slo_tbt_ms": 20.0, "setup_s": [1e-6, 2e-6, 3e-6],
           "calls": [{"replica": k, "traced": False, "wall_s": 2.0}
                     for k in range(len(replicas))],
           "calls_identical": True, "engine_decode_tok_s": 3.44,
           "peak_rss_mb": 10.0, "replicas": replicas, "host_spans": []}
    rec.update(kw)
    return rec


class TailTest(unittest.TestCase):
    def test_omitted_below_eleven_samples(self):
        self.assertIsNone(metrics.tail_from_samples(list(range(10))))

    def test_eleven_samples_keep_ten_beyond(self):
        value, pct, n = metrics.tail_from_samples(list(range(11)))
        self.assertEqual((value, n), (0, 11))
        self.assertAlmostEqual(pct, 100.0 / 11)

    def test_hundred_samples_give_p90(self):
        xs = list(range(100, 0, -1))
        value, pct, n = metrics.tail_from_samples(xs)
        self.assertEqual((value, pct, n), (90, 90.0, 100))
        # Exactly ten samples lie beyond the tail value.
        self.assertEqual(sum(x > value for x in xs), 10)
        self.assertEqual(metrics.percentile(xs, pct), value)

    def test_summary_picks_highest_supported_percentile(self):
        q = {50: 1.0, 95: 2.0, 99: 3.0}
        self.assertIsNone(metrics.tail_from_summary(19, q))
        self.assertEqual(metrics.tail_from_summary(20, q), (1.0, 50.0, 20))
        self.assertEqual(metrics.tail_from_summary(199, q)[1], 50.0)
        self.assertEqual(metrics.tail_from_summary(200, q)[1], 95.0)
        self.assertEqual(metrics.tail_from_summary(1000, q)[1], 99.0)

    def test_percentile_is_nearest_rank(self):
        self.assertEqual(metrics.percentile([4, 1, 3, 2], 50), 2)
        self.assertEqual(metrics.percentile([4, 1, 3, 2], 51), 3)
        self.assertEqual(metrics.percentile([7], 0), 7)


class LatencyTest(unittest.TestCase):
    def test_closed_loop_ttft_counts_from_send(self):
        r = request(arrival=0, admit_tick=3 * 10**6, ttft_ms=100.0)
        # 3 ms of sim-clock wait before admission, scaled x4.
        self.assertAlmostEqual(metrics.ttft_from_send_ms(r, 4.0, True), 88.0)

    def test_open_loop_ttft_counts_from_arrival(self):
        r = request(arrival=0, admit_tick=3 * 10**6, ttft_ms=100.0)
        self.assertEqual(metrics.ttft_from_send_ms(r, 4.0, False), 100.0)

    def test_closed_loop_queue_wait_is_zero(self):
        r = request(arrival=0, admit_tick=5 * 10**6)
        self.assertEqual(metrics.queue_wait_ms(r, True), 0.0)
        self.assertEqual(metrics.queue_wait_ms(r, False), 5.0)


class SloTest(unittest.TestCase):
    def test_failed_and_shed_requests_miss(self):
        reqs = [request(),
                request(outcome=metrics.SHED_SLO, tokens_emitted=0),
                request(outcome=metrics.TIMED_OUT),
                request(ttft_ms=200.0),
                request(mean_tbt_ms=30.0)]
        ttft = [r["ttft_ms"] for r in reqs]
        self.assertAlmostEqual(metrics.slo_attain(reqs, ttft, 150.0, 20.0),
                               1 / 5)

    def test_limits_are_inclusive(self):
        reqs = [request(ttft_ms=150.0, mean_tbt_ms=20.0)]
        self.assertEqual(metrics.slo_attain(reqs, [150.0], 150.0, 20.0), 1.0)

    def test_failed_share(self):
        self.assertEqual(metrics.failed_share(8, 6), 0.25)
        self.assertEqual(metrics.failed_share(8, 8), 0.0)


class PoolTest(unittest.TestCase):
    def test_rates_pool_over_summed_makespans(self):
        a = replica([request(tokens_emitted=5)], sim_makespan=10**9,
                    extrapolation_factor=2.0, goodput_tokens_per_s=2.5)
        b = replica([request(tokens_emitted=3)], sim_makespan=10**9,
                    extrapolation_factor=1.0, goodput_tokens_per_s=3.0)
        p = metrics.pool([a, b])
        self.assertEqual(p["total_tokens"], 8)
        self.assertAlmostEqual(p["decode_tok_s"], 8 / 3)
        self.assertAlmostEqual(p["goodput_tok_s"], (2.5 * 2 + 3.0 * 1) / 3)
        self.assertEqual([r["replica"] for r in p["requests"]], [0, 1])

    def test_end_to_end_reports_slo_and_completion(self):
        reqs = [request(id=i, ttft_ms=100.0 + i) for i in range(12)]
        reqs[0] = request(outcome=metrics.SHED_SLO, tokens_emitted=0)
        rec = record([replica(reqs, tbt_n=20, tbt_p50_ms=9.0)])
        m = metrics.end_to_end(rec)
        self.assertAlmostEqual(m["completed_share"].value, 11 / 12)
        self.assertAlmostEqual(m["slo_attain"].value, 11 / 12)
        self.assertEqual(m["tbt_tail_ms"].value, 9.0)
        self.assertAlmostEqual(m["sim_tok_per_wall_s"].value, 55 / 2.0)
        self.assertEqual(m["setup_s"].value, 2e-6)


class CheckTest(unittest.TestCase):
    def test_clean_run_passes(self):
        rec = record([replica([request()])])
        self.assertTrue(all(ok for _, ok in metrics.self_checks(rec)))

    def test_short_reply_and_imbalance_fail(self):
        st = replica([request(tokens_emitted=4)])
        st["timeouts"] = 1
        failed = {n for n, ok in metrics.self_checks(record([st])) if not ok}
        self.assertIn("outcome balance", failed)
        self.assertIn("completed requests emitted exact token counts", failed)

    def test_mechanism_guard_fails_when_layer_idle(self):
        rec = record([replica([request()])], workload="shared-kv-7b")
        failed = {n for n, ok in metrics.self_checks(rec) if not ok}
        self.assertIn("mechanism: preemptions > 0", failed)


class TraceTest(unittest.TestCase):
    def test_chrome_trace_spans(self):
        reqs = [request(id=3, arrival=0, admit_tick=1000,
                        first_token_tick=5000, finish_tick=9000,
                        kv_blocked_time=2000, recompute_time=4000)]
        rec = record([replica(reqs)], host_spans=[
            {"name": "serve", "start_us": 1.0, "dur_us": 2.0, "index": 0}])
        trace = json.loads(json.dumps(run.chrome_trace(rec)))
        spans = {(e["name"], e["pid"]): e for e in trace["traceEvents"]
                 if e["ph"] == "X"}
        self.assertEqual(spans[("queued", 10)]["dur"], 1.0)
        self.assertEqual(spans[("prefill", 10)]["ts"], 1.0)
        self.assertEqual(spans[("decode", 10)]["dur"], 4.0)
        # recompute_time is extrapolated (factor 2) -> 2 us of sim clock.
        self.assertEqual(spans[("recompute", 11)]["dur"], 2.0)
        self.assertEqual({e["tid"] for e in trace["traceEvents"]
                          if e["ph"] == "X" and e["pid"] >= 10}, {3})
        self.assertIn(("serve", 1), spans)


class CompareTest(unittest.TestCase):
    def row(self, sim_value, wall):
        return {"workload": "w", "seed": 1, "trace": 0, "correct": True,
                "digest": "d%s" % sim_value,
                "metrics": {"decode_tok_s": {"value": sim_value,
                                             "unit": "tok/s", "side": "sim"},
                            "sim_tok_per_wall_s": {"value": wall,
                                                   "unit": "tok/s",
                                                   "side": "host"}}}

    def compare(self, a, b):
        with tempfile.TemporaryDirectory() as d:
            paths = []
            for name, rows in (("a", a), ("b", b)):
                paths.append(os.path.join(d, name))
                with open(paths[-1], "w") as f:
                    f.writelines(json.dumps(r) + "\n" for r in rows)
            with open(os.devnull, "w") as null:
                saved, sys.stdout = sys.stdout, null
                try:
                    return run.compare(*paths)
                finally:
                    sys.stdout = saved

    def test_host_differences_are_not_flagged(self):
        self.assertTrue(self.compare([self.row(1.0, 5.0)],
                                     [self.row(1.0, 6.0)]))

    def test_any_sim_difference_is_flagged(self):
        self.assertFalse(self.compare([self.row(1.0, 5.0)],
                                      [self.row(1.0 + 1e-12, 5.0)]))


if __name__ == "__main__":
    unittest.main()
