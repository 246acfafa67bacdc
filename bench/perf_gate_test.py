#!/usr/bin/env python3
"""Checks bench/perf_gate.py's comparison rules on synthetic reports.

Run directly (python3 bench/perf_gate_test.py) or through ctest
(perf_gate_test, label tools).
"""

import os
import sys
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import perf_gate  # noqa: E402


def report():
    workload = {
        "sim": {"requests_finished": 14765, "core.sync_store_ops_per_req": 3,
                "latency_p99_ms": 156.263979, "outcome_digest": 1663213744556235},
        "allocs": {"sim.allocs_per_req": 40.0, "core.allocs_per_pkt": 2.0},
        "host": {"requests_per_s": 10000.0, "host_us_per_request": 100.0,
                 "peak_rss_mb": 100.0},
    }
    return {
        "seed": 1007,
        "workloads": {"fig13_small_stateful": workload,
                      "paper_pages_stateless": {k: dict(v) for k, v in workload.items()}},
        "micro": {"fabric_packets_per_sec": 2.0e7, "timer_cancel_churn_ops_per_sec": 4.0e7},
    }


class CompareTest(unittest.TestCase):
    def assert_one_failure(self, measured, *words):
        failures = perf_gate.compare(report(), measured)
        self.assertEqual(len(failures), 1, failures)
        for word in words:
            self.assertIn(word, failures[0])

    def test_identical_reports_pass(self):
        self.assertEqual(perf_gate.compare(report(), report()), [])

    def test_sim_count_off_by_one_fails(self):
        m = report()
        m["workloads"]["paper_pages_stateless"]["sim"]["requests_finished"] += 1
        self.assert_one_failure(m, "paper_pages_stateless", "requests_finished", "14765",
                                "14766")

    def test_alloc_count_at_1_3x_fails(self):
        m = report()
        m["workloads"]["fig13_small_stateful"]["allocs"]["core.allocs_per_pkt"] = 2.6
        self.assert_one_failure(m, "fig13_small_stateful", "core.allocs_per_pkt")

    def test_alloc_count_at_1_2x_passes(self):
        m = report()
        m["workloads"]["fig13_small_stateful"]["allocs"]["core.allocs_per_pkt"] = 2.4
        self.assertEqual(perf_gate.compare(report(), m), [])

    def test_requests_per_s_at_0_49x_fails(self):
        m = report()
        m["workloads"]["fig13_small_stateful"]["host"]["requests_per_s"] = 4900.0
        self.assert_one_failure(m, "fig13_small_stateful", "requests_per_s")

    def test_peak_rss_at_2_1x_fails(self):
        m = report()
        m["workloads"]["paper_pages_stateless"]["host"]["peak_rss_mb"] = 210.0
        self.assert_one_failure(m, "paper_pages_stateless", "peak_rss_mb")

    def test_missing_workload_fails(self):
        m = report()
        del m["workloads"]["paper_pages_stateless"]
        self.assert_one_failure(m, "paper_pages_stateless", "not measured")

    def test_extra_sim_key_fails(self):
        m = report()
        m["workloads"]["fig13_small_stateful"]["sim"]["kv.items_at_end"] = 0
        self.assert_one_failure(m, "fig13_small_stateful", "kv.items_at_end", "not in the file")

    def test_micro_throughput_below_half_fails(self):
        m = report()
        m["micro"]["fabric_packets_per_sec"] = 0.9e7
        self.assert_one_failure(m, "micro", "fabric_packets_per_sec")


if __name__ == "__main__":
    unittest.main()
