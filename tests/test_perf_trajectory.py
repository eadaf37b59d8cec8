#!/usr/bin/env python3
"""Tests of the perf trajectory gate, compare() in
tools/perf_trajectory.py, on synthetic history.

    python3 tests/test_perf_trajectory.py
"""

import contextlib
import importlib.util
import io
import os
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
spec = importlib.util.spec_from_file_location(
    "perf_trajectory",
    os.path.join(os.path.dirname(HERE), "tools", "perf_trajectory.py"))
pt = importlib.util.module_from_spec(spec)
spec.loader.exec_module(pt)

BOUNDS = {"sim_req_per_host_s": ("higher", 0.25),
          "setup_s": ("lower", 0.25),
          "sim_tput_rps": ("higher", 0.06)}


def line(rate, setup=0.05, tput=4000.0):
    """A trajectory line with the given host-metric medians and
    simulated throughput."""
    def host(v):
        return {"median": v, "min": v, "max": v}
    return {"host_metrics": {"sim_req_per_host_s": host(rate),
                             "setup_s": host(setup)},
            "sim_metrics": {"sim_tput_rps": tput}}


def value(h):
    return h["host_metrics"]["sim_req_per_host_s"]["median"]


def gate(history, new):
    with contextlib.redirect_stdout(io.StringIO()):
        return pt.compare(history, new, BOUNDS)


class CompareTest(unittest.TestCase):
    def test_one_high_point_does_not_block_unchanged_code(self):
        # The last line alone (1,352/s) would fail 1,000/s at -26%.
        for history in ([line(1000), line(1000), line(1352)],
                        [line(1000), line(1352), line(1000)],
                        [line(1352), line(1000)],
                        [line(900), line(1352), line(1000), line(1010)]):
            with self.subTest(history=[value(h) for h in history]):
                self.assertEqual(gate(history, line(1000)), [])

    def test_drop_of_thirty_percent_against_three_lines_fails(self):
        history = [line(1000), line(1010), line(990)]
        self.assertEqual(gate(history, line(700)), ["sim_req_per_host_s"])
        self.assertEqual(gate(history, line(1000, setup=0.07)),
                         ["setup_s"])

    def test_only_the_last_three_lines_count(self):
        history = [line(5000), line(5000), line(1000), line(1000),
                   line(1000)]
        self.assertEqual(gate(history, line(1000)), [])

    def test_simulated_metrics_are_gated_against_the_last_line(self):
        # The median of the three would be 3,700 and pass.
        history = [line(1000, tput=3700), line(1000, tput=3700),
                   line(1000, tput=4000)]
        self.assertEqual(gate(history, line(1000, tput=3700)),
                         ["sim_tput_rps"])
        self.assertEqual(gate(history, line(1000, tput=4000)), [])

    def test_first_line_passes(self):
        self.assertEqual(gate([], line(1000)), [])


if __name__ == "__main__":
    unittest.main()
