"""Unit tests for the benchmark's arithmetic (perfbench/benchlib.py).

    python3 -m unittest discover -s perfbench/tests -v
"""

import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import benchlib  # noqa: E402


class Normalisation(unittest.TestCase):
    def test_nominal_reading_leaves_time_unchanged(self):
        self.assertAlmostEqual(benchlib.normalise(2.5, 0.004, 0.004), 2.5)

    def test_slow_host_scales_time_down(self):
        # The reference ran 25% slow, so the host was slow: 1.25 s measured
        # is 1.0 s of reference-core time.
        self.assertAlmostEqual(benchlib.normalise(1.25, 0.005, 0.004), 1.0)

    def test_fast_host_scales_time_up(self):
        self.assertAlmostEqual(benchlib.normalise(0.5, 0.002, 0.004), 1.0)

    def test_rejects_non_positive_reading(self):
        with self.assertRaises(ValueError):
            benchlib.normalise(1.0, 0.0, 0.004)

    def test_throughput_uses_each_pass_reading(self):
        # Two passes of 1e6 samples: one at nominal speed, one where the host
        # (and with it the reference) ran twice as slow. Both normalise to
        # the same 1 Msamp/s, so the median is exactly that.
        raw = synthetic_run(
            passes=[dict(cpu_s=1.0, ref_cpu_s=0.004), dict(cpu_s=2.0, ref_cpu_s=0.008),
                    dict(cpu_s=1.0, ref_cpu_s=0.004)])
        metrics, _ = benchlib.end_to_end(raw, 0.004)
        self.assertAlmostEqual(metrics["msamp_per_s"], 1.0)
        unnormalised, _ = benchlib.end_to_end(raw, 0.004, normalised=False)
        self.assertAlmostEqual(unnormalised["msamp_per_s"], 1.0)  # median of 1, 0.5, 1
        raw["passes"][2].update(cpu_s=2.0, ref_cpu_s=0.008)
        unnormalised, _ = benchlib.end_to_end(raw, 0.004, normalised=False)
        self.assertAlmostEqual(unnormalised["msamp_per_s"], 0.5)

    def test_each_segment_uses_the_readings_around_it(self):
        # Two captures: the host slowed down between them. Each capture is
        # normalised by the mean of the readings just before and after it.
        p = dict(traced=False, samples=3_000_000, segment_cpu_s=[1.0, 2.0],
                 refs_cpu_s=[0.004, 0.004, 0.012],
                 segment_events_end=[60, 100], events_ns=[1000 * (k + 1) for k in range(100)],
                 delivered_ok=1, frames=1, cpu_s=3.0, ref_cpu_s=0.0, ref_wall_s=0.0)
        self.assertAlmostEqual(benchlib.normalised_cpu(p, 0.004), 1.0 + 2.0 * 0.004 / 0.008)
        raw = {"passes": [p], "setup": [dict(cpu_s=1.0, ref_cpu_s=0.004)], "peak_rss_kb": 1}
        metrics, _ = benchlib.end_to_end(raw, 0.004)
        self.assertAlmostEqual(metrics["msamp_per_s"], 1.5)
        # Events 0..59 belong to the first capture, 60..99 to the second.
        times = sorted([k + 1.0 for k in range(60)] + [(k + 1) * 0.5 for k in range(60, 100)])
        self.assertAlmostEqual(metrics["event_us_p50"], times[49])
        self.assertAlmostEqual(metrics["event_us_p90"], times[89])
        # With ref_scope "run" every segment takes the run's median reading
        # (0.004 of 0.004, 0.004, 0.012), whatever its neighbours read.
        p["ref_scope"] = "run"
        metrics, _ = benchlib.end_to_end(raw, 0.004)
        self.assertAlmostEqual(metrics["msamp_per_s"], 1.0)

    def test_event_pass_times_candidates_for_a_pool_pass(self):
        # A two-run pool pass normalised by the run's median reading, whose
        # per-packet times come from its event pass: the first run again on
        # one thread, normalised by the readings around it.
        events = [2000 * (k + 1) for k in range(100)]
        p = dict(traced=False, samples=2_000_000, segment_cpu_s=[1.0, 1.0],
                 refs_cpu_s=[0.004, 0.004, 0.004], ref_scope="run", delivered_ok=1,
                 frames=1, cpu_s=2.0, ref_cpu_s=0.004,
                 event_pass=dict(segment_cpu_s=[0.5], refs_cpu_s=[0.008, 0.008],
                                 segment_events_end=[100], events_ns=events))
        raw = {"passes": [p], "setup": [dict(cpu_s=1.0, ref_cpu_s=0.004)], "peak_rss_kb": 1}
        metrics, _ = benchlib.end_to_end(raw, 0.004)
        self.assertAlmostEqual(metrics["msamp_per_s"], 1.0)
        # 2(k + 1) us at half speed is k + 1 us: median 50.5, p90 (rank) 90.
        self.assertAlmostEqual(metrics["event_us_p50"], 50.5)
        self.assertAlmostEqual(metrics["event_us_p90"], 90.0)
        # Pool CPU of the first run (1.0) over its single-thread CPU (0.25).
        self.assertAlmostEqual(benchlib.parallel_overhead(p, 0.004, 0.004), 4.0)

    def test_setup_is_median_of_normalised_setups(self):
        raw = synthetic_run(setup=[(0.010, 0.004), (0.030, 0.006), (0.020, 0.008),
                                   (0.001, 0.001), (0.012, 0.004)])
        metrics, _ = benchlib.end_to_end(raw, 0.004)
        # Normalised: 0.010, 0.020, 0.010, 0.004, 0.012 -> median 0.010.
        self.assertAlmostEqual(metrics["setup_s"], 0.010)


class Percentiles(unittest.TestCase):
    def test_per_candidate_median_over_passes(self):
        passes = [[1.0, 10.0, 5.0], [3.0, 11.0, 50.0], [2.0, 9.0, 6.0]]
        self.assertEqual(benchlib.per_candidate_medians(passes), [2.0, 10.0, 6.0])

    def test_per_candidate_median_needs_same_candidates(self):
        with self.assertRaises(ValueError):
            benchlib.per_candidate_medians([[1.0, 2.0], [1.0]])

    def test_p90_of_100_leaves_ten_beyond(self):
        values = list(range(1, 101))
        self.assertEqual(benchlib.percentile_with_tail(values, 90), 90)

    def test_p90_refuses_fewer_than_ten_beyond(self):
        with self.assertRaises(ValueError):
            benchlib.percentile_with_tail(list(range(1, 100)), 90)

    def test_ties_at_the_percentile_do_not_count_as_beyond(self):
        values = [1.0] * 95 + [2.0] * 5
        with self.assertRaises(ValueError):
            benchlib.percentile_with_tail(values, 90)
        self.assertEqual(benchlib.percentile_with_tail(values, 90, min_tail=5), 1.0)

    def test_p50_is_nearest_rank(self):
        self.assertEqual(benchlib.percentile_with_tail([4, 1, 3, 2], 50, min_tail=2), 2)

    def test_quartile_spread(self):
        # statistics.quantiles (exclusive) of 1..9: Q1 2.5, median 5, Q3 7.5.
        self.assertAlmostEqual(benchlib.quartile_spread(list(range(1, 10))), 1.0)


class SelfTime(unittest.TestCase):
    NAMES = ["iter", "sync", "decode", "viterbi", "probe"]

    def test_nested_spans(self):
        spans = [
            [0, -1, 0, 100],    # 0 iter            100, children 20 + 60 + 5
            [4, 0, 0, 5],       # 1 probe  (child of iter)
            [1, 0, 5, 25],      # 2 sync   (child of iter)  20
            [2, 0, 30, 90],     # 3 decode (child of iter)  60, children 30 + 10
            [3, 3, 40, 70],     # 4 viterbi (child of decode) 30
            [3, 3, 75, 85],     # 5 viterbi (child of decode) 10
            [0, -1, 200, 210],  # 6 second iter, no children
        ]
        total, own = benchlib.self_times(spans, self.NAMES)
        self.assertEqual(total["iter"], 110)
        self.assertEqual(own["iter"], 100 - 5 - 20 - 60 + 10)
        self.assertEqual(total["decode"], 60)
        self.assertEqual(own["decode"], 20)
        self.assertEqual(total["viterbi"], 40)
        self.assertEqual(own["viterbi"], 40)
        self.assertEqual(own["sync"], 20)

    def test_traced_pass_excludes_probes(self):
        names = ["core.scan.iter", "sync.detect", "sync.synchronize", "core.decode",
                 "fec.viterbi"]
        p = {
            "spans": [[0, -1, 0, 1000], [1, 0, 0, 100], [2, 0, 100, 400],
                      [3, 0, 400, 900], [4, 3, 500, 800]],
            "wall_s": 1000e-9, "cpu_s": 1000e-9, "ref_cpu_s": 1.0, "ref_wall_s": 1.0,
            "samples": 100,
            "counters": {"candidates": 4, "useful": 1, "resyncs": 3, "rewinds": 0,
                         "detector_samples": 250, "demod_symbols": 0, "eq_bins": 0,
                         "demap_llrs": 0, "deint_llrs": 0, "depunct_llrs": 0,
                         "viterbi_bits": 0},
        }
        out = benchlib.traced_pass_layers(p, names, 1.0)
        self.assertAlmostEqual(out["sync.detect.us"], 0.1)          # 100 ns
        self.assertAlmostEqual(out["sync.fine.us"], 0.3 - 0.1)      # synchronize - detect
        self.assertAlmostEqual(out["fec.viterbi.us"], 0.3)
        self.assertAlmostEqual(out["core.decode.unattributed_us"], 0.2)
        self.assertAlmostEqual(out["core.scan.self_us"], 0.1)       # 1000 - 100 - 300 - 500
        # Traced time 900 ns (probe out); covered 300 + 500.
        self.assertAlmostEqual(out["trace.unattributed_share"], 100 / 900)
        self.assertAlmostEqual(out["core.scan.useful_ratio"], 0.25)
        self.assertAlmostEqual(out["sync.detect.rescan_factor"], 2.5)


def synthetic_run(passes=None, setup=None):
    passes = passes or [dict(cpu_s=1.0, ref_cpu_s=0.004)]
    setup = setup or [(0.01, 0.004)]
    return {
        "passes": [dict(traced=False, samples=1_000_000, ref_wall_s=p["ref_cpu_s"],
                        delivered_ok=10, frames=10, events_ns=[1000 + k for k in range(100)],
                        **p) for p in passes],
        "setup": [dict(cpu_s=c, ref_cpu_s=r) for c, r in setup],
        "peak_rss_kb": 2048,
    }


if __name__ == "__main__":
    unittest.main()
