"""Tests of the benchmark's own statistics and of BENCHMARK.json.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import statistics
import unittest

import stats

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class PercentileRule(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(stats.percentile(values, "50"), 50)
        self.assertEqual(stats.percentile(values, "99"), 99)
        self.assertEqual(stats.percentile(values, "100"), 100)
        self.assertEqual(stats.percentile([7], "99"), 7)

    def test_percentile_ignores_input_order(self):
        self.assertEqual(stats.percentile([5, 1, 4, 2, 3], "50"), 3)

    def test_rank_is_exact_for_decimal_percentiles(self):
        # 0.99 * 7800 is not exact in binary floating point.
        self.assertEqual(stats.rank(7800, "99"), 7722)
        self.assertEqual(stats.rank(1536, "99"), 1521)
        self.assertEqual(stats.rank(10000, "99.9"), 9990)

    def test_samples_beyond(self):
        self.assertEqual(stats.beyond(1536, "99"), 15)
        self.assertEqual(stats.beyond(7800, "99"), 78)
        self.assertEqual(stats.beyond(100, "50"), 50)

    def test_tail_is_highest_with_ten_beyond(self):
        self.assertEqual(stats.tail_percentile(1536), "99")
        self.assertEqual(stats.tail_percentile(7800), "99")
        self.assertEqual(stats.tail_percentile(10000), "99.9")
        self.assertEqual(stats.tail_percentile(1000), "99")
        self.assertEqual(stats.tail_percentile(999), "90")
        self.assertEqual(stats.tail_percentile(100), "90")
        self.assertEqual(stats.tail_percentile(99), "50")
        self.assertEqual(stats.tail_percentile(20), "50")
        self.assertIsNone(stats.tail_percentile(19))

    def test_rejects_bad_input(self):
        with self.assertRaises(ValueError):
            stats.rank(0, "50")
        with self.assertRaises(ValueError):
            stats.rank(10, "0")
        with self.assertRaises(ValueError):
            stats.rank(10, "101")


class Quartiles(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0, 5.5, 3.5]
        self.assertEqual(stats.quartiles(values),
                         statistics.quantiles(values, n=4))

    def test_spread_is_iqr_over_median(self):
        values = [8.0, 9.0, 10.0, 11.0, 12.0]
        q1, _, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(stats.spread(values), (q3 - q1) / 10.0)

    def test_spread_of_constant_values_is_zero(self):
        self.assertEqual(stats.spread([4, 4, 4, 4]), 0.0)
        self.assertEqual(stats.spread([0, 0, 0]), 0.0)


class PerJobMedians(unittest.TestCase):
    def test_median_over_passes_per_job(self):
        passes = [[1.0, 10.0, 5.0],
                  [3.0, 30.0, 5.0],
                  [2.0, 20.0, 50.0]]
        self.assertEqual(stats.per_job_medians(passes), [2.0, 20.0, 5.0])

    def test_even_pass_count_averages_the_middle(self):
        self.assertEqual(stats.per_job_medians([[1.0], [2.0]]), [1.5])

    def test_rejects_ragged_passes(self):
        with self.assertRaises(ValueError):
            stats.per_job_medians([[1.0, 2.0], [1.0]])
        with self.assertRaises(ValueError):
            stats.per_job_medians([])


class NameGrammar(unittest.TestCase):
    def test_grammar(self):
        for good in ("jobs_per_s", "sched.modulo.ms", "fuzz-cold", "a",
                     "0x", "x" * 64):
            self.assertTrue(stats.NAME_RE.match(good), good)
        for bad in ("", "has space", "µs", ".lead", "_lead", "a/b",
                    "x" * 65):
            self.assertFalse(stats.NAME_RE.match(bad), bad)

    def test_check_flags_duplicates_and_bounds(self):
        doc = {"workloads": [{"name": "w"}],
               "end_to_end": [
                   {"name": "w", "unit": "s", "better": "lower",
                    "bound": 0.1},
                   {"name": "t", "unit": "s", "better": "lower",
                    "bound": 0.5}],
               "per_layer": [{"name": "bad name", "unit": "µs",
                              "better": "up"}]}
        problems = " ".join(stats.check_benchmark(doc))
        self.assertIn("'w' used twice", problems)
        self.assertIn("t: bound", problems)
        self.assertIn("bad name", problems)
        self.assertIn("bad unit", problems)
        self.assertIn("bad 'better'", problems)

    def test_benchmark_json_is_well_formed(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            doc = json.load(f)
        self.assertEqual(stats.check_benchmark(doc), [])
        names = [m["name"] for m in doc["end_to_end"]]
        self.assertIn("setup_s", names)
        setup = doc["end_to_end"][names.index("setup_s")]
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"],
                         max(m["bound"] for m in doc["end_to_end"]))

    def test_baseline_reports_use_declared_names(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            doc = json.load(f)
        declared = {m["name"] for s in ("end_to_end", "per_layer")
                    for m in doc[s]}
        baseline = os.path.join(ROOT, "perfbench", "baseline")
        for entry in sorted(os.listdir(baseline)):
            with open(os.path.join(baseline, entry)) as f:
                report = json.load(f)
            for name in report["metrics"]:
                self.assertTrue(stats.NAME_RE.match(name), name)
                self.assertIn(name, declared, entry)


if __name__ == "__main__":
    unittest.main()
