import unittest

from perfbench.stats import median, quantile, rel_diff


class QuantileTest(unittest.TestCase):
    def test_exact_on_raw_samples(self) -> None:
        data = [5.0, 1.0, 4.0, 2.0, 3.0]
        self.assertEqual(quantile(data, 0.0), 1.0)
        self.assertEqual(quantile(data, 0.5), 3.0)
        self.assertEqual(quantile(data, 1.0), 5.0)
        self.assertAlmostEqual(quantile(data, 0.9), 4.6)

    def test_even_count_interpolates(self) -> None:
        self.assertEqual(median([1.0, 2.0, 3.0, 10.0]), 2.5)

    def test_not_bucketed(self) -> None:
        # The legacy histograms read 3.906 ms for anything in (1.95, 3.9].
        data = [0.00301 + i * 1e-6 for i in range(1001)]
        self.assertAlmostEqual(quantile(data, 0.5), 0.00351, places=9)

    def test_accepts_generators_and_rejects_empty(self) -> None:
        self.assertEqual(median(x for x in (3.0, 1.0, 2.0)), 2.0)
        with self.assertRaises(ValueError):
            quantile([], 0.5)
        with self.assertRaises(ValueError):
            quantile([1.0], 1.5)


class SummaryTest(unittest.TestCase):
    def test_rel_diff(self) -> None:
        self.assertAlmostEqual(rel_diff(10.0, 11.0), 0.1)
        self.assertAlmostEqual(rel_diff(10.0, 9.0), -0.1)
        self.assertEqual(rel_diff(0.0, 0.0), 0.0)
