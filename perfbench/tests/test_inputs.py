import random
import unittest
from collections import Counter

from perfbench.inputs import UniformKeys, ZipfianKeys, due_times, make_ops
from perfbench.loadgen import client_sites


class DueTimesTest(unittest.TestCase):
    def test_even_grid(self) -> None:
        dues = due_times(300.0, 2.0)
        self.assertEqual(len(dues), 600)
        self.assertEqual(dues[0], 0.0)
        self.assertAlmostEqual(dues[1], 1 / 300)
        self.assertAlmostEqual(dues[-1], 599 / 300)
        self.assertEqual(dues, sorted(dues))

    def test_bursts_share_a_due_time_at_the_same_mean_rate(self) -> None:
        dues = due_times(300.0, 2.0, burst=8)
        self.assertEqual(len(dues), 600)
        groups = Counter(dues)
        self.assertEqual(set(groups.values()), {8})
        starts = sorted(groups)
        self.assertAlmostEqual(starts[1] - starts[0], 8 / 300)
        # Same mean rate as the even grid: the last burst starts within
        # one burst interval of the window's end.
        self.assertLess(2.0 - starts[-1], 8 / 300 + 1e-9)

    def test_rejects_nonsense(self) -> None:
        for args in ((0.0, 1.0, 1), (10.0, 0.0, 1), (10.0, 1.0, 0)):
            with self.assertRaises(ValueError):
                due_times(*args)


class KeyGeneratorTest(unittest.TestCase):
    def test_same_seed_same_stream(self) -> None:
        kw = dict(read_fraction=0.5, key_dist="zipfian", n_keys=10_000)
        self.assertEqual(make_ops(500, 7, **kw), make_ops(500, 7, **kw))
        self.assertNotEqual(make_ops(500, 7, **kw), make_ops(500, 8, **kw))

    def test_mix_and_values(self) -> None:
        ops = make_ops(4000, 3, read_fraction=0.95, key_dist="uniform", n_keys=1000)
        gets = sum(1 for op in ops if op.kind == "get")
        self.assertAlmostEqual(gets / len(ops), 0.95, delta=0.02)
        for index, op in enumerate(ops):
            self.assertEqual(op.value, index if op.kind == "put" else None)
        puts_only = make_ops(100, 3, read_fraction=0.0, key_dist="uniform", n_keys=10)
        self.assertEqual({op.kind for op in puts_only}, {"put"})

    def test_every_seed_offers_the_same_mix(self) -> None:
        kw = dict(read_fraction=0.5, key_dist="uniform", n_keys=1000)
        for seed in range(5):
            ops = make_ops(2800, seed, **kw)
            self.assertEqual(sum(1 for op in ops if op.kind == "put"), 1400)

    def test_uniform_covers_the_keyspace(self) -> None:
        keys = UniformKeys(50, random.Random(1))
        seen = {keys.sample() for _ in range(2000)}
        self.assertEqual(seen, {f"k{i}" for i in range(50)})

    def test_zipfian_is_skewed_and_scrambled(self) -> None:
        keys = ZipfianKeys(100_000, random.Random(1))
        counts = Counter(keys.sample() for _ in range(20_000))
        hottest, hits = counts.most_common(1)[0]
        # theta=0.99 over 100k keys: rank 0 draws ~8% of the samples.
        self.assertGreater(hits / 20_000, 0.05)
        self.assertEqual(hottest, "k0")  # rank 0 scrambles to 0
        second = counts.most_common(2)[1][0]
        self.assertNotEqual(second, "k1")  # rank 1 does not stay next to it
        self.assertGreater(len(counts), 5_000)  # and the tail is long

    def test_unknown_distribution(self) -> None:
        with self.assertRaises(ValueError):
            make_ops(1, 0, read_fraction=0.0, key_dist="pareto", n_keys=10)


class ClientSitesTest(unittest.TestCase):
    def test_two_connections_dial_the_coordinator_and_the_middle(self) -> None:
        self.assertEqual(client_sites(5, 2), [0, 2])
        self.assertEqual(client_sites(5, 4), [0, 1, 2, 3])
        self.assertEqual(client_sites(1, 2), [0, 0])
