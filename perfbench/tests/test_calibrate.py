import unittest

from perfbench import calibrate


class CalibrateTest(unittest.TestCase):
    def test_scale_is_one_at_the_nominal_speed(self) -> None:
        nominal = calibrate.NOMINAL_S
        self.assertAlmostEqual(calibrate.scale(nominal, nominal), 1.0)
        # A host running the probe twice as slowly gets its times halved.
        self.assertAlmostEqual(calibrate.scale(2 * nominal, 2 * nominal), 0.5)

    def test_stopwatch_counts_work_and_not_probes(self) -> None:
        watch = calibrate.Stopwatch()
        calibrate._loop(200_000)
        watch.lap(min_s=3600.0)  # too short a chunk: nothing is closed
        self.assertEqual(watch.raw_wall_s, 0.0)
        watch.lap()
        first = watch.raw_wall_s
        self.assertGreater(first, 0.0)
        self.assertGreater(watch.wall_s, 0.0)
        self.assertGreater(watch.cpu_s, 0.0)
        watch.lap()  # only a probe ran since the last lap
        self.assertLess(watch.raw_wall_s - first, first)
