import unittest

from perfbench.layers import paired_durations, span_report
from perfbench.spans import Boundary, Span, SpanLog, self_times


class SelfTimeTest(unittest.TestCase):
    def test_nested_spans(self) -> None:
        # root [0,10] > a [1,4] > b [2,3];  root > c [5,9]
        spans = [
            Span("root", 0.0, 10.0, -1),
            Span("a", 1.0, 4.0, 0),
            Span("b", 2.0, 3.0, 1),
            Span("c", 5.0, 9.0, 0),
        ]
        times = self_times(spans)
        self.assertEqual(times["root"], (1, 10.0, 3.0))  # 10 - (3 + 4)
        self.assertEqual(times["a"], (1, 3.0, 2.0))
        self.assertEqual(times["b"], (1, 1.0, 1.0))
        self.assertEqual(times["c"], (1, 4.0, 4.0))
        # Self times partition the root's duration: nothing counted twice.
        self.assertEqual(sum(own for _, _, own in times.values()), 10.0)

    def test_same_name_accumulates_and_open_spans_are_skipped(self) -> None:
        spans = [
            Span("f", 0.0, 2.0, -1),
            Span("f", 3.0, 4.0, -1),
            Span("g", 5.0, 0.0, -1),  # never closed
        ]
        times = self_times(spans)
        self.assertEqual(times["f"], (2, 3.0, 3.0))
        self.assertNotIn("g", times)

    def test_window_filters_by_start(self) -> None:
        spans = [Span("f", 0.0, 1.0, -1), Span("f", 5.0, 7.0, -1)]
        self.assertEqual(self_times(spans, since=4.0)["f"], (1, 2.0, 2.0))


class _Inner:
    def leaf(self, x: int) -> int:
        return x + 1


class _Outer:
    def __init__(self) -> None:
        self.inner = _Inner()

    def on_call(self, x: int) -> int:
        return self.inner.leaf(x) * 2

    def on_other(self) -> None:
        raise ValueError("boom")

    def helper(self) -> None:
        pass


class WrapTest(unittest.TestCase):
    def setUp(self) -> None:
        self.log = SpanLog()
        self.log.install(
            (
                Boundary("gms", __name__, "_Outer", ("on_*",)),
                Boundary("fd", __name__, "_Inner", ("leaf", "absent")),
            )
        )
        self.addCleanup(self.log.uninstall)

    def test_records_parent_and_layer(self) -> None:
        self.assertEqual(_Outer().on_call(1), 4)
        (spans,) = self.log.threads()
        self.assertEqual([s.name for s in spans], ["_Outer.on_call", "_Inner.leaf"])
        self.assertEqual(spans[0].parent, -1)
        self.assertEqual(spans[1].parent, 0)
        self.assertLessEqual(spans[0].start, spans[1].start)
        self.assertLessEqual(spans[1].end, spans[0].end)
        summary = self.log.summary()
        self.assertEqual(summary["by_name"]["_Outer.on_call"]["count"], 1)
        self.assertAlmostEqual(
            summary["by_layer"]["gms"] + summary["by_layer"]["fd"],
            spans[0].end - spans[0].start,
        )

    def test_prefix_pattern_wraps_only_matching_methods(self) -> None:
        outer = _Outer()
        outer.helper()
        self.assertEqual(self.log.threads(), [])
        with self.assertRaises(ValueError):
            outer.on_other()
        (spans,) = self.log.threads()
        self.assertEqual(spans[0].name, "_Outer.on_other")
        self.assertGreaterEqual(spans[0].end, spans[0].start)  # closed on raise

    def test_uninstall_restores_the_class(self) -> None:
        self.log.uninstall()
        _Outer().on_call(1)
        self.assertEqual(self.log.threads(), [])

    def test_wrapped_functions_and_report(self) -> None:
        checked = self.log.wrap(lambda: _Outer().on_call(2), "check_cluster", "trace")
        self.assertEqual(checked(), 6)
        report = span_report(self.log)
        self.assertEqual(report["span_count"], 3)
        self.assertGreater(report["by_layer"]["trace"], 0.0)


class PairedDurationsTest(unittest.TestCase):
    def test_earliest_begin_to_next_end_per_pid(self) -> None:
        begins = [("p1", 1.0), ("p2", 2.0), ("p1", 3.0), ("p1", 11.0)]
        ends = [("p1", 5.0), ("p2", 9.0), ("p1", 12.0), ("p3", 13.0)]
        self.assertEqual(sorted(paired_durations(begins, ends)), [1.0, 4.0, 7.0])
