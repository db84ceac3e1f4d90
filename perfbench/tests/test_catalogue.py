import json
import re
import unittest

from perfbench import ROOT
from perfbench.catalogue import END_TO_END, PER_LAYER, WORKLOADS, benchmark_json
from perfbench.result import RunResult

_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
_UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


class BenchmarkJsonTest(unittest.TestCase):
    def test_file_is_the_catalogue(self) -> None:
        on_disk = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(on_disk, benchmark_json())

    def test_contract_limits(self) -> None:
        doc = benchmark_json()
        self.assertEqual(
            set(doc),
            {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
        )
        self.assertTrue(2 <= len(doc["workloads"]) <= 8)
        self.assertTrue(1 <= len(doc["end_to_end"]) <= 16)
        self.assertTrue(1 <= len(doc["per_layer"]) <= 128)
        self.assertTrue(1 <= doc["run_seconds"] <= 60)
        names = [w["name"] for w in doc["workloads"]]
        names += [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, _NAME)
        for workload in doc["workloads"]:
            self.assertLessEqual(len(workload["why"]), 200)
            self.assertNotIn("\n", workload["why"])
        for metric in doc["end_to_end"] + doc["per_layer"]:
            self.assertRegex(metric["unit"], _UNIT)
            self.assertIn(metric["better"], ("lower", "higher"))
        for metric in doc["end_to_end"]:
            self.assertTrue(0.0 < metric["bound"] <= 0.25)
        setup = [m for m in doc["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(
            [(m["unit"], m["better"]) for m in setup], [("s", "lower")]
        )
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in doc["end_to_end"]))
        # 4 + 22 runs per workload must fit the driver's time cap.
        runs = 4 + 22 * len(doc["workloads"])
        self.assertLess(runs * (doc["run_seconds"] + 8), 3420)
        self.assertLess(len(json.dumps(doc)), 64 * 1024)


class FinalLineTest(unittest.TestCase):
    def test_untraced_line_has_every_end_to_end_metric(self) -> None:
        result = RunResult("sim_steady", False, True, 10, 0)
        result.end_to_end = {m.name: 1.5 for m in END_TO_END}
        doc = json.loads(result.final_line())
        self.assertEqual(set(doc), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual(set(doc["metrics"]), {m.name for m in END_TO_END})
        self.assertEqual(doc["metrics"]["setup_s"], {"value": 1.5, "unit": "s"})

    def test_traced_line_has_every_layer_metric_and_rejects_unknown(self) -> None:
        result = RunResult("sim_steady", True, True, 10, 0)
        result.per_layer = {"sim.events": 12.0}
        metrics = json.loads(result.final_line())["metrics"]
        self.assertEqual(set(metrics), {m.name for m in PER_LAYER})
        self.assertEqual(metrics["sim.events"]["value"], 12.0)
        self.assertEqual(metrics["codec.encode_us"]["value"], 0.0)
        result.per_layer["made.up"] = 1.0
        with self.assertRaises(KeyError):
            result.final_line()

    def test_missing_end_to_end_metric_is_an_error(self) -> None:
        with self.assertRaises(KeyError):
            RunResult("sim_steady", False, True, 1, 0).final_line()

    def test_every_workload_has_a_reason(self) -> None:
        self.assertEqual(len(WORKLOADS), 6)
        self.assertTrue(all(WORKLOADS.values()))
