"""Tests for the command-line interface."""

from __future__ import annotations

import argparse

import pytest

from repro.cli import build_parser, main


def test_demo_command_runs_clean(capsys):
    assert main(["demo", "--sites", "3"]) == 0
    out = capsys.readouterr().out
    assert "group formed" in out
    assert "partitioned" in out
    assert "healed" in out
    assert "OK" in out


def test_run_command_with_file_app(capsys):
    assert main(["run", "--sites", "4", "--seed", "2", "--app", "file",
                 "--duration", "200"]) == 0
    out = capsys.readouterr().out
    assert "run summary" in out
    assert "settled" in out
    assert "VIOLATIONS" not in out


def test_run_command_with_loss(capsys):
    assert main(["run", "--sites", "3", "--seed", "1", "--loss", "0.02",
                 "--duration", "150"]) == 0


def test_check_command(capsys):
    assert main(["check", "--runs", "2", "--sites", "4",
                 "--duration", "150"]) == 0
    out = capsys.readouterr().out
    assert "2/2 seeds clean" in out


def test_check_counts_an_unsettled_seed_as_failing(monkeypatch, capsys):
    """A seed whose membership never converges fails the soak, and the
    summary counts seeds, not failing reports."""
    from repro.runtime.cluster import Cluster

    settled = Cluster.is_settled
    monkeypatch.setattr(
        Cluster, "is_settled", lambda self: self.config.seed != 1 and settled(self)
    )
    assert main(["check", "--runs", "2", "--sites", "3",
                 "--duration", "120"]) == 1
    out = capsys.readouterr().out
    assert "seed 0: ok" in out
    assert "seed 1: FAIL" in out
    assert "1/2 seeds clean" in out


def test_experiments_command_lists_all(capsys):
    assert main(["experiments"]) == 0
    out = capsys.readouterr().out
    for exp_id in ("E1", "E5", "E10", "A1-A3"):
        assert exp_id in out


def test_parser_rejects_unknown_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["no-such-command"])


def test_parser_rejects_unknown_app():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "--app", "nope"])


def test_export_and_recheck_round_trip(tmp_path, capsys):
    trace_file = tmp_path / "trace.jsonl"
    assert main(["run", "--sites", "3", "--seed", "4", "--duration", "150",
                 "--export", str(trace_file)]) == 0
    assert trace_file.exists()
    capsys.readouterr()
    assert main(["recheck", str(trace_file)]) == 0
    out = capsys.readouterr().out
    assert "loaded" in out
    assert "VIOLATIONS" not in out


def test_recheck_runs_the_store_checks(tmp_path, capsys):
    """An acked put that no live replica keeps fails ``recheck``, as it
    fails the ``run --client-rate`` that wrote the trace."""
    from repro.trace.events import AppEvent, CrashEvent
    from repro.trace.export import dump_trace
    from repro.trace.recorder import TraceRecorder
    from repro.types import ProcessId

    prov = (1, 0, 0, 1)
    rec = TraceRecorder()
    rec.record(AppEvent(time=1.0, pid=ProcessId(0), tag="store_apply",
                        data={"key": "k", "prov": prov}))
    rec.record(AppEvent(time=1.1, pid=ProcessId(0), tag="store_ack",
                        data={"key": "k", "prov": prov}))
    rec.record(CrashEvent(time=2.0, pid=ProcessId(0)))
    trace_file = tmp_path / "lost.jsonl"
    with open(trace_file, "w", encoding="utf-8") as handle:
        dump_trace(rec, handle)
    assert main(["recheck", str(trace_file)]) == 1
    out = capsys.readouterr().out
    assert "[AckedWriteLoss] checked=1 1 VIOLATIONS" in out
    assert "[ReplicaDivergence] checked=0 OK" in out


def test_recheck_timeline_option(tmp_path, capsys):
    trace_file = tmp_path / "trace.jsonl"
    assert main(["run", "--sites", "3", "--seed", "5", "--duration", "120",
                 "--export", str(trace_file)]) == 0
    capsys.readouterr()
    assert main(["recheck", str(trace_file), "--timeline"]) == 0
    out = capsys.readouterr().out
    assert "p0.0" in out  # the timeline lanes rendered


def test_run_runtime_sim_output_matches_default(capsys):
    assert main(["run", "--sites", "3", "--seed", "5", "--duration", "150"]) == 0
    default_out = capsys.readouterr().out
    assert main(["run", "--runtime", "sim", "--sites", "3", "--seed", "5",
                 "--duration", "150"]) == 0
    explicit_out = capsys.readouterr().out
    assert explicit_out == default_out  # --runtime sim is the exact default
    assert "virtual time" in default_out


def test_check_accepts_runtime_flag(capsys):
    assert main(["check", "--runtime", "sim", "--runs", "1", "--sites", "3",
                 "--duration", "150"]) == 0
    assert "1/1 seeds clean" in capsys.readouterr().out


def test_parser_rejects_unknown_runtime():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "--runtime", "telepathy"])


def test_run_metrics_export(tmp_path, capsys):
    from tests.prom_parser import parse, validate

    prom = tmp_path / "out.prom"
    jsonl = tmp_path / "out.jsonl"
    assert main(["run", "--sites", "3", "--seed", "6", "--duration", "150",
                 "--metrics", str(prom), "--metrics-jsonl", str(jsonl)]) == 0
    out = capsys.readouterr().out
    assert "exported metrics (Prometheus text)" in out
    assert "exported metrics (JSONL)" in out
    exposition = parse(prom.read_text())
    validate(exposition)
    assert "view_changes_total" in exposition.names()
    assert jsonl.read_text().count("\n") > 1


def test_obs_report_command(tmp_path, capsys):
    from tests.prom_parser import parse, validate

    prom = tmp_path / "fig2.prom"
    assert main(["obs", "report", "--runtime", "sim",
                 "--metrics", str(prom)]) == 0
    out = capsys.readouterr().out
    assert "observability report" in out
    assert "trace vs live metrics" in out
    assert "multicast_delivery_latency" in out
    exposition = parse(prom.read_text())
    validate(exposition)
    assert exposition.helps  # registry help texts travel into the export


def test_obs_requires_subcommand():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["obs"])


def test_obs_watch_parses_targets():
    args = build_parser().parse_args(
        ["obs", "watch", "127.0.0.1:7400", ":7401", "--count", "1"]
    )
    assert args.func.__name__ == "cmd_obs_watch"
    assert args.targets == ["127.0.0.1:7400", ":7401"]


def test_fuzz_run_command_clean_campaign(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    assert main(["fuzz", "run", "--iterations", "3", "--seed", "1",
                 "--corpus", str(corpus)]) == 0
    out = capsys.readouterr().out
    assert "fuzz campaign" in out
    assert "failing runs" in out
    assert list(corpus.glob("*.json"))  # novel entries persisted


def test_fuzz_corpus_and_replay_roundtrip(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    assert main(["fuzz", "run", "--iterations", "2", "--seed", "5",
                 "--corpus", str(corpus)]) == 0
    capsys.readouterr()
    assert main(["fuzz", "corpus", str(corpus)]) == 0
    out = capsys.readouterr().out
    assert "entries" in out
    entry = sorted(corpus.glob("*.json"))[0]
    assert main(["fuzz", "replay", str(entry)]) == 0
    out = capsys.readouterr().out
    assert "reproduce" in out


def test_fuzz_replay_checked_in_reproducer(capsys):
    from pathlib import Path

    reproducer = (
        Path(__file__).resolve().parents[1]
        / "corpus" / "lost_settlement_min.json"
    )
    assert main(["fuzz", "replay", str(reproducer)]) == 0
    out = capsys.readouterr().out
    assert "LostSettlement" in out


def test_fuzz_requires_subcommand():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["fuzz"])


SHARED_FLAGS = (
    "--runtime", "--sites", "--seed", "--scale", "--tracing",
    "--app", "--loss", "--asymmetric", "--host", "--base-port", "--book",
    "targets", "--metrics", "--metrics-jsonl",
)


def _actions(parser):
    """Every argument action of ``parser`` and of its subcommands."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for subparser in action.choices.values():
                yield from _actions(subparser)
        else:
            yield action


def test_shared_flags_have_one_help_and_one_type_everywhere():
    seen: dict[str, set] = {}
    for action in _actions(build_parser()):
        name = action.option_strings[-1] if action.option_strings else action.dest
        if name in SHARED_FLAGS:
            seen.setdefault(name, set()).add((action.help, action.type))
    assert set(seen) == set(SHARED_FLAGS)
    mixed = sorted(name for name, variants in seen.items() if len(variants) > 1)
    assert mixed == []


def test_no_command_takes_a_codec_flag():
    # bin1 is the only wire format: there is nothing to choose.
    flags = {flag for action in _actions(build_parser()) for flag in action.option_strings}
    assert not [flag for flag in flags if "codec" in flag]


def test_obs_report_exports_jsonl_under_the_shared_flag():
    args = build_parser().parse_args(["obs", "report", "--metrics-jsonl", "m.jsonl"])
    assert args.metrics_jsonl == "m.jsonl"


def test_demo_excludes_realnet_proc():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["demo", "--runtime", "realnet-proc"])


@pytest.mark.parametrize(
    "argv, entry",
    [
        (["load", "7400x"], "7400x"),
        (["load", "--book", "0:localhost"], "0:localhost"),
        (["obs", "watch", "host:notaport"], "host:notaport"),
        (["realnet", "node", "--site", "0", "--supervised", "--config", "{}",
          "--book", "0:h:7400,x:h:7401"], "x:h:7401"),
    ],
)
def test_malformed_address_is_a_usage_error(argv, entry, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert repr(entry) in capsys.readouterr().err
