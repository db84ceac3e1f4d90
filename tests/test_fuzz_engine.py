"""Fuzzer machinery: signatures, corpus, mutation, shrinking, campaigns.

The slow tests (real clusters) run tiny budgets: one checked workload
run costs ~0.4s, so campaigns here stay under ten iterations.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.fuzz.corpus import Corpus, CorpusEntry, WorkloadSpec
from repro.fuzz.engine import FuzzConfig, FuzzEngine, quick_entry
from repro.fuzz.mutate import mutate, normalize_schedule
from repro.fuzz.shrink import shrink_schedule
from repro.fuzz.signature import (
    coverage_signature,
    signature_from_json,
    signature_to_json,
)
from repro.net.faults import (
    Crash,
    FaultSchedule,
    Heal,
    Partition,
    Recover,
)
from repro.trace.events import ModeChangeEvent, ViewInstallEvent
from repro.trace.recorder import TraceRecorder
from repro.types import ProcessId, ViewId

REPRODUCER = Path(__file__).resolve().parents[1] / "corpus" / "lost_settlement_min.json"

P0, P1, P2 = ProcessId(0), ProcessId(1), ProcessId(2)
V1, V2 = ViewId(1, P0), ViewId(2, P0)


# -- coverage signatures -----------------------------------------------------


def test_signature_captures_view_graph_and_modes():
    rec = TraceRecorder()
    rec.record(
        ViewInstallEvent(
            time=0, pid=P0, view_id=V1,
            members=frozenset({P0, P1, P2}), prev_view_id=None,
        )
    )
    rec.record(
        ViewInstallEvent(
            time=5, pid=P0, view_id=V2,
            members=frozenset({P0, P1}), prev_view_id=V1,
        )
    )
    rec.record(
        ModeChangeEvent(
            time=5, pid=P0, old_mode="N", new_mode="R",
            transition="Failure", view_id=V2,
        )
    )
    sig = coverage_signature(rec)
    assert ("vroot", 3) in sig
    assert ("vchg", 3, 2, "shrink") in sig
    assert ("mode", "N", "R", "Failure") in sig
    # Signatures survive the JSON trip feature-for-feature.
    assert signature_from_json(signature_to_json(sig)) == sig


def test_empty_trace_has_minimal_signature():
    sig = coverage_signature(TraceRecorder())
    assert sig == frozenset({("nviews", 0)})


# -- corpus ------------------------------------------------------------------


def _entry(**kwargs) -> CorpusEntry:
    schedule = FaultSchedule(
        [Crash(130.0, 2), Recover(180.0, 2), Partition(220.0, ((0, 1), (2, 3, 4))), Heal(300.0)]
    )
    defaults = dict(schedule=schedule, seed=42, planted_bug="lost_settlement")
    defaults.update(kwargs)
    return CorpusEntry(**defaults)


def test_corpus_entry_json_round_trip():
    entry = _entry(
        signature=frozenset({("vroot", 5), ("mode", "N", "R", "Failure")}),
        failing_checkers=("LostSettlement",),
        violations=("p2.0 stuck in S-mode",),
    )
    back = CorpusEntry.from_json(entry.to_json())
    assert back == entry
    assert back.entry_id == entry.entry_id


def test_entry_id_tracks_replay_fields_only():
    entry = _entry()
    # Verdicts are an outcome, not an identity: same id with them set.
    executed = _entry(failing_checkers=("LostSettlement",))
    assert entry.entry_id == executed.entry_id
    assert _entry(seed=43).entry_id != entry.entry_id
    # with_schedule resets the verdicts for the new candidate.
    candidate = executed.with_schedule(FaultSchedule([Heal(200.0)]))
    assert candidate.failing_checkers == ()


def test_corpus_directory_persists_and_reloads(tmp_path):
    corpus = Corpus(tmp_path)
    entry = _entry(signature=frozenset({("vroot", 5)}))
    fresh = corpus.add(entry)
    assert fresh == {("vroot", 5)}
    assert corpus.add(entry) == set()  # nothing novel the second time
    (tmp_path / "notes.json").write_text(json.dumps({"not": "an entry"}))
    reloaded = Corpus(tmp_path)
    assert set(reloaded.entries) == {entry.entry_id}
    assert reloaded.seen == {("vroot", 5)}
    assert reloaded.stats()["entries"] == 1


def test_workload_spec_rejects_unknown_client_kind():
    from repro.errors import ReproError

    with pytest.raises(ReproError):
        WorkloadSpec(clients=(("tcp", 10.0),))


def test_workload_spec_defaults_to_the_apps_own_client():
    assert WorkloadSpec().clients == (("mcast", 10.0), ("file", 15.0))
    assert WorkloadSpec(app="db").clients == (("mcast", 10.0), ("query", 15.0))
    assert WorkloadSpec(app="store").clients[-1] == ("store", 15.0)
    assert WorkloadSpec(app="lock").clients[-1] == ("lock", 15.0)
    assert WorkloadSpec(app="none").clients == (("mcast", 10.0),)
    assert WorkloadSpec(app="store", clients=()).clients == ()
    spec = WorkloadSpec(app="lock")
    assert WorkloadSpec.from_json_obj(spec.to_json_obj()) == spec


def test_rarity_weight_counts_and_reload(tmp_path):
    corpus = Corpus(tmp_path)
    common = frozenset({("vroot", 1)})
    corpus.add(_entry(seed=1, signature=common))
    corpus.add(_entry(seed=2, signature=common))
    rare = _entry(
        seed=3, signature=frozenset({("vroot", 1), ("mode", "N", "S", "Failure")})
    )
    corpus.add(rare)
    # ("vroot", 1) is in all three entries, the mode edge only in one.
    assert corpus.feature_counts == {
        ("vroot", 1): 3,
        ("mode", "N", "S", "Failure"): 1,
    }
    assert corpus.rarity_weight(rare) == pytest.approx(1 + 1 / 3 + 1)
    # Counts rebuild from disk: a resumed campaign weighs identically.
    reloaded = Corpus(tmp_path)
    assert reloaded.feature_counts == corpus.feature_counts


def test_parent_selection_prefers_rare_features():
    from collections import Counter

    corpus = Corpus()
    crowd_sig = frozenset({("vroot", 1)})
    crowd = [_entry(seed=100 + i, signature=crowd_sig) for i in range(10)]
    rare = _entry(
        seed=3,
        signature=frozenset(
            {("vroot", 1), ("mode", "N", "S", "Failure"), ("part", 2)}
        ),
    )
    for entry in [*crowd, rare]:
        corpus.add(entry)

    def picks(seed: int) -> Counter:
        engine = FuzzEngine(
            FuzzConfig(seed=seed, fresh_prob=0.0), corpus=corpus
        )
        counts: Counter = Counter()
        for _ in range(300):
            counts[engine.next_entry().parent] += 1
        return counts

    counts = picks(7)
    # Weights: rare = 1 + 1/11 + 1 + 1 ~ 3.09, each crowd entry
    # 1 + 1/11 ~ 1.09 -> rare expects ~22% of picks vs ~9% uniform.
    assert counts[rare.entry_id] > 45
    assert sum(counts.values()) == 300
    # Same seed, same corpus -> the exact same pick sequence.
    assert picks(7) == counts
    assert picks(8) != counts


# -- mutation ----------------------------------------------------------------


def test_mutants_stay_valid_schedules():
    import random

    rng = random.Random(0)
    schedule = normalize_schedule(
        FaultSchedule([Crash(130.0, 1), Recover(200.0, 1), Partition(260.0, ((0, 1, 2), (3, 4)))]),
        5,
    )
    other = FaultSchedule([Crash(140.0, 3), Recover(210.0, 3)])
    current = schedule
    for _ in range(60):
        current = mutate(current, rng, 5, other)
        current.validate()  # raises on parity/shape violations
    # Mutation explores: after 60 steps we are somewhere else.
    assert current != schedule


def test_normalize_repairs_orphan_faults():
    broken = FaultSchedule(
        [Recover(150.0, 2), Crash(200.0, 1), Partition(250.0, ((0, 1),))]
    )
    fixed = normalize_schedule(broken, 5)
    fixed.validate()
    kinds = [type(a).__name__ for a in fixed.actions]
    assert "Heal" in kinds  # partitions do not outlive the schedule
    assert kinds.count("Recover") == kinds.count("Crash")
    # The orphan recover of an up site is gone, groups cover all sites.
    partition = next(a for a in fixed.actions if isinstance(a, Partition))
    assert sorted(s for g in partition.groups for s in g) == [0, 1, 2, 3, 4]


# -- shrinking (synthetic oracle: no cluster involved) -----------------------


def test_shrink_schedule_reaches_the_minimal_core():
    # The "bug" is triggered by any Partition; everything else is noise.
    def oracle(candidate: FaultSchedule) -> set[str]:
        if any(isinstance(a, Partition) for a in candidate.actions):
            return {"SyntheticChecker"}
        return set()

    noisy = normalize_schedule(
        FaultSchedule(
            [
                Crash(130.0, 1),
                Recover(190.0, 1),
                Crash(210.0, 3),
                Partition(240.0, ((0, 1, 2), (3, 4))),
                Recover(280.0, 3),
                Crash(320.0, 0),
                Recover(390.0, 0),
                Heal(420.0),
            ]
        ),
        5,
    )
    result = shrink_schedule(
        noisy, oracle, repair=lambda s: normalize_schedule(s, 5)
    )
    kinds = sorted(type(a).__name__ for a in result.schedule.actions)
    assert kinds == ["Heal", "Partition"]  # Heal re-added by the repair
    assert result.target == frozenset({"SyntheticChecker"})
    assert oracle(result.schedule) == {"SyntheticChecker"}
    # Cosmetic pass pulled the partition to the earliest slot.
    assert min(a.time for a in result.schedule.actions) == 120.0


def test_shrink_gives_up_cleanly_when_nothing_fails():
    result = shrink_schedule(
        FaultSchedule([Heal(200.0)]), lambda s: set()
    )
    assert result.target == frozenset()
    assert result.schedule.actions == [Heal(200.0)]


# -- campaigns against real clusters -----------------------------------------


def test_clean_campaign_collects_coverage_not_failures():
    engine = FuzzEngine(
        FuzzConfig(iterations=4, seed=1, fault_duration=300.0)
    )
    stats = engine.run()
    assert stats.iterations == 4
    assert stats.failures == 0
    assert stats.features > 0
    assert engine.corpus.entries  # novel runs were admitted
    snapshot = engine.metrics.snapshot(source="fuzz")
    names = {s.name for s in snapshot.samples}
    assert "fuzz_runs_total" in names


@pytest.mark.parametrize("app", ["file", "db", "store", "lock", "none"])
def test_one_clean_iteration_per_app(app):
    """Every app's default workload drives that app (a client of
    another app's type would crash on its first tick)."""
    engine = FuzzEngine(
        FuzzConfig(app=app, iterations=1, seed=7, fault_duration=200.0)
    )
    stats = engine.run()
    assert stats.iterations == 1
    assert stats.failures == 0
    assert stats.features > 0


def test_planted_bug_is_found_shrunk_and_replayable(tmp_path):
    """The acceptance regression: a planted settlement bug is found
    within a bounded seed budget, ddmin gets the reproducer to <= 6
    fault events, and the shrunk entry replays deterministically."""
    corpus = Corpus(tmp_path)
    engine = FuzzEngine(
        FuzzConfig(
            iterations=6,
            seed=7,
            planted_bug="lost_settlement",
            fault_duration=300.0,
            shrink_budget=40,
        ),
        corpus=corpus,
    )
    stats = engine.run()
    assert stats.failures >= 1
    assert stats.first_failure is not None
    assert "LostSettlement" in stats.first_failure.failing_checkers
    assert stats.shrunk, "auto-shrink must produce a reproducer"
    shrunk = corpus.entries[stats.shrunk[0]]
    assert shrunk.kind == "shrunk"
    assert len(shrunk.schedule.actions) <= 6
    assert "LostSettlement" in shrunk.failing_checkers
    ok, replayed = engine.replay(shrunk)
    assert ok, f"shrunk entry did not reproduce: {replayed.failing_checkers}"
    # And it was persisted as plain JSON in the corpus directory.
    assert (tmp_path / f"{shrunk.entry_id}.json").exists()


def test_checked_in_reproducer_replays_on_sim():
    entry = CorpusEntry.load(REPRODUCER)
    assert entry.failing_checkers == ("LostSettlement",)
    engine = FuzzEngine(FuzzConfig(n_sites=entry.workload.n_sites))
    ok, executed = engine.replay(entry)
    assert ok, f"reproducer regressed: {executed.failing_checkers}"


def test_quick_entry_runs_clean_without_planted_bug():
    engine = FuzzEngine(FuzzConfig(seed=3))
    entry = quick_entry(
        [Partition(200.0, ((1, 2, 3, 4), (0,))), Heal(400.0)], seed=3
    )
    executed = engine.execute_entry(entry)
    # The exact schedule of the checked-in reproducer is clean once the
    # planted bug is disarmed: detectors do not fire on healthy runs.
    assert not executed.failed
    assert executed.signature
