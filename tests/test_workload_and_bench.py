"""Tests for workload generators, canned scenarios, tables and the
checked-run tail."""

from __future__ import annotations

import pytest

from repro.apps.factories import app_factory
from repro.net.faults import Crash, Heal, Join, Partition, Recover
from repro.ports import make_cluster
from repro.trace.checks import check_cluster
from repro.workload import Table
from repro.workload.generator import RandomFaultGenerator
from repro.workload.openloop import LoadSpec
from repro.workload.runner import run_client_load
from repro.workload.scenarios import (
    cascade_scenario,
    clean_scenario,
    figure2_scenario,
    join_wave_scenario,
    partition_heal_scenario,
    total_failure_scenario,
)


# ---------------------------------------------------------------------------
# Scenarios
# ---------------------------------------------------------------------------


def test_clean_scenario_is_empty():
    assert clean_scenario().actions == []


def test_partition_heal_scenario_shape():
    schedule = partition_heal_scenario(6, split_at=100, heal_at=300, minority=2)
    kinds = [type(a).__name__ for a in schedule.actions]
    assert kinds == ["Partition", "Heal"]
    partition = schedule.actions[0]
    assert partition.groups == ((0, 1, 2, 3), (4, 5))


def test_cascade_scenario_validates():
    schedule = cascade_scenario(5, crashes=3)
    schedule.validate()
    assert sum(isinstance(a, Crash) for a in schedule.actions) == 3
    assert sum(isinstance(a, Recover) for a in schedule.actions) == 3


def test_total_failure_scenario_crashes_everyone_then_recovers():
    schedule = total_failure_scenario(4)
    schedule.validate()
    crashes = [a for a in schedule.actions if isinstance(a, Crash)]
    recovers = [a for a in schedule.actions if isinstance(a, Recover)]
    assert {a.site for a in crashes} == {0, 1, 2, 3}
    assert {a.site for a in recovers} == {0, 1, 2, 3}
    assert max(a.time for a in crashes) < min(a.time for a in recovers)


def test_join_wave_scenario_sites_are_new():
    schedule = join_wave_scenario(3, joiners=2)
    joins = [a for a in schedule.actions if isinstance(a, Join)]
    assert [a.site for a in joins] == [3, 4]


def test_figure2_scenario():
    schedule = figure2_scenario()
    assert isinstance(schedule.actions[0], Partition)
    assert isinstance(schedule.actions[1], Heal)


# ---------------------------------------------------------------------------
# Random generator
# ---------------------------------------------------------------------------


def test_generator_is_deterministic_per_seed():
    a = RandomFaultGenerator(n_sites=5, seed=42).generate()
    b = RandomFaultGenerator(n_sites=5, seed=42).generate()
    assert a.actions == b.actions


def test_generator_different_seeds_differ():
    a = RandomFaultGenerator(n_sites=5, seed=1).generate()
    b = RandomFaultGenerator(n_sites=5, seed=2).generate()
    assert a.actions != b.actions


@pytest.mark.parametrize("seed", range(8))
def test_generated_schedules_are_valid(seed):
    schedule = RandomFaultGenerator(n_sites=6, seed=seed).generate()
    schedule.validate()  # raises on up/down inconsistencies


def test_generator_ends_with_everyone_up_and_healed():
    for seed in range(5):
        schedule = RandomFaultGenerator(n_sites=4, seed=seed).generate()
        down: set[int] = set()
        partitioned = False
        for action in sorted(schedule.actions, key=lambda a: a.time):
            if isinstance(action, Crash):
                down.add(action.site)
            elif isinstance(action, Recover):
                down.discard(action.site)
            elif isinstance(action, Partition):
                partitioned = True
            elif isinstance(action, Heal):
                partitioned = False
        assert not down
        assert not partitioned


def test_generator_respects_max_down_fraction():
    gen = RandomFaultGenerator(n_sites=4, seed=0, max_down_fraction=0.5)
    schedule = gen.generate()
    down: set[int] = set()
    for action in sorted(schedule.actions, key=lambda a: a.time):
        if isinstance(action, Crash):
            down.add(action.site)
            assert len(down) <= 2
        elif isinstance(action, Recover):
            down.discard(action.site)


# ---------------------------------------------------------------------------
# Tables and the checked-run tail
# ---------------------------------------------------------------------------


def test_table_renders_aligned():
    table = Table("demo", ["name", "value"])
    table.add("alpha", 1)
    table.add("b", 123.456)
    text = table.render()
    assert "demo" in text
    assert "alpha" in text
    assert "123.46" in text


def test_table_rejects_bad_rows():
    table = Table("demo", ["a", "b"])
    with pytest.raises(ValueError):
        table.add(1)


def test_run_client_load_reports_through_the_shared_tail():
    """``run_client_load`` ends in the same settle-and-check tail as
    ``run_checked_workload``: its report carries the cluster's own trace,
    the settle verdict, and the property reports ``check_cluster`` gives
    followed by the fuzz checkers it names."""
    cluster = make_cluster("sim", 4, app_factory("store", 4), seed=5)
    schedule = partition_heal_scenario(4, split_at=120, heal_at=280, minority=1)
    spec = LoadSpec(rate=0.2, duration=300.0, clients=2, n_keys=8, seed=5)
    result = run_client_load(cluster, spec, schedule, slo_p99=200.0)
    report = result.workload
    assert report.trace is cluster.gather_trace()
    assert report.settled and cluster.is_settled()
    assert report.horizon == schedule.horizon + 250.0
    assert report.schedule_actions == len(schedule.actions)
    expected = [(r.name, r.checked) for r in check_cluster(cluster)]
    assert [(r.name, r.checked) for r in report.reports] == expected + [
        ("AckedWriteLoss", report.reports[-3].checked),
        ("CertifiedAck", report.reports[-2].checked),
        ("ReplicaDivergence", report.reports[-1].checked),
    ]
    assert report.reports[-1].checked > 0
    assert report.metrics is not None
    assert result.ok, report.violations[:5]


# ---------------------------------------------------------------------------
# Asymmetric generation and weight validation
# ---------------------------------------------------------------------------


def test_generator_rejects_unknown_weight_keys():
    with pytest.raises(ValueError, match="unknown fault weights"):
        RandomFaultGenerator(n_sites=4, weights={"crash": 1.0, "crsh": 2.0})


def test_asymmetric_flag_enables_oneway_cuts():
    from repro.net.faults import OneWayCut, OneWayHeal
    from repro.workload.generator import DEFAULT_ONEWAY_WEIGHT

    gen = RandomFaultGenerator(n_sites=5, seed=0, asymmetric=True)
    assert gen.weights["oneway"] == DEFAULT_ONEWAY_WEIGHT
    cuts = 0
    for seed in range(6):
        schedule = RandomFaultGenerator(
            n_sites=5, seed=seed, asymmetric=True
        ).generate()
        schedule.validate()
        cut_actions = [a for a in schedule.actions if isinstance(a, OneWayCut)]
        cuts += len(cut_actions)
        # Every cut is eventually repaired: matching OneWayHeal or a
        # trailing Heal (which clears one-way cuts too).
        if cut_actions:
            healed = {
                (a.src, a.dst)
                for a in schedule.actions
                if isinstance(a, OneWayHeal)
            }
            last_heal = max(
                (a.time for a in schedule.actions if isinstance(a, Heal)),
                default=None,
            )
            for cut in cut_actions:
                assert (cut.src, cut.dst) in healed or (
                    last_heal is not None and last_heal > cut.time
                )
    assert cuts > 0  # the flag actually changes the mix


def test_asymmetric_off_by_default_and_explicit_weight_wins():
    schedule = RandomFaultGenerator(n_sites=5, seed=0).generate()
    from repro.net.faults import OneWayCut

    assert not any(isinstance(a, OneWayCut) for a in schedule.actions)
    gen = RandomFaultGenerator(
        n_sites=5, seed=0, asymmetric=True, weights={"oneway": 2.5}
    )
    assert gen.weights["oneway"] == 2.5
