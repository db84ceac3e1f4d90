"""Hypothesis stateful testing of the whole stack.

A rule-based state machine drives a live cluster through arbitrary
interleavings of crashes, recoveries, partitions, repairs, multicasts
and time — and after every command asserts the paper's safety
properties on the trace so far.  Shrinking then minimises any failing
command sequence automatically.
"""

from __future__ import annotations

from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)
from hypothesis import strategies as st

from repro.runtime.cluster import Cluster, ClusterConfig
from repro.trace.checks import run_check

N_SITES = 3


class StackMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.cluster: Cluster | None = None
        self.commands = 0

    @initialize(seed=st.integers(min_value=0, max_value=2**16))
    def build(self, seed: int) -> None:
        self.cluster = Cluster(N_SITES, config=ClusterConfig(seed=seed))
        self.cluster.run_for(30)

    # -- commands ------------------------------------------------------------

    @rule(site=st.integers(0, N_SITES - 1))
    def crash(self, site: int) -> None:
        self.cluster.crash(site)
        self.commands += 1

    @rule(site=st.integers(0, N_SITES - 1))
    def recover(self, site: int) -> None:
        stack = self.cluster.stacks.get(site)
        if stack is not None and not stack.alive:
            self.cluster.recover(site)
        self.commands += 1

    @rule(cut=st.integers(1, N_SITES - 1))
    def partition(self, cut: int) -> None:
        left = tuple(range(cut))
        right = tuple(range(cut, N_SITES))
        self.cluster.partition([left, right])
        self.commands += 1

    @rule()
    def heal(self) -> None:
        self.cluster.heal()
        self.commands += 1

    @rule(site=st.integers(0, N_SITES - 1), payload=st.integers(0, 99))
    def multicast(self, site: int, payload: int) -> None:
        stack = self.cluster.stacks.get(site)
        if stack is not None and stack.alive and not stack.is_flushing:
            stack.multicast(("sm", payload))
        self.commands += 1

    @rule(site=st.integers(0, N_SITES - 1))
    def merge_svsets(self, site: int) -> None:
        stack = self.cluster.stacks.get(site)
        if stack is not None and stack.alive and stack.eview is not None:
            ssids = [ss.ssid for ss in stack.eview.structure.svsets]
            if len(ssids) >= 2:
                stack.sv_set_merge(ssids[:2])
        self.commands += 1

    @rule(duration=st.floats(min_value=1.0, max_value=60.0))
    def advance(self, duration: float) -> None:
        self.cluster.run_for(duration)
        self.commands += 1

    # -- safety, continuously ---------------------------------------------------

    @invariant()
    def safety_properties_hold(self) -> None:
        if self.cluster is None:
            return
        rec = self.cluster.recorder
        for report in (
            run_check("Uniqueness(2.2)", rec),
            run_check("Integrity(2.3)", rec),
            run_check("TotalOrder(6.1)", rec),
            run_check("Structure(6.3)", rec),
        ):
            assert report.ok, f"{report.name}: {report.violations[:3]}"

    def teardown(self) -> None:
        # End-of-sequence liveness probe: once faults stop and the
        # network heals, the group must converge again.
        if self.cluster is not None and self.commands:
            self.cluster.heal()
            for site in range(N_SITES):
                stack = self.cluster.stacks.get(site)
                if stack is not None and not stack.alive:
                    self.cluster.recover(site)
            assert self.cluster.settle(timeout=900), self.cluster.views()


StackMachine.TestCase.settings = settings(
    max_examples=12, stateful_step_count=12, deadline=None
)
TestStackMachine = StackMachine.TestCase
