"""The applied set as prefixes: one high-water seqno per (sender, view).

A group object skips a delivered operation that the state it adopted
already holds.  Delivery is FIFO per sender per view, so what it has
applied from one ``(sender, view)`` is a prefix, and
``GroupObject._applied_prefixes`` keeps only the prefix's highest seqno
(DESIGN.md 4.10).  The unit cases pin the skip rule, the merge rule,
the shared seqno space and the two envelopes that carry the prefixes
(settlement's offers and adopts, and the Isis blocking transfer).  The
differential run replays generated fault schedules with a shadow set of
every applied id beside each object, moved through offers, merges and
adopts the way the set this map replaced was, and requires the same
skip-or-apply decision at every apply.  The same runs hold every app to
the send rule: an operation whose ``submit_op`` was refused (None,
during a view change) is never applied anywhere.
"""

from __future__ import annotations

from typing import Any

import pytest

from repro.core.group_object import (
    GroupObject,
    _OpMsg,
    high_water_ids,
    prefixes_of,
)
from repro.core.mode_functions import AlwaysFullModeFunction
from repro.core.settlement import StateAdopt, StateOffer
from repro.isis.transfer_tool import BlockingTransferTool, _IsisState
from repro.ports import make_cluster
from repro.realnet.codec_bin import decode_value_bin, encode_value_bin
from repro.types import MessageId, ProcessId, ViewId
from repro.workload import run_checked_workload
from repro.workload.clients import FileClient, LockClient, QueryClient, StoreClient
from repro.workload.generator import RandomFaultGenerator

P0, P1, P2 = ProcessId(0), ProcessId(1), ProcessId(2)
V1, V2 = ViewId(1, P0), ViewId(2, P0)


class _Storage:
    def __init__(self) -> None:
        self.data: dict = {}

    def read(self, key: str, default: Any = None) -> Any:
        return self.data.get(key, default)

    def write(self, key: str, value: Any) -> None:
        self.data[key] = value


class _Stack:
    """What a group object reads of its stack outside a view change."""

    eview = None
    obs = None
    now = 0.0

    def __init__(self, pid: ProcessId) -> None:
        self.pid = pid
        self.storage = _Storage()
        self.app: Any = None


class Log(GroupObject):
    """Records every applied operation, in order."""

    def __init__(self, pid: ProcessId = P2) -> None:
        super().__init__(AlwaysFullModeFunction())
        self.stack = _Stack(pid)
        self.stack.app = self
        self.log: list = []

    def snapshot_state(self) -> Any:
        return tuple(self.log)

    def adopt_state(self, state: Any) -> None:
        self.log = list(state)

    def apply_op(self, sender: ProcessId, op: Any, msg_id: MessageId) -> None:
        self.log.append(op)

    def merge_app_states(self, offers) -> Any:
        return max((o.state for o in offers), key=len)

    def deliver(self, sender: ProcessId, view: ViewId, seqno: int, op: Any) -> None:
        self.on_message(sender, _OpMsg(op), MessageId(sender, view, seqno))


def _adopt(obj: GroupObject, state: Any, ids, version: int) -> None:
    obj.on_message(P0, StateAdopt((P0, 1), (state, frozenset(ids), version)), None)


def test_replay_after_an_adopt_skips_exactly_the_ops_at_or_below_the_high():
    obj = Log()
    for seqno in range(1, 6):
        obj.deliver(P1, V1, seqno, f"a{seqno}")  # buffered: not fresh
    obj.deliver(P0, V1, 1, "b1")
    assert obj.log == []
    _adopt(obj, ("a1", "a2", "a3"), [MessageId(P1, V1, 3)], version=3)
    assert obj.log == ["a1", "a2", "a3", "b1", "a4", "a5"]
    assert obj._applied_prefixes == {(P0, V1): 1, (P1, V1): 5}
    obj.deliver(P1, V1, 5, "again")  # at the high: already applied
    obj.deliver(P1, V1, 6, "a6")
    assert obj.log[-1] == "a6" and "again" not in obj.log
    assert obj.version == 3 + 4  # b1, a4, a5 and a6 on the adopted 3


def test_merge_takes_the_highest_seqno_per_sender_and_view():
    obj = Log()
    offers = [
        StateOffer((P0, 1), P0, (("x",), frozenset(ids), 4), 4, last_epoch=1)
        for ids in (
            [MessageId(P0, V1, 7), MessageId(P1, V1, 2)],
            [MessageId(P0, V1, 3), MessageId(P1, V1, 9), MessageId(P1, V2, 1)],
        )
    ]
    _state, ids, version = obj.merge_states(offers)
    assert prefixes_of(ids) == {(P0, V1): 7, (P1, V1): 9, (P1, V2): 1}
    assert ids == high_water_ids(prefixes_of(ids)) and version == 4


def test_an_op_after_a_non_op_multicast_is_applied_once():
    """Adopts and application payloads share the sender's seqno space,
    so a sender's ops in one view need not be numbered 1, 2, 3."""
    obj = Log()
    _adopt(obj, (), [], version=0)
    obj.deliver(P1, V1, 1, "a1")
    obj.on_message(P1, ("app payload",), MessageId(P1, V1, 2))
    obj.on_message(P1, ("app payload",), MessageId(P1, V1, 3))
    obj.deliver(P1, V1, 4, "a4")
    obj.deliver(P1, V1, 4, "a4 again")
    assert obj.log == ["a1", "a4"]
    assert obj._applied_prefixes == {(P1, V1): 4}
    # A replay skips the ops a snapshot holds across such a gap too.
    late = Log()
    late.deliver(P1, V1, 1, "a1")
    late.deliver(P1, V1, 4, "a4")
    late.deliver(P1, V1, 5, "a5")
    _adopt(late, ("a1", "a4"), [MessageId(P1, V1, 4)], version=2)
    assert late.log == ["a1", "a4", "a5"]


def test_offers_and_adopts_carry_one_high_water_id_per_sender_and_view():
    obj = Log()
    _adopt(obj, (), [], version=0)
    for seqno in range(1, 50):
        obj.deliver(P1, V1, seqno, seqno)
    obj.deliver(P0, V2, 1, "b")
    offer = obj.make_offer((P0, 1))
    assert offer.snapshot[1] == {MessageId(P1, V1, 49), MessageId(P0, V2, 1)}
    # bin1 carries the ids as any frozenset of identifiers.
    decoded = decode_value_bin(encode_value_bin(offer))
    assert decoded == offer
    other = Log(P0)
    _adopt(other, *decoded.snapshot)
    assert other._applied_prefixes == obj._applied_prefixes
    assert other.log == obj.log


def test_the_isis_envelope_round_trips():
    donor = Log(P0)
    _adopt(donor, (), [], version=0)
    donor.deliver(P1, V1, 1, "a1")
    donor.deliver(P1, V1, 2, "a2")
    envelope = BlockingTransferTool._snapshot_envelope(donor)
    assert envelope == (("a1", "a2"), frozenset({MessageId(P1, V1, 2)}), 2)
    joiner = Log(P2)
    joiner.deliver(P1, V1, 2, "a2")  # buffered while the transfer runs
    joiner.deliver(P1, V1, 3, "a3")
    tool = BlockingTransferTool.__new__(BlockingTransferTool)
    tool.stack = joiner.stack
    tool._install_state([None, _IsisState(envelope)])
    assert joiner.fresh and joiner.log == ["a1", "a2", "a3"]
    assert joiner._applied_prefixes == {(P1, V1): 3}
    assert BlockingTransferTool._snapshot_envelope(object()) is None


# -- differential: the prefix map against a shadow set --------------------


class _Shadow:
    """The applied-id set the prefix map replaced, kept beside every
    object and moved the way that set was: whole in offers, united by a
    merge, replaced by an adopt."""

    def __init__(self) -> None:
        self.applied: dict[GroupObject, set[MessageId]] = {}
        #: id(high-water ids) -> (those ids, the applied set they stand for)
        self.carried: dict[int, tuple[frozenset, frozenset]] = {}
        self.applies = 0
        self.skips = 0
        #: id(op) -> op, for every op whose submit was refused; kept
        #: alive so that no other object takes its id.
        self.refused: dict[int, Any] = {}
        #: The refused ops some replica applied anyway.
        self.leaked: dict[int, Any] = {}

    def carry(self, ids: frozenset, shadow: set[MessageId]) -> None:
        self.carried[id(ids)] = (ids, frozenset(shadow))

    def of(self, ids: frozenset) -> frozenset:
        kept, shadow = self.carried[id(ids)]
        assert kept is ids
        return shadow


@pytest.fixture
def shadow(monkeypatch):
    record = _Shadow()
    apply, on_adopt = GroupObject._apply, GroupObject._on_adopt
    envelope, merge = GroupObject.state_envelope, GroupObject.merge_states
    submit = GroupObject.submit_op

    def shadow_submit(self, op, trace=None):
        msg_id = submit(self, op, trace)
        if msg_id is None:
            record.refused[id(op)] = op
        return msg_id

    def shadow_apply(self, sender, op, msg_id):
        if record.refused.get(id(op)) is op:
            record.leaked[id(op)] = op
        applied = record.applied.setdefault(self, set())
        before = dict(self._applied_prefixes)
        done = self.ops_applied
        apply(self, sender, op, msg_id)
        skipped = self.ops_applied == done
        assert skipped == (msg_id in applied), (self.pid, msg_id, before)
        if skipped:
            record.skips += 1
        else:
            record.applies += 1
            applied.add(msg_id)

    def shadow_adopt(self, adopt):
        eview = self.stack.eview
        if adopt.view_id is None or eview is None or adopt.view_id == eview.view_id:
            record.applied[self] = set(record.of(adopt.state[1]))
        on_adopt(self, adopt)

    def shadow_envelope(self):
        result = envelope(self)
        record.carry(result[1], record.applied.get(self, set()))
        return result

    def shadow_merge(self, offers):
        result = merge(self, offers)
        union = set().union(*(record.of(o.snapshot[1]) for o in offers))
        record.carry(result[1], union)
        return result

    monkeypatch.setattr(GroupObject, "submit_op", shadow_submit)
    monkeypatch.setattr(GroupObject, "_apply", shadow_apply)
    monkeypatch.setattr(GroupObject, "_on_adopt", shadow_adopt)
    monkeypatch.setattr(GroupObject, "state_envelope", shadow_envelope)
    monkeypatch.setattr(GroupObject, "merge_states", shadow_merge)
    return record


#: app name -> the client that drives its operations.
CLIENTS = {
    "store": StoreClient,
    "db": QueryClient,
    "file": FileClient,
    "lock": LockClient,
}

SCHEDULES = 20

#: Schedules beyond the first twenty, per app: seed 29 is the file
#: schedule that reaches the skip path (see below).
EXTRA_SCHEDULES = {"file": (29,)}


@pytest.mark.parametrize("app", sorted(CLIENTS))
def test_prefix_map_decides_like_the_applied_set(app, shadow):
    client = CLIENTS[app]
    for seed in (*range(SCHEDULES), *EXTRA_SCHEDULES.get(app, ())):
        gen = RandomFaultGenerator(n_sites=5, seed=seed, duration=200)
        cluster = make_cluster("sim", 5, app=app, seed=seed)
        run = run_checked_workload(
            cluster,
            gen.generate(),
            [lambda c: client(c, interval=5.0)],
            tail=gen.settle_tail,
            checkers=("LockExclusion",),
        )
        assert not run.violations, (seed, run.violations[:3])
    assert shadow.applies > 0
    # A refused submit is a definite failure: no replica applies the op.
    assert not shadow.leaked, (len(shadow.leaked), len(shadow.refused))
    if app == "file":
        # Seed 29: p2.0 enters the five-member v4 still NORMAL (it never
        # installed the partition's views) and serves writes there.
        # p0.0, p3.0 and p4.0, unfresh, buffer them while their creation
        # session waits on p1.0, which crashed just before v4 installed.
        # The session is decided again in v5, without p1.0, from p2.0's
        # offer, which holds those writes: each replay after the adopt
        # skips all three.  The store and the db are always N-capable:
        # every member settles before any takes an op, and nothing
        # buffered is ever skipped.
        assert shadow.skips > 0, (shadow.applies, shadow.skips)

