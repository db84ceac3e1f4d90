"""The identifier contract: what every layer may assume of ``ProcessId``,
``ViewId`` and ``MessageId``.

Identifiers key every delivery map, stamp, flush and tally, so their
hash decides dict and set iteration order and with it every seeded
trace.  The contract pinned here is independent of how the classes are
built: the hash is the hash of the tuple of the fields, order is
field-tuple order, the text forms are fixed, no two identifier kinds
built from related values are equal, and copying, persisting, sizing
and exporting an identifier keeps its class.
"""

from __future__ import annotations

import copy
import io
import itertools
import json
import pickle

import pytest

from repro.apps.versioned_store import _wire_size
from repro.sim.stable_storage import snapshot
from repro.trace.events import DeliveryEvent, ViewInstallEvent
from repro.trace.export import _decode, _encode, dump_trace, load_trace
from repro.trace.recorder import TraceRecorder
from repro.types import MessageId, ProcessId, SubviewId, SvSetId, ViewId

#: Field names of each identifier class, in declaration order.
FIELDS = {
    ProcessId: ("site", "incarnation"),
    ViewId: ("epoch", "coordinator"),
    MessageId: ("sender", "view", "seqno"),
}

_SMALL = (0, 1, 2, 127, 128, 300, 70_000)


def _pids() -> list[ProcessId]:
    return [ProcessId(s, i) for s in _SMALL for i in (0, 1, 5, 128)]


def _vids() -> list[ViewId]:
    return [ViewId(e, p) for e in (0, 1, 9, 200) for p in _pids()[::5]]


def _mids() -> list[MessageId]:
    return [
        MessageId(p, v, n)
        for p in _pids()[::9]
        for v in _vids()[::11]
        for n in (1, 2, 130)
    ]


GRID = _pids() + _vids() + _mids()


def _field_tuple(value) -> tuple:
    return tuple(getattr(value, name) for name in FIELDS[type(value)])


def _grid_ids(value) -> str:
    return type(value).__name__


# ---------------------------------------------------------------------------
# Hash and order
# ---------------------------------------------------------------------------


def test_hash_is_the_hash_of_the_field_tuple():
    for value in GRID:
        assert hash(value) == hash(_field_tuple(value)), value


def test_hash_values_are_pinned():
    # Integer tuples hash the same under every PYTHONHASHSEED, and
    # dict/set order in every seeded run follows from these values.
    assert hash(ProcessId(1, 0)) == hash((1, 0))
    assert hash(ViewId(3, ProcessId(1, 2))) == hash((3, (1, 2)))
    assert hash(MessageId(ProcessId(0), ViewId(1, ProcessId(0)), 7)) == hash(
        ((0, 0), (1, (0, 0)), 7)
    )


@pytest.mark.parametrize("cls", list(FIELDS), ids=lambda c: c.__name__)
def test_sorted_order_is_field_tuple_order(cls):
    values = [v for v in GRID if type(v) is cls]
    shuffled = values[::-1][1::2] + values[::-1][::2]
    assert sorted(shuffled) == sorted(shuffled, key=_field_tuple)
    assert min(shuffled) == min(shuffled, key=_field_tuple)
    for a, b in itertools.islice(itertools.product(values, repeat=2), 2000):
        assert (a < b) == (_field_tuple(a) < _field_tuple(b))
        assert (a == b) == (_field_tuple(a) == _field_tuple(b))


# ---------------------------------------------------------------------------
# Text forms
# ---------------------------------------------------------------------------


def test_str_and_repr_are_pinned():
    pid = ProcessId(1, 0)
    vid = ViewId(3, ProcessId(1, 2))
    mid = MessageId(pid, vid, 7)
    assert repr(pid) == "ProcessId(site=1, incarnation=0)"
    assert repr(vid) == (
        "ViewId(epoch=3, coordinator=ProcessId(site=1, incarnation=2))"
    )
    assert repr(mid) == (
        "MessageId(sender=ProcessId(site=1, incarnation=0), "
        "view=ViewId(epoch=3, coordinator=ProcessId(site=1, incarnation=2)), "
        "seqno=7)"
    )
    assert str(pid) == "p1.0" and f"{pid}" == "p1.0"
    assert str(vid) == "v3@p1.2"
    assert str(mid) == "m(p1.0,v3@p1.2,7)"
    assert ProcessId(4).incarnation == 0
    assert pid.next_incarnation() == ProcessId(1, 1)
    assert type(pid.next_incarnation()) is ProcessId


# ---------------------------------------------------------------------------
# Identifier kinds stay apart
# ---------------------------------------------------------------------------


def test_related_identifiers_of_different_kinds_never_compare_equal():
    for site, num in itertools.product((0, 1, 3), (0, 1, 3)):
        pid = ProcessId(site, num)
        vid = ViewId(num, pid)
        kinds = [
            pid,
            vid,
            MessageId(pid, vid, num),
            SubviewId(num, pid, num),
            SvSetId(num, pid, num),
            ViewId(site, ProcessId(num, site)),
        ]
        for a, b in itertools.combinations(kinds, 2):
            if type(a) is type(b):
                continue
            assert a != b and not a == b, (a, b)
            assert len({a, b}) == 2, (a, b)


# ---------------------------------------------------------------------------
# Copies, snapshots, size estimates and trace export keep the class
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("value", GRID[::7], ids=_grid_ids)
def test_pickle_and_deepcopy_keep_the_class(value):
    for copied in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
        assert copied == value and type(copied) is type(value)
        for name in FIELDS[type(value)]:
            assert type(getattr(copied, name)) is type(getattr(value, name))


@pytest.mark.parametrize("value", GRID[::7], ids=_grid_ids)
def test_a_snapshot_shares_the_identifier(value):
    assert snapshot(value) is value
    nested = (value, frozenset({value}), ("k", value))
    assert snapshot(nested) is nested


def _size_by_fields(value) -> int:
    """The store's wire-size estimate as defined: 16 per value plus its
    fields, and an int costs 16 plus a third of its bit length."""
    if type(value) is int:
        return 16 + value.bit_length() // 3
    return 16 + sum(_size_by_fields(getattr(value, n)) for n in FIELDS[type(value)])


def test_wire_size_estimate_is_unchanged():
    for value in GRID:
        assert _wire_size(value) == _size_by_fields(value), value
    assert _wire_size(ProcessId(1, 0)) == 48
    assert _wire_size(ProcessId(300, 128)) == 53
    assert _wire_size(ViewId(3, ProcessId(1, 2))) == 80
    assert _wire_size(MessageId(ProcessId(1), ViewId(3, ProcessId(1, 2)), 7)) == 161
    assert _wire_size((ProcessId(1, 0), "ab")) == 16 + 48 + 18


@pytest.mark.parametrize("value", GRID[::7], ids=_grid_ids)
def test_trace_export_value_roundtrip_keeps_the_class(value):
    back = _decode(json.loads(json.dumps(_encode(value))))
    assert back == value and type(back) is type(value)


def test_trace_export_event_roundtrip_keeps_the_class():
    pid = ProcessId(2, 1)
    vid = ViewId(4, ProcessId(0, 3))
    rec = TraceRecorder()
    rec.record(DeliveryEvent(1.5, pid, MessageId(pid, vid, 9), vid, 2))
    rec.record(ViewInstallEvent(2.0, pid, vid, frozenset({pid, vid.coordinator}), None))
    out = io.StringIO()
    dump_trace(rec, out)
    back = load_trace(out.getvalue().splitlines())
    assert back.events == rec.events
    delivery, install = back.events
    assert type(delivery.msg_id) is MessageId
    assert type(delivery.msg_id.sender) is ProcessId
    assert type(delivery.view_id) is ViewId
    assert {type(p) for p in install.members} == {ProcessId}
