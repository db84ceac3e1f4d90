"""Direct tests of the per-view channel machinery."""

from __future__ import annotations

import pytest

from repro.errors import ViewSynchronyError
from repro.types import Message, MessageId, ViewId

from tests.conftest import assert_all_properties, settled_cluster


def _mk_message(stack, seqno: int, payload="x", eview_seq=0, view_id=None):
    vid = view_id or stack.current_view_id()
    return Message(MessageId(stack.pid, vid, seqno), payload, eview_seq)


def test_future_view_messages_buffer_until_install():
    cluster = settled_cluster(2)
    receiver = cluster.stack_at(0)
    sender = cluster.stack_at(1)
    future_vid = ViewId(receiver.view.epoch + 1, receiver.pid)
    early = Message(MessageId(sender.pid, future_vid, 1), "early")
    receiver.channels.on_app_message(early)
    assert early.msg_id not in receiver.channels.received
    assert future_vid in receiver.channels._future


def test_stale_view_messages_dropped():
    cluster = settled_cluster(2)
    receiver = cluster.stack_at(0)
    sender = cluster.stack_at(1)
    old_vid = ViewId(0, sender.pid)
    stale = Message(MessageId(sender.pid, old_vid, 1), "stale")
    receiver.channels.on_app_message(stale)
    assert stale.msg_id not in receiver.channels.received
    assert not receiver.channels._future


def test_fifo_gap_blocks_delivery_until_filled():
    cluster = settled_cluster(2)
    receiver = cluster.stack_at(0)
    sender = cluster.stack_at(1)
    got = []
    receiver.app.on_message = lambda s, p, m: got.append(p)
    m2 = _mk_message(sender, 2, "second")
    m1 = _mk_message(sender, 1, "first")
    receiver.channels.on_app_message(m2)
    assert got == []  # gap: waiting for seqno 1
    receiver.channels.on_app_message(m1)
    assert got == ["first", "second"]


def test_eview_gate_blocks_until_change_applied():
    cluster = settled_cluster(3)
    receiver = cluster.stack_at(1)
    sender = cluster.stack_at(2)
    got = []
    receiver.app.on_message = lambda s, p, m: got.append(p)
    gated = _mk_message(sender, 1, "gated", eview_seq=5)
    receiver.channels.on_app_message(gated)
    assert got == []  # receiver has applied no e-view changes
    assert gated.msg_id in receiver.channels.received  # held, not lost


def test_suspend_drops_outgoing_multicasts():
    cluster = settled_cluster(2)
    stack = cluster.stack_at(0)
    got = {site: [] for site in range(2)}
    for site in range(2):
        cluster.stack_at(site).app.on_message = (
            lambda s, p, m, site=site: got[site].append(p)
        )
    stack.channels.suspend()
    assert stack.multicast("refused") is None
    stack.channels.suspended = False
    assert stack.multicast("sent") is not None
    cluster.run_for(10)
    assert got == {0: ["sent"], 1: ["sent"]}
    assert_all_properties(cluster.recorder)


def test_deliver_plan_rejects_cross_view_messages():
    cluster = settled_cluster(2)
    stack = cluster.stack_at(0)
    alien_vid = ViewId(stack.view.epoch + 7, stack.pid)
    alien = Message(MessageId(stack.pid, alien_vid, 1), "alien")
    with pytest.raises(ViewSynchronyError):
        stack.channels.deliver_plan((alien,))


def test_deliver_plan_skips_already_delivered():
    cluster = settled_cluster(2)
    stack = cluster.stack_at(0)
    got = []
    stack.app.on_message = lambda s, p, m: got.append(p)
    msg = _mk_message(stack, 1, "once")
    stack.channels.on_app_message(msg)
    assert got == ["once"]
    stack.channels.deliver_plan((msg,))
    assert got == ["once"]  # no duplicate


def test_multicast_before_any_view_raises():
    from repro.vsync.channel import ViewChannels

    class FakeStack:
        pass

    channels = ViewChannels(FakeStack())  # type: ignore[arg-type]
    with pytest.raises(ViewSynchronyError):
        channels.multicast("too-early")


def test_duplicate_receive_is_ignored():
    cluster = settled_cluster(2)
    stack = cluster.stack_at(0)
    got = []
    stack.app.on_message = lambda s, p, m: got.append(p)
    msg = _mk_message(cluster.stack_at(1), 1, "dup")
    stack.channels.on_app_message(msg)
    stack.channels.on_app_message(msg)
    assert got == ["dup"]


def test_install_clears_future_of_superseded_views():
    cluster = settled_cluster(3)
    receiver = cluster.stack_at(0)
    sender = cluster.stack_at(1)
    lower = ViewId(receiver.view.epoch + 1, sender.pid)
    higher = ViewId(receiver.view.epoch + 9, sender.pid)
    receiver.channels.on_app_message(Message(MessageId(sender.pid, lower, 1), "a"))
    receiver.channels.on_app_message(Message(MessageId(sender.pid, higher, 1), "b"))
    assert len(receiver.channels._future) == 2
    # Force a view change (crash someone): installs an epoch above `lower`.
    cluster.crash(2)
    assert cluster.settle(timeout=500)
    assert lower not in receiver.channels._future  # superseded: dropped
