"""The version-record contract: what the store may assume of
``Provenance`` and ``VersionEntry``.

Every apply builds both, and chain inserts, merges, the exactly-once
index and read-your-writes probes hash and compare provenances, so
their hash decides set and dict order in every merge.  The contract
pinned here is independent of how the classes are built: the hash is
the hash of the tuple of the fields, order is field-tuple order, the
text forms are fixed, no record equals an identifier built from
related values, and copying, persisting, sizing and the wire keep the
class.
"""

from __future__ import annotations

import copy
import itertools
import pickle

import pytest

from repro.apps.versioned_store import _wire_size
from repro.core.versioning import Provenance, VersionEntry
from repro.realnet.codec_bin import decode_value_bin, encode_value_bin
from repro.sim.stable_storage import SiteStorage, snapshot
from repro.types import MessageId, ProcessId, SubviewId, SvSetId, ViewId

#: Field names of each record class, in declaration order.
FIELDS = {
    Provenance: ("view_epoch", "writer", "seq"),
    VersionEntry: ("value", "prov", "client", "client_seq"),
}

_SMALL = (0, 1, 2, 127, 128, 300)


def _provs() -> list[Provenance]:
    return [
        Provenance(epoch, ProcessId(site, inc), seq)
        for epoch in (0, 1, 9)
        for site in _SMALL[:4]
        for inc in (0, 2)
        for seq in (1, 2, 130)
    ]


def _entries() -> list[VersionEntry]:
    return [
        VersionEntry(value, prov, client, client_seq)
        for value in ("", "v", "v2")
        for prov in _provs()[::17]
        for client, client_seq in (("", 0), ("c0", 3), ("c1", 3))
    ]


GRID = _provs() + _entries()


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
    # Set and dict order in every merge follows from these values; a
    # string-free record hashes the same under every PYTHONHASHSEED.
    prov = Provenance(3, ProcessId(1, 2), 7)
    assert hash(prov) == hash((3, (1, 2), 7))
    assert hash(VersionEntry(5, prov)) == hash((5, (3, (1, 2), 7), "", 0))


@pytest.mark.parametrize("cls", list(FIELDS), ids=lambda c: c.__name__)
def test_sorted_order_is_field_tuple_order(cls):
    values = [v for v in GRID if type(v) is cls]
    shuffled = values[::-1][1::2] + values[::-1][::2]
    assert sorted(shuffled) == sorted(shuffled, key=_field_tuple)
    for a, b in itertools.islice(itertools.product(values, repeat=2), 3000):
        assert (a < b) == (_field_tuple(a) < _field_tuple(b))
        assert (a == b) == (_field_tuple(a) == _field_tuple(b))


# ---------------------------------------------------------------------------
# Text forms and defaults
# ---------------------------------------------------------------------------


def test_str_repr_and_defaults_are_pinned():
    prov = Provenance(3, ProcessId(1, 2), 7)
    entry = VersionEntry("v", prov, "c0", 4)
    assert str(prov) == "w3/p1.2/7" and f"{prov}" == "w3/p1.2/7"
    assert repr(prov) == (
        "Provenance(view_epoch=3, writer=ProcessId(site=1, incarnation=2), seq=7)"
    )
    assert repr(entry) == (
        "VersionEntry(value='v', prov=Provenance(view_epoch=3, "
        "writer=ProcessId(site=1, incarnation=2), seq=7), "
        "client='c0', client_seq=4)"
    )
    assert str(entry) == repr(entry)
    bare = VersionEntry("v", prov)
    assert (bare.client, bare.client_seq) == ("", 0)


# ---------------------------------------------------------------------------
# Records and identifiers stay apart
# ---------------------------------------------------------------------------


def test_records_never_equal_identifiers_built_from_related_values():
    for epoch, site, seq in itertools.product((0, 1, 3), (0, 1, 3), (0, 1, 3)):
        pid = ProcessId(site, 0)
        vid = ViewId(epoch, pid)
        prov = Provenance(epoch, pid, seq)
        records = [prov, VersionEntry(seq, prov), VersionEntry(pid, prov, "", seq)]
        identifiers = [
            pid,
            vid,
            MessageId(pid, vid, seq),
            SubviewId(epoch, pid, seq),
            SvSetId(epoch, pid, seq),
            ViewId(epoch, ProcessId(site, seq)),
            ProcessId(epoch, seq),
        ]
        for a, b in itertools.product(records, identifiers):
            assert a != b and not a == b, (a, b)
            assert len({a, b}) == 2, (a, b)


# ---------------------------------------------------------------------------
# Copies, snapshots, size estimates and the wire keep the class
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("value", GRID[::11], ids=_grid_ids)
def test_pickle_and_deepcopy_keep_the_class(value):
    for copied in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
        assert copied == value and type(copied) is type(value)
        for name in FIELDS[type(value)]:
            assert type(getattr(copied, name)) is type(getattr(value, name))


@pytest.mark.parametrize("value", GRID[::11], ids=_grid_ids)
def test_a_snapshot_shares_an_immutable_record(value):
    assert snapshot(value) is value
    op_log_item = ("k", value)
    assert snapshot(op_log_item) is op_log_item
    storage = SiteStorage(0)
    storage.write("base", (op_log_item,))
    assert storage.read("base")[0][1] is value


def test_a_snapshot_copies_a_record_with_a_mutable_value():
    entry = VersionEntry(["v"], Provenance(1, ProcessId(1), 1), "c", 1)
    copied = snapshot(("k", entry))[1]
    assert copied == entry and type(copied) is VersionEntry
    assert copied.value is not entry.value
    assert copied.prov == entry.prov and type(copied.prov) is Provenance


def _size_by_fields(value) -> int:
    """The store's wire-size estimate as defined: 16 per value plus its
    fields; an int costs 16 plus a third of its bit length and a string
    16 plus its length."""
    if type(value) is int:
        return 16 + value.bit_length() // 3
    if type(value) is str:
        return 16 + len(value)
    if type(value) is ProcessId:
        return 16 + sum(_size_by_fields(v) for v in value)
    return 16 + sum(_size_by_fields(getattr(value, n)) for n in FIELDS[type(value)])


def test_wire_size_estimate_is_unchanged():
    for value in GRID:
        assert _wire_size(value) == _size_by_fields(value), value
    prov = Provenance(3, ProcessId(1, 2), 7)
    assert _wire_size(prov) == 97
    assert _wire_size(VersionEntry("v", prov, "c0", 4)) == 165


@pytest.mark.parametrize("value", GRID[::11], ids=_grid_ids)
def test_wire_roundtrip_keeps_the_class(value):
    back = decode_value_bin(encode_value_bin(value))
    assert back == value and type(back) is type(value)
    prov = back if type(back) is Provenance else back.prov
    assert type(prov) is Provenance and type(prov.writer) is ProcessId
