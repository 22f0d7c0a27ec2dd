"""Tests for Record construction and sizing."""

from repro.lsm import ENTRY_OVERHEAD_BYTES, Record


class TestConstruction:
    def test_put(self):
        record = Record.put("k", seqno=3, value_size=100)
        assert not record.tombstone
        assert record.value_size == 100

    def test_put_with_payload(self):
        record = Record.put("k", seqno=1, value=b"hello")
        assert record.value_size == 5
        assert record.value == b"hello"

    def test_value_size_follows_payload(self):
        record = Record(key="k", seqno=1, value_size=999, value=b"xy")
        assert record.value_size == 2

    def test_delete(self):
        record = Record.delete("k", seqno=9)
        assert record.tombstone
        assert record.value_size == 0


class TestSizing:
    def test_int_key_size(self):
        record = Record.put(5, seqno=1, value_size=100)
        assert record.size_bytes == ENTRY_OVERHEAD_BYTES + 100

    def test_string_key_size(self):
        record = Record.put("user42", seqno=1, value_size=100)
        assert record.size_bytes == ENTRY_OVERHEAD_BYTES + 6 + 100

    def test_tombstone_size(self):
        assert Record.delete(1, seqno=1).size_bytes == ENTRY_OVERHEAD_BYTES

