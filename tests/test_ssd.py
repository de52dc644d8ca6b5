"""SSD block device: file semantics, fsync durability, cost charging."""

from __future__ import annotations

import pytest

from repro.hw.ssd import BlockDevice
from repro.simtime.clock import SimClock
from repro.simtime.profiles import EMLSGX_PM


def make_ssd() -> BlockDevice:
    return BlockDevice(SimClock(), EMLSGX_PM.ssd)


class TestFiles:
    def test_missing_file(self):
        ssd = make_ssd()
        assert not ssd.exists("nope")
        assert ssd.file_size("nope") == 0

    def test_write_read_roundtrip(self):
        ssd = make_ssd()
        ssd.write("f", 0, b"hello")
        assert ssd.read("f", 0, 5) == b"hello"
        assert ssd.file_size("f") == 5

    def test_write_extends_file_with_zeros(self):
        ssd = make_ssd()
        ssd.write("f", 10, b"xy")
        assert ssd.file_size("f") == 12
        assert ssd.read("f", 0, 10) == b"\x00" * 10

    def test_append(self):
        ssd = make_ssd()
        ssd.append("f", b"ab")
        ssd.append("f", b"cd")
        assert ssd.read_all("f") == b"abcd"

    def test_overwrite_in_place(self):
        ssd = make_ssd()
        ssd.write("f", 0, b"abcdef")
        ssd.write("f", 2, b"XY")
        assert ssd.read_all("f") == b"abXYef"

    def test_read_beyond_eof_raises(self):
        ssd = make_ssd()
        ssd.write("f", 0, b"abc")
        with pytest.raises(IndexError):
            ssd.read("f", 0, 4)

    def test_negative_offset_rejected(self):
        ssd = make_ssd()
        with pytest.raises(ValueError):
            ssd.write("f", -1, b"x")

    def test_delete(self):
        ssd = make_ssd()
        ssd.write("f", 0, b"x")
        ssd.delete("f")
        assert not ssd.exists("f")

    def test_files_are_independent(self):
        ssd = make_ssd()
        ssd.write("a", 0, b"aaa")
        ssd.write("b", 0, b"bbb")
        assert ssd.read_all("a") == b"aaa"
        assert ssd.read_all("b") == b"bbb"


class TestDurability:
    def test_unsynced_write_lost_on_crash(self):
        ssd = make_ssd()
        ssd.write("f", 0, b"data")
        ssd.crash()
        assert ssd.file_size("f") == 0

    def test_synced_write_survives_crash(self):
        ssd = make_ssd()
        ssd.write("f", 0, b"data")
        ssd.fsync("f")
        ssd.crash()
        assert ssd.read_all("f") == b"data"

    def test_partial_sync(self):
        ssd = make_ssd()
        ssd.write("f", 0, b"AAAA")
        ssd.fsync("f")
        ssd.write("f", 4, b"BBBB")  # unsynced tail
        ssd.crash()
        assert ssd.read_all("f") == b"AAAA"

    def test_crash_restores_overwritten_synced_bytes(self):
        ssd = make_ssd()
        ssd.write("f", 0, b"AAAAAAAA")
        ssd.fsync("f")
        ssd.write("f", 2, b"XY")  # unsynced overwrite inside the file
        ssd.write("f", 6, b"BBBBBB")  # straddles the durable end
        ssd.write("g", 0, b"gone")  # never synced at all
        ssd.crash()
        assert ssd.read_all("f") == b"AAAAAAAA"
        assert ssd.file_size("g") == 0
        ssd.write("f", 8, b"CC")  # the file grows again from its end
        ssd.fsync("f")
        ssd.crash()
        assert ssd.read_all("f") == b"AAAAAAAACC"

    def test_fsync_returns_pending_bytes(self):
        ssd = make_ssd()
        ssd.write("f", 0, b"x" * 100)
        assert ssd.fsync("f") == 100
        assert ssd.fsync("f") == 0


class TestCosts:
    def test_buffered_write_cheap_fsync_expensive(self):
        ssd = make_ssd()
        t0 = ssd.clock.now()
        ssd.write("f", 0, b"x" * (1 << 20))
        write_cost = ssd.clock.now() - t0
        t0 = ssd.clock.now()
        ssd.fsync("f")
        fsync_cost = ssd.clock.now() - t0
        assert fsync_cost > 10 * write_cost

    def test_read_charges_device_bandwidth(self):
        ssd = make_ssd()
        ssd.write("f", 0, b"x" * (1 << 20))
        t0 = ssd.clock.now()
        ssd.read_all("f")
        cost = ssd.clock.now() - t0
        expected = EMLSGX_PM.ssd.read_time(1 << 20)
        assert cost == pytest.approx(expected)

    def test_stats(self):
        ssd = make_ssd()
        ssd.write("f", 0, b"x")
        ssd.fsync("f")
        ssd.read("f", 0, 1)
        assert ssd.stats == {"writes": 1, "reads": 1, "fsyncs": 1}
