"""Persistent-memory device: durability semantics and cost charging."""

from __future__ import annotations

import os
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw.pmem import FlushInstruction, PersistentMemoryDevice
from repro.simtime.clock import SimClock
from repro.simtime.profiles import EMLSGX_PM


def make_device(size: int = 1 << 16) -> PersistentMemoryDevice:
    return PersistentMemoryDevice(size, SimClock(), EMLSGX_PM.pm)


class TestBasics:
    def test_zero_initialized(self):
        dev = make_device()
        assert dev.read(0, 16) == b"\x00" * 16

    def test_write_then_read(self):
        dev = make_device()
        dev.write(100, b"plinius")
        assert dev.read(100, 7) == b"plinius"

    def test_bounds_checked(self):
        dev = make_device(1024)
        with pytest.raises(IndexError):
            dev.write(1020, b"12345")
        with pytest.raises(IndexError):
            dev.read(-1, 4)

    def test_invalid_size_rejected(self):
        with pytest.raises(ValueError):
            PersistentMemoryDevice(0, SimClock(), EMLSGX_PM.pm)

    def test_empty_write_is_noop(self):
        dev = make_device()
        dev.write(0, b"")
        assert dev.dirty_bytes == 0


class TestDurability:
    def test_unflushed_store_lost_on_crash(self):
        dev = make_device()
        dev.write(0, b"AAAA")
        dev.crash()
        assert dev.read(0, 4) == b"\x00" * 4

    def test_flushed_store_survives_crash(self):
        dev = make_device()
        dev.write(0, b"AAAA")
        dev.persist(0, 4)
        dev.crash()
        assert dev.read(0, 4) == b"AAAA"

    def test_flush_covers_whole_cache_lines(self):
        dev = make_device()
        dev.write(10, b"XY")  # within line 0
        dev.write(70, b"Z")  # within line 1
        dev.flush(0, 1)  # flushing byte 0 flushes all of line 0
        dev.crash()
        assert dev.read(10, 2) == b"XY"
        assert dev.read(70, 1) == b"\x00"

    def test_partial_flush_preserves_other_dirty_data(self):
        dev = make_device()
        dev.write(0, b"A" * 64)
        dev.write(128, b"B" * 64)
        dev.persist(0, 64)
        dev.crash()
        assert dev.read(0, 64) == b"A" * 64
        assert dev.read(128, 64) == b"\x00" * 64

    def test_overwrite_then_partial_flush(self):
        dev = make_device()
        dev.write(0, b"A" * 64)
        dev.persist(0, 64)
        dev.write(0, b"B" * 64)  # dirty again
        dev.crash()
        assert dev.read(0, 64) == b"A" * 64  # old durable value

    def test_flush_returns_dirty_line_count(self):
        dev = make_device()
        dev.write(0, b"A" * 128)
        assert dev.flush(0, 128) == 2
        assert dev.flush(0, 128) == 0  # now clean

    def test_crash_count(self):
        dev = make_device()
        dev.crash()
        dev.crash()
        assert dev.crash_count == 2

    def test_durable_read_sees_only_flushed(self):
        dev = make_device()
        dev.write(0, b"live")
        assert dev.read(0, 4) == b"live"
        assert dev.durable_read(0, 4) == b"\x00" * 4

    def test_dirty_bytes_accounting(self):
        dev = make_device()
        dev.write(0, b"A" * 100)
        assert dev.dirty_bytes == 100
        dev.flush(0, 100)
        assert dev.dirty_bytes == 0

    def test_snapshot_is_durable_image(self):
        dev = make_device(256)
        dev.write(0, b"keep")
        dev.persist(0, 4)
        dev.write(10, b"lose")
        snap = dev.snapshot()
        assert snap[:4] == b"keep"
        assert snap[10:14] == b"\x00" * 4


class TestCosts:
    def test_store_advances_clock(self):
        dev = make_device()
        before = dev.clock.now()
        dev.write(0, b"x" * 1024)
        assert dev.clock.now() > before

    def test_cold_read_costlier_than_hot(self):
        dev = make_device()
        dev.write(0, b"x" * 4096)
        t0 = dev.clock.now()
        dev.read(0, 4096)  # hot (just written)
        hot_cost = dev.clock.now() - t0
        dev.drop_caches()
        t0 = dev.clock.now()
        dev.read(0, 4096)  # cold
        cold_cost = dev.clock.now() - t0
        assert cold_cost > hot_cost

    def test_clflush_costlier_than_clflushopt(self):
        dev1, dev2 = make_device(), make_device()
        dev1.write(0, b"x" * 4096)
        dev2.write(0, b"x" * 4096)
        t0 = dev1.clock.now()
        dev1.flush(0, 4096, FlushInstruction.CLFLUSH)
        t_clflush = dev1.clock.now() - t0
        t0 = dev2.clock.now()
        dev2.flush(0, 4096, FlushInstruction.CLFLUSHOPT)
        t_clflushopt = dev2.clock.now() - t0
        assert t_clflush > t_clflushopt

    def test_fence_advances_clock(self):
        dev = make_device()
        t0 = dev.clock.now()
        dev.fence()
        assert dev.clock.now() - t0 == pytest.approx(dev.sfence_cost)

    def test_clflush_needs_no_fence(self):
        assert not FlushInstruction.CLFLUSH.needs_fence
        assert FlushInstruction.CLFLUSHOPT.needs_fence
        assert FlushInstruction.CLWB.needs_fence

    def test_persist_with_clflush_skips_fence(self):
        dev = make_device()
        dev.write(0, b"x")
        dev.persist(0, 1, FlushInstruction.CLFLUSH)
        assert dev.stats["fences"] == 0

    def test_stats_counters(self):
        dev = make_device()
        dev.write(0, b"x")
        dev.read(0, 1)
        dev.persist(0, 1)
        assert dev.stats["stores"] == 1
        assert dev.stats["loads"] == 1
        assert dev.stats["flushes"] >= 1
        assert dev.stats["fences"] == 1


class TestFaultHook:
    def test_hook_fires_on_mutations(self):
        dev = make_device()
        ops = []
        dev.fault_hook = ops.append
        dev.write(0, b"x")
        dev.flush(0, 1)
        dev.fence()
        assert ops == ["store", "flush", "fence"]

    def test_hook_can_abort_operation(self):
        dev = make_device()

        class Boom(Exception):
            pass

        def hook(op):
            raise Boom

        dev.fault_hook = hook
        with pytest.raises(Boom):
            dev.write(0, b"x")
        dev.fault_hook = None
        assert dev.read(0, 1) == b"\x00"  # store never happened


# ----------------------------------------------------------------------
# Property: for ANY interleaving of stores (plain, staged through
# volatile_view, copied within the device), flushes, image loads and
# crashes, every crash leaves the device equal to the reference model:
# exactly the bytes whose lines were flushed after they were stored.
# ----------------------------------------------------------------------
_SIZE = 1024
_addr = st.integers(0, _SIZE - 64)
_payload = st.binary(min_size=1, max_size=64)
_actions = st.lists(
    st.one_of(
        st.tuples(st.just("write"), _addr, _payload),
        st.tuples(st.just("flush"), _addr, st.integers(1, 128)),
        # volatile_view staging: 0 = never accounted, 1 = accounted by
        # write_prefilled, 2 = write_prefilled raises from fault_hook.
        st.tuples(st.just("stage"), _addr, _payload, st.integers(0, 2)),
        # Overlapping when |src - dst| < length, disjoint otherwise.
        st.tuples(st.just("copy"), _addr, _addr, st.integers(1, 64)),
        st.tuples(st.just("load"), st.binary(min_size=1, max_size=16)),
        st.tuples(st.just("crash")),
    ),
    max_size=30,
)


class _Boom(Exception):
    pass


def _raise_boom(op):
    raise _Boom(op)


@given(_actions)
@settings(max_examples=300, deadline=None)
def test_crash_semantics_match_reference_model(actions):
    dev = PersistentMemoryDevice(_SIZE, SimClock(), EMLSGX_PM.pm)
    durable = bytearray(_SIZE)  # reference model of the durable image
    live = bytearray(_SIZE)
    dirty = set()  # dirty byte addresses

    def crash_and_check():
        dev.crash()
        live[:] = durable
        dirty.clear()
        assert dev.read(0, _SIZE) == bytes(durable)
        assert dev.durable_read(0, _SIZE) == bytes(durable)

    for action in actions:
        kind = action[0]
        if kind == "write":
            _, addr, data = action
            dev.write(addr, data)
            live[addr : addr + len(data)] = data
            dirty.update(range(addr, addr + len(data)))
        elif kind == "flush":
            _, addr, length = action
            length = min(length, _SIZE - addr)
            dev.flush(addr, length)
            line_start = (addr // 64) * 64
            line_end = min(-(-(addr + length) // 64) * 64, _SIZE)
            for b in range(line_start, line_end):
                if b in dirty:
                    durable[b] = live[b]
                    dirty.discard(b)
        elif kind == "stage":
            _, addr, data, mode = action
            dev.volatile_view(addr, len(data))[:] = data
            live[addr : addr + len(data)] = data
            if mode == 1:
                dev.write_prefilled(addr, len(data))
                dirty.update(range(addr, addr + len(data)))
            elif mode == 2:
                dev.fault_hook = _raise_boom
                with pytest.raises(_Boom):
                    dev.write_prefilled(addr, len(data))
                dev.fault_hook = None
        elif kind == "copy":
            _, src, dst, length = action
            dev.copy_within(src, dst, length)
            live[dst : dst + length] = live[src : src + length]
            dirty.update(range(dst, dst + length))
        elif kind == "load":
            image = (action[1] * _SIZE)[:_SIZE]
            dev.load_image(image)
            durable[:] = image
            live[:] = image
            dirty.clear()
        else:
            crash_and_check()
    assert dev.read(0, _SIZE) == bytes(live)
    crash_and_check()


def _resident_bytes() -> int:
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


@pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="reads /proc/self/statm"
)
def test_images_are_zeroed_lazily():
    """A 1 GiB device costs resident memory only for the lines it writes
    (two eagerly zeroed images would make about 2 GiB resident); reading
    never-written lines makes nothing resident either."""
    before = _resident_bytes()
    dev = PersistentMemoryDevice(1 << 30, SimClock(), EMLSGX_PM.pm)
    for addr in (0, 1 << 20, (1 << 30) - 256):
        dev.write(addr, b"L" * 256)
        dev.persist(addr, 256)
    dev.write(1 << 29, b"lost")
    dev.crash()
    assert dev.read((1 << 30) - 256, 256) == b"L" * 256
    assert dev.read(1 << 29, 4) == b"\x00" * 4
    zero = bytes(1 << 20)
    untouched = dev.read_view(1 << 28, 64 << 20)
    assert all(untouched[i : i + len(zero)] == zero
               for i in range(0, len(untouched), len(zero)))
    untouched.release()
    assert _resident_bytes() - before < 32 << 20
