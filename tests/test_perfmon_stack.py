"""Tests for the perfmon three-layer sampling stack (section 4.1)."""

import random

import pytest

from repro.core.config import PEBSConfig, PerfmonConfig
from repro.hw.pebs import PEBSUnit
from repro.perfmon.collector import CollectorThread
from repro.perfmon.kernel import PerfmonKernelModule, PerfmonSession
from repro.perfmon.userlib import UserSampleLibrary
from repro.vm.scheduler import VirtualTimeScheduler


def make_stack(interval=10, kernel_capacity=2048):
    charged = []
    kernel = PerfmonKernelModule(
        PerfmonConfig(kernel_buffer_capacity=kernel_capacity))
    pebs = PEBSUnit(PEBSConfig(), charged.append,
                    lambda batch: kernel.session.on_interrupt(batch),
                    rng=random.Random(3))
    session = kernel.create_session(pebs, "L1D_MISS", interval)
    userlib = UserSampleLibrary(session, kernel.config, charged.append)
    return kernel, pebs, session, userlib, charged


class TestKernelModule:
    def test_single_session_enforced(self):
        kernel, pebs, session, _, _ = make_stack()
        with pytest.raises(RuntimeError):
            kernel.create_session(pebs, "L1D_MISS", 10)
        kernel.close_session()
        assert not pebs.enabled

    def test_interrupt_fills_kernel_buffer(self):
        _, pebs, session, _, _ = make_stack(interval=1)
        for i in range(95):  # watermark = 90 of 100
            pebs.on_event(eip=i)
        assert session.samples_received >= 90
        assert session.pending >= 90

    def test_read_drains_pending_hardware_samples(self):
        _, pebs, session, _, _ = make_stack(interval=1)
        for i in range(5):  # below the watermark
            pebs.on_event(eip=i)
        batch = session.read(100)
        assert len(batch) == 5
        assert pebs.pending == 0

    def test_read_respects_max(self):
        _, pebs, session, _, _ = make_stack(interval=1)
        for i in range(20):
            pebs.on_event(eip=i)
        first = session.read(8)
        assert len(first) == 8
        rest = session.read(100)
        assert len(rest) == 12
        # FIFO order preserved.
        assert first + rest == list(range(20))

    def test_kernel_buffer_overflow_counts_drops(self):
        _, pebs, session, _, _ = make_stack(interval=1, kernel_capacity=50)
        for i in range(500):
            pebs.on_event(eip=i)
        assert session.samples_dropped > 0
        assert session.pending <= 50

    def test_set_interval_forwards_to_hardware(self):
        _, pebs, session, _, _ = make_stack(interval=100)
        session.set_interval(7)
        assert pebs.interval == 7


class TestUserLibrary:
    def test_batched_copy_costs(self):
        _, pebs, session, userlib, charged = make_stack(interval=1)
        for i in range(10):
            pebs.on_event(eip=i)
        charged.clear()
        eips = userlib.read_samples()
        assert eips == list(range(10))
        cfg = userlib.config
        # One poll cost + per-sample copy + the DS drain copy.
        expected = cfg.poll_cost + cfg.user_copy_cost * 10 \
            + PEBSConfig().kernel_copy_cost * 10
        assert sum(charged) == expected

    def test_empty_poll_costs_only_round_trip(self):
        _, _, _, userlib, charged = make_stack()
        charged.clear()
        assert userlib.read_samples() == []
        assert sum(charged) == userlib.config.poll_cost

    def test_capacity_is_80kb_of_40b_samples(self):
        _, _, _, userlib, _ = make_stack()
        assert userlib.capacity == 80 * 1024 // 40

    def test_gc_guard_entered_during_copy(self):
        entered = []

        class Guard:
            def __enter__(self):
                entered.append("in")

            def __exit__(self, *exc):
                entered.append("out")

        _, pebs, session, _, _ = make_stack(interval=1)
        userlib = UserSampleLibrary(session, PerfmonConfig(),
                                    lambda c: None, gc_guard=Guard)
        pebs.on_event(eip=1)
        userlib.read_samples()
        assert entered == ["in", "out"]


class TestCollectorThread:
    def make_collector(self, interval=1):
        _, pebs, session, userlib, _ = make_stack(interval=interval)
        delivered = []
        scheduler = VirtualTimeScheduler()
        collector = CollectorThread(userlib, delivered.extend, scheduler,
                                    PerfmonConfig())
        return pebs, collector, scheduler, delivered

    def test_polling_delivers_samples(self):
        pebs, collector, scheduler, delivered = self.make_collector()
        collector.start()
        for i in range(30):
            pebs.on_event(eip=i)
        scheduler.run_due(collector.poll_interval + 1)
        assert delivered == list(range(30))

    def test_polling_reschedules_itself(self):
        pebs, collector, scheduler, delivered = self.make_collector()
        collector.start()
        now = collector.poll_interval + 1
        scheduler.run_due(now)
        assert scheduler.pending() == 1  # the next tick is queued
        for i in range(5):
            pebs.on_event(eip=i)
        scheduler.run_due(now + collector.poll_interval * 3)
        assert delivered == list(range(5))

    def test_adaptivity_backs_off_when_idle(self):
        _, collector, scheduler, _ = self.make_collector()
        collector.start()
        initial = collector.poll_interval
        scheduler.run_due(initial + 1)  # empty poll
        assert collector.poll_interval > initial

    def test_adaptivity_speeds_up_under_load(self):
        pebs, collector, scheduler, _ = self.make_collector()
        collector.start()
        initial = collector.poll_interval
        for i in range(collector.config.poll_batch_high + 10):
            pebs.on_event(eip=i)
        scheduler.run_due(initial + 1)
        assert collector.poll_interval < initial

    def test_poll_interval_clamped(self):
        pebs, collector, scheduler, _ = self.make_collector()
        cfg = collector.config
        collector.start()
        # Drive many empty polls: interval must not exceed the maximum.
        now = 0
        for _ in range(30):
            now += collector.poll_interval + 1
            scheduler.run_due(now)
        assert collector.poll_interval <= cfg.poll_max_cycles

    def test_stop_halts_polling(self):
        pebs, collector, scheduler, delivered = self.make_collector()
        collector.start()
        collector.stop()
        for i in range(5):
            pebs.on_event(eip=i)
        scheduler.run_due(10_000_000_000)
        assert delivered == []

    def test_drain_now_collects_stragglers(self):
        pebs, collector, scheduler, delivered = self.make_collector()
        for i in range(3):
            pebs.on_event(eip=i)
        assert collector.drain_now() == 3
        assert delivered == [0, 1, 2]

    def test_double_start_rejected(self):
        _, collector, _, _ = self.make_collector()
        collector.start()
        with pytest.raises(RuntimeError):
            collector.start()


class TestScheduler:
    def test_events_fire_in_time_order(self):
        sched = VirtualTimeScheduler()
        fired = []
        sched.at(20, lambda now: fired.append("b"))
        sched.at(10, lambda now: fired.append("a"))
        sched.run_due(30)
        assert fired == ["a", "b"]

    def test_future_events_stay_queued(self):
        sched = VirtualTimeScheduler()
        fired = []
        sched.at(100, lambda now: fired.append(1))
        sched.run_due(50)
        assert fired == []
        assert sched.next_time == 100

    def test_every_repeats_until_cancelled(self):
        # Repeating events reschedule relative to the observed clock (the
        # CPU polls the scheduler between instruction blocks), so the
        # clock must be advanced incrementally as the CPU does.
        sched = VirtualTimeScheduler()
        fired = []
        cancel = sched.every(0, 10, lambda now: fired.append(now))
        for now in range(0, 36, 5):
            sched.run_due(now)
        assert len(fired) == 3
        cancel()
        for now in range(36, 100, 5):
            sched.run_due(now)
        assert len(fired) == 3

    def test_after_rejects_negative_delay(self):
        sched = VirtualTimeScheduler()
        with pytest.raises(ValueError):
            sched.after(0, -1, lambda now: None)
        with pytest.raises(ValueError):
            sched.every(0, 0, lambda now: None)
