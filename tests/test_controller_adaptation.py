"""Edge-case tests for the controller's adaptive sampling interval and
the monitoring duty cycle (paper section 6.3)."""

from repro.core.config import MonitorConfig, PerfmonConfig
from repro.core.controller import (
    AUTO_MAX_INTERVAL,
    AUTO_MIN_INTERVAL,
    AUTO_TARGET_PER_PERIOD,
    OnlineOptimizationController,
)
from repro.jit.codecache import CodeCache
from repro.jit.opt import compile_opt
from repro.observers import Observers
from repro.telemetry import Telemetry
from repro.vm.program import Program
from repro.workloads.synth import Fn


def chase_program():
    p = Program("t")
    app = p.define_class("App")
    app.seal()
    a = p.define_class("A")
    a.add_field("y", "ref")
    a.add_field("i", "int")
    a.seal()
    fn = Fn(p, app, "foo", args=["ref"], returns="int")
    fn.rload(0).getfield(a, "y").getfield(a, "i").iret()
    return p, a, fn.finish()


def make(auto=True, monitor_config=None, telemetry=None):
    """A controller wired to recorders instead of real hardware."""
    p, a, method = chase_program()
    cache = CodeCache()
    cm = cache.install(compile_opt(method))
    intervals = []
    switches = []
    controller = OnlineOptimizationController(
        cache, monitor_config or MonitorConfig(), PerfmonConfig(),
        charge=lambda cycles: None,
        set_sampling_interval=intervals.append,
        auto_interval=auto,
        sampling_switch=switches.append,
        observers=Observers(telemetry=telemetry))
    controller.on_method_compiled(cm)
    interest = controller.resolver.interest_table(cm)
    ir_id = next(iter(interest))
    hot_eip = cm.eip_of_pc(cm.ir_map.index(ir_id))
    return controller, hot_eip, intervals, switches


class TestAdaptiveInterval:
    def test_zero_samples_halves_until_min_clamp(self):
        controller, _, intervals, _ = make()
        expected = controller.current_interval
        for _ in range(20):
            controller.on_period(1000)
            expected = max(AUTO_MIN_INTERVAL, expected // 2)
            assert controller.current_interval == expected
        assert controller.current_interval == AUTO_MIN_INTERVAL
        # Once clamped, further silent periods change nothing and must
        # not re-notify the hardware.
        calls = len(intervals)
        controller.on_period(1000)
        assert controller.current_interval == AUTO_MIN_INTERVAL
        assert len(intervals) == calls

    def test_flood_clamps_at_max(self):
        controller, hot_eip, intervals, _ = make()
        controller.current_interval = AUTO_MAX_INTERVAL // 2
        controller.process_samples([hot_eip] * (AUTO_TARGET_PER_PERIOD * 100))
        controller.on_period(1000)
        assert controller.current_interval == AUTO_MAX_INTERVAL
        assert intervals[-1] == AUTO_MAX_INTERVAL

    def test_proportional_scaling(self):
        controller, hot_eip, intervals, _ = make()
        before = controller.current_interval
        controller.process_samples([hot_eip] * (2 * AUTO_TARGET_PER_PERIOD))
        controller.on_period(1000)
        assert controller.current_interval == 2 * before
        assert intervals == [2 * before]

    def test_on_target_leaves_interval_untouched(self):
        controller, hot_eip, intervals, _ = make()
        before = controller.current_interval
        controller.process_samples([hot_eip] * AUTO_TARGET_PER_PERIOD)
        controller.on_period(1000)
        assert controller.current_interval == before
        assert intervals == []

    def test_interval_gauge_tracks_adaptation(self):
        tele = Telemetry()
        controller, _, _, _ = make(telemetry=tele)
        controller.on_period(1000)
        assert (tele.metrics.value("controller.sampling_interval")
                == controller.current_interval)
        names = [e.name for e in tele.tracer.instants]
        assert "controller.interval_adapted" in names


class TestDutyCycle:
    def cfg(self, idle=2, off=3):
        return MonitorConfig(duty_cycle=True, duty_idle_periods=idle,
                             duty_off_periods=off)

    def test_pause_after_idle_periods(self):
        tele = Telemetry()
        controller, _, _, switches = make(
            auto=False, monitor_config=self.cfg(idle=2), telemetry=tele)
        controller.on_period(1000)
        assert not controller.sampling_paused
        controller.on_period(2000)
        assert controller.sampling_paused
        assert switches == [False]
        assert controller.duty_pauses == 1
        # Statistics reach the registry when the component publishes.
        controller.publish_metrics(tele.metrics)
        assert tele.metrics.value("controller.duty_pauses") == 1

    def test_resume_rearms_sampling(self):
        controller, _, _, switches = make(
            auto=False, monitor_config=self.cfg(idle=1, off=2))
        controller.on_period(1000)           # idle -> pause
        assert switches == [False]
        controller.on_period(2000)           # paused, 1 period left
        assert controller.sampling_paused
        controller.on_period(3000)           # pause expires -> resume
        assert not controller.sampling_paused
        assert switches == [False, True]
        # The idle counter restarts after the resume: a fresh idle run
        # is needed before the next pause.
        controller.on_period(4000)
        assert controller.sampling_paused
        assert controller.duty_pauses == 2

    def test_attributed_samples_reset_idle_counter(self):
        controller, hot_eip, _, switches = make(
            auto=False, monitor_config=self.cfg(idle=2))
        controller.on_period(1000)           # idle period 1
        controller.process_samples([hot_eip] * 6)
        controller.on_period(2000)           # fruitful -> counter resets
        controller.on_period(3000)           # idle period 1 again
        assert not controller.sampling_paused
        assert switches == []
        controller.on_period(4000)           # idle period 2 -> pause
        assert controller.sampling_paused

    def test_no_interval_adaptation_while_paused(self):
        controller, _, intervals, _ = make(
            auto=True, monitor_config=self.cfg(idle=1, off=5))
        controller.on_period(1000)           # adapts, then pauses
        paused_interval = controller.current_interval
        calls = len(intervals)
        controller.on_period(2000)
        controller.on_period(3000)
        assert controller.sampling_paused
        assert controller.current_interval == paused_interval
        assert len(intervals) == calls
