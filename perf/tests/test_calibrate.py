"""The calibration pipeline, driven end to end by a fake clock."""

import pytest

import calibrate
from calibrate import CAL_REF_S, PairedTimer

UNITS = 4
REPEATS = 15
#: Nominal request latencies of one unit (seconds): a spread, so that the
#: median and the 90th percentile are different requests.
REQUESTS = [0.002 + 0.0001 * (i % 23) for i in range(100)]


class FakeMachine:
    """Wall and CPU clocks that move only when work runs on them.

    ``slowdown(now)`` is how much slower than nominal the machine is at
    wall time ``now``; work is integrated in 1 ms nominal steps, so a
    burst may start or end in the middle of a unit.
    """

    def __init__(self, slowdown=lambda now: 1.0):
        self.now = self.cpu = 0.0
        self._slowdown = slowdown

    def wall(self):
        return self.now

    def cpu_clock(self):
        return self.cpu

    def run(self, nominal):
        while nominal > 1e-12:
            step = min(nominal, 0.001)
            taken = step * self._slowdown(self.now)
            self.now += taken
            self.cpu += taken
            nominal -= step


def metrics(machine, program_factor=lambda unit, repeat: 1.0):
    """Run UNITS x REPEATS units of REQUESTS on ``machine``."""
    timer = PairedTimer(machine.wall, machine.cpu_clock,
                        cal_work=lambda: machine.run(CAL_REF_S),
                        collect=lambda: None)
    for repeat in range(REPEATS):
        for unit in range(UNITS):
            factor = program_factor(unit, repeat)

            def work():
                latencies = []
                for nominal in REQUESTS:
                    started = machine.wall()
                    machine.run(nominal * (1 + 0.1 * unit) * factor)
                    latencies.append(machine.wall() - started)
                return latencies

            timer.run(unit, work, lambda lat: (len(lat), 0, lat))
    samples = timer.samples
    return {
        "throughput_ops_s": calibrate.throughput_ops_s(samples),
        "latency_p50_ms": calibrate.latency_p50_ms(samples),
        "latency_p90_ms": calibrate.latency_p90_ms(samples),
        "cpu_ms_per_op": calibrate.cpu_ms_per_op(samples),
    }


TIMING = ("throughput_ops_s", "latency_p50_ms", "latency_p90_ms")


def test_quiet_machine_reports_nominal_cost():
    got = metrics(FakeMachine())
    one_pass = sum(sum(REQUESTS) * (1 + 0.1 * u) for u in range(UNITS))
    assert got["throughput_ops_s"] == pytest.approx(
        UNITS * len(REQUESTS) / one_pass, rel=1e-6)
    assert got["cpu_ms_per_op"] == pytest.approx(
        1e3 * one_pass / (UNITS * len(REQUESTS)), rel=1e-6)
    assert got["latency_p50_ms"] < got["latency_p90_ms"]


def test_bursts_over_40_percent_of_the_run_move_metrics_under_2_percent():
    # 30 % slower for 2 s out of every 5 s: bursts start and end inside
    # units, so normalisation alone cannot remove them.
    bursty = FakeMachine(lambda now: 1.3 if now % 5.0 < 2.0 else 1.0)
    quiet, noisy = metrics(FakeMachine()), metrics(bursty)
    for name in TIMING:
        assert noisy[name] == pytest.approx(quiet[name], rel=0.02), name


def test_noise_the_kernel_never_sees_moves_metrics_under_2_percent():
    # 40 % of every input's repeats run 30 % slow while the kernel reads
    # normal: only the low quantile protects against that.
    quiet = metrics(FakeMachine())
    noisy = metrics(FakeMachine(),
                    lambda unit, repeat: 1.3 if repeat % 5 in (1, 3) else 1.0)
    for name in TIMING:
        assert noisy[name] == pytest.approx(quiet[name], rel=0.02), name


def test_a_genuine_10_percent_slowdown_moves_metrics_10_percent():
    quiet = metrics(FakeMachine())
    slower = metrics(FakeMachine(), lambda unit, repeat: 1.1)
    assert slower["throughput_ops_s"] == pytest.approx(
        quiet["throughput_ops_s"] / 1.1, rel=1e-3)
    for name in ("latency_p50_ms", "latency_p90_ms", "cpu_ms_per_op"):
        assert slower[name] == pytest.approx(1.1 * quiet[name], rel=1e-3), name


def test_a_slow_machine_reports_the_same_numbers():
    quiet, slow = metrics(FakeMachine()), metrics(FakeMachine(lambda now: 2.0))
    for name in quiet:
        assert slow[name] == pytest.approx(quiet[name], rel=1e-9), name


def test_cpu_mean_keeps_the_rare_stall_the_low_quantile_hides():
    quiet = metrics(FakeMachine())
    stall = metrics(FakeMachine(),
                    lambda unit, repeat: 3.0 if (unit, repeat) == (0, 7) else 1.0)
    assert stall["throughput_ops_s"] == pytest.approx(
        quiet["throughput_ops_s"], rel=1e-6)
    assert stall["cpu_ms_per_op"] > 1.02 * quiet["cpu_ms_per_op"]


def test_measure_keeps_the_best_of_its_repeats():
    ticks = iter([0.0, 0.030, 0.030, 0.041, 0.041, 0.056])
    cpu = iter([0.0, 0.012, 0.012, 0.022, 0.022, 0.035])
    cal = calibrate.measure(lambda: next(ticks), lambda: next(cpu),
                            work=lambda: None)
    assert cal.wall == pytest.approx(0.011)
    assert cal.cpu == pytest.approx(0.010)
    assert cal.slowdown == pytest.approx(1.1)


def test_no_collection_lands_inside_a_reading_of_the_real_kernel():
    import gc
    import time

    collections = []
    seen_at_read = []

    def wall():
        seen_at_read.append(len(collections))
        return time.perf_counter()

    gc.callbacks.append(lambda phase, info: collections.append(phase))
    try:
        reading = calibrate.measure(wall_clock=wall)
    finally:
        gc.callbacks.pop()
    assert len(set(seen_at_read)) == 1      # none between any two reads
    assert gc.isenabled()
    assert 0 < reading.cpu and 0 < reading.wall < 1.0


def test_quantile_interpolates():
    assert calibrate.quantile([4.0], 0.25) == 4.0
    assert calibrate.quantile([1.0, 2.0, 3.0, 4.0, 5.0], 0.25) == 2.0
    assert calibrate.quantile([1.0, 3.0], 0.25) == 1.5
    with pytest.raises(ValueError):
        calibrate.quantile([], 0.5)
