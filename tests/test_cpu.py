"""Tests for the weighted processor-sharing CPU pool."""

import pytest

from repro.dbms.cpu import ProcessorSharingPool
from repro.sim.engine import KernelHooks, Simulator


def _finish_time(sim, event):
    done = {}
    event.add_callback(lambda e: done.setdefault("t", sim.now))
    return done


def test_single_job_runs_at_full_speed():
    sim = Simulator()
    cpu = ProcessorSharingPool(sim, cores=1)
    record = _finish_time(sim, cpu.execute(2.0))
    sim.run()
    assert record["t"] == pytest.approx(2.0)


def test_two_equal_jobs_share_one_core():
    sim = Simulator()
    cpu = ProcessorSharingPool(sim, cores=1)
    first = _finish_time(sim, cpu.execute(1.0))
    second = _finish_time(sim, cpu.execute(1.0))
    sim.run()
    # both progress at rate 1/2, finishing together at t=2
    assert first["t"] == pytest.approx(2.0)
    assert second["t"] == pytest.approx(2.0)


def test_two_jobs_on_two_cores_run_independently():
    sim = Simulator()
    cpu = ProcessorSharingPool(sim, cores=2)
    first = _finish_time(sim, cpu.execute(1.0))
    second = _finish_time(sim, cpu.execute(3.0))
    sim.run()
    assert first["t"] == pytest.approx(1.0)
    assert second["t"] == pytest.approx(3.0)


def test_single_job_cannot_use_two_cores():
    sim = Simulator()
    cpu = ProcessorSharingPool(sim, cores=2)
    record = _finish_time(sim, cpu.execute(2.0))
    sim.run()
    assert record["t"] == pytest.approx(2.0)  # capped at one core


def test_three_jobs_two_cores_processor_sharing():
    sim = Simulator()
    cpu = ProcessorSharingPool(sim, cores=2)
    records = [_finish_time(sim, cpu.execute(1.0)) for _ in range(3)]
    sim.run()
    # each runs at 2/3 until the pool drains; equal demands finish together
    for record in records:
        assert record["t"] == pytest.approx(1.5)


def test_late_arrival_slows_running_job():
    sim = Simulator()
    cpu = ProcessorSharingPool(sim, cores=1)
    first = _finish_time(sim, cpu.execute(2.0))

    def late():
        yield sim.timeout(1.0)
        second = cpu.execute(1.0)
        record = _finish_time(sim, second)
        return record

    process = sim.process(late())
    sim.run()
    # first runs alone [0,1) (1 unit done), shares [1,3) (rate 1/2):
    # finishes at 3.  The late 1-unit job also finishes at 3.
    assert first["t"] == pytest.approx(3.0)
    assert process.value["t"] == pytest.approx(3.0)


def test_weighted_sharing_ratio():
    sim = Simulator()
    cpu = ProcessorSharingPool(sim, cores=1)
    heavy = _finish_time(sim, cpu.execute(3.0, weight=3.0))
    light = _finish_time(sim, cpu.execute(1.0, weight=1.0))
    sim.run()
    # rates 3/4 and 1/4; both need time 4 for their demand
    assert heavy["t"] == pytest.approx(4.0)
    assert light["t"] == pytest.approx(4.0)


def test_weight_cap_at_one_core():
    sim = Simulator()
    cpu = ProcessorSharingPool(sim, cores=2)
    # huge weight still limited to one core
    vip = _finish_time(sim, cpu.execute(1.0, weight=100.0))
    other = _finish_time(sim, cpu.execute(1.0, weight=1.0))
    sim.run()
    assert vip["t"] == pytest.approx(1.0)
    assert other["t"] == pytest.approx(1.0)  # spare core serves it fully


def test_zero_demand_completes_immediately():
    sim = Simulator()
    cpu = ProcessorSharingPool(sim, cores=1)
    event = cpu.execute(0.0)
    assert event.triggered


def test_busy_core_time_tracks_work():
    sim = Simulator()
    cpu = ProcessorSharingPool(sim, cores=1)
    cpu.execute(2.0)
    sim.run()
    assert cpu.busy_core_time == pytest.approx(2.0)
    assert cpu.utilization(4.0) == pytest.approx(0.5)


def test_work_completed_accumulates():
    sim = Simulator()
    cpu = ProcessorSharingPool(sim, cores=1)
    cpu.execute(1.5)
    cpu.execute(0.5)
    sim.run()
    assert cpu.work_completed == pytest.approx(2.0)


def test_speed_scales_service():
    sim = Simulator()
    cpu = ProcessorSharingPool(sim, cores=1, speed=2.0)
    record = _finish_time(sim, cpu.execute(2.0))
    sim.run()
    assert record["t"] == pytest.approx(1.0)


def test_invalid_arguments():
    sim = Simulator()
    with pytest.raises(ValueError):
        ProcessorSharingPool(sim, cores=0)
    cpu = ProcessorSharingPool(sim, cores=1)
    with pytest.raises(ValueError):
        cpu.execute(-1.0)
    with pytest.raises(ValueError):
        cpu.execute(1.0, weight=0.0)


def test_active_jobs_counter():
    sim = Simulator()
    cpu = ProcessorSharingPool(sim, cores=1)
    cpu.execute(1.0)
    cpu.execute(1.0)
    assert cpu.active_jobs == 2
    sim.run()
    assert cpu.active_jobs == 0


def test_many_jobs_conservation():
    """Total work served equals total demand regardless of arrival mix."""
    sim = Simulator()
    cpu = ProcessorSharingPool(sim, cores=3)
    demands = [0.5, 1.0, 1.5, 2.0, 0.25, 0.75]

    def submit(delay, demand):
        def proc():
            yield sim.timeout(delay)
            yield cpu.execute(demand)

        sim.process(proc())

    for index, demand in enumerate(demands):
        submit(index * 0.2, demand)
    sim.run()
    assert cpu.work_completed == pytest.approx(sum(demands))
    assert cpu.busy_core_time == pytest.approx(sum(demands))


# -- completion-timer arming ---------------------------------------------------
#
# Every reallocation re-arms the pool's completion timer.  However the
# pool schedules that timer, it must keep the (time, sequence) order of
# arming it immediately: a foreign timeout for the same instant fires
# before the pool timer iff it was scheduled before the pool's *last*
# arm.  The expected traces below were recorded with immediate arming.

#: (tag, time, jobs the pool still holds) — both foreign timeouts are
#: due at t=3.0 together with the pool timer armed between them; the
#: 1-unit job b finishes at 3.0, job a (2 units) at 4.0.
_EXPECTED_TRACE = [
    ("between", 3.0, 2),
    ("after", 3.0, 1),
    ("done b", 3.0, 1),
    ("done a", 4.0, 0),
]


def _log_on_fire(sim, cpu, event, trace, tag):
    event.add_callback(lambda e: trace.append((tag, sim.now, cpu.active_jobs)))


def _first_arm(sim, cpu, trace):
    """Job a at the current instant: the pool's timer is due in 2.0."""
    _log_on_fire(sim, cpu, cpu.execute(2.0), trace, "done a")


def _foreign_then_rearm(sim, cpu, trace):
    """A foreign timeout, a re-arm landing on the same time (job b: 1.0
    at rate 1/2), then a second foreign timeout for that time."""
    _log_on_fire(sim, cpu, sim.timeout(2.0), trace, "between")
    _log_on_fire(sim, cpu, cpu.execute(1.0), trace, "done b")
    _log_on_fire(sim, cpu, sim.timeout(2.0), trace, "after")


def test_pool_timer_keeps_sequence_order_of_its_last_arm():
    sim = Simulator()
    cpu = ProcessorSharingPool(sim, cores=1)
    trace = []

    def arms():
        yield sim.timeout(1.0)
        _first_arm(sim, cpu, trace)
        _foreign_then_rearm(sim, cpu, trace)

    sim.process(arms())
    sim.run()
    assert trace == _EXPECTED_TRACE


def test_pool_timer_order_holds_across_an_until_stop():
    sim = Simulator()
    cpu = ProcessorSharingPool(sim, cores=1)
    trace = []

    def first():
        yield sim.timeout(1.0)
        _first_arm(sim, cpu, trace)

    sim.process(first())
    sim.run(until=1.0)
    assert sim.now == 1.0  # still the instant of the first arm
    _foreign_then_rearm(sim, cpu, trace)
    sim.run()
    assert trace == _EXPECTED_TRACE


def test_pool_timer_order_holds_across_a_hooks_stop_mid_instant():
    sim = Simulator()
    cpu = ProcessorSharingPool(sim, cores=1)
    trace = []
    counter = []

    def first():
        yield sim.timeout(1.0)
        _first_arm(sim, cpu, trace)
        counter.append(1)
        yield sim.timeout(0.0)  # still pending at 1.0 when run() stops

    process = sim.process(first())
    sim.run(hooks=KernelHooks(counter, 1))
    assert sim.now == 1.0 and process.is_alive
    _foreign_then_rearm(sim, cpu, trace)
    sim.run()
    assert trace == _EXPECTED_TRACE and not process.is_alive


def test_one_pool_timer_entry_per_instant():
    sim = Simulator()
    cpu = ProcessorSharingPool(sim, cores=1)
    done = []

    def arms():
        yield sim.timeout(1.0)
        for demand in (3.0, 2.0, 1.0):
            cpu.execute(demand).add_callback(
                lambda e, demand=demand: done.append((demand, sim.now))
            )

    sim.process(arms())
    sim.run(until=1.5)
    entries = [e for e in sim._agenda._heap if e[2]._cb == cpu._on_timer]
    # three arms, one surviving entry: the last one (1.0 at rate 1/3)
    assert [entry[0] for entry in entries] == [4.0]
    sim.run()
    assert done == [(1.0, 4.0), (2.0, 6.0), (3.0, 7.0)]


def test_fired_pool_timers_are_recycled():
    sim = Simulator()
    cpu = ProcessorSharingPool(sim, cores=1)

    def jobs():
        for _ in range(50):
            yield cpu.execute(1.0)

    sim.process(jobs())
    sim.run()
    assert sim.now == 50.0
    # one timer in flight at a time: each one that fires goes back to
    # the free list and serves the next arm, so one Timeout does all 50
    assert len(sim._timeout_pool) == 1
