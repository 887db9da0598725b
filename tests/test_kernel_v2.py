"""Kernel v2 edge cases: agenda, hooks, pools, composites.

Covers the corners the batched drain loop introduced: ``run(until=)``
landing exactly on an event timestamp, the timeout free-list boundary,
interrupting a process that is blocked inside a same-timestamp batch,
empty-agenda ``peek()``, the :class:`Agenda` API itself, the deferred
timers of :meth:`Simulator.rearm`, in-kernel :class:`KernelHooks`
counting, and the composite-event callback detachment (with its
timeout-pool interaction).
"""

import pytest

from repro.sim.engine import (
    Agenda,
    AllOf,
    AnyOf,
    Event,
    Interrupt,
    KernelHooks,
    SimulationError,
    Simulator,
    Timeout,
)


# -- run(until=) boundary -----------------------------------------------------


def test_run_until_exactly_on_event_timestamp_fires_the_event():
    sim = Simulator()
    fired = []
    sim.timeout(2.0).add_callback(lambda e: fired.append(sim.now))
    sim.timeout(5.0)
    sim.run(until=2.0)
    assert fired == [2.0]
    assert sim.now == 2.0
    # the later event is untouched
    assert sim.peek() == 5.0


def test_run_until_between_events_advances_clock_only():
    sim = Simulator()
    fired = []
    sim.timeout(1.0).add_callback(lambda e: fired.append(sim.now))
    sim.timeout(4.0).add_callback(lambda e: fired.append(sim.now))
    sim.run(until=2.5)
    assert fired == [1.0]
    assert sim.now == 2.5
    sim.run()
    assert fired == [1.0, 4.0]


def test_run_until_with_same_timestamp_cascade_finishes_the_instant():
    """Zero-delay events spawned at the until instant still fire."""
    sim = Simulator()
    order = []

    def chain(event):
        order.append("first")
        follow = sim.event()
        follow.add_callback(lambda e: order.append("second"))
        follow.succeed()

    sim.timeout(3.0).add_callback(chain)
    sim.run(until=3.0)
    assert order == ["first", "second"]
    assert sim.now == 3.0


# -- timeout free list --------------------------------------------------------


def test_timeout_pool_respects_limit():
    sim = Simulator()

    def churn():
        for _ in range(3 * Simulator.TIMEOUT_POOL_LIMIT):
            yield sim.timeout(0.001)

    sim.process(churn())
    sim.run()
    assert sim.timeout_reuses > 0
    assert len(sim._timeout_pool) <= Simulator.TIMEOUT_POOL_LIMIT


def test_timeout_pool_boundary_exact_fill():
    """Firing exactly LIMIT unreferenced timeouts fills, never overfills."""
    sim = Simulator()
    for _ in range(Simulator.TIMEOUT_POOL_LIMIT + 50):
        sim.timeout(1.0)  # unreferenced: all recyclable
    sim.run()
    assert len(sim._timeout_pool) == Simulator.TIMEOUT_POOL_LIMIT


def test_event_pool_recycles_unreferenced_fired_events():
    sim = Simulator()

    def proc():
        for _ in range(50):
            yield sim.fired()

    sim.process(proc())
    sim.run()
    assert len(sim._event_pool) > 0
    # pooled events come back pending and fresh
    event = sim.event()
    assert not event.triggered and not event.processed
    assert event.value is None and event.ok


# -- interrupt inside a same-timestamp batch ---------------------------------


def test_interrupt_of_process_blocked_inside_same_timestamp_batch():
    """Interrupting a process whose wakeup shares the current batch.

    Attacker and victim both wake at t=2.0; the attacker was scheduled
    first, so it runs first within the batch and interrupts the victim
    while the victim's own timeout is still pending *in the same
    batch*.  The victim must see exactly one Interrupt at t=2.0, and
    its detached timeout must fire without resuming it a second time.
    """
    sim = Simulator()
    log = []
    target = []

    def victim():
        try:
            yield sim.timeout(2.0)
            log.append("timer")
        except Interrupt as interrupt:
            log.append(("interrupted", sim.now, interrupt.cause))

    def attacker():
        yield sim.timeout(2.0)
        target[0].interrupt("batched")

    sim.process(attacker())  # scheduled first: wins the t=2.0 batch
    target.append(sim.process(victim()))
    sim.run()
    assert log == [("interrupted", 2.0, "batched")]
    assert target[0].processed  # victim finished exactly once


def test_interrupt_after_victim_resumed_in_batch_is_an_error():
    """A same-batch interrupt that loses the race hits a finished process."""
    sim = Simulator()
    target = []

    def victim():
        yield sim.timeout(2.0)

    def attacker():
        yield sim.timeout(2.0)
        target[0].interrupt("too-late")

    target.append(sim.process(victim()))  # victim's wakeup fires first
    sim.process(attacker())
    with pytest.raises(SimulationError):
        sim.run()


# -- peek ---------------------------------------------------------------------


def test_peek_on_empty_agenda_is_infinite():
    sim = Simulator()
    assert sim.peek() == float("inf")
    sim.timeout(1.0)
    sim.run()
    assert sim.peek() == float("inf")


def test_peek_sees_same_instant_fifo_entries():
    sim = Simulator()
    sim.event().succeed()  # same-instant FIFO entry
    assert sim.peek() == 0.0


# -- Agenda -------------------------------------------------------------------


class TestAgenda:
    def test_schedule_orders_by_time_then_sequence(self):
        agenda = Agenda()
        sim = Simulator()
        a, b, c = Event(sim), Event(sim), Event(sim)
        agenda.schedule(a, 2.0)
        agenda.schedule(b, 1.0)
        agenda.schedule(c, 2.0)
        popped = [agenda.pop() for _ in range(3)]
        assert popped == [(1.0, b), (2.0, a), (2.0, c)]  # tie: schedule order
        assert not agenda

    def test_pop_on_empty_agenda_raises(self):
        agenda = Agenda()
        with pytest.raises(SimulationError):
            agenda.pop()

    def test_same_instant_entries_use_the_fifo(self):
        agenda = Agenda()
        sim = Simulator()
        event = Event(sim)
        agenda.schedule(event, 0.0)  # == agenda's current instant
        assert len(agenda._heap) == 0 and len(agenda._dq) == 1
        assert agenda.peek() == 0.0
        agenda.flush()
        assert len(agenda._heap) == 1 and len(agenda._dq) == 0

    def test_len_counts_both_lanes(self):
        agenda = Agenda()
        sim = Simulator()
        agenda.schedule(Event(sim), 0.0)
        agenda.schedule(Event(sim), 7.0)
        assert len(agenda) == 2
        assert bool(agenda)


def _pending_rearm(callback=lambda e: None):
    """A simulator whose only entry is a re-armed timer not yet in the heap."""
    sim = Simulator()
    sim.rearm("owner", 2.0, 1, callback)
    sim.rearm("owner", 3.0, 2, callback)  # replaces the pending arm
    assert not sim._agenda._heap
    return sim, sim._agenda


class TestRearm:
    def test_len_and_bool_count_the_pending_timer(self):
        _sim, agenda = _pending_rearm()
        assert len(agenda) == 1 and bool(agenda)

    def test_peek_and_pop_see_the_pending_timer(self):
        sim, agenda = _pending_rearm()
        assert sim.peek() == 3.0
        when, event = agenda.pop()
        assert (when, event.value) == (3.0, 2) and not agenda

    def test_flush_pushes_the_pending_timer(self):
        _sim, agenda = _pending_rearm()
        agenda.flush()
        assert [entry[0] for entry in agenda._heap] == [3.0]
        assert not agenda._deferred

    def test_step_fires_only_the_last_arm(self):
        values = []
        sim, _agenda = _pending_rearm(lambda e: values.append(e.value))
        sim.step()
        assert values == [2] and sim.now == 3.0 and not sim._agenda

    def test_rearm_onto_the_current_instant_uses_the_fifo(self):
        sim, agenda = _pending_rearm()
        sim.rearm("owner", 0.0, 3, lambda e: None)
        assert not agenda._deferred and len(agenda._dq) == 1 and len(agenda) == 1
        assert sim.peek() == 0.0

    def test_rearm_does_not_count_as_a_timeout_reuse(self):
        sim = Simulator()
        sim.timeout(1.0)
        sim.run()
        assert len(sim._timeout_pool) == 1
        sim.rearm("owner", 1.0, 1, lambda e: None)  # served from the free list
        assert not sim._timeout_pool and sim.timeout_reuses == 0


# -- KernelHooks --------------------------------------------------------------


class TestKernelHooks:
    def test_run_stops_exactly_at_target_count(self):
        sim = Simulator()
        records = []

        def producer():
            for index in range(10):
                yield sim.timeout(1.0)
                records.append(index)

        sim.process(producer())
        sim.run(hooks=KernelHooks(records, 4))
        assert len(records) == 4
        assert sim.now == 4.0
        sim.run(hooks=KernelHooks(records, 7))
        assert len(records) == 7

    def test_already_satisfied_hooks_do_not_advance(self):
        sim = Simulator()
        sim.timeout(5.0)
        hooks = KernelHooks([1, 2], 2)
        assert hooks.satisfied()
        sim.run(hooks=hooks)
        assert sim.now == 0.0
        assert sim.peek() == 5.0

    def test_hooks_with_drained_agenda_returns(self):
        sim = Simulator()
        records = []
        sim.timeout(1.0).add_callback(lambda e: records.append(1))
        sim.run(hooks=KernelHooks(records, 5))  # drains before target
        assert records == [1]
        assert sim.peek() == float("inf")

    def test_stop_event_mid_batch_preserves_remaining_events(self):
        sim = Simulator()
        order = []
        first = sim.timeout(1.0)
        first.add_callback(lambda e: order.append("first"))
        second = sim.timeout(1.0)
        second.add_callback(lambda e: order.append("second"))
        value = sim.run(stop=first)
        assert order == ["first"]
        assert value is first.value
        # the rest of the t=1.0 batch is still pending
        assert sim.peek() == 1.0
        sim.run()
        assert order == ["first", "second"]


# -- composite events: callback detachment ------------------------------------


class TestCompositeDetach:
    def test_any_of_detaches_losers(self):
        sim = Simulator()
        slow = sim.timeout(5.0)
        fast = sim.timeout(1.0)
        any_event = AnyOf(sim, [slow, fast])
        sim.run(until=1.0)
        assert any_event.processed
        # the loser no longer carries the composite's callback
        assert slow._cb is None and not slow.callbacks

    def test_any_of_losers_return_to_timeout_pool(self):
        """Regression: detached losers must become recyclable again.

        Each iteration races a fast timeout against a slow one; once
        the composite fires, the loser is detached, so when it finally
        fires nothing references it and it returns to the free list.
        Before the detach fix the losers kept the composite's bound
        callback (pinning the whole AnyOf graph) and never recycled.
        """
        sim = Simulator()

        def proc():
            for _ in range(40):
                fast = sim.timeout(0.001)
                slow = sim.timeout(1000.0)
                yield sim.any_of([fast, slow])

        sim.process(proc())
        sim.run()
        assert len(sim._timeout_pool) > 0

    def test_all_of_detaches_on_early_failure(self):
        sim = Simulator()
        failing = sim.event()
        pending = sim.timeout(10.0)
        all_event = AllOf(sim, [failing, pending])
        failing.fail(ValueError("boom"))
        sim.run(until=0.5)
        assert all_event.processed and not all_event.ok
        assert pending._cb is None and not pending.callbacks

    def test_all_of_still_collects_every_value(self):
        sim = Simulator()
        events = [sim.timeout(t, value=t) for t in (1.0, 2.0, 3.0)]
        all_event = AllOf(sim, events)
        sim.run()
        assert sorted(all_event.value.values()) == [1.0, 2.0, 3.0]

    def test_any_of_fail_detaches_and_propagates(self):
        sim = Simulator()
        failing = sim.event()
        pending = sim.timeout(10.0)
        any_event = AnyOf(sim, [failing, pending])
        failing.fail(RuntimeError("first failure wins"))
        sim.run(until=0.5)
        assert any_event.processed and not any_event.ok
        assert pending._cb is None and not pending.callbacks


# -- fired() ------------------------------------------------------------------


def test_fired_event_fires_with_value_through_run():
    sim = Simulator()
    seen = []

    def proc():
        value = yield sim.fired("granted")
        seen.append((sim.now, value))

    sim.process(proc())
    sim.run()
    assert seen == [(0.0, "granted")]


def test_fired_preserves_scheduling_order_with_succeed():
    sim = Simulator()
    order = []
    a = sim.event()
    a.add_callback(lambda e: order.append("succeed"))
    a.succeed()
    b = sim.fired()
    b.add_callback(lambda e: order.append("fired"))
    sim.run()
    assert order == ["succeed", "fired"]


# -- Timeout identity through the free list -----------------------------------


def test_timeout_class_identity_preserved_through_recycling():
    sim = Simulator()
    timer = sim.timeout(1.0)
    assert isinstance(timer, Timeout)
    sim.run()

    def churn():
        for _ in range(20):
            served = yield sim.timeout(0.5, value="v")
            assert served == "v"

    sim.process(churn())
    sim.run()
    assert sim.timeout_reuses > 0
    assert isinstance(sim.timeout(1.0), Timeout)  # pool-served instance
