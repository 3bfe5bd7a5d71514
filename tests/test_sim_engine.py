"""Unit tests for the discrete-event simulation engine."""

import math

import pytest

from repro.sim.engine import Engine, Interrupt, SimulationError


def test_timeout_advances_clock():
    engine = Engine()
    log = []

    def process(eng):
        yield eng.timeout(1.5)
        log.append(eng.now)

    engine.process(process(engine))
    engine.run()
    assert log == [1.5]


def test_timeouts_fire_in_time_order():
    engine = Engine()
    log = []

    def waiter(eng, delay, tag):
        yield eng.timeout(delay)
        log.append(tag)

    engine.process(waiter(engine, 3.0, "c"))
    engine.process(waiter(engine, 1.0, "a"))
    engine.process(waiter(engine, 2.0, "b"))
    engine.run()
    assert log == ["a", "b", "c"]


def test_simultaneous_events_fire_in_schedule_order():
    engine = Engine()
    log = []

    def waiter(eng, tag):
        yield eng.timeout(1.0)
        log.append(tag)

    for tag in "abc":
        engine.process(waiter(engine, tag))
    engine.run()
    assert log == ["a", "b", "c"]


def test_negative_timeout_rejected():
    engine = Engine()
    for delay in (-0.1, -math.inf, math.nan):
        with pytest.raises(ValueError):
            engine.timeout(delay)
    engine.run()
    assert engine.now == 0.0


def test_run_until_stops_clock_exactly():
    engine = Engine()

    def ticker(eng):
        while True:
            yield eng.timeout(1.0)

    engine.process(ticker(engine))
    engine.run(until=3.5)
    assert engine.now == 3.5


def test_run_until_in_past_rejected():
    engine = Engine()
    engine.run(until=2.0)
    with pytest.raises(SimulationError):
        engine.run(until=1.0)


def test_run_with_empty_queue_sets_time():
    engine = Engine()
    engine.run(until=7.0)
    assert engine.now == 7.0


def test_event_succeed_delivers_value():
    engine = Engine()
    event = engine.event()
    got = []

    def consumer(eng):
        value = yield event
        got.append(value)

    def producer(eng):
        yield eng.timeout(2.0)
        event.succeed("payload")

    engine.process(consumer(engine))
    engine.process(producer(engine))
    engine.run()
    assert got == ["payload"]


def test_event_fail_raises_in_waiter():
    engine = Engine()
    event = engine.event()
    caught = []

    def consumer(eng):
        try:
            yield event
        except RuntimeError as exc:
            caught.append(str(exc))

    def producer(eng):
        yield eng.timeout(1.0)
        event.fail(RuntimeError("boom"))

    engine.process(consumer(engine))
    engine.process(producer(engine))
    engine.run()
    assert caught == ["boom"]


def test_event_fail_requires_exception():
    engine = Engine()
    with pytest.raises(TypeError):
        engine.event().fail("not an exception")


def test_event_cannot_trigger_twice():
    engine = Engine()
    event = engine.event()
    event.succeed(1)
    with pytest.raises(SimulationError):
        event.succeed(2)


def test_waiting_on_already_processed_event_resumes_immediately():
    engine = Engine()
    event = engine.event()
    event.succeed("early")
    engine.run()
    got = []

    def late_consumer(eng):
        value = yield event
        got.append((eng.now, value))

    engine.process(late_consumer(engine))
    engine.run()
    assert got == [(engine.now, "early")]


def test_process_completion_is_waitable():
    engine = Engine()
    log = []

    def child(eng):
        yield eng.timeout(2.0)
        return "done"

    def parent(eng):
        result = yield eng.process(child(eng))
        log.append((eng.now, result))

    engine.process(parent(engine))
    engine.run()
    assert log == [(2.0, "done")]


def test_process_exception_propagates_to_waiter():
    engine = Engine()
    caught = []

    def child(eng):
        yield eng.timeout(1.0)
        raise ValueError("child died")

    def parent(eng):
        try:
            yield eng.process(child(eng))
        except ValueError as exc:
            caught.append(str(exc))

    engine.process(parent(engine))
    engine.run()
    assert caught == ["child died"]


def test_unwaited_process_exception_raises_at_run():
    engine = Engine()

    def child(eng):
        yield eng.timeout(1.0)
        raise ValueError("unhandled")

    engine.process(child(engine))
    with pytest.raises(ValueError):
        engine.run()


def test_process_yielding_non_waitable_is_error():
    engine = Engine()

    def bad(eng):
        yield 42

    engine.process(bad(engine))
    with pytest.raises(SimulationError):
        engine.run()


def test_interrupt_raises_inside_process():
    engine = Engine()
    log = []

    def sleeper(eng):
        try:
            yield eng.timeout(100.0)
        except Interrupt as interrupt:
            log.append((eng.now, interrupt.cause))

    proc = engine.process(sleeper(engine))

    def interrupter(eng):
        yield eng.timeout(2.0)
        proc.interrupt("wakeup")

    engine.process(interrupter(engine))
    engine.run()
    assert log == [(2.0, "wakeup")]


def test_interrupt_dead_process_rejected():
    engine = Engine()

    def quick(eng):
        yield eng.timeout(0.5)

    proc = engine.process(quick(engine))
    engine.run()
    with pytest.raises(SimulationError):
        proc.interrupt()


def test_all_of_waits_for_every_waitable():
    engine = Engine()
    log = []

    def waiter(eng):
        timeouts = [eng.timeout(d) for d in (1.0, 3.0, 2.0)]
        yield eng.all_of(timeouts)
        log.append(eng.now)

    engine.process(waiter(engine))
    engine.run()
    assert log == [3.0]


def test_all_of_empty_completes_immediately():
    engine = Engine()
    log = []

    def waiter(eng):
        yield eng.all_of([])
        log.append(eng.now)

    engine.process(waiter(engine))
    engine.run()
    assert log == [0.0]


def test_is_alive_lifecycle():
    engine = Engine()

    def proc(eng):
        yield eng.timeout(1.0)

    process = engine.process(proc(engine))
    assert process.is_alive
    engine.run()
    assert not process.is_alive


def test_nested_processes_share_clock():
    engine = Engine()
    times = []

    def grandchild(eng):
        yield eng.timeout(1.0)
        times.append(("gc", eng.now))

    def child(eng):
        yield eng.process(grandchild(eng))
        yield eng.timeout(1.0)
        times.append(("c", eng.now))

    def parent(eng):
        yield eng.process(child(eng))
        times.append(("p", eng.now))

    engine.process(parent(engine))
    engine.run()
    assert times == [("gc", 1.0), ("c", 2.0), ("p", 2.0)]
