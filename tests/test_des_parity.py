"""Event-order parity of the DES engine against its pre-fast-path form.

``tests/des_oracle.py`` keeps the engine and resources as they were before
waitables got ``__slots__``, callbacks ran inline in ``Engine.step`` and a
finished process nobody waits on stopped scheduling a completion event.
The production engine must process the same occurrences in the same
``(time, sequence)`` order, so every program below logs the same
``(now, process, step, value)`` entries and leaves the same resource busy
time on both engines.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.runtime as runtime_module
import repro.core.scheduler as scheduler_module
import repro.sim.engine as engine_module
import repro.sim.resources as resources_module
from repro import CANNED_PLANS, DESKTOP, JETSON_LP, SystemConfig, build_runtime
from repro.resilience import SupervisorConfig
from tests import des_oracle


class FastEngine:
    """The production engine's names, in the oracle module's shape."""

    Engine = engine_module.Engine
    Interrupt = engine_module.Interrupt
    Resource = resources_module.Resource


# Few distinct delays, zero among them, so many occurrences tie on time
# and only the sequence numbers order them.
DELAYS = st.sampled_from((0.0, 0.0, 0.5, 1.0, 1.5))
PRIORITIES = st.sampled_from((-1, 0, 1))
RESOURCE = st.integers(0, 2)

LEAF_OPS = st.one_of(
    st.tuples(st.just("timeout"), DELAYS),
    # Request a slot, hold it for a delay, then release it (True) or
    # give it back through cancel (False).
    st.tuples(st.just("hold"), RESOURCE, PRIORITIES, DELAYS, st.booleans()),
    # Request a slot and withdraw the request without waiting for it.
    st.tuples(st.just("withdraw"), RESOURCE, PRIORITIES),
    st.tuples(st.just("call_later"), DELAYS),
    st.tuples(st.just("interrupt"), st.integers(0, 11)),
    # Wait on a live top-level process (several waiters may pile up).
    st.tuples(st.just("join"), st.integers(0, 11)),
    # Yield a timeout that was processed while waiting on another one.
    st.tuples(st.just("stale"), DELAYS),
)


def spawn_ops(child_ops):
    """Start a child running ``child_ops``; wait for it (True) or not."""
    return st.tuples(st.just("spawn"), st.lists(child_ops, min_size=1, max_size=4), st.booleans())


CHILD_OPS = st.one_of(LEAF_OPS, spawn_ops(LEAF_OPS))
TOP_OPS = st.one_of(LEAF_OPS, spawn_ops(CHILD_OPS))

PROGRAMS = st.tuples(
    st.lists(st.integers(1, 3), min_size=1, max_size=3),  # resource capacities
    st.lists(st.lists(TOP_OPS, min_size=1, max_size=6), min_size=2, max_size=12),
    st.sampled_from((None, 0.75, 2.0)),  # run(until=...)
)


def run_program(sim, capacities, programs, until=None):
    """Run one program on engine module ``sim``; returns what it observed."""
    engine = sim.Engine()
    resources = [sim.Resource(engine, c, name=f"r{i}") for i, c in enumerate(capacities)]
    log = []
    started = set()
    top = []

    def body(name, ops):
        started.add(name)
        held = []
        try:
            for step, op in enumerate(ops):
                kind = op[0]
                if kind == "timeout":
                    value = yield engine.timeout(op[1], value=(name, step))
                elif kind == "hold":
                    _, r, priority, delay, release = op
                    resource = resources[r % len(resources)]
                    request = resource.request(priority=priority)
                    held.append((resource, request))
                    granted = yield request
                    value = granted.granted_at
                    yield engine.timeout(delay)
                    (resource.release if release else resource.cancel)(request)
                    held.remove((resource, request))
                elif kind == "withdraw":
                    _, r, priority = op
                    resource = resources[r % len(resources)]
                    request = resource.request(priority=priority)
                    resource.cancel(request)
                    value = request.granted_at
                elif kind == "spawn":
                    _, child_ops, wait = op
                    child_name = f"{name}.{step}"
                    child = engine.process(body(child_name, child_ops), name=child_name)
                    value = (yield child) if wait else None
                elif kind == "call_later":

                    def later(tag=(name, step)):
                        log.append((engine.now, tag[0], tag[1], "later"))

                    engine.call_later(op[1], later)
                    value = None
                elif kind == "join":
                    target = top[op[1] % len(top)]
                    value = None
                    if target.name != name and target.is_alive:
                        value = yield target
                elif kind == "stale":
                    early = engine.timeout(0.0, value=(name, step, "early"))
                    yield engine.timeout(op[1])
                    value = yield early
                else:  # interrupt a live, started top-level process
                    target = top[op[1] % len(top)]
                    value = None
                    if target.name != name and target.name in started and target.is_alive:
                        target.interrupt(name)
                        value = target.name
                log.append((engine.now, name, step, value))
        except sim.Interrupt as interrupt:
            for resource, request in held:
                resource.cancel(request)
            log.append((engine.now, name, "interrupted", interrupt.cause))
        return name

    for i, ops in enumerate(programs):
        top.append(engine.process(body(f"p{i}", ops), name=f"p{i}"))
    engine.run(until=until)
    return log, [r.busy_time() for r in resources], engine.now


@settings(max_examples=300, deadline=None)
@given(PROGRAMS)
def test_random_programs_match_oracle(program):
    capacities, programs, until = program
    expected = run_program(des_oracle, capacities, programs, until)
    got = run_program(FastEngine, capacities, programs, until)
    assert got[0] == expected[0]
    assert got[1] == expected[1]
    assert got[2] == expected[2]


def count_steps(sim, children):
    """Steps to run a parent that spawns ``children`` unwaited children."""
    steps = [0]

    class CountingEngine(sim.Engine):
        def step(self):
            steps[0] += 1
            super().step()

    engine = CountingEngine()
    log = []

    def child(i):
        yield engine.timeout(1.0)
        log.append((engine.now, i))

    def parent():
        for i in range(children):
            engine.process(child(i))
        yield engine.timeout(0.5)

    engine.process(parent())
    engine.run()
    return steps[0], log


def test_unwaited_completions_schedule_no_event():
    steps, log = count_steps(FastEngine, 5)
    # Bootstraps (1 parent + 5 children) and timeouts (1 + 5) only.
    assert steps == 12
    oracle_steps, oracle_log = count_steps(des_oracle, 5)
    # The oracle also processes one empty completion event per process.
    assert oracle_steps == steps + 6
    assert log == oracle_log


@pytest.mark.parametrize(
    "platform, app, plan",
    [
        (DESKTOP, "sponza", None),
        (JETSON_LP, "platformer", None),
        (DESKTOP, "platformer", "renderer_stall"),  # watchdog kills
        (DESKTOP, "materials", "vio_crash_loop"),  # retries, quarantine
    ],
)
def test_integrated_run_matches_oracle(monkeypatch, platform, app, plan):
    """A whole runtime run on the oracle engine logs the same records."""

    def run():
        config = SystemConfig(duration_s=2.0, fidelity="model", seed=3)
        fault_plan = CANNED_PLANS[plan](5) if plan is not None else None
        supervision = SupervisorConfig() if plan is not None else None
        result = build_runtime(
            platform, app, config, fault_plan=fault_plan, supervision=supervision
        ).run()
        # JSON text compares NaN entries (an empty MTP series) as equal.
        summary = json.dumps(result.summary(), sort_keys=True, default=repr)
        return result.logger.records, result.logger.drops, summary

    records, drops, summary = run()
    with monkeypatch.context() as patch:
        patch.setattr(runtime_module, "Engine", des_oracle.Engine)
        patch.setattr(scheduler_module, "Resource", des_oracle.Resource)
        patch.setattr(scheduler_module, "Interrupt", des_oracle.Interrupt)
        oracle_records, oracle_drops, oracle_summary = run()
    if plan == "renderer_stall":
        assert any(record.killed for record in records)
    assert records == oracle_records
    assert drops == oracle_drops
    assert summary == oracle_summary
