"""Unit tests for the Store and CPU primitives."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import CPU, Interrupt, LegacySimulator, Simulator, Store

ENGINES = [Simulator, LegacySimulator]


# ----------------------------------------------------------------------
# Store
# ----------------------------------------------------------------------


def test_store_fifo_order():
    sim = Simulator()
    store = Store(sim)
    got = []

    def producer():
        for item in ("a", "b", "c"):
            yield store.put(item)

    def consumer():
        for _ in range(3):
            item = yield store.get()
            got.append(item)

    sim.process(producer())
    sim.process(consumer())
    sim.run()
    assert got == ["a", "b", "c"]


def test_store_get_blocks_until_put():
    sim = Simulator()
    store = Store(sim)
    times = []

    def consumer():
        item = yield store.get()
        times.append((sim.now, item))

    def producer():
        yield sim.timeout(5.0)
        yield store.put("late")

    sim.process(consumer())
    sim.process(producer())
    sim.run()
    assert times == [(5.0, "late")]


def test_store_capacity_blocks_put():
    sim = Simulator()
    store = Store(sim, capacity=1)
    log = []

    def producer():
        yield store.put(1)
        log.append(("put1", sim.now))
        yield store.put(2)
        log.append(("put2", sim.now))

    def consumer():
        yield sim.timeout(3.0)
        item = yield store.get()
        log.append(("got", item, sim.now))

    sim.process(producer())
    sim.process(consumer())
    sim.run()
    assert ("put1", 0.0) in log
    assert ("put2", 3.0) in log  # Second put waited for the get.


def test_store_try_put_and_try_get():
    sim = Simulator()
    store = Store(sim, capacity=2)
    assert store.try_get() is None
    assert store.try_put("x")
    assert store.try_put("y")
    assert not store.try_put("z")  # Full.
    assert store.try_get() == "x"
    assert store.try_put("z")
    assert store.try_get() == "y"
    assert store.try_get() == "z"


def test_store_len():
    sim = Simulator()
    store = Store(sim)
    assert len(store) == 0
    store.try_put(1)
    store.try_put(2)
    assert len(store) == 2


def test_store_invalid_capacity():
    sim = Simulator()
    with pytest.raises(ValueError):
        Store(sim, capacity=0)


def test_store_waiting_getter_receives_direct_put():
    sim = Simulator()
    store = Store(sim, capacity=1)
    got = []

    def consumer(tag):
        item = yield store.get()
        got.append((tag, item))

    sim.process(consumer("first"))
    sim.process(consumer("second"))

    def producer():
        yield store.put("A")
        yield store.put("B")

    sim.process(producer())
    sim.run()
    assert got == [("first", "A"), ("second", "B")]


# ----------------------------------------------------------------------
# CPU
# ----------------------------------------------------------------------


def test_cpu_consume_advances_clock_and_meters():
    sim = Simulator()
    cpu = CPU(sim)

    def proc():
        yield from cpu.consume(0.5)

    sim.run(until=sim.process(proc()))
    assert sim.now == 0.5
    assert cpu.busy_time == 0.5


def test_cpu_serializes_consumers():
    sim = Simulator()
    cpu = CPU(sim)
    done = []

    def proc(tag, cost):
        yield from cpu.consume(cost)
        done.append((tag, sim.now))

    sim.process(proc("a", 1.0))
    sim.process(proc("b", 1.0))
    sim.run()
    assert done == [("a", 1.0), ("b", 2.0)]
    assert cpu.busy_time == 2.0


def test_cpu_zero_cost_is_free():
    sim = Simulator()
    cpu = CPU(sim)

    def proc():
        yield from cpu.consume(0.0)
        yield sim.timeout(0)

    sim.run(until=sim.process(proc()))
    assert sim.now == 0.0
    assert cpu.busy_time == 0.0


def test_cpu_negative_cost_rejected():
    sim = Simulator()
    cpu = CPU(sim)

    def proc():
        with pytest.raises(ValueError):
            yield from cpu.consume(-1.0)
        yield sim.timeout(0)

    sim.run(until=sim.process(proc()))


@settings(max_examples=60, deadline=None)
@given(
    jobs=st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
            st.floats(min_value=1e-9, max_value=2.0, allow_nan=False),
        ),
        min_size=1,
        max_size=12,
    ),
    legacy=st.booleans(),
)
def test_cpu_charge_matches_fifo_recurrence(jobs, legacy):
    """Every completion time is ``end_i = max(arrive_i, end_{i-1}) +
    cost_i`` over arrival order, to the last bit."""
    sim = (LegacySimulator if legacy else Simulator)()
    cpu = CPU(sim)
    finished = {}

    def job(index, arrive, cost):
        yield sim.timeout(arrive)
        yield from cpu.consume(cost)
        finished[index] = sim.now

    for index, (arrive, cost) in enumerate(jobs):
        sim.process(job(index, arrive, cost))
    sim.run()

    expected = {}
    busy = 0.0
    end = 0.0
    # Equal arrivals are served in the order their processes started.
    for index in sorted(range(len(jobs)), key=lambda i: (jobs[i][0], i)):
        arrive, cost = jobs[index]
        end = max(arrive, end) + cost
        expected[index] = end
        busy += cost
    assert finished == expected
    assert cpu.free_at == end
    assert cpu.busy_time == busy


@pytest.mark.parametrize("engine", ENGINES)
def test_cpu_busy_time_counts_only_completed_charges(engine):
    """``busy_time`` read mid-charge excludes in-flight and queued work
    (Table 5 reads it between packets)."""
    sim = engine()
    cpu = CPU(sim)
    seen = []

    def worker(cost):
        yield from cpu.consume(cost)

    def observer():
        for t in (0.5, 1.5, 3.5):
            yield sim.timeout(t - sim.now)
            seen.append(cpu.busy_time)

    sim.process(worker(1.0))
    sim.process(worker(2.0))  # Queued behind the first: runs 1.0-3.0.
    sim.process(observer())
    sim.run()
    assert seen == [0.0, 1.0, 3.0]


@pytest.mark.parametrize("engine", ENGINES)
def test_cpu_interrupted_charge_keeps_reservation(engine):
    """A thread interrupted while its charge is pending (queued or in
    service) sees the interrupt at once, keeps its reservation so later
    charges still queue behind it, and credits no ``busy_time``."""
    sim = engine()
    cpu = CPU(sim)
    log = []

    def worker(tag, cost):
        try:
            yield from cpu.consume(cost)
        except Interrupt:
            log.append((tag, "interrupted", sim.now))
            return
        log.append((tag, "done", sim.now))

    running = sim.process(worker("a", 1.0))  # Reserves 0.0-1.0.
    queued = sim.process(worker("b", 1.0))  # Reserves 1.0-2.0.

    def interrupter():
        yield sim.timeout(0.5)
        running.interrupt("kill")
        queued.interrupt("kill")
        yield sim.timeout(0.1)
        sim.process(worker("c", 1.0))  # Queues behind both reservations.

    sim.process(interrupter())
    sim.run()
    assert log == [
        ("a", "interrupted", 0.5),
        ("b", "interrupted", 0.5),
        ("c", "done", 3.0),
    ]
    assert cpu.busy_time == 1.0
    assert cpu.free_at == 3.0


@pytest.mark.parametrize("engine", ENGINES)
def test_schedule_at_lands_on_the_exact_float(engine):
    """``schedule_at(event, t)`` fires at ``t`` itself, not at
    ``now + (t - now)``, which differs here in the last bit."""
    now, t = 0.2, 0.9
    assert now + (t - now) != t
    sim = engine()
    sim.run(until=now)
    fired = []
    absolute = sim.event()
    absolute._ok, absolute._value = True, None
    absolute.callbacks.append(lambda event: fired.append(("at", sim.now)))
    sim.schedule_at(absolute, t)
    relative = sim.event()
    relative._ok, relative._value = True, None
    relative.callbacks.append(lambda event: fired.append(("delay", sim.now)))
    sim.schedule(relative, delay=t - now)
    sim.run()
    assert sorted(fired) == [("at", t), ("delay", now + (t - now))]


@pytest.mark.parametrize("engine", ENGINES)
def test_schedule_at_rejects_the_past(engine):
    sim = engine()
    sim.run(until=1.0)
    with pytest.raises(ValueError):
        sim.schedule_at(sim.event(), 0.5)
