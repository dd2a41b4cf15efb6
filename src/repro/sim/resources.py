"""Shared-resource primitives built on the event engine.

Two primitives cover everything the substrate needs:

* :class:`Store` — an unbounded-or-bounded FIFO of items; the universal
  mailbox/queue used by NICs, IPC, and device drivers.
* :class:`CPU` — a host processor, so that protocol processing,
  application work, and interrupt handling contend for cycles.  A
  charge is closed-form: it starts at ``max(now, free_at)``, ends
  ``cost`` later, and costs one engine event — the completion time a
  capacity-1, non-preemptive FIFO queue would give, without a
  claim/grant/release round trip.  A thread interrupted while its
  charge is pending keeps the reservation (the time stays spent) and
  does not credit ``busy_time``.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Generator

from .engine import Simulator
from .events import PENDING, Event


class StorePut(Event):
    """Request to place ``item`` into a store."""

    __slots__ = ("item",)

    def __init__(self, store: "Store", item: Any) -> None:
        self.sim = store.sim
        self.callbacks = []
        self._value = PENDING
        self._ok = None
        self._cancelled = False
        self.item = item
        store._put_queue.append(self)
        store._trigger()


class StoreGet(Event):
    """Request to take the next item out of a store."""

    __slots__ = ()

    def __init__(self, store: "Store") -> None:
        self.sim = store.sim
        self.callbacks = []
        self._value = PENDING
        self._ok = None
        self._cancelled = False
        store._get_queue.append(self)
        store._trigger()


class Store:
    """A FIFO of items with event-based put/get.

    ``capacity`` bounds the number of buffered items; puts beyond the
    bound block until space frees.  The default is unbounded.
    """

    def __init__(self, sim: Simulator, capacity: float = float("inf")) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.sim = sim
        self.capacity = capacity
        self.items: Deque[Any] = deque()
        self._put_queue: Deque[StorePut] = deque()
        self._get_queue: Deque[StoreGet] = deque()

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> StorePut:
        """Event that fires when ``item`` has entered the store."""
        return StorePut(self, item)

    def get(self) -> StoreGet:
        """Event that fires with the next item."""
        return StoreGet(self)

    def try_put(self, item: Any) -> bool:
        """Non-blocking put; returns False if the store is full."""
        if len(self.items) >= self.capacity and not self._get_queue:
            return False
        StorePut(self, item)
        return True

    def try_get(self) -> Any:
        """Non-blocking get; returns None if the store is empty."""
        if not self.items:
            return None
        item = self.items.popleft()
        self._trigger()
        return item

    def _trigger(self) -> None:
        items = self.items
        put_queue = self._put_queue
        get_queue = self._get_queue
        capacity = self.capacity
        while True:
            progressed = False
            while put_queue and len(items) < capacity:
                put = put_queue.popleft()
                items.append(put.item)
                put.succeed()
                progressed = True
            while get_queue and items:
                get_queue.popleft().succeed(items.popleft())
                progressed = True
            if not progressed:
                return


class CPU:
    """A host processor: one FIFO, non-preemptive server plus a cost meter.

    All costed work on a host funnels through :meth:`charge` (or its
    generator wrapper :meth:`consume`), so concurrent activities
    (interrupt handling, protocol processing, application copies)
    serialize exactly as they would on the paper's uniprocessor
    DECstations.

    Charges are computed in closed form rather than by granting and
    releasing a held unit: a charge issued at ``now`` starts at
    ``max(now, free_at)``, ends at ``start + cost``, and moves
    ``free_at`` to that end.  That is the completion time a capacity-1
    FIFO queue produces, reached with one engine event per charge.
    """

    def __init__(self, sim: Simulator, name: str = "cpu") -> None:
        self.sim = sim
        self.name = name
        #: Simulated time at which the last reserved charge completes.
        self.free_at = 0.0
        #: Seconds of *completed* charges (credited by the charging
        #: thread when its charge ends, never at reservation).
        self.busy_time = 0.0

    @property
    def utilization_time(self) -> float:
        """Total simulated seconds this CPU has spent busy."""
        return self.busy_time

    def charge(self, cost: float) -> Event:
        """Reserve ``cost`` seconds of CPU; the returned event fires when
        the charge completes.

        The caller yields the event and then credits
        ``busy_time += cost``; :meth:`consume` is that pattern.  A thread
        interrupted while its charge is pending keeps its reservation
        (the CPU time stays spent, later charges still queue behind it)
        but never credits ``busy_time``.
        """
        if cost < 0:
            raise ValueError(f"negative cost {cost}")
        sim = self.sim
        now = sim._now
        free_at = self.free_at
        end = self.free_at = (free_at if free_at > now else now) + cost
        done = Event(sim)
        done._ok = True
        done._value = None
        sim.schedule_at(done, end)
        return done

    def consume(self, cost: float) -> Generator[Event, Any, None]:
        """Generator: occupy the CPU for ``cost`` seconds.

        Usage inside a process::

            yield from host.cpu.consume(costs.trap)
        """
        if cost == 0.0:
            return
        yield self.charge(cost)
        self.busy_time += cost
