"""A fixed reference computation that measures how fast this machine is
running Python at the moment.

Shared machines change speed by tens of percent over seconds to minutes
as other load comes and goes.  Timing this fixed work next to each run
gives the machine's current speed; scaling the run's CPU time by it
gives CPU seconds at a fixed reference speed, which a run at another
moment can be compared with.  The work imitates the simulator's own mix:
a heap of timed events, generator coroutines resumed with ``send``,
slotted objects, dict lookups and byte slicing.  It uses no code of the
program, so a change to the program cannot change it.
"""

from __future__ import annotations

import heapq
from time import process_time

#: CPU seconds :func:`reference_work` takes at the reference speed.  It
#: sets the unit of the scaled CPU seconds: roughly this benchmark's
#: home machine (a 2-vCPU Xeon VM) in a quiet spell.
REFERENCE_SECONDS = 0.04


class _Packet:
    __slots__ = ("src", "dst", "data", "hops")

    def __init__(self, src: int, dst: int, data: bytes) -> None:
        self.src = src
        self.dst = dst
        self.data = data
        self.hops = 0


def _node(table: dict, out: list):
    """A coroutine that routes the packets sent into it."""
    while True:
        packet = yield
        packet.hops += 1
        route = table.get(packet.dst)
        if route is None:
            route = table[packet.dst] = (packet.dst * 7 + 3) % 64
        out.append((route, int.from_bytes(packet.data[:4], "big") ^ packet.hops))


def reference_work(events: int = 20_000) -> int:
    """The fixed work; returns a checksum so that none of it is dead."""
    payload = bytes(range(256)) * 4
    out: list = []
    nodes = []
    for _ in range(64):
        node = _node({}, out)
        next(node)
        nodes.append(node)
    heap = [(i * 0.5, i, i % 64) for i in range(64)]
    heapq.heapify(heap)
    seq = 64
    total = 0
    for _ in range(events):
        at, _, where = heapq.heappop(heap)
        offset = seq % 512
        nodes[where].send(_Packet(where, (where * 5 + seq) % 64, payload[offset : offset + 96]))
        route, value = out.pop()
        total = (total + value + route) & 0xFFFFFFFF
        seq += 1
        heapq.heappush(heap, (at + 1.0 + (value & 7) * 0.125, seq, route))
    return total


def speed() -> float:
    """The machine's current speed relative to the reference speed:
    scaled CPU seconds = measured CPU seconds * speed()."""
    t0 = process_time()
    reference_work()
    return REFERENCE_SECONDS / (process_time() - t0)
