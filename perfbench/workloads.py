"""The benchmark's three workloads.

Each workload turns a seed into fixed inputs (:meth:`Workload.__init__`),
builds a fresh simulated world from them (:meth:`Workload.build`), runs a
warm-up phase inside that world (:meth:`World.warm_up`) and then the timed
phase (:meth:`World.run_timed`).  Build plus warm-up is set-up; only the
timed phase is charged to the speed metrics.  Afterwards
:meth:`World.outcome` checks every operation's output and summarises the
simulated result.

The program under test receives only the generated inputs: payload bytes,
flow pairs, send phases, fault seeds.  Nothing here reaches into the stack
beyond its public construction and socket-style APIs.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from dataclasses import dataclass, field

from repro.net.faults import FaultInjector
from repro.net.fabric import fat_tree
from repro.net.headers import PROTO_UDP
from repro.protocols.tcp import TcpConfig
from repro.protocols.udp import encode_datagram
from repro.sim import Simulator
from repro.testbed import IP_B, FabricTestbed, Testbed


@dataclass
class Outcome:
    """What one timed phase did in simulated terms, checked."""

    attempted: int
    verified: int
    #: Simulated latency of each attempted operation, seconds.
    latencies: list
    #: Simulated length of the timed phase, seconds.
    sim_seconds: float
    #: Useful payload bytes delivered over ``goodput_seconds``, the
    #: steady part of the timed phase.
    goodput_bytes: int
    goodput_seconds: float
    #: Human-readable reasons for any failed check.
    errors: list = field(default_factory=list)
    #: sha256 over delivered bytes, end time and per-flow completion times.
    digest: str = ""


class World:
    """One built simulated world; subclasses implement the phases."""

    def __init__(self, sim) -> None:
        self.sim = sim
        #: Simulated time the timed phase started and ended.
        self.t_start = 0.0
        self.t_end = 0.0
        #: TCP machines the workload's connections run (for counters).
        self.machines: list = []
        #: Simulated connect() durations of timed connections, seconds.
        self.connect_times: list = []
        #: Called with an operation id when an operation starts; set by
        #: the traced run to tag spans, ``None`` otherwise.
        self.on_op = None

    # Subclasses also set ``hosts``, ``links``, ``switches``, ``routers``
    # and ``registries``: the parts the counter harvest walks.

    def warm_up(self) -> None:
        raise NotImplementedError

    def run_timed(self) -> None:
        raise NotImplementedError

    def outcome(self) -> Outcome:
        raise NotImplementedError


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(repr(part).encode())
        h.update(b"\x00")
    return h.hexdigest()


# ----------------------------------------------------------------------
# table2_bulk: the paper's Table 2 transfer
# ----------------------------------------------------------------------


class Table2Bulk:
    """Two userlib hosts on 10 Mb/s Ethernet; one ttcp-style transfer.

    The sender writes chunks of 3.5 to 4.5 KB (4 KB on average) as fast
    as the window allows (closed loop).  The first ``WARM_WRITES`` writes
    cover connection set-up, ARP and slow start and are set-up; the rest
    are the timed operations.  An operation's latency runs from its write
    call to the moment the receiver holds its last byte.
    """

    name = "table2_bulk"
    CHUNK = (3584, 4609)
    WARM_WRITES = 16
    TIMED_WRITES = 1024
    #: Goodput leaves out the last writes: the final sub-MSS segment can
    #: wait out Nagle plus a delayed ACK, depending on the length.
    TAIL_WRITES = 8
    PORT = 5001

    def __init__(self, seed: int) -> None:
        rng = random.Random(f"{self.name}:{seed}")
        sizes = [rng.randrange(*self.CHUNK) for _ in range(self.WARM_WRITES + self.TIMED_WRITES)]
        #: ends[i]: stream offset just past write i.
        self.ends = list(itertools.accumulate(sizes))
        self.payload = rng.randbytes(self.ends[-1])

    def build(self) -> "_Table2World":
        return _Table2World(self)


class _Table2World(World):
    def __init__(self, spec: Table2Bulk) -> None:
        self.spec = spec
        self.bed = Testbed(network="ethernet", organization="userlib")
        super().__init__(self.bed.sim)
        self.hosts = self.bed.hosts
        self.links = self.bed.links
        self.registries = self.bed.registries
        self.switches = self.routers = []
        n_writes = len(spec.ends)
        self.write_start = [0.0] * n_writes
        self.write_done = [0.0] * n_writes
        self.received = 0
        self.mismatch_at = None
        self.received_at_warm = 0
        self.warm = self.sim.event()
        self._rx = self.bed.spawn(self._receiver(), name="bulk-rx")
        self.bed.spawn(self._sender(), name="bulk-tx")

    def _sender(self):
        spec = self.spec
        conn = yield from self.bed.service_a.connect(IP_B, spec.PORT)
        self.machines.append(conn.runner.machine)
        view = memoryview(spec.payload)
        start = 0
        for i, end in enumerate(spec.ends):
            if self.on_op is not None:
                self.on_op(i)
            self.write_start[i] = self.sim.now
            yield from conn.send(bytes(view[start:end]))
            start = end
        yield from conn.close()

    def _receiver(self):
        spec = self.spec
        listener = yield from self.bed.service_b.listen(spec.PORT)
        conn = yield from listener.accept()
        self.machines.append(conn.runner.machine)
        expected = memoryview(spec.payload)
        ends = spec.ends
        warm_bytes = ends[spec.WARM_WRITES - 1]
        done = 0
        while True:
            data = yield from conn.recv(4096)
            if not data:
                break
            start = self.received
            self.received += len(data)
            if self.mismatch_at is None and expected[start : self.received] != data:
                self.mismatch_at = start
            # Every write whose last byte just arrived is complete.
            while done < len(ends) and ends[done] <= self.received:
                self.write_done[done] = self.sim.now
                done += 1
            if not self.warm.triggered and self.received >= warm_bytes:
                self.received_at_warm = self.received
                self.warm.succeed()
        yield from conn.close()

    def warm_up(self) -> None:
        self.bed.run(until=self.warm)
        self.t_start = self.sim.now

    def run_timed(self) -> None:
        self.bed.run(until=self._rx)
        self.t_end = self.sim.now

    def outcome(self) -> Outcome:
        spec = self.spec
        first = spec.WARM_WRITES
        total = len(spec.payload)
        good_bytes = total if self.mismatch_at is None else self.mismatch_at
        errors = []
        if self.received != total:
            errors.append(f"received {self.received} of {total} bytes")
        if self.mismatch_at is not None:
            errors.append(f"stream differs from the sent bytes at offset {self.mismatch_at}")
        intact = min(good_bytes, self.received)
        timed = range(first, len(spec.ends))
        verified = sum(1 for i in timed if spec.ends[i] <= intact)
        latencies = [self.write_done[i] - self.write_start[i] for i in timed]
        steady = len(spec.ends) - spec.TAIL_WRITES - 1
        return Outcome(
            attempted=spec.TIMED_WRITES,
            verified=verified,
            latencies=latencies,
            sim_seconds=self.t_end - self.t_start,
            goodput_bytes=spec.ends[steady] - self.received_at_warm,
            goodput_seconds=self.write_done[steady] - self.t_start,
            errors=errors,
            digest=_digest(self.received, self.t_end, self.write_done),
        )


# ----------------------------------------------------------------------
# fattree128_udp: open-loop UDP over a k=8 fat-tree
# ----------------------------------------------------------------------


class FatTree128Udp:
    """128 hosts on a k=8 fat-tree, one periodic UDP sender per host.

    Each host sends small datagrams (56 to 72 payload bytes, 64 on
    average) to one host in another pod; the pairing is a seeded
    permutation, so every host also receives one flow.  Sending is open
    loop: datagram ``j`` of a flow is due at ``j * PERIOD`` plus the
    flow's slot in period ``j``, whether or not earlier sends were late.
    Each period spreads the flows over evenly spaced slots in a fresh
    seeded order, so the modelled fabric drops nothing and contention
    differs from period to period.  Latency runs from the due time to
    delivery.  The kernel UDP path is used: no TCP, library or registry
    code runs.
    """

    name = "fattree128_udp"
    K = 8
    PORT = 9000
    PAYLOAD = (56, 73)
    PERIOD = 16e-3
    DATAGRAMS = 12

    def __init__(self, seed: int) -> None:
        rng = random.Random(f"{self.name}:{seed}")
        hosts = self.K * (self.K // 2) * (self.K // 2)
        per_pod = hosts // self.K
        # Pod p sends to pod pods[p] != p, host n of a pod to host
        # targets[n] of that pod.
        pods = list(range(self.K))
        while any(p == q for p, q in enumerate(pods)):
            rng.shuffle(pods)
        self.flows = []
        for pod in range(self.K):
            targets = rng.sample(range(per_pod), per_pod)
            for n in range(per_pod):
                self.flows.append((pod * per_pod + n, pods[pod] * per_pod + targets[n]))
        # due[f][j]: when datagram j of flow f is due, from the start of
        # the phase.  Index DATAGRAMS is the warm-up datagram.
        self.due = [[0.0] * (self.DATAGRAMS + 1) for _ in range(hosts)]
        for j in range(self.DATAGRAMS + 1):
            order = rng.sample(range(hosts), hosts)
            for slot, flow in enumerate(order):
                period = j % self.DATAGRAMS
                self.due[flow][j] = (period + slot / hosts) * self.PERIOD
        # Datagram j of flow f carries (f, j) and seeded filler bytes.
        self.payloads = [
            [
                f.to_bytes(2, "big") + j.to_bytes(2, "big")
                + rng.randbytes(rng.randrange(*self.PAYLOAD) - 4)
                for j in range(self.DATAGRAMS + 1)
            ]
            for f in range(hosts)
        ]

    def build(self) -> "_FatTreeWorld":
        return _FatTreeWorld(self)


class _FatTreeWorld(World):
    def __init__(self, spec: FatTree128Udp) -> None:
        super().__init__(Simulator())
        self.spec = spec
        self.topo = fat_tree(self.sim, k=spec.K)
        self.hosts = self.topo.hosts
        self.links = self.topo.links
        self.switches = self.topo.switches
        self.routers = self.topo.routers
        self.registries = []
        n = len(spec.flows)
        self.sent = [0] * n
        self.arrivals = [[None] * (spec.DATAGRAMS + 1) for _ in range(n)]
        self.corrupt = 0
        self.strays = 0
        for host in self.hosts:
            host.udp_ports.bind(spec.PORT, self._on_datagram)

    def _on_datagram(self, datagram) -> None:
        payload = bytes(datagram.payload)
        flow = int.from_bytes(payload[:2], "big")
        seq = int.from_bytes(payload[2:4], "big")
        spec = self.spec
        if flow >= len(spec.flows) or seq > spec.DATAGRAMS:
            self.strays += 1
            return
        if payload != spec.payloads[flow][seq]:
            self.corrupt += 1
            return
        if self.arrivals[flow][seq] is not None:
            self.strays += 1  # A duplicate: the fabric has no faults.
            return
        self.arrivals[flow][seq] = self.sim.now

    def _sender(self, flow: int, seqs, start: float):
        spec = self.spec
        src_i, dst_i = spec.flows[flow]
        src = self.hosts[src_i]
        dst_ip = self.hosts[dst_i].ip
        sport = spec.PORT + 1
        for seq in seqs:
            due = start + spec.due[flow][seq]
            if due > self.sim.now:
                yield self.sim.timeout(due - self.sim.now)
            if self.on_op is not None:
                self.on_op(flow * (spec.DATAGRAMS + 1) + seq)
            datagram = encode_datagram(
                sport, spec.PORT, spec.payloads[flow][seq], src.ip, dst_ip
            )
            self.sent[flow] += 1
            yield from src.ip_send(dst_ip, PROTO_UDP, datagram)

    def warm_up(self) -> None:
        """One datagram per flow: ARP at hosts and routers, route caches."""
        warm = self.spec.DATAGRAMS
        for flow in range(len(self.spec.flows)):
            self.sim.process(self._sender(flow, [warm], 0.0), name=f"warm-{flow}")
        self.sim.run()
        self.t_start = self.sim.now

    def run_timed(self) -> None:
        spec = self.spec
        start = self._start = self.sim.now
        for flow in range(len(spec.flows)):
            self.sim.process(
                self._sender(flow, range(spec.DATAGRAMS), start), name=f"flow-{flow}"
            )
        self.sim.run()
        self.t_end = self.sim.now

    def drops(self) -> int:
        """Frames a queue, router or link discarded."""
        total = 0
        for switch in self.switches:
            for port in switch.ports:
                stats = port.queue.stats
                total += stats["dropped"] + stats["early_dropped"]
        for router in self.routers:
            stats = router.stats
            total += (
                stats["input_dropped"] + stats["no_route"]
                + stats["ttl_expired"] + stats["arp_failed"]
            )
        for injector in {id(link.faults): link.faults for link in self.links}.values():
            total += injector.stats["dropped"]
        return total

    def outcome(self) -> Outcome:
        spec = self.spec
        timed = range(spec.DATAGRAMS)
        attempted = len(spec.flows) * spec.DATAGRAMS
        delivered = sum(
            1 for row in self.arrivals for seq in timed if row[seq] is not None
        )
        sent = sum(self.sent)
        drops = self.drops()
        errors = []
        if sent != attempted + len(spec.flows):
            errors.append(f"sent {sent} datagrams, expected {attempted + len(spec.flows)}")
        if self.corrupt or self.strays:
            errors.append(f"{self.corrupt} corrupt and {self.strays} stray datagrams")
        all_delivered = sum(1 for row in self.arrivals for t in row if t is not None)
        if sent != all_delivered + drops:
            errors.append(
                f"sent {sent} != delivered {all_delivered} + counted drops {drops}"
            )
        latencies = []
        for flow in range(len(spec.flows)):
            for seq in timed:
                at = self.arrivals[flow][seq]
                if at is not None:
                    latencies.append(at - (self._start + spec.due[flow][seq]))
        completion = [max((t for t in row if t is not None), default=None)
                      for row in self.arrivals]
        last = max((t for t in completion if t is not None), default=self._start)
        return Outcome(
            attempted=attempted,
            verified=delivered,
            latencies=latencies,
            sim_seconds=self.t_end - self.t_start,
            goodput_bytes=sum(
                len(spec.payloads[flow][seq])
                for flow, row in enumerate(self.arrivals)
                for seq in timed
                if row[seq] is not None
            ),
            goodput_seconds=last - self._start,
            errors=errors,
            digest=_digest(delivered, self.t_end, completion),
        )


# ----------------------------------------------------------------------
# dumbbell_churn_faulted: short connections over a faulted trunk
# ----------------------------------------------------------------------


class DumbbellChurnFaulted:
    """Eight userlib client/server pairs across a lossy 10 Mb/s trunk.

    Each client runs one transaction at a time (closed loop): connect
    through the registry, send a request, read the response, close.
    The clients take transactions from one shared list, so a client
    stalled on a loss does not hold the others up and the run ends when
    the list is done.  The trunk drops and duplicates frames, so
    handshakes, retransmissions, RTO and TIME_WAIT all run.  One
    warm-up transaction per client is set-up.  Latency runs from the
    connect call to the last response byte.
    """

    name = "dumbbell_churn_faulted"
    PAIRS = 8
    TRANSACTIONS = 1024
    #: Request and response sizes are drawn per transaction from these
    #: ranges (means 64 and 512 bytes).
    REQUEST = (32, 96)
    RESPONSE = (384, 640)
    PORT = 7000
    DROP = 0.005
    DUPLICATE = 0.01
    #: Corruption stays off: a bit flip in a SYN's source MAC makes the
    #: registry answer a MAC that does not exist, and that connect times
    #: out after 75 s (see the README).
    CORRUPT = 0.0
    #: The injector's own seed is fixed: every seed sees losses at the
    #: same positions of the trunk's frame sequence, and the seed decides
    #: which transactions they hit.
    FAULT_SEED = 1993
    #: Retransmission timers scaled to the dumbbell's few-millisecond
    #: RTT (the delayed ACK stays below the RTO floor): a lost frame
    #: costs a few transactions' time rather than the BSD 1 s floor.
    CONFIG = TcpConfig(min_rto=0.05, initial_rto=0.1, delack_time=0.02)

    def __init__(self, seed: int) -> None:
        rng = random.Random(f"{self.name}:{seed}")
        # Request j starts with j and the response size it asks for.
        # Requests 0..PAIRS-1 are the warm-up transactions.
        self.requests = [
            j.to_bytes(2, "big")
            + rng.randrange(*self.RESPONSE).to_bytes(2, "big")
            + rng.randbytes(rng.randrange(*self.REQUEST) - 4)
            for j in range(self.PAIRS + self.TRANSACTIONS)
        ]

    @staticmethod
    def response_size(request: bytes) -> int:
        return int.from_bytes(request[2:4], "big")

    @classmethod
    def response_to(cls, request: bytes) -> bytes:
        size = cls.response_size(request)
        block = hashlib.sha256(request).digest()
        return (block * (size // len(block) + 1))[:size]

    def build(self) -> "_DumbbellWorld":
        return _DumbbellWorld(self)


class _DumbbellWorld(World):
    def __init__(self, spec: DumbbellChurnFaulted) -> None:
        self.spec = spec
        faults = FaultInjector(
            drop_rate=spec.DROP,
            corrupt_rate=spec.CORRUPT,
            duplicate_rate=spec.DUPLICATE,
            seed=spec.FAULT_SEED,
        )
        self.bed = FabricTestbed(
            kind="dumbbell", organization="userlib", config=spec.CONFIG,
            faults=faults, pairs=spec.PAIRS,
        )
        super().__init__(self.bed.sim)
        self.hosts = self.bed.hosts
        self.links = self.bed.links
        self.switches = self.bed.switches
        self.routers = []
        self.registries = self.bed.registries
        n = len(spec.requests)
        self.started = [0.0] * n
        self.finished = [None] * n
        self.bad_requests = 0
        self.failures: list = []
        for i in range(spec.PAIRS):
            self.bed.spawn(self._server(i), name=f"server-{i}")

    def _server(self, i: int):
        spec = self.spec
        listener = yield from self.bed.server_services[i].listen(spec.PORT)
        while True:
            conn = yield from listener.accept()
            self.machines.append(conn.runner.machine)
            head = yield from conn.recv_exactly(2)
            j = int.from_bytes(head, "big")
            if j >= len(spec.requests):
                self.bad_requests += 1
                j = 0
            rest = yield from conn.recv_exactly(len(spec.requests[j]) - 2)
            request = head + rest
            if request != spec.requests[j]:
                self.bad_requests += 1
            yield from conn.send(spec.response_to(request))
            yield from conn.close()

    def _client(self, i: int, jobs):
        spec = self.spec
        service = self.bed.client_services[i]
        server_ip = self.bed.topology.servers[i].ip
        for j in jobs:
            if self.on_op is not None:
                self.on_op(j)
            request = spec.requests[j]
            t0 = self.started[j] = self.sim.now
            try:
                conn = yield from service.connect(server_ip, spec.PORT)
                if j >= spec.PAIRS:
                    self.connect_times.append(self.sim.now - t0)
                self.machines.append(conn.runner.machine)
                yield from conn.send(request)
                response = yield from conn.recv_exactly(spec.response_size(request))
            except (ConnectionError, OSError) as exc:
                self.failures.append(f"transaction {j} from client {i}: {exc}")
                continue
            if response == spec.response_to(request):
                self.finished[j] = self.sim.now
            else:
                self.failures.append(f"transaction {j} from client {i}: wrong response")
            yield from conn.close()

    def warm_up(self) -> None:
        procs = [
            self.bed.spawn(self._client(i, [i]), name=f"warm-{i}")
            for i in range(self.spec.PAIRS)
        ]
        self.bed.run(until=self.sim.all_of(procs))
        self.t_start = self.sim.now

    def run_timed(self) -> None:
        # One shared iterator: each free client takes the next request.
        jobs = iter(range(self.spec.PAIRS, len(self.spec.requests)))
        procs = [
            self.bed.spawn(self._client(i, jobs), name=f"client-{i}")
            for i in range(self.spec.PAIRS)
        ]
        self.bed.run(until=self.sim.all_of(procs))
        self.t_end = self.sim.now

    def outcome(self) -> Outcome:
        spec = self.spec
        timed = range(spec.PAIRS, len(spec.requests))
        latencies = []
        verified = payload = 0
        for j in timed:
            done = self.finished[j]
            if done is not None:
                request = spec.requests[j]
                verified += 1
                payload += len(request) + spec.response_size(request)
                latencies.append(done - self.started[j])
        errors = list(self.failures[:5])
        if self.bad_requests:
            errors.append(f"{self.bad_requests} requests arrived altered")
        return Outcome(
            attempted=spec.TRANSACTIONS,
            verified=verified - self.bad_requests,
            latencies=latencies,
            sim_seconds=self.t_end - self.t_start,
            goodput_bytes=payload,
            goodput_seconds=self.t_end - self.t_start,
            errors=errors,
            digest=_digest(verified, self.t_end, self.finished),
        )


WORKLOADS = {
    cls.name: cls for cls in (Table2Bulk, FatTree128Udp, DumbbellChurnFaulted)
}
