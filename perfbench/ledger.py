"""Exact per-layer counts, read from the counters the layers expose.

:func:`snapshot` reads the raw cumulative counters of one world;
:func:`exact_metrics` turns two snapshots taken around the timed phase
into the per-layer ledger, normalised per delivered link frame.  Every
value is a count or a simulated quantity, so it must repeat exactly on
every run of one seed: the caller compares them across runs as a
determinism tripwire.
"""

from __future__ import annotations

from repro.net import buf
from repro.protocols.tcp.wire import TcpSegmentEncoder

#: Exact per-layer metric names with their units, in report order.
EXACT_METRICS = {
    "sim.events_per_frame": "events/frame",
    "sim.events_per_step": "events/step",
    "net.link.busy_ratio": "ratio",
    "net.link.fault_drops": "count",
    "net.fabric.queue_drops": "count",
    "net.fabric.queue_peak_bytes": "bytes",
    "net.fabric.route_cache_hit_ratio": "ratio",
    "net.buf.copied_bytes_per_frame": "bytes/frame",
    "net.buf.materialized_bytes_per_frame": "bytes/frame",
    "netio.demux_lookups_per_frame": "lookups/frame",
    "netio.demux_memo_hit_ratio": "ratio",
    "protocols.tcp.fastpath_hit_ratio": "ratio",
    "protocols.tcp.retransmits": "count",
    "protocols.tcp.template_patch_ratio": "ratio",
    "registry.conns_set_up": "count",
    "registry.sim_setup_ms": "ms",
    "timers.arms_per_frame": "arms/frame",
    "timers.wakeups_per_frame": "wakeups/frame",
}


def _flow_tables(world):
    for host in world.hosts:
        yield host.netio.flow_table
    for router in world.routers:
        for iface in router.interfaces:
            yield iface.netio.flow_table


def _route_tables(world):
    for router in world.routers:
        yield router.routes
    for host in world.hosts:
        if host.routes is not None:
            yield host.routes


def _timer_services(world):
    # Read the private slot: the public property creates the service.
    for host in world.hosts:
        service = host.kernel._timer_service
        if service is not None:
            yield service


def snapshot(world) -> dict:
    """Cumulative raw counters of ``world`` at this instant."""
    engine = world.sim.engine_stats()
    links = [link.stats for link in world.links]
    injectors = {id(link.faults): link.faults for link in world.links}.values()
    counts = {
        "events": engine["events"],
        "steps": engine["steps"],
        "frames": sum(s["frames"] for s in links),
        "link_busy": [s["busy_time"] for s in links],
        "fault_drops": sum(inj.stats["dropped"] for inj in injectors),
        "copied": buf.STATS.copied_bytes,
        "materialized": buf.STATS.materialized_bytes,
        "full_encodes": TcpSegmentEncoder.GLOBAL_STATS["full_encodes"],
        "template_patches": TcpSegmentEncoder.GLOBAL_STATS["template_patches"],
        "retransmit_reuses": TcpSegmentEncoder.GLOBAL_STATS["retransmit_reuses"],
        "conns": sum(r.stats["connects"] for r in world.registries),
    }
    queue_drops = peak = 0
    for switch in world.switches:
        for port in switch.ports:
            stats = port.queue.stats
            queue_drops += stats["dropped"] + stats["early_dropped"]
            peak = max(peak, port.queue.peak_bytes)
    for router in world.routers:
        queue_drops += router.stats["input_dropped"]
    counts["queue_drops"] = queue_drops
    counts["queue_peak"] = peak
    counts["route_hits"] = sum(t.cache_hits for t in _route_tables(world))
    counts["route_misses"] = sum(t.cache_misses for t in _route_tables(world))
    lookups = memo = 0
    for table in _flow_tables(world):
        stats = table.stats
        lookups += (
            stats["exact_hits"] + stats["wildcard_hits"]
            + stats["scan_hits"] + stats["misses"]
        )
        memo += stats["memo_hits"]
    counts["demux_lookups"] = lookups
    counts["demux_memo"] = memo
    hits = misses = retransmits = 0
    for machine in world.machines:
        stats = machine.stats
        hits += stats["fastpath_ack_hits"] + stats["fastpath_data_hits"]
        misses += stats["fastpath_misses"]
        retransmits += stats["retransmits"]
    counts["fast_hits"] = hits
    counts["fast_misses"] = misses
    counts["retransmits"] = retransmits
    arms = wakeups = 0
    for service in _timer_services(world):
        arms += service.facility._armed
        wakeups += service.wakeups
    counts["timer_arms"] = arms
    counts["timer_wakeups"] = wakeups
    return counts


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def exact_metrics(before: dict, after: dict, world) -> dict:
    """The exact ledger of the window between two snapshots.

    TCP machines created during the window start from zero, so counts
    summed over ``world.machines`` are deltas as long as ``before`` was
    taken over the machines alive then.
    """
    d = {key: after[key] - before[key] for key in after if key not in ("link_busy", "queue_peak")}
    frames = d["frames"]
    window = world.t_end - world.t_start
    busy = max(
        (b - a for a, b in zip(before["link_busy"], after["link_busy"])), default=0.0
    )
    encodes = d["full_encodes"] + d["template_patches"] + d["retransmit_reuses"]
    setup = world.connect_times
    return {
        "sim.events_per_frame": _ratio(d["events"], frames),
        "sim.events_per_step": _ratio(d["events"], d["steps"]),
        "net.link.busy_ratio": _ratio(busy, window),
        "net.link.fault_drops": d["fault_drops"],
        "net.fabric.queue_drops": d["queue_drops"],
        "net.fabric.queue_peak_bytes": after["queue_peak"],
        "net.fabric.route_cache_hit_ratio": _ratio(
            d["route_hits"], d["route_hits"] + d["route_misses"]
        ),
        "net.buf.copied_bytes_per_frame": _ratio(d["copied"], frames),
        "net.buf.materialized_bytes_per_frame": _ratio(d["materialized"], frames),
        "netio.demux_lookups_per_frame": _ratio(d["demux_lookups"], frames),
        "netio.demux_memo_hit_ratio": _ratio(d["demux_memo"], d["demux_lookups"]),
        "protocols.tcp.fastpath_hit_ratio": _ratio(
            d["fast_hits"], d["fast_hits"] + d["fast_misses"]
        ),
        "protocols.tcp.retransmits": d["retransmits"],
        "protocols.tcp.template_patch_ratio": _ratio(d["template_patches"], encodes),
        "registry.conns_set_up": d["conns"],
        "registry.sim_setup_ms": _ratio(sum(setup), len(setup)) * 1e3,
        "timers.arms_per_frame": _ratio(d["timer_arms"], frames),
        "timers.wakeups_per_frame": _ratio(d["timer_wakeups"], frames),
    }
