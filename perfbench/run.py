"""The repository benchmark: simulator speed on three fixed workloads.

Usage, from the repository root::

    python3 perfbench/run.py --workload table2_bulk --seed 1 --seconds 30 --trace 0

One invocation measures one workload in this fresh process.  It repeats
the workload (build, warm-up, timed phase) until the timed phases have
used ``--seconds`` of process CPU time, checks every run's outputs, and
prints the metrics as one JSON object on the last line of stdout.  CPU
times are reported at a fixed reference speed (see ``calibrate.py``).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` reports the
per-layer ledger instead: the exact counts of the untraced runs, then one
more run with per-layer spans and the simulated-time profiler on, whose
spans are written to ``.perfbench/trace-<workload>-<seed>.jsonl``.

``--plant LAYER:ENTRY:MICROSECONDS`` adds a fixed busy cost to one entry
point for the whole invocation; the benchmark's self-test uses it.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from time import process_time

#: The checkout root.  main() puts its src/ on the path before anything
#: imports the program, which is why the program's modules (and the
#: benchmark's, which import it) are imported inside functions here.
ROOT = Path(__file__).resolve().parent.parent

#: At least this many runs per invocation, whatever ``--seconds`` says:
#: set-up time is a median over runs.
MIN_RUNS = 3
#: Every run must give at least this many latency samples, so that at
#: least ten lie beyond the 99th percentile.
MIN_SAMPLES = 1000

END_TO_END = {
    "frames_per_cpu_s": "frames/s",
    "cpu_s_per_sim_s": "s/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ops_completed_ratio": "ratio",
    "sim_goodput_mbps": "Mb/s",
    "sim_latency_p50_ms": "ms",
    "sim_latency_p99_ms": "ms",
}


@dataclass
class Run:
    #: Set-up and timed-phase CPU seconds, at the reference speed.
    setup_s: float
    cpu_s: float
    #: Reference seconds per measured CPU second during this run.
    scale: float
    frames: int
    outcome: object
    exact: dict
    tracer: object = None
    profile: object = None


def percentile(sorted_values: list, p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(p / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def run_once(spec, tracer=None) -> Run:
    """Build, warm up and time one world of ``spec``.

    CPU times are scaled to the reference speed of :mod:`calibrate`,
    measured just before and just after the run.
    """
    from repro.obs import profile

    import calibrate
    import ledger

    gc.collect()
    speed = calibrate.speed()
    t0 = process_time()
    world = spec.build()
    world.warm_up()
    setup = process_time() - t0
    before = ledger.snapshot(world)
    gc.collect()
    profiler = None
    if tracer is not None:
        world.on_op = tracer.op_hook(world.sim)
        profiler = profile.enable()
        tracer.reset()
        tracer.recording = True
    t1 = process_time()
    try:
        world.run_timed()
    finally:
        cpu = process_time() - t1
        if tracer is not None:
            tracer.recording = False
            profile.disable()
    scale = (speed + calibrate.speed()) / 2
    after = ledger.snapshot(world)
    outcome = world.outcome()
    exact = ledger.exact_metrics(before, after, world)
    frames = after["frames"] - before["frames"]
    return Run(setup * scale, cpu * scale, scale, frames, outcome, exact, tracer, profiler)


def check(runs: list, reference: Run, label: str) -> tuple[int, list]:
    """Failed operations and reasons over ``runs``.

    A run fails the operations its own checks failed; a run whose
    simulated-outcome digest or exact counters differ from
    ``reference`` (same seed, so they must not) fails all of them.
    """
    failed = 0
    reasons = []
    for index, run in enumerate(runs):
        out = run.outcome
        failed_here = out.attempted - out.verified
        reasons += [f"{label} run {index}: {e}" for e in out.errors]
        if len(out.latencies) < MIN_SAMPLES:
            reasons.append(f"{label} run {index}: {len(out.latencies)} latency samples")
        if out.digest != reference.outcome.digest:
            failed_here = out.attempted
            reasons.append(f"{label} run {index}: simulated outcome differs")
        if run.exact != reference.exact:
            failed_here = out.attempted
            changed = sorted(k for k in run.exact if run.exact[k] != reference.exact[k])
            reasons.append(f"{label} run {index}: exact counters differ: {changed}")
        failed += failed_here
    return failed, reasons


def end_to_end(runs: list) -> dict:
    """The end-to-end metrics of one invocation.

    The speed metrics pool every run's timed phase: frames and simulated
    seconds over the CPU seconds of all of them.
    """
    first = runs[0].outcome
    cpu = sum(r.cpu_s for r in runs)
    latencies = sorted(first.latencies)
    attempted = sum(r.outcome.attempted for r in runs)
    verified = sum(r.outcome.verified for r in runs)
    return {
        "frames_per_cpu_s": sum(r.frames for r in runs) / cpu,
        "cpu_s_per_sim_s": cpu / sum(r.outcome.sim_seconds for r in runs),
        "setup_s": statistics.median(r.setup_s for r in runs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ops_completed_ratio": verified / attempted,
        "sim_goodput_mbps": first.goodput_bytes * 8 / first.goodput_seconds / 1e6,
        "sim_latency_p50_ms": percentile(latencies, 50) * 1e3,
        "sim_latency_p99_ms": percentile(latencies, 99) * 1e3,
    }


def per_layer(reference: Run, traced: Run, untraced_cpu: float) -> dict:
    import ledger
    import layertrace

    frames = traced.frames
    metrics = {name: (reference.exact[name], unit) for name, unit in ledger.EXACT_METRICS.items()}
    for layer, (calls, self_s) in traced.tracer.layers.items():
        metrics[f"{layer}.calls_per_frame"] = (calls / frames, "calls/frame")
        metrics[f"{layer}.self_us_per_frame"] = (self_s * 1e6 / frames, "us/frame")
    model = dict.fromkeys(sorted(set(layertrace.PROFILE_SITES.values())), 0.0)
    for row in traced.profile.report():
        layer = layertrace.PROFILE_SITES.get(row.site.split(".", 1)[0])
        if layer is not None:
            model[layer] += row.sim_seconds
    for layer, seconds in model.items():
        metrics[f"model.{layer}_sim_us_per_frame"] = (seconds * 1e6 / frames, "us/frame")
    metrics["trace.overhead_ratio"] = (traced.cpu_s / untraced_cpu, "ratio")
    return metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--plant", help="LAYER:ENTRY:MICROSECONDS busy cost")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import layertrace
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.plant:
        layer, entry, micros = args.plant.split(":")
        layertrace.plant(layer, entry, float(micros) * 1e-6)

    spec = WORKLOADS[args.workload](args.seed)
    runs = []
    timed = 0.0
    while len(runs) < MIN_RUNS or timed < args.seconds:
        run = run_once(spec)
        runs.append(run)
        timed += run.cpu_s / run.scale
    reference = runs[0]
    failed, reasons = check(runs, reference, "untraced")
    attempted = sum(r.outcome.attempted for r in runs)

    if args.trace:
        tracer = layertrace.Tracer()
        tracer.install()
        try:
            traced = run_once(spec, tracer)
        finally:
            tracer.uninstall()
        more_failed, more_reasons = check([traced], reference, "traced")
        failed += more_failed
        reasons += more_reasons
        attempted += traced.outcome.attempted
        out_dir = ROOT / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"trace-{args.workload}-{args.seed}.jsonl")
        untraced_cpu = statistics.median(r.cpu_s for r in runs)
        metrics = per_layer(reference, traced, untraced_cpu)
    else:
        metrics = {name: (value, END_TO_END[name]) for name, value in end_to_end(runs).items()}

    for reason in reasons:
        print(f"check failed: {reason}")
    print(
        f"{args.workload} seed {args.seed}: {len(runs)} runs, "
        f"{len(reference.outcome.latencies)} latency samples per run, "
        f"{reference.frames} frames per run, timed CPU {timed:.2f} s; per run, "
        f"reference CPU s x speed: {' '.join(f'{r.cpu_s:.2f}x{r.scale:.2f}' for r in runs)}"
    )
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:>14.6g} {unit}")
    result = {
        "correct": not reasons and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
