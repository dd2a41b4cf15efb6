"""Self-test: the benchmark measures the layers it claims to.

Each check runs ``perfbench/run.py`` in fresh processes, some with a busy
cost planted in one entry point through the tracer's wrapping, and
asserts which workloads' metrics move beyond the benchmark's own bounds.
Run from the repository root (about six minutes)::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
RUN = BENCH / "run.py"
BOUNDS = {
    m["name"]: m["bound"]
    for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
}
#: The fixed costs planted per call: large enough to move the workload
#: that runs the entry point far past the bound.
FABRIC = "net.fabric:Switch._ingress:300"
TCP = "protocols.tcp:TcpMachine.fast_input:200"


def bench(workload: str, trace: int = 0, plant: str = None, seconds: float = 2) -> dict:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", "7",
           "--seconds", str(seconds), "--trace", str(trace)]
    if plant:
        cmd += ["--plant", plant]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"], done.stdout
    assert result["failed"] == 0
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def interleaved_fps(workload: str, plant: str, pairs: int = 3, seconds: float = 5) -> tuple[float, float]:
    """Median frames_per_cpu_s without and with ``plant``, alternating."""
    base, planted = [], []
    for _ in range(pairs):
        base.append(bench(workload, seconds=seconds)["frames_per_cpu_s"])
        planted.append(bench(workload, plant=plant, seconds=seconds)["frames_per_cpu_s"])
    return statistics.median(base), statistics.median(planted)


@pytest.fixture(scope="module")
def layers():
    """Per-layer ledgers of the untouched program, by workload."""
    return {w: bench(w, trace=1, seconds=1) for w in ("table2_bulk", "fattree128_udp")}


def test_workloads_separate_the_layers(layers):
    fattree = layers["fattree128_udp"]
    for layer in ("protocols.tcp", "org", "registry"):
        assert fattree[f"{layer}.calls_per_frame"] == 0, layer
    assert layers["table2_bulk"]["net.fabric.calls_per_frame"] == 0
    assert layers["table2_bulk"]["protocols.tcp.calls_per_frame"] > 0
    assert fattree["net.fabric.calls_per_frame"] > 0
    dumbbell = bench("dumbbell_churn_faulted", trace=1, seconds=1)
    assert dumbbell["registry.conns_set_up"] > 0
    assert dumbbell["protocols.tcp.retransmits"] > 0
    for ledger in (*layers.values(), dumbbell):
        assert ledger["trace.overhead_ratio"] > 1


def test_fabric_plant_moves_fattree_only(layers):
    bound = BOUNDS["frames_per_cpu_s"]
    base, planted = interleaved_fps("fattree128_udp", FABRIC, pairs=1, seconds=2)
    assert planted < base * (1 - bound), (base, planted)
    traced = bench("fattree128_udp", trace=1, plant=FABRIC, seconds=1)
    before = layers["fattree128_udp"]["net.fabric.self_us_per_frame"]
    assert traced["net.fabric.self_us_per_frame"] > before * (1 + bound)
    base, planted = interleaved_fps("table2_bulk", FABRIC)
    assert planted > base * (1 - bound), (base, planted)


def test_tcp_plant_moves_table2_only(layers):
    bound = BOUNDS["frames_per_cpu_s"]
    base, planted = interleaved_fps("table2_bulk", TCP, pairs=1, seconds=2)
    assert planted < base * (1 - bound), (base, planted)
    traced = bench("table2_bulk", trace=1, plant=TCP, seconds=1)
    before = layers["table2_bulk"]["protocols.tcp.self_us_per_frame"]
    assert traced["protocols.tcp.self_us_per_frame"] > before * (1 + bound)
    base, planted = interleaved_fps("fattree128_udp", TCP)
    assert planted > base * (1 - bound), (base, planted)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "table2_bulk",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
