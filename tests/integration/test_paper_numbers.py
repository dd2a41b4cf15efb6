"""Every simulated Table 1-5 number, pinned to recorded values exactly.

The benches under ``benchmarks/`` assert the paper's *shape* with
tolerances of up to 2x, so a simulator change that moves a number (say
Table 5's software demux cost from 49 to 52 µs) still passes them.
Simulated results are deterministic, so this test compares each number
the Table 1-5 benches report, computed by the benches' own measurement
functions, against ``paper_numbers.json`` with exact float equality.

A change that is meant to move these numbers re-records the file with::

    PYTHONPATH=src python tests/integration/test_paper_numbers.py --write

and says in its change notes which numbers moved and why.
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
GOLDEN = Path(__file__).with_name("paper_numbers.json")
sys.path.insert(0, str(ROOT / "benchmarks"))

import bench_table1_mechanisms as table1  # noqa: E402
import bench_table2_throughput as table2  # noqa: E402
import bench_table3_latency as table3  # noqa: E402
import bench_table4_setup as table4  # noqa: E402
import bench_table5_demux as table5  # noqa: E402
from paper_targets import TABLE2, TABLE3, TABLE4  # noqa: E402


def _keyed(row: dict) -> dict:
    return {str(key): value for key, value in row.items()}


def _table1() -> dict:
    return table1.run_mechanism_benchmark()


def _table2() -> dict:
    return {f"{net} {org}": _keyed(table2.run_row(net, org)) for net, org in TABLE2}


def _table3() -> dict:
    return {f"{net} {org}": _keyed(table3.run_row(net, org)) for net, org in TABLE3}


def _table4() -> dict:
    out = {f"{net} {org}": table4.run_setup(net, org) for net, org in TABLE4}
    out["breakdown"] = table4.run_breakdown()
    return out


def _table5() -> dict:
    return {net: table5.measure_demux_cost(net) for net in ("ethernet", "an1")}


TABLES = {
    "table1": _table1,
    "table2": _table2,
    "table3": _table3,
    "table4": _table4,
    "table5": _table5,
}


@pytest.mark.parametrize("table", list(TABLES))
def test_simulated_numbers_match_recorded(table):
    recorded = json.loads(GOLDEN.read_text())[table]
    assert TABLES[table]() == recorded


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    numbers = {name: compute() for name, compute in TABLES.items()}
    GOLDEN.write_text(json.dumps(numbers, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
