"""BENCHMARK.json describes exactly what run.py measures."""

import json
from pathlib import Path

from perfbench import run as bench_run
from perfbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_workloads_match_with_their_reasons():
    described = {w["name"]: w["why"] for w in spec()["workloads"]}
    assert described == {name: w.why for name, w in WORKLOADS.items()}


def test_metrics_and_units_match():
    document = spec()
    assert {m["name"]: m["unit"] for m in document["end_to_end"]} == bench_run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in document["per_layer"]} == bench_run.LAYER_UNITS


def test_bounds_stay_within_the_contract():
    document = spec()
    assert all(0 < m["bound"] <= 0.25 for m in document["end_to_end"])
    setup = next(m for m in document["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in document["end_to_end"])
    assert document["command"] == ["python3", "perfbench/run.py"]
