"""Self-test of the benchmark: one ``--smoke --trace`` run of the one
command, checked against BENCHMARK.json.

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_smoke.py

Tier-1 does not collect this (its ``testpaths`` is ``tests``).
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@pytest.fixture(scope="module")
def document() -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--trace"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr[-3000:]
    return json.loads(done.stdout)


def runs(document: dict, kind: str) -> dict:
    return document["sets"][0][kind]


def test_envelope(document):
    for key in ("seed", "git_sha", "cpu_count", "python", "numpy",
                "data_dir_filesystem", "src_lines"):
        assert document[key] not in (None, ""), key
    assert document["claim"] is None
    assert document["src_lines"] > 0


@pytest.mark.parametrize("kind", ["end_to_end", "per_layer"])
def test_names_are_exactly_the_specs(document, kind):
    assert sorted(runs(document, kind)) == sorted(WORKLOADS)
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    for name, run in runs(document, kind).items():
        got = {k: v["unit"] for k, v in run["metrics"].items()}
        assert got == expected, name


@pytest.mark.parametrize("kind", ["end_to_end", "per_layer"])
def test_values_are_finite_and_nothing_failed(document, kind):
    for name, run in runs(document, kind).items():
        assert run["correct"] and run["failed"] == 0, (name, run["report"])
        assert run["attempted"] >= 1
        assert run["report"]["sizes"], name
        for metric, entry in run["metrics"].items():
            assert math.isfinite(entry["value"]), (name, metric)
            if kind == "end_to_end":
                assert entry["value"] > 0, (name, metric)


def test_layer_self_times_account_for_statement_wall_time(document):
    """Self times recomputed from the dumped spans (duration minus the
    children a span's row is parent of) match the reported shares, and
    with ``unattributed.share`` they add up to the statement latency."""
    for name, run in runs(document, "per_layer").items():
        metrics = {k: v["value"] for k, v in run["metrics"].items()}
        ops = run["report"]["traced_ops"]
        dumped = json.loads((ROOT / run["report"]["spans_file"]).read_text())
        columns = dumped["columns"]
        ident, parent, layer, start, end = (
            columns.index(c)
            for c in ("id", "parent", "layer", "start_s", "end_s")
        )
        duration = {s[ident]: s[end] - s[start] for s in dumped["spans"]}
        self_time = dict(duration)
        for span in dumped["spans"]:
            if span[parent] >= 0:
                self_time[span[parent]] -= duration[span[ident]]
        by_layer: dict[str, float] = {}
        for span in dumped["spans"]:
            by_layer[span[layer]] = (
                by_layer.get(span[layer], 0.0) + self_time[span[ident]]
            )
        total = 0.0
        for layer_name, seconds in by_layer.items():
            reported = metrics[f"{layer_name}.share"]
            recomputed = seconds * 1e3 / ops / metrics["statement_ms"]
            assert 100 * recomputed == pytest.approx(
                reported, rel=0.05, abs=1e-6
            ), (name, layer_name)
            total += reported
        assert total + metrics["unattributed.share"] == pytest.approx(
            100.0, rel=0.05
        ), name


def test_tpch_embedded_time_is_attributed(document):
    unattributed = runs(document, "per_layer")["tpch.embedded"]["metrics"][
        "unattributed.share"]["value"]
    assert unattributed <= 10.0


def test_sharded_reports_rpc_bytes_and_gather_time(document):
    metrics = runs(document, "per_layer")["tpch.sharded"]["metrics"]
    assert metrics["proc.rpc_bytes_in"]["value"] > 0
    assert metrics["shard.gather.share"]["value"] > 0
    embedded = runs(document, "per_layer")["tpch.embedded"]["metrics"]
    assert embedded["proc.rpc_bytes_in"]["value"] == 0
    assert embedded["shard.gather.share"]["value"] == 0


def test_leaves_no_temporary_directory_behind(document):
    leftovers = list((HERE / "results" / "tmp").glob("*"))
    assert leftovers == []
