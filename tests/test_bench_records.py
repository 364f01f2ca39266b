"""Committed benchmark records (``BENCH_*.json`` at the repository root).

Each record is built from ``bench/run.py`` result lines.  It must parse,
and name only workloads and metrics that ``BENCHMARK.json`` declares, so
that a record can always be read against the benchmark it came from.
Its summaries must follow from the per-seed runs it lists: one run per
seed and side, the median and inclusive quartiles of each side, and the
count of pairs in which the change ran lower.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def _declared() -> tuple[set[str], set[str]]:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = {workload["name"] for workload in benchmark["workloads"]}
    metrics = {metric["name"] for metric in benchmark["end_to_end"] + benchmark["per_layer"]}
    return workloads, metrics


def test_there_is_a_record():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=[path.name for path in RECORDS])
def test_record_names_only_declared_workloads_and_metrics(path):
    record = json.loads(path.read_text(encoding="utf-8"))
    workloads, metrics = _declared()
    assert isinstance(record["env"], dict)
    assert record["workloads"]
    for name, workload in record["workloads"].items():
        assert name in workloads
        assert workload["seeds"]
        assert workload["metrics"]
        for metric, summary in workload["metrics"].items():
            assert metric in metrics, f"{path.name}: {name}.{metric} is not declared"
            for side in ("parent", "change"):
                assert set(summary[side]) == {"median", "q1", "q3"}
                assert summary[side]["q1"] <= summary[side]["median"] <= summary[side]["q3"]
            _assert_summaries_follow_from_runs(path.name, name, metric, workload["seeds"], summary)
    for name, trace in record.get("traces", {}).items():
        assert name in workloads
        assert set(trace["metrics"]) <= metrics, f"{path.name}: undeclared trace metric in {name}"


def _assert_summaries_follow_from_runs(record: str, workload: str, metric: str, seeds: list, summary: dict) -> None:
    where = f"{record}: {workload}.{metric}"
    runs = summary["runs"]
    for side in ("parent", "change"):
        assert len(runs[side]) == len(seeds), f"{where}: not one {side} run per seed"
        q1, median, q3 = statistics.quantiles(runs[side], n=4, method="inclusive")
        assert summary[side]["median"] == pytest.approx(median, abs=1e-6), where
        assert summary[side]["q1"] == pytest.approx(q1, abs=1e-6), where
        assert summary[side]["q3"] == pytest.approx(q3, abs=1e-6), where
    assert 0 <= summary["change_lower_pairs"] <= summary["pairs"] <= len(seeds), where
    lower = sum(change < parent for parent, change in zip(runs["parent"], runs["change"]))
    assert summary["change_lower_pairs"] == lower, f"{where}: change_lower_pairs does not count the runs"
