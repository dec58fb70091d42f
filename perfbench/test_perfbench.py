"""Tests of the benchmark itself, at the smoke sizes (a few seconds each).

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_matches_the_runner():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {
        name: unit for name, (unit, _) in run.PER_LAYER.items()
    }
    assert SPEC["paths"] == ["perfbench"]
    assert max(m["bound"] for m in SPEC["end_to_end"]) == next(
        m["bound"] for m in SPEC["end_to_end"] if m["name"] == "setup_s"
    )


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_smoke(workload):
    proc = bench(workload, 0)
    out = result(proc)
    assert out["correct"] and out["failed"] == 0 and out["attempted"] > 0
    assert set(out["metrics"]) == set(run.END_TO_END)
    for name, metric in out["metrics"].items():
        assert metric["unit"] == run.END_TO_END[name]
        assert metric["value"] > 0, name
    line = json.loads(proc.stdout.strip().splitlines()[-2])
    assert line["meta"]["jobs"] >= run.MIN_JOBS
    report = line["report"]
    expected = {"error_rate": "ratio", **run.WALL_METRICS}
    if workload == "query-mix":
        expected.update(run.QUERY_METRICS)
    if workload == "kl-6":
        expected.update(run.CLI_METRICS)
    assert {name: m["unit"] for name, m in report.items()} == expected
    assert report["error_rate"]["value"] == 0
    assert all(report[name]["value"] > 0 for name in expected if name != "error_rate")


def test_a_raising_query_fails_its_chunk_only(tmp_path):
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    work = workloads.QueryMix(3, "smoke", str(tmp_path))
    c, queries = work.stream[0]
    queries[5] = ("crystal", "e", (None, 0))  # e_tilde(None, 0) raises
    out = work.job()
    work.check(out)
    assert len(work.latencies) == sum(len(q) for _, q in work.stream)
    assert work.attempted == len(work.latencies)
    assert work.failed == len(queries)  # the chunk with the failure, only
    assert "TypeError" in work.errors[0] or "AttributeError" in work.errors[0]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_smoke(workload):
    out = result(bench(workload, 1))
    assert out["correct"] and out["failed"] == 0
    assert set(out["metrics"]) == set(run.PER_LAYER)
    values = {name: metric["value"] for name, metric in out["metrics"].items()}
    if workload == "aug-poset-6":
        # gl(4|1): 25 classes, every ordered pair decided once, 91 strict
        assert values["aug_poset.pairs_decided"] == 25 * 24
        assert values["aug_poset.strict_share"] == pytest.approx(91 / 600)
        assert values["input.weight_reuse_share"] > 0.9
    if workload == "kl-6":
        assert values["kl_classical.kl_table_pairs"] == 3661
        assert values["kl_classical.left_order_classes"] == 26
        assert values["kl_classical.cache_file_bytes"] > 0
    if workload == "super-kl-sweep":
        assert values["brundan_kl.bar_windows"] == 2
        assert values["laurent.mul_calls"] > 0
    if workload == "query-mix":
        assert sum(values[f"input.mix.{r}_share"] for r in run.MIX) == pytest.approx(1.0)
        assert all(values[f"super_inclusion.route.{r}"] > 0 for r in run.ROUTES if r != "equal")
        assert values["input.weight_reuse_share"] < 0.1
    assert values["trace.spans"] > 0


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("aug-poset-6", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
