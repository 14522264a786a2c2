"""Tests of the benchmark itself (not part of the Tier-1 suite).

Run from the repository root: ``PYTHONPATH=src python -m pytest -q perfbench``.
Workloads here run at a few dozen pairs so the whole file takes seconds.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

import harness
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

SMALL = {
    "pipeline": dict(n=40, updates=6, heldout=20),
    "long-lattice": dict(n=40, epochs=1),
    "align-large-vocab": dict(n=40),
}


def _small(name, seed, work_dir):
    workload = workloads.WORKLOADS[name](seed, str(work_dir), **SMALL[name])
    workload.setup()
    return workload


def _traced_run(workload):
    tracer = tracing.Tracer()
    with tracer:
        _, checked, problems = harness._run_once(workload, workload.calls(), {})
    assert checked and not problems
    return tracing.layer_metrics(tracer)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_counts_repeat_exactly(name, tmp_path):
    workload = _small(name, 3, tmp_path)
    first, second = _traced_run(workload), _traced_run(workload)
    for metric in tracing.DETERMINISTIC:
        assert first[metric]["value"] == second[metric]["value"], metric
    busy = {"pipeline": "nat.ctc.dp_cells", "long-lattice": "nat.viterbi.dp_cells",
            "align-large-vocab": "align.align_pair.calls"}[name]
    assert first[busy]["value"] > 0


def test_rerun_is_byte_identical_and_checks_catch_changes(tmp_path):
    workload = _small("long-lattice", 5, tmp_path)
    calls, reference = workload.calls(), {}
    assert harness._run_once(workload, calls, reference)[2] == []
    assert harness._run_once(workload, calls, reference)[2] == []

    scores = calls[2].outputs[0]
    assert workloads.check_stage(scores) == []
    with open(os.path.join(scores.path, "scores.tsv"), "a", encoding="utf-8") as fh:
        fh.write("40\t1.500000\t0\t1\t2\n")
    problems = workloads.check_stage(scores)
    assert any("manifest checksum" in p for p in problems)
    assert any("41 rows" in p for p in problems)

    os.remove(os.path.join(calls[1].outputs[0].path, "manifest.json"))
    assert workloads.check_stage(calls[1].outputs[0]) == [f"{calls[1].outputs[0].path}: no manifest"]

    reference[scores.path] = {"scores.tsv": "0" * 64}
    _, checked, problems = harness._run_once(workload, calls, reference)
    assert checked == 4
    assert problems == [f"{scores.path}: not byte-identical to the first run"]


def test_missing_function_or_count_leaves_metric_absent(tmp_path, monkeypatch):
    from selkd import nat

    workload = _small("align-large-vocab", 7, tmp_path)
    monkeypatch.delattr(nat, "decode_positional")

    def broken(*_args, **_kwargs):
        raise TypeError("signature changed")

    monkeypatch.setitem(tracing.COUNTERS, "metrics.metric_report", broken)
    metrics = _traced_run(workload)
    assert "nat.decode_positional.s" not in metrics
    assert "metrics.align_calls_per_pair" not in metrics
    assert metrics["metrics.metric_report.s"]["value"] > 0


def test_run_without_sources_fails_without_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "pipeline",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_matches_benchmark_json(trace, kind):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = {m["name"]: m["unit"] for m in json.load(fh)[kind]}
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "align-large-vocab",
                           "--seed", "1", "--seconds", "1", "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
