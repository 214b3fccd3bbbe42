"""Tests of the benchmark itself: run with
`python3 -m pytest benchmarks/tests` from the repository root."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import tracing
import workloads

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))


def _run(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "benchmarks" / "run.py"), *args],
        cwd=root,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_inputs(name, tmp_path):
    workload = workloads.WORKLOADS[name]()
    first = workload.fingerprint(workload.setup(7, tmp_path / "a"))
    again = workload.fingerprint(workload.setup(7, tmp_path / "b"))
    other = workload.fingerprint(workload.setup(8, tmp_path / "c"))
    assert first == again
    assert all(first[k] != other[k] for k in first if k != "config")


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_emits_every_metric(name, trace):
    proc = _run(ROOT, "--workload", name, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "pipeline_ci", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_self_time_subtracts_direct_children():
    S = tracing.Span
    spans = [
        S(1, 0, "pipeline.run_pipeline", "pipeline", 0, 100, "r", "job", {}),
        S(2, 1, "boosting.fit_boost_cv", "boosting", 10, 70, "r", "job", {"depth": 10}),
        S(3, 2, "boosting.fit_boost", "boosting", 20, 50, "r", "job",
          {"depth": 10, "trees": 3, "nodes": 30}),
    ]
    m = tracing.layer_metrics(spans, 1.0, 1.5)
    assert m["pipeline.self_s"][0] == pytest.approx(40e-9)
    assert m["boosting.self_s"][0] == pytest.approx(60e-9)
    assert m["boosting.fit_s"][0] == pytest.approx(60e-9)
    assert m["boosting.ms_per_tree_d10"][0] == pytest.approx(60e-6 / 3)
    assert m["trace.overhead_s"][0] == pytest.approx(0.5)


def test_uninstall_restores_every_function():
    import rarerisk
    from rarerisk import boosting, pipeline

    before = (pipeline.load_csv, boosting.fit_boost, boosting.BoostModel.predict,
              rarerisk.evolve)
    tracer = tracing.Tracer("t")
    tracer.install()
    assert pipeline.load_csv is not before[0]
    assert boosting.BoostModel.__dict__["predict"] is not before[2]
    tracer.uninstall()
    assert (pipeline.load_csv, boosting.fit_boost, boosting.BoostModel.predict,
            rarerisk.evolve) == before
