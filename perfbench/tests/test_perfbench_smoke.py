"""Smoke test of the benchmark harness: every workload at a tiny size."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(root: Path, workload: str, trace: int, workdir: Path):
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"),
         "--workload", workload, "--seed", "0", "--seconds", "1",
         "--trace", str(trace), "--scale", "tiny", "--workdir", str(workdir)],
        capture_output=True, text=True, cwd=root, timeout=300)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_reports_every_metric(workload, tmp_path):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        proc = _run(ROOT, workload, trace, tmp_path)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0, proc.stderr
        assert result["attempted"] >= 1
        assert ({name: m["unit"] for name, m in result["metrics"].items()}
                == {m["name"]: m["unit"] for m in SPEC[section]})
        if trace:
            # exact call counts: the tracer saw every estimator and bound call
            assert result["metrics"]["trace.self_check_ok"]["value"] == 1, \
                proc.stderr


def test_reference_recorded_at_full_size():
    sys.path.insert(0, str(BENCH))
    try:
        import run
    finally:
        sys.path.remove(str(BENCH))
    for name, workload in run.WORKLOADS.items():
        meta = json.loads((run.REFERENCE / name / "meta.json").read_text())
        assert (meta["seed"], meta["frames"], meta["truncation"]) == (
            run.REFERENCE_SEED, workload.frames, workload.truncation)


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "placement", 0, tmp_path / "work")
    assert proc.returncode != 0
    assert proc.stdout == ""
