"""Output schema of the benchmark; timings are not checked.

    python3 -m pytest perfbench
"""
import json
import shutil
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = SPEC["command"] + ["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def test_spec_names_the_workloads_and_bounds():
    assert [w["name"] for w in SPEC["workloads"]] == ["train_desk", "eval_desk", "gradcheck_toy"]
    e2e = {m["name"]: m for m in SPEC["end_to_end"]}
    assert set(e2e) == {"setup_s", "items_per_s", "op_ms_p50", "op_ms_p90", "peak_rss_mb"}
    assert e2e["setup_s"]["unit"] == "s" and e2e["setup_s"]["better"] == "lower"
    assert all(0 < m["bound"] <= 0.25 for m in e2e.values())
    assert max(m["bound"] for m in e2e.values()) == e2e["setup_s"]["bound"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_named_metric_is_reported_with_its_unit(workload, trace):
    proc = run(workload, trace)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int) and result["failed"] == 0
    expected = SPEC["end_to_end"] if trace == 0 else SPEC["per_layer"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for m in expected:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and not isinstance(got["value"], bool)
    if trace == 1 and workload in ("train_desk", "eval_desk"):
        # matching runs in every training step and never in eval
        hungarian = result["metrics"]["assignment.hungarian_ms_per_img"]["value"]
        assert (hungarian > 0.0) == (workload == "train_desk")


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(SPEC["workloads"][0]["name"], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
