"""Short smoke run of every workload. Run explicitly (it is not a tier-1 test):

    python3 -m pytest -q perfbench/smoke.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import gen  # noqa: E402
from run import WORKLOADS  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
REPORTED = {
    "capability-churn": ["fail_ratio", "acquire_p50_ms", "acquire_p99_ms", "fileop_p99_ms"],
    "file-session": ["fail_ratio", "fileop_p99_ms"],
    "admin-mix": ["fail_ratio", "acquire_p50_ms", "acquire_p99_ms", "admin_p50_ms",
                  "admin_p90_ms"],
}
EXPECTED_DENIALS = {
    "capability-churn": ["acquire.deny"],
    "file-session": ["read.outside", "write.outside", "list.outside"],
    "admin-mix": ["acquire.deny"],
}


def run(workload: str, trace: int, seconds: float = 3) -> tuple[dict, str]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=300, cwd=HERE.parent)
    assert proc.returncode == 0, proc.stderr[-3000:]
    lines = proc.stdout.strip().split("\n")
    return json.loads(lines[-1]), proc.stdout


def outcomes(report: str) -> dict[str, list[int]]:
    line = next(l for l in report.split("\n") if l.startswith("outcomes "))
    return json.loads(line[len("outcomes "):])


def check_result(result: dict, spec_metrics) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int) and 0 <= result["failed"] <= result["attempted"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec_metrics}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_and_oracle(workload):
    result, report = run(workload, trace=0)
    check_result(result, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values()), result["metrics"]
    for name in REPORTED[workload]:
        assert f"  {name} " in report, name
    by_kind = outcomes(report)
    for kind in EXPECTED_DENIALS[workload]:
        attempted, failed = by_kind[kind]
        assert attempted > 0 and failed == 0, (kind, attempted, failed)
    # Only the non-canonical names may fail (the resource authorizes raw names).
    assert all(failed == 0 for kind, (_n, failed) in by_kind.items()
               if not kind.endswith(".noncanonical")), by_kind
    assert result["failed"] == sum(failed for _n, failed in by_kind.values())
    # Non-canonical names are sent once per run, so their count does not follow throughput.
    probes = sum(n for kind, (n, _f) in by_kind.items() if kind.endswith(".noncanonical"))
    assert probes == (gen.SHAPES[workload].pool * 3 * 4 * gen.FS_PROBES
                      if workload == "file-session" else 0)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer_metric(workload):
    result, report = run(workload, trace=1, seconds=4)
    check_result(result, SPEC["per_layer"])
    assert "trace targets not found" not in report
    assert result["metrics"]["trace.overhead_ratio"]["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seeds_give_different_inputs_of_one_shape(workload, tmp_path):
    a = gen.generate(workload, 1, tmp_path / "a")
    b = gen.generate(workload, 2, tmp_path / "b")
    again = gen.generate(workload, 1, tmp_path / "again")
    snapshot = {name: (inputs.directory / "community.db").read_bytes()
                for name, inputs in (("a", a), ("b", b), ("again", again))}
    assert snapshot["a"] == snapshot["again"]
    assert a.scripts == again.scripts and a.admin_script == again.admin_script
    assert snapshot["a"] != snapshot["b"] and a.scripts != b.scripts

    def sections(data: bytes) -> list[int]:
        counts: list[int] = []
        for line in data.decode().split("\n"):
            if line.startswith("["):
                counts.append(0)
            elif line:
                counts[-1] += 1
        return counts
    assert sections(snapshot["a"]) == sections(snapshot["b"])
    assert len(a.pool) == len(b.pool)
    assert [len(s) for s in a.scripts] == [len(s) for s in b.scripts]
    assert len(a.admin_script) == len(b.admin_script)
