"""Smoke test of the benchmark harness at minimal sizes.

Each workload runs once untraced and once traced with ``--smoke`` (tiny
inputs, one pass, one set-up); the test checks that every metric named in
``BENCHMARK.json`` is emitted with its unit, that the oracle fires on a
corrupted digest, and that the command refuses to run without the program.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "perfbench" / "run.py"
sys.path.insert(0, str(RUN.parent))

from run import END_TO_END, END_TO_END_REPORTED, PER_LAYER, PER_LAYER_REPORTED  # noqa: E402

WORKLOADS = ("csp-inproc", "adaptive-process", "service-fleet")
#: The workloads ``BENCHMARK.json`` measures; ``csp-inproc`` runs by hand only.
MEASURED = ("adaptive-process", "service-fleet")


def _run(*args: str, cwd: Path = ROOT) -> tuple[subprocess.CompletedProcess, dict | None]:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--smoke", "--seconds", "0", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc, result


def test_benchmark_json_names_the_emitted_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(MEASURED)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        name: END_TO_END[name] for name in END_TO_END_REPORTED
    }
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: PER_LAYER[name] for name in PER_LAYER_REPORTED
    }


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc, result = _run("--workload", workload, "--seed", "5", "--trace", str(trace))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    if trace == 0:
        expected = {name: END_TO_END[name] for name in END_TO_END_REPORTED}
    else:
        expected = {name: PER_LAYER[name] for name in PER_LAYER_REPORTED}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    # Every metric the issue names is printed, with its unit, in the tables.
    printed = END_TO_END if trace == 0 else PER_LAYER
    for name, unit in printed.items():
        assert any(line.split()[:1] == [name] and unit in line.split() for line in proc.stdout.splitlines()), name


def test_oracle_fires_on_a_corrupted_digest():
    proc, result = _run("--workload", "csp-inproc", "--seed", "3", "--trace", "0", "--corrupt-oracle")
    assert proc.returncode != 0
    assert result["correct"] is False and result["failed"] > 0
    assert "oracle MISMATCH" in proc.stdout


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(RUN.parent, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc, result = _run("--workload", "csp-inproc", "--seed", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert result is None
