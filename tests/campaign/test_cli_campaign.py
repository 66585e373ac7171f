"""The campaign subcommand on top of the orchestrator.

``--controller off`` must keep the exact PR-era output (the byte-identity
gate lives in test_summary_format_is_stable and the off/static comparison);
the new flags — --dry-run, --stages, --report, --replay, --controller,
--max-iterations — get their behavioural contracts pinned here, including
the BUG-021 CLI regression.
"""

import json
import multiprocessing

import pytest

from repro.cli import main
from repro.experiments.data import clear_observation_cache


@pytest.fixture(autouse=True)
def fresh_memo():
    clear_observation_cache()
    yield
    clear_observation_cache()


def _run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


SAT_ONLY = ["campaign", "--profile", "tiny", "--stages", "SAT"]


class TestOffController:
    def test_summary_format_is_stable(self, capsys):
        rc, out, _ = _run(capsys, SAT_ONLY)
        assert rc == 0
        # The historic line format, byte for byte: label, runs, success-rate.
        line = out.splitlines()[0]
        assert line == "3-SAT 25@4.2 runs=30    success-rate=100.00%"

    def test_static_prints_the_same_summary(self, capsys):
        rc_off, out_off, err_off = _run(capsys, SAT_ONLY)
        clear_observation_cache()
        rc_static, out_static, err_static = _run(
            capsys, SAT_ONLY + ["--controller", "static"]
        )
        assert (rc_off, rc_static) == (0, 0)
        assert out_off == out_static  # bit-identical observations
        assert err_off == ""
        assert "controller=static" in err_static  # decision note goes to stderr

    def test_full_campaign_prints_canonical_order(self, capsys):
        rc, out, _ = _run(capsys, ["campaign", "--profile", "tiny"])
        assert rc == 0
        labels = [line.split("  ")[0].strip() for line in out.splitlines()]
        assert labels[0].startswith("MS")
        assert labels[1].startswith("AI")
        assert labels[2].startswith("Costas")
        assert sum(1 for label in labels if label.startswith("3-SAT")) == 5


class TestDryRun:
    def test_prints_the_dag_deterministically(self, capsys):
        rc_a, out_a, _ = _run(capsys, ["campaign", "--profile", "tiny", "--dry-run"])
        rc_b, out_b, _ = _run(capsys, ["campaign", "--profile", "tiny", "--dry-run"])
        assert (rc_a, rc_b) == (0, 0)
        assert out_a == out_b
        assert out_a.startswith("dry run: 7 stages, controller=off")
        for key in ("MS", "AI", "Costas", "SAT", "SAT/novelty"):
            assert f"\n{key:<12s} " in "\n" + out_a or out_a.startswith(f"{key:<12s} ")
        assert "seeds[:4]=" in out_a
        assert "after=SAT" in out_a  # policy stages depend on the SAT stage

    def test_executes_nothing_and_writes_no_cache(self, capsys, tmp_path):
        cache = tmp_path / "cache"
        cache.mkdir()
        rc, out, _ = _run(
            capsys,
            ["campaign", "--profile", "tiny", "--dry-run", "--cache", str(cache)],
        )
        assert rc == 0
        assert list(cache.iterdir()) == []  # nothing ran, nothing cached
        assert "runs=" not in out  # no summary lines, plan only

    def test_report_of_a_dry_run_replays(self, capsys, tmp_path):
        report = tmp_path / "plan.json"
        rc, _, _ = _run(
            capsys,
            ["campaign", "--profile", "tiny", "--dry-run", "--report", str(report)],
        )
        assert rc == 0
        rc, out, _ = _run(capsys, ["campaign", "--replay", str(report)])
        assert rc == 0
        assert "replay OK" in out


class TestStageSelection:
    def test_glob_selects_the_policy_family(self, capsys):
        rc, out, _ = _run(
            capsys, ["campaign", "--profile", "tiny", "--stages", "SAT/*", "--dry-run"]
        )
        assert rc == 0
        # SAT/* pulls the policy stages plus their SAT dependency.
        assert out.startswith("dry run: 4 stages")

    def test_unmatched_pattern_fails_fast(self, capsys):
        rc, _, err = _run(
            capsys, ["campaign", "--profile", "tiny", "--stages", "nope*"]
        )
        assert rc == 2
        assert "matches no stage" in err

    def test_selection_keeps_the_summary_format(self, capsys):
        rc, out, _ = _run(
            capsys, ["campaign", "--profile", "tiny", "--stages", "Costas"]
        )
        assert rc == 0
        assert out.splitlines() == ["Costas 7     runs=30    success-rate=100.00%"]


class TestBug021Cli:
    """The CLI face of the BUG-021 regression: an unsatisfiable-within-budget
    SAT stage must exit non-zero and record the failed stage in the report,
    with the controller off (the default)."""

    ARGS = [
        "campaign",
        "--profile",
        "tiny",
        "--sat-family",
        "uniform",
        "--max-iterations",
        "2",
        "--stages",
        "SAT",
    ]

    def test_exits_nonzero_and_reports_the_stage(self, capsys, tmp_path):
        report_path = tmp_path / "failed.json"
        rc, out, err = _run(capsys, self.ARGS + ["--report", str(report_path)])
        assert rc == 1
        assert out == ""  # no summary for a failed campaign
        assert "zero solved observations" in err
        payload = json.loads(report_path.read_text())
        assert payload["failed_stage"] == "SAT"
        assert "zero solved" in payload["failure_reason"]
        kinds = [d["kind"] for d in payload["decisions"]]
        assert "stage-failed" in kinds

    def test_controller_off_is_explicitly_covered(self, capsys):
        rc, _, err = _run(capsys, self.ARGS + ["--controller", "off"])
        assert rc == 1
        assert "campaign failed" in err


class TestReportAndReplay:
    def test_adaptive_report_replays_and_is_deterministic(self, capsys, tmp_path):
        args = SAT_ONLY + ["--controller", "adaptive"]
        path_a, path_b = tmp_path / "a.json", tmp_path / "b.json"
        rc_a, out_a, _ = _run(capsys, args + ["--report", str(path_a)])
        rc_b, out_b, _ = _run(capsys, args + ["--report", str(path_b)])
        assert (rc_a, rc_b) == (0, 0)
        assert out_a == out_b
        log_a = json.loads(path_a.read_text())["decisions"]
        log_b = json.loads(path_b.read_text())["decisions"]
        assert log_a == log_b  # the CI determinism gate, in-process
        rc, out, _ = _run(capsys, ["campaign", "--replay", str(path_a)])
        assert rc == 0
        assert "replay OK" in out and "controller=adaptive" in out

    def test_replaying_garbage_fails_cleanly(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "not-a-report"}')
        rc, _, err = _run(capsys, ["campaign", "--replay", str(path)])
        assert rc == 2
        assert "cannot load report" in err

    def test_replaying_a_tampered_report_fails(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        rc, _, _ = _run(
            capsys, SAT_ONLY + ["--controller", "static", "--report", str(path)]
        )
        assert rc == 0
        payload = json.loads(path.read_text())
        payload["stages"][0]["stream"][0]["solved"] = False
        payload["stages"][0]["stream"][0]["iterations"] = 999999
        path.write_text(json.dumps(payload))
        rc, _, err = _run(capsys, ["campaign", "--replay", str(path)])
        assert rc == 1
        assert "replay FAILED" in err


class TestOneExecutor:
    def test_adaptive_process_campaign_starts_one_pool(self, capsys, tmp_path, spawned_pools):
        # The allocation asks for 8 workers on CSP stages; every round
        # still runs on the one --workers 2 pool.
        args = ["campaign", "--profile", "tiny", "--controller", "adaptive"]
        pooled, serial = tmp_path / "process.json", tmp_path / "serial.json"
        rc, out_pooled, _ = _run(
            capsys, args + ["--backend", "process", "--workers", "2", "--report", str(pooled)]
        )
        assert rc == 0
        assert spawned_pools == [2]
        assert multiprocessing.active_children() == []
        clear_observation_cache()
        rc, out_serial, _ = _run(capsys, args + ["--report", str(serial)])
        assert rc == 0
        assert out_pooled == out_serial
        reports = [json.loads(path.read_text()) for path in (pooled, serial)]
        assert reports[0]["decisions"] == reports[1]["decisions"]
        allocated = {d["detail"]["workers"] for d in reports[0]["decisions"]
                     if d["kind"] == "allocation"}
        assert allocated - {2}  # some stage asked for another pool size
        for report in reports:
            for stage in report["stages"]:
                for record in stage["stream"]:
                    record.pop("runtime_seconds")
        assert reports[0]["stages"] == reports[1]["stages"]
