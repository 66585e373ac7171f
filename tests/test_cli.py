"""The CLI's contract: its flag surface and its exit codes.

Exit codes: 0 success, 1 a run or verification failed, 2 a usage error
printed as one ``error:`` line.  The run failures that keep exit 1 beyond
the two checked here — a failed campaign and a replay mismatch — are
covered in ``tests/campaign/test_cli_campaign.py``.
"""

import argparse
import socket

import pytest

from repro.cli import build_parser, main
from repro.engine.distributed import DistributedBackend

_BACKENDS = ("serial", "thread", "process", "distributed", "lockstep")
_CONTROLLERS = ("off", "static", "adaptive")

#: ``--profile``/``--runs``/``--seed`` and the SAT-workload flags.
_CONFIG = {
    "--profile": ("profile", "quick", ("tiny", "quick", "medium", "full")),
    "--runs": ("runs", None, None),
    "--seed": ("seed", None, None),
    "--sat-family": ("sat_family", None, ("planted", "uniform", "dimacs")),
    "--sat-policy": ("sat_policy", None, ("walksat", "novelty", "novelty+", "adaptive")),
    "--sat-dimacs": (
        "sat_dimacs",
        None,
        ("uf100-430-s1", "uf20-91-s1", "uf20-91-s2", "uf50-218-s1"),
    ),
}

#: Execution-engine flags.
_ENGINE = {
    "--backend": ("backend", "serial", _BACKENDS),
    "--workers": ("workers", None, None),
    "--lockstep-width": ("lockstep_width", None, None),
    "--cache --cache-dir": ("cache_dir", None, None),
    "--coordinator": ("coordinator", None, None),
    "--job-dir": ("job_dir", None, None),
    "--unit-size": ("unit_size", None, None),
    "--batch-timeout": ("batch_timeout", None, None),
    "--worker-token": ("worker_token", None, None),
}

#: Subcommand -> option strings (positionals by dest) -> (dest, default, choices).
FLAG_SURFACE = {
    "list": {},
    "run": {"experiments": ("experiments", None, None), **_CONFIG, **_ENGINE},
    "predict": {
        "--input": ("input", "-", None),
        "--cores": ("cores", (16, 32, 64, 128, 256), None),
        "--family": ("family", None, None),
        "--empirical": ("empirical", False, None),
    },
    "campaign": {
        "--progress": ("progress", False, None),
        "--controller": ("controller", "off", _CONTROLLERS),
        "--dry-run": ("dry_run", False, None),
        "--report": ("report", None, None),
        "--replay": ("replay", None, None),
        "--stages": ("stages", None, None),
        "--max-iterations": ("max_iterations", None, None),
        **_CONFIG,
        **_ENGINE,
    },
    "worker": {
        "--connect": ("connect", None, None),
        "--job-dir": ("job_dir", None, None),
        "--backend": ("backend", "serial", ("serial", "thread", "process")),
        "--workers": ("workers", None, None),
        "--poll-interval": ("poll_interval", 0.2, None),
        "--connect-timeout": ("connect_timeout", 30.0, None),
        "--max-units": ("max_units", None, None),
        "--name": ("name", None, None),
        "--token": ("token", None, None),
        "--heartbeat-seconds": ("heartbeat_seconds", 5.0, None),
    },
    "serve": {
        "--host": ("host", "127.0.0.1", None),
        "--port": ("port", 8321, None),
        "--token": ("token", None, None),
        "--max-queue": ("max_queue", 8, None),
        "--retry-after": ("retry_after", 5.0, None),
        "--max-cache-bytes": ("max_cache_bytes", None, None),
        "--drain-seconds": ("drain_seconds", 10.0, None),
        **_ENGINE,
    },
    "recipe": {},
    "recipe profile": {
        "report": ("report", None, None),
        "--out": ("out", None, None),
        "--name": ("name", None, None),
        "--description": ("description", "", None),
    },
    "recipe validate": {"recipes": ("recipes", None, None)},
    "recipe describe": {"recipe": ("recipe", None, None)},
    "recipe generate": {
        "recipe": ("recipe", None, None),
        "--scale": ("scale", 1, None),
        "--seed": ("seed", None, None),
        "--out": ("out", None, None),
        "--submission": ("submission", None, None),
        "--run": ("run", False, None),
        "--controller": ("controller", "off", _CONTROLLERS),
        "--report": ("report", None, None),
        **_ENGINE,
    },
}


def _surface(parser: argparse.ArgumentParser, path: str = "") -> dict:
    """Every subcommand's options as they appear in :data:`FLAG_SURFACE`."""
    table, options = {}, {}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                table.update(_surface(sub, f"{path} {name}".strip()))
        elif not isinstance(action, argparse._HelpAction):
            default = tuple(action.default) if isinstance(action.default, list) else action.default
            choices = None if action.choices is None else tuple(action.choices)
            key = " ".join(action.option_strings) or action.dest
            options[key] = (action.dest, default, choices)
    if path:
        table[path] = options
    return table


def test_flag_surface():
    """No flag, alias, dest, default or choice changes without this table."""
    assert _surface(build_parser()) == FLAG_SURFACE


_SAMPLE = "12 15 9 30 22 41 18 27 11 35\n"

#: Bad input -> (argv, contents of the ``{values}`` file or None).
USAGE_ERRORS = {
    "predict-non-numeric-token": (["predict", "--input", "{values}"], "1.5 2 x\n"),
    "predict-missing-input": (["predict", "--input", "{missing}"], None),
    "predict-zero-cores": (["predict", "--input", "{values}", "--cores", "0"], _SAMPLE),
    "predict-unknown-family": (["predict", "--input", "{values}", "--family", "foo"], _SAMPLE),
    "predict-unfittable-sample": (["predict", "--input", "{values}"], "5 -7 nan inf\n"),
    "predict-no-values": (["predict", "--input", "{values}"], "\n"),
    "campaign-negative-runs": (["campaign", "--runs", "-3"], None),
    "campaign-zero-max-iterations": (["campaign", "--max-iterations", "0"], None),
    "run-one-run": (["run", "table1", "--runs", "1"], None),
    "worker-malformed-address": (["worker", "--connect", "no-port"], None),
    "campaign-malformed-coordinator": (
        ["campaign", "--backend", "distributed", "--coordinator", "no-port"],
        None,
    ),
    "worker-negative-connect-timeout": (
        ["worker", "--connect", "127.0.0.1:1", "--connect-timeout", "-1"],
        None,
    ),
    "serve-busy-port": (["serve", "--port", "{busy}"], None),
    "serve-busy-coordinator-port": (
        ["serve", "--port", "0", "--backend", "distributed", "--coordinator", "127.0.0.1:{busy}"],
        None,
    ),
}


@pytest.mark.parametrize("argv, values", USAGE_ERRORS.values(), ids=USAGE_ERRORS.keys())
def test_bad_input_exits_2_with_one_error_line(argv, values, tmp_path, capsys):
    path = tmp_path / "values.txt"
    if values is not None:
        path.write_text(values)
    # ``{busy}`` is a port another socket is listening on.
    binds_busy_port = any("{busy}" in arg for arg in argv)
    with socket.create_server(("127.0.0.1", 0)) as busy:
        port = busy.getsockname()[1]
        argv = [a.format(values=path, missing=tmp_path / "missing.txt", busy=port) for a in argv]
        assert main(argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    if binds_busy_port:
        # The bind error names the address it could not take.
        assert f", {port})" in err, err


def test_runs_zero_is_rejected_not_ignored(capsys):
    # 0 is a value, not "unset": it must reach the config's own check.
    assert main(["campaign", "--profile", "tiny", "--runs", "0", "--dry-run"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "need at least two sequential runs" in captured.err


def test_invalid_recipe_fails_validation_with_exit_1(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{}")
    assert main(["recipe", "validate", "nightly-medium", str(path)]) == 1
    out = capsys.readouterr().out
    assert "nightly-medium: ok" in out
    assert f"{path}: INVALID" in out


def test_refused_worker_handshake_exits_1(capsys):
    backend = DistributedBackend(coordinator="127.0.0.1:0", auth_token="fleet-secret")
    address = backend.start()
    try:
        argv = ["worker", "--connect", address, "--token", "wrong", "--connect-timeout", "5"]
        assert main(argv) == 1
    finally:
        backend.shutdown()
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "authentication failed" in err


@pytest.mark.parametrize(
    "transport",
    [
        ["--connect", "127.0.0.1:1", "--connect-timeout", "0.3"],
        ["--job-dir", "{dir}", "--connect-timeout", "0.5"],
    ],
    ids=["refused-connection", "job-dir-without-meta"],
)
def test_worker_without_a_coordinator_exits_1(transport, tmp_path, capsys):
    # Nothing listens on port 1, and no coordinator ever wrote tmp_path/meta.json.
    argv = ["worker", *(a.format(dir=tmp_path) for a in transport)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("error: no coordinator") and err.count("\n") == 1, err
