"""CLI configuration overrides (profile / --runs / --seed plumbing)."""

import pytest

from repro.cli import _config_from_args, build_parser


def parse(args):
    return build_parser().parse_args(args)


class TestConfigFromArgs:
    def test_profile_selection(self):
        tiny = _config_from_args(parse(["run", "figure3", "--profile", "tiny"]))
        quick = _config_from_args(parse(["run", "figure3", "--profile", "quick"]))
        full = _config_from_args(parse(["run", "figure3", "--profile", "full"]))
        assert tiny.n_sequential_runs < quick.n_sequential_runs < full.n_sequential_runs
        assert full.all_interval_n > quick.all_interval_n

    def test_runs_override_keeps_instance_sizes(self):
        config = _config_from_args(parse(["run", "table2", "--profile", "tiny", "--runs", "7"]))
        tiny = _config_from_args(parse(["run", "table2", "--profile", "tiny"]))
        assert config.n_sequential_runs == 7
        assert config.magic_square_n == tiny.magic_square_n
        assert config.costas_n == tiny.costas_n

    def test_seed_override(self):
        config = _config_from_args(parse(["run", "table2", "--profile", "tiny", "--seed", "42"]))
        assert config.base_seed == 42

    def test_runs_and_seed_override_together(self):
        config = _config_from_args(
            parse(["run", "table2", "--profile", "tiny", "--runs", "9", "--seed", "5"])
        )
        assert config.n_sequential_runs == 9
        assert config.base_seed == 5

    def test_campaign_subcommand_shares_overrides(self):
        config = _config_from_args(parse(["campaign", "--profile", "tiny", "--runs", "3"]))
        assert config.n_sequential_runs == 3

    def test_sat_family_and_policy_overrides(self):
        args = parse(
            [
                "campaign",
                "--profile",
                "tiny",
                "--sat-family",
                "uniform",
                "--sat-policy",
                "novelty+",
            ]
        )
        config = _config_from_args(args)
        assert config.sat_family == "uniform"
        assert config.sat_policy == "novelty+"

    def test_sat_dimacs_override(self):
        config = _config_from_args(
            parse(
                [
                    "run",
                    "sat_flips",
                    "--sat-family",
                    "dimacs",
                    "--sat-dimacs",
                    "uf50-218-s1",
                ]
            )
        )
        assert config.sat_family == "dimacs"
        assert config.sat_dimacs == "uf50-218-s1"

    def test_sat_flags_default_to_the_profile_values(self):
        config = _config_from_args(parse(["campaign", "--profile", "tiny"]))
        assert config.sat_family == "planted"
        assert config.sat_policy == "walksat"

    def test_unknown_sat_policy_rejected_by_the_parser(self):
        with pytest.raises(SystemExit):
            parse(["campaign", "--sat-policy", "gsat"])
        with pytest.raises(SystemExit):
            parse(["campaign", "--sat-family", "satlib"])

    def test_overrides_keep_the_profile_sat_instance(self):
        # dataclasses.replace semantics: --runs/--seed must not reset the
        # profile's SAT workload parameters back to the class defaults.
        tiny = _config_from_args(parse(["run", "sat_flips", "--profile", "tiny"]))
        overridden = _config_from_args(
            parse(["run", "sat_flips", "--profile", "tiny", "--runs", "5", "--seed", "3"])
        )
        assert overridden.sat_n_variables == tiny.sat_n_variables
        assert overridden.n_sequential_runs == 5
        assert overridden.base_seed == 3


class TestParserShape:
    def test_predict_defaults(self):
        args = parse(["predict"])
        assert args.input == "-"
        assert args.cores == [16, 32, 64, 128, 256]
        assert args.family is None
        assert not args.empirical

    def test_predict_family_and_cores(self):
        args = parse(["predict", "--family", "shifted_lognormal", "--cores", "8", "16"])
        assert args.family == "shifted_lognormal"
        assert args.cores == [8, 16]

    def test_run_accepts_multiple_experiments(self):
        args = parse(["run", "table1", "table5", "figure9"])
        assert args.experiments == ["table1", "table5", "figure9"]

    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            parse([])


class TestDistributedCliFlags:
    def test_medium_profile_sits_between_quick_and_full(self):
        quick = _config_from_args(parse(["campaign", "--profile", "quick"]))
        medium = _config_from_args(parse(["campaign", "--profile", "medium"]))
        full = _config_from_args(parse(["campaign", "--profile", "full"]))
        assert quick.n_sequential_runs < medium.n_sequential_runs < full.n_sequential_runs
        assert quick.all_interval_n < medium.all_interval_n < full.all_interval_n

    def test_distributed_requires_exactly_one_transport(self):
        from repro.cli import _validate_engine_args

        neither = parse(["campaign", "--backend", "distributed"])
        assert "exactly one" in _validate_engine_args(neither)
        both = parse(
            ["campaign", "--backend", "distributed", "--coordinator", "h:1", "--job-dir", "d"]
        )
        assert "exactly one" in _validate_engine_args(both)
        ok = parse(["campaign", "--backend", "distributed", "--coordinator", "h:1"])
        assert _validate_engine_args(ok) is None

    def test_distributed_rejects_workers(self):
        from repro.cli import _validate_engine_args

        args = parse(
            ["campaign", "--backend", "distributed", "--coordinator", "h:1", "--workers", "4"]
        )
        assert "worker" in _validate_engine_args(args)

    def test_transport_flags_require_distributed_backend(self):
        from repro.cli import _validate_engine_args

        args = parse(["campaign", "--backend", "process", "--coordinator", "h:1"])
        assert "--backend distributed" in _validate_engine_args(args)
        # Tuning flags are rejected too, not silently ignored.
        args = parse(["campaign", "--backend", "process", "--unit-size", "32"])
        assert "--backend distributed" in _validate_engine_args(args)
        args = parse(["campaign", "--batch-timeout", "60"])
        assert "--backend distributed" in _validate_engine_args(args)

    def test_engine_backend_builds_a_configured_instance(self, tmp_path):
        from repro.cli import _engine_backend
        from repro.engine.distributed import DistributedBackend

        args = parse(
            [
                "campaign",
                "--backend",
                "distributed",
                "--job-dir",
                str(tmp_path),
                "--unit-size",
                "7",
            ]
        )
        backend = _engine_backend(args)
        assert isinstance(backend, DistributedBackend)
        assert backend.unit_size == 7
        assert _engine_backend(parse(["campaign", "--backend", "process"])) == "process"

    def test_worker_subcommand_defaults(self):
        args = parse(["worker", "--connect", "127.0.0.1:7821"])
        assert args.connect == "127.0.0.1:7821"
        assert args.job_dir is None
        assert args.backend == "serial"
        assert args.connect_timeout == 30.0
        # Workers keep no cache: caching lives at the coordinator.
        assert not hasattr(args, "cache_dir")
        with pytest.raises(SystemExit):
            parse(["worker", "--connect", "127.0.0.1:7821", "--cache", "shared"])

    def test_worker_command_requires_one_transport(self, capsys):
        from repro.cli import main

        assert main(["worker"]) == 2
        assert "exactly one" in capsys.readouterr().err
