"""Deterministic campaign generation, the round-trip invariant, and scale."""

import json

import pytest

from repro.campaign import resolve_stage_order, run_campaign
from repro.cli import main
from repro.recipes import (
    RecipeError,
    describe_campaign,
    generate_stages,
    generate_submission,
    profile_report,
)


def deterministic_stream(report):
    """A report's backend-invariant run content (everything but wall clock)."""
    return {
        stage.key: [(r.index, r.seed, r.iterations, r.solved, r.budget) for r in stage.stream]
        for stage in report.stages
    }


class TestDeterminism:
    def test_same_inputs_byte_identical_plans(self, tiny_sat_recipe):
        a = json.dumps(describe_campaign(tiny_sat_recipe, scale=3, base_seed=7), sort_keys=True)
        b = json.dumps(describe_campaign(tiny_sat_recipe, scale=3, base_seed=7), sort_keys=True)
        assert a == b

    def test_cli_generate_byte_identical(self, tiny_sat_recipe, tmp_path, capsys):
        """Two CLI invocations print byte-identical campaign plans."""
        path = tiny_sat_recipe.save(tmp_path / "r.json")
        outputs = []
        for _ in range(2):
            assert main(["recipe", "generate", str(path), "--scale", "2", "--seed", "9"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0])["n_stages"] == 2

    def test_cli_files_hold_the_printed_bytes(self, tiny_sat_recipe, tmp_path, capsys):
        path = tiny_sat_recipe.save(tmp_path / "r.json")
        assert main(["recipe", "generate", str(path), "--scale", "2"]) == 0
        printed = capsys.readouterr().out
        out, submission = tmp_path / "plan.json", tmp_path / "submit.json"
        argv = ["recipe", "generate", str(path), "--scale", "2"]
        assert main(argv + ["--out", str(out), "--submission", str(submission)]) == 0
        assert out.read_text() == printed
        expected = generate_submission(tiny_sat_recipe, scale=2)
        assert submission.read_text() == json.dumps(expected, indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("flag", ["--out", "--submission"])
    def test_failed_replace_leaves_no_partial_file(
        self, tiny_sat_recipe, tmp_path, monkeypatch, flag
    ):
        import repro.multiwalk.observations as observations_mod

        path = tiny_sat_recipe.save(tmp_path / "r.json")
        target = tmp_path / "artefact.json"
        target.write_text("earlier artefact\n")

        def failing_replace(src, dst):
            raise OSError("simulated crash before the rename")

        monkeypatch.setattr(observations_mod.os, "replace", failing_replace)
        with pytest.raises(OSError, match="simulated crash"):
            main(["recipe", "generate", str(path), flag, str(target)])
        assert target.read_text() == "earlier artefact\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["artefact.json", "r.json"]

    def test_seed_override_changes_runs_deterministically(self, tiny_sat_recipe):
        base = run_campaign(generate_stages(tiny_sat_recipe, base_seed=123))
        again = run_campaign(generate_stages(tiny_sat_recipe, base_seed=123))
        other = run_campaign(generate_stages(tiny_sat_recipe, base_seed=124))
        assert deterministic_stream(base) == deterministic_stream(again)
        assert deterministic_stream(base) != deterministic_stream(other)


class TestRoundTrip:
    def test_scale_1_replays_profiled_campaign_exactly(self, tiny_sat_report, tiny_sat_recipe):
        """Profile → generate at scale 1 → run → refit equals the original.

        The documented tolerance is *zero*: replica 0 reuses the recorded
        seed roots and instance seeds, so the regenerated campaign replays
        the profiled one's runs bit for bit and the refit recovers the
        recipe's family and parameters exactly.
        """
        replay = run_campaign(generate_stages(tiny_sat_recipe, scale=1))
        assert deterministic_stream(replay) == deterministic_stream(tiny_sat_report)
        refit = profile_report(replay, name=tiny_sat_recipe.name)
        for original, again in zip(tiny_sat_recipe.stages, refit.stages):
            assert again.runtime == original.runtime
            assert again.instance == original.instance
            assert again.censoring_rate == original.censoring_rate


class TestScale:
    def test_scale_replicates_stages(self, tiny_sat_recipe):
        stages = generate_stages(tiny_sat_recipe, scale=3)
        assert [s.key for s in stages] == ["SAT", "SAT~1", "SAT~2"]
        quota = tiny_sat_recipe.stages[0].quota
        assert sum(s.quota for s in stages) == 3 * quota
        # Replicas are a valid DAG with distinct seed streams and labels.
        resolve_stage_order(stages)
        assert len({s.base_seed for s in stages}) == 3
        assert len({s.label for s in stages}) == 3

    def test_replica_dependencies_stay_within_replica(self, tiny_sat_report):
        import dataclasses

        base = tiny_sat_report.stages[0]
        dependent = dataclasses.replace(
            base,
            key="SAT/novelty",
            label=base.label + " [novelty]",
            kind="sat_policies",
            emit_keys=("SAT/novelty",),
            after=("SAT",),
        )
        report = dataclasses.replace(tiny_sat_report, stages=(base, dependent))
        recipe = profile_report(report, name="dag")
        stages = generate_stages(recipe, scale=2)
        after = {s.key: s.after for s in stages}
        assert after["SAT/novelty"] == ("SAT",)
        assert after["SAT/novelty~1"] == ("SAT~1",)

    def test_bad_scale_rejected(self, tiny_sat_recipe):
        with pytest.raises(RecipeError, match="scale"):
            generate_stages(tiny_sat_recipe, scale=0)


@pytest.mark.slow
class TestBackends:
    def test_scale_4_runs_through_process_backend(self, tiny_sat_recipe):
        """A scale-4 generated campaign runs on --backend process unchanged,
        byte-identical to its serial execution."""
        stages = generate_stages(tiny_sat_recipe, scale=4, base_seed=41)
        serial = run_campaign(stages)
        parallel = run_campaign(
            generate_stages(tiny_sat_recipe, scale=4, base_seed=41),
            backend="process",
            workers=2,
        )
        assert len(serial.stages) == 4
        assert deterministic_stream(parallel) == deterministic_stream(serial)


class TestServiceSubmission:
    def test_submission_validates_and_scales_quota(self, tiny_sat_recipe):
        submission = generate_submission(tiny_sat_recipe, scale=4)
        config = submission["config"]
        assert config["n_sequential_runs"] == 4 * tiny_sat_recipe.stages[0].quota
        assert config["base_seed"] == tiny_sat_recipe.stages[0].instance.instance_seed
        assert submission["stages"] == "SAT"

    def test_generated_submission_runs_through_http_service(self, tiny_sat_recipe, tmp_path):
        """End-to-end: a recipe-generated submission through the real server."""
        from repro.service import CampaignClient, CampaignServer, JobManager, TenantCacheStore

        submission = generate_submission(tiny_sat_recipe, scale=1)
        store = TenantCacheStore(tmp_path / "cache")
        manager = JobManager(backend="serial", store=store, max_queue=2)
        server = CampaignServer(manager, token="api-secret")
        server.start()
        try:
            client = CampaignClient(server.url, token="api-secret")
            job_id = client.submit(submission)
            assert client.wait(job_id, timeout=120.0)["state"] == "done"
            report = client.report(job_id)
        finally:
            server.stop()
        # The service ran the same workload the recipe describes: profiling
        # its report recovers the recipe's stage, instance mix and fit.
        refit = profile_report(report, name="via-service")
        assert refit.stages[0].instance == tiny_sat_recipe.stages[0].instance
        assert refit.stages[0].runtime == tiny_sat_recipe.stages[0].runtime
