"""Synthesise runnable campaigns from a workload recipe.

The WfCommons "generate an instance" step for campaigns:
:func:`generate_stages` expands a :class:`~repro.recipes.schema.CampaignRecipe`
into an ordinary :class:`~repro.campaign.stages.StageSpec` DAG — nothing
downstream knows the campaign is synthetic, so generated campaigns run
through every engine backend, every controller and the HTTP service
unchanged.

**Scale semantics.**  ``scale=s`` emits ``s`` replicas of every recipe
stage.  Replica 0 keeps the recipe's key/label; replica ``r`` gets
``"{key}~{r}"`` / ``"{label} ~{r}"`` (``~`` is inert in ``fnmatch`` globs,
so ``--stages 'SAT*'`` still selects every SAT replica).  Each replica
carries the full recipe quota, so total observations grow linearly —
"replay production traffic at 10×" is ``--scale 10``.

**Determinism.**  Replica seed roots and replica instance draws are pure
functions of ``(seed root, stage key, replica)`` through SHA-256, so the
same recipe + scale + seed produce byte-identical plans (and therefore
byte-identical campaigns) on every invocation and host.  At ``scale=1``
with no seed override, replica 0 reuses the recipe's recorded stage seed
root *and* recorded instance seed — the generated campaign replays the
profiled campaign's exact runs, which is what pins the profile→generate
round-trip test.

:func:`describe_campaign` renders the same expansion as a pure-JSON plan
(what ``repro-lasvegas recipe generate`` prints) and
:func:`generate_submission` projects a recipe onto the campaign service's
wire format, where the scale lands on the observation quota instead of on
replica count (one config describes one stage set).
"""

from __future__ import annotations

import dataclasses
import hashlib

from repro.campaign.stages import StageSpec
from repro.recipes.schema import CampaignRecipe, InstanceMix, RecipeError, StageRecipe

__all__ = ["describe_campaign", "generate_stages", "generate_submission"]


def _derive_seed(root: int, key: str, replica: int) -> int:
    """Deterministic 63-bit replica seed — a pure function of its inputs."""
    digest = hashlib.sha256(f"{root}:{key}:{replica}".encode()).digest()
    return int.from_bytes(digest[:8], "big") & 0x7FFF_FFFF_FFFF_FFFF


def _plan(recipe: CampaignRecipe, *, scale: int, base_seed: int | None) -> list[dict]:
    """The shared stage expansion behind generation and description."""
    if not isinstance(scale, int) or isinstance(scale, bool) or scale < 1:
        raise RecipeError(f"scale must be an integer >= 1, got {scale!r}")
    if base_seed is not None and (isinstance(base_seed, bool) or not isinstance(base_seed, int)):
        raise RecipeError(f"base_seed must be an integer, got {base_seed!r}")

    plans: list[dict] = []
    for stage in recipe.stages:
        root = stage.base_seed if base_seed is None else base_seed
        for replica in range(scale):
            replay = base_seed is None and replica == 0
            if replay:
                seed = stage.base_seed
                instance_seed = stage.instance.instance_seed
            else:
                seed = _derive_seed(root, stage.key, replica)
                instance_seed = None
            if instance_seed is None:  # fresh draw (or hand-written recipe)
                instance_seed = _derive_seed(root, f"{stage.key}/instance", replica)
            suffix = "" if replica == 0 else f"~{replica}"
            plans.append(
                {
                    "key": stage.key + suffix,
                    "label": stage.label + (f" {suffix}" if suffix else ""),
                    "kind": stage.kind,
                    "replica": replica,
                    "recipe_stage": stage.key,
                    "quota": stage.quota,
                    "budget": stage.budget,
                    "base_seed": seed,
                    "instance": dataclasses.replace(
                        stage.instance, instance_seed=instance_seed
                    ).as_dict(),
                    "runtime_family": stage.runtime.family,
                    "expected_mean_iterations": stage.runtime.mean(),
                    "after": [dep + suffix for dep in stage.after],
                    "required": stage.required,
                    "supports_cutoff": stage.supports_cutoff,
                }
            )
    return plans


def generate_stages(
    recipe: CampaignRecipe, *, scale: int = 1, base_seed: int | None = None
) -> list[StageSpec]:
    """Expand a recipe into a runnable :class:`StageSpec` DAG.

    ``scale`` replicas per recipe stage; ``base_seed`` reroots every seed
    stream and instance draw (``None`` keeps the recipe's recorded seeds —
    at ``scale=1`` that replays the profiled campaign exactly).
    """
    stages = []
    for plan in _plan(recipe, scale=scale, base_seed=base_seed):
        instance = InstanceMix.from_dict(plan["instance"])
        stages.append(
            StageSpec(
                key=plan["key"],
                label=plan["label"],
                kind=plan["kind"],
                make_solver=instance.make_solver,
                quota=plan["quota"],
                base_seed=plan["base_seed"],
                budget=plan["budget"],
                emit_keys=(plan["key"],),
                after=tuple(plan["after"]),
                required=plan["required"],
                supports_cutoff=plan["supports_cutoff"],
            )
        )
    return stages


def describe_campaign(
    recipe: CampaignRecipe, *, scale: int = 1, base_seed: int | None = None
) -> dict:
    """The generated campaign as a pure-JSON plan (no solvers built).

    Byte-identical across invocations for the same inputs when dumped with
    ``sort_keys=True`` — the determinism contract the generation tests pin.
    """
    plans = _plan(recipe, scale=scale, base_seed=base_seed)
    return {
        "recipe": recipe.name,
        "scale": scale,
        "base_seed": base_seed,
        "n_stages": len(plans),
        "total_quota": sum(plan["quota"] for plan in plans),
        "stages": plans,
    }


def generate_submission(
    recipe: CampaignRecipe,
    *,
    scale: int = 1,
    base_seed: int | None = None,
    controller: str = "off",
    tenant: str | None = None,
) -> dict:
    """Project a recipe onto the campaign service's submission format.

    A service submission carries one :class:`ExperimentConfig`, which can
    express one size per CSP problem and one SAT workload — so here
    ``scale`` multiplies the observation quota (``n_sequential_runs``)
    instead of adding replica stages, and the stage selection restricts
    the campaign to exactly the recipe's stage set.  The returned mapping
    is validated against :mod:`repro.service.schema` before it is
    returned, so a recipe the service cannot express fails here, not as a
    400 later.
    """
    # Lazy: the recipes package must stay importable without the service.
    from repro.service import schema as service_schema

    if not isinstance(scale, int) or isinstance(scale, bool) or scale < 1:
        raise RecipeError(f"scale must be an integer >= 1, got {scale!r}")

    csp_fields = {"MS": "magic_square_n", "AI": "all_interval_n", "Costas": "costas_n"}
    config: dict = {}
    sat_stage: StageRecipe | None = None
    for stage in recipe.stages:
        instance = stage.instance
        if instance.workload == "csp":
            field = csp_fields[instance.problem]
            if config.get(field, instance.size) != instance.size:
                raise RecipeError(
                    f"recipe {recipe.name!r}: conflicting sizes for {instance.problem}"
                )
            config[field] = instance.size
        else:
            if sat_stage is None or stage.key == "SAT":
                sat_stage = stage
            if (
                stage.instance.sat_family != sat_stage.instance.sat_family
                or stage.instance.n_variables != sat_stage.instance.n_variables
                or stage.instance.clause_ratio != sat_stage.instance.clause_ratio
                or stage.instance.k != sat_stage.instance.k
                or stage.instance.dimacs != sat_stage.instance.dimacs
            ):
                raise RecipeError(
                    f"recipe {recipe.name!r}: one submission carries one SAT workload; "
                    f"stages {sat_stage.key!r} and {stage.key!r} disagree"
                )

    if sat_stage is not None:
        instance = sat_stage.instance
        config["sat_family"] = instance.sat_family
        if instance.sat_family == "dimacs":
            config["sat_dimacs"] = instance.dimacs
        else:
            config["sat_n_variables"] = instance.n_variables
            config["sat_clause_ratio"] = instance.clause_ratio
            config["sat_k"] = instance.k
        if sat_stage.key == "SAT":
            config["sat_policy"] = instance.policy

    if base_seed is not None:
        config["base_seed"] = base_seed
    else:
        recorded = [
            s.instance.instance_seed
            for s in recipe.stages
            if s.instance.instance_seed is not None
        ]
        if recorded:
            config["base_seed"] = recorded[0]

    config["n_sequential_runs"] = max(2, max(s.quota for s in recipe.stages) * scale)
    config["max_iterations"] = max(s.budget for s in recipe.stages)

    submission: dict = {
        "profile": "quick",
        "config": config,
        "controller": controller,
        "stages": ",".join(stage.key for stage in recipe.stages),
    }
    if tenant is not None:
        submission["tenant"] = tenant
    try:
        service_schema.CampaignSubmission.from_dict(submission)
    except ValueError as exc:
        raise RecipeError(
            f"recipe {recipe.name!r} cannot be expressed as a service submission: {exc}"
        ) from exc
    return submission
