"""The versioned, strictly-validated workload-recipe document format.

A recipe is to a campaign what a WfCommons recipe is to a workflow: not the
raw observations, but a fitted *description* precise enough to synthesise
realistic campaigns from.  The document is plain JSON with a format tag
(:data:`RECIPE_FORMAT`); every layer validates strictly — unknown fields,
unknown format versions, unknown families/kinds/workloads and out-of-range
values are :class:`RecipeError` at parse time, never a half-built campaign
later (the same posture as :mod:`repro.service.schema`).

A stage's instance mix is the shared
:class:`~repro.experiments.instances.InstanceMix` descriptor (re-exported
here with its :class:`RecipeError`), the same one experiment configs build
their stages from.

Round-trip losslessness is part of the contract and pinned by tests:
``CampaignRecipe.from_dict(r.as_dict())`` equals ``r``, and
``load(save(r))`` reproduces the JSON byte for byte.

Two example recipes profiled from the nightly ``medium`` campaign ship
under ``repro/recipes/bundled/`` (see :func:`bundled_recipe_names`); the
docs-check CI lane runs the documented CLI commands against them.
"""

from __future__ import annotations

import dataclasses
import json
import math
import re
from importlib import resources
from pathlib import Path
from typing import Mapping

from repro.experiments.instances import (
    InstanceMix,
    RecipeError,
    _finite,
    _positive_int,
    _require_keys,
)
from repro.experiments.stages import STAGE_KINDS

__all__ = [
    "CampaignRecipe",
    "FittedDistribution",
    "InstanceMix",
    "RECIPE_FORMAT",
    "RecipeError",
    "StageRecipe",
    "bundled_recipe_names",
    "bundled_recipe_path",
    "load_bundled_recipe",
]

#: Format tag of the recipe JSON (bump on incompatible layout changes).
RECIPE_FORMAT = "repro-campaign-recipe-v1"

#: Distribution families a recipe may record (``stats.online`` fitters).
DISTRIBUTION_FAMILIES: Mapping[str, tuple[str, ...]] = {
    "censored_exponential": ("x0", "lam"),
    "lognormal": ("mu", "sigma"),
}

#: Recipe names double as filenames and CLI arguments; keep them safe.
_NAME_RE = re.compile(r"^[A-Za-z0-9._-]{1,64}$")


@dataclasses.dataclass(frozen=True)
class FittedDistribution:
    """A fitted runtime-distribution family with its parameters.

    ``family`` is one of :data:`DISTRIBUTION_FAMILIES`; ``params`` must
    carry exactly that family's parameter names with finite values
    (``censored_exponential`` additionally requires a positive rate).
    ``n_events``/``n_censored`` record the evidence the fit saw.
    """

    family: str
    params: Mapping[str, float]
    n_events: int
    n_censored: int

    def __post_init__(self) -> None:
        if self.family not in DISTRIBUTION_FAMILIES:
            raise RecipeError(
                f"unknown distribution family {self.family!r} "
                f"(families: {', '.join(DISTRIBUTION_FAMILIES)})"
            )
        expected = DISTRIBUTION_FAMILIES[self.family]
        got = tuple(sorted(self.params))
        if got != tuple(sorted(expected)):
            raise RecipeError(
                f"family {self.family!r} needs params {sorted(expected)}, got {sorted(got)}"
            )
        params = {name: _finite(value, f"params.{name}") for name, value in self.params.items()}
        if self.family == "censored_exponential" and params["lam"] <= 0:
            raise RecipeError(f"params.lam must be positive, got {params['lam']!r}")
        if self.family == "lognormal" and params["sigma"] < 0:
            raise RecipeError(f"params.sigma must be >= 0, got {params['sigma']!r}")
        object.__setattr__(self, "params", params)
        if not isinstance(self.n_events, int) or isinstance(self.n_events, bool) or self.n_events < 1:
            raise RecipeError(f"n_events must be an integer >= 1, got {self.n_events!r}")
        if not isinstance(self.n_censored, int) or isinstance(self.n_censored, bool) or self.n_censored < 0:
            raise RecipeError(f"n_censored must be an integer >= 0, got {self.n_censored!r}")

    def mean(self) -> float:
        """Mean runtime (iterations) implied by the fitted parameters."""
        if self.family == "censored_exponential":
            return self.params["x0"] + 1.0 / self.params["lam"]
        return math.exp(self.params["mu"] + 0.5 * self.params["sigma"] ** 2)

    def as_dict(self) -> dict:
        return {
            "family": self.family,
            "params": {name: self.params[name] for name in sorted(self.params)},
            "n_events": self.n_events,
            "n_censored": self.n_censored,
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "FittedDistribution":
        _require_keys(payload, ("family", "params", "n_events", "n_censored"), "runtime")
        for key in ("family", "params", "n_events", "n_censored"):
            if key not in payload:
                raise RecipeError(f"runtime: missing field {key!r}")
        params = payload["params"]
        if not isinstance(params, Mapping):
            raise RecipeError("runtime.params must be a JSON object")
        return cls(
            family=payload["family"],
            params=dict(params),
            n_events=payload["n_events"],
            n_censored=payload["n_censored"],
        )


@dataclasses.dataclass(frozen=True)
class StageRecipe:
    """One profiled stage: instance mix, fitted runtimes, quotas and DAG edge.

    ``budget_ratio`` is the observed headroom ``budget / fitted mean`` —
    how many fitted mean-runtimes the per-run censoring threshold allowed.
    The generator preserves it when re-deriving budgets, so synthesised
    campaigns censor at the same *relative* depth the profiled one did.
    """

    key: str
    label: str
    kind: str
    instance: InstanceMix
    runtime: FittedDistribution
    censoring_rate: float
    quota: int
    budget: int
    base_seed: int
    budget_ratio: float
    after: tuple[str, ...] = ()
    required: bool = True
    supports_cutoff: bool = False

    def __post_init__(self) -> None:
        if not self.key or not isinstance(self.key, str):
            raise RecipeError(f"stage key must be a non-empty string, got {self.key!r}")
        if not isinstance(self.label, str) or not self.label:
            raise RecipeError(f"stage {self.key!r}: label must be a non-empty string")
        if self.kind not in STAGE_KINDS:
            raise RecipeError(
                f"stage {self.key!r}: unknown kind {self.kind!r} (kinds: {', '.join(STAGE_KINDS)})"
            )
        rate = _finite(self.censoring_rate, f"stage {self.key!r}: censoring_rate")
        if not 0.0 <= rate <= 1.0:
            raise RecipeError(f"stage {self.key!r}: censoring_rate must be in [0, 1], got {rate}")
        object.__setattr__(self, "censoring_rate", rate)
        _positive_int(self.quota, f"stage {self.key!r}: quota")
        _positive_int(self.budget, f"stage {self.key!r}: budget")
        if isinstance(self.base_seed, bool) or not isinstance(self.base_seed, int):
            raise RecipeError(f"stage {self.key!r}: base_seed must be an integer")
        ratio = _finite(self.budget_ratio, f"stage {self.key!r}: budget_ratio")
        if ratio <= 0:
            raise RecipeError(f"stage {self.key!r}: budget_ratio must be positive, got {ratio}")
        object.__setattr__(self, "budget_ratio", ratio)
        object.__setattr__(self, "after", tuple(self.after))
        if any(not isinstance(dep, str) or not dep for dep in self.after):
            raise RecipeError(f"stage {self.key!r}: after must be non-empty stage keys")

    def as_dict(self) -> dict:
        return {
            "key": self.key,
            "label": self.label,
            "kind": self.kind,
            "instance": self.instance.as_dict(),
            "runtime": self.runtime.as_dict(),
            "censoring_rate": self.censoring_rate,
            "quota": self.quota,
            "budget": self.budget,
            "base_seed": self.base_seed,
            "budget_ratio": self.budget_ratio,
            "after": list(self.after),
            "required": self.required,
            "supports_cutoff": self.supports_cutoff,
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "StageRecipe":
        allowed = (
            "key",
            "label",
            "kind",
            "instance",
            "runtime",
            "censoring_rate",
            "quota",
            "budget",
            "base_seed",
            "budget_ratio",
            "after",
            "required",
            "supports_cutoff",
        )
        _require_keys(payload, allowed, "stage")
        missing = [k for k in allowed if k not in payload]
        if missing:
            raise RecipeError(f"stage: missing fields {missing}")
        if not isinstance(payload["after"], list):
            raise RecipeError("stage.after must be a JSON array of stage keys")
        for flag in ("required", "supports_cutoff"):
            if not isinstance(payload[flag], bool):
                raise RecipeError(f"stage.{flag} must be a boolean, got {payload[flag]!r}")
        return cls(
            key=payload["key"],
            label=payload["label"],
            kind=payload["kind"],
            instance=InstanceMix.from_dict(payload["instance"]),
            runtime=FittedDistribution.from_dict(payload["runtime"]),
            censoring_rate=payload["censoring_rate"],
            quota=payload["quota"],
            budget=payload["budget"],
            base_seed=payload["base_seed"],
            budget_ratio=payload["budget_ratio"],
            after=tuple(payload["after"]),
            required=payload["required"],
            supports_cutoff=payload["supports_cutoff"],
        )


@dataclasses.dataclass(frozen=True)
class CampaignRecipe:
    """A complete campaign description: named, validated, losslessly stored.

    ``source`` records provenance (the profiled report's controller and
    total observation count) without affecting generation — two recipes
    differing only in ``source`` generate identical campaigns.
    """

    name: str
    description: str
    stages: tuple[StageRecipe, ...]
    source: Mapping[str, object] = dataclasses.field(default_factory=dict)

    def __post_init__(self) -> None:
        if not _NAME_RE.match(self.name or ""):
            raise RecipeError(
                f"invalid recipe name {self.name!r}: need 1-64 characters from [A-Za-z0-9._-]"
            )
        if not isinstance(self.description, str):
            raise RecipeError("description must be a string")
        object.__setattr__(self, "stages", tuple(self.stages))
        if not self.stages:
            raise RecipeError("a recipe needs at least one stage")
        keys = [stage.key for stage in self.stages]
        duplicates = sorted({key for key in keys if keys.count(key) > 1})
        if duplicates:
            raise RecipeError(f"duplicate stage keys: {duplicates}")
        known = set(keys)
        for stage in self.stages:
            unknown = [dep for dep in stage.after if dep not in known]
            if unknown:
                raise RecipeError(f"stage {stage.key!r} depends on unknown stages {unknown}")
        # Kahn's algorithm: the DAG must be acyclic to be runnable at all.
        done: set[str] = set()
        remaining = list(self.stages)
        while remaining:
            ready = [s for s in remaining if all(dep in done for dep in s.after)]
            if not ready:
                cycle = sorted(s.key for s in remaining)
                raise RecipeError(f"stage dependencies contain a cycle among {cycle}")
            done.update(s.key for s in ready)
            remaining = [s for s in remaining if s.key not in done]
        source = dict(self.source)
        object.__setattr__(self, "source", source)

    def stage(self, key: str) -> StageRecipe:
        for stage in self.stages:
            if stage.key == key:
                return stage
        raise KeyError(f"no stage {key!r} in recipe {self.name!r}")

    def as_dict(self) -> dict:
        return {
            "format": RECIPE_FORMAT,
            "name": self.name,
            "description": self.description,
            "source": dict(self.source),
            "stages": [stage.as_dict() for stage in self.stages],
        }

    def save(self, path: str | Path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.as_dict(), indent=2, sort_keys=True) + "\n")
        return path

    @classmethod
    def from_dict(cls, payload: Mapping) -> "CampaignRecipe":
        _require_keys(payload, ("format", "name", "description", "source", "stages"), "recipe")
        if payload.get("format") != RECIPE_FORMAT:
            raise RecipeError(
                f"not a campaign recipe (format={payload.get('format')!r}, "
                f"expected {RECIPE_FORMAT!r})"
            )
        missing = [k for k in ("name", "description", "source", "stages") if k not in payload]
        if missing:
            raise RecipeError(f"recipe: missing fields {missing}")
        if not isinstance(payload["stages"], list):
            raise RecipeError("recipe.stages must be a JSON array")
        if not isinstance(payload["source"], Mapping):
            raise RecipeError("recipe.source must be a JSON object")
        return cls(
            name=payload["name"],
            description=payload["description"],
            source=dict(payload["source"]),
            stages=tuple(StageRecipe.from_dict(s) for s in payload["stages"]),
        )

    @classmethod
    def load(cls, path: str | Path) -> "CampaignRecipe":
        try:
            payload = json.loads(Path(path).read_text())
        except json.JSONDecodeError as exc:
            raise RecipeError(f"{path}: not valid JSON ({exc})") from None
        return cls.from_dict(payload)


# ----------------------------------------------------------------------
# Bundled example recipes (see docs/recipes.md)
# ----------------------------------------------------------------------
def _bundled_root():
    return resources.files("repro.recipes") / "bundled"


def bundled_recipe_names() -> list[str]:
    """Names of the recipes shipped with the package (without ``.json``)."""
    return sorted(
        entry.name[: -len(".json")]
        for entry in _bundled_root().iterdir()
        if entry.name.endswith(".json")
    )


def bundled_recipe_path(name: str) -> Path:
    """Filesystem path of a bundled recipe; raises ``RecipeError`` if unknown."""
    entry = _bundled_root() / f"{name}.json"
    with resources.as_file(entry) as path:
        if not path.exists():
            known = ", ".join(bundled_recipe_names())
            raise RecipeError(f"no bundled recipe {name!r} (bundled: {known})")
        return path


def load_bundled_recipe(name: str) -> CampaignRecipe:
    """Load one of the recipes shipped with the package."""
    return CampaignRecipe.load(bundled_recipe_path(name))
