"""Wire format of the campaign service.

A submission carries a full :class:`~repro.experiments.config.ExperimentConfig`
(optionally seeded from a named profile), the controller choice and the
stage selection — exactly the knobs of the ``campaign`` CLI subcommand, so
an HTTP-submitted campaign and a CLI campaign at the same ``base_seed``
produce byte-identical observations and decision logs (the service-smoke
CI lane asserts this).

Everything here is strict: unknown config keys, unknown controllers and
malformed tenant names are :class:`ValueError` at the door (the server
maps them to 400), never a half-configured campaign later.
"""

from __future__ import annotations

import dataclasses
import re
from typing import Any, Mapping

from repro.campaign import CONTROLLER_NAMES, StageSpec, select_stages
from repro.experiments.config import PROFILES, ExperimentConfig
from repro.experiments.stages import campaign_stages

__all__ = [
    "CampaignSubmission",
    "DEFAULT_TENANT",
    "config_from_dict",
    "config_to_dict",
]

#: Tenant used when a submission does not name one.
DEFAULT_TENANT = "default"

#: Tenant names become cache directory names; keep them filesystem-safe.
_TENANT_RE = re.compile(r"^[A-Za-z0-9._-]{1,64}$")

#: Class-constant dataclass fields that are not configuration (the paper's
#: per-benchmark fit choices); they never cross the wire.
_NON_CONFIG_FIELDS = frozenset({"PAPER_FAMILIES", "PAPER_SHIFT_RULES"})

#: Config fields serialised as JSON arrays and restored as tuples.
_TUPLE_FIELDS = frozenset({"cores", "extended_cores"})

def _config_field_names() -> list[str]:
    return [
        f.name for f in dataclasses.fields(ExperimentConfig) if f.name not in _NON_CONFIG_FIELDS
    ]


def config_to_dict(config: ExperimentConfig) -> dict:
    """JSON-ready mapping of every real configuration field."""
    out: dict[str, Any] = {}
    for name in _config_field_names():
        value = getattr(config, name)
        out[name] = list(value) if name in _TUPLE_FIELDS else value
    return out


def config_from_dict(
    payload: Mapping[str, Any] | None, *, profile: str = "quick"
) -> ExperimentConfig:
    """Build a config from a profile plus field overrides.

    ``payload`` may name any real :class:`ExperimentConfig` field; values
    are applied over the named profile's defaults, so a full serialised
    config round-trips and a sparse ``{"base_seed": 7}`` works too.
    Unknown keys and unknown profiles raise :class:`ValueError` (the
    config's own ``__post_init__`` validates the values themselves).
    """
    if profile not in PROFILES:
        raise ValueError(f"unknown profile {profile!r} (profiles: {', '.join(PROFILES)})")
    base = PROFILES[profile]()
    if not payload:
        return base
    known = set(_config_field_names())
    unknown = sorted(set(payload) - known)
    if unknown:
        raise ValueError(f"unknown config fields: {unknown}")
    overrides: dict[str, Any] = {}
    for name, value in payload.items():
        overrides[name] = tuple(value) if name in _TUPLE_FIELDS else value
    return dataclasses.replace(base, **overrides)


@dataclasses.dataclass(frozen=True)
class CampaignSubmission:
    """One validated campaign request.

    Attributes
    ----------
    config:
        The full experiment configuration the campaign runs at.
    controller:
        ``"off"``, ``"static"`` or ``"adaptive"`` (the orchestrator's
        vocabulary).
    stages:
        Optional comma-separated stage-key globs (the CLI's ``--stages``
        syntax); dependencies are pulled in automatically.
    dry_run:
        Plan only — record the static plan in the decision log without
        executing any solver.
    tenant:
        Cache namespace the campaign's batches are attributed to.
    """

    config: ExperimentConfig
    controller: str = "off"
    stages: str | None = None
    dry_run: bool = False
    tenant: str = DEFAULT_TENANT

    def __post_init__(self) -> None:
        if self.controller not in CONTROLLER_NAMES:
            raise ValueError(
                f"unknown controller {self.controller!r} "
                f"(controllers: {', '.join(CONTROLLER_NAMES)})"
            )
        if not _TENANT_RE.match(self.tenant):
            raise ValueError(
                f"invalid tenant {self.tenant!r}: need 1-64 characters from "
                "[A-Za-z0-9._-]"
            )
        # Resolve the stage selection eagerly so a bad pattern is a 400 at
        # submission time, not a failed job minutes later.
        self.build_stages()

    def build_stages(self) -> list[StageSpec]:
        """The stage DAG this submission asks the orchestrator to run."""
        stages = campaign_stages(self.config)
        if self.stages is not None:
            stages = select_stages(stages, self.stages)
        return stages

    def as_dict(self) -> dict:
        return {
            "config": config_to_dict(self.config),
            "controller": self.controller,
            "stages": self.stages,
            "dry_run": self.dry_run,
            "tenant": self.tenant,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "CampaignSubmission":
        """Parse and validate a submission body.

        Accepted keys: ``profile`` (default ``"quick"``), ``config``
        (field overrides over the profile), ``controller``, ``stages``,
        ``dry_run``, ``tenant``.  Anything else is an error.
        """
        if not isinstance(payload, Mapping):
            raise ValueError(f"submission must be a JSON object, got {type(payload).__name__}")
        allowed = {"profile", "config", "controller", "stages", "dry_run", "tenant"}
        unknown = sorted(set(payload) - allowed)
        if unknown:
            raise ValueError(f"unknown submission fields: {unknown}")
        config = config_from_dict(
            payload.get("config"), profile=payload.get("profile", "quick")
        )
        stages = payload.get("stages")
        if stages is not None and not isinstance(stages, str):
            raise ValueError("stages must be a comma-separated string of key globs")
        return cls(
            config=config,
            controller=payload.get("controller", "off"),
            stages=stages,
            dry_run=bool(payload.get("dry_run", False)),
            tenant=payload.get("tenant", DEFAULT_TENANT),
        )
