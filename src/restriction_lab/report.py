"""Check reports and experiment configuration records."""

from __future__ import annotations

import json
from dataclasses import dataclass, field, asdict
from typing import Any, Optional

import numpy as np


class DomainError(ValueError):
    """Evaluation point outside the curve domain."""


class CapabilityError(ValueError):
    """Requested order/dimension beyond what an oracle supports."""


class ConfigError(ValueError):
    """Malformed experiment configuration."""


@dataclass
class CheckReport:
    """Outcome of one verified identity or inequality.

    ``estimate`` is the computed quantity (ratio, infimum, residual...),
    ``bound`` the value it is compared against (None for pure estimates),
    ``passed`` whether the comparison held within ``tolerance``.
    ``witnesses`` carries the samples backing the estimate, e.g. the
    minimizer of an empirical infimum.  ``timing`` (seconds) is kept for
    interactive use but never serialized, so that reports are
    reproducible byte-for-byte.
    """

    check_id: str
    parameters: dict[str, Any] = field(default_factory=dict)
    estimate: Optional[float] = None
    bound: Optional[float] = None
    tolerance: Optional[float] = None
    passed: bool = False
    witnesses: list[dict[str, Any]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    series: list[dict[str, Any]] = field(default_factory=list)
    timing: Optional[float] = None

    def to_dict(self) -> dict[str, Any]:
        d = asdict(self)
        d.pop("timing", None)  # wall-clock would break bit-reproducibility
        return d


@dataclass
class ExperimentConfig:
    checks: list[dict[str, Any]]
    curves: list[dict[str, Any]] = field(default_factory=list)
    seed: int = 0
    tolerances: dict[str, float] = field(default_factory=dict)
    output: str = "report"

    @classmethod
    def from_dict(cls, raw: dict[str, Any]) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        checks = raw.get("checks")
        if checks is None or not isinstance(checks, list):
            raise ConfigError("config.checks: required list of check descriptors")
        for i, c in enumerate(checks):
            if not isinstance(c, dict) or "operation" not in c:
                raise ConfigError(f"config.checks[{i}]: missing 'operation'")
        curves = raw.get("curves", [])
        if not isinstance(curves, list):
            raise ConfigError("config.curves: must be a list")
        return cls(
            checks=checks,
            curves=curves,
            seed=int(raw.get("seed", 0)),
            tolerances=dict(raw.get("tolerances", {})),
            output=str(raw.get("output", "report")),
        )

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)


def _plain(obj: Any) -> Any:
    """numpy scalars (numpy.bool, numpy.int64, ...) as Python values."""
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON "
                    "serializable")


def dump_json(obj: Any, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True, default=_plain)
        fh.write("\n")
