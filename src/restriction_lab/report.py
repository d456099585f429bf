"""Check reports and experiment configuration records."""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields
from typing import Any, Callable, Optional

import numpy as np


class DomainError(ValueError):
    """Evaluation point outside the curve domain."""


class CapabilityError(ValueError):
    """Requested order/dimension beyond what an oracle supports."""


class ConfigError(ValueError):
    """Malformed experiment configuration."""


def reject_unknown_keys(where: str, given, accepted) -> None:
    """Raise ConfigError naming every key in ``given`` not in ``accepted``."""
    unknown = sorted(set(given) - set(accepted))
    if unknown:
        raise ConfigError(f"{where}: unknown key(s) "
                          f"{', '.join(map(repr, unknown))}; it accepts "
                          f"{', '.join(accepted)}")


# Parsers of config values: parse(key, value) checks one JSON value and
# gives what the check receives, or raises ConfigError naming ``key``.


def _finite(key: str, value):
    """``value``; ConfigError unless it is a finite number (no bool)."""
    try:
        if not isinstance(value, bool) and math.isfinite(value):
            return value
    except (TypeError, OverflowError):  # not a number; an int beyond floats
        pass
    raise ConfigError(f"'{key}' must be a finite number, got {value!r}")


class Int:
    """A whole number from ``least`` to ``most``, as int(value)."""

    def __init__(self, least: float = -math.inf, most: float = math.inf):
        self.least, self.most = least, most

    def __call__(self, key: str, value) -> int:
        if _finite(key, value) != int(value):
            raise ConfigError(f"'{key}' must be a whole number, got {value!r}")
        if value < self.least:
            raise ConfigError(f"'{key}' must be at least {self.least}, "
                              f"got {int(value)}")
        if value > self.most:
            raise ConfigError(f"'{key}' must be at most {self.most}, "
                              f"got {int(value)}")
        return int(value)


class Real:
    """A finite number above ``above``, as float(value), or with ``keep``
    as written (an int stays an int in the report)."""

    def __init__(self, above: float = -math.inf, keep: bool = False):
        self.above, self.keep = above, keep

    def __call__(self, key: str, value):
        if not _finite(key, value) > self.above:
            raise ConfigError(f"'{key}' must exceed {self.above}, "
                              f"got {float(value)}")
        return value if self.keep else float(value)


class Many:
    """A nonempty list whose entries ``item`` parses, as written."""

    def __init__(self, item):
        self.item = item

    def __call__(self, key: str, value):
        if not isinstance(value, list) or not value:
            raise ConfigError(f"'{key}' must be a nonempty list, "
                              f"got {value!r}")
        for i, x in enumerate(value):
            self.item(f"{key}[{i}]", x)
        return value


class Spec:
    """A nested spec that ``check(spec)`` accepts, as written (unbuilt)."""

    def __init__(self, check: Callable[[Any], Any]):
        self.check = check

    def __call__(self, key: str, value):
        self.check(value)
        return value


class Choice:
    """One of the JSON values ``choices``, as written."""

    def __init__(self, *choices):
        self.choices = choices

    def __call__(self, key: str, value):
        # the types too, since 1 == True
        if (type(value), value) not in [(type(c), c) for c in self.choices]:
            raise ConfigError(f"'{key}' must be one of "
                              f"{json.dumps(self.choices)}, got {value!r}")
        return value


def parse_keys(where: str, spec, parsers: dict, required=()) -> dict:
    """The values of the object ``spec`` by key, each parsed by
    ``parsers[key]``; ConfigError unless ``spec`` is an object holding
    only keys of ``parsers`` and every key of ``required``."""
    if not isinstance(spec, dict):
        raise ConfigError(f"{where} must be an object, got {spec!r}")
    reject_unknown_keys(where, spec, parsers)
    for key in required:
        if key not in spec:
            raise ConfigError(f"{where}: missing required key {key!r}")
    return {key: parsers[key](key, value) for key, value in spec.items()}


def worst_index(values) -> int | None:
    """Index of the worst entry of the sequence ``values``, where larger is
    worse.

    A NaN is worse than every number, so the first NaN wins.  Otherwise the
    first largest value wins: of tied values the earliest, and of values
    all equal the first.  None when ``values`` is empty.  For a smallest-
    is-worst quantity pass the negated values.
    """
    worst = None
    for i, v in enumerate(values):
        if math.isnan(v):
            return i
        if worst is None or v > values[worst]:
            worst = i
    return worst


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


def at_most(check_id: str, parameters: dict[str, Any], values, tol: float,
            witness: Optional[Callable[[int], dict[str, Any]]] = None,
            **fields) -> CheckReport:
    """The report of a "worst residual <= tol" check over the nonempty
    sequence ``values``.

    The estimate is the worst value by :func:`worst_index` (a NaN wins and
    FAILs), ``bound`` and ``tolerance`` are ``tol``, and the check passes
    when the worst value is at most ``tol``.  ``witness(i)`` gives the
    witness of the worst index i; any other CheckReport field (``series``,
    ``notes``, ``witnesses``...) passes through ``fields``.
    """
    i = worst_index(values)
    worst = values[i]
    if witness is not None:
        fields["witnesses"] = [witness(i)]
    return CheckReport(check_id=check_id, parameters=parameters,
                       estimate=worst, bound=tol, tolerance=tol,
                       passed=worst <= tol, **fields)


@dataclass
class ExperimentConfig:
    checks: list[dict[str, Any]]
    seed: int = 0
    output: str = "report"

    @classmethod
    def from_dict(cls, raw: dict[str, Any]) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        reject_unknown_keys("config", raw, [f.name for f in fields(cls)])
        checks = raw.get("checks")
        if checks is None or not isinstance(checks, list):
            raise ConfigError("config.checks: required list of check descriptors")
        for i, c in enumerate(checks):
            if not isinstance(c, dict) or "operation" not in c:
                raise ConfigError(f"config.checks[{i}]: missing 'operation'")
        return cls(
            checks=checks,
            seed=Int()("seed", raw.get("seed", 0)),
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
