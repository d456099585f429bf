"""Check reports and experiment configuration records."""

import inspect
import json
import math
from dataclasses import dataclass, field, fields
from typing import Any, Callable, Optional

import numpy as np


class DomainError(ValueError):
    """Evaluation point outside the curve domain."""


class ConfigError(ValueError):
    """Malformed experiment configuration."""


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
    """A nonempty list (of ``size`` entries, if given; empty too with
    ``empty``) whose entries ``item`` parses, as written; with ``single``
    also one value that ``item`` parses."""

    def __init__(self, item, single=False, size: int = None, empty=False):
        self.item, self.single = item, single
        self.size, self.empty = size, empty

    def __call__(self, key: str, value):
        if self.single and not isinstance(value, list):
            self.item(key, value)
            return value
        if not isinstance(value, list) or not (value or self.empty):
            raise ConfigError(f"'{key}' must be a "
                              f"{'' if self.empty else 'nonempty '}list, "
                              f"got {value!r}")
        if self.size not in (None, len(value)):
            raise ConfigError(f"'{key}' must have {self.size} entries, "
                              f"got {value!r}")
        for i, x in enumerate(value):
            self.item(f"{key}[{i}]", x)
        return value


class Spec:
    """A nested object whose key table is the keyword parameters of its
    builder ``fn`` (read once), parsed as written; ``build`` builds it."""

    def __init__(self, fn: Callable, what: str):
        self.fn, self.what = fn, what
        self.params = tuple(inspect.signature(fn).parameters.values())

    def parse(self, spec) -> tuple["Spec", dict]:
        """The Spec of the builder of ``spec`` and its parsed values."""
        return self, parse_keys(self.what, spec, self.params)

    def __call__(self, key: str, value):
        self.parse(value)
        return value

    def build(self, spec):
        builder, values = self.parse(spec)
        return builder.fn(**values)


class Kind(Spec):
    """A nested object whose key ``tag`` names its builder in ``builders``;
    the builder's keyword parameters are the key table of its other keys."""

    def __init__(self, what: str, builders: dict, tag: str = "kind"):
        self.what, self.tag = what, tag
        self.builders = {name: Spec(fn, f"{what} {name!r}")
                         for name, fn in builders.items()}

    def parse(self, spec) -> tuple[Spec, dict]:
        name = spec.get(self.tag) if isinstance(spec, dict) else None
        if not isinstance(name, str) or name not in self.builders:
            raise ConfigError(f"unknown {self.what} {self.tag} {name!r}; "
                              f"it accepts {', '.join(self.builders)}")
        return self.builders[name].parse(
            {k: v for k, v in spec.items() if k != self.tag})


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


def parse_keys(where: str, spec, params) -> dict:
    """The values of the object ``spec`` by key, each parsed by the
    annotation of its parameter in ``params``; ConfigError unless
    ``spec`` is an object holding only keys of ``params`` and every key
    without a default."""
    if not isinstance(spec, dict):
        raise ConfigError(f"{where} must be an object, got {spec!r}")
    parsers = {p.name: p.annotation for p in params}
    unknown = spec.keys() - parsers.keys()
    if unknown:
        raise ConfigError(f"{where}: unknown key(s) "
                          f"{', '.join(map(repr, sorted(unknown)))}; it "
                          f"accepts {', '.join(parsers)}")
    for p in params:
        if p.default is p.empty and p.name not in spec:
            raise ConfigError(f"{where}: missing required key {p.name!r}")
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
        """The fields as they are, not copied, but ``timing``: wall-clock
        would break bit-reproducibility."""
        return {f.name: getattr(self, f.name) for f in fields(self)
                if f.name != "timing"}


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


def _checks(key: str, value):
    """Check descriptors, each naming its 'operation' (none runs nothing)."""
    if not isinstance(value, list):
        raise ConfigError(f"config.{key}: required list of check descriptors")
    for i, c in enumerate(value):
        if not isinstance(c, dict) or "operation" not in c:
            raise ConfigError(f"config.{key}[{i}]: missing 'operation'")
    return value


def _text(key: str, value) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"'{key}' must be a string, got {value!r}")
    return value


@dataclass
class ExperimentConfig:
    """A run; the fields are the config's key table (see Spec)."""

    checks: _checks
    seed: Int() = 0
    output: _text = "report"

    @classmethod
    def from_dict(cls, raw: dict[str, Any]) -> "ExperimentConfig":
        return Spec(cls, "config").build(raw)

    def to_dict(self) -> dict[str, Any]:
        """The fields as they are, not copied."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


def _plain(obj: Any) -> Any:
    """numpy scalars (numpy.bool, numpy.int64, ...) as Python values."""
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON "
                    "serializable")


def dump_json(obj: Any, path: str) -> None:
    """Write ``obj`` as strict, indented JSON with sorted keys, encoded
    whole and written at once.  The file is truncated first, so one that
    does not encode (a NaN or infinite float included) leaves it empty,
    never an earlier run's report."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(obj, indent=2, sort_keys=True, default=_plain,
                            allow_nan=False) + "\n")
