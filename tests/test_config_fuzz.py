"""Seeded one-key fuzz of the shipped descriptors.

Every config a user can write ends in a verdict or a typed error.  Each
draw changes one key of one shipped check (a top-level key, or a number
of its curve spec): the key removed, or set to 0, -1, half or one and a
half times its value, NaN, +inf, -inf, a string or true.  The draw runs
through ``registry.run_check`` at the shipped config's seed and must end
in a ConfigError (from the key table before the check runs, or from a
rule that ties keys together), a DomainError, CapabilityError,
QuadratureError or UnderflowError, or a report that dumps as strict
JSON.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from restriction_lab import registry
from restriction_lab.jacobian import UnderflowError
from restriction_lab.quadrature import QuadratureError
from restriction_lab.report import (CapabilityError, ConfigError, DomainError,
                                    _plain)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
TYPED = (ConfigError, DomainError, CapabilityError, QuadratureError,
         UnderflowError)
_REMOVED = object()


def _shipped():
    checks = []
    for name in ("default.json", "all_ops.json"):
        with open(CONFIGS / name, encoding="utf-8") as fh:
            cfg = json.load(fh)
        checks += [(cfg["seed"], c) for c in cfg["checks"]]
    return checks


# the shipped checks with their configs' seeds
SHIPPED = _shipped()


def _scaled(value, factor):
    """``value`` times ``factor``: a number, or a list of numbers entry by
    entry; None for any other value."""
    if isinstance(value, bool):
        return None
    if isinstance(value, (int, float)):
        return value * factor
    if (isinstance(value, list) and value
            and all(isinstance(x, (int, float)) for x in value)):
        return [x * factor for x in value]
    return None


def _values(value):
    """(label, new value) of each perturbation of one key."""
    out = [("removed", _REMOVED), ("0", 0), ("-1", -1)]
    for factor in (0.5, 1.5):
        scaled = _scaled(value, factor)
        if scaled is not None:
            out.append((f"x{factor}", scaled))
    out += [("nan", math.nan), ("inf", math.inf), ("-inf", -math.inf),
            ("string", "x"), ("true", True)]
    return out


def _set(spec, key, new):
    spec = dict(spec)
    if new is _REMOVED:
        del spec[key]
    else:
        spec[key] = new
    return spec


def draws(check):
    """(label, perturbed check) of every one-key perturbation of
    ``check``: each top-level key, and each number of its curve spec."""
    for key, value in check.items():
        if key == "operation":
            continue
        for label, new in _values(value):
            yield f"{key}={label}", _set(check, key, new)
    curve = check.get("curve")
    if isinstance(curve, dict):
        for key, value in curve.items():
            if isinstance(value, (int, float)):
                for label, new in _values(value):
                    yield (f"curve.{key}={label}",
                           {**check, "curve": _set(curve, key, new)})


def outcome(check, seed) -> str:
    """How one draw ends: the name of a typed error, 'report', or what
    went wrong ('untyped ...' or 'non-finite report')."""
    try:
        rep = registry.run_check(check, seed)
    except TYPED as exc:
        return type(exc).__name__
    except Exception as exc:  # the finding this test looks for
        return f"untyped {type(exc).__name__}: {exc}"
    try:
        json.dumps(rep.to_dict(), allow_nan=False, default=_plain)
    except ValueError:
        return "non-finite report"
    return "report"


@pytest.mark.parametrize("seed,check", SHIPPED,
                         ids=[c["operation"] for _, c in SHIPPED])
def test_every_one_key_perturbation_ends_typed(seed, check):
    bad = []
    with np.errstate(all="ignore"):
        for label, drawn in draws(check):
            end = outcome(drawn, seed)
            if end.startswith(("untyped", "non-finite")):
                bad.append(f"{label}: {end}")
    assert bad == []
