"""Seeded one-value fuzz of the shipped descriptors.

Every config a user can write ends in a verdict or a typed error.  Each
draw changes one value of one shipped check: a key at any depth (a
top-level key, or a key of a nested spec: a curve, a flatten base, a test
function, a t_grid, a lin-lemma instance or factor), or an entry of a
list (a test function's center, an interval's ends, ...).  The value is
removed, or set to 0, -1, half or one and a half times itself, NaN,
+inf, -inf, a string or true; a curve spec is also swapped for a
homogeneous one of its dimension.  The draw runs through
``registry.run_check`` at the shipped config's seed and must end in a
ConfigError (from a key table before the check runs, or from a rule that
ties keys together), a DomainError, QuadratureError or UnderflowError,
or a report that dumps as strict JSON.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from restriction_lab import registry
from restriction_lab.curves import CURVE
from restriction_lab.jacobian import UnderflowError
from restriction_lab.quadrature import QuadratureError
from restriction_lab.report import ConfigError, DomainError, _plain

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
TYPED = (ConfigError, DomainError, QuadratureError, UnderflowError)
_REMOVED = object()


def _shipped():
    checks = []
    for name in ("default.json", "all_ops.json"):
        with open(CONFIGS / name, encoding="utf-8") as fh:
            cfg = json.load(fh)
        checks += [(cfg["seed"], c) for c in cfg["checks"]]
    return checks


# the shipped checks with their configs' seeds, and a check of a flatten
# curve, which no shipped check uses
CASES = _shipped() + [(1, {
    "operation": "validate-monotone",
    "curve": {"kind": "flatten", "steps": 1, "d": 3, "domain": [0.0, 1.0],
              "base": {"kind": "monomial", "beta": 4.0}}})]
IDS = [c["operation"] for _, c in CASES[:-1]] + ["validate-monotone-flatten"]


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
    if isinstance(value, dict) and value.get("kind") in CURVE.builders:
        out.append(("homogeneous", _homogeneous_like(value)))
    return out


def _homogeneous_like(spec):
    """A homogeneous curve spec with the dimension and domain of the curve
    spec ``spec``: (t, t^2, ..., t^d)."""
    return {"kind": "homogeneous",
            "exponents": [float(a) for a in range(1, spec.get("d", 3) + 1)],
            **({"domain": spec["domain"]} if "domain" in spec else {})}


def _set(spec, key, new):
    """``spec`` (an object, or a list by index) with ``key`` set to
    ``new``, or removed."""
    spec = dict(spec) if isinstance(spec, dict) else list(spec)
    if new is _REMOVED:
        del spec[key]
    else:
        spec[key] = new
    return spec


def draws(spec, where=""):
    """(label, perturbed spec) of every one-value perturbation of the
    object or list ``spec``: each of its values, and within each nested
    object or list each of its values in turn (a spec's 'kind' or 'type'
    and a check's 'operation' stay)."""
    items = spec.items() if isinstance(spec, dict) else enumerate(spec)
    for key, value in items:
        if key in ("operation", "kind", "type"):
            continue
        label = (f"{where}.{key}" if isinstance(spec, dict)
                 else f"{where}[{key}]")
        for name, new in _values(value):
            yield f"{label.lstrip('.')}={name}", _set(spec, key, new)
        if isinstance(value, (dict, list)):
            for name, new in draws(value, label):
                yield name, _set(spec, key, new)


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


@pytest.mark.parametrize("seed,check", CASES, ids=IDS)
def test_every_one_key_perturbation_ends_typed(seed, check):
    bad = []
    with np.errstate(all="ignore"):
        for label, drawn in draws(check):
            end = outcome(drawn, seed)
            if end.startswith(("untyped", "non-finite")):
                bad.append(f"{label}: {end}")
    assert bad == []
