"""Planted faults: a check that no fault can make FAIL verifies nothing.

Each row scales one library function by a factor where its callers look
it up (every module that holds it under that name), then runs one
registered check of the shipped configs, which must PASS without the
fault and FAIL with it.  This is mutation testing (DeMillo, Lipton and
Sayward, IEEE Computer 1978), by hand.
"""

import sys
from pathlib import Path

import pytest

import restriction_lab.registry  # noqa: F401  (imports every module)
from restriction_lab.runner import load_config, run

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# (module, function, factor, operation that must FAIL)
ROWS = [
    ("jacobian", "_spline_means", 1.01, "jacobian-identity"),
    ("vandermonde", "vandermonde_arr", 1.01, "jacobian-identity"),
    ("vandermonde", "vandermonde_arr", 1.01, "monomial-closed-form"),
    ("conditions", "_ratio_at", 1.01, "estimate-A"),
]


def _shipped_check(operation):
    """The shipped config holding ``operation``, cut down to that check."""
    for name in ("default.json", "all_ops.json"):
        cfg = load_config(str(CONFIGS / name))
        checks = [c for c in cfg.checks if c["operation"] == operation]
        if checks:
            cfg.checks = checks[:1]
            return cfg
    raise LookupError(operation)


def _plant(monkeypatch, module, name, factor):
    """Scale ``module.name`` by ``factor`` in every module that holds it."""
    fn = getattr(sys.modules[f"restriction_lab.{module}"], name)
    holders = [m for key, m in sys.modules.items()
               if key.startswith("restriction_lab.")
               and getattr(m, name, None) is fn]
    for m in holders:
        monkeypatch.setattr(m, name, lambda *a, **k: factor * fn(*a, **k))
    return holders


@pytest.mark.parametrize("module, name, factor, operation", ROWS,
                         ids=[f"{m}.{n}-{op}" for m, n, _, op in ROWS])
def test_planted_fault_fails_its_check(monkeypatch, module, name, factor,
                                       operation):
    cfg = _shipped_check(operation)
    (rep,) = run(cfg)
    assert rep.passed, rep.notes
    assert _plant(monkeypatch, module, name, factor)
    (rep,) = run(cfg)
    assert not rep.passed
