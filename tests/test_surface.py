"""Every public name of the library has a caller outside the tests.

A public function, class or method of ``src/restriction_lab`` must be
named somewhere in ``src/``, ``scripts/`` or ``perfbench/`` (a call, an
attribute access or an import; a target the benchmark traces is not a
caller), or sit in REFERENCE_ROUTES with the reason it is kept.  Names
are matched by their last component, so two methods of one name count
as one.  The checks that the benchmark's per-layer metrics stand for
call the names it traces.
"""

import ast
import importlib
import json
import sys
from pathlib import Path

import pytest

from restriction_lab.registry import run_check

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "restriction_lab"

# second routes that only tests compare against, kept on purpose
REFERENCE_ROUTES = {
    "curves.finite_difference":
        "central differences, the check on closed-form derivative oracles",
    "jacobian.offspring_point":
        "the defining sum of Gamma(t, h), against OffspringFrame.reconstruct",
    "jacobian.OffspringFrame.reconstruct":
        "Gamma(t, h) rebuilt from the affine decomposition",
    "vandermonde.psi_mean_tail_ratio_quad":
        "pointwise Psi quadrature, the second route to the tail ratio",
    "probe.extension":
        "the extension operator, for a measure-decay check (ROADMAP item 9)",
    "registry.run_check":
        "one descriptor parsed and run, the route of the tests and the fuzz "
        "(runner.run parses every descriptor once, up front)",
}


def _public_names() -> dict[str, str]:
    """'module.name' or 'module.Class.method' -> the name callers use."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_"):
                continue
            out[f"{path.stem}.{node.name}"] = node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, ast.FunctionDef)
                            and not item.name.startswith("_")):
                        out[f"{path.stem}.{node.name}.{item.name}"] = (
                            item.name)
    return out


def _referenced_names() -> set[str]:
    names = set()
    for top in ("src", "scripts", "perfbench"):
        for path in (ROOT / top).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.add(node.name)
    return names


def test_every_public_name_has_a_caller():
    used = _referenced_names()
    uncalled = sorted(q for q, name in _public_names().items()
                      if name not in used and q not in REFERENCE_ROUTES)
    assert not uncalled, (
        f"public names that only tests call: {uncalled}; give each a "
        "caller, make it private, or delete it")


def test_reference_routes_are_current():
    # an entry that gains a caller or loses its definition leaves the list
    public, used = _public_names(), _referenced_names()
    for qual, reason in REFERENCE_ROUTES.items():
        assert reason
        assert qual in public, f"{qual} is gone; drop it from the list"
        assert public[qual] not in used, f"{qual} now has a caller"


# a check of configs/default.json for each traced name that a check's
# route reaches, and the module that defines the name
TRACED = {"psi-lower-bound": ("vandermonde", "psi_mean_tail_ratio"),
          "jacobian-identity": ("jacobian", "jacobian_integral"),
          "estimate-alpha-B": ("geometry", "lambda_measure")}


@pytest.mark.parametrize("op", sorted(TRACED))
def test_shipped_checks_call_the_traced_names(op, monkeypatch):
    # wrap the name wherever a restriction_lab module holds it, as the
    # benchmark's tracer does, so that its metric counts the check's work
    module, name = TRACED[op]
    original = getattr(importlib.import_module(f"restriction_lab.{module}"),
                       name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] == "restriction_lab":
            for attr, val in list(vars(mod).items()):
                if val is original:
                    monkeypatch.setattr(mod, attr, counted)
    config = json.loads((ROOT / "configs" / "default.json").read_text(
        encoding="utf-8"))
    check = next(c for c in config["checks"] if c["operation"] == op)
    assert run_check(check, config["seed"]).passed
    assert calls
