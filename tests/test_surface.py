"""Every public name of the library has a caller outside the tests.

A public function, class or method of ``src/restriction_lab`` must be
named somewhere in ``src/``, ``scripts/`` or ``perfbench/`` (a call, an
attribute access, an import, or a target the benchmark traces), or sit
in REFERENCE_ROUTES with the reason it is kept.  Names are matched by
their last component, so two methods of one name count as one.
"""

import ast
from pathlib import Path

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


def _traced_names() -> set[str]:
    """The attribute paths in perfbench/spans.py's TARGETS."""
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text(
        encoding="utf-8"))
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and getattr(node.targets[0], "id", None) == "TARGETS"):
            return {part for _, attr in ast.literal_eval(node.value)
                    for part in attr.split(".")}
    raise AssertionError("perfbench/spans.py has no TARGETS list")


def _referenced_names() -> set[str]:
    names = _traced_names()
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
