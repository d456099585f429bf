"""The config language is the set of keys the adapters read.

Every operation declares its keys as its adapter's keyword parameters; a
descriptor with any other key, without a required key or with a value
out of range, or a config with an unknown top-level key, is a config
error (exit 2, no report), and the shipped configs set exactly the
declared keys.
"""

import inspect
import json
from pathlib import Path

import pytest

from restriction_lab.cli import main
from restriction_lab.registry import (KEYS, REGISTRY, OpEntry,
                                      check_descriptor, get_operation,
                                      run_check)
from restriction_lab.report import (Choice, ConfigError, Int, Kind, Many, Real,
                                    Spec)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _shipped_checks():
    checks = []
    for name in ("default.json", "all_ops.json"):
        with open(CONFIGS / name, encoding="utf-8") as fh:
            cfg = json.load(fh)
        checks += [(cfg["seed"], c) for c in cfg["checks"]]
    return checks


SHIPPED = _shipped_checks()


def _first_shipped(op):
    return next(c for _, c in SHIPPED if c["operation"] == op)


def _run_cli(tmp_path, config):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "out"
    return main(["run", str(cfg_path), "--output", str(out)]), out


@pytest.mark.parametrize("op", sorted(REGISTRY))
def test_extra_key_exits_2_without_report(tmp_path, capsys, op):
    check = {**_first_shipped(op), "n_sample": 100}
    code, out = _run_cli(tmp_path, {"seed": 1, "checks": [check]})
    assert code == 2
    assert not Path(str(out) + ".json").exists()
    err = capsys.readouterr().err
    assert f"{op}: unknown key(s) 'n_sample'" in err


_MONOMIAL = {"kind": "monomial", "beta": 4.0, "d": 3, "domain": [0.0, 1.0]}
_CENTER = [0.1, 0.0, -0.2]


def _with_curve(spec):
    return {**_first_shipped("validate-monotone"), "curve": spec}


def _with_test(spec):
    return {**_first_shipped("empirical-ratio"), "tests": [spec]}


def _lin_lemma(instance=None, factor=None):
    check = json.loads(json.dumps(_first_shipped("lin-lemma")))
    check["instance"].update(instance or {})
    if factor is not None:
        check["instance"]["factors"] = [factor]
    return check


# (check with one misspelled key in a nested spec, the spec as named in
# the error, the misspelled key)
NESTED = {
    "curve-monomial": (_with_curve({**_MONOMIAL, "domian": [0.0, 0.5]}),
                       "curve spec 'monomial'", "domian"),
    "curve-exp-flat": (_with_curve({"kind": "exp-flat", "beta": 1.0, "d": 2,
                                    "domain": [0.0, 0.4], "bta": 2.0}),
                       "curve spec 'exp-flat'", "bta"),
    "curve-poly-phi": (_with_curve({"kind": "poly-phi", "d": 3,
                                    "coeffs": [0, 0, 0, 0, 1.0],
                                    "coefs": [0, 1.0]}),
                       "curve spec 'poly-phi'", "coefs"),
    "curve-flatten": (_with_curve({"kind": "flatten", "base": _MONOMIAL,
                                   "step": 2}),
                      "curve spec 'flatten'", "step"),
    "curve-flatten-base": (_with_curve({"kind": "flatten", "steps": 1,
                                        "base": {**_MONOMIAL, "beat": 5.0}}),
                           "curve spec 'monomial'", "beat"),
    # through an operation that takes a homogeneous curve
    "curve-homogeneous": ({**_first_shipped("estimate-alpha-B"),
                           "curve": {"kind": "homogeneous",
                                     "exponents": [1.0, 2.0, 3.0], "d": 3}},
                          "curve spec 'homogeneous'", "d"),
    "test-Gaussian": (_with_test({"kind": "Gaussian", "center": _CENTER,
                                  "sigam": 1.0, "sigma": 1.0}),
                      "test function 'Gaussian'", "sigam"),
    "test-BoxBump": (_with_test({"kind": "BoxBump", "center": _CENTER,
                                 "sides": 1.0, "side": 2.0}),
                     "test function 'BoxBump'", "side"),
    "test-ModulatedGaussian": (_with_test({"kind": "ModulatedGaussian",
                                           "center": _CENTER, "sigma": 1.2,
                                           "freq": [2.0, 0.0, 0.0],
                                           "frequency": 3.0}),
                               "test function 'ModulatedGaussian'",
                               "frequency"),
    "t_grid": ({**_first_shipped("empirical-ratio"),
                "t_grid": {"a": 1e-4, "b": 1.0, "num": 11}},
               "t_grid", "num"),
    "lin-lemma-instance": (_lin_lemma({"lambda": [0.5, 0.5]}),
                           "lin-lemma instance", "lambda"),
    "lin-lemma-diff": (_lin_lemma(factor={"type": "diff", "j": 0, "k": 1,
                                          "kk": 1}),
                       "lin-lemma factor 'diff'", "kk"),
    "lin-lemma-upper": (_lin_lemma(factor={"type": "upper", "j": 0, "d": 4.0,
                                           "D": 5.0}),
                        "lin-lemma factor 'upper'", "D"),
    "lin-lemma-lower": (_lin_lemma(factor={"type": "lower", "j": 1, "c": 1.0,
                                           "cc": 0.0}),
                        "lin-lemma factor 'lower'", "cc"),
}


@pytest.mark.parametrize("case", sorted(NESTED))
def test_nested_misspelled_key_exits_2_without_report(tmp_path, capsys,
                                                      case):
    check, where, key = NESTED[case]
    code, out = _run_cli(tmp_path, {"seed": 1, "checks": [check]})
    assert code == 2
    assert not Path(str(out) + ".json").exists()
    assert f"{where}: unknown key(s) '{key}'" in capsys.readouterr().err


_HOMOGENEOUS = {"kind": "homogeneous", "exponents": [1.0, 2.0, 3.0]}
# the operations that read phi, which a homogeneous curve does not have
PHI_OPS = ["validate-monotone", "estimate-sigma", "offspring-closure",
           "weight-product-bound", "estimate-A", "check-phicond",
           "lemma1-chain", "lemma1-conclusion", "check-J-geq-K"]


@pytest.mark.parametrize("op", PHI_OPS)
def test_homogeneous_curve_of_a_phi_check_exits_2(tmp_path, capsys, op):
    # each once FAILed with exit 1 on an untyped AttributeError: a
    # 'HomogeneousCurve' object has no attribute 'phi'
    check = {**_first_shipped(op), "curve": _HOMOGENEOUS}
    code, out = _run_cli(tmp_path, {"seed": 1, "checks": [check]})
    assert code == 2
    assert not Path(str(out) + ".json").exists()
    assert ("config error: unknown curve spec kind 'homogeneous'; it "
            "accepts monomial, exp-flat, poly-phi, flatten"
            in capsys.readouterr().err)


def test_homogeneous_flatten_base_exits_2(tmp_path, capsys):
    # once refused with the misleading "unknown key(s) 'd'"
    check = {**_first_shipped("validate-monotone"),
             "curve": {"kind": "flatten", "base": _HOMOGENEOUS}}
    code, _ = _run_cli(tmp_path, {"seed": 1, "checks": [check]})
    assert code == 2
    assert ("unknown curve spec kind 'homogeneous'"
            in capsys.readouterr().err)


@pytest.mark.parametrize("op, key", [("estimate-alpha-B", "curve"),
                                     ("empirical-ratio", "curves")])
def test_gamma_checks_take_a_homogeneous_curve(op, key):
    spec = [_HOMOGENEOUS] if key == "curves" else _HOMOGENEOUS
    assert run_check({**_first_shipped(op), key: spec}, 1).passed


# each sample count and its upper bound: a typo such as psi-lower-bound
# at n_samples = 1e13 once parsed and then raised a MemoryError
COUNT_BOUNDS = [
    ("psi-lower-bound", "n_samples", 200_000),
    ("jacobian-identity", "n_trials", 50_000),
    ("estimate-sigma", "n_samples", 200_000),
    ("offspring-closure", "n_samples", 500_000),
    ("weight-product-bound", "n_samples", 500_000),
    ("lemma1-conclusion", "n_samples", 300_000),
    ("sm-measure", "mc_samples", 500_000_000),
    ("sm-scaling", "mc_samples", 500_000_000),
    ("check-J-geq-K", "n_samples", 200_000),
    ("converse-scaling", "n_random", 150),
]


@pytest.mark.parametrize("op, key, most", COUNT_BOUNDS,
                         ids=[op for op, _, _ in COUNT_BOUNDS])
def test_sample_count_above_its_bound_is_a_config_error(op, key, most):
    check = _first_shipped(op)
    assert check_descriptor({**check, key: most})[1][key] == most
    with pytest.raises(ConfigError, match=f"'{key}' must be at most "
                                          f"{most}, got {most + 1}"):
        check_descriptor({**check, key: most + 1})


def _counted_calls(monkeypatch):
    """The names of the registry operations run from here on, in order."""
    calls = []
    for name, op in list(REGISTRY.items()):
        def counted(seed, fn=op.fn, name=name, **values):
            calls.append(name)
            return fn(seed, **values)
        monkeypatch.setitem(REGISTRY, name,
                            OpEntry(op.name, op.summary, counted))
    return calls


# each dimension bound: jacobian-identity's trial nodes leave its
# polynomials' domain above d = 6 (a DomainError at d = 8, seed 12),
# psi-lower-bound takes about 8 s at d = 14 and 200,000 samples, and
# monomial-closed-form's determinant route FAILs its 1e-10 tolerance at
# some seeds from d_max = 7 and leaks an OverflowError at 34
DIMENSION_BOUNDS = [("jacobian-identity", "d", 6),
                    ("psi-lower-bound", "d", 14),
                    ("monomial-closed-form", "d_max", 6)]


@pytest.mark.parametrize("op, key, most", DIMENSION_BOUNDS,
                         ids=[op for op, _, _ in DIMENSION_BOUNDS])
def test_dimension_above_its_bound_stops_before_any_check(
        op, key, most, tmp_path, capsys, monkeypatch):
    check = {**_first_shipped(op), key: most}
    assert check_descriptor(check)[1][key] == most
    calls = _counted_calls(monkeypatch)
    for too_many in (most + 1, 34):
        code, out = _run_cli(tmp_path, {"seed": 1, "checks": [
            _first_shipped("validate-monotone"), {**check, key: too_many}]})
        assert code == 2
        assert calls == []
        assert not Path(str(out) + ".json").exists()
        assert f"'{key}' must be at most {most}, got {too_many}" in (
            capsys.readouterr().err)


def test_rescale_depth_above_its_bound_stops_before_any_check(
        tmp_path, capsys, monkeypatch):
    # from k = 1022 the nodes of [2^(-k-1), 2^(-k)] are subnormal or 0,
    # and from k = 1043 the identity FAILs (k = 1074: estimate 1.0)
    check = {**_first_shipped("homogeneous-rescale"), "k_list": [1021]}
    assert check_descriptor(check)[1]["k_list"] == [1021]
    assert run_check(check, 1).passed
    calls = _counted_calls(monkeypatch)
    code, out = _run_cli(tmp_path, {"seed": 1, "checks": [
        _first_shipped("validate-monotone"), {**check, "k_list": [1022]}]})
    assert code == 2
    assert calls == []
    assert not Path(str(out) + ".json").exists()
    assert "'k_list[0]' must be at most 1021, got 1022" in (
        capsys.readouterr().err)


def test_jacobian_identity_at_its_largest_d_stays_in_its_domain():
    # seed 12 raised DomainError at d = 8, and t + kappa_d < 1 + 0.8 * 5
    # keeps every trial inside (-5, 5) at d = 6
    check = {**_first_shipped("jacobian-identity"), "d": 6}
    for seed in range(20):
        assert run_check(check, seed).passed


def test_nested_key_error_stops_before_any_check(tmp_path, capsys,
                                                 monkeypatch):
    with open(CONFIGS / "default.json", encoding="utf-8") as fh:
        config = json.load(fh)
    config["checks"].append(
        {"operation": "estimate-A",
         "curve": {**_MONOMIAL, "domian": [0.0, 0.5]}})
    calls = _counted_calls(monkeypatch)
    code, out = _run_cli(tmp_path, config)
    assert code == 2
    assert calls == []
    assert not Path(str(out) + ".json").exists()
    assert "curve spec 'monomial': unknown key(s) 'domian'" in (
        capsys.readouterr().err)


def test_top_level_tolerances_exits_2(tmp_path, capsys):
    code, out = _run_cli(tmp_path, {
        "seed": 1, "tolerances": {"psi-lower-bound": 1e-9},
        "checks": [_first_shipped("psi-lower-bound")]})
    assert code == 2
    assert not Path(str(out) + ".json").exists()
    assert "unknown key(s) 'tolerances'" in capsys.readouterr().err


@pytest.mark.parametrize("seed,check", SHIPPED,
                         ids=[c["operation"] for _, c in SHIPPED])
def test_shipped_checks_read_only_declared_keys(seed, check):
    # an adapter gets its keys as keyword parameters, so it reads no other
    # key; each parameter after 'seed' carries the parser of its key
    op = get_operation(check["operation"])
    seed_param, *params = inspect.signature(op.fn).parameters.values()
    assert seed_param.name == "seed"
    for p in params:
        assert p.kind is p.POSITIONAL_OR_KEYWORD, p
        assert isinstance(p.annotation,
                          (Int, Real, Many, Spec, Kind, Choice)), p
    _, values = check_descriptor(check)
    assert set(values) == set(check) - {"operation"}
    assert set(values) <= {p.name for p in params}


def test_missing_required_key_exits_2_without_report(tmp_path, capsys):
    # a missing required key once leaked a KeyError: a FAIL with exit 1
    check = {k: v for k, v in _first_shipped("check-phicond").items()
             if k != "alpha"}
    code, out = _run_cli(tmp_path, {"seed": 1, "checks": [check]})
    assert code == 2
    assert not Path(str(out) + ".json").exists()
    assert "check-phicond: missing required key 'alpha'" in (
        capsys.readouterr().err)


def test_list_checks_prints_each_key_with_its_default(capsys):
    assert main(["list-checks"]) == 0
    lines = capsys.readouterr().out.splitlines()
    keys = {lines[i].split()[0]: lines[i + 1].strip()
            for i in range(0, len(lines), 2)}
    assert set(keys) == set(REGISTRY)
    assert keys["check-phicond"] == "keys: curve, alpha, grid_size=64"
    assert keys["estimate-A"] == ("keys: curve, variant=\"GM\", "
                                  "grid_size=12, bound=null, tolerance=null")
    assert keys["homogeneous-rescale"] == (
        "keys: exponents, g, p=1.1666666666666667, k_list=[0, 1, 2]")


def test_shipped_configs_set_every_declared_key():
    set_keys = {name: set() for name in REGISTRY}
    for _, check in SHIPPED:
        set_keys[check["operation"]] |= set(check) - {"operation"}
    assert set_keys == {name: {p.name for p in params}
                        for name, params in KEYS.items()}
