import json
import math
import os
import runpy
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from restriction_lab import curves, probe, registry, vandermonde
from restriction_lab.cli import main
from restriction_lab.curves import DerivativeOracle
from restriction_lab.registry import REGISTRY, get_operation
from restriction_lab.report import (CheckReport, ConfigError,
                                   ExperimentConfig, at_most, dump_json,
                                   parse_keys, worst_index)
from restriction_lab.runner import (emit_plot_data, load_config, run,
                                    report_payload, write_report)


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _config(checks, seed=7):
    return ExperimentConfig.from_dict({"seed": seed, "output": "report",
                                       "checks": checks})


PSI_CHECK = {"operation": "psi-lower-bound", "d": 2, "n_samples": 50}


def test_registry_lookup():
    assert get_operation("psi-lower-bound").name == "psi-lower-bound"
    with pytest.raises(ConfigError):
        get_operation("no-such-check")
    # every entry carries a one-line summary for list-checks
    assert all(REGISTRY[name].summary for name in REGISTRY)


def test_run_empty_config():
    assert run(_config([])) == []


def test_run_parses_each_descriptor_once(monkeypatch):
    # every descriptor parse, up front or inside run_check, reads the
    # operation's key table through registry.parse_keys
    parsed = []

    def counted(where, *args):
        parsed.append(where)
        return parse_keys(where, *args)

    monkeypatch.setattr(registry, "parse_keys", counted)
    reports = run(_config([PSI_CHECK, {**PSI_CHECK, "d": 3}]))
    assert parsed == ["psi-lower-bound", "psi-lower-bound"]
    assert [r.parameters["d"] for r in reports] == [2, 3]


def test_run_unknown_operation_fails_fast():
    cfg = _config([PSI_CHECK, {"operation": "bogus"}])
    with pytest.raises(ConfigError):
        run(cfg)


def test_run_psi_lower_bound_d2():
    reports = run(_config([PSI_CHECK]))
    assert len(reports) == 1
    assert reports[0].passed
    # d = 2 tail ratio is identically 1/2
    assert reports[0].estimate == pytest.approx(0.5, abs=1e-12)
    assert reports[0].timing > 0


# phi = exp(-1/t) has phi^(3) = phi (1 - 6t + 6t^2) / t^6 < 0 on
# (0.21, 0.79), against the hypothesis phi^(d) >= 0 of the sigma ratio
NEGATIVE_TOP_DERIVATIVE = {
    "operation": "estimate-sigma",
    "curve": {"kind": "exp-flat", "beta": 1.0, "d": 3, "domain": [0.0, 1.0]}}


def test_failing_check_is_reported_not_raised():
    reports = run(_config([NEGATIVE_TOP_DERIVATIVE], seed=1))
    assert not reports[0].passed
    # the exception text is carried along, naming the violated hypothesis
    (note,) = reports[0].notes
    assert note.startswith("DomainError: ")
    assert "phi^(3) >= 0" in note


@pytest.mark.parametrize("seed", [1, 2])
def test_estimate_sigma_excludes_underflowed_samples(seed):
    # phi'' of exp(-1/t) underflows to 0 below t = 1.4e-3: those samples
    # are excluded, not divided by
    (rep,) = run(_config([{
        "operation": "estimate-sigma", "n_samples": 1000,
        "curve": {"kind": "exp-flat", "beta": 1.0, "d": 2,
                  "domain": [0.0, 0.4]}}], seed=seed))
    assert rep.passed, rep.notes
    assert rep.estimate == pytest.approx(1.0, abs=1e-3)
    (note,) = rep.notes
    assert note.startswith("excluded ") and note.endswith(
        " near-degenerate samples")


EXP_FLAT_5 = {"kind": "exp-flat", "beta": 3.0, "d": 5, "domain": [0.0, 0.4]}


@pytest.mark.parametrize("check", [
    {"operation": "estimate-sigma"},
    {"operation": "offspring-closure", "h": [0.01, 0.01, 0.01, 0.01]}])
def test_sigma_excludes_underflowed_node_products(check):
    # phi^(5) of exp(-t^-3) can be positive at every node while its
    # product over the nodes underflows to 0; such samples are excluded,
    # where they once ended the check in a ZeroDivisionError
    (rep,) = run(_config([{**check, "curve": EXP_FLAT_5}], seed=1))
    assert rep.estimate is not None and rep.estimate > 0
    assert not any("Error" in note for note in rep.notes), rep.notes
    if check["operation"] == "estimate-sigma":
        assert rep.passed
        (note,) = rep.notes
        assert note.startswith("excluded ") and note.endswith(
            " near-degenerate samples")


@pytest.mark.parametrize("seed", range(1, 9))
def test_weight_product_bound_excludes_underflowed_node_products(seed):
    # where the product of phi^(5) over the nodes underflows, its 5th root
    # is 0 or short of bits while H, a product of per-node powers, is not:
    # the H identity once FAILed there (estimate 2.4e229 at seed 1)
    sigma, rep = run(_config([
        {"operation": op, "n_samples": 200, "curve": EXP_FLAT_5}
        for op in ("estimate-sigma", "weight-product-bound")], seed=seed))
    assert rep.passed, (rep.estimate, rep.notes)
    assert rep.estimate <= 1e-12
    (note,) = rep.notes
    assert note.startswith("excluded ") and note.endswith(
        " near-degenerate samples")
    # one exclusion rule: estimate-sigma once kept the samples whose node
    # product is subnormal but not 0 (162 against 164 at seed 2)
    assert sigma.notes == rep.notes


@pytest.mark.parametrize("seed", [54, 95, 179, 194])
def test_lemma1_conclusion_occupation_within_measure_resolution(seed):
    # lambda_measure resolves the occupation to _TOL = 1e-8 in all, so at
    # h near 1e-3 the cross-check once FAILed on shortfalls of 2e-9
    cfg = load_config(str(CONFIGS / "all_ops.json"))
    cfg.seed = seed
    cfg.checks = [c for c in cfg.checks
                  if c["operation"] == "lemma1-conclusion"]
    (rep,) = run(cfg)
    assert rep.estimate > 0
    assert rep.passed, rep.witnesses


def test_lemma1_conclusion_note_states_the_relation_that_holds():
    # at the config's own seed the occupation falls 1.1e-9 short of h, so
    # the note once read "lambda(E_0) = 0.05375177040696144 >= h = ..."
    cfg = load_config(str(CONFIGS / "all_ops.json"))
    assert cfg.seed == 20260823
    cfg.checks = [c for c in cfg.checks
                  if c["operation"] == "lemma1-conclusion"]
    (rep,) = run(cfg)
    assert rep.passed
    (note,) = rep.notes
    assert note.startswith("lambda(E_0) = 0.05375177040696144 < h = "
                           "0.05375177155390232; the check allows ")


@pytest.mark.parametrize("config, seeds, status, listed", [
    ("default.json", ("0", "2"), 0, []),
    # lemma1-conclusion FAILs its margin at seed 0 (ROADMAP item 12)
    ("all_ops.json", ("0", "1"), 1, ["FAIL lemma1-conclusion seed 0"])])
def test_seed_sweep_lists_every_failing_check(monkeypatch, capsys, config,
                                              seeds, status, listed):
    script = CONFIGS.parent / "scripts" / "seed_sweep.py"
    monkeypatch.setattr(sys, "argv", [script.name, str(CONFIGS / config),
                                      *seeds])
    with pytest.raises(SystemExit) as exit_:
        runpy.run_path(str(script), run_name="__main__")
    assert exit_.value.code == status
    *lines, summary = capsys.readouterr().out.splitlines()
    assert [line.split(" estimate ")[0] for line in lines] == listed
    assert summary == (f"{len(listed)} failing (check, seed) pairs at seeds "
                       f"{seeds[0]}-{seeds[1]}")


def test_report_diff_lists_each_differing_field():
    differences = runpy.run_path(
        str(CONFIGS.parent / "scripts" / "report_diff.py"))["differences"]
    ref = {"all_passed": True, "reports": [
        {"estimate": 1.0, "notes": [], "witnesses": [{"s": [0.1, 0.2]}]},
        {"estimate": None, "passed": False}]}
    assert differences(ref, json.loads(json.dumps(ref))) == []
    new = json.loads(json.dumps(ref))
    new["reports"][0]["witnesses"][0]["s"][1] = 0.20000000000000004
    new["reports"][1]["estimate"] = 0.0
    new["reports"][1]["notes"] = ["a note"]
    del new["all_passed"]
    assert differences(ref, new) == [
        "all_passed: only in REF",
        "reports[0].witnesses[0].s[1]: 0.2 (REF) != 0.20000000000000004",
        "reports[1].estimate: null (REF) != 0.0",
        "reports[1].notes: only in the working tree"]


def test_report_diff_runs_a_config_given_by_path(tmp_path):
    # a config given by its absolute path is read from there, whichever
    # tree it runs in
    reports = runpy.run_path(
        str(CONFIGS.parent / "scripts" / "report_diff.py"))["reports"]
    path = tmp_path / "extra.json"
    path.write_text(json.dumps({"seed": 7, "output": "x", "checks": [
        {"operation": "psi-lower-bound", "d": 3, "n_samples": 5}]}))
    (by_seed,) = reports(CONFIGS.parent, [str(path)], ["own", "8"])
    assert sorted(by_seed) == ["8", "own"]
    assert [by_seed[s]["config"] for s in ("own", "8")] == [
        {"seed": 7, "checks": [{"operation": "psi-lower-bound", "d": 3,
                                "n_samples": 5}]},
        {"seed": 8, "checks": [{"operation": "psi-lower-bound", "d": 3,
                                "n_samples": 5}]}]
    assert by_seed["own"]["reports"] != by_seed["8"]["reports"]


@pytest.mark.parametrize("grid_size", [0, 1])
def test_check_phicond_needs_two_grid_points(grid_size):
    # one point compares no pair (once a PASS with estimate 0.0); none
    # leaked "ValueError: attempt to get argmin of an empty sequence"
    cfg = _config([{"operation": "check-phicond", "alpha": 1 / 6,
                    "grid_size": grid_size,
                    "curve": {"kind": "monomial", "beta": 4.0, "d": 3}}])
    with pytest.raises(ConfigError, match="'grid_size' must be at least 2"):
        run(cfg)


def test_cli_import_leaves_numpy_polynomial_unloaded():
    # start-up cost: the oracles evaluate polynomials by Horner's rule and
    # the Gauss-Legendre rules are built on first use
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, restriction_lab.cli; "
         "print(sorted(m for m in sys.modules "
         "if m.startswith('numpy.polynomial')))"],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.stdout.strip() == "[]"


def test_weight_product_bound_without_admissible_sample_is_inconclusive():
    # phi''' of 1 - t/2 - t^2/2 is 0: every sample is excluded, and the
    # check once ended in a TypeError on the missing sigma estimate
    (rep,) = run(_config([{
        "operation": "weight-product-bound",
        "curve": {"kind": "poly-phi", "coeffs": [1, -0.5, -0.5, 0, 0],
                  "d": 3, "domain": [-1.0, 1.0]}}], seed=1))
    assert not rep.passed
    assert rep.estimate is None
    assert rep.notes == ["inconclusive: no admissible sample"]


@pytest.mark.parametrize("curve", [
    # phi'' of exp(-t^-3) decreases past its peak: the infimum is negative
    {"kind": "exp-flat", "beta": 3.0, "d": 3, "domain": [0.0, 2.0]},
    # t^1.5 has NaN derivatives on the negative domain: the infimum is NaN
    {"kind": "monomial", "beta": 1.5, "d": 3, "domain": [-1.0, 0.0]}])
def test_check_phicond_failure_writes_strict_json(curve):
    cfg = _config([{"operation": "check-phicond", "alpha": 0.1,
                    "curve": curve}], seed=1)
    with np.errstate(invalid="ignore"):
        reports = run(cfg)
    (rep,) = reports
    assert not rep.passed
    # once "estimate": Infinity, which is not JSON
    assert rep.estimate is None
    (note,) = rep.notes
    (witness,) = rep.witnesses
    assert note.startswith("infimum ") and note.endswith(
        f" at t={witness['t']!r}, s={witness['s']!r} is not positive; "
        "no constant")
    json.dumps(report_payload(cfg, reports), allow_nan=False)


def test_report_payload_reproducible():
    cfg = _config([PSI_CHECK, {"operation": "exponent-identities", "d": 3}])
    p1 = report_payload(cfg, run(cfg))
    p2 = report_payload(cfg, run(cfg))
    assert json.dumps(p1, sort_keys=True) == json.dumps(p2, sort_keys=True)
    assert p1["all_passed"]
    assert "timing" not in p1["reports"][0]


def test_write_report_and_emit_plots(tmp_path):
    cfg = _config([{"operation": "estimate-alpha-B",
                    "curve": {"kind": "monomial", "beta": 4.0, "d": 3,
                              "domain": [0.0, 1.0]},
                    "center_t": 0.5, "side0": 1.0, "count": 4,
                    "alpha": 1 / 6}])
    cfg.output = str(tmp_path / "rep")
    path = write_report(cfg, run(cfg))
    payload = json.loads(open(path, encoding="utf-8").read())
    assert payload["config"]["seed"] == 7
    # one series row per box of the 4-box family
    assert len(payload["reports"][0]["series"]) == 4
    written = emit_plot_data(payload["reports"], "measure-vs-scale",
                             prefix=str(tmp_path / "plot"))
    assert len(written) == 1
    text = open(written[0], encoding="utf-8").read()
    lines = text.split("\n")
    assert "lambda" in lines[0].split(",")  # header row
    assert "\r" not in text
    # its per-level ratios are against the scale, not a parameter: a
    # series with lambda or measure is measure-vs-scale only
    with pytest.raises(ConfigError, match="ratio-vs-parameter"):
        emit_plot_data(payload["reports"], "ratio-vs-parameter",
                       prefix=str(tmp_path / "plot2"))
    # beside an empirical-ratio report, only that report's series is a
    # ratio against a parameter, as in configs/flat.json's report
    ratio_rep = {"check_id": "empirical_ratio",
                 "series": [{"curve_index": 0, "test_index": 1,
                             "ratio": 1.25}]}
    ratio_files = emit_plot_data(payload["reports"] + [ratio_rep],
                                 "ratio-vs-parameter",
                                 prefix=str(tmp_path / "plot2"))
    assert ratio_files == [str(tmp_path / "plot2_empirical_ratio_1.csv")]
    assert open(ratio_files[0], encoding="utf-8").read().split("\n")[0] == (
        "curve_index,ratio,test_index")
    assert emit_plot_data(payload["reports"] + [ratio_rep],
                          "measure-vs-scale",
                          prefix=str(tmp_path / "plot4")) == [
        str(tmp_path / "plot4_estimate_alpha_B_0.csv")]
    with pytest.raises(ConfigError):
        emit_plot_data(payload["reports"], "histogram")
    no_series = run(_config([PSI_CHECK]))
    with pytest.raises(ConfigError):
        emit_plot_data([r.to_dict() for r in no_series],
                       "ratio-vs-parameter", prefix=str(tmp_path / "plot3"))


def test_load_config_validation(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config(str(bad))
    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps({"seed": 1}), encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config(str(missing))
    # a NaN or string seed once leaked int()'s ValueError, and 3.7 ran as 3
    for seed in (math.nan, "x", 3.7):
        with pytest.raises(ConfigError, match="'seed' must be"):
            ExperimentConfig.from_dict({"seed": seed, "checks": []})
    # the config's fields are its key table
    for raw, message in [
            ({"seed": 1}, "config: missing required key 'checks'"),
            ({"checks": {}}, "config.checks: required list"),
            ({"checks": [{"d": 2}]}, r"config.checks\[0\]: missing"),
            ({"checks": [], "output": 5}, "'output' must be a string"),
            ([], "config must be an object")]:
        with pytest.raises(ConfigError, match=message):
            ExperimentConfig.from_dict(raw)


def test_cli_end_to_end(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "seed": 3, "output": "out",
        "checks": [PSI_CHECK]}), encoding="utf-8")
    assert main(["run", str(cfg_path)]) == 0
    out = capsys.readouterr().out
    assert "[PASS] check_psi_lower_bound" in out
    assert (tmp_path / "out.json").exists()

    assert main(["list-checks"]) == 0
    listing = capsys.readouterr().out
    assert "psi-lower-bound" in listing

    # a report with no matching series should exit 2 via ConfigError
    assert main(["emit-plots", str(tmp_path / "out.json"),
                 "--kind", "ratio-vs-parameter"]) == 2


def test_cli_unknown_operation_exits_2(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "seed": 3, "output": str(tmp_path / "out"),
        "checks": [{"operation": "bogus"}]}), encoding="utf-8")
    assert main(["run", str(cfg_path)]) == 2
    assert "config error" in capsys.readouterr().err


def _write_config(tmp_path, checks, seed=3):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "seed": seed, "output": str(tmp_path / "out"),
        "checks": checks}), encoding="utf-8")
    return str(cfg_path)


def test_cli_failing_check_exits_1(tmp_path, capsys):
    assert main(["run", _write_config(tmp_path,
                                      [NEGATIVE_TOP_DERIVATIVE])]) == 1
    assert "[FAIL]" in capsys.readouterr().out


@pytest.mark.parametrize("check", [
    {"operation": "estimate-sigma",
     "curve": {"kind": "monomial", "beta": 4.0, "d": 3,
               "domain": [0.0, 1.0]}},
    {"operation": "psi-lower-bound", "d": 3}])
def test_cli_nonpositive_sample_count_exits_2(tmp_path, capsys, check):
    cfg = _write_config(tmp_path, [{**check, "n_samples": -5}])
    assert main(["run", cfg]) == 2
    assert "'n_samples' must be at least 1" in capsys.readouterr().err


def test_cli_check_J_geq_K_writes_complete_report(tmp_path, capsys):
    cfg = _write_config(tmp_path, [{
        "operation": "check-J-geq-K", "alpha": 0.1,
        "curve": {"kind": "monomial", "beta": 5.0, "d": 4,
                  "domain": [0.0, 1.0]}}], seed=1)
    assert main(["run", cfg]) in (0, 1)
    with open(tmp_path / "out.json", encoding="utf-8") as fh:
        payload = json.load(fh)
    (rep,) = payload["reports"]
    assert rep["check_id"] == "check_J_geq_K"
    assert isinstance(rep["passed"], bool)


def test_dump_json_writes_numpy_scalars_as_python_values(tmp_path):
    path = tmp_path / "r.json"
    dump_json({"passed": np.bool_(True), "n": np.int64(3),
               "x": np.float32(0.5), "y": np.float64(0.1)}, str(path))
    assert json.loads(path.read_text(encoding="utf-8")) == {
        "passed": True, "n": 3, "x": 0.5, "y": 0.1}
    with pytest.raises(TypeError):
        dump_json({"s": {1, 2}}, str(path))
    # a report that does not encode leaves no earlier report behind
    assert path.read_text(encoding="utf-8") == ""


def test_dump_json_refuses_nan_and_leaves_an_empty_file(tmp_path):
    path = tmp_path / "r.json"
    for bad in (math.nan, np.float64(math.inf), -math.inf):
        dump_json({"estimate": 1.0}, str(path))
        with pytest.raises(ValueError):
            dump_json({"estimate": bad, "passed": False}, str(path))
        # no report holding NaN, nor the earlier report
        assert path.read_text(encoding="utf-8") == ""


def test_cli_dilation_invariance_writes_complete_report(tmp_path, capsys):
    cfg = _write_config(tmp_path, [{
        "operation": "dilation-invariance", "d": 3, "P": 1.125, "Q": 1.5,
        "octaves": 2,
        "g": {"kind": "Gaussian", "center": [0.1, 0.0, -0.2],
              "sigma": 1.0}}])
    assert main(["run", cfg]) == 0
    with open(tmp_path / "out.json", encoding="utf-8") as fh:
        (rep,) = json.load(fh)["reports"]
    assert rep["passed"] is True


def test_cli_all_ops_config_passes(tmp_path, capsys):
    assert main(["run", str(CONFIGS / "all_ops.json"),
                 "--output", str(tmp_path / "all")]) == 0
    with open(tmp_path / "all.json", encoding="utf-8") as fh:
        reports = json.load(fh)["reports"]
    assert len(reports) == 11
    assert all(rep["passed"] for rep in reports)
    # report notes carry plain Python reprs, not numpy ones
    assert "np." not in json.dumps(reports)


def _reject_constant(name):
    raise ValueError(f"report holds {name}, which is not JSON")


@pytest.mark.parametrize("name", ["default", "all_ops"])
def test_shipped_config_reports_are_strict_json(tmp_path, capsys, name):
    main(["run", str(CONFIGS / f"{name}.json"),
          "--output", str(tmp_path / name)])
    with open(tmp_path / f"{name}.json", encoding="utf-8") as fh:
        json.load(fh, parse_constant=_reject_constant)


def test_shipped_configs_cover_every_operation():
    named = set()
    for name in ("default.json", "all_ops.json"):
        named |= {c["operation"] for c in load_config(
            str(CONFIGS / name)).checks}
    assert named == set(REGISTRY)


def test_default_config_oracle_calls_and_points(monkeypatch):
    # psi-lower-bound never asks the oracle; estimate-A asks it once per
    # sweep and once per five golden-section steps, for the 62 points
    # those steps could visit (63 calls for 12,870 points, where one call
    # a step made 261 for 1,926), and estimate-alpha-B once per bisection
    # step of all its boxes (18 calls, where one a box and step made 81,
    # for the same 4,241 points); the jacobian-identity sweep's polynomial
    # rows count as oracle calls
    seen = {"calls": 0, "points": 0}
    call = DerivativeOracle.__call__

    def counting(self, t, k):
        seen["calls"] += 1
        seen["points"] += np.size(t)
        return call(self, t, k)

    def counting_rows(coeffs, domain, k):
        top = curves.poly_rows(coeffs, domain, k)

        def counted(x, rows):
            seen["calls"] += 1
            seen["points"] += np.size(x)
            return top(x, rows)

        return counted

    monkeypatch.setattr(DerivativeOracle, "__call__", counting)
    monkeypatch.setattr(registry, "poly_rows", counting_rows)
    run(load_config(str(CONFIGS / "default.json")))
    assert seen["calls"] <= 250
    assert seen["points"] == 24468


def test_vandermonde_integration_catches_a_scaled_psi(monkeypatch):
    cfg = load_config(str(CONFIGS / "all_ops.json"))
    cfg.checks = [c for c in cfg.checks
                  if c["operation"] == "vandermonde-integration"]
    assert run(cfg)[0].passed
    psi = vandermonde.psi
    monkeypatch.setattr(vandermonde, "psi",
                        lambda d, t, h: 1.01 * psi(d, t, h))
    rep = run(cfg)[0]
    assert not rep.passed
    assert rep.estimate == pytest.approx(0.01, rel=1e-9)


def test_vandermonde_integration_fails_on_a_nan_psi_mass(monkeypatch):
    # the worst of the two errors by worst_index: max() once kept the
    # finite one and dropped a NaN mass error
    cfg = load_config(str(CONFIGS / "all_ops.json"))
    cfg.checks = [c for c in cfg.checks
                  if c["operation"] == "vandermonde-integration"]
    monkeypatch.setattr(vandermonde, "psi",
                        lambda d, t, h: np.full(np.shape(t), math.nan))
    rep = run(cfg)[0]
    assert not rep.passed
    assert math.isnan(rep.estimate)


@pytest.mark.parametrize("values, expect", [
    ([], None),
    ([0.0, 0.0, 0.0], 0),             # all equal: the first
    ([1.0, 3.0, 2.0, 3.0], 1),        # a tie: the earliest
    ([1.0, math.nan, 5.0, math.nan], 1),  # NaN is worse than any number
    ([-math.inf, 2.0, math.inf], 2),
    ([np.float64(1.0), 2], 1),
])
def test_worst_index_rule(values, expect):
    assert worst_index(values) == expect


def test_at_most_nan_wins_and_fails():
    rep = at_most("c", {"k": 1}, [1e-12, math.nan, 5.0], 1e-9)
    assert math.isnan(rep.estimate)
    assert not rep.passed
    assert (rep.bound, rep.tolerance) == (1e-9, 1e-9)


def test_at_most_first_of_tied_maxima_wins():
    seen = []
    rep = at_most("c", {}, [1.0, 3.0, 2.0, 3.0], 3.0,
                  witness=lambda i: seen.append(i) or {"i": i})
    assert seen == [1]
    assert rep.passed and rep.estimate == 3.0
    assert not at_most("c", {}, [1.0, 3.0], 2.999).passed


def test_at_most_witness_is_taken_at_the_worst_index():
    values = [0.1, 0.4, 0.2]
    rep = at_most("c", {"n": 3}, values, 0.5,
                  witness=lambda i: {"i": i, "value": values[i]})
    assert rep.witnesses == [{"i": 1, "value": 0.4}]
    assert rep.check_id == "c" and rep.parameters == {"n": 3}
    assert at_most("c", {}, values, 0.5).witnesses == []


def test_at_most_passes_series_and_notes_through():
    series = [{"m": 0, "measure": 1.0}]
    rep = at_most("c", {}, [0.0], 0.1, series=series, notes=["a note"],
                  witnesses=[{"w": 1}])
    assert rep.series == series
    assert rep.notes == ["a note"]
    assert rep.witnesses == [{"w": 1}]


MONOMIAL_3 = {"kind": "monomial", "beta": 4.0, "d": 3}
GAUSSIAN_3 = {"kind": "Gaussian", "center": [0.0, 0.0, 0.0], "sigma": 1.0}


@pytest.mark.parametrize("check", [
    # d = 0 once leaked a ValueError from the draw, and d = 1 PASSed
    # with no ratio to bound
    {"operation": "psi-lower-bound", "d": 0},
    {"operation": "psi-lower-bound", "d": 1},
    # gaps from [1e-3, (b - a) / d] with (b - a) / d < 1e-3
    {"operation": "check-J-geq-K", "alpha": 1 / 6,
     "curve": {**MONOMIAL_3, "domain": [0.0, 0.002]}},
    # a 3-dimensional g on a curve in the plane
    {"operation": "homogeneous-rescale", "exponents": [1.0, 2.0],
     "g": GAUSSIAN_3},
    # no dilation at all: the worst of no drifts
    {"operation": "dilation-invariance", "d": 3, "P": 1.125, "Q": 1.5,
     "g": GAUSSIAN_3, "octaves": -1},
    {"operation": "dilation-invariance", "d": 2, "P": 1.125, "Q": 1.5,
     "g": GAUSSIAN_3},
    # Q = 2 / (d (d + 1) (1 - 1/P)) divides by zero at P = 1, and is
    # negative below
    {"operation": "empirical-ratio", "P": 1.0,
     "curves": [{**MONOMIAL_3, "domain": [0.0, 1.0]}], "tests": [GAUSSIAN_3]},
    {"operation": "empirical-ratio", "P": 0.5,
     "curves": [{**MONOMIAL_3, "domain": [0.0, 1.0]}], "tests": [GAUSSIAN_3]},
    {"operation": "empirical-ratio", "P": 1.2,
     "curves": [{**MONOMIAL_3, "domain": [0.0, 1.0]}],
     "tests": [{**GAUSSIAN_3, "center": [0.0, 0.0]}]},
    # d = 1: no gap, and K = 0 is trivially homogeneous
    {"operation": "K-u-geometry", "h": [], "alpha": 0.2},
    # every gap 0: u = K = 0 at every scale, and the check once PASSed
    # with estimate 0.0 whatever K's degree
    {"operation": "K-u-geometry", "h": [0.0, 0.0], "alpha": 1 / 6},
    # a Lebesgue exponent 0 once leaked a ZeroDivisionError from a 1/Q or
    # 1/p power; Q < 0 FAILed on NaN ratios and p < 0 PASSed with
    # estimate 0
    {"operation": "dilation-invariance", "d": 3, "P": 1.125, "Q": 0.0,
     "g": GAUSSIAN_3},
    {"operation": "dilation-invariance", "d": 3, "P": 1.125, "Q": -1.5,
     "g": GAUSSIAN_3},
    {"operation": "homogeneous-rescale", "exponents": [1.0, 2.0, 3.0],
     "p": 0.0, "g": GAUSSIAN_3},
    {"operation": "homogeneous-rescale", "exponents": [1.0, 2.0, 3.0],
     "p": -1.0, "g": GAUSSIAN_3},
    # two equal gaps, or a zero gap: u = K = 0 at every scale, and the
    # check once PASSed with estimate 0.0
    {"operation": "K-u-geometry", "h": [1.0, 1.0], "alpha": 1 / 6},
    {"operation": "K-u-geometry", "h": [0.5, 0.0], "alpha": 1 / 6},
    # K of degree 1/alpha - d = 997: lam^deg once leaked an OverflowError,
    # and a K(h) underflowed to 0 once FAILed with estimate 3.3e299
    {"operation": "K-u-geometry", "h": [0.5, 0.25], "alpha": 1e-3},
    {"operation": "K-u-geometry", "h": [0.1, 0.2], "alpha": 1e-3},
    # beta <= 0: the derivative coefficients divide by beta (a
    # ZeroDivisionError at 0), and beta < 0 once PASSed
    {"operation": "estimate-sigma",
     "curve": {"kind": "exp-flat", "beta": 0.0, "d": 2,
               "domain": [0.0, 0.4]}},
    {"operation": "estimate-sigma",
     "curve": {"kind": "exp-flat", "beta": -1.0, "d": 2,
               "domain": [0.0, 0.4]}},
    # every box volume overflows: the check once PASSed with estimate 0.0
    # and wrote a non-finite series
    {"operation": "estimate-alpha-B", "alpha": 1 / 6, "side0": 1e308,
     "curve": {**MONOMIAL_3, "domain": [0.0, 1.0]}},
    {"operation": "lemma1-conclusion", "alpha": 1 / 6, "side0": 1e308,
     "curve": {**MONOMIAL_3, "domain": [0.0, 1.0]}},
    # boxes finer than the coarse scan off a grid point give B = 0, whose
    # -1/alpha power once leaked a ZeroDivisionError
    {"operation": "lemma1-conclusion", "alpha": 1 / 6, "center_t": 0.50001,
     "side0": 1e-9, "curve": {**MONOMIAL_3, "domain": [0.0, 1.0]}},
    # P = 1 / (1 - alpha / Q) once divided by zero at alpha = Q
    {"operation": "converse-scaling", "d": 2, "Q": 0.2, "alpha": 0.2,
     "f": {**GAUSSIAN_3, "center": [0.0, 0.0]}},
    # no box meets the curve on the coarse scan: the check once PASSed
    # with estimate 0.0 and every lambda 0
    {"operation": "estimate-alpha-B", "alpha": 1 / 6, "center_t": 0.50001,
     "side0": 1e-9, "curve": {**MONOMIAL_3, "domain": [0.0, 1.0]}},
    # a weighted curve without affine arclength (phi^(3) = 0), and a
    # reversed t grid: the spread of the ratios once divided by zero
    {"operation": "empirical-ratio", "P": 1.125,
     "curves": [{**MONOMIAL_3, "beta": 2.0}], "tests": [GAUSSIAN_3]},
    {"operation": "empirical-ratio", "P": 1.125, "curves": [MONOMIAL_3],
     "tests": [GAUSSIAN_3], "t_grid": {"a": 1e-4, "b": 0.0}},
    # a one-point domain once leaked a ValueError from unpacking it
    {"operation": "validate-monotone",
     "curve": {**MONOMIAL_3, "domain": [0.0]}},
    # a domain [a, a] once PASSed with estimate 0.0, and a reversed one
    # raised a DomainError that printed the whole grid
    {"operation": "validate-monotone",
     "curve": {**MONOMIAL_3, "domain": [0.0, 0.0]}},
    {"operation": "validate-monotone",
     "curve": {**MONOMIAL_3, "domain": [0.5, 0.5]}},
    {"operation": "validate-monotone",
     "curve": {**MONOMIAL_3, "domain": [1.0, 0.0]}},
    # a flatten base's own d and domain were once replaced by the spec's
    {"operation": "validate-monotone",
     "curve": {"kind": "flatten",
               "base": {"kind": "monomial", "beta": 6, "d": 5,
                        "domain": [0.0, 0.5]}}},
    # n = 6 asks for 24^5 box-rule points and 60^4 nested-integral calls
    {"operation": "tail-inequalities", "n": 6,
     "t": [0.0, 0.4, 1.1, 2.0, 2.5, 3.1]},
    # three interval ends, and a factor's axis beyond the intervals
    {"operation": "lin-lemma",
     "instance": {"intervals": [[0.0, 1.0, 2.0]], "lambdas": [0.5]}},
    {"operation": "lin-lemma",
     "instance": {"intervals": [[0.0, 1.0]], "lambdas": [0.5],
                  "factors": [{"type": "upper", "j": 1, "d": 2.0}]}},
])
def test_out_of_range_parameters_raise_config_errors(check):
    with pytest.raises(ConfigError):
        registry.run_check(check, 1)


def test_lemma1_conclusion_on_a_short_domain_raises_instead_of_hanging(
        tmp_path, capsys):
    # pairs at least 1e-3 apart from [a + 0.05 (b - a), b]: on [0, 0.001]
    # the draw once looped for ever
    def timed_out(signum, frame):
        # pytest's Failed is a BaseException: the runner cannot catch it
        pytest.fail("lemma1-conclusion did not return within 5 s")

    cfg = _write_config(tmp_path, [{
        "operation": "lemma1-conclusion", "alpha": 1 / 6,
        "curve": {**MONOMIAL_3, "domain": [0.0, 0.001]}}])
    previous = signal.signal(signal.SIGALRM, timed_out)
    signal.alarm(5)
    try:
        assert main(["run", cfg]) == 2
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert "at least 1e-3 apart" in capsys.readouterr().err


def test_monomial_closed_form_needs_two_dimensions():
    # with d_max < 2 no dimension is checked, and the check once passed
    # with estimate 0
    for d_max in (1, 0, -3):
        with pytest.raises(ConfigError, match="'d_max' must be at least 2"):
            run(_config([{"operation": "monomial-closed-form",
                          "d_max": d_max}]))
    (rep,) = run(_config([{"operation": "monomial-closed-form",
                           "d_max": 2}]))
    assert rep.passed and rep.estimate is not None


HOMOGENEOUS_RESCALE = {
    "operation": "homogeneous-rescale", "exponents": [1.0, 2.0, 3.0],
    "g": {"kind": "Gaussian", "center": [0.3, 0.0, 0.0], "sigma": 1.0}}


def test_homogeneous_rescale_needs_a_k():
    with pytest.raises(ConfigError, match="'k_list'"):
        run(_config([{**HOMOGENEOUS_RESCALE, "k_list": []}]))


def test_homogeneous_rescale_passes_only_if_every_k_passes(monkeypatch):
    # k = 1 fails with a NaN residual, and a later k with a larger finite
    # residual once took the worst place and dropped that failure
    estimates = {0: 0.0, 1: math.nan, 2: 1e-12}

    def fake(curve, k, g, p):
        est = estimates[k]
        return CheckReport(check_id="homogeneous_rescale_check",
                           parameters={"k": k}, estimate=est,
                           passed=est <= 1e-9)

    monkeypatch.setattr(probe, "homogeneous_rescale_check", fake)
    (rep,) = run(_config([HOMOGENEOUS_RESCALE]))
    assert not rep.passed
    assert rep.parameters == {"k": 1, "k_list": [0, 1, 2]}
    estimates[1] = 0.0
    (rep,) = run(_config([HOMOGENEOUS_RESCALE]))
    assert rep.passed and rep.parameters["k"] == 2


def test_validate_monotone_fails_on_nan_derivatives():
    # t^1.5 is NaN on the whole of [-1, 0): the check once passed there
    # with estimate inf
    with np.errstate(invalid="ignore"):
        (rep,) = run(_config([{
            "operation": "validate-monotone",
            "curve": {"kind": "monomial", "beta": 1.5, "d": 5,
                      "domain": [-1.0, 0.0]}}]))
    assert not rep.passed
    assert rep.estimate is None
    assert rep.notes[0] == "phi^(1) is NaN at t = -1.0"
    assert len(rep.notes) == 5
    json.dumps(rep.to_dict(), allow_nan=False)
