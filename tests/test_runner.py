import json
from pathlib import Path

import numpy as np
import pytest

from restriction_lab import vandermonde
from restriction_lab.cli import main
from restriction_lab.curves import DerivativeOracle
from restriction_lab.registry import REGISTRY, get_operation
from restriction_lab.report import ConfigError, ExperimentConfig, dump_json
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
    # the same series also carries per-level ratios
    ratio_files = emit_plot_data(payload["reports"], "ratio-vs-parameter",
                                 prefix=str(tmp_path / "plot2"))
    assert len(ratio_files) == 1
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


def test_shipped_configs_cover_every_operation():
    named = set()
    for name in ("default.json", "all_ops.json"):
        named |= {c["operation"] for c in load_config(
            str(CONFIGS / name)).checks}
    assert named == set(REGISTRY)


def test_default_config_oracle_calls_and_points(monkeypatch):
    # estimate-A asks the oracle once per sweep or evaluation and
    # psi-lower-bound never; the points asked for stay those of the
    # per-tuple loop (1,207 calls for the same 13,524 points)
    seen = {"calls": 0, "points": 0}
    call = DerivativeOracle.__call__

    def counting(self, t, k):
        seen["calls"] += 1
        seen["points"] += np.size(t)
        return call(self, t, k)

    monkeypatch.setattr(DerivativeOracle, "__call__", counting)
    run(load_config(str(CONFIGS / "default.json")))
    assert seen["calls"] <= 600
    assert seen["points"] == 13524


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
