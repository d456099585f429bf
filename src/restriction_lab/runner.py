"""Batch experiment orchestration: run configs, write reports, emit CSV.

Reports are reproducible byte-for-byte: iteration order is the config
order, all sampling is seeded, and wall-clock timings are kept in memory
only (never serialized).
"""

from __future__ import annotations

import csv
import json
import time
from typing import Any

from . import __version__
from .registry import get_operation, run_check
from .report import CheckReport, ConfigError, ExperimentConfig, dump_json


def _run_one(descriptor: dict, seed: int) -> CheckReport:
    start = time.perf_counter()
    try:
        report = run_check(descriptor, seed)
    except ConfigError:
        raise
    except Exception as exc:  # a failing check must not kill the run
        report = CheckReport(
            check_id=descriptor.get("operation", "unknown"),
            parameters={k: v for k, v in descriptor.items()
                        if k != "operation"},
            passed=False,
            notes=[f"{type(exc).__name__}: {exc}"])
    report.timing = time.perf_counter() - start
    return report


def run(config: ExperimentConfig) -> list[CheckReport]:
    """Execute every check in the config, in config order."""
    for desc in config.checks:
        get_operation(desc["operation"])  # validate names up front
    return [_run_one(desc, config.seed) for desc in config.checks]


def report_payload(config: ExperimentConfig,
                   reports: list[CheckReport]) -> dict[str, Any]:
    return {
        "version": __version__,
        "config": config.to_dict(),
        "all_passed": all(r.passed for r in reports),
        "reports": [r.to_dict() for r in reports],
    }


def write_report(config: ExperimentConfig, reports: list[CheckReport],
                 path: str | None = None) -> str:
    path = path or config.output + ".json"
    dump_json(report_payload(config, reports), path)
    return path


_KIND_KEYS = {
    "ratio-vs-parameter": "ratio",
    "measure-vs-scale": "measure",
}
# estimate_alpha_B series carry (m_d, lambda) rather than "measure"
_KIND_ALT = {"measure-vs-scale": "lambda"}


def emit_plot_data(reports: list[dict[str, Any]], kind: str,
                   prefix: str = "plot") -> list[str]:
    """Write one CSV per report whose series match the requested kind.

    Column order is the sorted key set of the first series row; one row
    per sample; LF line endings, UTF-8, header row.
    """
    if kind not in _KIND_KEYS:
        raise ConfigError(f"unknown plot kind {kind!r}")
    want = _KIND_KEYS[kind]
    alt = _KIND_ALT.get(kind)
    written = []
    matched = False
    for i, rep in enumerate(reports):
        series = rep.get("series") or []
        if not series:
            continue
        keys = set(series[0])
        if want not in keys and (alt is None or alt not in keys):
            continue
        matched = True
        cols = sorted(series[0])
        path = f"{prefix}_{rep['check_id']}_{i}.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(cols)
            for row in series:
                writer.writerow([row.get(c) for c in cols])
        written.append(path)
    if reports and not matched:
        raise ConfigError(f"no report carries a series for kind {kind!r}")
    return written


def load_config(path: str) -> ExperimentConfig:
    with open(path, encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    return ExperimentConfig.from_dict(raw)
