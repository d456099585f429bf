"""Command line entry point.

Subcommands: run <config.json>, list-checks, emit-plots <report.json>.
"""

from __future__ import annotations

import argparse
import json
import sys

from .registry import KEYS, REGISTRY
from .report import ConfigError
from .runner import emit_plot_data, load_config, run, write_report


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="restriction-lab",
        description="numerical verification checks for degenerate-curve "
                    "restriction estimates")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a config of checks")
    p_run.add_argument("config", help="path to the JSON config")
    p_run.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
    p_run.add_argument("--output", default=None,
                       help="override the report path prefix")

    sub.add_parser("list-checks", help="list available operations")

    p_emit = sub.add_parser("emit-plots",
                            help="emit CSV plot data from a report")
    p_emit.add_argument("report", help="path to a report JSON")
    p_emit.add_argument("--kind", required=True,
                        choices=["ratio-vs-parameter", "measure-vs-scale"])
    p_emit.add_argument("--prefix", default="plot",
                        help="output filename prefix")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "list-checks":
            for name in sorted(REGISTRY):
                keys = [p.name if p.default is p.empty
                        else f"{p.name}={json.dumps(p.default)}"
                        for p in KEYS[name]]
                print(f"{name:26s} {REGISTRY[name].summary}")
                print(f"{'':26s} keys: {', '.join(keys)}")
            return 0
        if args.command == "run":
            config = load_config(args.config)
            if args.seed is not None:
                config.seed = args.seed
            if args.output is not None:
                config.output = args.output
            reports = run(config)
            path = write_report(config, reports)
            for rep in reports:
                status = "PASS" if rep.passed else "FAIL"
                est = "" if rep.estimate is None else f" estimate={rep.estimate:.6g}"
                print(f"[{status}] {rep.check_id}{est}")
            print(f"report written to {path}")
            return 0 if all(r.passed for r in reports) else 1
        if args.command == "emit-plots":
            with open(args.report, encoding="utf-8") as fh:
                payload = json.load(fh)
            written = emit_plot_data(payload.get("reports", []), args.kind,
                                     prefix=args.prefix)
            for path in written:
                print(path)
            return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
