"""Smoke run: every workload for one second, untraced and traced.

    python3 perfbench/smoke.py

Run from the root of a checkout.  Each run must exit 0 and end with one
JSON line that holds whole ``attempted`` and ``failed`` counts and every
metric of BENCHMARK.json under its name and unit: the end-to-end
metrics untraced, the per-layer metrics traced.  Exits 1 if one does
not.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def problems(line: str, specs: list[dict]) -> list[str]:
    """What is wrong with one result line."""
    try:
        res = json.loads(line)
    except ValueError:
        return [f"last line is not JSON: {line[:80]!r}"]
    out = []
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        out.append(f"keys {sorted(res)}")
    if res.get("correct") is not True:
        out.append("correct is not true")
    for key in ("attempted", "failed"):
        if type(res.get(key)) is not int:
            out.append(f"{key} is not a whole number")
    if res.get("attempted", 0) < 1:
        out.append("nothing attempted")
    metrics = res.get("metrics", {})
    if set(metrics) != {m["name"] for m in specs}:
        out.append(f"metric names differ: {sorted(metrics)}")
    for m in specs:
        got = metrics.get(m["name"], {})
        if got.get("unit") != m["unit"] or not isinstance(
                got.get("value"), (int, float)):
            out.append(f"{m['name']}: {got}")
    return out


def main() -> int:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    bad = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(RUN), "--workload", workload,
                 "--seed", "1", "--seconds", "1", "--trace", str(trace)],
                capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            found = ([f"exit code {proc.returncode}"] if proc.returncode
                     else problems(lines[-1] if lines else "",
                                   spec["per_layer" if trace
                                        else "end_to_end"]))
            if not found:
                res = json.loads(lines[-1])
                print(f"ok   {workload} trace={trace}: {res['failed']}/"
                      f"{res['attempted']} failed, "
                      f"{len(res['metrics'])} metrics")
            else:
                bad += 1
                print(f"FAIL {workload} trace={trace}: " + "; ".join(found))
                print(proc.stderr[-2000:], file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
