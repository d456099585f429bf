"""Time from a generated config to a written, verified report.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  One process runs one workload as a
closed loop with a single caller: seeded passes, one after another, for
``--seconds`` seconds (a pass that has started is finished).  A pass
calls ``restriction_lab.cli.main(["run", config, "--output", ...])``,
reads the report back, checks it, and makes the workload's direct layer
calls.  Untraced pass times are scaled to the box's usual speed by
probes taken while the passes run (``speed.py``).  References made
apart from the program are compared after the timed loop.  The last
line on stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of BENCHMARK.json
with ``--trace 0``, its per-layer metrics, averaged per pass, with
``--trace 1``.
"""

from __future__ import annotations

import os

# one thread: pin the BLAS pools before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"

if not (SRC / "restriction_lab" / "__init__.py").is_file():
    sys.exit(f"run.py: no restriction_lab sources under {SRC}; "
             "run from the root of a checkout")
sys.path[:0] = [str(SRC), str(HERE)]

import numpy as np  # noqa: E402

import restriction_lab  # noqa: E402
from restriction_lab import cli  # noqa: E402

if Path(restriction_lab.__file__).resolve().parent != (
        SRC / "restriction_lab").resolve():
    sys.exit(f"run.py: imported restriction_lab from "
             f"{restriction_lab.__file__}, not from {SRC}")

import spans  # noqa: E402
import speed  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# set-up is measured this many times per run, in fresh processes
SETUP_REPEATS = 7


def pass_rng(seed: int, k: int) -> tuple[np.random.Generator, int]:
    """Generator and config seed of pass k: both derive from the
    workload seed and the pass index only."""
    seq = np.random.SeedSequence([seed, k])
    return np.random.default_rng(seq), int(seq.generate_state(1)[0])


def run_pass(workload, cfg: dict, inputs, cfg_path: Path,
             prefix: Path) -> tuple[list[dict], bytes | None]:
    """One pass: config file -> report on disk -> checked operations."""
    report_path = prefix.with_suffix(".json")
    raw = None
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["run", str(cfg_path), "--output", str(prefix)])
        raw = report_path.read_bytes()
        report = json.loads(raw)
    except Exception:  # counted as failed operations; the run goes on
        traceback.print_exc(file=sys.stderr)
        report = None
    return workload.check(cfg, inputs, report), raw


def measure_setup(args) -> float:
    """Seconds, at the reference speed, from spawning a fresh interpreter
    until it could start its first pass (imports and config generation
    done)."""
    probes = speed.burst()
    start = time.monotonic_ns()
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload",
         args.workload, "--seed", str(args.seed), "--setup-probe"],
        capture_output=True, text=True, check=True)
    wall = (int(proc.stdout.split()[-1]) - start) / 1e9
    probes += speed.burst()
    return speed.scaled(wall, probes)


def layer_metrics(tracer, passes: int, specs: list[dict]) -> dict:
    """Per-layer metrics named <module>.<public name>.<quantity>."""
    totals = tracer.totals()
    counts = tracer.counts
    samples = counts.get("geometry.sm_measure.samples", 0.0)
    sm_s = totals.get("geometry.sm_measure", {}).get("s", 0.0)
    out = {}
    for spec in specs:
        name = spec["name"]
        layer, quantity = name.rsplit(".", 1)
        if quantity in ("calls", "s", "self_s"):
            value = totals.get(layer, {}).get(quantity, 0.0) / passes
        elif quantity == "points":
            value = counts.get(name, 0.0) / passes
        elif quantity == "samples_per_s":
            value = samples / sm_s if sm_s else 0.0
        elif quantity == "hit_ratio":
            value = (counts.get("geometry.sm_measure.hits", 0.0) / samples
                     if samples else 0.0)
        else:
            raise ValueError(f"unknown per-layer quantity in {name}")
        out[name] = {"value": value, "unit": spec["unit"]}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    workload = WORKLOADS[args.workload]()
    out_dir = HERE / "out" / f"{args.workload}-s{args.seed}"
    out_dir.mkdir(parents=True, exist_ok=True)
    cfg_path = out_dir / "config.json"
    prefix = out_dir / "report"

    if args.setup_probe:
        cfg, _ = workload.make(*pass_rng(args.seed, 0))
        (out_dir / "probe-config.json").write_text(json.dumps(cfg))
        print(time.monotonic_ns())
        return 0

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    setups = ([] if args.trace else
              [measure_setup(args) for _ in range(SETUP_REPEATS)])

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        spans.install(tracer)

    ops: list[dict] = []
    passes: list[tuple[float, float]] = []   # start and end of each pass
    first = None
    # traced runs take no probes, so that none lands inside a span
    sampler = speed.Sampler() if not tracer else None
    deadline = time.perf_counter() + args.seconds
    with sampler or contextlib.nullcontext():
        while not passes or time.perf_counter() < deadline:
            cfg, inputs = workload.make(*pass_rng(args.seed, len(passes)))
            cfg_path.write_text(json.dumps(cfg))
            prefix.with_suffix(".json").unlink(missing_ok=True)
            span = (tracer.span(spans.PASS) if tracer
                    else contextlib.nullcontext())
            start = time.perf_counter()
            with span:
                pass_ops, raw = run_pass(workload, cfg, inputs, cfg_path,
                                         prefix)
            passes.append((start, time.perf_counter()))
            ops += pass_ops
            if first is None:
                first = (cfg, inputs, raw)
    if sampler:
        times, scaled = map(list, zip(*(sampler.scale(start, end)
                                        for start, end in passes)))
    else:
        times, scaled = [end - start for start, end in passes], None
    with open(out_dir / "timing.json", "w", encoding="utf-8") as fh:
        json.dump({"pass_s": times, "scaled_s": scaled,
                   "probes": sampler and [sampler.at, sampler.took]}, fh)
    if tracer:
        # before the repeat below, whose calls are no pass of the run
        metrics = layer_metrics(tracer, len(times), spec["per_layer"])
        tracer.save(str(out_dir / "spans.npz"))
        with open(out_dir / "trace.json", "w", encoding="utf-8") as fh:
            json.dump({"passes": len(times),
                       "totals": tracer.totals(), "counts": tracer.counts,
                       "metrics": metrics}, fh, indent=1, sort_keys=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    workload.verify(ops)
    correct = True
    if workload.repeat_check:
        # the same seed again must write the same bytes
        cfg, inputs, raw = first
        cfg_path.write_text(json.dumps(cfg))
        _, again = run_pass(workload, cfg, inputs, cfg_path, prefix)
        correct = raw is not None and again == raw
        if not correct:
            print("run.py: report bytes differ between two passes at one "
                  "seed", file=sys.stderr)
    failed = [op for op in ops if not op["ok"]]
    for name, n in sorted(Counter(op["op"] for op in failed).items()):
        print(f"run.py: {n} x {name} failed", file=sys.stderr)
    for op in failed:
        if op.get("error"):
            print(f"run.py: {op['op']}: {op['error']}", file=sys.stderr)

    print(f"run.py: {args.workload} seed {args.seed}: {len(times)} passes, "
          f"median {statistics.median(times):.4f} s wall, "
          + (f"{statistics.median(scaled):.4f} s scaled, " if scaled else "")
          + f"{len(failed)}/{len(ops)} operations failed", file=sys.stderr)
    if not tracer:
        values = {"report_s": statistics.median(scaled),
                  "setup_s": statistics.median(setups),
                  "peak_rss_mb": peak_rss_mb}
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    print(json.dumps({"correct": correct, "attempted": len(ops),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
