"""Compare the reports of a git ref with those of the working tree.

    python scripts/report_diff.py REF FIRST LAST

Runs each shipped config (``configs/default.json``,
``configs/all_ops.json``, ``configs/high_d.json`` and
``configs/flat.json``) at its own seed and at seeds FIRST..LAST, once in
an export of REF (its tracked files, by ``git archive``, in a temporary
directory) and once in the working tree, each tree with its own sources
and configs.  The reports are compared without the config's ``output``
path.  Every differing field is printed, one a line with its config,
seed and JSON path; the exit status is 1 if there is any and 0 if there
is none.

CI compares a pull request with its base branch at seeds 0-20: a change
that claims byte-identical reports shows it here.
"""

import argparse
import io
import json
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ["configs/default.json", "configs/all_ops.json",
           "configs/high_d.json", "configs/flat.json"]

# run in a fresh interpreter from the root of one tree: argv[1] is a
# directory for the reports, argv[2] a JSON list of config paths (relative
# to the tree, or absolute), argv[3:] the seeds ("own" for the config's);
# prints [{seed: report}], one entry per config, as JSON
_RUNNER = """
import contextlib, io, json, sys
from pathlib import Path
sys.path.insert(0, "src")
import restriction_lab
from restriction_lab import cli
if Path(restriction_lab.__file__).resolve().parent != Path(
        "src/restriction_lab").resolve():
    sys.exit(f"imported restriction_lab from {restriction_lab.__file__}")
out = []
for i, path in enumerate(json.loads(sys.argv[2])):
    out.append({})
    for seed in sys.argv[3:]:
        prefix = f"{sys.argv[1]}/{i}-{seed}"
        argv = ["run", path, "--output", prefix]
        if seed != "own":
            argv += ["--seed", seed]
        with contextlib.redirect_stdout(io.StringIO()):
            status = cli.main(argv)
        if status not in (0, 1):
            sys.exit(f"{path} at seed {seed}: exit status {status}")
        with open(prefix + ".json", encoding="utf-8") as fh:
            report = json.load(fh)
        report["config"].pop("output")
        out[i][seed] = report
print(json.dumps(out))
"""


def reports(tree: Path, configs: list[str], seeds: list[str]) -> list:
    """[{seed: report}] of ``configs`` (paths relative to ``tree``, or
    absolute), run with the sources of ``tree``."""
    with tempfile.TemporaryDirectory() as out:
        proc = subprocess.run([sys.executable, "-c", _RUNNER, out,
                               json.dumps(configs), *seeds],
                              cwd=tree, capture_output=True, text=True)
    if proc.returncode:
        sys.exit(f"report_diff.py: the run in {tree} failed:\n"
                 f"{proc.stderr}")
    return json.loads(proc.stdout)


def differences(a, b, path: str = "") -> list[str]:
    """One line per field where the JSON values a and b differ."""
    if isinstance(a, dict) and isinstance(b, dict):
        out = []
        for key in sorted(a.keys() | b.keys()):
            sub = f"{path}.{key}" if path else key
            if key not in a or key not in b:
                out.append(f"{sub}: only in "
                           f"{'the working tree' if key in b else 'REF'}")
            else:
                out += differences(a[key], b[key], sub)
        return out
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        return [line for i, (x, y) in enumerate(zip(a, b))
                for line in differences(x, y, f"{path}[{i}]")]
    # the JSON text of each value: 1 and 1.0, or NaN and NaN, compare as
    # the report bytes do
    if json.dumps(a) != json.dumps(b):
        return [f"{path}: {json.dumps(a)} (REF) != {json.dumps(b)}"]
    return []


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("ref")
    ap.add_argument("first", type=int)
    ap.add_argument("last", type=int)
    args = ap.parse_args(argv)
    seeds = ["own"] + [str(s) for s in range(args.first, args.last + 1)]
    archive = subprocess.run(["git", "archive", args.ref], cwd=ROOT,
                             capture_output=True)
    if archive.returncode:
        sys.exit(f"report_diff.py: git archive {args.ref}: "
                 f"{archive.stderr.decode().strip()}")
    with tempfile.TemporaryDirectory() as ref_tree:
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            tar.extractall(ref_tree, filter="data")
        before = reports(Path(ref_tree), CONFIGS, seeds)
    after = reports(ROOT, CONFIGS, seeds)
    lines = []
    for name, a, b in zip(CONFIGS, before, after):
        for seed in seeds:
            lines += [f"{name} seed {seed}: {line}" for line in
                      differences(a[seed], b[seed])]
    for line in lines:
        print(line)
    print(f"{len(lines)} differing fields in {len(CONFIGS) * len(seeds)} "
          f"reports of {args.ref} and the working tree")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
