"""Run one config at every seed of a range and list the checks that FAIL.

    python scripts/seed_sweep.py configs/default.json 0 299

A check that FAILs at some seeds is a defect that one fixed seed hides.
Each seed replaces the config's own, and the checks run in-process as
``restriction-lab run`` runs them.  Every failing (check, seed) pair is
printed, one a line with the check's estimate and notes; the exit
status is 1 if there is any and 0 if there is none.

CI sweeps ``configs/default.json`` at seeds 0-299, with a RuntimeWarning
raised as an error.  ``configs/all_ops.json``
joins it once ``lemma1-conclusion`` takes its constant B from boxes that
cover the range its pairs are drawn from (ROADMAP item 12): today that
check FAILs its margin at 20 of seeds 0-299, seed 0 among them.
"""

import argparse
import sys

from restriction_lab.runner import load_config, run


def failures(config: str, first: int, last: int) -> list[tuple]:
    """(operation, seed, report) of every check that FAILs, seed by
    seed."""
    cfg = load_config(config)
    out = []
    for seed in range(first, last + 1):
        cfg.seed = seed
        for desc, rep in zip(cfg.checks, run(cfg)):
            if not rep.passed:
                out.append((desc["operation"], seed, rep))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("config")
    ap.add_argument("first", type=int)
    ap.add_argument("last", type=int)
    args = ap.parse_args(argv)
    failed = failures(args.config, args.first, args.last)
    for operation, seed, rep in failed:
        print(f"FAIL {operation} seed {seed} estimate {rep.estimate!r}"
              + "".join(f"  [{note}]" for note in rep.notes))
    print(f"{len(failed)} failing (check, seed) pairs at seeds "
          f"{args.first}-{args.last}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
