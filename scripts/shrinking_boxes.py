"""Occupation measure of shrinking boxes around a curve point.

Sweeps a dyadic family of cubes centered on gamma(t0), prints the
lambda(E) vs m_d(E) table, and fits the log-log slope.  For a
nondegenerate point the slope is 1/d (the curve crosses the cube along
one axis); the measure condition needs slope >= alpha, which keeps the
ratio lambda / m_d^alpha bounded as the cubes shrink.
"""

import argparse
import csv

import numpy as np

from restriction_lab.curves import curve_from_spec
from restriction_lab.geometry import estimate_alpha_B, shrink_family


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--beta", type=float, default=4.0)
    ap.add_argument("--d", type=int, default=3)
    ap.add_argument("--alpha", type=float, default=1 / 6)
    ap.add_argument("--t0", type=float, default=0.5)
    ap.add_argument("--count", type=int, default=8)
    ap.add_argument("--out", default="shrinking_boxes.csv")
    args = ap.parse_args()

    curve = curve_from_spec({"kind": "monomial", "beta": args.beta,
                             "d": args.d, "domain": [0.0, 1.0]})
    center = curve.jet(np.array([args.t0]))[0]
    family = shrink_family(center, 1.0, args.count)
    rep = estimate_alpha_B(curve, family, args.alpha)

    rows = [(s["m_d"], s["lambda"]) for s in rep.series if s["lambda"] > 0]
    for md, lam in rows:
        print(f"  m_d={md:.3e}  lambda={lam:.3e}")
    if len(rows) >= 3:
        logs = np.log(np.asarray(rows))
        slope = np.polyfit(logs[:, 0], logs[:, 1], 1)[0]
        print(f"log-log slope: {slope:.4f} "
              f"(1/d = {1 / args.d:.4f}, alpha = {args.alpha:.4f})")
    print(f"B_est = {rep.estimate:.6f}")

    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["m_d", "lambda"])
        writer.writerows(rows)
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
