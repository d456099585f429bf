"""Monte Carlo measures of the dyadic K-shells and their scaling ratio.

Consecutive shells should shrink by 2^{-(d-1) alpha / (1 - d alpha)}.
"""

import argparse

from restriction_lab.geometry import sm_shells


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--d", type=int, default=3)
    ap.add_argument("--alpha", type=float, default=1 / 6)
    ap.add_argument("--m-max", type=int, default=4)
    ap.add_argument("--samples", type=int, default=2_000_000)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()

    target = 2.0 ** (-(args.d - 1) * args.alpha / (1 - args.d * args.alpha))
    print(f"target consecutive ratio: {target:.6f}")
    measures, _ = sm_shells(args.d, args.alpha, args.m_max,
                            mc_samples=args.samples, seed=args.seed)
    prev = None
    for m, est in enumerate(measures):
        line = f"  m={m}: measure {est:.5f}"
        if prev:
            line += f"  ratio {est / prev:.4f}"
        print(line)
        prev = est


if __name__ == "__main__":
    main()
