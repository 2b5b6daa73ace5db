#!/usr/bin/env python3
"""Cycle-count statistics over an ensemble of random bi-regular graphs.

For each seed, samples a connected (d_v, d_c)-regular bipartite graph,
counts cycles of length g .. 2g-2 by the exact transfer, and prints
one row per graph plus ensemble means.

    python3 scripts/count_random_ensemble.py --n 30 --m 20 --dv 2 --dc 3 --trials 50
"""

import argparse
from collections import defaultdict

from girthspec import random_biregular, transfer_counts


def run(args: argparse.Namespace) -> None:
    totals: dict[int, int] = defaultdict(int)
    per_girth: dict[int, int] = defaultdict(int)
    for trial in range(args.trials):
        g = random_biregular(args.n, args.m, args.dv, args.dc,
                             seed=args.seed + trial)
        cc = transfer_counts(g)
        per_girth[cc.girth] += 1
        row = " ".join(f"N_{k}={v}" for k, v in sorted(cc.counts.items()))
        print(f"seed={args.seed + trial} girth={cc.girth} {row}")
        for k, v in cc.counts.items():
            totals[k] += v
    print("---")
    print("girth histogram:", dict(sorted(per_girth.items())))
    for k in sorted(totals):
        print(f"mean N_{k} = {totals[k] / args.trials:.2f}")


if __name__ == "__main__":
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--n", type=int, default=30, help="left-side node count")
    p.add_argument("--m", type=int, default=20, help="right-side node count")
    p.add_argument("--dv", type=int, default=2, help="left-side degree")
    p.add_argument("--dc", type=int, default=3, help="right-side degree")
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    run(p.parse_args())
