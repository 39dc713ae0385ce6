#!/usr/bin/env python3
"""Desk-scale phase-transition sweep for both methods.

Reproduces the shape of the published heatmaps: for each block count the
grid covers n in {25, 50, ..., 400} and d in {5, 10, ..., 80} (d values
restricted to multiples of k), 100 fresh planted instances per cell.
Each k is one ``convrelax sweep`` run, which writes its CSV and
provenance sidecar and prints the ASCII previews; the script then prints
its wall time and the estimated recovery boundary read back from the CSV.

Full defaults take a while (three grids x two methods x 100 trials);
use --trials 25 or a coarser grid for a quick look.
"""

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from convrelax import cli, sweep


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="sweep_results")
    parser.add_argument("--k-values", default="1,2,5")
    parser.add_argument("--trials", type=int, default=100)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--threshold", type=float, default=0.4,
                        help="success-rate level for the boundary estimate")
    args = parser.parse_args()

    os.makedirs(args.out_dir, exist_ok=True)
    n_values = ",".join(str(n) for n in range(25, 401, 25))
    for k in (int(v) for v in args.k_values.split(",")):
        d_values = [d for d in range(5, 81, 5) if d % k == 0]
        out = os.path.join(args.out_dir, f"phase_k{k}.csv")
        t0 = time.time()
        code = cli.main(["sweep", "--n-values", n_values, "--d-values", ",".join(str(d) for d in d_values),
                         "--k", str(k), "--trials", str(args.trials), "--seed", str(args.seed),
                         "--workers", str(args.workers), "--out", out,
                         "--spec-json", os.path.join(args.out_dir, f"phase_k{k}_spec.json"), "--heatmap"])
        if code != cli.EXIT_OK:
            return code
        print(f"k={k}: swept in {time.time() - t0:.1f}s")
        cells = sweep.read_csv(out)
        boundary = sweep.estimate_boundary(cells, args.threshold)
        for method in dict.fromkeys(c.method for c in cells):  # the spec's order
            line = ", ".join(
                f"d={d}: n>={boundary[(method, d)]}" if boundary[(method, d)] else f"d={d}: -"
                for d in d_values
            )
            print(f"  boundary at rate >= {args.threshold} ({method}): {line}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
