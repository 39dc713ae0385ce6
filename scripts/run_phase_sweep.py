#!/usr/bin/env python3
"""Desk-scale phase-transition sweep for both methods.

Reproduces the shape of the published heatmaps: for each block count the
grid covers n in {25, 50, ..., 400} and d in {5, 10, ..., 80} (d values
restricted to multiples of k), 100 fresh planted instances per cell.
Writes one CSV per k plus a provenance sidecar and prints ASCII
previews and the estimated recovery boundary.

Full defaults take a while (three grids x two methods x 100 trials);
use --trials 25 or a coarser grid for a quick look.
"""

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from convrelax import sweep


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
    n_values = tuple(range(25, 401, 25))
    for k in (int(v) for v in args.k_values.split(",")):
        d_values = tuple(d for d in range(5, 81, 5) if d % k == 0)
        spec = sweep.GridSpec(
            n_values=n_values,
            d_values=d_values,
            k=k,
            trials=args.trials,
            master_seed=args.seed,
        )
        t0 = time.time()
        cells = sweep.run_grid(spec, workers=args.workers)
        out = os.path.join(args.out_dir, f"phase_k{k}.csv")
        sweep.write_csv(cells, out)
        sweep.write_spec(spec, os.path.join(args.out_dir, f"phase_k{k}_spec.json"))
        print(f"k={k}: {len(cells)} cells in {time.time() - t0:.1f}s -> {out}")
        for method in spec.methods:
            print(sweep.ascii_heatmap(cells, method))
            boundary = sweep.estimate_boundary(cells, args.threshold)
            line = ", ".join(
                f"d={d}: n>={boundary[(method, d)]}" if boundary[(method, d)] else f"d={d}: -"
                for d in d_values
            )
            print(f"  boundary at rate >= {args.threshold} ({method}): {line}")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except sweep.SweepError as exc:  # a bad grid or worker count, as `convrelax sweep` reports it
        print(f"usage error: {exc}", file=sys.stderr)
        sys.exit(2)
