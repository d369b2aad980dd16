"""Timing comparison of the numba and numpy kernel paths.

Run:  python3 benchmarks/bench_kernels.py [--sizes 500,2000,4000] [--repeats 5]

The numba path must be enabled (HGCT_NUMBA unset or != 0) for the comparison;
otherwise only the numpy column is reported. The `kabsch_batch` rows time the
stacked rigid solver on n fits of 6 points each (numpy only; it has no numba
path).
"""

import argparse
import time

import numpy as np

from hgct import kernels
from hgct.geom import kabsch_batch, random_rotation


def _time(fn, *args, repeats=5):
    fn(*args)  # warm (JIT + caches)
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def bench(sizes, repeats):
    rng = np.random.default_rng(0)
    impls = kernels.implementations()
    names = list(impls)
    print(f"kernel paths available: {', '.join(names)}")
    header = f"{'kernel':<14}{'n':>7}" + "".join(f"{n + ' (ms)':>14}" for n in names)
    if len(names) == 2:
        header += f"{'speedup':>10}"
    print(header)
    print("-" * len(header))

    for n in sizes:
        src = rng.uniform(-1, 1, (n, 3))
        tgt = rng.uniform(-1, 1, (n, 3))
        rots = np.stack([random_rotation(rng) for _ in range(64)])
        trans = rng.normal(size=(64, 3))
        order = rng.permutation(n)

        cases = [
            ("gamma_matrix", (src, tgt, 0.1)),
            ("mae_scores", (rots, trans, src, tgt, 0.1)),
            ("nms_select", (src, order, 0.3)),
        ]
        for kernel, args in cases:
            times = [_time(impls[name][kernel], *args, repeats=repeats)
                     for name in names]
            row = f"{kernel:<14}{n:>7}" + "".join(f"{t * 1e3:>14.2f}" for t in times)
            if len(times) == 2:
                row += f"{times[0] / times[1]:>9.1f}x"
            print(row)

    for m in (100, 1600):
        src = rng.uniform(-1, 1, (m, 6, 3))
        tgt = src @ random_rotation(rng).T + rng.normal(0.0, 0.01, (m, 6, 3))
        t = _time(kabsch_batch, src, tgt, repeats=repeats)
        print(f"{'kabsch_batch':<14}{m:>7}{t * 1e3:>14.2f}"
              + "".join(f"{'-':>14}" for _ in names[1:]))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", default="500,2000,4000")
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()
    sizes = [int(s) for s in args.sizes.split(",")]
    bench(sizes, args.repeats)


if __name__ == "__main__":
    main()
