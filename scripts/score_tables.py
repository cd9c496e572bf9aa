#!/usr/bin/env python3
"""Recompute the benchmark score tables from their raw time/accuracy columns.

Prints the comprehensive score S (at metrics.W_EFF unless --w-eff is
given) for every motif size on both benchmark tables, plus the sweep
crossover weight for each variant against its baseline.  Useful as a
quick sanity check that the score arithmetic in motifset.metrics matches
the numbers quoted in README.md.
"""
import argparse

from motifset.metrics import W_EFF, comprehensive_score, tradeoff_sweep

TABLES = {
    "fmnist": [
        # (motif size, runtime seconds, test accuracy)
        (1, 25236.2, 0.761),
        (2, 14307.5, 0.733),
        (4, 9209.3, 0.692),
    ],
    "lung": [
        (1, 4953.2, 0.937),
        (2, 3448.7, 0.926),
        (4, 3417.3, 0.914),
    ],
}


def print_table(name, rows, w_eff):
    t_base, a_base = rows[0][1], rows[0][2]
    print(f"\n{name}  (baseline: T={t_base} s, A={a_base})")
    print(f"{'m':>3} {'T (s)':>10} {'A':>7} {'R_r':>9} {'A_r':>9}"
          f" {'S':>9} {'crossover':>10}")
    for m, t, a in rows:
        rep = comprehensive_score(t_base, t, a_base, a, w_eff=w_eff)
        sweep = tradeoff_sweep(t_base, t, a_base, a)
        cross = ("-" if sweep.crossover_w_eff is None
                 else f"{sweep.crossover_w_eff:.2f}")
        print(f"{m:>3} {t:>10.1f} {a:>7.3f} {rep.r_r:>9.4f}"
              f" {rep.a_r:>9.4f} {rep.s:>9.4f} {cross:>10}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--w-eff", type=float, default=W_EFF,
                        help=f"efficiency weight (default {W_EFF})")
    args = parser.parse_args()
    for name, rows in TABLES.items():
        print_table(name, rows, args.w_eff)


if __name__ == "__main__":
    main()
