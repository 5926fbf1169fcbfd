"""Census and normal-form survey over a grid of surface signatures.

For every admissible (genus, punctures) in the requested ranges, builds the
triangulation track, runs the region census and the block diagonalization of
the intersection form, and prints one row per cell.  Exits 1 if any cell
fails.
"""

import argparse
import sys

from trackforms import from_triangulation, standard_triangulation, verify_structure


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-genus", type=int, default=3)
    parser.add_argument("--max-punctures", type=int, default=5)
    args = parser.parse_args()

    header = f"{'(g,s)':>8} {'n':>3} {'h':>3} {'n_even':>6} {'n_odd':>6} " \
             f"{'blocks':>16} {'nullity':>7} {'eta':>5} {'pass':>5}"
    print(header)
    print("-" * len(header))
    failed = False
    for g in range(args.max_genus + 1):
        for s in range(1, args.max_punctures + 1):
            if 2 - 2 * g - s >= 0:
                continue
            track = from_triangulation(standard_triangulation(g, s))
            report = verify_structure(track)
            print(f"{f'({g},{s})':>8} {report.rank + report.nullity:>3} "
                  f"{report.genus:>3} {report.n_even:>6} {report.n_odd:>6} "
                  f"{str(list(report.computed_blocks)):>16} {report.nullity:>7} "
                  f"{str(report.eta_kernel_match):>5} {str(report.passed):>5}")
            failed = failed or not report.passed
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
