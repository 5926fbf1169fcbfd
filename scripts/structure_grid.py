"""Census and normal-form survey over a grid of surface signatures.

For every admissible (genus, punctures) in the requested ranges, builds the
triangulation track, runs the region census and the block diagonalization of
the intersection form, and prints one row per cell.  With ``--flips F``,
it also surveys ``--seeds K`` triangulations per cell, each the cell's
standard triangulation after F random flips, and prints per cell how many
passed and the largest ``|U|`` bit length of the normal form that
``verify_structure`` reduces (on the elimination basis of the weight
lattice).  Exits 1 if any cell or flipped triangulation fails.
"""

import argparse
import sys

from trackforms import (
    from_triangulation,
    skew_normal_form,
    standard_triangulation,
    theta_matrix,
    verify_structure,
)
from trackforms.lattice import integer_kernel
from trackforms.traintrack import switch_matrix
from trackforms.triangulation import random_triangulation


def u_bits(track) -> int:
    """Largest ``|U|`` bit length of the normal form on the elimination basis."""
    nf = skew_normal_form(theta_matrix(track, integer_kernel(switch_matrix(track))))
    return max((abs(x).bit_length() for row in nf.U for x in row), default=0)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-genus", type=int, default=3)
    parser.add_argument("--max-punctures", type=int, default=5)
    parser.add_argument("--flips", type=int, default=0,
                        help="random flips per surveyed triangulation (0: no flip survey)")
    parser.add_argument("--seeds", type=int, default=1,
                        help="flipped triangulations per cell")
    args = parser.parse_args()
    cells = [(g, s) for g in range(args.max_genus + 1)
             for s in range(1, args.max_punctures + 1) if 2 - 2 * g - s < 0]

    header = f"{'(g,s)':>8} {'n':>3} {'h':>3} {'n_even':>6} {'n_odd':>6} " \
             f"{'blocks':>16} {'nullity':>7} {'eta':>5} {'pass':>5}"
    print(header)
    print("-" * len(header))
    failed = False
    for g, s in cells:
        track = from_triangulation(standard_triangulation(g, s))
        report = verify_structure(track)
        print(f"{f'({g},{s})':>8} {report.rank + report.nullity:>3} "
              f"{report.genus:>3} {report.n_even:>6} {report.n_odd:>6} "
              f"{str(list(report.computed_blocks)):>16} {report.nullity:>7} "
              f"{str(report.eta_kernel_match):>5} {str(report.passed):>5}")
        failed = failed or not report.passed

    if args.flips > 0:
        print(f"\nflip survey: {args.seeds} triangulations per cell, {args.flips} flips each")
        header = f"{'(g,s)':>8} {'passed':>9} {'max |U| bits':>12}"
        print(header)
        print("-" * len(header))
        for g, s in cells:
            passed, bits = 0, 0
            for seed in range(args.seeds):
                track = from_triangulation(random_triangulation(g, s, args.flips, seed))
                passed += verify_structure(track).passed
                bits = max(bits, u_bits(track))
            print(f"{f'({g},{s})':>8} {f'{passed}/{args.seeds}':>9} {bits:>12}")
            failed = failed or passed < args.seeds
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
