"""Build one representation and print its verification report.

Example:  python scripts/rep_demo.py --genus 1 --punctures 2 --N 3 --seed 42

Exits 1 unless both the verification and the Frobenius compatibility pass.
"""

import argparse
import json
import sys

from trackforms import from_triangulation, standard_triangulation
from trackforms.algebra import BalancedAlgebra, omega_candidates
from trackforms.representation import build, frobenius_compat, random_spec, verify


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--genus", "-g", type=int, default=1)
    parser.add_argument("--punctures", "-s", type=int, default=1)
    parser.add_argument("--N", type=int, default=3)
    parser.add_argument("--epsilon", type=int, default=1, choices=(1, -1))
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    track = from_triangulation(standard_triangulation(args.genus, args.punctures))
    params = omega_candidates(args.N, epsilon=args.epsilon)[0]
    algebra = BalancedAlgebra(track, params)
    rep = build(random_spec(algebra, seed=args.seed))
    print(f"surface (g, s) = ({args.genus}, {args.punctures}), N = {args.N}, "
          f"omega = {params.omega:.6f}, epsilon = {params.epsilon:+d}")
    print(f"dimension {rep.dim}")
    checks = {"verify": verify(rep, seed=args.seed),
              "frobenius": frobenius_compat(rep, seed=args.seed)}
    for name, report in checks.items():
        print(f"{name}:", json.dumps(report.to_json_dict(), indent=2))
    return 0 if all(report.passed for report in checks.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
