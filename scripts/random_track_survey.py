"""Randomized stress test of the block prediction on abstract train tracks.

Draws random connected ribbon tracks (random branch/switch counts, random
germ placement), runs the census + normal form on each, and tallies how many
land in each of the three prediction cases and whether any fail.  A failure
would print the offending track as JSON and make the script exit 1.
"""

import argparse
import json
import random
import sys
from collections import Counter

from trackforms import verify_structure
from trackforms.fixtures import random_ribbon_track


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = random.Random(args.seed)
    tally = Counter()
    failures = 0
    checked = 0
    while checked < args.count:
        track = random_ribbon_track(rng)
        if track is None or not track.is_connected():
            continue
        checked += 1
        report = verify_structure(track)
        tally[report.case] += 1
        if not report.passed:
            failures += 1
            print("FAILURE on track:")
            print(json.dumps(track.to_json_dict()))
            print(json.dumps(report.to_json_dict(), indent=2))
    print(f"checked {checked} connected tracks (seed {args.seed})")
    for case, count in sorted(tally.items()):
        print(f"  {case}: {count}")
    print(f"failures: {failures}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
