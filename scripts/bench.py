"""Time the structure stages on a fixed ladder of triangulations and write ``BENCH_<label>.json``.

Each stage function is called directly, in process, on the inputs the
structure stage gives it: ``tree_basis``, ``theta_matrix``,
``skew_normal_form``, ``certify_normal_form``, ``_etas_span_radical`` and
``regions``, and ``certified_form``, which runs the first four and turns the
basis into an array.  ``cli`` is ``python -m trackforms verify-structure`` in
a fresh process, start-up included.

Every stage gets one warm-up call, which also sets how many calls make one
sample (enough for ``SAMPLE_S`` seconds).  Then ``ROUNDS`` rounds each
take one sample of every stage of every rung, so the samples of a stage are
spread over the whole run, and a slow spell of a shared host lands on a few
samples of every stage rather than on all samples of one.  Each stage
records the median and quartiles of its samples, in seconds per call.

The ladder: the standard (fan) triangulations (8,4) through (256,4), the
flipped (24,4)x3000 and (32,4)x5000 of seed 1, and (0,60).  The file also
records the git revision of the checkout (null outside a git repository),
the Python and numpy versions, the BLAS library numpy loaded and its thread
count (``perfbench/worker.py``'s ``blas_info`` probe), the CPU count and a
digest of the package source.  It times the ``src/`` beside this script,
so a copy of the script in another checkout times that checkout.

    python scripts/bench.py --label 02-normal-form-record
"""

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.append(str(ROOT / "perfbench"))  # for worker.blas_info

from trackforms import from_triangulation, intcore, lattice, standard_triangulation  # noqa: E402
from trackforms.traintrack import puncture_weights, regions  # noqa: E402
from trackforms.triangulation import random_triangulation  # noqa: E402
from worker import blas_info  # noqa: E402

FANS = [(8, 4), (16, 4), (32, 4), (64, 4), (128, 4), (256, 4)]
FLIPPED = [(24, 4, 3000), (32, 4, 5000)]
FLIP_SEED = 1
ROUNDS = 7
SAMPLE_S = 0.05


def ladder():
    """``(name, triangulation)`` for every rung, smallest first."""
    for g, s in FANS:
        yield f"fan({g},{s})", standard_triangulation(g, s)
    for g, s, flips in FLIPPED:
        yield f"flipped({g},{s})x{flips}", random_triangulation(g, s, flips, FLIP_SEED)
    yield "fan(0,60)", standard_triangulation(0, 60)


def sample(fn, number: int) -> float:
    """Seconds per call of ``fn`` over ``number`` calls."""
    start = time.perf_counter()
    for _ in range(number):
        fn()
    return (time.perf_counter() - start) / number


def rung(name, tri, tmp: Path) -> tuple[dict, dict]:
    """The rung's record and its stages, each a call on the inputs the structure stage gives it."""
    track = from_triangulation(tri)
    basis, nf = lattice.certified_form(track)
    m = lattice.theta_matrix(track, basis)
    etas = puncture_weights(track)
    tri_file = tmp / f"{name}.json"
    tri_file.write_text(json.dumps(tri.to_json_dict()))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cli = [sys.executable, "-m", "trackforms", "verify-structure", "--input", str(tri_file)]
    stages = {
        "tree_basis": lambda: lattice.tree_basis(track),
        "theta_matrix": lambda: lattice.theta_matrix(track, basis),
        "skew_normal_form": lambda: lattice.skew_normal_form(m),
        "certify_normal_form": lambda: lattice.certify_normal_form(nf, m),
        "_etas_span_radical": lambda: lattice._etas_span_radical(track, basis, etas, nf.nullity),
        "regions": lambda: regions(track),
        "certified_form": lambda: lattice.certified_form(track),
        "cli": lambda: subprocess.run(cli, env=env, check=True, stdout=subprocess.DEVNULL),
    }
    u = nf.arrays[0] if nf.arrays else intcore.as_array(nf.U)
    record = {"input": name, "genus": tri.genus, "punctures": tri.punctures,
              "branches": track.branch_count, "n": len(m), "rank": nf.rank,
              "u_bits": intcore.max_bits(u), "stages": {}}
    return record, stages


def summary(samples: list[float], number: int) -> dict:
    q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {"median_s": median, "q1_s": q1, "q3_s": q3, "min_s": min(samples),
            "samples": len(samples), "calls_per_sample": number}


def src_sha256() -> str:
    """One digest of the package's source files, which names the code timed with or without a commit.

    The same digest as ``perfbench/run.py``'s ``src_sha256``.
    """
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "trackforms").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git(*cmd) -> str | None:
    """The output of a git command on the checkout, or None outside a git repository."""
    try:
        done = subprocess.run(["git", *cmd], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--label", required=True, help="names the output file BENCH_<label>.json")
    parser.add_argument("--out-dir", type=Path, default=ROOT)
    args = parser.parse_args()
    status = git("status", "--porcelain", "--untracked-files=no")
    report = {
        "label": args.label,
        "git_rev": git("rev-parse", "HEAD"),
        "git_tracked_changes": None if status is None else bool(status),
        "src_sha256": src_sha256(),
        "python": platform.python_version(),
        **blas_info(),
        "cpu_count": os.cpu_count(),
        "method": (f"in-process stage calls (cli: a fresh process each); one warm-up call per stage, "
                   f"then {ROUNDS} rounds of one sample of every stage, a sample being the mean "
                   f"of enough calls for {SAMPLE_S} s; seconds per call"),
        "rungs": [],
    }
    with tempfile.TemporaryDirectory() as tmp:
        rungs = []
        for name, tri in ladder():
            record, stages = rung(name, tri, Path(tmp))
            # the warm-up call sets the calls per sample
            numbers = {stage: max(1, math.ceil(SAMPLE_S / sample(fn, 1))) for stage, fn in stages.items()}
            rungs.append((record, stages, numbers, {stage: [] for stage in stages}))
            print(f"set up {name}", flush=True)
        for r in range(ROUNDS):
            for record, stages, numbers, samples in rungs:
                for stage, fn in stages.items():
                    samples[stage].append(sample(fn, numbers[stage]))
            print(f"round {r + 1} of {ROUNDS}", flush=True)
    for record, stages, numbers, samples in rungs:
        for stage in stages:
            record["stages"][stage] = summary(samples[stage], numbers[stage])
            print(f"{record['input']:>20} {stage:>20} {record['stages'][stage]['median_s'] * 1e3:12.3f} ms")
        report["rungs"].append(record)
    path = args.out_dir / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
