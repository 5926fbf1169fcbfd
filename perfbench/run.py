"""trackforms benchmark: seeded closed-loop workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload structure_large --seed 1 --seconds 20 --trace 0

It generates the workload's inputs from ``--seed``, starts fresh interpreters
to time set-up, runs the workload for ``--seconds`` in one of them, checks
every output, prints one line per metric and, last, one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` they are the per-layer
ones, from a traced run.  Run metadata (versions, thread counts, op counts,
the percentile behind ``op_tail_s``) goes to ``.bench_out/results/``, and the
spans of a traced run to ``.bench_out/spans-<workload>.jsonl.gz``.  See
``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
# Set-up is timed in this many set-up-only interpreters, half of them before
# the measuring one and half after it, so that the samples span the run.
SETUPS = 8
# Start probe (see start_probe) of about the fastest start seen on the
# reference host (Intel Xeon, KVM, 2 vCPUs, CPython 3.11, numpy 2.4).
# Calibrated set-up times are wall times scaled to it.
REFERENCE_START_S = 0.12
# Every run must end within this many seconds.
RUN_LIMIT_S = 170.0



class BenchError(RuntimeError):
    pass


def materialize(workload: str, inputs: dict, run_dir: Path) -> None:
    """Write CLI inputs to files (the CLI reads them) and record their paths."""
    import gen

    def write(name: str, data: dict) -> str:
        path = run_dir / name
        path.write_text(json.dumps(data, sort_keys=True))
        return str(path)

    if workload == "structure_large":
        inputs["warm_up"] = write("warm_up.json", gen.fan_triangulation(2, 2))
        for i, item in enumerate(inputs["items"]):
            item["path"] = write(f"structure_{i}.json", item.pop("tri"))
    elif workload == "rep_dense":
        inputs["warm_up"] = write("warm_up.json", {
            "triangulation": gen.fan_triangulation(1, 1), "N": 3, "seed": 0})
        for i, item in enumerate(inputs["items"]):
            item["path"] = write(f"rep_{i}.json", item.pop("spec"))


def start_worker(mode: str, args, inputs_path: Path, deadline: float,
                 spans_path: Path | None = None) -> tuple[float, dict | None]:
    """Run one worker; return its set-up time and (unless mode is setup) its result."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--inputs", str(inputs_path), "--mode", mode, "--seconds", str(args.seconds)]
    if spans_path is not None:
        cmd += ["--spans", str(spans_path)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    # Kills a worker that hangs, even before it prints READY.
    watchdog = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - t0
        out = proc.stdout.read()
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if ready.strip() != "READY" or proc.returncode != 0:
        raise BenchError(f"worker ({mode}) exited with code {proc.returncode} "
                         f"(killed after the time limit if negative)")
    if mode == "setup":
        return setup, None
    return setup, json.loads(out.strip().splitlines()[-1])


def start_probe() -> float:
    """Wall time of a fresh interpreter that imports numpy: how fast the host
    starts a process now.  No worker runs meanwhile, so the program cannot move it."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True, timeout=60)
    return time.perf_counter() - t0


def timed_setups(count: int, args, inputs_path: Path, deadline: float) -> list:
    """(calibrated, raw) set-up times of ``count`` set-up-only workers in a row.

    Start probes run before, between and after the workers, and each raw time
    is scaled by REFERENCE_START_S over the mean of the probes on its two sides.
    A process start, unlike a pure-Python loop, slows with the host the way a
    set-up does: calibration by ``worker.probe`` made set-up times spread more.
    """
    probes, out = [start_probe()], []
    for _ in range(count):
        raw = start_worker("setup", args, inputs_path, deadline)[0]
        probes.append(start_probe())
        out.append((raw * REFERENCE_START_S * 2 / (probes[-2] + probes[-1]), raw))
    return out


def run_metadata(args) -> dict:
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        rev = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "trackforms").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_rev": rev, "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "setups": SETUPS,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=[w["name"] for w in DECLARED["workloads"]],
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    deadline = time.monotonic() + RUN_LIMIT_S
    if not (SRC / "trackforms" / "__init__.py").is_file():
        print(f"error: no trackforms sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import gen

    out_dir = ROOT / ".bench_out"
    run_dir = out_dir / f"run-{os.getpid()}"
    results_dir = out_dir / "results"
    run_dir.mkdir(parents=True, exist_ok=True)
    results_dir.mkdir(parents=True, exist_ok=True)
    meta = run_metadata(args)
    try:
        inputs = gen.generate(args.workload, args.seed)
        materialize(args.workload, inputs, run_dir)
        inputs_path = run_dir / "inputs.json"
        inputs_path.write_text(json.dumps(inputs))
        setups = timed_setups(SETUPS // 2, args, inputs_path, deadline)
        mode = "trace" if args.trace else "measure"
        spans_path = out_dir / f"spans-{args.workload}.jsonl.gz" if args.trace else None
        measure_setup, result = start_worker(mode, args, inputs_path, deadline, spans_path)
        setups += timed_setups(SETUPS - SETUPS // 2, args, inputs_path, deadline)
    except (BenchError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    failures = result.pop("failures")
    attempted = result.pop("attempted")
    if args.trace:
        values = result.pop("per_layer")
    else:
        result["setup_s"] = statistics.median(cal for cal, _ in setups)
        result["raw_setup_s"] = statistics.median(raw for _, raw in setups)
        values = result
    metrics = {m["name"]: (values[m["name"]], m["unit"])
               for m in DECLARED["per_layer" if args.trace else "end_to_end"]}
    meta.update(result, setup_samples_s=[cal for cal, _ in setups],
                raw_setup_samples_s=[raw for _, raw in setups],
                measuring_worker_setup_s=measure_setup, attempted=attempted,
                failed=len(failures), failures=failures[:20])
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(meta, indent=2, sort_keys=True))

    for name, (value, unit) in metrics.items():
        print(f"{args.workload:16} {name:40} {value:14.6g} {unit}")
    if args.trace:
        layer_times = {n: v for n, (v, u) in metrics.items()
                       if u == "s" and not n.startswith("trace.")}
        top = max(layer_times, key=layer_times.get)
        print(f"{args.workload:16} largest layer time: {top} ({layer_times[top]:.6g} s per op)")
    else:
        print(f"{args.workload:16} {'fail_frac':40} {len(failures) / attempted:14.6g} ratio"
              f"  ({len(failures)} failed of {attempted})")
        print(f"{args.workload:16} {'op_tail_s':40} {result['op_tail_s']:14.6g} s"
              f"  (p{result['tail_percentile']:.2f} of {result['samples']} samples,"
              f" {result['tail_samples_beyond']} beyond; not gated)")
        print(f"{args.workload:16} {'raw_setup_s':40} {result['raw_setup_s']:14.6g} (wall "
              f"time, not calibrated)")
        if result["calibrated"]:
            for name in ("raw_op_p50_s", "raw_op_tail_s", "raw_ops_per_s"):
                print(f"{args.workload:16} {name:40} {result[name]:14.6g} (wall time, "
                      f"not calibrated)")
    for message in failures[:5]:
        print(f"FAILED {message}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
