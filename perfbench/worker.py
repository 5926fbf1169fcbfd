"""One benchmark process: set up a workload, then run it in a closed loop.

``run.py`` starts this in a fresh interpreter with the checkout's ``src`` on
``PYTHONPATH``.  It prints ``READY`` as soon as set-up (imports, input
loading, warm-up) is done, and ``run.py`` times set-up up to that line.  In
mode ``setup`` it then exits.  In mode ``measure`` it runs the workload for
``--seconds`` and prints one JSON line of results.  In mode ``trace`` it runs
blocks of operations untraced and then the same operations traced, and prints
the per-layer metrics.

The loop is closed: one caller, and the next operation starts only when the
previous one has returned.  Each output is checked right after its operation,
outside the timed window.
"""

from __future__ import annotations

import argparse
import array
import ctypes
import json
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

# Traced runs keep at most this many operations' spans in memory.
MAX_TRACED_OPS = 20000
# Seconds of untraced operations in one block of a traced run.
TRACE_BLOCK_S = 0.5
# Tail percentile: the highest one with at least this many samples beyond it.
TAIL_BEYOND = 10
# Seconds of operations between two speed probes.
PROBE_EVERY_S = 0.25
# Probe time on an uncontended vCPU of the reference host (Intel Xeon, KVM,
# 2 vCPUs, CPython 3.11).  Calibrated times are wall times scaled to it.
REFERENCE_PROBE_S = 0.78e-3


def probe() -> float:
    """Wall time of a fixed pure-Python loop (best of two): how fast the host runs now."""
    best = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        d = {}
        for i in range(5000):
            d[i % 977] = d.get(i % 977, 0) + i * i
        best = min(best, time.perf_counter() - t0)
    return best


def calibrated(loop: dict) -> list[float]:
    """Operation times scaled to a host running the probe in REFERENCE_PROBE_S.

    Operation i is scaled by REFERENCE_PROBE_S over the mean of the probes
    taken just before and just after it.
    """
    probes = loop["probes"]
    out = []
    k = 0
    for i, t in enumerate(loop["latencies"]):
        while k + 1 < len(probes) and probes[k + 1][0] <= i:
            k += 1
        after = probes[min(k + 1, len(probes) - 1)][1]
        out.append(t * REFERENCE_PROBE_S * 2 / (probes[k][1] + after))
    return out


def closed_loop(workload, seconds=None, max_ops=None, tracer=None, first=0) -> dict:
    """Run operations first, first+1, ... for ``seconds`` of timed window or ``max_ops`` ops.

    Output checks and speed probes run between operations and are left out
    of the timed window.  ``probes`` lists (ops done so far, probe seconds).
    With a tracer, operation i's spans carry the id i.
    """
    # 8 bytes an operation: a faster program runs more operations, and a list
    # of floats (32 bytes each) would add several MB to its peak RSS.
    latencies = array.array("d")
    failures: list[str] = []
    probes = [(0, probe())]
    excluded = 0.0
    start = now = last_probe = time.perf_counter()
    i = 0
    while (i < max_ops) if max_ops is not None else (now - start - excluded < seconds):
        op = first + i
        if tracer is not None:
            tracer.op_id = op
        t0 = time.perf_counter()
        try:
            out, err = workload.run(op), None
        except Exception as exc:  # a raising operation is a failed one, not a crash
            out, err = None, f"op {op}: {type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        latencies.append(t1 - t0)
        if err is None:
            try:
                err = workload.check(op, out)
            except (ValueError, KeyError, TypeError) as exc:
                err = f"op {op}: {type(exc).__name__}: {exc}"
        del out
        if err is not None:
            failures.append(err)
        i += 1
        if t1 - last_probe > PROBE_EVERY_S:
            probes.append((i, probe()))
            last_probe = t1
        now = time.perf_counter()
        excluded += now - t1
    probes.append((i, probe()))
    return {"latencies": latencies, "failures": failures, "probes": probes,
            "window_s": now - start - excluded}


def _tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) of the highest percentile with
    at least TAIL_BEYOND samples beyond it, or of the maximum if there are too few."""
    ordered = sorted(values)
    n = len(ordered)
    index = n - TAIL_BEYOND - 1 if n > TAIL_BEYOND else n - 1
    return ordered[index], 100.0 * (index + 1) / n, n - 1 - index


def summarize(loop: dict, calibrate: bool) -> dict:
    """End-to-end metrics of one closed loop (peak RSS is added by the caller).

    With ``calibrate`` the reported figures use calibrated operation times;
    the raw_ ones are always the wall times as they came.
    """
    raw = loop["latencies"]
    cal = calibrated(loop) if calibrate else raw
    n = len(raw)
    ok = n - len(loop["failures"])
    tail, tail_pct, beyond = _tail(cal)
    probes = [p for _, p in loop["probes"]]
    return {
        "calibrated": calibrate,
        "op_p50_s": statistics.median(cal),
        "op_tail_s": tail,
        "ops_per_s": ok / (loop["window_s"] * sum(cal) / sum(raw)),
        "raw_op_p50_s": statistics.median(raw),
        "raw_op_tail_s": _tail(raw)[0],
        "raw_ops_per_s": ok / loop["window_s"],
        "tail_percentile": tail_pct,
        "tail_samples_beyond": beyond,
        "samples": n,
        "probe_median_s": statistics.median(probes),
        "probe_min_s": min(probes),
        "probes": len(probes),
    }


def traced_run(cls, inputs: dict, seconds: float, spans_path) -> dict:
    """Per-layer metrics from blocks of operations run untraced, then traced.

    Each block runs about TRACE_BLOCK_S of operations untraced on one
    workload instance, then the same operations traced on a second one, so
    both see the same host state and ``trace.overhead_frac`` compares like
    with like.  Untraced time adds up to half of ``seconds``.
    """
    from tracing import Tracer

    plain, traced = cls(inputs), cls(inputs)
    tracer = Tracer()
    walls, failures = {}, []
    untraced_s = traced_s = 0.0
    op = 0
    while untraced_s < seconds / 2 and op < MAX_TRACED_OPS:
        block = closed_loop(plain, seconds=TRACE_BLOCK_S, first=op)
        count = min(len(block["latencies"]), MAX_TRACED_OPS - op)
        tracer.install()
        try:
            again = closed_loop(traced, max_ops=count, tracer=tracer, first=op)
        finally:
            tracer.uninstall()
        untraced_s += sum(block["latencies"][:count])
        traced_s += sum(again["latencies"])
        walls.update(enumerate(again["latencies"], start=op))
        failures += block["failures"] + again["failures"]
        op += count
    metrics = tracer.layer_metrics(walls)
    metrics["trace.overhead_frac"] = traced_s / untraced_s - 1
    if metrics["representation.dim"]:
        # Peak traced memory of verify, in a pass of its own (one operation
        # per rep cell) since tracemalloc slows every allocation.
        tracer.malloc_verify = True
        tracer.install()
        try:
            closed_loop(cls(inputs), max_ops=3, tracer=tracer, first=op)
        finally:
            tracer.uninstall()
        metrics["representation.verify_traced_peak_mb"] = tracer.maxima[
            "representation.verify_traced_peak_mb"]
    if spans_path:
        tracer.write(spans_path)
    return {"per_layer": metrics, "traced_ops": op, "attempted": 2 * op,
            "failures": failures}


def blas_info() -> dict:
    """OpenBLAS build string and thread count of this process, if OpenBLAS is loaded."""
    import numpy as np

    info = {"numpy": np.__version__}
    try:
        info["blas_version"] = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (TypeError, KeyError):
        pass
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for suffix in ("", "64_"):
            for prefix in ("openblas", "scipy_openblas"):
                get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if get_threads is not None and get_config is not None:
                    get_threads.restype = ctypes.c_int
                    get_config.restype = ctypes.c_char_p
                    info["blas_threads"] = get_threads()
                    info["blas_config"] = get_config().decode()
                    return info
    return info


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--spans", default=None, help="gzip JSONL file for the traced spans")
    args = parser.parse_args()

    import workloads

    inputs = json.loads(Path(args.inputs).read_text())
    cls = workloads.WORKLOADS[args.workload]
    workload = cls(inputs)
    workload.warm_up(inputs)
    print("READY", flush=True)
    if args.mode == "setup":
        return 0

    result = {"python": platform.python_version(), **blas_info()}
    if args.mode == "measure":
        loop = closed_loop(workload, seconds=args.seconds)
        # Read before summarizing: its copies of the operation times are the
        # benchmark's memory, and their size grows with the number of operations.
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result.update(summarize(loop, cls.CALIBRATE))
        result["attempted"] = len(loop["latencies"])
        result["failures"] = loop["failures"]
    else:
        result.update(traced_run(cls, inputs, args.seconds, args.spans))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
