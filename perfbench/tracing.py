"""Span tracing from outside the program, and the per-layer metrics derived from it.

``Tracer.install`` replaces public functions and methods of the ``trackforms``
modules with timing wrappers, at the module attribute where each caller looks
them up (``lattice`` and ``representation`` import ``theta_matrix`` by name,
``algebra`` imports ``theta`` by name, ``cli`` imports ``verify``, ``build``,
...), and ``uninstall`` puts the originals back.  A span is
``(name, start, end, parent, op_id)``; spans stay in memory until the run
ends.  A span's self time is its duration minus that of its child spans.

``theta`` is counted, not timed: it runs thousands of times per operation and
a span around each call would be most of the traced time.  Its cost stays in
the self time of its caller (``theta_matrix``, ``BalancedAlgebra.mul``).
"""

from __future__ import annotations

import functools
import gzip
import json
import time
import tracemalloc
from collections import Counter, defaultdict

import trackforms.algebra as algebra_mod
import trackforms.cli as cli_mod
import trackforms.lattice as lattice_mod
import trackforms.representation as representation_mod
import trackforms.traintrack as traintrack_mod
import trackforms.triangulation as triangulation_mod

PROBE = "trace.probe"

# (span name, owner, attribute)
SPANS = [
    ("cli.main", cli_mod, "main"),
    ("triangulation", triangulation_mod.IdealTriangulation, "__init__"),
    ("triangulation", triangulation_mod.IdealTriangulation, "from_json_dict"),
    ("triangulation", algebra_mod, "sigma_matrix"),
    ("traintrack.track", traintrack_mod.TrainTrack, "__init__"),
    ("traintrack.track", traintrack_mod.TrainTrack, "from_json_dict"),
    ("traintrack.track", traintrack_mod.TriangulationTrack, "__init__"),
    ("traintrack.track", traintrack_mod, "from_triangulation"),
    ("traintrack.track", cli_mod, "from_triangulation"),
    ("traintrack.census", lattice_mod, "regions"),
    ("traintrack.basis", lattice_mod, "weight_lattice_basis"),
    ("traintrack.basis", representation_mod, "weight_lattice_basis"),
    ("traintrack.theta_matrix", lattice_mod, "theta_matrix"),
    ("traintrack.theta_matrix", representation_mod, "theta_matrix"),
    ("lattice.verify_structure", lattice_mod, "verify_structure"),
    ("lattice.verify_structure", cli_mod, "verify_structure"),
    ("lattice.normal_form", lattice_mod, "skew_normal_form"),
    ("lattice.normal_form", representation_mod, "skew_normal_form"),
    ("lattice.certify", lattice_mod, "certify_normal_form"),
    ("lattice.eta_match", lattice_mod, "_combine"),
    ("lattice.eta_match", lattice_mod, "puncture_weight"),
    ("lattice.eta_match", lattice_mod, "lattice_equal"),
    ("algebra.mul", algebra_mod.BalancedAlgebra, "mul"),
    ("algebra.frobenius", algebra_mod, "frobenius"),
    ("algebra.frobenius", representation_mod, "frobenius"),
    ("representation.spec", cli_mod, "random_spec"),
    ("representation.spec", representation_mod, "symplectic_basis"),
    ("representation.spec", representation_mod.RepresentationSpec, "validate"),
    ("representation.build", cli_mod, "build"),
    ("representation.checks", cli_mod, "verify"),
    ("representation.commutant", representation_mod, "commutant_dimension"),
    ("representation.frobenius_compat", cli_mod, "frobenius_compat"),
]

# (counter names, owner, attribute): calls counted, not timed.
COUNTS = [
    (("theta",), traintrack_mod, "theta"),
    (("theta", "theta.algebra"), algebra_mod, "theta"),
    (("theta",), representation_mod, "theta"),
]


def _u_bits(tracer, args, kwargs, nf):
    tracer.maxima["lattice.dim"] = max(tracer.maxima["lattice.dim"], len(nf.U))
    bits = max((abs(x).bit_length() for row in nf.U for x in row), default=0)
    tracer.maxima["lattice.u_max_bits"] = max(tracer.maxima["lattice.u_max_bits"], bits)


def _term_pairs(tracer, args, kwargs, result):
    _, x, y = args
    tracer.counts["algebra.term_pairs"] += len(x.terms) * len(y.terms)


def _rep_dim(tracer, args, kwargs, rep):
    tracer.maxima["representation.dim"] = max(tracer.maxima["representation.dim"], rep.dim)


def _commutant_mb(tracer, args, kwargs, result):
    # The stacked system holds 2m blocks of d^2 x d^2 complex128 entries, and
    # the block list it is stacked from is alive at the same time.
    rep = args[0]
    d, m = rep.dim, len(rep.spec.basis.pairs)
    mb = 2 * (2 * m * d ** 4 * 16) / 2 ** 20
    tracer.maxima["representation.commutant_mb_computed"] = max(
        tracer.maxima["representation.commutant_mb_computed"], mb)


PROBES = {
    "lattice.normal_form": _u_bits,
    "algebra.mul": _term_pairs,
    "representation.build": _rep_dim,
    "representation.commutant": _commutant_mb,
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.op_id = -1
        self.counts: Counter = Counter()
        self.maxima: Counter = Counter()
        self.saved: list = []
        self.malloc_verify = False

    # -- wrappers ---------------------------------------------------------

    def _span(self, name, fn):
        tracer = self
        probe = PROBES.get(name)
        malloc = name == "representation.checks"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans, stack = tracer.spans, tracer.stack
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            tracking = malloc and tracer.malloc_verify
            if tracking:
                tracemalloc.start()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                if tracking:
                    peak = tracemalloc.get_traced_memory()[1] / 2 ** 20
                    tracemalloc.stop()
                    tracer.maxima["representation.verify_traced_peak_mb"] = max(
                        tracer.maxima["representation.verify_traced_peak_mb"], peak)
                stack.pop()
                spans[idx] = (name, start, end, parent, tracer.op_id)
            if probe is not None:
                p0 = time.perf_counter()
                probe(tracer, args, kwargs, result)
                spans.append((PROBE, p0, time.perf_counter(), parent, tracer.op_id))
            return result
        return wrapper

    def _count(self, names, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for n in names:
                counts[n] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _patch(self, owner, attr, make):
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self.saved.append((owner, attr, raw))
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(make(raw.__func__)))
        else:
            setattr(owner, attr, make(raw))

    def install(self) -> None:
        for name, owner, attr in SPANS:
            self._patch(owner, attr, lambda fn, name=name: self._span(name, fn))
        for names, owner, attr in COUNTS:
            self._patch(owner, attr, lambda fn, names=names: self._count(names, fn))

    def uninstall(self) -> None:
        while self.saved:
            owner, attr, raw = self.saved.pop()
            setattr(owner, attr, raw)

    # -- results ----------------------------------------------------------

    def write(self, path) -> None:
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op_id": op}) + "\n")

    def layer_metrics(self, op_walls: dict[int, float]) -> dict[str, float]:
        """Per-operation means of every per-layer metric over the ops in ``op_walls``.

        Spans of other operations (such as the tracemalloc pass) are left out.
        """
        spans = self.spans
        child = defaultdict(float)
        for name, start, end, parent, op in spans:
            if parent >= 0 and op in op_walls:
                child[parent] += end - start
        self_time = Counter()
        outer_calls = Counter()
        root_time = defaultdict(float)
        for idx, (name, start, end, parent, op) in enumerate(spans):
            if op not in op_walls:
                continue
            self_time[name] += end - start - child[idx]
            if parent < 0 or spans[parent][0] != name:
                outer_calls[name] += 1
            if parent < 0:
                root_time[op] += end - start
        ops = max(1, len(op_walls))
        per_op = lambda v: v / ops
        term_pairs = self.counts["algebra.term_pairs"]
        unattributed = sum(max(0.0, wall - root_time[op]) for op, wall in op_walls.items())
        return {
            "triangulation.busy_s": per_op(self_time["triangulation"]),
            "triangulation.calls": per_op(outer_calls["triangulation"]),
            "traintrack.track_s": per_op(self_time["traintrack.track"]),
            "traintrack.census_s": per_op(self_time["traintrack.census"]),
            "traintrack.basis_s": per_op(self_time["traintrack.basis"]),
            "traintrack.theta_matrix_s": per_op(self_time["traintrack.theta_matrix"]),
            "traintrack.theta_calls": per_op(self.counts["theta"]),
            "lattice.normal_form_s": per_op(self_time["lattice.normal_form"]),
            "lattice.certify_s": per_op(self_time["lattice.certify"]),
            "lattice.eta_match_s": per_op(self_time["lattice.eta_match"]),
            "lattice.verify_structure_self_s": per_op(self_time["lattice.verify_structure"]),
            "lattice.dim": self.maxima["lattice.dim"],
            "lattice.u_max_bits": self.maxima["lattice.u_max_bits"],
            "algebra.mul_s": per_op(self_time["algebra.mul"]),
            "algebra.mul_calls": per_op(outer_calls["algebra.mul"]),
            "algebra.term_pairs": per_op(term_pairs),
            "algebra.theta_miss_ratio": (self.counts["theta.algebra"] / term_pairs
                                         if term_pairs else 0.0),
            "algebra.frobenius_s": per_op(self_time["algebra.frobenius"]),
            "representation.spec_s": per_op(self_time["representation.spec"]),
            "representation.build_s": per_op(self_time["representation.build"]),
            "representation.checks_s": per_op(self_time["representation.checks"]),
            "representation.commutant_s": per_op(self_time["representation.commutant"]),
            "representation.frobenius_compat_s": per_op(
                self_time["representation.frobenius_compat"]),
            "representation.dim": self.maxima["representation.dim"],
            "representation.commutant_mb_computed": self.maxima[
                "representation.commutant_mb_computed"],
            "representation.verify_traced_peak_mb": self.maxima[
                "representation.verify_traced_peak_mb"],
            "cli.self_s": per_op(self_time["cli.main"]),
            "trace.unattributed_s": per_op(unattributed),
        }
