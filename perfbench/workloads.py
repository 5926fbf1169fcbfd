"""The four workloads: set-up (load + warm-up), one operation, and its output check.

Every operation is a call into the program through a module attribute
(``cli.main``, ``lattice.verify_structure``, ``BalancedAlgebra.mul``, ...),
looked up at call time, so the traced run can wrap those attributes.
``run(i)`` does the i-th operation and returns its raw output; ``check(i, out)``
returns None when the output is correct and an error message otherwise; it
may also raise ValueError, KeyError or TypeError on a malformed output.  The
benchmark calls ``check`` outside the timed window.

``CALIBRATE`` says whether a workload reports calibrated operation times
(see ``worker.calibrated``) or raw wall times.  It is on where calibration
made the figures steadier across seeds on a shared host, and off where it did
not; README.md gives the measured spreads.
"""

from __future__ import annotations

import contextlib
import io
import json

import trackforms.algebra as algebra_mod
import trackforms.cli as cli_mod
import trackforms.lattice as lattice_mod
import trackforms.traintrack as traintrack_mod
import trackforms.triangulation as triangulation_mod


def _cli(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli_mod.main(argv)
    return rc, out.getvalue() or err.getvalue()


def _cli_payload(out) -> dict:
    rc, text = out
    if rc != 0:
        raise ValueError(f"exit code {rc}: {text.strip()[:200]}")
    return json.loads(text)


class StructureLarge:
    """``trackforms verify-structure --input F`` on three large triangulations."""

    CALIBRATE = True

    def __init__(self, inputs: dict):
        self.items = inputs["items"]

    def warm_up(self, inputs: dict) -> None:
        _cli(["verify-structure", "--input", inputs["warm_up"]])

    def run(self, i: int):
        return _cli(["verify-structure", "--input", self.items[i % len(self.items)]["path"]])

    def check(self, i, out):
        item = self.items[i % len(self.items)]
        g, s = item["g"], item["s"]
        p = _cli_payload(out)
        expected = sorted([1] * g + [2] * (2 * g + s - 3))
        if p["pass"] is not True:
            return f"op {i} ({item['label']}): pass is {p['pass']}"
        if p["computed_blocks"] != expected:
            return f"op {i} ({item['label']}): blocks {p['computed_blocks']}"
        if p["nullity"] != s:
            return f"op {i} ({item['label']}): nullity {p['nullity']} != {s}"
        if p.get("eta_kernel_match") is not True:
            return f"op {i} ({item['label']}): eta kernel mismatch"
        return None


class SurveySmall:
    """from_json_dict + verify_structure + to_json_dict on tiny tracks and grid cells."""

    CALIBRATE = True

    def __init__(self, inputs: dict):
        self.items = inputs["items"]

    def warm_up(self, inputs: dict) -> None:
        for i in range(200):
            self.run(i)

    def run(self, i: int):
        item = self.items[i % len(self.items)]
        if item["kind"] == "track":
            track = traintrack_mod.TrainTrack.from_json_dict(item["data"])
        else:
            tri = triangulation_mod.IdealTriangulation.from_json_dict(item["data"])
            track = traintrack_mod.from_triangulation(tri)
        return lattice_mod.verify_structure(track).to_json_dict()

    def check(self, i, out):
        if out["pass"] is not True:
            return f"op {i}: report did not pass: {json.dumps(out, sort_keys=True)}"
        return None


class RepDense:
    """``trackforms rep --input F`` rotating over dimension-25/27 cells."""

    CALIBRATE = False

    def __init__(self, inputs: dict):
        self.items = inputs["items"]

    def warm_up(self, inputs: dict) -> None:
        _cli(["rep", "--input", inputs["warm_up"]])

    def run(self, i: int):
        return _cli(["rep", "--input", self.items[i % len(self.items)]["path"]])

    def check(self, i, out):
        item = self.items[i % len(self.items)]
        g, s, N = item["g"], item["s"], item["N"]
        p = _cli_payload(out)
        label = f"({g},{s},{N})"
        if p["pass"] is not True:
            return f"op {i} {label}: pass is {p['pass']}"
        if p["verify"].get("commutant_dim") != 1:
            return f"op {i} {label}: commutant_dim {p['verify'].get('commutant_dim')}"
        if p["dim"] != N ** (3 * g + s - 3):
            return f"op {i} {label}: dim {p['dim']}"
        return None


class AlgebraLaws:
    """Associativity and Frobenius multiplicativity on long-lived (2,2) algebras.

    The algebras (and so their theta caches) live for SESSION_OPS operations,
    then are replaced: peak memory then reflects the cache after a fixed
    number of operations, not the length of the run.
    """

    CALIBRATE = True

    SESSION_OPS = 300

    def __init__(self, inputs: dict):
        tri = triangulation_mod.IdealTriangulation.from_json_dict(inputs["tri"])
        self.track = traintrack_mod.from_triangulation(tri)
        self.params = []
        self.pools = []
        for entry in inputs["params"]:
            params = algebra_mod.omega_candidates(entry["N"], entry["epsilon"])[0]
            alg, iota = self._algebras(params)
            self.params.append(params)
            self.pools.append((self._elements(alg, entry["pool"]),
                               self._elements(iota, entry["iota_pool"])))
        self.draws = inputs["draws"]
        self.session = None
        self.algebras = []

    def _algebras(self, params):
        return (algebra_mod.BalancedAlgebra(self.track, params),
                algebra_mod.BalancedAlgebra(self.track, params.iota_params()))

    @staticmethod
    def _elements(alg, pool):
        p = alg.params
        return [alg.element_from_json_dict(
            {"N": p.N, "root_exponent": p.root_exponent,
             "terms": [{"weights": w, "coeff": c} for w, c in terms]})
            for terms in pool]

    def warm_up(self, inputs: dict) -> None:
        saved = self.session
        self.session = -1
        self.algebras = [self._algebras(p) for p in self.params]
        for i in range(4):
            self._op(i, len(self.draws) - 1 - i)
        self.session = saved

    def run(self, i: int):
        session = i // self.SESSION_OPS
        if session != self.session:
            self.session = session
            self.algebras = [self._algebras(p) for p in self.params]
        return self._op(i, (i // 2) % len(self.draws))

    def _op(self, i: int, draw: int):
        k = i % len(self.params)
        alg, iota = self.algebras[k]
        pool, iota_pool = self.pools[k]
        a, b, c, d, e = self.draws[draw]
        x, y, z = pool[a], pool[b], pool[c]
        u, v = iota_pool[d], iota_pool[e]
        lhs = alg.mul(alg.mul(x, y), z)
        rhs = alg.mul(x, alg.mul(y, z))
        lifted = algebra_mod.frobenius(iota.mul(u, v), alg)
        product = alg.mul(algebra_mod.frobenius(u, alg), algebra_mod.frobenius(v, alg))
        return lhs, rhs, lifted, product

    def check(self, i, out):
        lhs, rhs, lifted, product = out
        if lhs != rhs:
            return f"op {i}: (xy)z != x(yz)"
        if lifted != product:
            return f"op {i}: F(uv) != F(u)F(v)"
        return None


WORKLOADS = {
    "structure_large": StructureLarge,
    "survey_small": SurveySmall,
    "rep_dense": RepDense,
    "algebra_laws": AlgebraLaws,
}
