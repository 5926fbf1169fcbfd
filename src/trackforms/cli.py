"""Command-line driver: fixtures, structure verification, representations, Chebyshev.

Exit codes: 0 = success / all checks passed, 1 = a mathematical check failed,
2 = invalid input or usage.  All output is JSON with sorted keys so reruns on
identical inputs are byte-identical; randomized checks take an explicit
``--seed`` (default 0) which is recorded in the output.  The tolerance for
numeric checks is 1e-9, overridable through the ``TRACKFORMS_TOL``
environment variable with any positive finite number.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass

from .algebra import BalancedAlgebra, chebyshev_value, omega_candidates, params_from_omega, solve_chebyshev
from .lattice import verify_structure
from .representation import (
    RepresentationError,
    RepresentationSpec,
    build,
    frobenius_compat,
    random_spec,
    symplectic_basis,
    verify,
)
from .traintrack import TrackError, TrainTrack, from_triangulation
from .triangulation import IdealTriangulation, TriangulationError, standard_triangulation

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2


@dataclass
class RunConfig:
    seed: int = 0
    tolerance: float = 1e-9
    out: str | None = None

    @classmethod
    def from_args(cls, args) -> "RunConfig":
        tol = float(os.environ.get("TRACKFORMS_TOL", "1e-9"))
        if not (math.isfinite(tol) and tol > 0):
            raise ValueError(f"tolerance must be positive and finite, got {tol}")
        return cls(seed=getattr(args, "seed", 0), tolerance=tol, out=getattr(args, "out", None))


def _emit(payload: dict, config: RunConfig) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if config.out:
        with open(config.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _complex_pair(z: complex) -> list[float]:
    return [z.real, z.imag]


def _load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def cmd_triangulate(args) -> int:
    config = RunConfig.from_args(args)
    tri = standard_triangulation(args.genus, args.punctures)
    payload = tri.to_json_dict()
    payload.update({"genus": tri.genus, "punctures": tri.punctures, "edges": tri.edge_count})
    _emit(payload, config)
    return EXIT_OK


def cmd_verify_structure(args) -> int:
    config = RunConfig.from_args(args)
    if args.input:
        data = _load_json(args.input)
        if "triangles" in data:
            track = from_triangulation(IdealTriangulation.from_json_dict(data))
        elif "branches" in data:
            track = TrainTrack.from_json_dict(data)
        else:
            raise TriangulationError("input JSON is neither a triangulation nor a train track")
    else:
        track = from_triangulation(standard_triangulation(args.genus, args.punctures))
    report = verify_structure(track)
    _emit(report.to_json_dict(), config)
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def _rep_spec_from_json(data: dict, seed: int):
    if "triangulation" in data:
        raw = data["triangulation"]
        tri = IdealTriangulation.from_json_dict(raw if isinstance(raw, dict) else _load_json(raw))
    else:
        tri = standard_triangulation(data["genus"], data["punctures"])
    track = from_triangulation(tri)
    N = data["N"]
    if "omega" in data:
        om = data["omega"]
        params = params_from_omega(N, complex(om[0], om[1]))
    else:
        epsilon = data.get("epsilon")
        candidates = omega_candidates(N, epsilon)
        params = candidates[data.get("omega_index", 0) % len(candidates)]
    algebra = BalancedAlgebra(track, params)
    if "zeta" not in data:
        return random_spec(algebra, seed=seed)
    z = data["zeta"]
    to_c = lambda pair: complex(pair[0], pair[1])
    spec = RepresentationSpec(
        algebra=algebra,
        basis=symplectic_basis(track),
        zeta_alphas=[to_c(v) for v in z["alphas"]],
        zeta_betas=[to_c(v) for v in z["betas"]],
        zeta_etas=[to_c(v) for v in z["etas"]],
        h=[to_c(v) for v in data["h"]],
    )
    return spec


def cmd_rep(args) -> int:
    config = RunConfig.from_args(args)
    data = _load_json(args.input) if args.input else {
        "genus": args.genus, "punctures": args.punctures, "N": args.N,
    }
    seed = data.get("seed", config.seed)
    spec = _rep_spec_from_json(data, seed)
    spec.validate()  # h_k^N = zeta(eta_k) and pairing sanity; exit 2 on failure
    rep = build(spec)
    report = verify(rep, tol=config.tolerance, seed=seed)
    frob = frobenius_compat(rep, tol=config.tolerance, seed=seed)
    payload = {
        "dim": rep.dim,
        "N": rep.params.N,
        "omega": _complex_pair(rep.params.omega),
        "epsilon": rep.params.epsilon,
        "seed": seed,
        "tolerance": config.tolerance,
        "verify": report.to_json_dict(),
        "frobenius": frob.to_json_dict(),
        "pass": report.passed and frob.passed,
    }
    _emit(payload, config)
    return EXIT_OK if payload["pass"] else EXIT_CHECK_FAILED


def cmd_chebyshev(args) -> int:
    config = RunConfig.from_args(args)
    if args.n < 1:
        raise ValueError("n must be at least 1")
    y = complex(args.y[0], args.y[1] if len(args.y) > 1 else 0.0)
    solutions = solve_chebyshev(y, args.n)
    residuals = [abs(chebyshev_value(args.n, x) - y) for x in solutions]
    payload = {
        "y": _complex_pair(y),
        "n": args.n,
        "solutions": [_complex_pair(x) for x in solutions],
        "residuals": residuals,
    }
    _emit(payload, config)
    return EXIT_OK


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="trackforms", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("triangulate", help="write the standard triangulation for (genus, punctures)")
    p.add_argument("--genus", "-g", type=int, required=True)
    p.add_argument("--punctures", "-s", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_triangulate)

    p = sub.add_parser("verify-structure", help="census + normal form + block prediction")
    p.add_argument("--input", default=None, help="triangulation or train-track JSON file")
    p.add_argument("--genus", "-g", type=int, default=None)
    p.add_argument("--punctures", "-s", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_verify_structure)

    p = sub.add_parser("rep", help="build and verify a representation")
    p.add_argument("--input", default=None, help="representation spec JSON file")
    p.add_argument("--genus", "-g", type=int, default=None)
    p.add_argument("--punctures", "-s", type=int, default=None)
    p.add_argument("--N", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_rep)

    p = sub.add_parser("chebyshev", help="solve T_n(x) = y")
    p.add_argument("--y", type=float, nargs="+", required=True, help="real part [imaginary part]")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_chebyshev)
    return parser


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if args.command == "verify-structure" and not args.input and args.genus is None:
        parser.error("verify-structure needs --input or --genus/--punctures")
    if args.command == "rep" and not args.input and (args.genus is None or args.N is None):
        parser.error("rep needs --input or --genus/--punctures/--N")
    try:
        return args.func(args)
    except (TriangulationError, TrackError, RepresentationError, ValueError,
            KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
