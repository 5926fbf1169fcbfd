"""Command-line driver: fixtures, structure verification, representations, Chebyshev.

Exit codes: 0 = success / all checks passed, 1 = a mathematical check failed,
2 = invalid input or usage, or input too large for the machine's memory
(refused up front where it can be foreseen).  All output is JSON with sorted
keys so reruns on identical inputs are byte-identical; a result holding a
NaN or an infinity is not valid JSON and exits 2, and ``rep`` names the
checks whose deviation is not finite.  Randomized checks take an explicit
``--seed`` (default 0) which is recorded in the output.  The tolerance on
the ``verify``/``frobenius`` deviations of ``rep`` is 1e-9, overridable
through the ``TRACKFORMS_TOL`` environment variable with any positive finite
number; the spec's ``h^N = zeta(eta)`` check uses a fixed 1e-9.
"""

from __future__ import annotations

import argparse
import cmath
import contextlib
import functools
import json
import math
import os
import sys

from .algebra import chebyshev_value, omega_candidate, params_from_omega, solve_chebyshev
from .lattice import refuse_past_memory, verify_structure
from .representation import (
    RepresentationSpec,
    build,
    frobenius_compat,
    random_spec,
    symplectic_basis,
    verify,
)
from .traintrack import TrainTrack, from_triangulation
from .triangulation import IdealTriangulation, TriangulationError, standard_triangulation, triangle_count

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2

# ``chebyshev`` evaluates the O(n) recurrence at each of its n solutions, so
# its time is quadratic in n: 1.4 to 1.7 s at n = 4000 on one core.
CHEBYSHEV_MAX_N = 4096


def _emit(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _complex_pair(z: complex) -> list[float]:
    return [z.real, z.imag]


def _load_json(path: str) -> dict:
    with open(path) as fh:
        return _object(json.load(fh), f"the JSON in {path}")


def _object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(value).__name__}")
    return value


def _int(data: dict, key: str, default=None) -> int:
    value = data[key] if default is None else data.get(key, default)
    if type(value) is not int:  # a JSON true or false is a bool, which Python counts as an int
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return value


def _complex(value, what: str) -> complex:
    """A JSON ``[re, im]`` pair of finite numbers as a complex number."""
    if isinstance(value, list) and len(value) == 2 and all(type(x) in (int, float) for x in value):
        with contextlib.suppress(OverflowError):
            z = complex(*value)
            if cmath.isfinite(z):
                return z
    raise ValueError(f"{what} must be a pair [re, im] of finite numbers, got {value!r}")


def _complexes(values, what: str) -> list[complex]:
    if not isinstance(values, list):
        raise ValueError(f"{what} must be a list of [re, im] pairs")
    return [_complex(v, f"{what}[{i}]") for i, v in enumerate(values)]


def _standard_track(g: int, s: int):
    """The track of ``standard_triangulation(g, s)``, refused before it is built when too large.

    A triangulation of F triangles gives a connected track of 3F branches
    and 3F/2 switches, one per edge.
    """
    f = triangle_count(g, s)
    refuse_past_memory(3 * f, 3 * f // 2, 1)
    return from_triangulation(standard_triangulation(g, s))


def cmd_triangulate(args) -> int:
    tri = standard_triangulation(args.genus, args.punctures)
    payload = tri.to_json_dict()
    payload.update({"genus": tri.genus, "punctures": tri.punctures, "edges": tri.edge_count})
    _emit(payload, args.out)
    return EXIT_OK


def cmd_verify_structure(args) -> int:
    if args.input:
        data = _load_json(args.input)
        if "triangles" in data:
            track = from_triangulation(IdealTriangulation.from_json_dict(data))
        elif "branches" in data:
            track = TrainTrack.from_json_dict(data)
        else:
            raise TriangulationError("input JSON is neither a triangulation nor a train track")
    else:
        track = _standard_track(args.genus, args.punctures)
    report = verify_structure(track)
    _emit(report.to_json_dict(), args.out)
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def _rep_spec_from_json(data: dict, seed: int):
    if "triangulation" in data:
        raw = data["triangulation"]
        raw = _load_json(raw) if isinstance(raw, str) else _object(raw, "triangulation")
        track = from_triangulation(IdealTriangulation.from_json_dict(raw))
    else:
        track = _standard_track(_int(data, "genus"), _int(data, "punctures"))
    N = _int(data, "N")
    if "omega" in data:
        params = params_from_omega(N, _complex(data["omega"], "omega"))
    else:
        params = omega_candidate(N, data.get("epsilon"), _int(data, "omega_index", 0))
    if "zeta" not in data:
        return random_spec(track, params, seed=seed)
    z = _object(data["zeta"], "zeta")
    return RepresentationSpec(
        track=track,
        params=params,
        basis=symplectic_basis(track),
        zeta_alphas=_complexes(z["alphas"], "zeta alphas"),
        zeta_betas=_complexes(z["betas"], "zeta betas"),
        zeta_etas=_complexes(z["etas"], "zeta etas"),
        h=_complexes(data["h"], "h"),
    )


def cmd_rep(args) -> int:
    tol = float(os.environ.get("TRACKFORMS_TOL", "1e-9"))
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tolerance must be positive and finite, got {tol}")
    data = _load_json(args.input) if args.input else {
        "genus": args.genus, "punctures": args.punctures, "N": args.N,
    }
    seed = _int(data, "seed", args.seed)
    spec = _rep_spec_from_json(data, seed)
    rep = build(spec)  # validates the spec: RepresentationError, exit 2
    report = verify(rep, tol=tol, seed=seed)
    frob = frobenius_compat(report, tol=tol)
    infinite = [k for r in (report, frob) for k, v in r.deviations.items() if not math.isfinite(v)]
    if infinite:
        raise ValueError(f"non-finite deviation in {', '.join(infinite)}: "
                         "a scalar leaves the range of floats")
    payload = {
        "dim": rep.dim,
        "N": rep.params.N,
        "omega": _complex_pair(rep.params.omega),
        "epsilon": rep.params.epsilon,
        "seed": seed,
        "tolerance": tol,
        "verify": report.to_json_dict(),
        "frobenius": frob.to_json_dict(),
        "pass": report.passed and frob.passed,
    }
    _emit(payload, args.out)
    return EXIT_OK if payload["pass"] else EXIT_CHECK_FAILED


def cmd_chebyshev(args) -> int:
    if not 1 <= args.n <= CHEBYSHEV_MAX_N:
        raise ValueError(f"n must be between 1 and {CHEBYSHEV_MAX_N}, got {args.n}")
    if len(args.y) > 2 or not all(map(math.isfinite, args.y)):
        raise ValueError(f"--y takes one or two finite numbers, got {args.y}")
    y = complex(args.y[0], args.y[1] if len(args.y) > 1 else 0.0)
    solutions = solve_chebyshev(y, args.n)
    residuals = [abs(chebyshev_value(args.n, x) - y) for x in solutions]
    payload = {
        "y": _complex_pair(y),
        "n": args.n,
        "solutions": [_complex_pair(x) for x in solutions],
        "residuals": residuals,
    }
    _emit(payload, args.out)
    return EXIT_OK


@functools.cache
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
    if args.command == "verify-structure" and not args.input and None in (args.genus, args.punctures):
        parser.error("verify-structure needs --input or --genus/--punctures")
    if args.command == "rep" and not args.input and None in (args.genus, args.punctures, args.N):
        parser.error("rep needs --input or --genus/--punctures/--N")
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError) as exc:  # every module's error is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:  # past the up-front estimate, as under an address-space limit
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
