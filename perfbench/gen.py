"""Seeded input generators for the benchmark workloads.

Everything a workload feeds the program is made here from the run's seed, so
one seed always gives the same bytes.  The generators deliberately do not use
``trackforms.fixtures`` or ``standard_triangulation``: a later change to those
must not change a workload.  The program is only called to check a generated
input (a flip result must build as an ``IdealTriangulation`` of the same
surface) and, for the algebra pools, to read the weight lattice basis, which
is canonical (Hermite normal form) and so fixed by the surface alone.

Triangulations are JSON dicts in the program's format:
``{"triangles": T, "gluings": [[[t, k], [t', k']], ...]}`` with sides 0, 1, 2
counterclockwise and gluings listed in canonical order.
"""

from __future__ import annotations

import json
import random

# The (g, s) cells of the repository's test grid.
GRID = [(0, 3), (0, 4), (0, 5), (1, 1), (1, 2), (2, 1)]

# structure_large: two standard cells and one flip-randomized one.
STRUCTURE_CELLS = [(16, 4), (0, 30)]
FLIP_CELL = (16, 4)
FLIP_COUNT = 1000

# rep_dense: (g, s, N) with dimension N**(3g+s-3) of 25 or 27.
REP_CELLS = [(1, 2, 5), (0, 6, 3), (1, 3, 3)]
REP_SPECS_PER_CELL = 20

# algebra_laws: the surface and the (N, epsilon) pairs.
ALGEBRA_CELL = (2, 2)
ALGEBRA_PARAMS = [(5, -1), (3, 1)]
ALGEBRA_POOL_SIZE = 64
ALGEBRA_TERMS = 6

SURVEY_TRACKS = 2000
SURVEY_MAX_BRANCHES = 7


def canonical(triangles: int, pairs) -> dict:
    """Triangulation JSON with each pair and the pair list in sorted order."""
    norm = sorted(sorted([list(a), list(b)]) for a, b in pairs)
    return {"triangles": triangles, "gluings": norm}


def _fan(polygon: int, side_pairs) -> dict:
    # Fan-triangulate a polygon with `polygon` sides from vertex 0 and glue
    # the listed pairs of boundary sides (orientation reversing).
    gluings = [((j, 2), (j + 1, 0)) for j in range(polygon - 3)]

    def boundary(k: int):
        if k == 0:
            return (0, 0)
        if k <= polygon - 2:
            return (k - 1, 1)
        return (polygon - 3, 2)

    gluings += [(boundary(a), boundary(b)) for a, b in side_pairs]
    return canonical(polygon - 2, gluings)


def fan_triangulation(g: int, s: int) -> dict:
    """The fan triangulation of the genus-g surface with s punctures.

    Genus 0 doubles a fan-triangulated s-gon; positive genus fans a
    (4g+2s-2)-gon with boundary word a1 b1 a1' b1' ... c1 c1' ... .
    """
    if g < 0 or s < 1 or 2 - 2 * g - s >= 0:
        raise ValueError(f"(g, s) = ({g}, {s}) admits no ideal triangulation")
    if g == 0:
        top, bot = (lambda j: j), (lambda j: s - 2 + j)
        gluings = []
        for j in range(s - 3):
            gluings += [((top(j), 2), (top(j + 1), 0)), ((bot(j), 0), (bot(j + 1), 2))]
        for k in range(s):
            if k == 0:
                a, b = (top(0), 0), (bot(0), 2)
            elif k <= s - 2:
                a, b = (top(k - 1), 1), (bot(k - 1), 1)
            else:
                a, b = (top(s - 3), 2), (bot(s - 3), 0)
            gluings.append((a, b))
        return canonical(2 * (s - 2), gluings)
    pairs = []
    for i in range(g):
        pairs += [(4 * i, 4 * i + 2), (4 * i + 1, 4 * i + 3)]
    for j in range(s - 1):
        pairs.append((4 * g + 2 * j, 4 * g + 2 * j + 1))
    return _fan(4 * g + 2 * s - 2, pairs)


class FlipError(ValueError):
    """The edge cannot be flipped: both of its sides lie on one triangle."""


def flip(tri: dict, edge: int) -> dict:
    """Diagonal exchange of edge ``edge`` (an index into ``tri["gluings"]``).

    The two triangles on either side of the edge form a quadrilateral
    a0 -> d -> a1 -> c (counterclockwise), where a0 -> a1 is the edge seen
    from the first triangle, c is that triangle's far vertex and d the other
    triangle's.  They are replaced by (c, a0, d) and (d, a1, c), glued along
    the new diagonal d - c.  An edge with both sides on one triangle (the
    inside of a self-folded triangle) has no quadrilateral and is rejected.
    """
    pairs = tri["gluings"]
    (t1, k1), (t2, k2) = pairs[edge]
    if t1 == t2:
        raise FlipError(f"edge {edge} has both sides on triangle {t1}")
    # Old outer sides of the quadrilateral -> their slots in the new triangles.
    remap = {
        (t1, (k1 + 2) % 3): (t1, 0),   # c -> a0
        (t2, (k2 + 1) % 3): (t1, 1),   # a0 -> d
        (t2, (k2 + 2) % 3): (t2, 0),   # d -> a1
        (t1, (k1 + 1) % 3): (t2, 1),   # a1 -> c
    }
    out = [((t1, 2), (t2, 2))]
    for i, (a, b) in enumerate(pairs):
        if i != edge:
            a, b = tuple(a), tuple(b)
            out.append((remap.get(a, a), remap.get(b, b)))
    return canonical(tri["triangles"], out)


def random_flips(tri: dict, flips: int, rng: random.Random, check) -> dict:
    """Apply ``flips`` flips at edges drawn from ``rng``; redraw unflippable edges.

    ``check(tri)`` is called on every result and must raise if it is not a
    triangulation of the same surface.
    """
    done = 0
    while done < flips:
        try:
            tri = flip(tri, rng.randrange(len(tri["gluings"])))
        except FlipError:
            continue
        check(tri)
        done += 1
    return tri


def same_surface_check(g: int, s: int):
    """A ``check`` for ``random_flips``: the result builds with the same (g, s)."""
    from trackforms.triangulation import IdealTriangulation

    def check(tri: dict) -> None:
        built = IdealTriangulation.from_json_dict(tri)
        if (built.genus, built.punctures) != (g, s):
            raise AssertionError(f"flip changed the surface: ({g}, {s}) -> "
                                 f"({built.genus}, {built.punctures})")
    return check


def ribbon_track(rng: random.Random) -> dict | None:
    """A random connected abstract train track as JSON, or None for an unusable draw.

    Up to ``SURVEY_MAX_BRANCHES`` branches; darts are shuffled, every switch
    side gets one, and the rest are scattered.
    """
    branches = rng.randint(1, SURVEY_MAX_BRANCHES)
    switches = rng.randint(1, branches)
    darts = [[b, e] for b in range(branches) for e in (0, 1)]
    rng.shuffle(darts)
    bins: list[list] = [[] for _ in range(2 * switches)]
    for i, d in enumerate(darts[: len(bins)]):
        bins[i].append(d)
    for d in darts[len(bins):]:
        bins[rng.randrange(len(bins))].append(d)
    # connectivity over switches: each branch joins the switches of its two ends
    parent = list(range(switches))

    def find(x):
        while parent[x] != x:
            x = parent[x] = parent[parent[x]]
        return x

    where = {tuple(d): i // 2 for i, side in enumerate(bins) for d in side}
    for b in range(branches):
        parent[find(where[(b, 0)])] = find(where[(b, 1)])
    if len({find(x) for x in range(switches)}) != 1:
        return None
    return {"branches": branches,
            "switches": [{"side_a": bins[2 * i], "side_b": bins[2 * i + 1]}
                         for i in range(switches)]}


# --- per-workload inputs ----------------------------------------------------

def structure_inputs(seed: int) -> list[dict]:
    """The three structure_large inputs: (16,4), (0,30) and a flipped (16,4)."""
    items = [{"g": g, "s": s, "label": f"standard({g},{s})", "tri": fan_triangulation(g, s)}
             for g, s in STRUCTURE_CELLS]
    g, s = FLIP_CELL
    rng = random.Random(f"structure_large/{seed}")
    tri = random_flips(fan_triangulation(g, s), FLIP_COUNT, rng, same_surface_check(g, s))
    items.append({"g": g, "s": s, "label": f"flipped({g},{s})x{FLIP_COUNT}", "tri": tri})
    return items


def survey_inputs(seed: int) -> list[dict]:
    """Ribbon tracks with the grid triangulations mixed in, one per 100 items."""
    rng = random.Random(f"survey_small/{seed}")
    tracks = []
    while len(tracks) < SURVEY_TRACKS:
        t = ribbon_track(rng)
        if t is not None:
            tracks.append({"kind": "track", "data": t})
    grid = [{"kind": "triangulation", "g": g, "s": s, "data": fan_triangulation(g, s)}
            for g, s in GRID]
    out = []
    for i, item in enumerate(tracks):
        if i % 100 == 0:
            out.append(grid[(i // 100) % len(grid)])
        out.append(item)
    return out


def rep_inputs(seed: int) -> list[dict]:
    """Rep specs rotating over REP_CELLS, each with its own seeded randomness."""
    rng = random.Random(f"rep_dense/{seed}")
    out = []
    for _ in range(REP_SPECS_PER_CELL):
        for g, s, N in REP_CELLS:
            out.append({"g": g, "s": s, "N": N,
                        "spec": {"triangulation": fan_triangulation(g, s), "N": N,
                                 "seed": rng.randrange(2 ** 31)}})
    return out


def algebra_inputs(seed: int, basis) -> dict:
    """Element pools for algebra_laws, as lattice coefficients and phase terms.

    ``basis`` is the weight lattice basis of the ALGEBRA_CELL track.  Each
    element has ALGEBRA_TERMS terms; a term is (weights, {exponent: coeff}).
    Pools are drawn per (N, epsilon) for the algebra itself and for its
    commutative degeneration (N = 1, phase order 4), which feeds Frobenius.
    """
    rng = random.Random(f"algebra_laws/{seed}")

    def element(order: int) -> list:
        terms = {}
        while len(terms) < ALGEBRA_TERMS:
            coeffs = [rng.randint(-2, 2) for _ in basis]
            w = [sum(c * v[i] for c, v in zip(coeffs, basis)) for i in range(len(basis[0]))]
            phase = {}
            for _ in range(rng.randint(1, 2)):
                phase[rng.randrange(order)] = rng.choice([-3, -2, -1, 1, 2, 3])
            terms[tuple(w)] = sorted(phase.items())
        return [[list(w), p] for w, p in sorted(terms.items())]

    pools = []
    for N, epsilon in ALGEBRA_PARAMS:
        pools.append({"N": N, "epsilon": epsilon,
                      "pool": [element(4 * N) for _ in range(ALGEBRA_POOL_SIZE)],
                      "iota_pool": [element(4) for _ in range(ALGEBRA_POOL_SIZE)]})
    draws = [[rng.randrange(ALGEBRA_POOL_SIZE) for _ in range(5)] for _ in range(4096)]
    return {"cell": list(ALGEBRA_CELL), "tri": fan_triangulation(*ALGEBRA_CELL),
            "params": pools, "draws": draws}


def generate(workload: str, seed: int) -> dict:
    """All inputs of one workload as a JSON-ready dict."""
    if workload == "structure_large":
        return {"items": structure_inputs(seed)}
    if workload == "survey_small":
        return {"items": survey_inputs(seed)}
    if workload == "rep_dense":
        return {"items": rep_inputs(seed)}
    if workload == "algebra_laws":
        from trackforms import from_triangulation, weight_lattice_basis
        from trackforms.triangulation import IdealTriangulation

        track = from_triangulation(IdealTriangulation.from_json_dict(
            fan_triangulation(*ALGEBRA_CELL)))
        return algebra_inputs(seed, weight_lattice_basis(track))
    raise ValueError(f"unknown workload {workload!r}")


def dumps(inputs: dict) -> bytes:
    """The canonical byte form of a workload's inputs."""
    return json.dumps(inputs, sort_keys=True, separators=(",", ":")).encode()
