"""Ideal triangulations of punctured surfaces.

A triangulation is encoded combinatorially: ``triangle_count`` oriented
triangles whose sides are indexed 0, 1, 2 counterclockwise, together with a
fixed-point-free involution on the side slots ``(triangle, side)`` pairing
each side with the side it is glued to.  Gluings reverse orientation, so the
quotient is a closed oriented surface; its vertices are the punctures.

Derived combinatorics used throughout the package:

* ``edges``: the orbits of the gluing involution, indexed in order of first
  appearance of a slot in lexicographic order.  There are ``n = 6g + 3s - 6``
  of them for genus ``g`` and ``s`` punctures.
* corner cycles: corner ``(t, k)`` of triangle ``t`` is the vertex shared by
  sides ``k`` and ``k+1 (mod 3)``.  Walking counterclockwise around a
  puncture visits corners via ``next(t, k) = (t', k'-1 mod 3)`` where
  ``(t', k')`` is the slot glued to ``(t, k)``.  The cycles partition the
  ``3 * triangle_count`` corners, one cycle per puncture.
* the succession matrix ``sigma``: each corner ``(t, k)`` is swept
  counterclockwise from the ray of side ``k+1`` to the ray of side ``k``, so
  it records one immediate succession of an end of ``edge(t, k)`` after an
  end of ``edge(t, k+1)``.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass, field

Slot = tuple[int, int]
Corner = tuple[int, int]


class TriangulationError(ValueError):
    """Structurally invalid gluing data or unrealizable (genus, punctures)."""


@dataclass
class Diagnostics:
    """Result of validating raw gluing data.

    ``errors`` lists violated invariants with slot coordinates; the remaining
    fields are populated only when the data is structurally sound.
    """

    errors: list[str] = field(default_factory=list)
    genus: int | None = None
    punctures: int | None = None
    corner_cycles: tuple[tuple[Corner, ...], ...] | None = None
    pairing: dict[Slot, Slot] | None = None
    edges: list[tuple[Slot, Slot]] | None = None

    @property
    def ok(self) -> bool:
        return not self.errors


def diagnose(triangle_count: int, gluings) -> Diagnostics:
    """Check gluing data and recover (genus, punctures, edges, corner cycles)."""
    diag = Diagnostics()
    try:
        triangle_count = operator.index(triangle_count)
        pairs = [((operator.index(t1), operator.index(k1)), (operator.index(t2), operator.index(k2)))
                 for (t1, k1), (t2, k2) in gluings]
    except (TypeError, ValueError) as exc:
        diag.errors.append(f"malformed gluing data: {exc}")
        return diag
    if triangle_count <= 0:
        diag.errors.append("triangle count must be positive")
        return diag

    pairing: dict[Slot, Slot] = {}
    for a, b in pairs:
        if not (0 <= a[0] < triangle_count and 0 <= b[0] < triangle_count
                and 0 <= a[1] < 3 and 0 <= b[1] < 3):
            diag.errors.append(f"gluing of {a} and {b} leaves the slot range")
            continue
        if a == b:
            diag.errors.append(f"slot {a} glued to itself")
            continue
        for x, y in ((a, b), (b, a)):
            if x in pairing and pairing[x] != y:
                diag.errors.append(f"slot {x} glued twice")
            pairing[x] = y
    if len(pairing) != 3 * triangle_count:  # every slot in it is in range
        first = next((t, k) for t in range(triangle_count) for k in range(3) if (t, k) not in pairing)
        diag.errors.append(f"{3 * triangle_count - len(pairing)} slots unglued, the first {first}")
    if diag.errors:
        return diag
    slots = [(t, k) for t in range(triangle_count) for k in range(3)]

    # Edge orbits, indexed by first appearance.
    edge_of: dict[Slot, int] = {}
    edges: list[tuple[Slot, Slot]] = []
    for slot in slots:
        if slot in edge_of:
            continue
        other = pairing[slot]
        edge_of[slot] = edge_of[other] = len(edges)
        edges.append((slot, other))

    # Counterclockwise corner walk around each puncture.
    seen: set[Corner] = set()
    cycles: list[tuple[Corner, ...]] = []
    for c in slots:
        if c in seen:
            continue
        cycle = []
        while c not in seen:
            seen.add(c)
            cycle.append(c)
            t2, k2 = pairing[c]
            c = (t2, (k2 - 1) % 3)
        cycles.append(tuple(cycle))

    s = len(cycles)
    n = len(edges)
    # Euler characteristic of the compactified surface: s - n + faces = 2 - 2g.
    chi = s - n + triangle_count
    if chi % 2 != 0:
        diag.errors.append(f"odd Euler characteristic {chi}")
        return diag
    g = (2 - chi) // 2
    if g < 0:
        diag.errors.append(f"negative genus {g}")
        return diag
    if 2 - 2 * g - s >= 0:
        diag.errors.append(f"(g, s) = ({g}, {s}) has non-negative punctured Euler characteristic")
        return diag

    diag.genus = g
    diag.punctures = s
    diag.corner_cycles = tuple(cycles)
    diag.pairing = pairing
    diag.edges = edges
    return diag


class IdealTriangulation:
    """Immutable ideal triangulation with its derived combinatorics."""

    def __init__(self, triangle_count: int, gluings):
        diag = diagnose(triangle_count, gluings)
        if not diag.ok:
            more = len(diag.errors) - 3
            raise TriangulationError("; ".join(diag.errors[:3]) + (f"; {more} more" if more > 0 else ""))
        self.triangle_count = len(diag.pairing) // 3
        self.gluing: dict[Slot, Slot] = diag.pairing
        self.genus = diag.genus
        self.punctures = diag.punctures
        self.corner_cycles = diag.corner_cycles
        self.edges: list[tuple[Slot, Slot]] = diag.edges
        self.edge_of: dict[Slot, int] = {slot: e for e, edge in enumerate(self.edges) for slot in edge}
        self.puncture_of_corner: dict[Corner, int] = {}
        for p, cycle in enumerate(self.corner_cycles):
            for corner in cycle:
                self.puncture_of_corner[corner] = p

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def __repr__(self) -> str:
        return (f"IdealTriangulation(g={self.genus}, s={self.punctures}, "
                f"faces={self.triangle_count}, edges={self.edge_count})")

    # JSON round-trip ----------------------------------------------------

    def to_json_dict(self) -> dict:
        pairs = []
        done = set()
        for slot in sorted(self.gluing):
            if slot in done:
                continue
            other = self.gluing[slot]
            done.add(slot)
            done.add(other)
            pairs.append([list(slot), list(other)])
        return {"triangles": self.triangle_count, "gluings": pairs}

    @classmethod
    def from_json_dict(cls, data: dict) -> "IdealTriangulation":
        try:
            triangles, gluings = data["triangles"], data["gluings"]
        except (KeyError, TypeError) as exc:
            raise TriangulationError(f"malformed triangulation JSON: {exc}") from exc
        return cls(triangles, gluings)


def validate(triangulation_or_count, gluings=None) -> Diagnostics:
    """Diagnostics for a triangulation object or for raw (count, gluings) data."""
    if gluings is None:
        tri = triangulation_or_count
        return diagnose(tri.triangle_count, tri.gluing.items())
    return diagnose(triangulation_or_count, gluings)


def _fan(polygon: int, first: int, mirrored: bool) -> tuple[list[tuple[Slot, Slot]], list[Slot]]:
    """A fan-triangulated polygon on triangles ``first, first + 1, ...``.

    Triangle ``first + j`` is (0, j+1, j+2), with side 1 on the polygon edge
    (j+1, j+2); its side 2 is glued to side 0 of the next triangle.  The
    mirror image swaps sides 0 and 2.  Returns the diagonal gluings and the
    slots of the polygon edges (0, 1), (1, 2), ..., (polygon - 1, 0).
    """
    a, c = (2, 0) if mirrored else (0, 2)
    diagonals = [((first + j, c), (first + j + 1, a)) for j in range(polygon - 3)]
    boundary = [(first, a)] + [(first + k, 1) for k in range(polygon - 2)] + [(first + polygon - 3, c)]
    return diagonals, boundary


def _doubled_polygon(s: int) -> IdealTriangulation:
    # Double of a fan-triangulated s-gon: genus 0, punctures at the s polygon
    # vertices.  The bottom fan is the mirror image of the top one, glued to
    # it along the polygon boundary.
    top, top_boundary = _fan(s, 0, False)
    bottom, bottom_boundary = _fan(s, s - 2, True)
    return IdealTriangulation(2 * (s - 2), top + bottom + list(zip(top_boundary, bottom_boundary)))


def _fan_word_polygon(g: int, s: int) -> IdealTriangulation:
    # Fan-triangulated (4g + 2s - 2)-gon whose boundary carries the word
    # a1 b1 a1' b1' ... ag bg ag' bg' c1 c1' ... c_{s-1} c_{s-1}'  (x' = x^{-1}).
    # The commutator part contributes the genus; each folded pair c_j c_j'
    # pins one extra puncture at the polygon vertex between the two sides.
    P = 4 * g + 2 * s - 2
    gluings, boundary = _fan(P, 0, False)
    for i in range(g):
        base = 4 * i
        gluings.append((boundary[base], boundary[base + 2]))
        gluings.append((boundary[base + 1], boundary[base + 3]))
    for j in range(s - 1):
        base = 4 * g + 2 * j
        gluings.append((boundary[base], boundary[base + 1]))
    return IdealTriangulation(P - 2, gluings)


def standard_triangulation(g: int, s: int) -> IdealTriangulation:
    """Deterministic ideal triangulation of the genus-g surface with s punctures.

    Genus 0 uses the double of a fan-triangulated s-gon (all corner cycles of
    the triangle pillow at s = 3 have length 2); positive genus uses a
    fan-triangulated polygon with the standard commutator word followed by
    folded puncture pairs.  Rejects (g, s) that admit no ideal triangulation.
    """
    if g < 0 or s < 1 or 2 - 2 * g - s >= 0:
        raise TriangulationError(f"(g, s) = ({g}, {s}) admits no ideal triangulation")
    tri = _doubled_polygon(s) if g == 0 else _fan_word_polygon(g, s)
    if (tri.genus, tri.punctures) != (g, s):
        raise AssertionError(f"construction bug: requested ({g}, {s}), built "
                             f"({tri.genus}, {tri.punctures})")
    return tri


def _flip_slots(gluing: dict[Slot, Slot], slot: Slot) -> None:
    """Diagonal exchange, in place, of the edge with side ``slot`` in ``gluing``.

    The triangles t1 (side k1 on the edge) and t2 (side k2) form a
    quadrilateral a0 -> d -> a1 -> c counterclockwise, where a0 -> a1 is the
    edge seen from t1, c is the far vertex of t1 and d that of t2.  They
    become (c, a0, d) and (d, a1, c), with sides 0, 1, 2 counterclockwise,
    glued along the new diagonal d - c at side 2 of each.
    """
    (t1, k1), (t2, k2) = slot, gluing[slot]
    if t1 == t2:
        raise TriangulationError(f"edge at slot {slot} has both sides on triangle {t1}")
    # old outer sides of the quadrilateral -> their slots in the new triangles
    remap = {
        (t1, (k1 + 2) % 3): (t1, 0),   # c -> a0
        (t2, (k2 + 1) % 3): (t1, 1),   # a0 -> d
        (t2, (k2 + 2) % 3): (t2, 0),   # d -> a1
        (t1, (k1 + 1) % 3): (t2, 1),   # a1 -> c
    }
    outer = {side: gluing[side] for side in remap}
    for side, other in outer.items():
        a, b = remap[side], remap.get(other, other)
        gluing[a], gluing[b] = b, a
    gluing[(t1, 2)], gluing[(t2, 2)] = (t2, 2), (t1, 2)


def _same_surface(tri: IdealTriangulation, gluing: dict[Slot, Slot]) -> IdealTriangulation:
    out = IdealTriangulation(tri.triangle_count, gluing.items())
    if (out.genus, out.punctures) != (tri.genus, tri.punctures):
        raise AssertionError(f"flip bug: ({tri.genus}, {tri.punctures}) became "
                             f"({out.genus}, {out.punctures})")
    return out


def flip(tri: IdealTriangulation, edge: int) -> IdealTriangulation:
    """The triangulation with edge ``edge`` (an index into ``tri.edges``) flipped.

    An edge with both sides on one triangle (inside a self-folded triangle)
    bounds no quadrilateral and is rejected with ``TriangulationError``.
    """
    gluing = dict(tri.gluing)
    _flip_slots(gluing, tri.edges[edge][0])
    return _same_surface(tri, gluing)


def random_triangulation(g: int, s: int, flips: int, seed) -> IdealTriangulation:
    """``standard_triangulation(g, s)`` after ``flips`` flips at seeded random edges.

    Each flip draws a side slot uniformly; a self-folded edge is drawn again.
    Flips reach the coefficient growth that the fan triangulations hide.
    """
    tri = standard_triangulation(g, s)
    gluing = dict(tri.gluing)
    rng = random.Random(seed)
    done = 0
    while done < flips:
        slot = (rng.randrange(tri.triangle_count), rng.randrange(3))
        if slot[0] != gluing[slot][0]:
            _flip_slots(gluing, slot)
            done += 1
    return _same_surface(tri, gluing)


def succession_counts(tri: IdealTriangulation) -> list[list[int]]:
    """Matrix a[i][j]: corners where an end of edge j immediately succeeds an end of edge i, ccw."""
    n = tri.edge_count
    a = [[0] * n for _ in range(n)]
    for t in range(tri.triangle_count):
        for k in range(3):
            i = tri.edge_of[(t, (k + 1) % 3)]
            j = tri.edge_of[(t, k)]
            a[i][j] += 1
    return a


def sigma_matrix(tri: IdealTriangulation) -> list[list[int]]:
    """Antisymmetrized succession matrix sigma = a - a^T, entries in [-2, 2]."""
    a = succession_counts(tri)
    n = tri.edge_count
    return [[a[i][j] - a[j][i] for j in range(n)] for i in range(n)]
