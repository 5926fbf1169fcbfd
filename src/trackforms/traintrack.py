"""Train tracks, integer weight systems, and the skew intersection pairing.

Encoding
--------
A train track has ``branch_count`` branches, each with two ends; a *dart* is
the pair ``(branch, end)`` with ``end`` in ``{0, 1}``.  Every switch has two
opposite sides, ``side_a`` and ``side_b``, each an ordered tuple of darts
read **left to right when looking out of the switch along the common tangent
direction of that side**.  Every dart occupies exactly one germ slot and both
sides of every switch are non-empty.

Counterclockwise rotation at a switch (with respect to the ambient surface
orientation) therefore visits ``reversed(side_a)`` followed by
``reversed(side_b)``: each side's germs are crossed right to left, since the
two sides point along opposite tangent directions.  Corners between
cyclically consecutive germs on the *same* side are spikes (cusps of the
complementary regions), while the two corners joining the ends of the two
sides are smooth.  ``TrainTrack.dart_slot`` holds each dart's slot
``(switch, side, pos)``, ``pos`` counted from the left, so the spike is the
corner after a germ with ``pos > 0``: the next germ counterclockwise is at
``pos - 1`` on the same side.  After the germ at ``pos == 0`` comes the last
germ of the other side, across a smooth corner.

Weight systems are integer tuples indexed by branch, satisfying at every
switch ``sum(side_a weights) == sum(side_b weights)``.  The intersection
pairing of two weight systems is

    theta(a, b) = 1/2 * sum over same-side germ pairs (e right of e') of
                  a(e) b(e') - a(e') b(e)

where the doubled sum is always even; an odd doubled sum indicates a germ
bookkeeping bug and raises :class:`IntegralityViolation`.

The pairing is bilinear, so it is one sparse antisymmetric integer matrix
``T`` over branches: ``theta(a, b) = a^T T b / 2``.  ``TrainTrack.germ_pairs``
is ``T``: one ``(left branch, right branch)`` entry per same-side germ pair,
built once with the track, each adding ``+1`` at ``T[right][left]`` and
``-1`` at ``T[left][right]``.  ``germ_image`` forms ``T b``; the matrix of
theta between lists of weight systems is ``lattice.theta_matrix``.  The
track's ``forest`` (``SwitchForest``), also built once, spans the signed
switch graph for ``is_connected``, the census and ``lattice.tree_basis``.

The track of a triangulation
----------------------------
``from_triangulation`` builds the track carrying the balanced lattice of an
ideal triangulation: one switch per edge, and in each triangle three
branches, one per corner.  Branch ``3*t + j`` cuts corner ``j`` of triangle
``t``; its end 0 sits on side ``j`` and its end 1 on side ``j+1 (mod 3)``.
Each switch side is the germ list of one triangle-side slot:
``[(3*t + (k+2) % 3, 1), (3*t + k, 0)]`` left to right.  With this ordering
theta agrees with the succession-matrix pairing of switch-sum vectors (see
``tests``), which pins the sign convention.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from .triangulation import IdealTriangulation

Dart = tuple[int, int]


class TrackError(ValueError):
    """Structurally invalid train-track data."""


class IntegralityViolation(ArithmeticError):
    """The doubled intersection sum came out odd: germ ordering bug."""


class ParityViolation(ValueError):
    """A switch-sum vector with an odd total on some triangle."""

    def __init__(self, triangle: int, total: int):
        super().__init__(f"odd switch-sum total {total} on triangle {triangle}")
        self.triangle = triangle


class TrainTrack:
    def __init__(self, branch_count: int, switches):
        try:
            self.branch_count = n = operator.index(branch_count)
            self.switches: tuple[tuple[tuple[Dart, ...], tuple[Dart, ...]], ...] = tuple(
                (tuple((operator.index(b), operator.index(e)) for b, e in side_a),
                 tuple((operator.index(b), operator.index(e)) for b, e in side_b))
                for side_a, side_b in switches)
        except (TypeError, ValueError) as exc:
            raise TrackError(f"malformed train track: {exc}") from exc
        if n < 0:
            raise TrackError(f"negative branch count {n}")
        self.dart_slot: dict[Dart, tuple[int, int, int]] = {}
        pairs: list[tuple[int, int]] = []
        for s, (side_a, side_b) in enumerate(self.switches):
            if not side_a or not side_b:
                raise TrackError(f"switch {s} has an empty side")
            for side_idx, side in enumerate((side_a, side_b)):
                for pos, dart in enumerate(side):
                    if dart in self.dart_slot:
                        raise TrackError(f"dart {dart} appears twice")
                    if not 0 <= dart[0] < n or dart[1] not in (0, 1):
                        raise TrackError(f"unknown dart {dart}")
                    self.dart_slot[dart] = (s, side_idx, pos)
                    # every germ already on this side lies to the left of dart
                    for left, _ in side[:pos]:
                        pairs.append((left, dart[0]))
        # The germ-pair form T (see the module docstring).
        self.germ_pairs: tuple[tuple[int, int], ...] = tuple(pairs)
        if len(self.dart_slot) != 2 * n:  # every dart in it is known
            first = next((b, e) for b in range(n) for e in (0, 1) if (b, e) not in self.dart_slot)
            raise TrackError(f"{2 * n - len(self.dart_slot)} unattached branch ends, the first {first}")
        self.forest = SwitchForest(self)

    @property
    def switch_count(self) -> int:
        return len(self.switches)

    def is_connected(self) -> bool:
        return len(self.forest.roots) == 1

    def __repr__(self) -> str:
        return f"TrainTrack(branches={self.branch_count}, switches={self.switch_count})"

    def to_json_dict(self) -> dict:
        return {
            "branches": self.branch_count,
            "switches": [
                {"side_a": [list(d) for d in side_a], "side_b": [list(d) for d in side_b]}
                for side_a, side_b in self.switches
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "TrainTrack":
        try:
            branches = data["branches"]
            switches = [(sw["side_a"], sw["side_b"]) for sw in data["switches"]]
        except (KeyError, TypeError) as exc:
            raise TrackError(f"malformed train-track JSON: {exc}") from exc
        return cls(branches, switches)


class SwitchForest:
    """The spanning forest of a track's signed switch graph, built once with the track.

    The switches are the vertices and the branches the edges, an end signed
    +1 on side a and -1 on side b: the switch conditions are the graph's
    incidence matrix (Zaslavsky, *Signed graphs*, 1982).  ``ends[b]`` holds
    ``(switch, sign)`` of both ends of branch ``b``.  Each component has a
    BFS tree rooted at a centre switch (the middle of a longest path that
    two BFS sweeps find), one of ``roots``, which ``component[s]`` indexes;
    ``up[s]`` is ``(parent, tree branch, sign at s, sign at the parent)``,
    None at a root.  The polarity ``p_s = +-1`` is +1 at a root, and a tree
    branch with signs ``c_s``, ``c_t`` sets ``c_s p_s + c_t p_t = 0``.  A
    branch is balanced when its ends satisfy that relation (a loop branch
    exactly when its ends lie on opposite sides); ``orientable`` says every
    branch is.  With ``p = (-1)^parity`` it is the rule ``parity(s) +
    parity(t) = 1 + side_s + side_t`` of a consistent branch orientation.
    """

    __slots__ = ("ends", "roots", "component", "up", "polarity", "orientable")

    def __init__(self, track: TrainTrack):
        n = track.switch_count
        ends = []
        adjacent = [[] for _ in range(n)]
        for b in range(track.branch_count):
            (s, x, _), (t, y, _) = track.dart_slot[(b, 0)], track.dart_slot[(b, 1)]
            ends.append(((s, 1 - 2 * x), (t, 1 - 2 * y)))
            if s != t:
                adjacent[s].append((t, b))
                adjacent[t].append((s, b))

        def bfs(root):
            # the switches of root's component in BFS order, and each one's tree branch
            parent = {root: None}
            order = [root]
            for s in order:
                for t, b in adjacent[s]:
                    if t not in parent:
                        parent[t] = (s, b)
                        order.append(t)
            return order, parent

        roots = []
        up = [None] * n
        component = [None] * n
        polarity = [1] * n
        for start in range(n):
            if component[start] is not None:
                continue
            far, _ = bfs(start)
            order, parent = bfs(far[-1])
            path = [order[-1]]
            while parent[path[-1]] is not None:
                path.append(parent[path[-1]][0])
            order, parent = bfs(path[len(path) // 2])
            for s in order:  # a parent comes before its children
                component[s] = len(roots)
                if parent[s] is not None:
                    p, b = parent[s]
                    (x, cx), (_, cy) = ends[b]
                    up[s] = (p, b, cx, cy) if x == s else (p, b, cy, cx)
                    polarity[s] = -cx * cy * polarity[p]
            roots.append(order[0])
        self.ends, self.roots, self.component = tuple(ends), tuple(roots), tuple(component)
        self.up, self.polarity = tuple(up), tuple(polarity)
        self.orientable = all(cs * polarity[s] + ct * polarity[t] == 0 for (s, cs), (t, ct) in ends)


class TriangulationTrack(TrainTrack):
    """The track of an ideal triangulation; switch i lies on edge i."""

    def __init__(self, tri: IdealTriangulation):
        switches = []
        for slot1, slot2 in tri.edges:
            switches.append((self._slot_germs(slot1), self._slot_germs(slot2)))
        super().__init__(3 * tri.triangle_count, switches)
        self.tri = tri
        # Branch 3*t + j cuts corner (t, j); one side of it faces the corner's
        # puncture region, the other the central region of triangle t.
        self.branch_corner = [(b // 3, b % 3) for b in range(self.branch_count)]

    @staticmethod
    def _slot_germs(slot) -> list[Dart]:
        t, k = slot
        return [(3 * t + (k + 2) % 3, 1), (3 * t + k, 0)]


def from_triangulation(tri: IdealTriangulation) -> TriangulationTrack:
    return TriangulationTrack(tri)


# --- weight systems ------------------------------------------------------

def switch_defects(track: TrainTrack, weights) -> list[int]:
    """Per-switch difference of the two side sums (all zero for a weight system)."""
    if len(weights) != track.branch_count:
        raise TrackError(f"expected {track.branch_count} weights, got {len(weights)}")
    return [sum(weights[b] for b, _ in side_a) - sum(weights[b] for b, _ in side_b)
            for side_a, side_b in track.switches]


def is_weight_system(track: TrainTrack, weights) -> bool:
    return all(d == 0 for d in switch_defects(track, weights))


def require_weight_system(track: TrainTrack, weights) -> tuple[int, ...]:
    try:
        w = tuple(map(operator.index, weights))
    except TypeError as exc:
        raise TrackError(f"weights must be exact integers: {exc}") from exc
    bad = [s for s, d in enumerate(switch_defects(track, w)) if d != 0]
    if bad:
        raise TrackError(f"switch conditions violated at switches {bad}")
    return w


def switch_sums(track: TrainTrack, weights) -> tuple[int, ...]:
    """The side sum at each switch (both sides agree for a weight system)."""
    w = require_weight_system(track, weights)
    return tuple(sum(w[b] for b, _ in side_a) for side_a, _ in track.switches)


def from_switch_sums(track: TriangulationTrack, sums) -> tuple[int, ...]:
    """Invert ``switch_sums`` on the track of a triangulation.

    On each triangle the three branch weights solve the local linear system
    ``w[3t+j] = (k_j + k_{j+1} - k_{j+2}) / 2`` with ``k_j`` the sum attached
    to the edge carrying side ``j``; integrality is exactly the per-triangle
    parity condition.
    """
    tri = track.tri
    if len(sums) != tri.edge_count:
        raise TrackError(f"expected {tri.edge_count} switch sums, got {len(sums)}")
    weights = [0] * track.branch_count
    for t in range(tri.triangle_count):
        k = [sums[tri.edge_of[(t, j)]] for j in range(3)]
        total = k[0] + k[1] + k[2]
        if total % 2 != 0:
            raise ParityViolation(t, total)
        for j in range(3):
            weights[3 * t + j] = (k[j] + k[(j + 1) % 3] - k[(j + 2) % 3]) // 2
    return require_weight_system(track, weights)


def puncture_weight(track: TriangulationTrack, puncture: int) -> tuple[int, ...]:
    """Weight system counting branch sides that face the puncture's region.

    For the triangulation track each branch has one side on a puncture region
    and one on a triangle region, so the values land in {0, 1} (inside the
    a-priori range {0, 1, 2}).
    """
    if not 0 <= puncture < track.tri.punctures:
        raise IndexError(f"puncture index {puncture} out of range")
    return puncture_weights(track)[puncture]


def puncture_weights(track: TriangulationTrack) -> list[tuple[int, ...]]:
    """Every ``puncture_weight``: eta_k is 1 on the branches ``puncture_owners`` gives puncture k."""
    etas = [[0] * track.branch_count for _ in range(track.tri.punctures)]
    for b, k in enumerate(puncture_owners(track)):
        etas[k][b] = 1
    return [tuple(eta) for eta in etas]


def puncture_owners(track: TriangulationTrack) -> list[int]:
    """The puncture each branch faces, once every puncture weight is checked to be a weight system.

    Each branch faces exactly one puncture, so eta_k satisfies a switch
    condition exactly when both sides hold as many darts facing puncture k:
    one comparison of the two sides' puncture multisets checks every eta.
    """
    tri = track.tri
    owner = [tri.puncture_of_corner[corner] for corner in track.branch_corner]
    for s, (side_a, side_b) in enumerate(track.switches):
        if sorted([owner[b] for b, _ in side_a]) != sorted([owner[b] for b, _ in side_b]):
            raise TrackError(f"a puncture weight violates the switch condition at switch {s}")
    return owner


# --- the intersection pairing --------------------------------------------

def theta_doubled(track: TrainTrack, a, b) -> int:
    """The doubled pairing ``a^T T b = a . (T b)``."""
    return sum(map(operator.mul, a, germ_image(track, b)))


def theta(track: TrainTrack, a, b) -> int:
    return halved(theta_doubled(track, a, b))


def halved(doubled: int) -> int:
    """A pairing from its doubled sum, which must be even."""
    if doubled % 2 != 0:
        raise IntegralityViolation(f"doubled pairing {doubled} is odd")
    return doubled // 2


def germ_image(track: TrainTrack, b) -> list[int]:
    """The vector ``T b``, so that ``theta_doubled(a, b) == a . (T b)``."""
    image = [0] * track.branch_count
    for left, right in track.germ_pairs:
        image[right] += b[left]
        image[left] -= b[right]
    return image


# --- regions, spikes, and the topology census -----------------------------

@dataclass(frozen=True)
class Region:
    """One complementary annulus: its boundary walk and spike data.

    ``darts`` lists the walk; step ``i`` runs along ``darts[i]``'s branch and
    then crosses a switch corner which is a spike iff ``spike_after[i]``.
    ``puncture`` is set on triangulation tracks for the regions that contain
    a puncture.
    """

    darts: tuple[Dart, ...]
    spike_after: tuple[bool, ...]
    puncture: int | None = None

    @property
    def spikes(self) -> int:
        return sum(self.spike_after)


@dataclass(frozen=True)
class TopologyReport:
    genus: int
    n_even: int
    n_odd: int
    orientable: bool


def regions(track: TrainTrack) -> tuple[list[Region], TopologyReport]:
    """Boundary-walk the thickened neighborhood: regions, spikes, genus, orientability.

    A step runs along a dart's branch to its other end, at ``(s, side, pos)``
    in ``track.dart_slot``, and turns to the next germ counterclockwise:
    ``switches[s][side][pos - 1]`` across a spike when ``pos > 0``, and the
    last germ of the other side across a smooth corner when ``pos == 0``.
    Walks start from the darts in ``(branch, end)`` order.  Rejects
    disconnected tracks.  The genus comes from ``chi(U) = switches -
    branches`` and ``chi = 2 - 2h - region_count``; orientability is the
    balance of the track's ``forest``.
    """
    if not track.is_connected():
        raise TrackError("train track is not connected")
    switches, dart_slot = track.switches, track.dart_slot
    seen: set[Dart] = set()
    regs: list[Region] = []
    for start in ((b, e) for b in range(track.branch_count) for e in (0, 1)):
        if start in seen:
            continue
        walk = []
        flags = []
        d = start
        while d not in seen:
            seen.add(d)
            walk.append(d)
            s, side, pos = dart_slot[(d[0], 1 - d[1])]
            flags.append(pos > 0)
            # at pos == 0, pos - 1 == -1 reads the other side's last germ
            d = switches[s][side if pos else 1 - side][pos - 1]
        regs.append(Region(tuple(walk), tuple(flags)))

    if isinstance(track, TriangulationTrack):
        regs = [_attach_puncture(track, r) for r in regs]

    chi = track.switch_count - track.branch_count
    b = len(regs)
    genus2 = 2 - b - chi
    if genus2 < 0 or genus2 % 2 != 0:
        raise TrackError(f"inconsistent census: chi={chi}, regions={b}")
    report = TopologyReport(
        genus=genus2 // 2,
        n_even=sum(1 for r in regs if r.spikes % 2 == 0),
        n_odd=sum(1 for r in regs if r.spikes % 2 == 1),
        orientable=track.forest.orientable,
    )
    return regs, report


def _attach_puncture(track: TriangulationTrack, region: Region) -> Region:
    if region.spikes != 0:
        return region
    tri = track.tri
    punctures = {tri.puncture_of_corner[track.branch_corner[b]] for b, _ in region.darts}
    if len(punctures) != 1:
        raise AssertionError(f"puncture region touches corners of {punctures}")
    return Region(region.darts, region.spike_after, punctures.pop())
