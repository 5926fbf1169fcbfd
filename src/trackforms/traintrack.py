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
sides are smooth.

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
``-1`` at ``T[left][right]``.  Over the rows of a basis ``B``,
``theta_matrix = B T B^T / 2``: the image ``T b`` of each basis vector is
formed once and dotted with the support of the others.  Arithmetic is exact:
Python integers, or from ``INT64_MIN_ROWS`` basis vectors on, one exact
product in ``intcore`` (float64 BLAS while its bit bound is within 53).

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
import sys
from dataclasses import dataclass

from .triangulation import IdealTriangulation, sigma_matrix

Dart = tuple[int, int]

# Four stages fork here: the integer kernel (its elimination basis), theta,
# the skew normal form and its certificate.  Matrices with fewer rows
# stay on Python-int lists, where numpy's per-call dispatch costs more than
# it saves; from here on they run on numpy arrays (``intcore``), which give
# the same results.  Measured crossovers on standard triangulations: the
# kernel at 21 switch rows (42 branches), the normal form at 18 to 21 rows,
# theta at 15 basis vectors, but the certificate already at 6 rows (at n = 9,
# lists 146-153 us against arrays 68-84 us), so it would gain from a cutoff
# of its own.  ``lattice.certified_form`` hands the arrays on from stage to
# stage, and each stage takes lists or arrays.  Only the Hermite form (so
# ``weight_lattice_basis``, on which no command reduces) stays on lists.
INT64_MIN_ROWS = 20


def _int64(rows: int) -> bool:
    """Whether a matrix with ``rows`` rows runs on int64 arrays."""
    return rows > 0 and rows >= INT64_MIN_ROWS


def _is_array(x) -> bool:
    """Whether ``x`` is a numpy array, without importing numpy (an array implies it is loaded)."""
    np = sys.modules.get("numpy")
    return np is not None and isinstance(x, np.ndarray)


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

    @property
    def switch_count(self) -> int:
        return len(self.switches)

    def is_connected(self) -> bool:
        return _switch_classes(self)[0]

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


def switch_matrix(track: TrainTrack) -> list[list[int]]:
    """Integer matrix of the switch conditions (rows: switches, cols: branches)."""
    rows = []
    for side_a, side_b in track.switches:
        row = [0] * track.branch_count
        for b, _ in side_a:
            row[b] += 1
        for b, _ in side_b:
            row[b] -= 1
        rows.append(row)
    return rows


def weight_lattice_basis(track: TrainTrack) -> list[tuple[int, ...]]:
    """Basis of the integer kernel of the switch conditions, canonically ordered."""
    from .lattice import integer_kernel_basis

    basis = integer_kernel_basis(switch_matrix(track))
    return [tuple(v) for v in basis]


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
    """Every ``puncture_weight``, from one walk over the corners and one switch sweep.

    Each branch faces exactly one puncture, so eta_k satisfies a switch
    condition exactly when both sides hold as many darts facing puncture k:
    one comparison of the two sides' puncture multisets checks every eta.
    """
    tri = track.tri
    owner = [tri.puncture_of_corner[corner] for corner in track.branch_corner]
    etas = [[0] * track.branch_count for _ in range(tri.punctures)]
    for b, k in enumerate(owner):
        etas[k][b] = 1
    for s, (side_a, side_b) in enumerate(track.switches):
        if sorted(owner[b] for b, _ in side_a) != sorted(owner[b] for b, _ in side_b):
            raise TrackError(f"a puncture weight violates the switch condition at switch {s}")
    return [tuple(eta) for eta in etas]


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


def theta_matrix(track: TrainTrack, basis):
    """Antisymmetric matrix of theta over a list of weight systems: ``B T B^T / 2``.

    The basis may be lists or an array.  From ``INT64_MIN_ROWS`` vectors on,
    an array basis gives an array; below that the matrix is lists.
    """
    m = len(basis)
    if _int64(m):
        from . import intcore
        return intcore.theta_matrix(track.germ_pairs, basis)
    if _is_array(basis):  # a short basis of a track with many switches
        basis = basis.tolist()
    out = [[0] * m for _ in range(m)]
    images = [germ_image(track, basis[j]) for j in range(1, m)]
    for i in range(m - 1):
        support = [(k, x) for k, x in enumerate(basis[i]) if x]
        row = out[i]
        for j in range(i + 1, m):
            image = images[j - 1]
            doubled = 0
            for k, x in support:
                doubled += x * image[k]
            row[j] = v = halved(doubled)
            out[j][i] = -v
    return out


def sigma_pairing(track: TriangulationTrack, a, b) -> int:
    """Independent computation of theta through switch sums and the succession matrix.

    If ``ka, kb`` are the switch-sum vectors, the pairing equals
    ``1/2 * sum_{u<v} (ka_u kb_v - ka_v kb_u) sigma_{uv}``; agreement with the
    germ-pair formula is what fixes the left-to-right convention.
    """
    sigma = sigma_matrix(track.tri)
    ka = switch_sums(track, a)
    kb = switch_sums(track, b)
    n = len(ka)
    doubled = 0
    for u in range(n):
        for v in range(u + 1, n):
            doubled += (ka[u] * kb[v] - ka[v] * kb[u]) * sigma[u][v]
    if doubled % 2 != 0:
        raise IntegralityViolation(f"doubled sigma pairing {doubled} is odd")
    return doubled // 2


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

    @property
    def contains_puncture(self) -> bool:
        return self.puncture is not None

    def branch_multiplicities(self, branch_count: int) -> list[int]:
        out = [0] * branch_count
        for b, _ in self.darts:
            out[b] += 1
        return out


@dataclass(frozen=True)
class TopologyReport:
    genus: int
    n_even: int
    n_odd: int
    orientable: bool


def _ccw_cycles(track: TrainTrack):
    """Per-switch counterclockwise germ order and same-side corner flags.

    Returns (next_ccw, same_side_corner) where ``same_side_corner[d]`` tells
    whether the corner between ``d`` and ``next_ccw[d]`` is a spike.
    """
    next_ccw: dict[Dart, Dart] = {}
    same_side: dict[Dart, bool] = {}
    for side_a, side_b in track.switches:
        # Germs leave side_a along one tangent direction and side_b along the
        # opposite one; sweeping counterclockwise crosses each side's germs
        # right to left, so both lists reverse.
        cycle = list(reversed(side_a)) + list(reversed(side_b))
        sides = [0] * len(side_a) + [1] * len(side_b)
        for i, dart in enumerate(cycle):
            j = (i + 1) % len(cycle)
            next_ccw[dart] = cycle[j]
            same_side[dart] = sides[i] == sides[j]
    return next_ccw, same_side


def regions(track: TrainTrack) -> tuple[list[Region], TopologyReport]:
    """Boundary-walk the thickened neighborhood: regions, spikes, genus, orientability.

    Rejects disconnected tracks.  The genus comes from
    ``chi(U) = switches - branches`` and ``chi = 2 - 2h - region_count``.
    """
    connected, orientable = _switch_classes(track)
    if not connected:
        raise TrackError("train track is not connected")
    next_ccw, same_side = _ccw_cycles(track)

    def phi(d: Dart) -> Dart:
        other = (d[0], 1 - d[1])
        return next_ccw[other]

    seen: set[Dart] = set()
    regs: list[Region] = []
    for start in sorted(track.dart_slot):
        if start in seen:
            continue
        walk = []
        flags = []
        d = start
        while d not in seen:
            seen.add(d)
            walk.append(d)
            flags.append(same_side[(d[0], 1 - d[1])])
            d = phi(d)
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
        orientable=orientable,
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


def _switch_classes(track: TrainTrack) -> tuple[bool, bool]:
    """(connected, orientable) from one parity union-find over the branches.

    Orientability is a parity 2-coloring of switch polarities: a branch with
    ends on sides (x, y) of switches (s1, s2) forces p(s1) + p(s2) = 1 + x + y
    over GF(2), with side_a = 0 and side_b = 1.  Each switch stores its
    polarity relative to its parent; union by size keeps the trees shallow.
    """
    parent = list(range(track.switch_count))
    parity = [0] * track.switch_count
    size = [1] * track.switch_count

    def find(s):
        p = 0
        while parent[s] != s:
            p ^= parity[s]
            s = parent[s]
        return s, p

    classes, orientable = track.switch_count, True
    for b in range(track.branch_count):
        s1, x, _ = track.dart_slot[(b, 0)]
        s2, y, _ = track.dart_slot[(b, 1)]
        (r1, p1), (r2, p2) = find(s1), find(s2)
        need = 1 ^ x ^ y
        if r1 == r2:
            orientable = orientable and p1 ^ p2 == need
            continue
        if size[r1] < size[r2]:
            r1, r2 = r2, r1
        parent[r2], parity[r2] = r1, p1 ^ p2 ^ need
        size[r1] += size[r2]
        classes -= 1
    return classes == 1, orientable
