"""verify_structure on the tree basis against the Hermite-basis route.

``tree_basis`` reads a basis of the weight lattice off a spanning tree of
the switch graph, ``weight_lattice_basis`` is its Hermite form, and the
unimodular elimination of ``oracles.integer_kernel`` is the reference for
the lattice.  Every figure of a structure report is an invariant of the form
on that lattice, so the report must not depend on which basis the form is
reduced on.  ``reference_report`` keeps the Hermite route as the oracle.
"""

import operator
import random

import pytest

from trackforms import (
    StructureReport,
    TrackError,
    TrainTrack,
    from_switch_sums,
    from_triangulation,
    puncture_weight,
    regions,
    skew_normal_form,
    standard_triangulation,
    theta_matrix,
    verify_structure,
    weight_lattice_basis,
)
from trackforms.lattice import (
    _combine,
    certify_normal_form,
    lattice_equal,
    predicted_blocks,
    tree_basis,
)
from trackforms.traintrack import TriangulationTrack, puncture_weights
from trackforms.triangulation import random_triangulation

from conftest import circle_track, random_ribbon_track, unorientable_even_track
from oracles import disjoint_union, integer_kernel, kernel_rows, switch_matrix

FANS = [(16, 4), (0, 30)]
FLIPPED = [(16, 4, 1000), (24, 4, 3000)]


def reference_report(track) -> StructureReport:
    """The structure report with the form reduced on the Hermite basis."""
    _, topo = regions(track)
    basis = weight_lattice_basis(track)
    m = theta_matrix(track, basis)
    nf = skew_normal_form(m)
    assert certify_normal_form(nf, m)
    expected, expected_nullity = predicted_blocks(
        topo.genus, topo.n_even, topo.n_odd, topo.orientable)
    if topo.n_odd > 0:
        case = "odd-spiked regions present"
    elif topo.orientable:
        case = "all regions even-spiked, orientable"
    else:
        case = "all regions even-spiked, non-orientable"
    computed = tuple(sorted(nf.blocks))
    passed = computed == tuple(sorted(expected)) and nf.nullity == expected_nullity
    eta_match = None
    if isinstance(track, TriangulationTrack):
        etas = [reference_eta(track, k) for k in range(track.tri.punctures)]
        eta_match = lattice_equal(_combine(kernel_rows(nf), basis), etas)
        passed = passed and eta_match
    return StructureReport(case, topo.genus, topo.n_even, topo.n_odd, topo.orientable,
                           tuple(sorted(expected)), expected_nullity, computed,
                           nf.nullity, nf.rank, passed, eta_match)


def reference_eta(track, k):
    """One puncture weight on its own: 1 on the branches whose corner faces puncture ``k``."""
    tri = track.tri
    return tuple(int(tri.puncture_of_corner[c] == k) for c in track.branch_corner)


@pytest.fixture(scope="module")
def large_tracks():
    tracks = {f"fan{gs}": from_triangulation(standard_triangulation(*gs)) for gs in FANS}
    for g, s, flips in FLIPPED:
        tri = random_triangulation(g, s, flips, seed=f"elimination/{g}/{s}")
        tracks[f"flipped({g},{s})x{flips}"] = from_triangulation(tri)
    return tracks


def gf2_kernel(rows, n) -> list[list[int]]:
    """0/1 lifts of a basis of the kernel over GF(2) of the 0/1 ``rows`` (length ``n``)."""
    pivots = {}  # pivot column -> reduced row, as a bit mask
    for row in rows:
        mask = sum(1 << c for c, x in enumerate(row) if x % 2)
        for c, r in pivots.items():
            if mask >> c & 1:
                mask ^= r
        if mask:
            c = mask.bit_length() - 1
            for d, r in pivots.items():
                if r >> c & 1:
                    pivots[d] = r ^ mask
            pivots[c] = mask
    basis = []
    for free in sorted(set(range(n)) - set(pivots)):
        v = [0] * n
        v[free] = 1
        for c, r in pivots.items():
            v[c] = r >> free & 1
        basis.append(v)
    return basis


def switch_sum_lattice(track) -> list[tuple[int, ...]]:
    """Generators of the weight lattice of a triangulation track, from its edges.

    A weight system is ``from_switch_sums`` of the edge vectors ``k`` whose
    sum around every triangle is even: the lifts of a GF(2) kernel basis of
    the triangle-edge incidence matrix and ``2 e_i`` for every edge span them.
    """
    tri = track.tri
    incidence = [[0] * tri.edge_count for _ in range(tri.triangle_count)]
    for t in range(tri.triangle_count):
        for j in range(3):
            incidence[t][tri.edge_of[(t, j)]] += 1
    sums = gf2_kernel(incidence, tri.edge_count)
    sums += [[2 * (i == e) for i in range(tri.edge_count)] for e in range(tri.edge_count)]
    return [from_switch_sums(track, k) for k in sums]


def assert_tree_basis(track):
    """``tree_basis`` spans the elimination's lattice with as many rows, all of them weight systems."""
    a = switch_matrix(track)
    basis, kernel = tree_basis(track), integer_kernel(a)
    assert len(basis) == len(kernel) and lattice_equal(basis, kernel)
    assert all(sum(map(operator.mul, row, v)) == 0 for row in a for v in basis)
    assert all(abs(x) <= 4 for v in basis for x in v)
    return basis


def test_hermite_form_of_the_elimination_basis_is_the_canonical_basis(grid_tracks, large_tracks):
    tracks = list(grid_tracks.values()) + [
        large_tracks[k] for k in ("fan(16, 4)", "fan(0, 30)", "flipped(16,4)x1000")]
    for track in tracks:
        assert lattice_equal(assert_tree_basis(track), switch_sum_lattice(track))


def test_tree_basis_spans_the_lattice_on_every_ribbon_track():
    # every draw of one seed, the disconnected ones too
    rng = random.Random(7)
    disconnected = 0
    for _ in range(2000):
        track = random_ribbon_track(rng)
        if track is not None:
            assert_tree_basis(track)
            disconnected += not track.is_connected()
    assert disconnected > 100


def test_tree_basis_spans_the_lattice_on_fixtures_and_unions(grid_tracks, large_tracks):
    # an unbalanced component (the unorientable track) beside balanced ones
    union = disjoint_union(circle_track(), unorientable_even_track(), grid_tracks[(1, 2)])
    for track in (circle_track(), unorientable_even_track(), union,
                  *grid_tracks.values(), *large_tracks.values()):
        assert_tree_basis(track)
    assert tree_basis(TrainTrack(0, [])) == []


def test_report_matches_the_hermite_route_on_triangulations(grid_tracks, large_tracks):
    for track in list(grid_tracks.values()) + list(large_tracks.values()):
        report = verify_structure(track)
        assert report == reference_report(track)
        assert report.passed and report.eta_kernel_match


def test_report_matches_the_hermite_route_on_ribbon_tracks():
    rng = random.Random(2718)
    checked = 0
    while checked < 200:
        track = random_ribbon_track(rng)
        if track is None or not track.is_connected():
            continue
        checked += 1
        assert verify_structure(track) == reference_report(track)


def test_flipped_32_4_keeps_u_small():
    # On the Hermite basis U reaches 1131 bits at seed 1.
    for seed in range(3):
        report = verify_structure(from_triangulation(random_triangulation(32, 4, 5000, seed)))
        assert report.passed
        assert max(abs(x).bit_length() for row in report.normal_form.U for x in row) <= 2, seed


def test_puncture_weights_match_one_puncture_at_a_time(grid_tracks, large_tracks):
    for track in list(grid_tracks.values()) + [large_tracks["fan(0, 30)"]]:
        etas = puncture_weights(track)
        assert etas == [reference_eta(track, k) for k in range(track.tri.punctures)]
        assert etas == [puncture_weight(track, k) for k in range(track.tri.punctures)]


def test_puncture_weights_check_every_switch():
    track = from_triangulation(standard_triangulation(0, 4))
    corners = track.branch_corner
    tri = track.tri
    # hand branch 0's corner to a branch facing another puncture
    other = next(b for b, c in enumerate(corners)
                 if tri.puncture_of_corner[c] != tri.puncture_of_corner[corners[0]])
    corners[0], corners[other] = corners[other], corners[0]
    with pytest.raises(TrackError, match="switch condition"):
        puncture_weights(track)
