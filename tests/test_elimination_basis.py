"""verify_structure on the elimination basis against the Hermite-basis route.

``integer_kernel`` returns the rows that unimodular elimination leaves,
``weight_lattice_basis`` their Hermite form.  Both span the weight lattice,
and every figure of a structure report is an invariant of the form on that
lattice, so the report must not depend on which of the two bases the form is
reduced on.  ``reference_report`` keeps the Hermite route as the oracle.
"""

import operator
import random

import pytest

from trackforms import (
    StructureReport,
    TrackError,
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
    integer_kernel,
    lattice_equal,
    predicted_blocks,
)
from trackforms.traintrack import TriangulationTrack, puncture_weights, switch_matrix
from trackforms.triangulation import random_triangulation

from conftest import random_ribbon_track
from oracles import kernel_rows

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


def test_hermite_form_of_the_elimination_basis_is_the_canonical_basis(grid_tracks, large_tracks):
    tracks = list(grid_tracks.values()) + [
        large_tracks[k] for k in ("fan(16, 4)", "fan(0, 30)", "flipped(16,4)x1000")]
    for track in tracks:
        a = switch_matrix(track)
        kernel = integer_kernel(a)
        assert lattice_equal(kernel, switch_sum_lattice(track))
        assert all(sum(map(operator.mul, row, v)) == 0 for row in a for v in kernel)


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
    # On the Hermite basis U reaches 1131 bits here.
    track = from_triangulation(random_triangulation(32, 4, 5000, 1))
    assert verify_structure(track).passed
    nf = skew_normal_form(theta_matrix(track, integer_kernel(switch_matrix(track))))
    assert max(abs(x).bit_length() for row in nf.U for x in row) <= 8


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
