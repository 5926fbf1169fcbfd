import itertools
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from trackforms import (
    IntegralityViolation,
    ParityViolation,
    TrackError,
    TrainTrack,
    from_switch_sums,
    from_triangulation,
    intcore,
    puncture_weight,
    regions,
    standard_triangulation,
    switch_sums,
    theta,
    theta_matrix,
    weight_lattice_basis,
)
from trackforms.lattice import tree_basis
from trackforms.traintrack import (
    is_weight_system,
    theta_doubled,
)
from trackforms.triangulation import random_triangulation

from conftest import (
    GRID,
    circle_track,
    random_ribbon_track,
    random_weight,
    unorientable_even_track,
)
from oracles import (
    OddSpikesError,
    branch_multiplicities,
    ccw_regions,
    contains_puncture,
    disjoint_union,
    is_orientable,
    region_weight_system,
    sigma_pairing,
)


@pytest.mark.parametrize("g,s,switches,branches", [(1, 1, 3, 6), (0, 4, 6, 12)])
def test_track_counts(g, s, switches, branches, grid_tracks):
    track = grid_tracks[(g, s)]
    assert track.switch_count == switches
    assert track.branch_count == branches


def test_two_germs_per_side(grid_tracks):
    for track in grid_tracks.values():
        for side_a, side_b in track.switches:
            assert len(side_a) == 2 and len(side_b) == 2


@pytest.mark.parametrize("g,s", GRID)
def test_lattice_rank(g, s, grid_tracks, grid_bases):
    assert len(grid_bases[(g, s)]) == 6 * g + 3 * s - 6


def test_basis_satisfies_switch_conditions(grid_tracks, grid_bases):
    for gs, track in grid_tracks.items():
        for vec in grid_bases[gs]:
            assert is_weight_system(track, vec)


def test_track_validation_errors():
    with pytest.raises(TrackError):
        TrainTrack(1, [([(0, 0), (0, 1)], [])])  # empty side
    with pytest.raises(TrackError):
        TrainTrack(2, [([(0, 0), (0, 1)], [(0, 0)])])  # duplicate dart
    with pytest.raises(TrackError):
        TrainTrack(2, [([(0, 0)], [(0, 1)])])  # branch 1 unattached


# --- the germ-pair form against the germ walk ------------------------------

def reference_theta_doubled(track, a, b):
    """Slow exact oracle: walk every switch side and pair each germ with those right of it."""
    total = 0
    for side_a, side_b in track.switches:
        for side in (side_a, side_b):
            for i in range(len(side)):
                bi = side[i][0]
                for j in range(i + 1, len(side)):
                    bj = side[j][0]
                    # side[j] emerges to the right of side[i]
                    total += a[bj] * b[bi] - a[bi] * b[bj]
    return total


def reference_theta_matrix(track, basis):
    doubled = [[reference_theta_doubled(track, a, b) for b in basis] for a in basis]
    assert all(v % 2 == 0 for row in doubled for v in row)
    return [[v // 2 for v in row] for row in doubled]


def test_theta_alternating(grid_tracks, grid_bases):
    track = grid_tracks[(1, 1)]
    for vec in grid_bases[(1, 1)]:
        assert theta(track, vec, vec) == 0


@given(gs=st.sampled_from(GRID), rnd=st.randoms(use_true_random=False))
def test_theta_bilinear_and_antisymmetric(grid_tracks, grid_bases, gs, rnd):
    track = grid_tracks[gs]
    basis = grid_bases[gs]
    a = random_weight(track, basis, rnd)
    a2 = random_weight(track, basis, rnd)
    b = random_weight(track, basis, rnd)
    x, y = rnd.randint(-3, 3), rnd.randint(-3, 3)
    combo = tuple(x * p + y * q for p, q in zip(a, a2))
    assert theta(track, combo, b) == x * theta(track, a, b) + y * theta(track, a2, b)
    assert theta(track, a, b) == -theta(track, b, a)


@given(gs=st.sampled_from(GRID), rnd=st.randoms(use_true_random=False))
def test_doubled_sum_always_even(grid_tracks, grid_bases, gs, rnd):
    track = grid_tracks[gs]
    basis = grid_bases[gs]
    a = random_weight(track, basis, rnd)
    b = random_weight(track, basis, rnd)
    assert theta_doubled(track, a, b) % 2 == 0
    assert theta_doubled(track, a, b) == reference_theta_doubled(track, a, b)


@given(gs=st.sampled_from(GRID), rnd=st.randoms(use_true_random=False))
def test_theta_matches_succession_pairing(grid_tracks, grid_bases, gs, rnd):
    # Independent route: switch sums paired through the sigma matrix.
    track = grid_tracks[gs]
    basis = grid_bases[gs]
    a = random_weight(track, basis, rnd)
    b = random_weight(track, basis, rnd)
    assert theta(track, a, b) == sigma_pairing(track, a, b)


@pytest.mark.parametrize("g,s", GRID + [(4, 2)])
def test_theta_matrix_matches_germ_walk(g, s):
    # (4, 2) has 24 basis vectors, past INT64_MIN_ROWS: its matrices run on arrays
    track = from_triangulation(standard_triangulation(g, s))
    basis = weight_lattice_basis(track)
    assert theta_matrix(track, basis) == reference_theta_matrix(track, basis)
    rng = random.Random(10 * g + s)
    cols = [random_weight(track, basis, rng) for _ in range(3)]
    expected = [[reference_theta_doubled(track, a, b) // 2 for b in cols] for a in basis]
    assert theta_matrix(track, basis, cols) == expected
    array = theta_matrix(track, np.array(basis), cols)
    assert isinstance(array, np.ndarray) and array.tolist() == expected


def test_theta_matches_germ_walk_on_random_tracks():
    rng = random.Random(1206)
    checked = 0
    while checked < 1000:
        track = random_ribbon_track(rng)
        if track is None:
            continue
        checked += 1
        basis = weight_lattice_basis(track)
        assert theta_matrix(track, basis) == reference_theta_matrix(track, basis)
        a = random_weight(track, basis, rng)
        b = random_weight(track, basis, rng)
        assert 2 * theta(track, a, b) == reference_theta_doubled(track, a, b)


def test_germ_pairs_of_hand_built_tracks():
    assert circle_track().germ_pairs == ()
    # side_a lists f, e, f left to right; side_b holds e alone
    assert unorientable_even_track().germ_pairs == ((1, 0), (1, 1), (0, 1))


def test_theta_matrix_is_exact_past_64_bits(grid_tracks, grid_bases):
    track = grid_tracks[(2, 1)]
    basis = grid_bases[(2, 1)]
    scale = 2 ** 40
    scaled = [tuple(scale * x for x in vec) for vec in basis]
    small = theta_matrix(track, basis)
    assert any(v for row in small for v in row)
    assert theta_matrix(track, scaled) == [[scale * scale * v for v in row] for row in small]
    i, j = next((i, j) for i, row in enumerate(small) for j, v in enumerate(row) if v)
    assert theta(track, scaled[i], scaled[j]) == 2 ** 80 * small[i][j]


def test_odd_doubled_pairing_raises(grid_tracks):
    track = grid_tracks[(1, 1)]
    left, right = track.germ_pairs[0]
    e_left = tuple(int(k == left) for k in range(track.branch_count))
    e_right = tuple(int(k == right) for k in range(track.branch_count))
    assert reference_theta_doubled(track, e_left, e_right) in (1, -1)
    with pytest.raises(IntegralityViolation):
        theta(track, e_left, e_right)
    with pytest.raises(IntegralityViolation):
        theta_matrix(track, [e_left, e_right])
    for rows in ([e_left], np.array([e_left])):
        with pytest.raises(IntegralityViolation):
            theta_matrix(track, rows, [e_right])


# --- the one array pairing against the list form ---------------------------

def assert_doubled_pairings(track, rows, cols):
    """``intcore.doubled_pairings``, square and rectangular, equals ``theta_doubled`` entry by entry."""
    pairs = intcore.word_rows(track.germ_pairs, 2)
    a, b = intcore.as_array(rows), intcore.as_array(cols)
    square = intcore.doubled_pairings(pairs, a)
    assert square.tolist() == [[theta_doubled(track, x, y) for y in rows] for x in rows]
    rect = intcore.doubled_pairings(pairs, a, b)
    assert rect.shape == (len(rows), len(cols))
    assert rect.tolist() == [[theta_doubled(track, x, y) for y in cols] for x in rows]
    return square, rect


def test_doubled_pairings_on_ribbon_tracks():
    rng = random.Random(31)
    checked = 0
    while checked < 300:
        track = random_ribbon_track(rng)
        if track is None:
            continue
        checked += 1
        basis = weight_lattice_basis(track)
        if basis:
            cols = [random_weight(track, basis, rng) for _ in range(rng.randint(1, 3))]
            assert_doubled_pairings(track, basis, cols)


@pytest.mark.parametrize("scale", [1, 2 ** 54 + 1, 2 ** 70 + 1], ids=["int64", "past-53-bits", "past-62-bits"])
def test_doubled_pairings_on_a_flipped_triangulation(scale):
    # scaled rows put every product past the float64 bound (and past int64 at
    # 2**70), so the pairings run on Python ints and must still be exact
    track = from_triangulation(random_triangulation(2, 2, 300, 7))
    basis = [tuple(scale * x for x in vec) for vec in tree_basis(track)]
    rng = random.Random(scale)
    cols = [tuple(scale * x for x in random_weight(track, basis, rng)) for _ in range(4)]
    square, rect = assert_doubled_pairings(track, basis, cols)
    assert (square == -square.T).all() and square.any() and rect.any()
    if scale > 1:
        assert square.dtype == rect.dtype == object


def test_odd_rectangular_doubled_pairing_raises(grid_tracks):
    track = grid_tracks[(1, 1)]
    pairs = intcore.word_rows(track.germ_pairs, 2)
    left, right = track.germ_pairs[0]
    e_left, e_right = np.eye(track.branch_count, dtype=np.int64)[[left, right]]
    with pytest.raises(IntegralityViolation):
        intcore.doubled_pairings(pairs, e_left[None], e_right[None])


def test_theta_kernel_contains_punctures(grid_tracks, grid_bases):
    for gs, track in grid_tracks.items():
        for k in range(track.tri.punctures):
            eta = puncture_weight(track, k)
            for vec in grid_bases[gs]:
                assert theta(track, eta, vec) == 0


def test_puncture_weights(grid_tracks):
    track = grid_tracks[(1, 1)]
    eta = puncture_weight(track, 0)
    assert eta == (1,) * 6
    assert switch_sums(track, eta) == (2, 2, 2)
    for gs, track in grid_tracks.items():
        s = track.tri.punctures
        for k in range(s):
            eta = puncture_weight(track, k)
            assert set(eta) <= {0, 1, 2}
            assert is_weight_system(track, eta)
        with pytest.raises(IndexError):
            puncture_weight(track, s)
        # each branch side faces exactly one region, two sides per branch
        regs, _ = regions(track)
        totals = [0] * track.branch_count
        for reg in regs:
            for b, m in enumerate(branch_multiplicities(reg, track.branch_count)):
                totals[b] += m
        assert totals == [2] * track.branch_count


def test_switch_sum_round_trip(grid_tracks, grid_bases):
    for gs, track in grid_tracks.items():
        for vec in grid_bases[gs]:
            sums = switch_sums(track, vec)
            assert from_switch_sums(track, sums) == vec
        # injectivity on a sample pair
        rng = random.Random(3)
        a = random_weight(track, grid_bases[gs], rng)
        b = random_weight(track, grid_bases[gs], rng)
        if a != b:
            assert switch_sums(track, a) != switch_sums(track, b) or a == b


def test_parity_violation_names_triangle(grid_tracks):
    track = grid_tracks[(1, 1)]
    bad = (1,) + (0,) * (track.tri.edge_count - 1)
    with pytest.raises(ParityViolation) as info:
        from_switch_sums(track, bad)
    assert isinstance(info.value.triangle, int)


def test_local_inverse_formula(grid_tracks):
    # per-triangle solve: weights from sums (k_a + k_b - k_c) / 2, cyclically
    track = grid_tracks[(0, 3)]
    tri = track.tri
    for sums in itertools.product(range(-2, 3), repeat=tri.edge_count):
        total_parity_ok = True
        for t in range(tri.triangle_count):
            if sum(sums[tri.edge_of[(t, j)]] for j in range(3)) % 2:
                total_parity_ok = False
        if not total_parity_ok:
            continue
        w = from_switch_sums(track, sums)
        assert switch_sums(track, w) == tuple(sums)
        for t in range(tri.triangle_count):
            k = [sums[tri.edge_of[(t, j)]] for j in range(3)]
            for j in range(3):
                assert w[3 * t + j] == (k[j] + k[(j + 1) % 3] - k[(j + 2) % 3]) // 2


def test_census_once_punctured_torus(grid_tracks):
    regs, topo = regions(grid_tracks[(1, 1)])
    assert sorted(r.spikes for r in regs) == [0, 3, 3]
    assert (topo.genus, topo.n_even, topo.n_odd) == (1, 1, 2)


def test_census_thrice_punctured_sphere(grid_tracks):
    _, topo = regions(grid_tracks[(0, 3)])
    assert (topo.genus, topo.n_even, topo.n_odd) == (0, 3, 2)


@pytest.mark.parametrize("g,s", GRID)
def test_census_matches_surface_data(g, s, grid_tracks):
    regs, topo = regions(grid_tracks[(g, s)])
    assert topo.genus == g
    assert topo.n_even == s
    assert topo.n_odd == 4 * g + 2 * s - 4
    # triangle regions carry 3 spikes, puncture regions none
    assert sorted(r.spikes for r in regs) == [0] * s + [3] * (4 * g + 2 * s - 4)
    assert sorted(r.puncture for r in regs if contains_puncture(r)) == list(range(s))


def test_circle_track_census():
    regs, topo = regions(circle_track())
    assert topo.orientable
    assert len(regs) == 2
    assert all(r.spikes == 0 for r in regs)
    for reg in regs:
        assert region_weight_system(circle_track(), reg) == (1,)


def test_unorientable_fixture_census():
    track = unorientable_even_track()
    regs, topo = regions(track)
    assert not topo.orientable
    assert topo.n_odd == 0
    assert (topo.genus, topo.n_even) == (1, 1)
    assert [r.spikes for r in regs] == [2]


# --- the switch forest against the two separate walks ----------------------

def reference_is_connected(track):
    """Slow oracle: plain union-find over switches, then count the classes."""
    if track.switch_count == 0:
        return False
    parent = list(range(track.switch_count))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for b in range(track.branch_count):
        s1 = track.dart_slot[(b, 0)][0]
        s2 = track.dart_slot[(b, 1)][0]
        parent[find(s1)] = find(s2)
    return len({find(s) for s in range(track.switch_count)}) == 1


def assert_census_classes_match(track):
    expected = (reference_is_connected(track), is_orientable(track))
    assert (track.is_connected(), track.forest.orientable) == expected
    if expected[0]:
        assert regions(track)[1].orientable == expected[1]


def test_switch_classes_match_walks_on_fixtures_and_grid(grid_tracks):
    two_circles = disjoint_union(circle_track(), circle_track())
    mixed = disjoint_union(grid_tracks[(1, 1)], unorientable_even_track())
    for track in (circle_track(), unorientable_even_track(), two_circles, mixed,
                  *grid_tracks.values(), from_triangulation(standard_triangulation(16, 4))):
        assert_census_classes_match(track)
    assert (two_circles.is_connected(), two_circles.forest.orientable) == (False, True)
    assert (mixed.is_connected(), mixed.forest.orientable) == (False, False)
    empty = TrainTrack(0, [])
    assert (empty.is_connected(), empty.forest.orientable) == (False, True)


def test_switch_classes_match_walks_on_random_tracks():
    rng = random.Random(4242)
    seen = {(c, o): 0 for c in (False, True) for o in (False, True)}
    checked = 0
    while checked < 5000:
        track = random_ribbon_track(rng)
        if track is None:
            continue
        checked += 1
        assert_census_classes_match(track)
        seen[track.is_connected(), track.forest.orientable] += 1
    # every combination of connected and orientable actually occurred
    assert all(seen.values()), seen


def assert_forest_polarities(track):
    forest = track.forest
    ends, up, p = forest.ends, forest.up, forest.polarity
    tree = set()
    for s in range(track.switch_count):
        if up[s] is None:
            assert forest.roots[forest.component[s]] == s and p[s] == 1
            continue
        parent, b, cs, cp = up[s]
        tree.add(b)
        assert sorted(ends[b]) == sorted([(s, cs), (parent, cp)])
        assert cs * p[s] + cp * p[parent] == 0  # the polarity relation on every tree branch
        root = s
        while up[root] is not None:
            root = up[root][0]
        assert root == forest.roots[forest.component[s]]
    assert len(tree) == track.switch_count - len(forest.roots)
    assert all(forest.component[s] == forest.component[t] for (s, _), (t, _) in ends)
    # tree_basis keeps v_e alone, 1 on e and 0 on every other branch off the
    # tree, exactly when its walk leaves R_e = 0: then e is balanced
    off_tree = [e for e in range(track.branch_count) if e not in tree]
    alone = {next(e for e in off_tree if v[e]) for v in tree_basis(track)
             if sum(1 for e in off_tree if v[e]) == 1}
    balanced = set()
    for e in off_tree:
        (s, cs), (t, ct) = ends[e]
        if cs * p[s] + ct * p[t] == 0:
            balanced.add(e)
    assert alone == balanced
    assert forest.orientable == (len(balanced) == len(off_tree))


def test_forest_polarities_on_every_ribbon_track():
    rng = random.Random(7)
    unbalanced = 0
    for _ in range(2000):
        track = random_ribbon_track(rng)
        if track is not None:
            assert_forest_polarities(track)
            unbalanced += not track.forest.orientable
    assert unbalanced > 100


def test_forest_polarities_on_unions_and_grid(grid_tracks):
    for track in (disjoint_union(circle_track(), unorientable_even_track(), grid_tracks[(1, 2)]),
                  disjoint_union(circle_track(), circle_track()), TrainTrack(0, []),
                  *grid_tracks.values()):
        assert_forest_polarities(track)


def census_cases(case, grid_tracks):
    if case == "ribbon":
        rng = random.Random(11)
        draws = (random_ribbon_track(rng) for _ in itertools.count())
        return list(itertools.islice(filter(None, draws), 1000))
    if case == "fixtures":
        return [circle_track(), unorientable_even_track()]
    if case == "grid":
        return list(grid_tracks.values())
    return [from_triangulation(random_triangulation(16, 4, 1000, seed)) for seed in range(3)]


@pytest.mark.parametrize("case", ["ribbon", "fixtures", "grid", "flipped"])
def test_census_walk_matches_its_oracle(case, grid_tracks):
    tracks = census_cases(case, grid_tracks)
    connected = 0
    for track in tracks:
        if not track.is_connected():
            for census in (regions, ccw_regions):
                with pytest.raises(TrackError, match="not connected"):
                    census(track)
            continue
        connected += 1
        assert regions(track) == ccw_regions(track)
    assert connected > len(tracks) // 3


def test_disconnected_rejected():
    two_circles = TrainTrack(2, [([(0, 0)], [(0, 1)]), ([(1, 0)], [(1, 1)])])
    with pytest.raises(TrackError):
        regions(two_circles)


def test_region_weights_recover_punctures(grid_tracks):
    for gs, track in grid_tracks.items():
        regs, _ = regions(track)
        for reg in regs:
            if not contains_puncture(reg):
                continue
            got = region_weight_system(track, reg)
            eta = puncture_weight(track, reg.puncture)
            assert got == eta or got == tuple(-x for x in eta)


def test_region_weights_reject_odd_spikes(grid_tracks):
    track = grid_tracks[(1, 1)]
    regs, _ = regions(track)
    triangle_region = next(r for r in regs if r.spikes == 3)
    with pytest.raises(OddSpikesError):
        region_weight_system(track, triangle_region)


def test_region_weights_alternating_fixture():
    # one switch, two branches both crossing sides: single region, 2 spikes
    track = unorientable_even_track()
    regs, _ = regions(track)
    w = region_weight_system(track, regs[0])
    assert is_weight_system(track, w)
    # arcs (e f e) and (f): the f weight cancels, e is covered twice
    assert w[1] == 0 and abs(w[0]) == 2


def test_region_weights_lie_in_theta_kernel(grid_tracks, grid_bases):
    for gs, track in grid_tracks.items():
        regs, _ = regions(track)
        for reg in regs:
            if reg.spikes % 2:
                continue
            w = region_weight_system(track, reg)
            for vec in grid_bases[gs]:
                assert theta(track, w, vec) == 0


def test_theta_matrix_shape_and_rank(grid_tracks, grid_bases):
    from trackforms import skew_normal_form

    track = grid_tracks[(1, 1)]
    m = theta_matrix(track, grid_bases[(1, 1)])
    assert all(m[i][j] == -m[j][i] for i in range(3) for j in range(3))
    assert skew_normal_form(m).rank == 2
    m4 = theta_matrix(grid_tracks[(0, 4)], grid_bases[(0, 4)])
    assert skew_normal_form(m4).rank == 2


def test_track_json_round_trip(grid_tracks):
    track = grid_tracks[(1, 1)]
    again = TrainTrack.from_json_dict(track.to_json_dict())
    assert again.to_json_dict() == track.to_json_dict()
    with pytest.raises(TrackError):
        TrainTrack.from_json_dict({"branches": 1})
