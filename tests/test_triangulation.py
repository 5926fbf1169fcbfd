import hashlib
import json
import random

import pytest
from hypothesis import given, strategies as st

from trackforms import (
    IdealTriangulation,
    TriangulationError,
    from_triangulation,
    sigma_matrix,
    standard_triangulation,
    validate,
    verify_structure,
)
from trackforms.triangulation import diagnose, flip, random_triangulation, succession_counts

from conftest import GRID


@pytest.mark.parametrize("g,s,faces,edges", [(1, 1, 2, 3), (0, 3, 2, 3), (0, 4, 4, 6)])
def test_standard_counts(g, s, faces, edges):
    tri = standard_triangulation(g, s)
    assert tri.triangle_count == faces
    assert tri.edge_count == edges


@pytest.mark.parametrize("g,s", [(0, 1), (0, 2), (1, 0)])
def test_rejects_bad_signature(g, s):
    with pytest.raises(TriangulationError):
        standard_triangulation(g, s)


def test_once_punctured_torus_corner_cycle():
    tri = standard_triangulation(1, 1)
    diag = validate(tri)
    assert diag.ok
    assert (diag.genus, diag.punctures) == (1, 1)
    assert [len(c) for c in diag.corner_cycles] == [6]


def test_thrice_punctured_sphere_corner_cycles():
    tri = standard_triangulation(0, 3)
    diag = validate(tri)
    assert diag.punctures == 3
    assert sorted(len(c) for c in diag.corner_cycles) == [2, 2, 2]


def test_unglued_slot_reported():
    diag = diagnose(2, [((0, 0), (1, 0)), ((0, 1), (1, 1))])
    assert not diag.ok
    assert any("unglued" in e for e in diag.errors)


def test_non_involutive_gluing_reported():
    diag = diagnose(2, [((0, 0), (1, 0)), ((0, 0), (1, 1)),
                        ((0, 1), (1, 2)), ((0, 2), (1, 2))])
    assert not diag.ok
    assert any("twice" in e for e in diag.errors)


def test_self_glued_slot_reported():
    diag = diagnose(1, [((0, 0), (0, 0)), ((0, 1), (0, 2))])
    assert any("itself" in e for e in diag.errors)


def disjoint_gluing(*tris):
    """``(triangle count, gluings)`` of the disjoint union of ``tris``, triangles numbered in turn."""
    count, gluings = 0, []
    for tri in tris:
        gluings += [((a + count, i), (b + count, j)) for (a, i), (b, j) in tri.to_json_dict()["gluings"]]
        count += tri.triangle_count
    return count, gluings


@pytest.mark.parametrize("parts", [[(0, 3), (1, 1)], [(0, 3), (0, 3)]], ids=["pillow-torus", "two-pillows"])
def test_disconnected_gluing_is_refused(parts):
    # the pillow and the torus once passed as (0, 4); two pillows read genus -1
    count, gluings = disjoint_gluing(*(standard_triangulation(*gs) for gs in parts))
    diag = diagnose(count, gluings)
    assert diag.errors == ["gluing is not connected: its triangles form 2 components"]
    assert diag.genus is None and diag.punctures is None
    with pytest.raises(TriangulationError, match="form 2 components"):
        IdealTriangulation(count, gluings)


@pytest.mark.parametrize("g,s", GRID)
def test_euler_characteristic_recovery(g, s):
    tri = standard_triangulation(g, s)
    assert (tri.genus, tri.punctures) == (g, s)
    assert tri.edge_count == 6 * g + 3 * s - 6
    assert tri.triangle_count == 4 * g + 2 * s - 4


@pytest.mark.parametrize("g,s", GRID)
def test_corner_cycles_partition_corners(g, s):
    tri = standard_triangulation(g, s)
    corners = [c for cycle in tri.corner_cycles for c in cycle]
    assert len(corners) == 3 * tri.triangle_count
    assert len(set(corners)) == len(corners)


@pytest.mark.parametrize("g,s", GRID)
def test_sigma_antisymmetric_and_bounded(g, s):
    sig = sigma_matrix(standard_triangulation(g, s))
    n = len(sig)
    for i in range(n):
        assert sig[i][i] == 0
        for j in range(n):
            assert sig[i][j] == -sig[j][i]
            assert -2 <= sig[i][j] <= 2


def test_succession_counts_rows_sum_to_edge_ends():
    # every end of an edge is succeeded by exactly one end
    tri = standard_triangulation(1, 2)
    a = succession_counts(tri)
    for row in a:
        assert sum(row) == 2


def test_once_punctured_torus_sigma_entries():
    sig = sigma_matrix(standard_triangulation(1, 1))
    for i in range(3):
        for j in range(3):
            assert abs(sig[i][j]) == (2 if i != j else 0)


@given(st.sampled_from(GRID), st.randoms(use_true_random=False))
def test_sigma_invariant_under_triangle_relabeling(gs, rnd):
    tri = standard_triangulation(*gs)
    perm = list(range(tri.triangle_count))
    rnd.shuffle(perm)
    data = tri.to_json_dict()
    relabeled = IdealTriangulation(
        tri.triangle_count,
        [((perm[a[0]], a[1]), (perm[b[0]], b[1])) for a, b in
         [((p[0][0], p[0][1]), (p[1][0], p[1][1])) for p in data["gluings"]]],
    )
    # edge i of tri corresponds to the edge through the relabeled slot
    mapping = [relabeled.edge_of[(perm[t], k)] for (t, k), _ in tri.edges]
    sig = sigma_matrix(tri)
    sig2 = sigma_matrix(relabeled)
    n = tri.edge_count
    for i in range(n):
        for j in range(n):
            assert sig[i][j] == sig2[mapping[i]][mapping[j]]


def test_json_round_trip():
    tri = standard_triangulation(1, 2)
    again = IdealTriangulation.from_json_dict(json.loads(json.dumps(tri.to_json_dict(), sort_keys=True, indent=2)))
    assert again.to_json_dict() == tri.to_json_dict()
    assert (again.genus, again.punctures) == (1, 2)


# sha256 of standard_triangulation(g, s)'s sorted, indented JSON: a rewrite of the fan
# constructions must build the same triangulations, edge for edge.
STANDARD_JSON_SHA256 = {
    (0, 3): "1ca614f88ef853e41a94fcf85758e1657b85dff023c1a75e7f4f04d947254888",
    (0, 4): "73c19ab53625a6d45bbc7110580a9e0f56ec83625d92bda9503abae63acc0e43",
    (0, 5): "f20e54ece6821d52afd6d885de7df9206f625fbc48f03b6b5a1c3e4966755458",
    (1, 1): "e98054c130a00b40d09230fcdd5a24a54ea47cdf405c7fbc70d38883014e849b",
    (1, 2): "06698eecaedab4df66fd4b484f59c5549155ae1bdd3a46c415e7d43e6b4dc5a4",
    (2, 1): "4500f98a1e64aa3c630f2eba01113df9170b47550bb8b8641a3018567675fcc4",
    (3, 3): "5314867c2f78aa8b33b1ce1f6f84c2b38b90682463a7d4026f9bdd5910dc7013",
    (0, 12): "f22d1faa0c241f03f90314d3ef275ca81d1f75d2b0cbcec15f22f220979dc478",
    (16, 4): "52a713a0d7804cf17d065d1dfb0443267b0b55a6b27f9f62fb20faff29f02f83",
    (0, 30): "628cd55759ec9f0d2ab8c3e5b36c15a3f5f235782784dd0408fba5206363ed2f",
}


@pytest.mark.parametrize("g,s", list(STANDARD_JSON_SHA256))
def test_standard_triangulation_json_is_pinned(g, s):
    text = json.dumps(standard_triangulation(g, s).to_json_dict(), sort_keys=True, indent=2)
    assert hashlib.sha256(text.encode()).hexdigest() == STANDARD_JSON_SHA256[(g, s)]


def test_from_json_rejects_garbage():
    with pytest.raises(TriangulationError):
        IdealTriangulation.from_json_dict({"triangles": 2})


def test_large_signature_smoke():
    rng = random.Random(0)
    for _ in range(5):
        g, s = rng.randint(0, 3), rng.randint(1, 4)
        if 2 - 2 * g - s >= 0:
            continue
        tri = standard_triangulation(g, s)
        assert (tri.genus, tri.punctures) == (g, s)


# --- the flip graph ------------------------------------------------------------
# Flips connect all ideal triangulations of a surface (Hatcher 1991), so what
# the structure theorem reads off a triangulation must not move under a flip.

def flip_cases():
    """(triangulation, edge) for every flippable edge of the grid cells and of a flipped copy of each."""
    for g, s in GRID:
        for tri in (standard_triangulation(g, s), random_triangulation(g, s, 7, f"flip-graph/{g}/{s}")):
            for e, ((t1, _), (t2, _)) in enumerate(tri.edges):
                if t1 != t2:
                    yield tri, e


def has_self_folded_triangle(tri) -> bool:
    return any(t1 == t2 for (t1, _), (t2, _) in tri.edges)


def edge_after_flip(tri, edge, flipped):
    """The edge of ``flipped = flip(tri, edge)`` that each edge of ``tri`` becomes.

    The flip keeps every side slot outside its two triangles.  Of the
    quadrilateral a0 -> d -> a1 -> c they form, the outer side c -> a0 moves
    to slot (t1, 0), a0 -> d to (t1, 1), d -> a1 to (t2, 0), a1 -> c to
    (t2, 1), and the edge itself becomes the new diagonal at (t1, 2).
    """
    (t1, k1), (t2, k2) = tri.edges[edge]
    moved = {(t1, (k1 + 2) % 3): (t1, 0), (t2, (k2 + 1) % 3): (t1, 1),
             (t2, (k2 + 2) % 3): (t2, 0), (t1, (k1 + 1) % 3): (t2, 1), (t1, k1): (t1, 2)}
    return [flipped.edge_of[moved.get(slot, slot)] for slot, _ in tri.edges]


def mutation(b, k):
    """The matrix mutation mu_k of a skew-symmetric integer matrix (Fomin-Zelevinsky)."""
    n = len(b)
    return [[-b[i][j] if k in (i, j)
             else b[i][j] + (abs(b[i][k]) * b[k][j] + b[i][k] * abs(b[k][j])) // 2
             for j in range(n)] for i in range(n)]


def test_structure_report_is_invariant_under_flips():
    reports = {}  # keyed by the triangulation object, which it keeps alive
    for tri, e in flip_cases():
        if tri not in reports:
            reports[tri] = verify_structure(from_triangulation(tri))
        report = verify_structure(from_triangulation(flip(tri, e)))
        assert report == reports[tri] and report.eta_kernel_match, (tri, e)


def test_sigma_mutates_under_flips():
    # Fomin-Shapiro-Thurston 2008: away from self-folded triangles, the
    # signed adjacency matrix of the flipped triangulation is mu_e of the old one
    checked = 0
    for tri, e in flip_cases():
        flipped = flip(tri, e)
        if has_self_folded_triangle(tri) or has_self_folded_triangle(flipped):
            continue
        image = edge_after_flip(tri, e, flipped)
        assert sorted(image) == list(range(tri.edge_count))
        sigma = sigma_matrix(flipped)
        expected = mutation(sigma_matrix(tri), e)
        assert [[sigma[i][j] for j in image] for i in image] == expected, (tri, e)
        checked += 1
    assert checked >= 20
