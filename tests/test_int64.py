"""The int64 structure stages against the Python-int ones they replace.

``traintrack.INT64_MIN_ROWS`` picks the path: 0 sends every matrix to the int64
routines, a huge cutoff keeps every matrix on Python ints.  Both must give
the same basis, theta matrix, ``U``, ``V``, blocks and verdicts.
"""

import random

import pytest

from trackforms import (
    from_triangulation,
    intcore,
    skew_normal_form,
    standard_triangulation,
    theta_matrix,
    traintrack,
    verify_structure,
    weight_lattice_basis,
)
from trackforms.lattice import _combine, certify_normal_form, hermite_normal_form
from trackforms.lattice import integer_kernel, integer_kernel_basis
from trackforms.traintrack import switch_matrix
from trackforms.triangulation import TriangulationError, flip, random_triangulation

from conftest import GRID

INT64, LISTS = 0, 10 ** 9


def stages(track, cutoff, monkeypatch):
    monkeypatch.setattr(traintrack, "INT64_MIN_ROWS", cutoff)
    basis = weight_lattice_basis(track)
    m = theta_matrix(track, basis)
    return basis, m, skew_normal_form(m)


def assert_paths_agree(track, monkeypatch, certify_lists=True):
    """Same stages on both paths, and both certificates accept them.

    The structure report is a function of the census, ``U``, the blocks and
    the certificate's verdict, so equal stages and equal verdicts give equal
    reports.
    """
    basis, m, nf = stages(track, INT64, monkeypatch)
    assert certify_normal_form(nf, m)
    report = verify_structure(track)
    assert report.passed and report.eta_kernel_match
    assert (basis, m, nf) == stages(track, LISTS, monkeypatch)
    assert all(type(x) is int for row in nf.U for x in row)
    if certify_lists:
        assert certify_normal_form(nf, m)
    return nf


@pytest.mark.parametrize("g,s", GRID)
def test_grid_cells(g, s, grid_tracks, monkeypatch):
    assert_paths_agree(grid_tracks[(g, s)], monkeypatch)


@pytest.mark.parametrize("g,s,flips,certify_lists", [
    (16, 4, 0, True),
    (0, 30, 0, True),
    (32, 4, 0, False),
    (16, 4, 1000, True),
    (24, 4, 3000, False),
], ids=["fan(16,4)", "fan(0,30)", "fan(32,4)", "flipped(16,4)x1000", "flipped(24,4)x3000"])
def test_large_triangulations(g, s, flips, certify_lists, monkeypatch):
    # The Python-int certificate of the two largest costs seconds; their
    # int64 certificate is checked, and the Python one on the other three.
    tri = random_triangulation(g, s, flips, seed=f"int64/{g}/{s}") if flips else \
        standard_triangulation(g, s)
    nf = assert_paths_agree(from_triangulation(tri), monkeypatch, certify_lists)
    if flips == 3000:  # coefficient growth that the fans hide
        assert max(abs(x).bit_length() for row in nf.U for x in row) > 30


def random_skew(rng, n, bound=9):
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            m[i][j] = rng.randint(-bound, bound)
            m[j][i] = -m[i][j]
    return m


@pytest.mark.parametrize("seed", [0, 1])
def test_dense_random_matrices_widen_to_python_ints(seed, monkeypatch):
    m = random_skew(random.Random(seed), 60)
    assert intcore.as_array(m).dtype == "int64"  # the elimination starts on int64
    monkeypatch.setattr(traintrack, "INT64_MIN_ROWS", INT64)
    nf = skew_normal_form(m)
    assert max(abs(x).bit_length() for row in nf.U for x in row) > 1000
    if seed == 0:  # a second certificate of thousands of bits adds a second, not coverage
        assert certify_normal_form(nf, m)
    monkeypatch.setattr(traintrack, "INT64_MIN_ROWS", LISTS)
    assert skew_normal_form(m) == nf


def test_normal_form_crosses_62_bits_mid_elimination(monkeypatch):
    # Entries of at most 9 start on int64; U ends at 92 bits, which int64
    # cannot hold, so the state widened to Python ints on the way.
    m = random_skew(random.Random(0), 16)
    assert intcore.as_array(m).dtype == "int64"
    results = []
    for cutoff in (INT64, LISTS):
        monkeypatch.setattr(traintrack, "INT64_MIN_ROWS", cutoff)
        results.append(skew_normal_form(m))
    assert results[0] == results[1]
    assert max(abs(x).bit_length() for row in results[0].U for x in row) > 62
    assert certify_normal_form(results[0], m)


def test_kernel_crosses_62_bits_mid_elimination(monkeypatch):
    # x_i = 2 x_(i+1): the kernel is spanned by (2**70, 2**69, ..., 1).
    n = 71
    matrix = [[int(j == i) - 2 * int(j == i + 1) for j in range(n)] for i in range(n - 1)]
    results = []
    for cutoff in (INT64, LISTS):
        monkeypatch.setattr(traintrack, "INT64_MIN_ROWS", cutoff)
        results.append((integer_kernel(matrix), integer_kernel_basis(matrix)))
    assert results[0] == results[1]
    assert results[0][1] == [[2 ** (n - 1 - i) for i in range(n)]]


def test_elimination_kernels_agree(grid_tracks, monkeypatch):
    # the rows verify_structure reduces on, before any Hermite step
    tracks = list(grid_tracks.values()) + [
        from_triangulation(standard_triangulation(16, 4)),
        from_triangulation(standard_triangulation(0, 30)),
        from_triangulation(random_triangulation(16, 4, 1000, seed="int64/16/4")),
    ]
    for track in tracks:
        a = switch_matrix(track)
        results = []
        for cutoff in (INT64, LISTS):
            monkeypatch.setattr(traintrack, "INT64_MIN_ROWS", cutoff)
            results.append(integer_kernel(a))
        assert results[0] == results[1]
        assert all(type(x) is int for row in results[0] for x in row)


def test_hermite_forms_agree():
    # the array Hermite loop of the int64 kernel against the list Hermite form
    rng = random.Random(17)
    for _ in range(20):
        rows = [[rng.randint(-9, 9) for _ in range(6)] for _ in range(rng.randint(1, 30))]
        array_form = intcore._hermite_rows(intcore.Rows(intcore.as_array(rows)))
        assert tuple(map(tuple, array_form)) == hermite_normal_form(rows)


def reference_combine(coeffs, basis):
    """One combination at a time, one multiply-add per coefficient and entry."""
    out = [0] * len(basis[0])
    for c, vec in zip(coeffs, basis):
        for i, x in enumerate(vec):
            out[i] += c * x
    return tuple(out)


@pytest.mark.parametrize("bits", [3, 40, 70])
def test_combine_agrees_with_reference(bits):
    # products of 40-bit entries pass 64 bits, and 70-bit entries do alone
    rng = random.Random(bits)
    for size in (1, 5, 25):
        basis = [[rng.randint(-2 ** bits, 2 ** bits) for _ in range(7)] for _ in range(size)]
        rows = [[rng.randint(-2 ** bits, 2 ** bits) for _ in range(size)] for _ in range(3)]
        assert _combine(rows, basis) == [reference_combine(row, basis) for row in rows]
    assert _combine([], basis) == []


# --- flips ------------------------------------------------------------------

@pytest.mark.parametrize("g,s", GRID + [(4, 2)])
def test_flipped_triangulations_obey_structure_theorem(g, s):
    for seed in range(3):
        for flips in (1, 5, 40):
            tri = random_triangulation(g, s, flips, seed)
            assert (tri.genus, tri.punctures) == (g, s)
            report = verify_structure(from_triangulation(tri))
            assert report.passed and report.eta_kernel_match, (seed, flips, report)


def test_flip_keeps_the_surface_and_rejects_self_folded_edges():
    folded = 0
    for g, s in GRID + [(4, 2)]:
        tri = standard_triangulation(g, s)
        for e, ((t1, _), (t2, _)) in enumerate(tri.edges):
            if t1 == t2:
                folded += 1
                with pytest.raises(TriangulationError, match="both sides"):
                    flip(tri, e)
                continue
            flipped = flip(tri, e)
            assert (flipped.genus, flipped.punctures) == (g, s)
            assert flipped.edge_count == tri.edge_count
    assert folded > 0
