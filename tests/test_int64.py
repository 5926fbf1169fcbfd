"""The int64 structure stages against the Python-int ones they replace.

``lattice.INT64_MIN_ROWS`` picks the path: 0 sends every matrix to the int64
routines, a huge cutoff keeps every matrix on Python ints.  Both must give
the same basis, theta matrix, ``U``, ``V``, blocks and verdicts.
"""

import random

import numpy as np
import pytest

from trackforms import (
    TrainTrack,
    from_triangulation,
    intcore,
    lattice,
    skew_normal_form,
    standard_triangulation,
    theta_matrix,
    verify_structure,
    weight_lattice_basis,
)
from trackforms.lattice import NormalForm, _combine, certify_normal_form
from trackforms.triangulation import TriangulationError, flip, random_triangulation

from conftest import GRID, normal_form_events, random_ribbon_track
from oracles import block_matrix, switch_matrix

INT64, LISTS = 0, 10 ** 9


def stages(track, cutoff, monkeypatch):
    monkeypatch.setattr(lattice, "INT64_MIN_ROWS", cutoff)
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
    # On the Hermite basis the flipped forms fold, so U and V are replayed
    # from the fold on; the fans' pairs all clear in one sweep.
    events = normal_form_events(monkeypatch)
    tri = random_triangulation(g, s, flips, seed=f"int64/{g}/{s}") if flips else \
        standard_triangulation(g, s)
    nf = assert_paths_agree(from_triangulation(tri), monkeypatch, certify_lists)
    assert [e[2] for e in events if e[0] == "replay"] == (["fold"] if flips else [])
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
    monkeypatch.setattr(lattice, "INT64_MIN_ROWS", INT64)
    events = normal_form_events(monkeypatch)
    nf = skew_normal_form(m)
    assert events[1][::2] == ("replay", "sweep")
    assert max(abs(x).bit_length() for row in nf.U for x in row) > 1000
    if seed == 0:  # a second certificate of thousands of bits adds a second, not coverage
        assert certify_normal_form(nf, m)
    monkeypatch.setattr(lattice, "INT64_MIN_ROWS", LISTS)
    assert skew_normal_form(m) == nf


def product_tiers(monkeypatch):
    """Record the tier of every update of the normal form's row arrays, after its bound is raised.

    Each entry is ``(part, tier)``: part 0 is the loop's ``M`` and part 1
    the replayed ``[U | V^T]``, and the tier is the array's dtype: float64,
    int64 or object.
    """
    tiers, parts = [], {}
    grow = intcore._Tiers.grow

    def recorded(self, raise_, live):
        moved = grow(self, raise_, live)
        tiers.append((parts.setdefault(id(self), len(parts)), str(self.a.dtype)))
        return moved

    monkeypatch.setattr(intcore._Tiers, "grow", recorded)
    return tiers, parts


def test_normal_form_crosses_62_bits_mid_elimination(monkeypatch):
    # Small entries start on float64.  Past FLOAT_BITS the updates run on
    # int64, back on float64 once a measurement finds the entries small, and
    # past WORD_BITS on Python ints for good.  The loop reduces M through
    # these tiers; the forms need second sweeps, so U and V^T are replayed
    # through them too, and U ends past 62 bits, which int64 cannot hold.
    # Every tier takes the list path's steps.
    tiers, parts = product_tiers(monkeypatch)
    floats, words, objects = "float64", "int64", "object"
    for seed, n, bound, runs in [
            (0, 16, 9, [(0, floats), (0, words), (0, objects), (1, floats), (1, words), (1, objects)]),
            (1, 24, 2, [(0, floats), (0, words), (0, floats), (0, objects),
                        (1, floats), (1, words), (1, objects)])]:
        m = random_skew(random.Random(seed), n, bound)
        assert intcore.as_array(m).dtype == "int64"
        tiers.clear()
        parts.clear()
        results = []
        for cutoff in (INT64, LISTS):
            monkeypatch.setattr(lattice, "INT64_MIN_ROWS", cutoff)
            results.append(skew_normal_form(m))
        assert [t for k, t in enumerate(tiers) if not k or tiers[k - 1] != t] == runs
        assert results[0] == results[1]
        assert max(abs(x).bit_length() for row in results[0].U for x in row) > 62
        assert certify_normal_form(results[0], m)


def test_normal_form_on_a_divisible_form(monkeypatch):
    # Every entry a multiple of 6: no entry of magnitude 1 exists, so the first
    # pivot comes from the search of the block; after a block of 6 the pivots
    # of magnitude 6 need no fold check, and a larger one still gets it.
    m = [[6 * x for x in row] for row in random_skew(random.Random(2), 24, 1)]
    monkeypatch.setattr(lattice, "INT64_MIN_ROWS", INT64)
    events = normal_form_events(monkeypatch)
    nf = skew_normal_form(m)
    assert events[1][::2] == ("replay", "sweep")
    assert nf.blocks == (6,) * 11 + (289020,)
    assert certify_normal_form(nf, m)
    monkeypatch.setattr(lattice, "INT64_MIN_ROWS", LISTS)
    assert skew_normal_form(m) == nf


def test_normal_form_tuples_are_made_when_read(monkeypatch):
    track = from_triangulation(standard_triangulation(2, 3))
    m = theta_matrix(track, weight_lattice_basis(track))
    monkeypatch.setattr(lattice, "INT64_MIN_ROWS", INT64)
    nf = skew_normal_form(m)
    u, v = nf.arrays
    assert not u.flags.writeable and not v.flags.writeable
    assert certify_normal_form(nf, m) and nf.nullity == len(m) - nf.rank
    assert nf._U is None and nf._V is None  # the certificate reads the arrays
    assert nf.U == tuple(map(tuple, u.tolist())) and nf.V == tuple(map(tuple, v.tolist()))
    assert all(type(x) is int for row in nf.U + nf.V for x in row)
    monkeypatch.setattr(lattice, "INT64_MIN_ROWS", LISTS)
    listed = skew_normal_form(m)
    assert listed.arrays is None
    assert listed == nf and hash(listed) == hash(nf) and repr(listed) == repr(nf)
    assert NormalForm(nf.U, nf.blocks, nf.V) == nf != NormalForm(nf.U, nf.blocks + (1,), nf.V)


def test_switch_array_matches_the_lists(grid_tracks):
    # the algebra builds the switch matrix from the darts; ribbon tracks put
    # both ends of a branch on one switch, or on one side
    rng = random.Random(3)
    ribbons = [t for t in (random_ribbon_track(rng) for _ in range(200)) if t is not None]
    tracks = list(grid_tracks.values()) + [from_triangulation(standard_triangulation(16, 4))]
    for track in tracks + ribbons:
        a = intcore.switch_matrix(track.switches, track.branch_count)
        assert a.dtype == np.int64
        assert a.tolist() == switch_matrix(track)


def test_many_switches_and_a_short_basis(monkeypatch):
    # A circle through 25 bivalent switches: the basis is a one-row array,
    # and theta's 1 x 1 array takes the normal form's list path.
    n = 25
    track = TrainTrack(n, [([(i, 1)], [((i + 1) % n, 0)]) for i in range(n)])
    reports = []
    for cutoff in (lattice.INT64_MIN_ROWS, LISTS):
        monkeypatch.setattr(lattice, "INT64_MIN_ROWS", cutoff)
        reports.append(verify_structure(track))
    assert reports[0] == reports[1]
    assert reports[0].passed and reports[0].nullity == 1


def certificate_past_62_bits(blocks):
    """``U = I + 2**70 E_02``, its inverse ``V`` and ``M = V D V^T`` at n = 20.

    ``U M U^T = D`` with ``U V = I``, and ``U``, ``V`` and ``M`` hold entries
    past 62 bits, so every product of the certificate runs on Python ints.
    (``E_01`` would keep ``M = D``: it is a transvection of the first block.)
    """
    n, big = 20, 2 ** 70
    u = [[int(i == j) + big * ((i, j) == (0, 2)) for j in range(n)] for i in range(n)]
    v = [[int(i == j) - big * ((i, j) == (0, 2)) for j in range(n)] for i in range(n)]
    d = [list(r) for r in block_matrix(NormalForm(u, blocks, v))]
    vd = [[sum(v[i][k] * d[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    m = [[sum(vd[i][k] * v[j][k] for k in range(n)) for j in range(n)] for i in range(n)]
    return u, v, m


def _bumped(rows, i, j, pair=False):
    """A copy of ``rows`` with entry ``(i, j)`` raised by 1, and ``(j, i)`` lowered if ``pair``."""
    out = [list(r) for r in rows]
    out[i][j] += 1
    if pair:
        out[j][i] -= 1
    return out


@pytest.mark.parametrize("cutoff", [INT64, LISTS], ids=["int64", "lists"])
def test_certificate_is_exact_past_62_bits(cutoff, monkeypatch):
    monkeypatch.setattr(lattice, "INT64_MIN_ROWS", cutoff)
    blocks = (1, 1, 2, 2, 6)
    u, v, m = certificate_past_62_bits(blocks)
    assert intcore.as_array(u).dtype == object and intcore.as_array(m).dtype == object
    assert certify_normal_form(NormalForm(u, blocks, v), m)
    # D is built from the blocks: one changed block is refused, a 71-bit one accepted
    assert not certify_normal_form(NormalForm(u, (1, 1, 2, 2, 12), v), m)
    assert not certify_normal_form(NormalForm(u, (1, 1, 2, 2), v), m)
    assert not certify_normal_form(NormalForm(u, (1,) * 11, v), m)  # 22 rows of blocks
    huge = (1, 1, 2, 2, 2 ** 70)
    assert certify_normal_form(NormalForm(u, huge, v), certificate_past_62_bits(huge)[2])
    for i, j in [(0, 2), (2, 0), (0, 5), (7, 3), (19, 19)]:
        assert not certify_normal_form(NormalForm(_bumped(u, i, j), blocks, v), m)
        assert not certify_normal_form(NormalForm(u, blocks, _bumped(v, i, j)), m)
    for i, j in [(0, 1), (0, 3), (2, 5), (10, 11), (18, 19)]:
        assert not certify_normal_form(NormalForm(u, blocks, v), _bumped(m, i, j, pair=True))


def random_product(rng, bits, k=11):
    """``a`` (5 x k) and ``b`` (k x 7) whose ``matmul`` bound is exactly ``bits``.

    The bound is ``max_bits(a) + max_bits(b) + bits(k)``.  Row 0 of ``a`` and
    column 0 of ``b`` hold the largest entries with one sign, so entry
    ``(0, 0)`` of the product is close to the bound.
    """
    ab = (bits - k.bit_length()) // 2
    bb = bits - k.bit_length() - ab
    a = [[rng.randint(-2 ** ab + 1, 2 ** ab - 1) for _ in range(k)] for _ in range(5)]
    b = [[rng.randint(-2 ** bb + 1, 2 ** bb - 1) for _ in range(7)] for _ in range(k)]
    a[0] = [2 ** ab - 1 - 2 * c for c in range(k)]
    for c in range(k):
        b[c][0] = 2 ** bb - 1 - 2 * c
    a, b = intcore.as_array(a), intcore.as_array(b)
    assert intcore.max_bits(a) + intcore.max_bits(b) + k.bit_length() == bits
    return a, b


@pytest.mark.parametrize("bits", [52, 53, 54, 62, 63])
def test_matmul_is_exact_on_both_sides_of_the_float_bound(bits):
    rng = random.Random(bits)
    for _ in range(3):
        a, b = random_product(rng, bits)
        exact = a.astype(object) @ b.astype(object)
        product = intcore.matmul(a, b)
        assert product.tolist() == exact.tolist()
        # float64 BLAS up to its 53-bit significand, Python ints past it
        assert product.dtype == (np.int64 if bits <= 53 else object)
    assert abs(int(exact[0, 0])).bit_length() >= bits - 2  # near the bound, not far below


def test_matmul_small_object_inputs_and_empty_products():
    a = np.array([[1, -2], [3, 4]], dtype=object)
    assert intcore.matmul(a, a).tolist() == [[-5, -10], [15, 10]]
    assert intcore.matmul(a, a).dtype == np.int64
    empty = intcore.matmul(np.zeros((3, 0), dtype=np.int64), np.zeros((0, 4), dtype=np.int64))
    assert empty.tolist() == [[0] * 4] * 3
    # 2**54 + 2**28 + 1 needs 55 bits: float64 would round it to 2**54 + 2**28
    x = np.array([[2 ** 27 + 1]], dtype=np.int64)
    assert intcore.matmul(x, x).tolist() == [[(2 ** 27 + 1) ** 2]]


def reference_combine(coeffs, basis):
    """One combination at a time, one multiply-add per coefficient and entry."""
    out = [0] * len(basis[0])
    for c, vec in zip(coeffs, basis):
        for i, x in enumerate(vec):
            out[i] += c * x
    return tuple(out)


@pytest.mark.parametrize("bits", [3, 40, 70])
def test_combine_agrees_with_reference(bits, monkeypatch):
    # products of 40-bit entries pass 64 bits, and 70-bit entries do alone;
    # both paths, and an array basis, give tuples of Python ints
    rng = random.Random(bits)
    for size in (1, 5, 25):
        basis = [[rng.randint(-2 ** bits, 2 ** bits) for _ in range(7)] for _ in range(size)]
        rows = [[rng.randint(-2 ** bits, 2 ** bits) for _ in range(size)] for _ in range(3)]
        expected = [reference_combine(row, basis) for row in rows]
        for cutoff in (INT64, LISTS):
            monkeypatch.setattr(lattice, "INT64_MIN_ROWS", cutoff)
            for b in (basis, intcore.as_array(basis)):
                got = _combine(rows, b)
                assert got == expected
                assert all(type(v) is tuple and all(type(x) is int for x in v) for v in got)
        for cutoff in (INT64, size):  # the basis past and at the cutoff
            monkeypatch.setattr(lattice, "INT64_MIN_ROWS", cutoff)
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
