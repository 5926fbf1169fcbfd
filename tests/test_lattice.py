import dataclasses
import itertools
import random

import pytest
from hypothesis import given, strategies as st

from trackforms import (
    NormalForm,
    lattice_equal,
    puncture_weight,
    skew_normal_form,
    theta_matrix,
    verify_structure,
)
from trackforms import lattice
from trackforms.lattice import (
    _combine,
    certify_normal_form,
    hermite_normal_form,
    predicted_blocks,
)

from conftest import GRID, circle_track, random_ribbon_track, unorientable_even_track
from oracles import block_matrix, integer_kernel, kernel_basis, kernel_rows, normal_form_json


# --- reference oracles: plain definitions the certificate no longer uses ----

def mat_mul(a, b) -> list[list[int]]:
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        for k in range(inner):
            f = a[i][k]
            if f:
                for j in range(cols):
                    out[i][j] += f * b[k][j]
    return out


def transpose(a) -> list[list[int]]:
    return [list(col) for col in zip(*a)]


def integer_det(matrix) -> int:
    """Determinant by fraction-free Bareiss elimination."""
    n = len(matrix)
    if n == 0:
        return 1
    m = [list(row) for row in matrix]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def random_skew(rng, n, bound=9):
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = rng.randint(-bound, bound)
            m[i][j] = v
            m[j][i] = -v
    return m


def test_already_normal_unit_block():
    nf = skew_normal_form([[0, 1], [-1, 0]])
    assert nf.blocks == (1,)
    assert nf.nullity == 0
    assert [list(r) for r in nf.U] == [[1, 0], [0, 1]]


def test_already_normal_even_block():
    nf = skew_normal_form([[0, 2], [-2, 0]])
    assert nf.blocks == (2,)


def test_zero_matrix_kernel():
    nf = skew_normal_form([[0] * 3 for _ in range(3)])
    assert nf.blocks == ()
    assert nf.nullity == 3
    assert len(kernel_basis([[0] * 3 for _ in range(3)])) == 3


def test_rejects_non_antisymmetric():
    with pytest.raises(ValueError):
        skew_normal_form([[0, 1], [1, 0]])
    with pytest.raises(ValueError):
        skew_normal_form([[0, 1, 0], [-1, 0, 0]])


@given(st.randoms(use_true_random=False))
def test_random_certificates(rnd):
    n = rnd.randint(1, 8)
    m = random_skew(rnd, n)
    nf = skew_normal_form(m)
    assert certify_normal_form(nf, m)
    assert nf.rank + nf.nullity == n
    assert nf.rank % 2 == 0


def test_determinism_and_idempotence():
    rng = random.Random(99)
    m = random_skew(rng, 6)
    nf1 = skew_normal_form(m)
    nf2 = skew_normal_form(m)
    assert nf1 == nf2
    again = skew_normal_form([list(r) for r in block_matrix(nf1)])
    assert block_matrix(again) == block_matrix(nf1)
    assert again.blocks == nf1.blocks


def test_divisibility_chain():
    rng = random.Random(5)
    for _ in range(50):
        m = random_skew(rng, rng.randint(2, 7))
        blocks = skew_normal_form(m).blocks
        for a, b in zip(blocks, blocks[1:]):
            assert b % a == 0 and 0 < a <= b


def test_kernel_rows_annihilate():
    rng = random.Random(7)
    for _ in range(20):
        n = rng.randint(2, 7)
        m = random_skew(rng, n)
        for row in kernel_basis(m):
            assert all(sum(r * m[i][j] for i, r in enumerate(row)) == 0 for j in range(n))


def test_hermite_canonical():
    assert hermite_normal_form([[2, 0], [0, 1]]) == ((2, 0), (0, 1))
    assert hermite_normal_form([[1, 1], [0, 1]]) == ((1, 0), (0, 1))
    assert hermite_normal_form([[0, 0]]) == ()


def test_lattice_equal_cases():
    assert not lattice_equal([(2, 0)], [(1, 0)])
    assert lattice_equal([(1, 1), (0, 1)], [(1, 0), (0, 1)])
    assert lattice_equal([], [])
    with pytest.raises(ValueError):
        lattice_equal([(1, 0)], [(1, 0, 0)])


@given(st.randoms(use_true_random=False))
def test_lattice_equal_under_unimodular_moves(rnd):
    n = rnd.randint(1, 4)
    rows = [[rnd.randint(-4, 4) for _ in range(n + 1)] for _ in range(n)]
    moved = [list(r) for r in rows]
    for _ in range(5):
        i, j = rnd.randrange(n), rnd.randrange(n)
        if i != j:
            q = rnd.randint(-2, 2)
            moved[i] = [x + q * y for x, y in zip(moved[i], moved[j])]
    assert lattice_equal(rows, moved)


def test_hermite_kernel_basis_small():
    # x + y = 0 over the integers
    basis = hermite_normal_form(integer_kernel([[1, 1]]))
    assert lattice_equal(basis, [(1, -1)])


def test_hermite_kernel_basis_is_saturated():
    # every small integer kernel vector already lies in the lattice of the basis
    rng = random.Random(2024)
    for _ in range(60):
        rows, cols = rng.randint(1, 3), rng.randint(2, 4)
        m = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
        basis = hermite_normal_form(integer_kernel(m))
        for v in basis:
            assert all(sum(x * y for x, y in zip(row, v)) == 0 for row in m)
        for v in itertools.product(range(-2, 3), repeat=cols):
            if all(sum(x * y for x, y in zip(row, v)) == 0 for row in m):
                assert lattice_equal(basis, basis + (v,)), (m, v)


def test_integer_det():
    assert integer_det([[2, 0], [0, 3]]) == 6
    assert integer_det([[0, 1], [1, 0]]) == -1
    assert integer_det([[1, 2], [2, 4]]) == 0


def test_bareiss_matches_definition():
    rng = random.Random(11)
    for _ in range(20):
        n = rng.randint(1, 4)
        m = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        import itertools

        brute = 0
        for perm in itertools.permutations(range(n)):
            sign = 1
            for i in range(n):
                for j in range(i + 1, n):
                    if perm[i] > perm[j]:
                        sign = -sign
            term = sign
            for i in range(n):
                term *= m[i][perm[i]]
            brute += term
        assert integer_det(m) == brute


@pytest.mark.parametrize("g,s", GRID)
def test_structure_grid(g, s, grid_tracks):
    report = verify_structure(grid_tracks[(g, s)])
    assert report.passed
    assert report.computed_blocks == tuple(sorted([1] * g + [2] * (2 * g + s - 3)))
    assert report.nullity == s
    assert report.eta_kernel_match


def test_report_keeps_its_certified_normal_form(grid_tracks):
    track = grid_tracks[(2, 1)]
    report = verify_structure(track)
    _, nf = lattice.certified_form(track)
    assert report.normal_form == nf and report.rank == nf.rank
    # held for callers, not printed and not compared
    assert "normal_form" not in report.to_json_dict() and "normal_form" not in repr(report)
    assert report == dataclasses.replace(report, normal_form=None)


def test_kernel_lattice_is_eta_lattice(grid_tracks, grid_bases):
    for gs, track in grid_tracks.items():
        basis = grid_bases[gs]
        nf = skew_normal_form(theta_matrix(track, basis))
        kernel_branch = _combine(kernel_rows(nf), basis)
        etas = [puncture_weight(track, k) for k in range(track.tri.punctures)]
        assert lattice_equal(kernel_branch, etas)


def test_once_punctured_torus_block_pattern(grid_tracks):
    report = verify_structure(grid_tracks[(1, 1)])
    assert report.computed_blocks == (1,)
    assert report.nullity == 1


def test_twice_punctured_genus_two(grid_tracks):
    report = verify_structure(grid_tracks[(2, 1)])
    assert report.computed_blocks == (1, 1, 2, 2)
    assert report.nullity == 1


def test_orientable_even_fixture_passes():
    report = verify_structure(circle_track())
    assert report.case == "all regions even-spiked, orientable"
    assert report.passed
    assert report.computed_blocks == ()
    assert report.nullity == 1  # n_even - 1


def test_unorientable_even_fixture_passes():
    report = verify_structure(unorientable_even_track())
    assert report.case == "all regions even-spiked, non-orientable"
    assert report.passed
    assert report.genus == 1
    # rank arithmetic: rank = 2h + n_even - 2 leaves h - 1 = 0 paired blocks
    assert report.computed_blocks == ()
    assert report.nullity == 1


def test_predicted_blocks_cases():
    assert predicted_blocks(2, 3, 4, False) == ((1, 1, 2), 3)
    assert predicted_blocks(1, 2, 0, True) == ((1,), 1)
    assert predicted_blocks(1, 2, 0, False) == ((), 2)


def test_random_ribbon_tracks_obey_structure_theorem():
    rng = random.Random(31415)
    cases = {"odd": 0, "orientable": 0, "non-orientable": 0}
    checked = 0
    while checked < 250:
        track = random_ribbon_track(rng)
        if track is None or not track.is_connected():
            continue
        checked += 1
        report = verify_structure(track)
        assert report.passed, report
        if report.n_odd > 0:
            cases["odd"] += 1
        elif report.orientable:
            cases["orientable"] += 1
        else:
            cases["non-orientable"] += 1
    # make sure all three theorem cases actually occurred
    assert all(v > 0 for v in cases.values()), cases


def test_normal_form_certificate_composition():
    rng = random.Random(2)
    m = random_skew(rng, 5)
    nf = skew_normal_form(m)
    u = [list(r) for r in nf.U]
    assert mat_mul(mat_mul(u, m), transpose(u)) == [list(r) for r in block_matrix(nf)]
    assert abs(integer_det(u)) == 1
    assert mat_mul(u, [list(r) for r in nf.V]) == [[int(i == j) for j in range(5)] for i in range(5)]
    assert isinstance(nf, NormalForm)


def test_certificate_rejects_a_changed_entry_of_u():
    rng = random.Random(8)
    m = random_skew(rng, 5)
    nf = skew_normal_form(m)
    assert certify_normal_form(nf, m)
    for i, j in [(0, 0), (2, 3), (4, 4)]:  # a row of each block and the kernel row
        u = [list(r) for r in nf.U]
        u[i][j] += 1
        assert not certify_normal_form(NormalForm(tuple(map(tuple, u)), nf.blocks, nf.V), m)


I2 = ((1, 0), (0, 1))
I4 = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))


CERTIFICATE_CASES = [
    # U M U^T is the block matrix of (2,), but det U = 2
    (((2, 0), (0, 1)), (2,), [[0, 1], [-1, 0]], False),
    # the blocks break divisibility, and the same pair in order is accepted
    (I4, (2, 1), [[0, 2, 0, 0], [-2, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]], False),
    (I4, (1, 2), [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 2], [0, 0, -2, 0]], True),
    # non-positive blocks
    (I2, (-1,), [[0, -1], [1, 0]], False),
    (I2, (0,), [[0, 0], [0, 0]], False),
]


def identity(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


@pytest.mark.parametrize("u,blocks,m,valid", CERTIFICATE_CASES)
def test_certificate_checks_unimodularity_and_blocks(u, blocks, m, valid):
    # V = I inverts the identity U's; the det-2 U has no integer inverse at all
    nf = NormalForm(u, blocks, identity(len(u)))
    assert mat_mul(mat_mul([list(r) for r in u], m), transpose(u)) == [list(r) for r in block_matrix(nf)]
    assert certify_normal_form(nf, m) is valid


@pytest.mark.parametrize("cutoff", [lattice.INT64_MIN_ROWS, 0], ids=["lists", "int64"])
def test_certificate_verdicts_agree_on_both_paths(cutoff, monkeypatch):
    monkeypatch.setattr(lattice, "INT64_MIN_ROWS", cutoff)
    for u, blocks, m, valid in CERTIFICATE_CASES:
        assert certify_normal_form(NormalForm(u, blocks, identity(len(u))), m) is valid
    # the det-2 U against other integer V's: U V = I has no integer solution
    u, blocks, m, _ = CERTIFICATE_CASES[0]
    for v in (((0, 0), (0, 1)), ((1, 1), (-1, 1)), ((1, 0), (0, 1)), ((0, 1), (1, 0))):
        assert not certify_normal_form(NormalForm(u, blocks, v), m)


@pytest.mark.parametrize("cutoff", [lattice.INT64_MIN_ROWS, 0], ids=["lists", "int64"])
def test_certificate_rejects_a_wrong_inverse(cutoff, monkeypatch):
    monkeypatch.setattr(lattice, "INT64_MIN_ROWS", cutoff)
    rng = random.Random(8)
    m = random_skew(rng, 5)
    nf = skew_normal_form(m)
    assert nf.U != identity(5)
    assert certify_normal_form(nf, m)
    wrong = [list(r) for r in nf.V]
    wrong[3][1] += 1
    for v in (wrong, identity(5), nf.V[:4]):
        bad = NormalForm(nf.U, nf.blocks, tuple(map(tuple, v)))
        assert not certify_normal_form(bad, m)


def test_normal_form_json_round_trip():
    import json

    nf = skew_normal_form([[0, 2, 0], [-2, 0, 1], [0, -1, 0]])
    data = json.loads(json.dumps(normal_form_json(nf)))
    assert data["blocks"] == list(nf.blocks)
    assert data["nullity"] == nf.nullity
    assert data["U"] == [list(r) for r in nf.U]
    again = skew_normal_form(data["D"])
    assert again.blocks == nf.blocks
