"""The array normal form's block updates, its multipliers and its rare steps, against the list path.

``intcore.skew_normal_form`` reduces ``M`` alone, on a shrinking trailing
block; a pair that clears in one sweep writes the next block as one rank-2
update (``_next_block``).  While every pair clears
in one sweep with no fold, ``U`` and ``V`` come from the multipliers ``N``
and the row permutation ``P`` (``_unwind``); from the first pair that folds
or sweeps twice they are assembled, and each step from it on is applied to
them at once (``_step``).  Either way they must equal the list path's, which
takes the same steps one entry at a time."""

import random

import numpy as np
import pytest

from trackforms import (
    from_triangulation,
    intcore,
    lattice,
    skew_normal_form,
    standard_triangulation,
    theta_matrix,
)
from trackforms.lattice import certify_normal_form, tree_basis
from trackforms.triangulation import random_triangulation

from conftest import normal_form_events, product_tiers

INT64, LISTS = 0, 10 ** 9


def both_paths(m, monkeypatch):
    """The normal form of ``m`` on arrays and on lists, and how the arrays made ``U``."""
    monkeypatch.setattr(lattice, "INT64_MIN_ROWS", INT64)
    events = normal_form_events(monkeypatch)
    nf = skew_normal_form(m)
    monkeypatch.setattr(lattice, "INT64_MIN_ROWS", LISTS)
    assert skew_normal_form(m) == nf  # U, V and the blocks
    return nf, events


@pytest.mark.parametrize("g,s,flips,seed", [
    (16, 4, 0, 0), (0, 30, 0, 0), (64, 4, 0, 0),
    (32, 4, 5000, 0), (32, 4, 5000, 1), (32, 4, 5000, 2),
], ids=["fan(16,4)", "fan(0,30)", "fan(64,4)",
        "flipped(32,4)x5000/0", "flipped(32,4)x5000/1", "flipped(32,4)x5000/2"])
def test_tree_basis_forms_need_no_replay(g, s, flips, seed, monkeypatch):
    tri = random_triangulation(g, s, flips, seed) if flips else standard_triangulation(g, s)
    track = from_triangulation(tri)
    m = theta_matrix(track, intcore.word_rows(tree_basis(track), track.branch_count))
    nf, events = both_paths(m, monkeypatch)
    assert events == [("unwind", len(nf.blocks))]


def layered_form(seed, n, clean, tail, bits):
    """``M = L D L^T``: the first ``clean`` pairs clear in one sweep each, then ``tail`` is reduced.

    ``L`` is unit lower triangular by column pairs, with random multipliers
    of at most ``bits`` bits below the diagonal blocks of its first
    ``clean`` column pairs, and ``D`` holds ``clean`` blocks ``(0 1; -1 0)``
    and then the antisymmetric ``tail``.  Each of those pairs has pivot 1 at
    ``(t, t+1)``, so its sweep clears, no fold is possible, and it leaves
    the trailing block of ``L D L^T``; ``U`` is ``L^-1`` on those pairs.
    """
    rng = random.Random(seed)
    low = [[int(i == j) for j in range(n)] for i in range(n)]
    for c in range(2 * clean):
        for r in range(c - c % 2 + 2, n):
            low[r][c] = rng.randint(-2 ** bits + 1, 2 ** bits - 1)
    d = [[0] * n for _ in range(n)]
    for k in range(clean):
        d[2 * k][2 * k + 1], d[2 * k + 1][2 * k] = 1, -1
    for i, row in enumerate(tail):
        d[2 * clean + i][2 * clean:] = row
    return congruence(low, d)


def congruence(low, d):
    """``L D L^T`` on Python ints."""
    n = len(low)
    ld = [[sum(low[i][k] * d[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    return [[sum(ld[i][k] * low[j][k] for k in range(n)) for j in range(n)] for i in range(n)]


def dense_tail(r):
    """An ``r x r`` antisymmetric tail of 2s and 3s: its first pivot 2 leaves remainders."""
    return [[(2 + (i + j) % 2) * ((i < j) - (i > j)) for j in range(r)] for i in range(r)]


FOLD_TAIL = [[0, 2, 0, 0], [-2, 0, 0, 0], [0, 0, 0, 3], [0, 0, -3, 0]]
# Pivot 2 divides rows 0 and 1, so the pair clears in one sweep, with quotients;
# the block it leaves is (0 -7; 7 0), and 7 makes it fold.
QUOTIENT_FOLD_TAIL = [[0, 2, 4, 2], [-2, 0, 2, 6], [-4, -2, 0, 3], [-2, -6, -3, 0]]


@pytest.mark.parametrize("n,clean,tail,kind", [
    (24, 0, dense_tail(24), "sweep"),
    (24, 5, dense_tail(14), "sweep"),
    (23, 10, dense_tail(3), "sweep"),
    (24, 5, FOLD_TAIL + [[0] * 4] * 10, "fold"),
    (24, 5, QUOTIENT_FOLD_TAIL + [[0] * 4] * 10, "fold"),
], ids=["first-pair", "middle-pair", "last-pair", "fold-at-a-middle-pair", "fold-after-quotients"])
def test_replay_from_the_first_pair_that_is_not_clean(n, clean, tail, kind, monkeypatch):
    tail = [row + [0] * (n - 2 * clean - len(row)) for row in tail]
    m = layered_form(n + clean, n, clean, tail, 2)
    nf, events = both_paths(m, monkeypatch)
    assert events == [("unwind", clean), ("step", 2 * clean, kind)]
    assert nf.blocks[:clean] == (1,) * clean
    assert certify_normal_form(nf, m)


def fold_tail(bits, qbits, n):
    """A tail of ``n`` rows whose first pair folds, with large entries.

    Pivot 2 at (0, 1) divides rows 0 and 1, whose quotients have at most
    ``qbits`` bits, so the pair clears in one sweep; every entry below them
    is odd, of at most ``bits`` bits, and so is every entry of the block the
    pair leaves, which makes it fold.
    """
    rng = random.Random(f"{bits}/{qbits}")
    tail = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            x = 2 * rng.randint(-2 ** qbits, 2 ** qbits) if i < 2 else rng.randint(-2 ** bits, 2 ** bits) | 1
            tail[i][j], tail[j][i] = x, -x
    tail[0][1], tail[1][0] = 2, -2
    return tail


@pytest.mark.parametrize("bits,qbits,before,after", [
    (40, 6, "float64", "int64"),
    (55, 4, "int64", "object"),
], ids=["past-FLOAT_BITS", "past-WORD_BITS"])
def test_fold_moves_the_block_across_a_tier(bits, qbits, before, after, monkeypatch):
    # The clean pairs keep the block's bound within its tier.  The fold
    # pair's general sweep and fold raise it by (2q + 1)**2 * 4, past the
    # tier; measured, the block needs the next one.  That update is the
    # block's last before the first update of [U | V^T].
    n, clean = 24, 5
    tail = [row + [0] * (n - 2 * clean - 4) for row in fold_tail(bits, qbits, 4)]
    m = layered_form(bits, n, clean, tail + [[0] * (n - 2 * clean)] * (n - 2 * clean - 4), 2)
    tiers, _ = product_tiers(monkeypatch)
    nf, events = both_paths(m, monkeypatch)
    assert events == [("unwind", clean), ("step", 2 * clean, "fold")]
    first = next(k for k, (part, _) in enumerate(tiers) if part == 1)
    assert tiers[first - 2:first] == [(0, before), (0, after)]
    assert certify_normal_form(nf, m)


def aligned_fold_form(e):
    """A pair of pivot 1, then a pair whose sweep leaves ``[U | V^T]`` near its bound and whose fold passes it.

    ``L`` has ``-e``, ``-e`` and ``1 - e`` at (2, 0), (3, 0) and (4, 0), so
    column 0 of ``U = L^-1`` holds ``e``, ``e`` and ``e - 1`` there, and
    ``[U | V^T]`` starts with bounds of ``e``.  In the tail, pivot 2 has
    quotients 1 and 1 in column 4 alone, so the sweep adds rows 2 and 3 of
    ``U`` to row 4, which then holds ``3 e - 1`` against a bound of ``3 e``.
    The 3 at (4, 5) is odd, so the pair folds row 4 into row 2, which then
    holds ``4 e - 1``.
    """
    low = [[int(i == j) for j in range(6)] for i in range(6)]
    low[2][0], low[3][0], low[4][0] = -e, -e, 1 - e
    d = [[0, 1, 0, 0, 0, 0], [-1, 0, 0, 0, 0, 0], [0, 0, 0, 2, -2, 0],
         [0, 0, -2, 0, 2, 0], [0, 0, 2, -2, 0, 3], [0, 0, 0, 0, -3, 0]]
    return congruence(low, d)


@pytest.mark.parametrize("e,before,after,u_dtype", [
    (2 ** 51 + 1, "float64", "int64", "int64"),
    (2 ** 60 + 1, "int64", "object", "object"),
], ids=["past-FLOAT_BITS", "past-WORD_BITS"])
def test_fold_moves_u_and_v_across_a_tier(e, before, after, u_dtype, monkeypatch):
    # The sweep's bound 3e is within the tier, the fold's 6e is not; row 4
    # of U, measured, holds 3e - 1, and the fold can double it, which needs
    # the next tier.  The fold makes 4e - 1, odd and past the tier: float64
    # cannot hold it, and no int64 value may reach 2**62.
    m = aligned_fold_form(e)
    tiers, _ = product_tiers(monkeypatch)
    nf, events = both_paths(m, monkeypatch)
    assert events == [("unwind", 1), ("step", 2, "fold")]
    assert [t for part, t in tiers if part == 1][:2] == [before, after]
    assert nf.U[2][0] == 4 * e - 1 and nf.arrays[0].dtype == u_dtype
    assert certify_normal_form(nf, m)


@pytest.mark.parametrize("n,bits,seed,dtype,low,high", [
    (26, 5, 2, "int64", intcore.FLOAT_BITS, intcore.WORD_BITS),
    (32, 5, 0, "object", intcore.WORD_BITS, 1000),
], ids=["past-FLOAT_BITS", "past-WORD_BITS"])
def test_backward_sweep_crosses_tiers(n, bits, seed, dtype, low, high, monkeypatch):
    # M stays within FLOAT_BITS and every pair clears in one sweep, so only
    # the backward sweep of _unwind sees U grow past the float64 tier.
    m = layered_form(seed, n, n // 2, [], bits)
    assert intcore.max_bits(intcore.as_array(m)) < intcore.FLOAT_BITS
    nf, events = both_paths(m, monkeypatch)
    assert events == [("unwind", n // 2)]
    u, v = nf.arrays
    assert u.dtype == dtype and low < intcore.max_bits(u) <= high
    assert certify_normal_form(nf, m)


def test_replay_keeps_final_rows_exact_when_its_live_rows_shrink(monkeypatch):
    # A huge quotient at pair 0 puts 2**55 + 1 into U's row 2 and V^T's rows
    # 0 and 1, which are final from pair 4 on.  U's bound is 2**56 + 3 after
    # pair 0 and 3 * 2**56 + 9 after pair 2, so pair 4's quotient 2**6 takes
    # it past WORD_BITS, and the rows still live measure small; the array
    # must stay on int64, since float64 would round the final rows.
    n = 8
    uvt = np.hstack([np.eye(n, dtype=np.int64)] * 2)
    quotients = [np.zeros((2, n - t - 2), dtype=np.int64) for t in (0, 2, 4)]
    quotients[0][0, 0] = 2 ** 55 + 1
    quotients[1][1, 0] = 1  # adds U's small row 3, not the huge row 2
    quotients[2][0, 0] = 2 ** 6
    exact = uvt.astype(object)
    u, vt = exact[:, :n], exact[:, n:]
    for t, qt in zip((0, 2, 4), quotients):
        u[t + 2:] += qt.T.astype(object) @ u[t:t + 2]
        vt[t:t + 2] -= qt.astype(object) @ vt[t + 2:]
    tiers, _ = product_tiers(monkeypatch)
    bounds = intcore._Tiers(1, 1)  # as the loop starts them on U = V^T = I, on float64
    uvt = uvt.astype(bounds.dtype)
    for t, qt in zip((0, 2, 4), quotients):
        uvt = intcore._step(uvt, bounds, t, qt, None)
    assert (uvt == exact).all()
    assert tiers == [(0, "int64")] * 3


def dense_congruence(m, q):
    """``(I + Q) M (I + Q)^T`` on Python ints, with ``q`` the lists ``Q[2:, 0]`` and ``Q[2:, 1]``."""
    n = len(m)
    x = [[int(i == j) for j in range(n)] for i in range(n)]
    for c in range(2, n):
        x[c][0], x[c][1] = q[0][c - 2], q[1][c - 2]
    xm = [[sum(x[i][k] * m[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    return [[sum(xm[i][k] * x[j][k] for k in range(n)) for j in range(n)] for i in range(n)]


def pair_quotients(m, p):
    """The list code's quotients of rows 0 and 1 by the pivot ``p``: ``Q[2:, 0]`` and ``Q[2:, 1]``."""
    return [[m[1][c] // p for c in range(2, len(m))], [-(m[0][c] // p) for c in range(2, len(m))]]


@pytest.mark.parametrize("dtype,bits", [("float64", 20), ("int64", 28), ("object", 80)])
@pytest.mark.parametrize("p", [1, 3])
def test_next_block_is_the_congruence_of_a_clean_pair(dtype, bits, p):
    # A random antisymmetric block whose pivot p at (0, 1) divides rows 0 and
    # 1: the quotients clear both rows, and the block the congruence leaves
    # is the old trailing block plus one rank-2 product.
    rng = random.Random(f"{dtype}/{p}")
    k = 12
    m = [[0] * k for _ in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            x = rng.randint(-2 ** bits, 2 ** bits)
            m[i][j] = p * x if i < 2 else x
            m[j][i] = -m[i][j]
    m[0][1], m[1][0] = p, -p
    q = pair_quotients(m, p)
    dense = dense_congruence(m, q)
    assert not any(dense[0][2:]) and not any(dense[1][2:])
    out = np.empty((k - 2, k - 2), dtype=dtype)
    assert intcore._next_block(np.array(m, dtype=dtype), np.array(q, dtype=dtype), out) is out
    assert out.tolist() == [row[2:] for row in dense[2:]]


def grown_form(seed, n, cbits, dbits):
    """A form that fits float64 whose first pair, clean, leaves a block of larger entries.

    ``C = L J L^T`` is a layered form of ``n - 2`` rows: ``J`` holds blocks
    ``(0 1; -1 0)`` and ``L`` multipliers of at most ``cbits`` bits, as in
    ``layered_form``.  With ``c`` the first column of ``L`` and ``d`` a
    random vector of ``dbits`` bits, zero on the first pair, the form is
    ``((J, R), (-R^T, C))`` with ``R`` the rows ``d, c``.  Pivot 1 clears
    ``R`` and leaves ``C + c d^T - d c^T``: ``L J L^T`` with ``d`` added to
    the second column of ``L``, a layered form again, whose pairs clear in
    one sweep each and whose entries reach about ``cbits + dbits`` bits.
    """
    rng = random.Random(seed)
    k = n - 2
    low = np.eye(k, dtype=np.int64).astype(object)
    for col in range(k):
        for r in range(col - col % 2 + 2, k):
            low[r, col] = rng.randint(-2 ** cbits + 1, 2 ** cbits - 1)
    j = np.zeros((k, k), dtype=np.int64).astype(object)
    j[range(0, k, 2), range(1, k, 2)], j[range(1, k, 2), range(0, k, 2)] = 1, -1
    d = np.array([0, 0] + [rng.randint(-2 ** dbits + 1, 2 ** dbits - 1) for _ in range(k - 2)], dtype=object)
    m = np.zeros((n, n), dtype=np.int64).astype(object)
    m[0, 1], m[1, 0] = 1, -1
    m[0, 2:], m[1, 2:], m[2:, 0], m[2:, 1] = d, low[:, 0], -d, -low[:, 0]
    m[2:, 2:] = low @ j @ low.T
    return m.tolist()


@pytest.mark.parametrize("cbits,dbits,dtype", [(8, 48, "int64"), (14, 50, "object")],
                         ids=["past-FLOAT_BITS", "past-WORD_BITS"])
def test_clean_pairs_cross_tiers(cbits, dbits, dtype, monkeypatch):
    # The form fits float64, but the block its first pair leaves does not: the
    # bound 2 max|a| max|b| that pair adds passes the tier, the block is
    # measured, and it moves to the tier its entries need before the update.
    n = 24
    m = grown_form(cbits + dbits, n, cbits, dbits)
    assert intcore.max_bits(intcore.as_array(m)) <= intcore.FLOAT_BITS
    block = dense_congruence(m, pair_quotients(m, 1))
    assert intcore.max_bits(intcore.as_array(block)) > (intcore.FLOAT_BITS if dtype == "int64" else intcore.WORD_BITS)
    tiers, _ = product_tiers(monkeypatch)
    nf, events = both_paths(m, monkeypatch)
    assert events == [("unwind", n // 2)]
    assert tiers[0] == (0, dtype)
    assert certify_normal_form(nf, m)
