"""The array normal form's record of multipliers, and its replay, against the list path.

``intcore.skew_normal_form`` reduces ``M`` alone.  While every pair clears
in one sweep with no fold, ``U`` and ``V`` come from the multipliers ``N``
and the row permutation ``P`` (``_unwind``); from the first pair that folds
or sweeps twice they are assembled and the loop's recorded steps replayed
on them (``_replay``).  Either way they must equal the list path's, which
takes the same steps one entry at a time.
"""

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

from conftest import normal_form_events

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
    ld = [[sum(low[i][k] * d[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    return [[sum(ld[i][k] * low[j][k] for k in range(n)) for j in range(n)] for i in range(n)]


def dense_tail(r):
    """An ``r x r`` antisymmetric tail of 2s and 3s: its first pivot 2 leaves remainders."""
    return [[(2 + (i + j) % 2) * ((i < j) - (i > j)) for j in range(r)] for i in range(r)]


FOLD_TAIL = [[0, 2, 0, 0], [-2, 0, 0, 0], [0, 0, 0, 3], [0, 0, -3, 0]]


@pytest.mark.parametrize("n,clean,tail,kind", [
    (24, 0, dense_tail(24), "sweep"),
    (24, 5, dense_tail(14), "sweep"),
    (23, 10, dense_tail(3), "sweep"),
    (24, 5, FOLD_TAIL + [[0] * 4] * 10, "fold"),
], ids=["first-pair", "middle-pair", "last-pair", "fold-at-a-middle-pair"])
def test_replay_from_the_first_pair_that_is_not_clean(n, clean, tail, kind, monkeypatch):
    tail = [row + [0] * (n - 2 * clean - len(row)) for row in tail]
    m = layered_form(n + clean, n, clean, tail, 2)
    nf, events = both_paths(m, monkeypatch)
    assert events == [("unwind", clean), ("replay", 2 * clean, kind)]
    assert nf.blocks[:clean] == (1,) * clean
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


def test_replay_keeps_final_rows_exact_when_its_live_rows_shrink():
    # A huge quotient at pair 0 puts 2**55 + 1 into U's row 2 and V^T's rows
    # 0 and 1, which are final from pair 4 on.  At pair 4 the bound passes
    # WORD_BITS and the rows still live measure small; the array must stay on
    # int64, since float64 would round the final rows.
    n = 8
    uvt = np.hstack([np.eye(n, dtype=np.int64)] * 2)
    quotients = [np.zeros((2, n - t - 2), dtype=np.int64) for t in (0, 2, 4)]
    quotients[0][0, 0] = 2 ** 55 + 1
    quotients[1][1, 0] = 1  # adds U's small row 3, not the huge row 2
    quotients[2][0, 0] = 3
    record = [(t, None, qt, None) for t, qt in zip((0, 2, 4), quotients)]
    exact = uvt.astype(object)
    u, vt = exact[:, :n], exact[:, n:]
    for t, _, qt, _ in record:
        u[t + 2:] += qt.T.astype(object) @ u[t:t + 2]
        vt[t:t + 2] -= qt.astype(object) @ vt[t + 2:]
    assert (intcore._replay(uvt, record) == exact).all()
