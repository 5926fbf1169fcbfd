"""The eta match against the Hermite-form oracle it replaces.

``verify_structure`` decides whether the kernel rows of ``U``, carried to the
branches, are a basis of the lattice the puncture weights span by reading
them at the etas' first support entries (``lattice._eta_match``).  The
oracle is the parent computation: the list ``_combine`` of the kernel rows
with the basis, and ``lattice_equal`` of the result with the etas.  On the
int64 path the rows are a float64 BLAS product, so CI also runs this module
with one BLAS thread.
"""

import numpy as np
import pytest

from trackforms import (
    from_triangulation,
    lattice,
    lattice_equal,
    puncture_weights,
    skew_normal_form,
    standard_triangulation,
    theta_matrix,
    verify_structure,
)
from trackforms.lattice import _combine, _eta_match, integer_kernel
from trackforms.traintrack import switch_matrix
from trackforms.triangulation import random_triangulation

from conftest import GRID
from oracles import kernel_rows

INPUTS = ([("grid", g, s, 0) for g, s in GRID]
          + [("fan", 16, 4, 0), ("fan", 32, 4, 0), ("fan", 0, 30, 0),
             ("flipped", 16, 4, 1000), ("flipped", 24, 4, 3000), ("flipped", 32, 4, 5000)])


def make_track(kind, g, s, flips):
    tri = random_triangulation(g, s, flips, 1) if flips else standard_triangulation(g, s)
    return from_triangulation(tri)


def oracle_rows(track):
    """The kernel rows of ``U`` on the branches, as lists, and the etas."""
    basis = integer_kernel(switch_matrix(track))
    nf = skew_normal_form(theta_matrix(track, basis))
    return _combine(kernel_rows(nf), basis), puncture_weights(track)


@pytest.fixture(scope="module", params=INPUTS, ids=lambda p: "{}-{}-{}-{}".format(*p))
def case(request):
    track = make_track(*request.param)
    rows, etas = oracle_rows(track)
    return track, rows, etas


def tampered(rows):
    """Kernel rows that the match must refuse, each with a reason."""
    rows = [list(r) for r in rows]
    doubled = [r[:] for r in rows]
    doubled[-1] = [2 * x for x in doubled[-1]]
    off = [r[:] for r in rows]
    off[0][0] += 1
    return {
        "one row doubled (a proper sublattice)": doubled,
        "a row off the span of the etas": off,
        "a row too few": rows[:-1],
        "a row too many": rows + [[x + y for x, y in zip(rows[0], rows[-1])]],
    }


def test_verify_structure_agrees_with_the_oracle(case):
    track, rows, etas = case
    assert lattice_equal(rows, etas)
    report = verify_structure(track)
    assert report.eta_kernel_match is True
    assert report.passed


def test_match_refuses_what_the_oracle_refuses(case):
    _, rows, etas = case
    assert _eta_match(rows, etas)
    assert _eta_match(np.array(rows, dtype=np.int64), etas)
    for reason, bad in tampered(rows).items():
        expected = lattice_equal(bad, etas) and len(bad) == len(etas)
        assert not expected, reason
        assert _eta_match(bad, etas) is False, reason
        assert _eta_match(np.array(bad, dtype=np.int64), etas) is False, reason


def test_match_is_exact_on_object_rows(case):
    # a unimodular change of basis with a 2**70 entry widens the rows to Python ints
    _, rows, etas = case
    s = len(rows)
    t = np.eye(s, dtype=object)
    if s > 1:
        t[0, -1] = 2 ** 70
    wide = t @ np.array(rows, dtype=object)
    assert wide.dtype == object
    assert _eta_match(wide, etas) is True
    bad = wide.copy()
    bad[-1, :] *= 2
    assert _eta_match(bad, etas) is False
    bad = wide.copy()
    bad[0, 0] += 1
    assert _eta_match(bad, etas) is False


@pytest.mark.parametrize("cutoff", [0, 10 ** 9], ids=["int64", "lists"])
@pytest.mark.parametrize("g,s", GRID)
def test_both_paths_give_the_same_match(g, s, cutoff, monkeypatch):
    monkeypatch.setattr(lattice, "INT64_MIN_ROWS", cutoff)
    track = from_triangulation(standard_triangulation(g, s))
    rows, etas = oracle_rows(track)
    assert verify_structure(track).eta_kernel_match is lattice_equal(rows, etas) is True


def test_match_on_an_empty_puncture_set():
    assert _eta_match([], [])
    assert not _eta_match([(1, 0)], [])


def test_entries_off_every_support_must_be_zero():
    # etas whose supports leave entry 3 out, with a basis that reads them
    # exactly and with rows that are off their span only at entry 3
    etas = [(1, 1, 0, 0), (0, 0, 1, 0)]
    good = [(1, 1, 1, 0), (0, 0, 1, 0)]
    bad = [(1, 1, 1, 5), (0, 0, 1, 0)]
    for kind in (list, lambda rows: np.array(rows, dtype=np.int64)):
        assert _eta_match(kind(good), etas) is True
        assert _eta_match(kind(bad), etas) is False
    assert lattice_equal(good, etas) and not lattice_equal(bad, etas)
