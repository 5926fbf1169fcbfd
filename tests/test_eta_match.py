"""The eta match against the oracles it replaces.

``verify_structure`` decides whether the puncture weights are a basis of the
radical of theta on the weight lattice by one pairing: there are ``nullity``
of them, they are 0/1 with disjoint non-empty supports, and
``theta_matrix(track, basis, etas)`` is zero (``lattice._etas_span_radical``).
The oracles are the two checks before it: ``eta_readings_match``, which reads
the kernel rows of ``U`` at the etas' first support entries, and
``lattice_equal`` of those rows with the etas.  The tests of tampered kernel
rows are tests of the readings oracle, which the command no longer runs.  On
the int64 path the pairings are a float64 BLAS product, so CI also runs this
module with one BLAS thread.
"""

import operator
from itertools import product

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
from trackforms.lattice import _combine, _etas_span_radical
from trackforms.traintrack import is_weight_system
from trackforms.triangulation import random_triangulation

from conftest import GRID
from oracles import eta_readings_match, integer_kernel, kernel_rows, switch_matrix

INPUTS = ([("grid", g, s, 0) for g, s in GRID]
          + [("fan", 16, 4, 0), ("fan", 32, 4, 0), ("fan", 0, 30, 0),
             ("flipped", 16, 4, 1000), ("flipped", 24, 4, 3000), ("flipped", 32, 4, 5000)])

PATHS = pytest.mark.parametrize("cutoff", [0, 10 ** 9], ids=["int64", "lists"])


def make_track(kind, g, s, flips):
    tri = random_triangulation(g, s, flips, 1) if flips else standard_triangulation(g, s)
    return from_triangulation(tri)


def oracle_rows(track):
    """The elimination basis, the nullity, the kernel rows of ``U`` on the branches and the etas."""
    basis = integer_kernel(switch_matrix(track))
    nf = skew_normal_form(theta_matrix(track, basis))
    return basis, nf.nullity, _combine(kernel_rows(nf), basis), puncture_weights(track)


@pytest.fixture(scope="module", params=INPUTS, ids=lambda p: "{}-{}-{}-{}".format(*p))
def case(request):
    track = make_track(*request.param)
    return (track, *oracle_rows(track))


def bases(basis, cutoff):
    """The basis as lists, and as an array too where the arrays path runs."""
    return [basis, np.array(basis, dtype=np.int64)] if cutoff == 0 else [basis]


def tampered(rows):
    """Kernel rows that the readings oracle must refuse, each with a reason."""
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


def tampered_etas(track, basis, etas):
    """Puncture weights that the radical check must refuse, each with a reason.

    On the thrice-punctured sphere theta is zero, so no weight system pairs
    non-zero.  The overlapping sums pair to zero and are 0/1, so only the
    test of disjoint supports refuses them.
    """
    out = {
        "one eta dropped": etas[:-1],
        "a doubled eta (not 0/1)": etas[:-1] + [tuple(2 * x for x in etas[-1])],
        "an eta replaced by zero (an empty support)": etas[:-1] + [(0,) * len(etas[-1])],
    }
    paired = [v for v, row in zip(basis, theta_matrix(track, basis)) if any(row)]
    if paired:
        out["an eta replaced by a weight system that pairs non-zero"] = [tuple(paired[0])] + etas[1:]
    if len(etas) >= 3:
        a, b, c = etas[:3]
        sums = [tuple(map(operator.add, x, y)) for x, y in ((a, b), (b, c), (a, c))]
        out["0/1 etas that overlap (an index-2 sublattice)"] = sums + etas[3:]
    return out


def test_verify_structure_agrees_with_the_oracle(case):
    track, _, _, rows, etas = case
    assert lattice_equal(rows, etas)
    report = verify_structure(track)
    assert report.eta_kernel_match is True
    assert report.passed


@PATHS
def test_radical_check_agrees_with_the_oracle(case, cutoff, monkeypatch):
    track, basis, nullity, rows, etas = case
    monkeypatch.setattr(lattice, "INT64_MIN_ROWS", cutoff)
    assert eta_readings_match(rows, etas) is True
    for b in bases(basis, cutoff):
        assert _etas_span_radical(track, b, etas, nullity) is True


@PATHS
def test_radical_check_refuses_tampered_etas(case, cutoff, monkeypatch):
    track, basis, nullity, rows, etas = case
    monkeypatch.setattr(lattice, "INT64_MIN_ROWS", cutoff)
    for reason, bad in tampered_etas(track, basis, etas).items():
        assert not (lattice_equal(rows, bad) and len(rows) == len(bad)), reason
        for b in bases(basis, cutoff):
            assert _etas_span_radical(track, b, bad, nullity) is False, reason


def test_radical_check_on_eta_arrays(case):
    # verify_structure's array path pairs an int64 basis with the etas as
    # lists of Python ints; it must decide as the lists do
    track, basis, nullity, _, etas = case
    b = np.array(basis, dtype=np.int64)
    assert _etas_span_radical(track, b, etas, nullity) is True
    for reason, bad in tampered_etas(track, basis, etas).items():
        assert _etas_span_radical(track, b, bad, nullity) is False, reason


@PATHS
def test_radical_check_reads_the_pairing(cutoff, monkeypatch):
    # On the once-punctured torus every non-zero 0/1 weight system passes the
    # count and support tests, so only the pairing tells the eta from the rest.
    monkeypatch.setattr(lattice, "INT64_MIN_ROWS", cutoff)
    track = from_triangulation(standard_triangulation(1, 1))
    basis, nullity, _, (eta,) = oracle_rows(track)
    candidates = [w for w in product((0, 1), repeat=track.branch_count)
                  if any(w) and is_weight_system(track, w)]
    assert len(candidates) > 1
    for w in candidates:
        for b in bases(basis, cutoff):
            assert _etas_span_radical(track, b, [w], nullity) is (w == eta)


def test_match_refuses_what_the_oracle_refuses(case):
    _, _, _, rows, etas = case
    assert eta_readings_match(rows, etas)
    assert eta_readings_match(np.array(rows, dtype=np.int64), etas)
    for reason, bad in tampered(rows).items():
        expected = lattice_equal(bad, etas) and len(bad) == len(etas)
        assert not expected, reason
        assert eta_readings_match(bad, etas) is False, reason
        assert eta_readings_match(np.array(bad, dtype=np.int64), etas) is False, reason


def test_match_is_exact_on_object_rows(case):
    # a unimodular change of basis with a 2**70 entry widens the rows to Python ints
    track, basis, nullity, rows, etas = case
    s = len(rows)
    t = np.eye(s, dtype=object)
    if s > 1:
        t[0, -1] = 2 ** 70
    wide = t @ np.array(rows, dtype=object)
    assert wide.dtype == object
    assert eta_readings_match(wide, etas) is True
    bad = wide.copy()
    bad[-1, :] *= 2
    assert eta_readings_match(bad, etas) is False
    bad = wide.copy()
    bad[0, 0] += 1
    assert eta_readings_match(bad, etas) is False
    # the same change of the basis spans the same lattice: the radical check on Python ints
    t = np.eye(len(basis), dtype=object)
    t[0, -1] = 2 ** 70
    wide = t @ np.array(basis, dtype=object)
    assert wide.dtype == object
    assert _etas_span_radical(track, wide, etas, nullity) is True
    for reason, bad in tampered_etas(track, basis, etas).items():
        assert _etas_span_radical(track, wide, bad, nullity) is False, reason


@pytest.mark.parametrize("cutoff", [0, 10 ** 9], ids=["int64", "lists"])
@pytest.mark.parametrize("g,s", GRID)
def test_both_paths_give_the_same_match(g, s, cutoff, monkeypatch):
    monkeypatch.setattr(lattice, "INT64_MIN_ROWS", cutoff)
    track = from_triangulation(standard_triangulation(g, s))
    _, _, rows, etas = oracle_rows(track)
    assert verify_structure(track).eta_kernel_match is lattice_equal(rows, etas) is True


def test_match_on_an_empty_puncture_set():
    # the thrice-punctured sphere's etas and an empty array of them
    track = from_triangulation(standard_triangulation(0, 3))
    basis = np.array(integer_kernel(switch_matrix(track)), dtype=np.int64)
    assert _etas_span_radical(track, basis, np.zeros((0, track.branch_count), dtype=np.int64), 0)
    assert eta_readings_match([], [])
    assert not eta_readings_match([(1, 0)], [])
    track = from_triangulation(standard_triangulation(1, 1))
    basis = integer_kernel(switch_matrix(track))
    assert _etas_span_radical(track, basis, [], 0)
    assert not _etas_span_radical(track, basis, [], 1)


def test_entries_off_every_support_must_be_zero():
    # etas whose supports leave entry 3 out, with a basis that reads them
    # exactly and with rows that are off their span only at entry 3
    etas = [(1, 1, 0, 0), (0, 0, 1, 0)]
    good = [(1, 1, 1, 0), (0, 0, 1, 0)]
    bad = [(1, 1, 1, 5), (0, 0, 1, 0)]
    for kind in (list, lambda rows: np.array(rows, dtype=np.int64)):
        assert eta_readings_match(kind(good), etas) is True
        assert eta_readings_match(kind(bad), etas) is False
    assert lattice_equal(good, etas) and not lattice_equal(bad, etas)
