from datetime import timedelta

import pytest
from hypothesis import settings

from trackforms import from_triangulation, standard_triangulation, weight_lattice_basis
from trackforms.fixtures import circle_track, random_ribbon_track, unorientable_even_track
from trackforms.lattice import _combine

__all__ = ["GRID", "circle_track", "normal_form_events", "random_ribbon_track",
           "random_weight", "unorientable_even_track"]

settings.register_profile(
    "default", max_examples=25, deadline=timedelta(milliseconds=20000), derandomize=True)
settings.load_profile("default")

# The (g, s) cells exercised throughout the suite.
GRID = [(0, 3), (0, 4), (0, 5), (1, 1), (1, 2), (2, 1)]


@pytest.fixture(scope="session")
def grid_tracks():
    return {gs: from_triangulation(standard_triangulation(*gs)) for gs in GRID}


@pytest.fixture(scope="session")
def grid_bases(grid_tracks):
    return {gs: weight_lattice_basis(track) for gs, track in grid_tracks.items()}


def random_weight(track, basis, rng, span=2):
    """A random integer combination of ``basis``, a weight system on ``track``."""
    coeffs = [rng.randint(-span, span) for _ in basis]
    return _combine([coeffs], basis)[0] if basis else (0,) * track.branch_count


def normal_form_events(monkeypatch):
    """A list that records how ``intcore.skew_normal_form`` makes ``U`` and ``V``.

    It gets ``("unwind", pairs)`` when ``U`` and ``V^T`` are assembled from
    the multipliers of the first ``pairs`` pairs, and ``("replay", t, kind)``
    when recorded steps are replayed on them: ``t`` is the pair of the first
    step, and ``kind`` is ``"fold"`` or ``"sweep"`` (a second sweep).
    """
    from trackforms import intcore

    events = []
    unwind, replay = intcore._unwind, intcore._replay

    def unwound(nq, perm, qbits):
        events.append(("unwind", len(qbits)))
        return unwind(nq, perm, qbits)

    def replayed(uvt, record):
        t, _, _, fold = record[0]
        events.append(("replay", t, "sweep" if fold is None else "fold"))
        return replay(uvt, record)

    monkeypatch.setattr(intcore, "_unwind", unwound)
    monkeypatch.setattr(intcore, "_replay", replayed)
    return events
