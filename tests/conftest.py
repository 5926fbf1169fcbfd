from datetime import timedelta

import pytest
from hypothesis import settings

from trackforms import from_triangulation, standard_triangulation, weight_lattice_basis
from trackforms.fixtures import circle_track, random_ribbon_track, unorientable_even_track
from trackforms.lattice import _combine

__all__ = ["GRID", "circle_track", "normal_form_events", "product_tiers", "random_ribbon_track",
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
    the multipliers of the first ``pairs`` pairs, and ``("step", t, kind)``
    at the first step that ``_step`` then applies to them, the pair that
    folds or needs a second sweep: ``t`` is its pair, and ``kind`` is
    ``"fold"`` or ``"sweep"`` (a second sweep).
    """
    from trackforms import intcore

    events = []
    unwind, step = intcore._unwind, intcore._step

    def unwound(nq, perm, qbits):
        events.append(("unwind", len(qbits)))
        return unwind(nq, perm, qbits)

    def stepped(uvt, tiers, t, qt, fold):
        if events[-1][0] == "unwind":
            events.append(("step", t, "sweep" if fold is None else "fold"))
        return step(uvt, tiers, t, qt, fold)

    monkeypatch.setattr(intcore, "_unwind", unwound)
    monkeypatch.setattr(intcore, "_step", stepped)
    return events


def product_tiers(monkeypatch):
    """Record the tier of every update of the normal form's row arrays, after its bound is raised.

    Each entry is ``(part, tier)``: part 0 is the loop's block of ``M``,
    whose bound the loop raises before its first step on ``[U | V^T]``, and
    part 1 is ``[U | V^T]``; the tier is the array's dtype: float64, int64
    or object.
    """
    from trackforms import intcore

    tiers, parts = [], {}
    grow = intcore._Tiers.grow

    def recorded(self, raise_, live, whole=None):
        moved = grow(self, raise_, live, whole)
        tiers.append((parts.setdefault(id(self), len(parts)), str(self.dtype)))
        return moved

    monkeypatch.setattr(intcore._Tiers, "grow", recorded)
    return tiers, parts
