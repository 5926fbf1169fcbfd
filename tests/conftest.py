from datetime import timedelta

import pytest
from hypothesis import settings

from trackforms import from_triangulation, standard_triangulation, weight_lattice_basis
from trackforms.fixtures import circle_track, random_ribbon_track, unorientable_even_track
from trackforms.lattice import _combine

__all__ = ["GRID", "circle_track", "random_ribbon_track", "random_weight",
           "unorientable_even_track"]

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
