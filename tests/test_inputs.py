"""Caller data enters as exact integers or is refused, and the CLI keeps its exit codes."""

import contextlib
import copy
import io
import json
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from trackforms import (
    IdealTriangulation,
    TrackError,
    TrainTrack,
    TriangulationError,
    from_triangulation,
    hermite_normal_form,
    sigma_matrix,
    skew_normal_form,
    standard_triangulation,
)
from trackforms.algebra import BalancedAlgebra, omega_candidate, ordered_product_normal_form
from trackforms.cli import main
from trackforms.lattice import certify_normal_form
from trackforms.traintrack import require_weight_system

from conftest import unorientable_even_track

TORUS = standard_triangulation(1, 1)
TORUS_JSON = TORUS.to_json_dict()
TRACK = from_triangulation(TORUS)
ALGEBRA = BalancedAlgebra(TRACK, omega_candidate(3))
HALVES = [0.5] * TRACK.branch_count


def _skew_with(n, x):
    """The ``n x n`` antisymmetric matrix whose one non-zero pair is ``x, -x``."""
    m = [[0] * n for _ in range(n)]
    m[0][1], m[1][0] = x, -x
    return m


def _certify_floats(n):
    """A valid normal form of ``_skew_with(n, 1)``, with the matrix given as floats."""
    return skew_normal_form(_skew_with(n, 1)), _skew_with(n, 1.0)


def _element(coeff, weights=(0,) * TRACK.branch_count, n=None):
    p = ALGEBRA.params
    return {"N": p.N if n is None else n, "root_exponent": p.root_exponent,
            "terms": [{"weights": list(weights), "coeff": coeff}]}


def _torus_json_with(first_slot):
    """The torus triangulation JSON with its first slot replaced by ``first_slot(slot)``."""
    data = copy.deepcopy(TORUS_JSON)
    data["gluings"][0][0] = first_slot(data["gluings"][0][0])
    return data


@pytest.mark.parametrize("call,args,error", [
    pytest.param(skew_normal_form, (_skew_with(2, 0.5),), ValueError, id="skew-lists"),
    pytest.param(skew_normal_form, (_skew_with(20, 0.5),), ValueError, id="skew-int64"),
    pytest.param(skew_normal_form, ([[0] * 21] * 20,), ValueError, id="skew-int64-not-square"),
    pytest.param(skew_normal_form, ([[int((i, j) == (0, 1)) for j in range(20)] for i in range(20)],),
                 ValueError, id="skew-int64-not-antisymmetric"),
    pytest.param(hermite_normal_form, ([[1.7, 2.2]],), ValueError, id="hermite-lists"),
    pytest.param(hermite_normal_form, ([[1.7, 2.2]] * 20,), ValueError, id="hermite-20-rows"),
    pytest.param(certify_normal_form, _certify_floats(2), ValueError, id="certify-lists"),
    pytest.param(certify_normal_form, _certify_floats(20), ValueError, id="certify-int64"),
    pytest.param(require_weight_system, (TRACK, HALVES), TrackError, id="weight-system"),
    pytest.param(ALGEBRA.monomial, (HALVES,), TrackError, id="monomial"),
    pytest.param(ALGEBRA.element_from_json_dict, (_element([[1.5, 1]]),), ValueError,
                 id="element-exponent"),
    pytest.param(ALGEBRA.element_from_json_dict, (_element([[0, 1, 7]]),), ValueError,
                 id="element-triple"),
    pytest.param(ALGEBRA.element_from_json_dict, (_element([[0, 1]], n=5),), ValueError,
                 id="element-parameters"),
    pytest.param(ALGEBRA.element_from_json_dict, (_element([[0, 1]], (0,) * (TRACK.branch_count + 1)),),
                 TrackError, id="element-weight-length"),
    pytest.param(ALGEBRA.element_from_json_dict, (_element([[0, 1]], (1,) + (0,) * (TRACK.branch_count - 1)),),
                 TrackError, id="element-switch-conditions"),
    pytest.param(ordered_product_normal_form, (sigma_matrix(TORUS), [(0, 1.5)], 12), ValueError,
                 id="ordered-product"),
    pytest.param(TrainTrack, (1, [([(0, 0.9)], [(0.2, 1)])]), TrackError, id="track-floats"),
    pytest.param(TrainTrack, (1.0, [([(0, 0)], [(0, 1)])]), TrackError, id="track-count"),
    pytest.param(TrainTrack, (-1, []), TrackError, id="track-negative"),
    pytest.param(TrainTrack, (1, [([(0, 0)], [(0, 1)], [])]), TrackError, id="track-switch-triple"),
    pytest.param(TrainTrack.from_json_dict,
                 ({"branches": 1, "switches": [{"side_a": [[0, 0, 5]], "side_b": [[0, 1]]}]},),
                 TrackError, id="track-dart-triple"),
    pytest.param(TrainTrack.from_json_dict,
                 ({"branches": 1, "switches": [{"side_a": [[0, 2]], "side_b": [[0, 1]]}]},),
                 TrackError, id="track-unknown-dart"),
    pytest.param(IdealTriangulation, (2.0, TORUS_JSON["gluings"]), TriangulationError,
                 id="triangulation-count"),
    pytest.param(IdealTriangulation.from_json_dict, (_torus_json_with(lambda slot: slot + [9]),),
                 TriangulationError, id="triangulation-slot-triple"),
    pytest.param(IdealTriangulation.from_json_dict, (_torus_json_with(lambda slot: [float(x) for x in slot]),),
                 TriangulationError, id="triangulation-slot-float"),
])
def test_inexact_or_misshapen_input_is_refused(call, args, error):
    with pytest.raises(error):
        call(*args)


def test_exact_integers_are_stored_as_int():
    element = ALGEBRA.element_from_json_dict(_element([[True, True]]))
    [(exponent, coeff)] = element.terms[(0,) * TRACK.branch_count].items()
    assert (exponent, coeff) == (1, 1) and type(exponent) is type(coeff) is int
    track = TrainTrack(True, [([(False, False)], [(0, True)])])
    assert track.branch_count == 1 and type(track.branch_count) is int
    assert all(type(x) is int for side in track.switches[0] for dart in side for x in dart)


@pytest.mark.parametrize("reader,data,error", [
    (TrainTrack.from_json_dict, {"branches": 1000000, "switches": []}, TrackError),
    (IdealTriangulation.from_json_dict, {"triangles": 1000000, "gluings": []}, TriangulationError),
])
def test_declared_counts_cost_nothing_to_refuse(reader, data, error):
    tracemalloc.start()
    try:
        with pytest.raises(error) as info:
            reader(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert len(str(info.value)) < 300


# --- fuzzing the command line -------------------------------------------------

KEYS = ["triangles", "gluings", "branches", "switches", "side_a", "side_b", "genus",
        "punctures", "N", "seed", "omega", "omega_index", "epsilon", "zeta", "alphas",
        "betas", "etas", "h", "triangulation"]

# Integers stay in [-1, 3], so every surface and representation the CLI
# builds is small: the largest, (3, 3, 3), has dimension 3^9.
SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-1, 3), st.floats(-4, 4),
    st.sampled_from([float("nan"), float("inf"), 1e308, 0.5, -0.0]),
    st.sampled_from(["", "a", "1", "[]"]))
JSON_VALUES = st.recursive(
    SCALARS,
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(
        st.sampled_from(KEYS), kids, max_size=4),
    max_leaves=12)


@st.composite
def mutated(draw, base):
    """``base`` with one to three of its leaves or subtrees replaced."""
    doc = copy.deepcopy(base)
    for _ in range(draw(st.integers(1, 3))):
        node = doc
        while True:
            key = draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
            child = node[key]
            if isinstance(child, (dict, list)) and child and draw(st.booleans()):
                node = child
                continue
            node[key] = draw(JSON_VALUES)
            break
    return doc


STRUCTURE_INPUTS = st.one_of(
    mutated(TORUS_JSON), mutated(unorientable_even_track().to_json_dict()), JSON_VALUES)
REP_INPUTS = st.one_of(
    mutated({"genus": 1, "punctures": 1, "N": 3, "seed": 1, "omega_index": 2, "epsilon": -1}),
    mutated({"triangulation": TORUS_JSON, "N": 3, "omega": [0.5, 0.8660254037844386],
             "zeta": {"alphas": [[1, 0]], "betas": [[0, 1]], "etas": [[1, 0]]},
             "h": [[1, 0]]}),
    JSON_VALUES)
Y_VALUES = st.one_of(st.floats().map(repr), st.sampled_from(["x", "1e999", "-1", "--n"]))
N_VALUES = st.one_of(st.integers(-3, 40).map(str), st.sampled_from(["", "x", "2.5"]))
CHEBYSHEV_ARGS = st.tuples(st.lists(Y_VALUES, min_size=1, max_size=3), N_VALUES).map(
    lambda a: ["chebyshev", "--y", *a[0], "--n", a[1]])

FUZZ = settings(max_examples=120, derandomize=True, database=None, deadline=None)


def _exit_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses its arguments with exit 2
            code = exc.code
    assert "Traceback" not in err.getvalue()
    if code == 0:
        json.loads(out.getvalue())
    return code


@pytest.mark.parametrize("command,inputs", [
    ("verify-structure", STRUCTURE_INPUTS),
    ("rep", REP_INPUTS),
    ("chebyshev", CHEBYSHEV_ARGS),
])
def test_cli_fuzz_keeps_exit_codes(tmp_path_factory, command, inputs):
    path = tmp_path_factory.mktemp("fuzz") / "input.json"

    @FUZZ
    @given(inputs)
    def check(value):
        if command == "chebyshev":
            argv = value
        else:
            path.write_text(json.dumps(value))
            argv = [command, "--input", str(path)]
        assert _exit_code(argv) in (0, 1, 2)

    check()
