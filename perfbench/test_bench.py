"""Tests of the benchmark's own code: input generators, flips, tracer, statistics.

Run from the repository root:  python3 -m pytest perfbench -q
"""

import random
import statistics
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import gen  # noqa: E402
import worker  # noqa: E402
from trackforms.triangulation import IdealTriangulation  # noqa: E402

SURFACES = gen.GRID + [(2, 2), (3, 1)]


@pytest.mark.parametrize("g,s", SURFACES)
def test_fan_triangulation_builds_the_surface(g, s):
    tri = IdealTriangulation.from_json_dict(gen.fan_triangulation(g, s))
    assert (tri.genus, tri.punctures, tri.edge_count) == (g, s, 6 * g + 3 * s - 6)


def test_flip_rejects_edge_inside_self_folded_triangle():
    # Triangle 0 has its sides 0 and 1 glued together.
    tri = gen.canonical(2, [((0, 0), (0, 1)), ((0, 2), (1, 0)), ((1, 1), (1, 2))])
    IdealTriangulation.from_json_dict(tri)
    with pytest.raises(gen.FlipError):
        gen.flip(tri, 0)
    flipped = gen.flip(tri, 1)
    assert IdealTriangulation.from_json_dict(flipped).punctures == 3


@pytest.mark.parametrize("g,s", SURFACES)
def test_every_flip_keeps_the_surface(g, s):
    rng = random.Random(f"test/{g}/{s}")
    tri = gen.fan_triangulation(g, s)
    for _ in range(200):
        edge = rng.randrange(len(tri["gluings"]))
        (t1, _), (t2, _) = tri["gluings"][edge]
        if t1 == t2:
            with pytest.raises(gen.FlipError):
                gen.flip(tri, edge)
            continue
        tri = gen.flip(tri, edge)
        built = IdealTriangulation.from_json_dict(tri)
        assert (built.genus, built.punctures) == (g, s)


@pytest.mark.parametrize("g,s", [(1, 2), (0, 4), (2, 1)])
def test_flipping_the_new_diagonal_again_swaps_the_two_triangles(g, s):
    # Two flips of one quadrilateral give back its two triangles, with t1 and
    # t2 exchanged and their sides rotated.
    tri = gen.fan_triangulation(g, s)
    for edge, ((t1, k1), (t2, k2)) in enumerate(tri["gluings"]):
        if t1 == t2:
            continue
        once = gen.flip(tri, edge)
        twice = gen.flip(once, once["gluings"].index(sorted([[t1, 2], [t2, 2]])))
        relabel = {(t2, (k2 + 1 + j) % 3): (t1, j) for j in range(3)}
        relabel.update({(t1, (k1 + 1 + j) % 3): (t2, j) for j in range(3)})
        moved = [(relabel.get(tuple(a), tuple(a)), relabel.get(tuple(b), tuple(b)))
                 for a, b in tri["gluings"]]
        assert once != tri
        assert twice == gen.canonical(tri["triangles"], moved)


def test_same_surface_check_rejects_another_surface():
    check = gen.same_surface_check(1, 2)
    check(gen.fan_triangulation(1, 2))
    with pytest.raises(AssertionError):
        check(gen.fan_triangulation(0, 4))


@pytest.mark.parametrize("workload", ["structure_large", "survey_small", "rep_dense",
                                      "algebra_laws"])
def test_one_seed_gives_byte_identical_inputs(workload):
    first = gen.dumps(gen.generate(workload, 7))
    assert first == gen.dumps(gen.generate(workload, 7))
    assert first != gen.dumps(gen.generate(workload, 8))


def test_flipped_structure_input_leaves_fan_triangulations():
    items = gen.structure_inputs(3)
    assert [it["label"] for it in items][:2] == ["standard(16,4)", "standard(0,30)"]
    assert items[2]["tri"] != gen.fan_triangulation(*gen.FLIP_CELL)


def test_survey_tracks_are_connected_and_small():
    from trackforms.traintrack import TrainTrack

    items = gen.survey_inputs(5)
    tracks = [it["data"] for it in items if it["kind"] == "track"]
    assert len(tracks) == gen.SURVEY_TRACKS
    for data in tracks[:300]:
        track = TrainTrack.from_json_dict(data)
        assert track.is_connected()
        assert track.branch_count <= gen.SURVEY_MAX_BRANCHES
    assert sum(it["kind"] == "triangulation" for it in items) == len(tracks) // 100


def test_tail_is_highest_percentile_with_ten_beyond():
    values = [float(i) for i in range(100)]
    value, pct, beyond = worker._tail(values)
    assert (value, pct, beyond) == (89.0, 90.0, 10)
    assert worker._tail([1.0, 2.0])[0] == 2.0


def test_calibration_scales_by_bracketing_probes():
    loop = {"latencies": [1.0, 1.0, 1.0],
            "probes": [(0, 2 * worker.REFERENCE_PROBE_S), (2, 2 * worker.REFERENCE_PROBE_S),
                       (3, worker.REFERENCE_PROBE_S)]}
    assert worker.calibrated(loop) == pytest.approx([0.5, 0.5, 2 / 3])


def test_probe_is_not_slowed_by_numpy_work_just_before_it():
    # The worker probes right after an operation.  If BLAS threads left over
    # from an SVD or a matrix product slowed the probe, a calibrated figure
    # would credit a move of program work into numpy with a gain it did not make.
    import numpy as np

    a = np.random.default_rng(0).standard_normal((300, 300))
    ratios = {"svd": [], "matmul": []}
    for _ in range(12):
        for name, work in (("svd", np.linalg.svd), ("matmul", lambda m: m @ m)):
            time.sleep(0.15)
            idle = worker.probe()
            work(a)
            ratios[name].append(worker.probe() / idle)
    for name, values in ratios.items():
        assert 0.8 < statistics.median(values) < 1.25, (name, values)


def test_tracer_records_layer_spans_and_restores_the_program():
    import trackforms.cli as cli_mod
    import trackforms.lattice as lattice_mod
    from trackforms.traintrack import TrainTrack
    from tracing import Tracer

    before = (cli_mod.main, lattice_mod.theta_matrix, TrainTrack.__dict__["from_json_dict"])
    tracer = Tracer()
    tracer.install()
    try:
        tracer.op_id = 0
        track = TrainTrack.from_json_dict({"branches": 1, "switches": [
            {"side_a": [[0, 0]], "side_b": [[0, 1]]}]})
        assert lattice_mod.verify_structure(track).passed
    finally:
        tracer.uninstall()
    after = (cli_mod.main, lattice_mod.theta_matrix, TrainTrack.__dict__["from_json_dict"])
    assert before == after
    names = {span[0] for span in tracer.spans}
    assert {"traintrack.track", "traintrack.theta_matrix", "lattice.verify_structure",
            "lattice.normal_form"} <= names
    metrics = tracer.layer_metrics({0: 1.0})
    assert metrics["lattice.dim"] == 1
    assert metrics["trace.unattributed_s"] > 0


def test_closed_loop_counts_raising_ops_bad_outputs_and_nonzero_exits():
    import workloads

    class Fake:
        def run(self, i):
            if i == 1:
                raise RuntimeError("boom")
            return (2, "error: bad input") if i == 2 else (0, '{"pass": true}')

        def check(self, i, out):
            return None if workloads._cli_payload(out)["pass"] else "not passed"

    loop = worker.closed_loop(Fake(), max_ops=4)
    assert len(loop["latencies"]) == 4
    assert [f.split(":")[0] for f in loop["failures"]] == ["op 1", "op 2"]
    assert "exit code 2" in loop["failures"][1]
