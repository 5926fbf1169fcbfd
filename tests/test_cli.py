import json
import os
import subprocess
import sys
import textwrap

import pytest

import trackforms
from trackforms import lattice
from trackforms.cli import main

from conftest import unorientable_even_track
from oracles import doubled_last_row


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_triangulate_writes_file(tmp_path, capsys):
    out = tmp_path / "torus.json"
    code, _, _ = run(capsys, "triangulate", "-g", "1", "-s", "1", "--out", str(out))
    assert code == 0
    data = json.loads(out.read_text())
    assert data["triangles"] == 2
    assert data["edges"] == 3


def test_triangulate_rejects_bad_signature(capsys):
    code, _, err = run(capsys, "triangulate", "-g", "0", "-s", "1")
    assert code == 2
    assert "no ideal triangulation" in err


def test_triangulate_sphere_three_punctures(capsys):
    code, out, _ = run(capsys, "triangulate", "-g", "0", "-s", "3")
    assert code == 0
    data = json.loads(out)
    assert data["triangles"] == 2 and data["edges"] == 3


def test_verify_structure_from_file(tmp_path, capsys):
    tri_path = tmp_path / "tri.json"
    run(capsys, "triangulate", "-g", "1", "-s", "1", "--out", str(tri_path))
    code, out, _ = run(capsys, "verify-structure", "--input", str(tri_path))
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True
    assert report["computed_blocks"] == [1]
    assert report["nullity"] == 1


def test_verify_structure_genus_two(capsys):
    code, out, _ = run(capsys, "verify-structure", "-g", "2", "-s", "1")
    assert code == 0
    report = json.loads(out)
    assert report["computed_blocks"] == [1, 1, 2, 2]
    assert report["eta_kernel_match"] is True


def test_verify_structure_track_fixture(tmp_path, capsys):
    path = tmp_path / "track.json"
    path.write_text(json.dumps(unorientable_even_track().to_json_dict()))
    code, out, _ = run(capsys, "verify-structure", "--input", str(path))
    assert code == 0
    report = json.loads(out)
    assert report["case"] == "all regions even-spiked, non-orientable"
    assert report["pass"] is True


def test_verify_structure_rejects_malformed(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"whatever": 1}))
    code, _, err = run(capsys, "verify-structure", "--input", str(path))
    assert code == 2
    assert "error" in err


def test_rep_smoke(capsys):
    code, out, _ = run(capsys, "rep", "-g", "1", "-s", "1", "--N", "3", "--seed", "42")
    assert code == 0
    report = json.loads(out)
    assert report["dim"] == 3
    assert report["pass"] is True
    assert report["seed"] == 42


def test_rep_four_punctures(capsys):
    code, out, _ = run(capsys, "rep", "-g", "0", "-s", "4", "--N", "5")
    assert code == 0
    assert json.loads(out)["dim"] == 5


def test_rep_rejects_inconsistent_h(tmp_path, capsys):
    spec = {
        "genus": 0, "punctures": 3, "N": 3, "omega_index": 0,
        "zeta": {"alphas": [], "betas": [],
                 "etas": [[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]]},
        "h": [[1.0, 0.0], [1.0, 0.0], [0.5, 0.5]],
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, _, err = run(capsys, "rep", "--input", str(path))
    assert code == 2
    assert "h[2]" in err


def test_rep_names_the_checks_whose_deviation_is_not_finite(tmp_path, capsys):
    # at N = 1 the scalar of X_0 Y_0 is 1e200 * 1e200, an infinity that JSON cannot hold
    spec = {
        "genus": 1, "punctures": 1, "N": 1,
        "zeta": {"alphas": [[1e200, 0]], "betas": [[1e200, 0]], "etas": [[1, 0]]},
        "h": [[1, 0]],
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, out, err = run(capsys, "rep", "--input", str(path))
    assert code == 2 and out == ""
    assert err == ("error: non-finite deviation in commutation, central_scalar, random_character: "
                   "a scalar leaves the range of floats\n")


@pytest.mark.parametrize("zeta", [1e4, 1e8])
def test_rep_passes_with_zeta_far_from_modulus_one(tmp_path, capsys, zeta):
    # the deviations are relative to the scalars; absolute ones read 1.6e-7
    # at 1e4 and 40.0 at 1e8 in central_scalar and random_character
    spec = {"genus": 1, "punctures": 1, "N": 3,
            "zeta": {"alphas": [[zeta, 0]], "betas": [[1, 0]], "etas": [[1, 0]]}, "h": [[1, 0]]}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, out, _ = run(capsys, "rep", "--input", str(path))
    assert code == 0 and json.loads(out)["pass"] is True


def test_rep_accepts_explicit_spec(tmp_path, capsys):
    spec = {
        "genus": 0, "punctures": 3, "N": 3, "omega_index": 0,
        "zeta": {"alphas": [], "betas": [],
                 "etas": [[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]]},
        "h": [[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]],
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, out, _ = run(capsys, "rep", "--input", str(path))
    assert code == 0
    report = json.loads(out)
    assert report["dim"] == 1 and report["pass"] is True


def test_chebyshev_contains_fixed_point(capsys):
    code, out, _ = run(capsys, "chebyshev", "--y", "2", "--n", "7")
    assert code == 0
    data = json.loads(out)
    assert len(data["solutions"]) == 7
    assert any(abs(complex(re, im) - 2) < 1e-9 for re, im in data["solutions"])
    assert max(data["residuals"]) < 1e-9


def test_chebyshev_negative_two_odd(capsys):
    code, out, _ = run(capsys, "chebyshev", "--y", "-2", "--n", "3")
    assert code == 0
    data = json.loads(out)
    assert any(abs(complex(re, im) + 2) < 1e-9 for re, im in data["solutions"])


def test_chebyshev_rejects_bad_n(capsys):
    code, _, err = run(capsys, "chebyshev", "--y", "1", "--n", "0")
    assert code == 2


def test_outputs_are_reproducible(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for path in (a, b):
        code, _, _ = run(capsys, "rep", "-g", "1", "-s", "1", "--N", "3",
                         "--seed", "7", "--out", str(path))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("argv", [
    ["verify-structure", "-g", "1"],
    ["rep", "-g", "1", "--N", "3"],
])
def test_missing_surface_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["triangulate", "-g", "1", "-s", "1"],
    ["chebyshev", "--y", "2", "--n", "3"],
    ["verify-structure", "-g", "1", "-s", "1"],
])
def test_tolerance_is_read_only_by_rep(capsys, monkeypatch, argv):
    monkeypatch.setenv("TRACKFORMS_TOL", "nan")
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    json.loads(out)


@pytest.mark.parametrize("tol,argv,data", [
    (None, ["rep", "-g", "1", "-s", "1", "--N", "-3"], None),
    (None, ["rep", "-g", "1", "-s", "1", "--N", "0"], None),
    ("nan", ["rep", "-g", "1", "-s", "1", "--N", "3"], None),
    ("inf", ["rep", "-g", "1", "-s", "1", "--N", "3"], None),
    (None, ["verify-structure"], {"triangles": "2", "gluings": []}),
    (None, ["verify-structure"], {"branches": 1, "switches": [{"side_a": [["0", 0]],
                                                              "side_b": [[0, 1]]}]}),
    (None, ["rep"], {"genus": 1, "punctures": 1, "N": 3, "epsilon": 5}),
    (None, ["rep"], {"genus": "1", "punctures": 1, "N": 3}),
    (None, ["rep"], {"genus": 1, "punctures": 1, "N": "3"}),
    (None, ["rep"], {"genus": 1, "punctures": 1, "N": 3.0}),
    (None, ["rep"], {"genus": 1, "punctures": 1, "N": 3, "omega": 5}),
    (None, ["rep"], {"genus": 1, "punctures": 1, "N": 3, "omega_index": "a"}),
    (None, ["rep"], {"genus": 1, "punctures": 1, "N": 3, "seed": [1]}),
    (None, ["rep"], {"genus": 1, "punctures": 1, "N": 3, "zeta": 5}),
    (None, ["rep"], {"genus": 1, "punctures": 1, "N": 3, "h": [[1, 0]],
                     "zeta": {"alphas": [[1]], "betas": [[1, 0]], "etas": [[1, 0]]}}),
    (None, ["rep"], {"genus": 1, "punctures": 1, "N": 3, "h": [[1, 0]],
                     "zeta": {"alphas": 5, "betas": [[1, 0]], "etas": [[1, 0]]}}),
    (None, ["rep"], {"genus": 1, "punctures": 1, "N": 3, "h": [[float("inf"), 0]],
                     "zeta": {"alphas": [[1, 0]], "betas": [[1, 0]], "etas": [[1, 0]]}}),
    (None, ["rep"], {"genus": 1, "punctures": 1, "N": 3, "h": [[10 ** 400, 0]],
                     "zeta": {"alphas": [[1, 0]], "betas": [[1, 0]], "etas": [[1, 0]]}}),
    (None, ["rep"], {"triangulation": 0, "N": 3}),
    (None, ["rep"], {"triangulation": [], "N": 3}),
    (None, ["rep"], 5),
    (None, ["verify-structure"], 5),
    # the even neighbour of N = 100001, which builds and verifies
    (None, ["rep", "-g", "1", "-s", "1", "--N", "100002"], None),
    (None, ["rep"], {"genus": 1, "punctures": 1, "N": 0, "omega": [1, 0]}),
    (None, ["chebyshev", "--y", "nan", "--n", "3"], None),
    (None, ["chebyshev", "--y", "1e308", "--n", "3"], None),
    (None, ["chebyshev", "--y", "1", "2", "3", "--n", "3"], None),
    (None, ["chebyshev", "--y", "1", "--n", "4097"], None),
    # powers that leave the floats: h^N in the spec check, zeta^(2/N) in a sample
    (None, ["rep"], {"genus": 1, "punctures": 1, "N": 3, "h": [[1e308, 0]],
                     "zeta": {"alphas": [[1, 0]], "betas": [[1, 0]], "etas": [[1, 0]]}}),
    (None, ["rep"], {"genus": 1, "punctures": 1, "N": 3, "h": [[1, 0]],
                     "zeta": {"alphas": [[1e300, 0]], "betas": [[1, 0]], "etas": [[1, 0]]}}),
    # a JSON true is a bool, neither an integer nor a sign, and -1.0 is a float
    (None, ["rep"], {"genus": True, "punctures": True, "N": True}),
    (None, ["rep"], {"genus": 1, "punctures": 1, "N": 3, "epsilon": True}),
    (None, ["rep"], {"genus": 1, "punctures": 1, "N": 3, "epsilon": -1.0}),
    # the prime 2**61 - 1, too large to factor for an omega candidate
    (None, ["rep", "-g", "1", "-s", "1", "--N", "2305843009213693951"], None),
    # a triangle count that is not positive, and a slot out of range
    (None, ["verify-structure"], {"triangles": 0, "gluings": []}),
    (None, ["verify-structure"], {"triangles": 2, "gluings": [[[0, 3], [1, 1]], [[0, 1], [1, 2]],
                                                              [[0, 2], [1, 0]]]}),
    # zeta and h lists whose lengths do not match the basis
    (None, ["rep"], {"genus": 1, "punctures": 1, "N": 3, "h": [[1, 0]],
                     "zeta": {"alphas": [[1, 0], [1, 0]], "betas": [[1, 0]], "etas": [[1, 0]]}}),
    (None, ["rep"], {"genus": 1, "punctures": 1, "N": 3, "h": [[1, 0], [1, 0]],
                     "zeta": {"alphas": [[1, 0]], "betas": [[1, 0]], "etas": [[1, 0]]}}),
])
def test_bad_input_exits_two_without_traceback(tmp_path, capsys, monkeypatch, tol, argv, data):
    # fd 0 holds a valid triangulation, so that input which is wrongly read
    # from stdin (an integer path is a file descriptor to open()) succeeds.
    stdin = tmp_path / "stdin.json"
    run(capsys, "triangulate", "-g", "1", "-s", "1", "--out", str(stdin))
    if tol is not None:
        monkeypatch.setenv("TRACKFORMS_TOL", tol)
    if data is not None:
        path = tmp_path / "input.json"
        path.write_text(json.dumps(data))
        argv = argv + ["--input", str(path)]
    saved = os.dup(0)
    try:
        with open(stdin) as fh:
            os.dup2(fh.fileno(), 0)
        code, out, err = run(capsys, *argv)
    finally:
        os.dup2(saved, 0)
        os.close(saved)
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err
    assert out == ""


def test_small_commands_load_no_numpy():
    # the list paths keep numpy out of small runs, and with it 14 MB of RSS
    code = textwrap.dedent("""
        import contextlib, io, random, sys
        from trackforms import verify_structure
        from trackforms.cli import main
        from trackforms.fixtures import random_ribbon_track
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["rep", "-g", "1", "-s", "2", "--N", "5"]) == 0
            assert main(["verify-structure", "-g", "2", "-s", "1"]) == 0
        rng = random.Random(0)
        tracks = [t for t in (random_ribbon_track(rng) for _ in range(200)) if t and t.is_connected()]
        assert len(tracks) > 100 and max(t.branch_count for t in tracks) == 7
        for track in tracks:
            verify_structure(track)
        assert "numpy" not in sys.modules
    """)
    src = os.path.dirname(os.path.dirname(trackforms.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


def test_spec_check_refuses_float_roots_at_large_n(capsys):
    # at this N the floating-point h^N of the random spec drifts past the
    # h^N = zeta(eta) tolerance, which the spec check reports
    code, out, err = run(capsys, "rep", "-g", "1", "-s", "1", "--N", "10000001")
    assert code == 2 and out == ""
    assert err.startswith("error: h[0]^N = ") and "differs from zeta(eta_0)" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["verify-structure", "-g", "1", "-s", "2"],
    ["verify-structure", "-g", "8", "-s", "4"],  # the int64 path
    ["rep", "-g", "1", "-s", "2", "--N", "3"],
    ["rep", "-g", "8", "-s", "4", "--N", "1"],
])
def test_failed_certificate_exits_two_without_traceback(capsys, monkeypatch, argv):
    monkeypatch.setattr(lattice, "skew_normal_form", doubled_last_row)
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "certificate" in err and "Traceback" not in err


# ``rep --seed 4`` payloads before symbols replaced the length-d monomial
# operators: everything but the max_deviation floats.
OMEGA_5 = [0.9510565162951535, 0.3090169943749474]
OMEGA_3 = [0.8660254037844387, 0.49999999999999994]
GOLDEN_REPS = {(1, 2, 5): (25, OMEGA_5), (0, 6, 3): (27, OMEGA_3), (1, 3, 3): (27, OMEGA_3),
               (2, 1, 3): (81, OMEGA_3)}


@pytest.mark.parametrize("g,s,N", list(GOLDEN_REPS))
def test_rep_golden_payload(capsys, g, s, N):
    code, out, _ = run(capsys, "rep", "-g", str(g), "-s", str(s), "--N", str(N), "--seed", "4")
    assert code == 0
    payload = json.loads(out)
    dim, omega = GOLDEN_REPS[g, s, N]
    assert sorted(payload) == ["N", "dim", "epsilon", "frobenius", "omega", "pass", "seed",
                               "tolerance", "verify"]
    assert (payload["dim"], payload["N"], payload["epsilon"]) == (dim, N, -1)
    assert payload["omega"] == omega
    assert (payload["seed"], payload["tolerance"], payload["pass"]) == (4, 1e-09, True)
    verify, frob = payload["verify"], payload["frobenius"]
    assert sorted(verify) == ["commutant_dim", "dim", "max_deviation", "pass"]
    assert sorted(frob) == ["dim", "max_deviation", "pass"]
    assert (verify["commutant_dim"], verify["dim"], frob["dim"]) == (1, dim, dim)
    assert verify["pass"] is frob["pass"] is True
    assert sorted(verify["max_deviation"]) == ["central_scalar", "commutation", "power_scalar",
                                               "puncture_scalar"]
    assert sorted(frob["max_deviation"]) == ["basis_character", "matrix_power_oracle",
                                             "random_character"]
    for value in (*verify["max_deviation"].values(), *frob["max_deviation"].values()):
        assert 0.0 <= value <= 1e-12


@pytest.mark.parametrize("g,s,N,dim", [(3, 2, 5, 5 ** 8), (4, 3, 5, 5 ** 12),
                                       (1, 1, 100001, 100001), (3, 2, 100001, 100001 ** 8)])
def test_rep_large_dimension(capsys, g, s, N, dim):
    # symbols hold O(m) integers and the commutant is a gcd product, so
    # neither the dimension nor N is too large in itself
    code, out, _ = run(capsys, "rep", "-g", str(g), "-s", str(s), "--N", str(N))
    assert code == 0
    payload = json.loads(out)
    assert payload["dim"] == dim and payload["pass"] is True
    assert payload["verify"]["commutant_dim"] == 1
