"""Acceptance suite: one test per headline criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are fixed here, not configurable: integer checks are
exact, numeric representation checks run at 1e-9 (1e-8 relative for the
2x2 trace identity), and the stated runtime budgets are asserted.
"""

import cmath
import itertools
import random
import time

import numpy as np

from trackforms import (
    from_triangulation,
    lattice_equal,
    puncture_weight,
    skew_normal_form,
    standard_triangulation,
    theta,
    theta_matrix,
    verify_structure,
    weight_lattice_basis,
)
from trackforms.algebra import BalancedAlgebra, chebyshev_value, frobenius, omega_candidates, solve_chebyshev
from trackforms.lattice import certify_normal_form
from trackforms.representation import build, frobenius_compat, random_spec, verify

from conftest import circle_track, random_weight, unorientable_even_track
from oracles import kernel_rows, scaled_by_root

CENSUS_GRID = [(0, 3), (0, 4), (0, 5), (1, 1), (1, 2), (2, 1)]
REP_GRID = [(1, 1, 3), (1, 1, 5), (0, 4, 5), (1, 2, 3)]
TOL = 1e-9


def _track(g, s):
    return from_triangulation(standard_triangulation(g, s))


def test_criterion_1_structure_census():
    start = time.perf_counter()
    for g, s in CENSUS_GRID:
        track = _track(g, s)
        report = verify_structure(track)
        assert report.passed, report
        assert report.computed_blocks == tuple(sorted([1] * g + [2] * (2 * g + s - 3)))
        assert report.nullity == s
        basis = weight_lattice_basis(track)
        nf = skew_normal_form(theta_matrix(track, basis))
        kernel = []
        for row in kernel_rows(nf):
            vec = [0] * track.branch_count
            for c, bvec in zip(row, basis):
                for i, x in enumerate(bvec):
                    vec[i] += c * x
            kernel.append(tuple(vec))
        etas = [puncture_weight(track, k) for k in range(s)]
        assert lattice_equal(kernel, etas)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"census took {elapsed:.2f}s"
    print(f"\nACCEPTANCE 1 structure census over {CENSUS_GRID}: PASS ({elapsed:.2f}s)")


def test_criterion_2_even_spiked_cases():
    orientable = verify_structure(circle_track())
    assert orientable.case == "all regions even-spiked, orientable"
    assert orientable.passed
    assert orientable.computed_blocks == tuple([1] * orientable.genus)
    assert orientable.nullity == orientable.n_even - 1

    twisted = verify_structure(unorientable_even_track())
    assert twisted.case == "all regions even-spiked, non-orientable"
    assert twisted.passed
    # rank arithmetic h - 1 paired blocks; here h = 1, so none
    assert twisted.computed_blocks == tuple([1] * (twisted.genus - 1))
    assert twisted.nullity == twisted.n_even
    print("\nACCEPTANCE 2 even-spiked orientable and non-orientable fixtures: PASS")


def test_criterion_3_lattice_rank():
    for g, s in CENSUS_GRID:
        basis = weight_lattice_basis(_track(g, s))
        assert len(basis) == 6 * g + 3 * s - 6
    print("\nACCEPTANCE 3 weight lattice rank 6g+3s-6 on every cell: PASS")


def test_criterion_4_pairing_integrality():
    rng = random.Random(0)
    for g, s in CENSUS_GRID:
        track = _track(g, s)
        basis = weight_lattice_basis(track)
        for a, b in itertools.combinations(basis, 2):
            theta(track, a, b)  # raises IntegralityViolation on a bug
        for _ in range(25):
            a = random_weight(track, basis, rng, span=3)
            b = random_weight(track, basis, rng, span=3)
            theta(track, a, b)
    print("\nACCEPTANCE 4 doubled pairing even on all cells: PASS")


def test_criterion_5_algebra_laws():
    start = time.perf_counter()
    track = _track(1, 1)
    basis = weight_lattice_basis(track)
    for N in (3, 5):
        for params in (omega_candidates(N, epsilon=1)[0], omega_candidates(N, epsilon=-1)[0]):
            algebra = BalancedAlgebra(track, params)
            zs = [algebra.monomial(v) for v in basis]
            for x, y, z in itertools.product(zs, repeat=3):
                assert algebra.mul(algebra.mul(x, y), z) == algebra.mul(x, algebra.mul(y, z))
            for a, b in itertools.product(basis, repeat=2):
                lhs = algebra.mul(algebra.monomial(a), algebra.monomial(b))
                rhs = scaled_by_root(algebra.mul(algebra.monomial(b), algebra.monomial(a)),
                                     4 * algebra.theta(a, b))
                assert lhs == rhs
            iota = BalancedAlgebra(track, params.iota_params())
            for a, b in itertools.product(basis, repeat=2):
                assert iota.mul(iota.monomial(a), iota.monomial(b)) == \
                    iota.mul(iota.monomial(b), iota.monomial(a))
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"algebra laws took {elapsed:.2f}s"
    print(f"\nACCEPTANCE 5 associativity, commutation phases, commutative degeneration: PASS ({elapsed:.2f}s)")


def test_criterion_6_representation_suite():
    start = time.perf_counter()
    dims = []
    for g, s, N in REP_GRID:
        track = _track(g, s)
        params = omega_candidates(N, epsilon=1)[0]
        for seed in (0, 1, 2):
            rep = build(random_spec(track, params, seed=seed))
            assert rep.dim == N ** (3 * g + s - 3)
            report = verify(rep, tol=TOL, seed=seed)
            assert report.passed, (g, s, N, seed, report.deviations)
            assert report.commutant_dim == 1
        dims.append(rep.dim)
    assert dims == [3, 5, 5, 9]
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"representation suite took {elapsed:.2f}s"
    print(f"\nACCEPTANCE 6 representations {REP_GRID} dims {dims}: PASS ({elapsed:.2f}s)")


def test_criterion_7_frobenius_compatibility():
    for g, s, N in REP_GRID:
        track = _track(g, s)
        params = omega_candidates(N, epsilon=1)[0]
        algebra = BalancedAlgebra(track, params)
        rep = build(random_spec(track, params, seed=0))
        report = frobenius_compat(verify(rep, tol=TOL, seed=0), tol=TOL)
        assert report.passed, (g, s, N, report.deviations)

        iota = BalancedAlgebra(track, params.iota_params())
        basis = weight_lattice_basis(track)
        rng = random.Random(100 * g + 10 * s + N)
        for _ in range(50):
            terms = []
            for _ in range(2):
                w = random_weight(track, basis, rng, span=1)
                terms.append(iota.monomial(w).scaled(rng.randint(1, 3)))
            x = terms[0] + terms[1]
            w = random_weight(track, basis, rng, span=1)
            y = scaled_by_root(iota.monomial(w), rng.randrange(4))
            assert frobenius(iota.mul(x, y), algebra) == \
                algebra.mul(frobenius(x, algebra), frobenius(y, algebra))
    print("\nACCEPTANCE 7 frobenius compatibility and multiplicativity: PASS")


def test_criterion_8_chebyshev():
    rng = random.Random(8)
    for N in (3, 5, 7):
        for _ in range(100):
            b = cmath.rect(0.5 + 1.5 * rng.random(), 2 * cmath.pi * rng.random())
            lhs = chebyshev_value(N, b + 1 / b)
            rhs = b ** N + b ** (-N)
            assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))
        for _ in range(10):
            y = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            sols = solve_chebyshev(y, N)
            assert len(sols) == N
            for x in sols:
                assert abs(chebyshev_value(N, x) - y) < 1e-9
    done = 0
    while done < 100:
        m = np.array([[complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(2)]
                      for _ in range(2)])
        det = np.linalg.det(m)
        if abs(det) < 1e-3:
            continue
        done += 1
        m = m / np.sqrt(det)
        n = rng.choice([3, 5, 7])
        lhs = chebyshev_value(n, np.trace(m))
        rhs = np.trace(np.linalg.matrix_power(m, n))
        assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(rhs)), (lhs, rhs)
    print("\nACCEPTANCE 8 chebyshev composition, solving, trace identity: PASS")


def test_criterion_9_normal_form_certificates():
    start = time.perf_counter()
    rng = random.Random(9)
    for _ in range(200):
        n = rng.randint(1, 8)
        m = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                v = rng.randint(-9, 9)
                m[i][j] = v
                m[j][i] = -v
        nf = skew_normal_form(m)
        assert certify_normal_form(nf, m)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"certificates took {elapsed:.2f}s"
    print(f"\nACCEPTANCE 9 200 unimodular congruence certificates: PASS ({elapsed:.2f}s)")
