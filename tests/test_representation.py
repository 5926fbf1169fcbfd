import cmath
import copy
import json
import math
import operator
import random
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from trackforms import from_triangulation, lattice, representation, standard_triangulation
from trackforms.algebra import (
    BalancedAlgebra,
    frobenius,
    omega_candidate,
    omega_candidates,
    phase_eval,
)
from trackforms.cli import main
from trackforms.lattice import CertificateError, _combine, lattice_equal, theta_matrix, weight_lattice_basis
from trackforms.representation import (
    FROBENIUS_SAMPLES,
    SCALAR_SAMPLES,
    RepresentationError,
    RepresentationSpec,
    Symbol,
    build,
    commutant_dimension,
    frobenius_compat,
    puncture_invariants,
    random_spec,
    symplectic_basis,
    verify,
)
from trackforms.traintrack import theta
from trackforms.triangulation import random_triangulation

from conftest import random_weight
from oracles import (
    Monomial,
    algebra_of,
    doubled_last_row,
    evaluate,
    factors,
    float_commutation,
    generators,
    make_rep,
    puncture_element,
    reference_generators,
    reordering_exponent,
    scaled_by_root,
    svd_commutant_dimension,
    symbol_monomial,
    two_pass_reports,
)


def reference_operator(rep, gens, w):
    """Dense rho(Z_w): the reordering phase times the product of generator powers."""
    coeffs = rep.decompose(w)
    mat = rep.params.root_value(reordering_exponent(rep, coeffs)) * np.eye(rep.dim, dtype=complex)
    for gen, c in zip(gens, coeffs):
        if c:
            mat = mat @ np.linalg.matrix_power(gen, c)
    return mat


def reference_deviations(rep, seed):
    """The seven deviations of verify and frobenius_compat, on dense matrices."""
    gens = reference_generators(rep)
    params, N, n = rep.params, rep.params.N, len(gens)
    eye = np.eye(rep.dim, dtype=complex)
    gammas = rep.gamma_vectors
    algebra = algebra_of(rep)
    iota = BalancedAlgebra(rep.track, params.iota_params())

    def maxabs(a):
        return float(np.max(np.abs(a)))

    def samples(count):
        rng = random.Random(seed)
        return _combine([[rng.randint(-2, 2) for _ in gammas] for _ in range(count)], gammas)

    def lifted(w):
        x = frobenius(iota.monomial(w), algebra)
        return sum(phase_eval(c, params) * reference_operator(rep, gens, nw)
                   for nw, c in x.terms.items())

    def power(w):
        return np.linalg.matrix_power(reference_operator(rep, gens, w), N)

    randoms = [(w, lifted(w)) for w in samples(FROBENIUS_SAMPLES)]
    return {
        "commutation": max(
            maxabs(gens[u] @ gens[v] - params.root_value(4 * rep._theta[u][v]) * (gens[v] @ gens[u]))
            for u in range(n) for v in range(u + 1, n)),
        "power_scalar": max(maxabs(np.linalg.matrix_power(g, N) - z * eye)
                            for g, z in zip(gens, rep.zeta_gamma)),
        "puncture_scalar": max(maxabs(reference_operator(rep, gens, eta) - h * eye)
                               for eta, h in zip(rep.spec.basis.etas, rep.spec.h)),
        "central_scalar": max(maxabs(power(w) - rep.central_character(w) * eye)
                              for w in samples(SCALAR_SAMPLES)),
        "basis_character": max(maxabs(lifted(g) - z * eye) for g, z in zip(gammas, rep.zeta_gamma)),
        "random_character": max(maxabs(mat - rep.central_character(w) * eye) for w, mat in randoms),
        "matrix_power_oracle": max(maxabs(mat - power(w)) for w, mat in randoms),
    }


def test_symplectic_basis_pairings():
    track = from_triangulation(standard_triangulation(2, 1))
    basis = symplectic_basis(track)
    ds = [d for _, _, d in basis.pairs]
    assert ds == [1, 1, 2, 2]
    gammas = basis.gamma_vectors
    m = len(basis.pairs)
    for i, (a, b, d) in enumerate(basis.pairs):
        assert theta(track, a, b) == d
    for i in range(len(gammas)):
        for j in range(i + 1, len(gammas)):
            expected = basis.pairs[i][2] if (i < m and j == i + m) else 0
            assert theta(track, gammas[i], gammas[j]) == expected


@pytest.fixture(scope="module")
def flipped_tracks():
    return {(g, s, flips): from_triangulation(random_triangulation(g, s, flips, 1))
            for g, s, flips in [(8, 4, 500), (12, 4, 2000)]}


def test_symplectic_basis_against_the_hermite_route(grid_tracks, flipped_tracks):
    # The gammas are reduced on the elimination basis; the Hermite basis is
    # the oracle for the lattice they span.
    for track in [*grid_tracks.values(), *flipped_tracks.values()]:
        basis = symplectic_basis(track)
        gammas = basis.gamma_vectors
        assert all(type(x) is int for v in gammas for x in v)
        assert lattice_equal(gammas, weight_lattice_basis(track))
        g, s = track.tri.genus, track.tri.punctures
        assert [d for _, _, d in basis.pairs] == [1] * g + [2] * (2 * g + s - 3)
        m, n = len(basis.pairs), len(gammas)
        blocks = [[0] * n for _ in range(n)]
        for i, (_, _, d) in enumerate(basis.pairs):
            blocks[i][i + m], blocks[i + m][i] = d, -d
        assert theta_matrix(track, gammas) == blocks


def test_flipped_gamma_vectors_stay_small(flipped_tracks):
    # On the Hermite basis these entries reach 13 bits.
    gammas = symplectic_basis(flipped_tracks[12, 4, 2000]).gamma_vectors
    assert max(abs(x).bit_length() for v in gammas for x in v) <= 3


def test_rep_on_a_flipped_triangulation(tmp_path, capsys):
    tri = tmp_path / "flipped.json"
    tri.write_text(json.dumps(random_triangulation(8, 4, 500, 1).to_json_dict()))
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"triangulation": str(tri), "N": 3}))
    assert main(["rep", "--input", str(spec)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["pass"] is True and payload["verify"]["commutant_dim"] == 1


@pytest.mark.parametrize("g,s", [(1, 1), (0, 4), (1, 2), (2, 1), (1, 3), (0, 6), (4, 3)])
def test_decompose_recovers_coefficients(g, s):
    # (4, 3) has 2m = 24 pair columns, past INT64_MIN_ROWS: the pairings run on arrays
    rep = make_rep(g, s, 1, seed=g + s)  # decompose does not depend on N
    n = len(rep.gamma_vectors)
    rng = random.Random(100 * g + s)
    units = [[int(u == v) for v in range(n)] for u in range(n)]
    for coeffs in units + [[rng.randint(-3, 3) for _ in range(n)] for _ in range(20)]:
        assert rep.decompose(_combine([coeffs], rep.gamma_vectors)[0]) == coeffs


def test_decompose_rejects_non_weight_systems():
    rep = make_rep(1, 1, 3)
    n = rep.track.branch_count
    for bad in ((1,) + (0,) * (n - 1), (0,) * (n + 1)):
        with pytest.raises(RepresentationError):
            rep.decompose(bad)


@pytest.mark.parametrize("g,s,N,dim", [(1, 1, 3, 3), (0, 4, 5, 5), (1, 2, 3, 9)])
def test_dimension_law(g, s, N, dim):
    rep = make_rep(g, s, N)
    assert rep.dim == dim == N ** (3 * g + s - 3)


def test_factor_weyl_relations():
    rep = make_rep(1, 2, 3, seed=11)
    q = rep.params.q
    pairs = factors(rep)
    assert len(pairs) == len(rep.d) == 2
    for (x, y), d in zip(pairs, rep.d):
        assert np.max(np.abs(x @ y - q ** d * (y @ x))) < 1e-12


def test_verify_passes_generically():
    for seed in (0, 1, 2):
        rep = make_rep(1, 1, 3, seed=seed)
        report = verify(rep, tol=1e-9)
        assert report.passed
        assert report.commutant_dim == 1


def test_verify_both_epsilon_signs():
    for eps in (1, -1):
        rep = make_rep(1, 1, 5, epsilon=eps, seed=3)
        report = verify(rep, tol=1e-9)
        assert report.passed
        assert frobenius_compat(report, tol=1e-9).passed


def test_degenerate_n_equals_one():
    rep = make_rep(1, 1, 1, seed=4)
    assert rep.dim == 1
    report = verify(rep, tol=1e-9)
    assert report.passed
    assert report.commutant_dim == 1


def test_evaluation_is_homomorphism():
    rep = make_rep(0, 4, 5, seed=5)
    algebra = algebra_of(rep)
    basis = rep.gamma_vectors
    rng = random.Random(6)
    gens = generators(rep)
    for _ in range(50):
        a = random_weight(algebra.track, basis, rng, span=1)
        b = random_weight(algebra.track, basis, rng, span=1)
        x = scaled_by_root(algebra.monomial(a), rng.randrange(algebra.params.phase_order))
        y = algebra.monomial(b).scaled(rng.randint(1, 2))
        lhs = evaluate(rep, algebra.mul(x, y), gens)
        rhs = evaluate(rep, x, gens) @ evaluate(rep, y, gens)
        assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_identity_and_puncture_scalars():
    rep = make_rep(1, 2, 3, seed=7)
    eye = np.eye(rep.dim)
    algebra = algebra_of(rep)
    assert np.max(np.abs(evaluate(rep, algebra.one()) - eye)) < 1e-12
    for k, h in enumerate(rep.spec.h):
        mat = evaluate(rep, puncture_element(algebra, k))
        assert np.max(np.abs(mat - h * eye)) < 1e-9


def test_central_powers_are_scalar():
    rep = make_rep(1, 1, 3, epsilon=-1, seed=8)
    rng = random.Random(9)
    N = rep.params.N
    gens = generators(rep)
    for _ in range(10):
        w = random_weight(rep.track, rep.gamma_vectors, rng, span=2)
        mat = np.linalg.matrix_power(symbol_monomial(rep, rep.operator(w), gens).dense(), N)
        scalar = rep.central_character(w)
        assert np.max(np.abs(mat - scalar * np.eye(rep.dim))) < 1e-9


def test_epsilon_minus_one_twists_the_character():
    # with epsilon = -1 the realized scalar of rho(Z_(a+b)^N) differs from
    # zeta(a) zeta(b) by the sign of their pairing
    rep = make_rep(1, 1, 3, epsilon=-1, seed=10)
    alpha, beta, d = rep.spec.basis.pairs[0]
    assert d == 1
    w = tuple(x + y for x, y in zip(alpha, beta))
    realized = rep.central_character(w)
    plain = rep.zeta_gamma[0] * rep.zeta_gamma[1]
    assert abs(realized + plain) < 1e-12
    mat = np.linalg.matrix_power(symbol_monomial(rep, rep.operator(w), generators(rep)).dense(),
                                 rep.params.N)
    assert np.max(np.abs(mat - realized * np.eye(rep.dim))) < 1e-9


def tampered_root():
    """A wrong za: X_0^N no longer acts by zeta(alpha_0)."""
    rep = make_rep(1, 1, 3, seed=12)
    rep.za[0] *= cmath.exp(0.01j)
    return rep


def tampered_shift():
    """A wrong shift: Y_0 acts as S_0^2."""
    rep = make_rep(1, 1, 3, seed=12)
    m = len(rep.d)
    y = rep.generators[m]
    rep.generators[m] = Symbol(y.a, tuple(2 * b for b in y.b), y.e, y.k)
    return rep


def tampered_block():
    """A wrong commutation phase: the product law run with d_0 = 2 against theta(alpha_0, beta_0) = 1."""
    rep = make_rep(1, 1, 3, seed=12)
    assert rep.d[0] == 1
    rep.d[0] = 2
    return rep


def test_tampered_representation_fails():
    report = verify(tampered_root(), tol=1e-9)
    assert not report.passed
    assert report.deviations["power_scalar"] > 1e-9
    assert not frobenius_compat(report, tol=1e-9).passed


def test_tampered_root_fails_at_a_large_modulus():
    # deviations are relative to the scalars, and still catch a wrong root
    # when zeta(alpha_0) is 1e8 (an absolute deviation read 40.0 untampered)
    track = from_triangulation(standard_triangulation(1, 1))
    rep = build(RepresentationSpec(track, omega_candidate(3), symplectic_basis(track),
                                   [1e8], [1], [1], [1]))
    assert verify(rep).passed
    rep.za[0] *= cmath.exp(1e-6j)
    report = verify(rep, tol=1e-9)
    assert not report.passed
    assert report.deviations["power_scalar"] > 1e-9
    assert not frobenius_compat(report, tol=1e-9).passed


def test_tampered_permutation_fails():
    for rep in (tampered_shift(), tampered_block()):
        report = verify(rep, tol=1e-9)
        assert not report.passed
        assert report.deviations["commutation"] > 1e-9


def explicit_zeta_rep():
    """(1,2) at N = 3 and epsilon = -1, with zeta and h given by value."""
    track = from_triangulation(standard_triangulation(1, 2))
    return build(RepresentationSpec(track, omega_candidate(3, -1), symplectic_basis(track),
                                    [1j, 0.6 + 0.8j], [-1, 0.8 - 0.6j], [-1j, 1], [1j, 1]))


def overflow_zeta_rep():
    """(1,1) at N = 1 with zeta(alpha_0) = zeta(beta_0) = 1e200: X_0 Y_0's scalar leaves the floats."""
    track = from_triangulation(standard_triangulation(1, 1))
    return build(RepresentationSpec(track, omega_candidate(1, 1), symplectic_basis(track),
                                    [1e200], [1e200], [1], [1]))


SINGLE_PASS_CASES = {
    "(1,1,1,+1)": lambda: make_rep(1, 1, 1, seed=1),
    "(1,2,3,-1)": lambda: make_rep(1, 2, 3, epsilon=-1, seed=2),
    "(2,1,3,+1)": lambda: make_rep(2, 1, 3, seed=3),
    "(0,5,5,-1)": lambda: make_rep(0, 5, 5, epsilon=-1, seed=4),
    "(2,2,5,+1)": lambda: make_rep(2, 2, 5, seed=5),
    "(1,1,100001,+1)": lambda: make_rep(1, 1, 100001, seed=6),
    "(3,2,100001,-1)": lambda: make_rep(3, 2, 100001, epsilon=-1, seed=7),
    "explicit zeta": explicit_zeta_rep,
    "overflow zeta": overflow_zeta_rep,
    "tampered root": tampered_root,
    "tampered shift": tampered_shift,
    "tampered block": tampered_block,
}


@pytest.mark.parametrize("case", list(SINGLE_PASS_CASES))
def test_single_pass_matches_the_two_pass_reference(case):
    rep = SINGLE_PASS_CASES[case]()
    report = verify(rep, tol=1e-9, seed=8)
    frob = frobenius_compat(report, tol=1e-9)
    checks, checks_passed, reference, reference_passed = two_pass_reports(rep, tol=1e-9, seed=8)
    assert report.deviations == checks and report.passed is checks_passed
    if case == "tampered shift":
        # basis_character is power_scalar, which reads the generators; the
        # two-pass lift reads symbol(N e_u) and so misses a tampered generator
        assert frob.deviations.pop("basis_character") == report.deviations["power_scalar"] > 1e-9
        assert reference.pop("basis_character") <= 1e-9
        assert reference_passed and not frob.passed
    else:
        assert frob.passed is reference_passed
    if case == "overflow zeta":
        # 0 by construction here; the two-pass oracle compares one symbol
        # with itself and reads its infinite scalar
        assert report.deviations["commutation"] == reference["matrix_power_oracle"] == math.inf
        reference["matrix_power_oracle"] = 0.0
    assert frob.deviations == reference
    assert frob.deviations["matrix_power_oracle"] == 0.0


def tampered_copy(rep, rng):
    """A copy of ``rep`` with one seeded change that the commutation check reads.

    It changes one generator's ``a``, ``b`` or ``k``, one ``d``, one entry of
    theta above the diagonal, or one ``za`` and one ``zb`` to 1e200 or
    1e-200, whose products with each other or their inverses leave the floats.
    """
    out = copy.copy(rep)
    out.generators, out.d, out.za, out.zb = (list(rep.generators), list(rep.d),
                                             list(rep.za), list(rep.zb))
    out._theta = [list(row) for row in rep._theta]
    n, m, order = len(rep.generators), len(rep.d), rep.params.phase_order
    kind = rng.choice(["a", "b", "k", "d", "theta", "value"])
    u = rng.randrange(n)
    g = out.generators[u]
    if kind in ("a", "b"):
        vector = list(getattr(g, kind))
        vector[rng.randrange(m)] += rng.choice([-2, -1, 1, 2])
        out.generators[u] = replace(g, **{kind: tuple(vector)})
    elif kind == "k":
        out.generators[u] = replace(g, k=(g.k + rng.randrange(1, order)) % order)
    elif kind == "d":
        out.d[rng.randrange(m)] = rng.choice([1, 2, 3, 4])
    elif kind == "theta":
        v = rng.randrange(n)
        if u != v:
            out._theta[min(u, v)][max(u, v)] += rng.choice([-2, -1, 1, 2])
    else:
        out.za[rng.randrange(m)] = out.zb[rng.randrange(m)] = rng.choice([1e200, 1e-200])
    return out


# At N = 1 every pair of phases agrees, so only an overflow shows.
ALL_KINDS = {"zero", "finite", "inf"}


@pytest.mark.parametrize("g,s,N,trials,kinds", [
    (1, 1, 3, 60, ALL_KINDS), (1, 2, 5, 60, ALL_KINDS), (0, 5, 3, 40, ALL_KINDS),
    (2, 1, 3, 40, ALL_KINDS), (1, 1, 1, 30, {"zero", "inf"}), (16, 4, 1, 3, {"zero", "inf"}),
])
def test_integer_commutation_matches_the_float_loop(g, s, N, trials, kinds):
    rep = make_rep(g, s, N, seed=g + s + N)
    rng = random.Random(100 * g + 10 * s + N)
    assert verify(rep).deviations["commutation"] == float_commutation(rep) == 0.0
    seen = set()
    for _ in range(trials):
        tampered = rep
        for _ in range(rng.randint(1, 3)):
            tampered = tampered_copy(tampered, rng)
        value = verify(tampered).deviations["commutation"]
        assert value == float_commutation(tampered)
        seen.add("inf" if value == math.inf else "zero" if value == 0.0 else "finite")
    assert seen == kinds


def test_spec_validation_rejects_bad_h():
    track = from_triangulation(standard_triangulation(1, 1))
    spec = random_spec(track, omega_candidates(3, epsilon=1)[0], seed=13)
    spec.h[0] *= cmath.exp(0.3j)
    with pytest.raises(RepresentationError):
        spec.validate()


def test_symplectic_basis_refuses_an_uncertified_normal_form(monkeypatch):
    # With a doubled kernel row the gammas would span a sublattice, which no
    # later check would notice.
    track = from_triangulation(standard_triangulation(1, 2))
    representation.symplectic_basis(track)
    monkeypatch.setattr(lattice, "skew_normal_form", doubled_last_row)
    with pytest.raises(CertificateError, match="certificate"):
        representation.symplectic_basis(track)


def test_build_refuses_etas_that_overlap_at_a_first_entry():
    # eta_0 + eta_1 still pairs to zero with every gamma, but reads 1 at the
    # first 1 of the other eta, where decompose reads that eta's coefficient
    track = from_triangulation(standard_triangulation(1, 2))
    spec = random_spec(track, omega_candidates(3, epsilon=1)[0], seed=16)
    build(spec)
    eta_0, eta_1 = spec.basis.etas
    spec.basis = replace(spec.basis, etas=(eta_0, tuple(map(operator.add, eta_0, eta_1))))
    with pytest.raises(RepresentationError, match="at the first 1 of eta"):
        build(spec)


def test_spec_validation_rejects_even_n():
    with pytest.raises(ValueError):
        omega_candidates(4)


def test_spec_validation_rejects_zero_zeta():
    track = from_triangulation(standard_triangulation(1, 1))
    spec = random_spec(track, omega_candidates(3, epsilon=1)[0], seed=14)
    spec.zeta_alphas[0] = 0
    with pytest.raises(RepresentationError):
        spec.validate()


def reference_commutant_dimension(rep):
    """The stacked d^2 x d^2 commutant system over all 2m dense generators."""
    return svd_commutant_dimension(reference_generators(rep)[:2 * len(rep.d)])  # etas are scalar


@pytest.mark.parametrize("g,s,N", [(1, 1, 3), (1, 1, 5), (0, 4, 5), (1, 2, 3), (0, 5, 3),
                                   (1, 2, 5), (0, 6, 3), (1, 3, 3)])
def test_commutant_matches_stacked_reference(g, s, N):
    rep = make_rep(g, s, N, seed=g + s + N)
    assert rep.dim <= 27
    assert commutant_dimension(rep) == reference_commutant_dimension(rep) == 1


def test_commutant_grows_for_reducible_data():
    # d = N makes the clock a scalar: the factor commutant is the N powers of the shift
    rep = make_rep(1, 1, 3, seed=15)
    assert commutant_dimension(rep) == 1
    rep.d[0] = 3
    assert commutant_dimension(rep) == reference_commutant_dimension(rep) == 3


def test_commutant_multiplies_over_factors():
    rep = make_rep(1, 2, 3, seed=21)
    for i in range(2):
        rep.d[i] = 3
        assert commutant_dimension(rep) == reference_commutant_dimension(rep) == 3 ** (i + 1)


@pytest.mark.parametrize("N", [1, 3, 5, 9, 15])
def test_factor_commutant_is_gcd(N):
    # the clock-and-shift theorem against the numerical rank, for every block
    # value d up to 2N + 1 and the first root exponents of either sign
    for omega_index in range(4):
        rep = make_rep(1, 1, N, epsilon=None, seed=N, omega_index=omega_index)
        for d in range(1, 2 * N + 2):
            rep.d[0] = d
            (pair,) = factors(rep)
            assert commutant_dimension(rep) == svd_commutant_dimension(pair) == math.gcd(d, N)


def test_no_pairs_means_no_factor_matrices():
    # the thrice-punctured sphere has dimension 1 at any N: nothing N x N is built
    track = from_triangulation(standard_triangulation(0, 3))
    rep = build(random_spec(track, omega_candidate(1000001), seed=1))
    assert rep.dim == 1 and commutant_dimension(rep) == 1


@pytest.mark.parametrize("g,s,N", [(1, 1, 100001), (2, 1, 1000001)])
def test_rep_memory_does_not_grow_with_n(g, s, N):
    # symbols hold O(m) integers and the commutant is a gcd product: nothing
    # of size N is allocated by the build or either check
    track = from_triangulation(standard_triangulation(g, s))
    spec = random_spec(track, omega_candidate(N), seed=1)
    tracemalloc.start()
    try:
        rep = build(spec)
        frobenius_compat(verify(rep, seed=1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.dim == N ** (3 * g + s - 3)
    assert peak < 1 << 20


@pytest.mark.parametrize("g,s,N", [(1, 1, 3), (1, 2, 5), (0, 6, 3), (1, 3, 3), (2, 1, 3),
                                   (2, 2, 3)])
def test_monomial_operators_match_dense_reference(g, s, N):
    rep = make_rep(g, s, N, seed=g + s + N)
    gens = reference_generators(rep)
    monomials = generators(rep)
    for gen, mono, ref in zip(rep.generators, monomials, gens, strict=True):
        assert np.array_equal(mono.dense(), ref)
        assert np.array_equal(symbol_monomial(rep, gen, monomials).dense(), ref)
    rng = random.Random(N)
    for _ in range(3):
        w = random_weight(rep.track, rep.gamma_vectors, rng, span=2)
        dense = symbol_monomial(rep, rep.operator(w), monomials).dense()
        assert np.max(np.abs(dense - reference_operator(rep, gens, w))) < 1e-12
    report = verify(rep, seed=N)
    deviations = {**report.deviations, **frobenius_compat(report).deviations}
    reference = reference_deviations(rep, seed=N)
    assert deviations.keys() == reference.keys()
    for name, value in reference.items():
        assert abs(deviations[name] - value) < 1e-12, name


def test_monomial_deviation_matches_dense():
    rng = np.random.default_rng(22)
    for d in (1, 2, 5, 16):
        for _ in range(10):
            perm = rng.permutation(d)
            a = Monomial(perm, rng.normal(size=d) + 1j * rng.normal(size=d))
            for b_perm in (perm.copy(), rng.permutation(d)):
                b = Monomial(b_perm, rng.normal(size=d) + 1j * rng.normal(size=d))
                assert a.deviation(b) == np.max(np.abs(a.dense() - b.dense()))
            assert np.allclose((a @ b).dense(), a.dense() @ b.dense())
            for k in (-3, -1, 0, 1, 2, 5):
                assert np.allclose((a ** k).dense(), np.linalg.matrix_power(a.dense(), k))


def test_rep_genus_two_end_to_end(capsys):
    code = main(["rep", "-g", "2", "-s", "1", "--N", "3"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["pass"] is True
    assert report["dim"] == 81
    assert report["verify"]["commutant_dim"] == 1


def test_frobenius_compat_basis_and_random():
    for (g, s, N) in [(1, 1, 3), (0, 4, 5), (1, 2, 3)]:
        rep = make_rep(g, s, N, epsilon=-1, seed=16)
        report = frobenius_compat(verify(rep, tol=1e-9, seed=17), tol=1e-9)
        assert report.passed, report.deviations


def test_frobenius_compat_eta_scalars():
    rep = make_rep(1, 2, 3, seed=18)
    iota = BalancedAlgebra(rep.track, rep.params.iota_params())
    N = rep.params.N
    for k, eta in enumerate(rep.spec.basis.etas):
        lifted = frobenius(iota.monomial(eta), algebra_of(rep))
        mat = evaluate(rep, lifted)
        expected = rep.spec.h[k] ** N
        assert np.max(np.abs(mat - expected * np.eye(rep.dim))) < 1e-9


def test_puncture_invariants_examples():
    for N in (1, 3, 5):
        cands = puncture_invariants(-2.0, N)
        assert len(cands) == N
        assert any(abs(c - 2) < 1e-9 for c in cands)
    assert abs(puncture_invariants(0.7 + 0.1j, 1)[0] + (0.7 + 0.1j)) < 1e-12
    rng = random.Random(19)
    from trackforms.algebra import chebyshev_value

    for _ in range(10):
        trace = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        for p in puncture_invariants(trace, 5):
            assert abs(chebyshev_value(5, p) + trace) < 1e-9
