import cmath
import json
import random

import numpy as np
import pytest

from trackforms import from_triangulation, representation, standard_triangulation
from trackforms.algebra import BalancedAlgebra, frobenius, omega_candidates
from trackforms.cli import main
from trackforms.lattice import _combine
from trackforms.representation import (
    SV_CUTOFF,
    RepresentationError,
    build,
    commutant_dimension,
    frobenius_compat,
    puncture_invariants,
    random_spec,
    symplectic_basis,
    verify,
)
from trackforms.traintrack import theta

from conftest import random_weight


def make_rep(g, s, N, epsilon=1, seed=0, omega_index=0):
    track = from_triangulation(standard_triangulation(g, s))
    params = omega_candidates(N, epsilon=epsilon)[omega_index]
    algebra = BalancedAlgebra(track, params)
    return build(random_spec(algebra, seed=seed))


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


@pytest.mark.parametrize("g,s", [(1, 1), (0, 4), (1, 2), (2, 1), (1, 3), (0, 6)])
def test_decompose_recovers_coefficients(g, s):
    rep = make_rep(g, s, 1, seed=g + s)  # decompose does not depend on N
    rng = random.Random(100 * g + s)
    for _ in range(20):
        coeffs = [rng.randint(-3, 3) for _ in rep.gamma_vectors]
        assert rep.decompose(_combine(coeffs, rep.gamma_vectors)) == coeffs


def test_decompose_rejects_non_weight_systems():
    rep = make_rep(1, 1, 3)
    n = rep.algebra.track.branch_count
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
    m = len(rep.spec.basis.pairs)
    for i, (_, _, d) in enumerate(rep.spec.basis.pairs):
        x = rep.gamma_matrices[i]
        y = rep.gamma_matrices[m + i]
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
        assert verify(rep, tol=1e-9).passed
        assert frobenius_compat(rep, tol=1e-9).passed


def test_degenerate_n_equals_one():
    rep = make_rep(1, 1, 1, seed=4)
    assert rep.dim == 1
    report = verify(rep, tol=1e-9)
    assert report.passed
    assert report.commutant_dim == 1


def test_evaluation_is_homomorphism():
    rep = make_rep(0, 4, 5, seed=5)
    algebra = rep.algebra
    basis = rep.gamma_vectors
    rng = random.Random(6)
    for _ in range(50):
        a = random_weight(algebra.track, basis, rng, span=1)
        b = random_weight(algebra.track, basis, rng, span=1)
        x = algebra.monomial(a).scaled_by_root(rng.randrange(algebra.params.phase_order))
        y = algebra.monomial(b).scaled(rng.randint(1, 2))
        lhs = rep.evaluate(algebra.mul(x, y))
        rhs = rep.evaluate(x) @ rep.evaluate(y)
        assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_identity_and_puncture_scalars():
    rep = make_rep(1, 2, 3, seed=7)
    eye = np.eye(rep.dim)
    assert np.max(np.abs(rep.evaluate(rep.algebra.one()) - eye)) < 1e-12
    for k, h in enumerate(rep.spec.h):
        mat = rep.evaluate(rep.algebra.puncture_element(k))
        assert np.max(np.abs(mat - h * eye)) < 1e-9


def test_central_powers_are_scalar():
    rep = make_rep(1, 1, 3, epsilon=-1, seed=8)
    rng = random.Random(9)
    N = rep.params.N
    for _ in range(10):
        w = random_weight(rep.algebra.track, rep.gamma_vectors, rng, span=2)
        mat = np.linalg.matrix_power(rep.monomial_matrix(w), N)
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
    mat = np.linalg.matrix_power(rep.monomial_matrix(w), rep.params.N)
    assert np.max(np.abs(mat - realized * np.eye(rep.dim))) < 1e-9


def test_tampered_representation_fails():
    rep = make_rep(1, 1, 3, seed=12)
    rep.gamma_matrices[0] = rep.gamma_matrices[0].copy()
    rep.gamma_matrices[0][0, 0] += 0.5
    report = verify(rep, tol=1e-9)
    assert not report.passed
    assert report.deviations["commutation"] > 1e-9


def test_spec_validation_rejects_bad_h():
    track = from_triangulation(standard_triangulation(1, 1))
    algebra = BalancedAlgebra(track, omega_candidates(3, epsilon=1)[0])
    spec = random_spec(algebra, seed=13)
    spec.h[0] *= cmath.exp(0.3j)
    with pytest.raises(RepresentationError):
        spec.validate()


def test_spec_validation_rejects_even_n():
    with pytest.raises(ValueError):
        omega_candidates(4)


def test_spec_validation_rejects_zero_zeta():
    track = from_triangulation(standard_triangulation(1, 1))
    algebra = BalancedAlgebra(track, omega_candidates(3, epsilon=1)[0])
    spec = random_spec(algebra, seed=14)
    spec.zeta_alphas[0] = 0
    with pytest.raises(RepresentationError):
        spec.validate()


def reference_commutant_dimension(rep):
    """The stacked d^2 x d^2 commutant system over all 2m dense generators."""
    d = rep.dim
    eye = np.eye(d, dtype=complex)
    blocks = [np.kron(g, eye) - np.kron(eye, g.T)
              for g in rep.gamma_matrices[:2 * len(rep.factors)]]  # eta generators are scalar
    if not blocks:
        return 1
    sv = np.linalg.svd(np.vstack(blocks), compute_uv=False)
    rank = int(np.sum(sv > SV_CUTOFF * max(1.0, float(sv[0]))))
    return d * d - rank


@pytest.mark.parametrize("g,s,N", [(1, 1, 3), (1, 1, 5), (0, 4, 5), (1, 2, 3), (0, 5, 3),
                                   (1, 2, 5), (0, 6, 3), (1, 3, 3)])
def test_commutant_matches_stacked_reference(g, s, N):
    rep = make_rep(g, s, N, seed=g + s + N)
    assert rep.dim <= 27
    assert commutant_dimension(rep) == reference_commutant_dimension(rep) == 1


def test_commutant_grows_for_reducible_data():
    # a diagonal Y leaves the factor algebra diagonal: its commutant is the N diagonals
    rep = make_rep(1, 1, 3, seed=15)
    assert commutant_dimension(rep) == 1
    x, _ = rep.factors[0]
    y = np.diag([1.0, 2.0, 3.0]).astype(complex)
    rep.factors[0] = (x, y)
    rep.gamma_matrices[1] = y
    assert commutant_dimension(rep) == reference_commutant_dimension(rep) == 3


def test_commutant_multiplies_over_factors():
    rep = make_rep(1, 2, 3, seed=21)
    eye = np.eye(3, dtype=complex)
    for i, embed in enumerate((lambda a: np.kron(a, eye), lambda a: np.kron(eye, a))):
        x, _ = rep.factors[i]
        y = np.diag([1.0, 2.0, 3.0]).astype(complex)
        rep.factors[i] = (x, y)
        rep.gamma_matrices[2 + i] = embed(y)
        assert commutant_dimension(rep) == reference_commutant_dimension(rep) == 3 ** (i + 1)


def test_memory_guard_estimate(monkeypatch):
    # on a machine with 8 GiB: (1,1,201) fails on its 2N^2 x N^2 commutant
    # system, (3,3,3) on its dense generators; nothing is allocated here
    pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 2 ** 21}
    monkeypatch.setattr(representation.os, "sysconf", pages.__getitem__)
    for N, m in ((201, 1), (3, 9)):
        with pytest.raises(RepresentationError, match="GiB of physical memory"):
            representation._require_memory(N, m)
    for N, m in ((101, 1), (3, 4), (10 ** 9, 0)):
        representation._require_memory(N, m)


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
        report = frobenius_compat(rep, tol=1e-9, seed=17)
        assert report.passed, report.deviations


def test_frobenius_compat_eta_scalars():
    rep = make_rep(1, 2, 3, seed=18)
    iota = BalancedAlgebra(rep.algebra.track, rep.params.iota_params())
    N = rep.params.N
    for k, eta in enumerate(rep.spec.basis.etas):
        lifted = frobenius(iota.monomial(eta), rep.algebra)
        mat = rep.evaluate(lifted)
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
