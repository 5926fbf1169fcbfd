import cmath
import itertools
import math
import os
import random
import subprocess
import sys
import textwrap

import pytest
from hypothesis import given, strategies as st

import trackforms
from trackforms import from_triangulation, sigma_matrix, standard_triangulation, weight_lattice_basis
from trackforms.algebra import (
    AlgebraElement,
    AlgebraParams,
    BalancedAlgebra,
    _root_exponents,
    chebyshev_coefficients,
    chebyshev_value,
    frobenius,
    omega_candidate,
    omega_candidates,
    ordered_product_normal_form,
    params_from_omega,
    phase_eval,
    solve_chebyshev,
)
from trackforms.traintrack import IntegralityViolation, ParityViolation, switch_sums, theta
from trackforms.triangulation import random_triangulation

from conftest import random_weight
from oracles import puncture_element, scaled_by_root


@pytest.fixture(scope="module")
def torus_setup():
    tri = standard_triangulation(1, 1)
    track = from_triangulation(tri)
    params = omega_candidates(3, epsilon=1)[0]
    algebra = BalancedAlgebra(track, params)
    basis = weight_lattice_basis(track)
    return track, algebra, basis


def random_element(algebra, basis, rng, n_terms=3):
    out = algebra.zero()
    for _ in range(n_terms):
        w = random_weight(algebra.track, basis, rng, span=1)
        term = scaled_by_root(algebra.monomial(w).scaled(rng.randint(1, 3)),
                              rng.randrange(algebra.params.phase_order))
        out = out + term
    return out


# --- parameters --------------------------------------------------------------

def test_params_validation():
    with pytest.raises(ValueError):
        AlgebraParams(4, 1)  # even N
    with pytest.raises(ValueError):
        AlgebraParams(3, 3)  # omega^4 not primitive
    p = AlgebraParams(3, 2)
    assert p.phase_order == 12
    assert abs(p.q - cmath.exp(2j * cmath.pi / 3 * 2)) < 1e-12


def test_epsilon_partition():
    plus = omega_candidates(5, epsilon=1)
    minus = omega_candidates(5, epsilon=-1)
    assert len(plus) == len(minus) == len(omega_candidates(5)) / 2
    for p in plus:
        assert abs(p.omega ** (-2 * 5) - 1) < 1e-12
    for p in minus:
        assert abs(p.omega ** (-2 * 5) + 1) < 1e-12


def reference_omega_candidates(N, epsilon):
    """The candidate list built directly: every k < 4N coprime to N, then the sign filter."""
    out = [AlgebraParams(N, k) for k in range(4 * N) if math.gcd(k, N) == 1]
    return [p for p in out if epsilon is None or p.epsilon == epsilon]


def test_omega_candidate_indexes_the_candidate_list():
    for N in [*range(1, 52, 2), 105]:
        for epsilon in (None, 1, -1):
            candidates = omega_candidates(N, epsilon)
            assert candidates == reference_omega_candidates(N, epsilon)
            for i in range(3 * len(candidates)):
                assert omega_candidate(N, epsilon, i) == candidates[i % len(candidates)]


def test_omega_candidate_counts_like_the_walk():
    # every index of every odd N <= 300, against the walk over the exponents
    # k < 4N in increasing order that omega_candidate took before it counted
    for N in range(1, 301, 2):
        for epsilon in (None, 1, -1):
            walk = list(_root_exponents(N, epsilon))
            for i in (*range(len(walk)), len(walk), 2 * len(walk) + 1, -1):
                assert omega_candidate(N, epsilon, i).root_exponent == walk[i % len(walk)]


def test_omega_candidate_builds_no_list():
    # 4 phi(N) = 4 * 10**8 candidates would not fit; the first ones are found at once
    N = 100000001
    assert omega_candidate(N) == AlgebraParams(N, 1)
    assert omega_candidate(N, 1, 1) == AlgebraParams(N, 4)
    with pytest.raises(ValueError):
        omega_candidate(4)
    with pytest.raises(ValueError):
        omega_candidate(5, 0)


def test_params_from_omega_round_trip():
    for p in omega_candidates(3):
        assert params_from_omega(3, p.omega) == p
    with pytest.raises(ValueError):
        params_from_omega(3, 2.0 + 0j)
    with pytest.raises(ValueError):
        params_from_omega(3, cmath.exp(0.3j))


def test_iota_params_are_order_four():
    p = omega_candidates(5, epsilon=-1)[0]
    iota = p.iota_params()
    assert iota.N == 1
    assert abs(iota.omega - p.omega ** 25) < 1e-12
    assert abs(iota.omega ** 4 - 1) < 1e-12


# --- monomials and products ---------------------------------------------------

def test_monomial_unit_coefficient(torus_setup):
    track, algebra, basis = torus_setup
    for vec in basis:
        elem = algebra.monomial(vec)
        assert elem.terms == {vec: {0: 1}}
    assert algebra.one().terms == {(0,) * 6: {0: 1}}


def test_puncture_element_is_eta_monomial(torus_setup):
    track, algebra, basis = torus_setup
    h1 = puncture_element(algebra, 0)
    assert set(h1.terms) == {(1,) * 6}


def test_inverse_monomials(torus_setup):
    track, algebra, basis = torus_setup
    for vec in basis:
        minus = tuple(-x for x in vec)
        assert algebra.mul(algebra.monomial(vec), algebra.monomial(minus)) == algebra.one()


def test_commutation_phase_exact(torus_setup):
    track, algebra, basis = torus_setup
    for a, b in itertools.product(basis, repeat=2):
        lhs = algebra.mul(algebra.monomial(a), algebra.monomial(b))
        rhs = scaled_by_root(algebra.mul(algebra.monomial(b), algebra.monomial(a)),
                             4 * algebra.theta(a, b))
        assert lhs == rhs


def test_associativity_exhaustive_on_torus(torus_setup):
    track, algebra, basis = torus_setup
    zs = [algebra.monomial(v) for v in basis]
    for x, y, z in itertools.product(zs, repeat=3):
        assert algebra.mul(algebra.mul(x, y), z) == algebra.mul(x, algebra.mul(y, z))


def test_associativity_random_four_punctures():
    track = from_triangulation(standard_triangulation(0, 4))
    algebra = BalancedAlgebra(track, omega_candidates(5, epsilon=-1)[0])
    basis = weight_lattice_basis(track)
    rng = random.Random(17)
    for _ in range(15):
        x = random_element(algebra, basis, rng)
        y = random_element(algebra, basis, rng)
        z = random_element(algebra, basis, rng)
        assert algebra.mul(algebra.mul(x, y), z) == algebra.mul(x, algebra.mul(y, z))


def test_power_is_scaled_monomial(torus_setup):
    track, algebra, basis = torus_setup
    N = algebra.params.N
    w = tuple(a + b for a, b in zip(basis[0], basis[1]))
    assert algebra.power(algebra.monomial(w), N) == algebra.monomial(tuple(N * x for x in w))
    assert algebra.power(algebra.monomial(w), 0) == algebra.one()
    h = puncture_element(algebra, 0)
    assert algebra.power(h, N) == algebra.monomial(tuple(N for _ in range(6)))


def test_central_elements_commute(torus_setup):
    track, algebra, basis = torus_setup
    rng = random.Random(23)
    N = algebra.params.N
    h = puncture_element(algebra, 0)
    for _ in range(10):
        x = random_element(algebra, basis, rng)
        zn = algebra.power(algebra.monomial(basis[0]), N)
        assert algebra.mul(x, zn) == algebra.mul(zn, x)
        assert algebra.mul(x, h) == algebra.mul(h, x)


def test_commutative_at_iota(torus_setup):
    track, algebra, basis = torus_setup
    iota = BalancedAlgebra(track, algebra.params.iota_params())
    for a, b in itertools.product(basis, repeat=2):
        x, y = iota.monomial(a), iota.monomial(b)
        assert iota.mul(x, y) == iota.mul(y, x)


def test_equality_needs_the_same_track():
    # two tracks with as many branches: the same terms, but elements of different algebras
    params = omega_candidates(3)[0]
    track = from_triangulation(standard_triangulation(1, 2))
    flipped = from_triangulation(random_triangulation(1, 2, 7, 1))
    one, other = BalancedAlgebra(track, params).one(), BalancedAlgebra(flipped, params).one()
    assert one.terms == other.terms
    assert one != other
    with pytest.raises(ValueError):
        one + other
    assert one == BalancedAlgebra(track, params).one()  # a second algebra on the same track


def test_exact_matches_numeric(torus_setup):
    track, algebra, basis = torus_setup
    rng = random.Random(29)
    omega = algebra.params.omega
    for _ in range(10):
        a = random_weight(track, basis, rng)
        b = random_weight(track, basis, rng)
        prod = algebra.mul(algebra.monomial(a), algebra.monomial(b))
        (w, phase), = prod.terms.items()
        numeric = omega ** (2 * algebra.theta(a, b))
        assert abs(phase_eval(phase, algebra.params) - numeric) < 1e-12


# --- the product against its per-pair oracle -----------------------------------

def reference_mul(algebra, x, y):
    """The product one term pair at a time, each phase from a germ-pair walk."""
    order = algebra.params.phase_order
    out = {}
    for wa, pa in x.terms.items():
        for wb, pb in y.terms.items():
            shift = 2 * theta(algebra.track, wa, wb)
            poly = out.setdefault(tuple(a + b for a, b in zip(wa, wb)), {})
            for e1, c1 in pa.items():
                for e2, c2 in pb.items():
                    e = (e1 + e2 + shift) % order
                    poly[e] = poly.get(e, 0) + c1 * c2
    return AlgebraElement(algebra, out)


def assert_reduced(element):
    """Every exponent in [0, 4N), no coefficient 0, no empty polynomial, and the
    constructor's reduction leaves the element as it is."""
    order = element.algebra.params.phase_order
    for p in element.terms.values():
        assert p
        assert all(0 <= e < order and c != 0 for e, c in p.items())
    assert element == AlgebraElement(element.algebra, element.terms)
    return element


def oracle_algebras():
    """The (1,1), (2,2) and (0,4) algebras at N = 3, 5 and their iota parameters,
    and the (2,2) algebras at N = 100001, 2**60 - 1 and 2**61 + 1."""
    for gs in [(1, 1), (2, 2), (0, 4)]:
        track = from_triangulation(standard_triangulation(*gs))
        basis = weight_lattice_basis(track)
        for N in (3, 5):
            params = omega_candidates(N)[N % 4]
            for p in (params, params.iota_params()):
                yield BalancedAlgebra(track, p), basis
        if gs == (2, 2):  # exponents and (key, exponent) slots at large 4N, up to one past int64
            for params in (omega_candidate(100001, 1, 7), AlgebraParams(2 ** 60 - 1, 1),
                           AlgebraParams(2 ** 61 + 1, 1)):
                yield BalancedAlgebra(track, params), basis


def wide_element(algebra, basis, rng, n_terms, span, coeff_bits):
    """Terms with weights up to about ``span`` times the basis and wide coefficients."""
    order = algebra.params.phase_order
    terms = {}
    for _ in range(n_terms):
        k = rng.randint(1, span)
        w = tuple(k * u + v for u, v in zip(*(random_weight(algebra.track, basis, rng, span=1)
                                              for _ in range(2))))
        terms[w] = {rng.randrange(order): rng.choice([-1, 1]) * rng.getrandbits(coeff_bits) + 1
                    for _ in range(rng.randint(1, 3))}
    return AlgebraElement(algebra, terms)


@pytest.mark.parametrize("span, coeff_bits", [(1, 2), (1, 40), (2 ** 40, 8), (2 ** 60, 8), (2 ** 70, 80)])
def test_mul_matches_reference(span, coeff_bits):
    # coefficients of 40 bits make products past int64 on small weights; span
    # 2**40 widens the pairing product to Python ints, 2**60 makes key sums
    # that pass int64 by the second product, and 2**70 widens the weights themselves
    rng = random.Random(span + coeff_bits)
    for algebra, basis in oracle_algebras():
        zero = algebra.zero()
        for _ in range(4):
            x = wide_element(algebra, basis, rng, rng.randint(1, 6), span, coeff_bits)
            y = wide_element(algebra, basis, rng, rng.randint(1, 6), span, coeff_bits)
            assert assert_reduced(algebra.mul(x, y)) == reference_mul(algebra, x, y)
            assert algebra.mul(x, zero) == algebra.mul(zero, x) == zero
        # the same element from its terms in another order, and two ways to zero
        terms = [(w, list(p.items())) for w, p in x.terms.items()]
        rng.shuffle(terms)
        assert AlgebraElement(algebra, {w: dict(rng.sample(p, len(p))) for w, p in terms}) == x
        assert x - x == x.scaled(0) == zero
        assert x + y - x == y
        # one-term factors hold exponents near 4N on int64 while 4N <= 2**62
        a = AlgebraElement(algebra, {random_weight(algebra.track, basis, rng): {-1: 1}})
        b = AlgebraElement(algebra, {random_weight(algebra.track, basis, rng): {-2: 3}})
        assert algebra.mul(a, b) == reference_mul(algebra, a, b)
        # the cube of a key near 2**62 passes int64
        u = random_weight(algebra.track, basis, rng)
        big = tuple((2 ** 62 - 1) // (max(map(abs, u)) or 1) * v for v in u)
        z = AlgebraElement(algebra, {big: {1: 1}})
        assert algebra.power(z, 3) == reference_mul(algebra, reference_mul(algebra, z, z), z)
        k = -3 ** 30
        assert x.scaled(k) == AlgebraElement(algebra, {w: {e: k * c for e, c in p}
                                                       for w, p in terms})
        xy = algebra.mul(x, y)
        assert assert_reduced(algebra.mul(xy, x)) == reference_mul(algebra, xy, x)


def test_mul_cancels_to_zero():
    # (1 + w^(2N)) (1 - w^(2N)) = 1 - w^(4N) = 0 in the phase polynomials
    rng = random.Random(41)
    for algebra, basis in oracle_algebras():
        half = algebra.params.phase_order // 2
        plus = {random_weight(algebra.track, basis, rng): {0: 1, half: 1} for _ in range(3)}
        minus = {random_weight(algebra.track, basis, rng): {0: 1, half: -1} for _ in range(3)}
        x, y = AlgebraElement(algebra, plus), AlgebraElement(algebra, minus)
        assert reference_mul(algebra, x, y) == algebra.zero()
        assert assert_reduced(algebra.mul(x, y)) == algebra.zero()
        assert algebra.mul(x, y).terms == {}
        # (1 + w^(2N)) (1 - w^(2N) + w) = w + w^(2N + 1): two of the four exponents cancel
        a, c = random_weight(algebra.track, basis, rng), random_weight(algebra.track, basis, rng)
        x = AlgebraElement(algebra, {a: {0: 1, half: 1}})
        y = AlgebraElement(algebra, {c: {0: 1, half: -1, 1: 1}})
        product = assert_reduced(algebra.mul(x, y))
        assert product == reference_mul(algebra, x, y)
        (poly,) = product.terms.values()
        assert len(poly) == 2


def test_mul_cancels_one_key(torus_setup):
    # the pairs (a, c) and (a + t, c - t) land on one key with opposite coefficients
    track, algebra, basis = torus_setup
    order = algebra.params.phase_order
    a, c, t = basis[0], basis[1], basis[2]
    a2 = tuple(u + v for u, v in zip(a, t))
    c2 = tuple(u - v for u, v in zip(c, t))
    shift = (2 * theta(track, a, c) - 2 * theta(track, a2, c2)) % order
    x = AlgebraElement(algebra, {a: {0: 1}, a2: {0: 1}})
    y = AlgebraElement(algebra, {c: {0: 1}, c2: {shift: -1}})
    product = assert_reduced(algebra.mul(x, y))
    assert product == reference_mul(algebra, x, y)
    assert tuple(u + v for u, v in zip(a, c)) not in product.terms
    assert len(product.terms) == 2


def test_germ_pairs_wait_for_the_first_product():
    # neither the module nor an algebra loads numpy, and elements and sums do
    # not build the germ-pair array; the first product does, and every later
    # element and product reuses it
    code = textwrap.dedent("""
        import sys
        import trackforms.algebra
        from trackforms import from_triangulation, standard_triangulation
        from trackforms.algebra import BalancedAlgebra, omega_candidates
        algebra = BalancedAlgebra(from_triangulation(standard_triangulation(1, 1)), omega_candidates(3)[0])
        assert "numpy" not in sys.modules and algebra._germ_pairs is None
        h = algebra.monomial((1,) * 6)
        y = h + algebra.one()
        assert algebra._germ_pairs is None
        x = algebra.mul(y, h)
        pairs = algebra._germ_pairs
        assert pairs is not None
        assert algebra.element_from_json_dict(x.to_json_dict()) == x
        algebra.mul(x, y)
        assert algebra._germ_pairs is pairs
    """)
    src = os.path.dirname(os.path.dirname(trackforms.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


def test_mul_odd_pairing_raises(grid_tracks):
    # unit vectors on the two branches of a germ pair have an odd doubled pairing
    track = grid_tracks[(1, 1)]
    algebra = BalancedAlgebra(track, AlgebraParams(3, 1))
    left, right = track.germ_pairs[0]
    e_left = tuple(int(k == left) for k in range(track.branch_count))
    e_right = tuple(int(k == right) for k in range(track.branch_count))
    x = AlgebraElement(algebra, {e_left: {0: 1}})
    y = AlgebraElement(algebra, {e_right: {0: 1}})
    with pytest.raises(IntegralityViolation):
        algebra.mul(x, y)


# --- symmetrized ordered products ---------------------------------------------

def test_weyl_exponent_single_generator(torus_setup):
    track, algebra, basis = torus_setup
    # a vector supported on one switch has an empty symmetrizing sum
    assert algebra.weyl_exponent((2, 0, 0)) == 0


def test_weyl_exponent_two_generators(torus_setup):
    track, algebra, basis = torus_setup
    sigma = sigma_matrix(track.tri)
    k = switch_sums(track, basis[0])
    expected = -sum(k[u] * k[v] * sigma[u][v]
                    for u in range(3) for v in range(u + 1, 3))
    assert algebra.weyl_exponent(k) == expected % algebra.params.phase_order


def test_weyl_exponent_rejects_unbalanced(torus_setup):
    track, algebra, basis = torus_setup
    with pytest.raises(ParityViolation):
        algebra.weyl_exponent((1, 0, 0))


@given(st.randoms(use_true_random=False))
def test_ordered_product_permutation_invariant(rnd):
    tri = standard_triangulation(1, 1)
    sigma = sigma_matrix(tri)
    length = rnd.randint(2, 5)
    seq = [(rnd.randrange(3), rnd.randint(-2, 2)) for _ in range(length)]
    reference = ordered_product_normal_form(sigma, seq, 12)
    for _ in range(6):
        shuffled = list(seq)
        rnd.shuffle(shuffled)
        assert ordered_product_normal_form(sigma, shuffled, 12) == reference


def test_ordered_product_sorted_vector():
    sigma = sigma_matrix(standard_triangulation(1, 1))
    vec, _ = ordered_product_normal_form(sigma, [(2, 1), (0, 3), (2, -1)], 12)
    assert vec == (3, 0, 0)


# --- frobenius -----------------------------------------------------------------

def test_frobenius_on_basis(torus_setup):
    track, algebra, basis = torus_setup
    iota = BalancedAlgebra(track, algebra.params.iota_params())
    N = algebra.params.N
    for vec in basis:
        lifted = frobenius(iota.monomial(vec), algebra)
        assert lifted == algebra.monomial(tuple(N * x for x in vec))
    assert frobenius(iota.one(), algebra) == algebra.one()


def test_frobenius_multiplicative(torus_setup):
    track, algebra, basis = torus_setup
    iota = BalancedAlgebra(track, algebra.params.iota_params())
    rng = random.Random(31)
    for _ in range(25):
        x = random_element(iota, basis, rng)
        y = random_element(iota, basis, rng)
        assert frobenius(iota.mul(x, y), algebra) == algebra.mul(
            frobenius(x, algebra), frobenius(y, algebra))


def reference_frobenius(x, target):
    """The lift term by term, reduced by the element constructor."""
    N, order = target.params.N, target.params.phase_order
    return AlgebraElement(target, {tuple(N * v for v in w): {e * N * N % order: c for e, c in p.items()}
                                   for w, p in x.terms.items()})


@pytest.mark.parametrize("span, coeff_bits", [(1, 2), (2 ** 70, 80)])
def test_frobenius_is_reduced(span, coeff_bits):
    # every exponent of Z/4 and wide coefficients, lifted at N = 3 and 5
    rng = random.Random(coeff_bits)
    for algebra, basis in oracle_algebras():
        if algebra.params.N == 1:
            continue
        iota = BalancedAlgebra(algebra.track, algebra.params.iota_params())
        for _ in range(4):
            x = wide_element(iota, basis, rng, rng.randint(1, 6), span, coeff_bits)
            x = x + AlgebraElement(iota, {w: {e: rng.getrandbits(coeff_bits) + 1 for e in range(4)}
                                          for w in list(x.terms)[:1]})
            lifted = assert_reduced(frobenius(x, algebra))
            assert lifted == reference_frobenius(x, algebra)
            assert sum(map(len, lifted.terms.values())) == sum(map(len, x.terms.values()))
        y = wide_element(iota, basis, rng, 3, span, coeff_bits)
        assert assert_reduced(frobenius(iota.mul(x, y), algebra)) == algebra.mul(
            frobenius(x, algebra), frobenius(y, algebra))


def test_frobenius_rejects_wrong_parameters(torus_setup):
    track, algebra, basis = torus_setup
    with pytest.raises(ValueError):
        frobenius(algebra.one(), algebra)


def test_element_json_round_trip(torus_setup):
    track, algebra, basis = torus_setup
    rng = random.Random(37)
    x = random_element(algebra, basis, rng)
    again = algebra.element_from_json_dict(x.to_json_dict())
    assert again == x


def test_element_json_reduces_coefficients(torus_setup):
    track, algebra, basis = torus_setup
    order = algebra.params.phase_order

    def read(*terms):
        return algebra.element_from_json_dict(
            {"N": algebra.params.N, "root_exponent": algebra.params.root_exponent,
             "terms": [{"weights": list(w), "coeff": c} for w, c in terms]})

    one = [0] * track.branch_count
    assert read((one, [[0, 0]])) == algebra.zero()
    assert read((one, [[0, 0]])).terms == {}
    assert read((one, [[0, 1], [order, 1]])) == algebra.one().scaled(2)
    assert read((one, [[1, 1], [1 - order, -1]])) == algebra.zero()
    assert read((one, [[0, 1]]), (one, [[order, 2]])) == algebra.one().scaled(3)
    # five coefficients of 2**61 add up past int64
    assert read((one, [[k * order, 2 ** 61] for k in range(5)])) == algebra.one().scaled(5 * 2 ** 61)


def test_elements_hold_no_zero_coefficient(torus_setup):
    track, algebra, basis = torus_setup
    w = basis[0]
    assert AlgebraElement(algebra, {w: {0: 0}}) == algebra.zero()
    assert AlgebraElement(algebra, {w: {0: 0, 1: 2}}).terms == {w: {1: 2}}
    x = algebra.monomial(w)
    assert (x - x).terms == {}
    assert x.scaled(0).terms == {}


def test_elements_reduce_exponents(torus_setup):
    track, algebra, basis = torus_setup
    order = algebra.params.phase_order
    w = basis[0]
    assert AlgebraElement(algebra, {w: {-1: 4}}).terms == {w: {order - 1: 4}}
    assert AlgebraElement(algebra, {w: {1: 3, order + 1: 2}}).terms == {w: {1: 5}}
    assert AlgebraElement(algebra, {w: {1: 3, 1 - order: -3}}) == algebra.zero()
    assert AlgebraElement(algebra, {w: {}, basis[1]: {2: 1}}).terms == {basis[1]: {2: 1}}


# --- chebyshev ------------------------------------------------------------------

def test_chebyshev_small_coefficients():
    assert chebyshev_coefficients(0) == [2]
    assert chebyshev_coefficients(1) == [0, 1]
    assert chebyshev_coefficients(2) == [-2, 0, 1]
    assert chebyshev_coefficients(3) == [0, -3, 0, 1]


def test_chebyshev_value_matches_coefficients():
    rng = random.Random(41)
    for n in range(8):
        coeffs = chebyshev_coefficients(n)
        for _ in range(5):
            x = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            direct = sum(c * x ** k for k, c in enumerate(coeffs))
            assert abs(chebyshev_value(n, x) - direct) < 1e-9


def test_chebyshev_trig_identity():
    rng = random.Random(43)
    for n in range(1, 8):
        for _ in range(5):
            t = rng.uniform(0, 2 * cmath.pi)
            assert abs(chebyshev_value(n, 2 * cmath.cos(t)) - 2 * cmath.cos(n * t)) < 1e-9


def test_chebyshev_fixed_point_two():
    for n in (1, 3, 5, 7, 11):
        assert chebyshev_value(n, 2) == 2


@given(st.randoms(use_true_random=False))
def test_chebyshev_composition(rnd):
    n = rnd.choice([3, 5, 7])
    b = cmath.rect(0.5 + 1.5 * rnd.random(), 2 * cmath.pi * rnd.random())
    lhs = chebyshev_value(n, b + 1 / b)
    rhs = b ** n + b ** (-n)
    assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))


def test_solve_chebyshev_counts_and_residuals():
    rng = random.Random(47)
    for n in (1, 3, 5, 7):
        for _ in range(10):
            y = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            sols = solve_chebyshev(y, n)
            assert len(sols) == n
            for x in sols:
                assert abs(chebyshev_value(n, x) - y) < 1e-9


def test_solve_chebyshev_odd_negative_two():
    sols = solve_chebyshev(-2, 3)
    assert any(abs(x + 2) < 1e-9 for x in sols)


def test_solve_chebyshev_rejects_bad_n():
    with pytest.raises(ValueError):
        solve_chebyshev(1.0, 0)
