"""Symbols against the length-d monomials and dense matrices they stand for."""

import random

import numpy as np
import pytest

from trackforms.representation import Symbol

from oracles import (
    Monomial,
    generators,
    loop_deviation,
    make_rep,
    reference_generators,
    symbol_dense,
    symbol_monomial,
)


def random_symbol(rep, rng, span=4):
    m, s = len(rep.d), len(rep.h)
    draw = lambda n: tuple(rng.randint(-span, span) for _ in range(n))
    return Symbol(draw(m), draw(m), draw(s), rng.randrange(rep.params.phase_order))


def relative(x, y) -> float:
    """|A - B| of two monomials over ``max(1, the larger scalar)``, as ``rep.deviation`` reads it."""
    return x.deviation(y) / max(1.0, float(np.abs(x.values).max()), float(np.abs(y.values).max()))


def close(x, y, tol=1e-11):
    return relative(x, y) <= tol


# (g, s, N) with dimension N^(3g+s-3) at most 3^7; N = 9 makes proper
# subgroups of Z/N reachable in the deviation.
MONOMIAL_CELLS = [(1, 2, 5), (2, 1, 3), (1, 2, 9), (1, 5, 3), (2, 4, 3)]


@pytest.mark.parametrize("g,s,N", MONOMIAL_CELLS)
def test_symbol_products_and_powers_match_monomials(g, s, N):
    rep = make_rep(g, s, N, epsilon=-1 if N == 5 else 1, seed=g + s + N)
    assert rep.dim <= 3 ** 7
    gens = generators(rep)
    rng = random.Random(N + s)
    for _ in range(4):
        x, y = random_symbol(rep, rng), random_symbol(rep, rng)
        mx, my = symbol_monomial(rep, x, gens), symbol_monomial(rep, y, gens)
        assert close(symbol_monomial(rep, rep.product(x, y), gens), mx @ my)
        c = x.a + x.b + x.e  # a coefficient row over the gammas
        for n in (-3, -1, 0, 1, 2, N + 2):
            assert close(symbol_monomial(rep, rep.power(x, n), gens), mx ** n), n
            # Z_(n w) is the n-th power of Z_w, exactly: matrix_power_oracle is 0 by it
            assert rep.symbol([n * v for v in c]) == rep.power(rep.symbol(c), n), n


@pytest.mark.parametrize("g,s,N", MONOMIAL_CELLS)
def test_symbol_deviation_matches_monomials_on_every_branch(g, s, N):
    rep = make_rep(g, s, N, seed=3 * g + s)
    gens = generators(rep)
    N = rep.params.N
    rng = random.Random(g + N)
    shift = lambda v, i, by: v[:i] + (v[i] + by,) + v[i + 1:]
    for _ in range(3):
        x = random_symbol(rep, rng, span=2)
        i = rng.randrange(len(rep.d))
        # the same clock-and-shift word, with another scalar
        same = [Symbol(shift(x.a, i, N), shift(x.b, i, -N), x.e, x.k),
                Symbol(x.a, x.b, x.e, x.k + 1),
                Symbol(x.a, x.b, shift(x.e, 0, 1), x.k)]
        a_apart = [Symbol(shift(x.a, i, t), x.b, x.e, x.k) for t in (1, 3, N - 1)]
        b_apart = [Symbol(x.a, shift(x.b, i, t), x.e, x.k) for t in (1, N - 1)]
        mx = symbol_monomial(rep, x, gens)
        for y in same + a_apart + b_apart:
            my = symbol_monomial(rep, y, gens)
            assert abs(rep.deviation(x, y) - relative(mx, my)) < 1e-12
        # a number is that multiple of the identity
        for c in (0.5, rep.scalar(x)):
            expected = relative(mx, Monomial.scalar(rep.dim, c))
            assert abs(rep.deviation(x, c) - expected) < 1e-12
            assert abs(rep.deviation(c, x) - expected) < 1e-12
        assert rep.deviation(x, x) == 0.0
        apart = max(abs(rep.scalar(x)), abs(rep.scalar(b_apart[0])))
        assert rep.deviation(x, b_apart[0]) == apart / max(1.0, apart)


@pytest.mark.parametrize("N", [3, 9, 15, 21])
@pytest.mark.parametrize("epsilon", [1, -1])
def test_closed_form_deviation_matches_the_subgroup_walk(N, epsilon):
    # symbols whose clock exponents a differ and shift exponents b agree mod N,
    # against each other and against numbers, over every root exponent's subgroups
    rng = random.Random(N * epsilon)
    for omega_index in range(2):
        rep = make_rep(1, 2, N, epsilon=epsilon, seed=N, omega_index=omega_index)
        hits = 0
        for _ in range(40):
            x = random_symbol(rep, rng)
            a = tuple(c + rng.choice((0, N // 3, N // 5 if N % 5 == 0 else 1, 1))
                      for c in x.a)
            b = tuple(c + N * rng.randint(-1, 1) for c in x.b)
            y = Symbol(a, b, tuple(rng.randint(-3, 3) for _ in x.e), rng.randrange(4 * N))
            for u, v in ((x, y), (y, x), (x, rng.uniform(0.5, 2.0)), (x, 0.0)):
                assert rep.deviation(u, v) == loop_deviation(rep, u, v)
            hits += a != x.a
        assert hits > 20


@pytest.mark.parametrize("g,s,N", [(1, 2, 5), (1, 5, 3), (0, 8, 3)])
def test_symbols_match_the_dense_kron(g, s, N):
    rep = make_rep(g, s, N, seed=g + 2 * s)
    assert rep.dim <= 243
    dense = reference_generators(rep)
    rng = random.Random(s)
    x, y = random_symbol(rep, rng, span=2), random_symbol(rep, rng, span=2)
    dx, dy = symbol_dense(rep, x, dense), symbol_dense(rep, y, dense)
    assert np.max(np.abs(symbol_dense(rep, rep.product(x, y), dense) - dx @ dy)) < 1e-10
    for n in (-1, 2, N + 1):
        power = symbol_dense(rep, rep.power(x, n), dense)
        assert np.max(np.abs(power - np.linalg.matrix_power(dx, n))) < 1e-10, n
    a_apart = Symbol(x.a[:-1] + (x.a[-1] + 1,), x.b, x.e, x.k)
    for other in (y, Symbol(x.a, x.b, x.e, x.k + 4), a_apart):
        reference = float(np.max(np.abs(dx - symbol_dense(rep, other, dense))))
        assert abs(rep.deviation(x, other) - reference) < 1e-10


def test_scalar_overflow_is_infinite():
    rep = make_rep(1, 1, 3, seed=1)
    rep.za[0] = 1e200
    x = Symbol((3,), (0,), (0,), 0)
    assert rep.deviation(x, 1.0) == float("inf")
    rep.za[0] = 1e-200
    assert rep.deviation(Symbol((-3,), (0,), (0,), 0), 1.0) == float("inf")
