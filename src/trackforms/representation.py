"""Irreducible representations of the balanced algebra at a root of unity.

Construction
------------
``symplectic_basis`` reads the certified normal form of the intersection
form on the tree basis (``lattice.certified_form``) and returns basis
pairs ``(alpha_i, beta_i)`` with ``theta(alpha_i, beta_i) = d_i`` in {1, 2}
(d = 1 pairs first) plus the puncture weight systems, which span the kernel.
The pairs are ``lattice.pair_vectors``'s, and ``verify``'s sample weight
systems ``lattice._combine``'s.
Given a value of ``zeta`` on every basis vector and scalars ``h_k`` with
``h_k^N = zeta(eta_k)``, the representation is a tensor product of
N-dimensional factors, one per pair,

    X_i = za_i C_i,   C_i v_j = q^(d_i (j+1)) v_j,
    Y_i = zb_i S_i,   S_i v_j = v_{j+1}            (indices mod N),

with ``za_i = zeta(alpha_i)^(1/N)``, ``zb_i = zeta(beta_i)^(1/N)`` and
``Z_{eta_k}`` acting by ``h_k``.  The dimension is ``N^(3g+s-3)`` and the
factor relations are ``C_i S_i = q^(d_i) S_i C_i``.

Symbols
-------
Each generator is a scalar times a clock ``C_i`` or a shift ``S_i``, so every
``rho(Z_w)`` is a scalar times ``prod_i C_i^(a_i) S_i^(b_i)``, an element of
a finite Heisenberg group (Weyl 1931; Bonahon-Liu 2007).  It is stored as its
*symbol*: integer vectors ``a``, ``b`` (one entry per pair) and ``e`` (one
per puncture) and a phase exponent ``k`` modulo 4N, which stand for

    omega^k prod_i za_i^(a_i) zb_i^(b_i) prod_k h_k^(e_k) . prod_i C_i^(a_i) S_i^(b_i).

A symbol holds O(m) integers whatever the dimension ``N^m``:

* From coefficients.  ``w = sum_u m_u gamma_u`` acts by the reordering phase
  ``omega^(-2 sum_{u<v} m_u m_v theta(gamma_u, gamma_v))`` times the ordered
  product of generator powers.  The form is block-diagonal on the pairs, so
  for ``m = (a, b, e)`` this is the symbol ``(a, b, e, -2 sum_i d_i a_i b_i)``.
* Product.  ``S_i^b C_i^a' = q^(-d_i a' b) C_i^a' S_i^b``: the exponents add
  and ``k += -4 sum_i d_i a'_i b_i``.
* Power.  ``x^n = (n a, n b, n e, n k - 4 sum_i d_i a_i b_i . n(n-1)/2)`` for
  every integer ``n``, negative ones included.
* Equality and deviation.  ``C^a S^b`` and ``C^a' S^b'`` are the same
  operator exactly when ``a_i = a'_i`` modulo ``N / gcd(N, d_i)`` and
  ``b_i = b'_i`` modulo ``N`` for every ``i``; the largest entry of
  ``|A - B|`` is then ``|s_A - s_B|`` for the evaluated scalars ``s``.  If
  ``b`` differs the two operators have disjoint supports and it is
  ``max(|s_A|, |s_B|)``.  If only ``a`` differs it is the largest
  ``|s_A - s_B q^t|`` over the ``t`` of the subgroup of Z/N generated by
  the ``d_i (a_i - a'_i)``, taken at the ``q^t`` nearest the direction of
  ``-s_A / s_B``, which one rounding finds.  ``deviation`` divides it by
  ``max(1, |s_A|, |s_B|)``, so that a zeta far from modulus 1 is held to
  the relative precision of its floats.

A scalar is evaluated as the product of the generators' own floating-point
values, ``omega^k`` times the ``za_i ** a_i``, ``zb_i ** b_i`` and
``h_k ** e_k``, so the checks measure the float error of the principal roots.
Nothing is a matrix: ``commutant_dimension`` is the exact certificate
``prod_i gcd(d_i, N)`` of the clock-and-shift theorem.

Decomposition
-------------
``decompose`` reads the coefficients of a weight system off the block form:
``a_i = theta(w, beta_i) / d_i`` and ``b_i = theta(alpha_i, w) / d_i``.  The
pairings of any number of weight systems with the columns ``betas +
alphas`` are one ``lattice.theta_matrix``.  The puncture coefficients are
the values of the remainder at the etas' first 1s.  The scalar of
``rho(Z_w^N)`` is ``central_character(w)``: the product of the
``zeta(gamma_u)^(m_u)`` times ``epsilon`` raised to the pairing sum
``sum_i d_i a_i b_i``.  When ``epsilon = +1`` (and always on basis vectors)
this is just the multiplicative extension of ``zeta``; when
``epsilon = -1`` the quadratic sign is genuinely there, as a direct
matrix-power computation confirms.

``verify``'s commutation check is one integer identity.  For generators
``u < v``, ``g_u g_v`` and ``q^theta(u,v) g_v g_u`` are the same symbol
exactly when ``Omega(u, v) = P(a_u, b_v) - P(a_v, b_u)`` equals
``theta(u, v)`` modulo N, with ``P(a, b) = sum_i d_i a_i b_i`` over the
generators' own symbols.  Only the pairs where it fails, and the pairs of a
generator whose scalar may reach ``2**SCALAR_BITS``, are evaluated in floats.

``verify`` draws ``FROBENIUS_SAMPLES`` coefficient vectors ``c``, checks that
``decompose`` recovers them, and keeps each sample's
deviation of ``power(symbol(c), N)`` from ``central_character``;
``central_scalar`` is the largest over the first ``SCALAR_SAMPLES``.

The unit rows need no decode.  A gamma's pairings with the columns are
entries of the matrix ``validate`` checks to be the block form, so its pair
coefficients are its unit entries.  Its eta coefficient ``k``, read at the
first 1 ``f_k`` of ``eta_k``, is then 0 for a pair vector and ``eta_j[f_k]``
for ``eta_j``, which ``validate`` checks to be 1 for ``j = k``, else 0.

``frobenius_compat`` reads its report off ``verify``'s pass.  The Frobenius image
of ``Z_w`` is ``Z_(N w)``, and by the power law ``symbol(N c)`` and
``power(symbol(c), N)`` are the same symbol ``(N a, N b, N e,
-2 N^2 sum_i d_i a_i b_i)``.  So ``basis_character`` is ``power_scalar``,
``random_character`` is the largest of all the sample deviations, and
``matrix_power_oracle`` is 0 by construction.  The monomial law
``frobenius(Z_w) = Z_(N w)`` is tested in ``tests/test_algebra.py`` and by
the two-pass oracle in ``tests/oracles.py``.

N-th roots ``zeta^(1/N)`` use the principal branch; any other choice gives an
isomorphic representation.
"""

from __future__ import annotations

import cmath
import math
import operator
import random
from dataclasses import dataclass, field, replace
from itertools import compress

from .algebra import AlgebraParams, solve_chebyshev
from .lattice import _combine, certified_form, pair_vectors, theta_matrix
from .traintrack import TriangulationTrack, is_weight_system, puncture_weights
# Not called here, but perfbench's tracer wraps or counts them at this module.
from .algebra import frobenius  # noqa: F401
from .lattice import skew_normal_form, weight_lattice_basis  # noqa: F401
from .traintrack import theta  # noqa: F401

# The h_k^N = zeta(eta_k) tolerance and the random lattice vectors of the
# central and Frobenius checks (the central check reads the first ones).
ROOT_TOL = 1e-9
SCALAR_SAMPLES = 5
FROBENIUS_SAMPLES = 10
# Two floats below 2**511 in modulus multiply without overflow, so the
# commutation check evaluates no agreeing pair whose two scalars stay below it.
SCALAR_BITS = 511


class RepresentationError(ValueError):
    """Inconsistent representation data (bad pairing, h_k^N != zeta(eta_k), ...)."""


@dataclass(frozen=True)
class SymplecticBasis:
    """Basis pairs with theta(alpha_i, beta_i) = d_i plus the puncture kernel vectors."""

    pairs: tuple[tuple[tuple[int, ...], tuple[int, ...], int], ...]
    etas: tuple[tuple[int, ...], ...]

    @property
    def gamma_vectors(self) -> list[tuple[int, ...]]:
        return ([a for a, _, _ in self.pairs]
                + [b for _, b, _ in self.pairs]
                + list(self.etas))


def symplectic_basis(track: TriangulationTrack) -> SymplecticBasis:
    """Pair basis from ``lattice.certified_form``, kernel from punctures."""
    basis, nf = certified_form(track)
    tri = track.tri
    g, s = tri.genus, tri.punctures
    expected = [1] * g + [2] * (2 * g + s - 3)
    if list(nf.blocks) != expected:
        raise RepresentationError(f"unexpected block pattern {nf.blocks} for (g, s) = ({g}, {s})")

    vectors = pair_vectors(nf, basis)
    pairs = list(zip(vectors[0::2], vectors[1::2], nf.blocks))
    etas = tuple(puncture_weights(track))
    return SymplecticBasis(tuple(pairs), etas)


@dataclass
class RepresentationSpec:
    """Input data of a representation: basis, zeta on the basis, puncture scalars."""

    track: TriangulationTrack
    params: AlgebraParams
    basis: SymplecticBasis
    zeta_alphas: list[complex]
    zeta_betas: list[complex]
    zeta_etas: list[complex]
    h: list[complex]

    def validate(self) -> list[list[int]]:
        """Check the spec, and so the unit rows' decode; return theta's matrix over the gammas."""
        m = len(self.basis.pairs)
        s = len(self.basis.etas)
        if not (len(self.zeta_alphas) == len(self.zeta_betas) == m and
                len(self.zeta_etas) == len(self.h) == s):
            raise RepresentationError("zeta/h lengths do not match the basis")
        for value in (*self.zeta_alphas, *self.zeta_betas, *self.zeta_etas, *self.h):
            if value == 0:
                raise RepresentationError("zeta and h values must be non-zero")
        pairing = theta_matrix(self.track, self.basis.gamma_vectors)
        for i, row in enumerate(pairing):
            d = self.basis.pairs[i][2] if i < m else 0  # what vector i pairs to with i + m
            if i < m and d not in (1, 2):
                raise RepresentationError(f"pair {i} has block value {d}, not 1 or 2")
            for j in range(i + 1, len(row)):
                expect = d if j == i + m else 0
                if row[j] != expect:
                    raise RepresentationError(
                        f"basis vectors {i}, {j} pair to {row[j]}, expected {expect}")
        # decompose reads eta k's coefficient at its first 1, where every other eta is 0
        for k, eta in enumerate(self.basis.etas):
            reads = [e[eta.index(1)] for e in self.basis.etas] if 1 in eta else None
            if reads != [int(j == k) for j in range(s)]:
                raise RepresentationError(f"the etas at the first 1 of eta {k} are not unit row {k}")
        for k, (h_k, z) in enumerate(zip(self.h, self.zeta_etas)):
            power = _power(h_k, self.params.N)
            if not abs(power - z) <= ROOT_TOL * max(1.0, abs(z)):
                raise RepresentationError(
                    f"h[{k}]^N = {power} differs from zeta(eta_{k}) = {z}")
        return pairing


def random_spec(track: TriangulationTrack, params: AlgebraParams, seed: int = 0) -> RepresentationSpec:
    """Generic unit-modulus zeta values with compatible random puncture scalars."""
    rng = random.Random(seed)
    basis = symplectic_basis(track)
    N = params.N
    unit = lambda: cmath.exp(2j * cmath.pi * rng.random())
    zeta_alphas = [unit() for _ in basis.pairs]
    zeta_betas = [unit() for _ in basis.pairs]
    zeta_etas = [unit() for _ in basis.etas]
    h = [_principal_root(z, N) * cmath.exp(2j * cmath.pi * rng.randrange(N) / N)
         for z in zeta_etas]
    return RepresentationSpec(track, params, basis, zeta_alphas, zeta_betas, zeta_etas, h)


def _principal_root(z: complex, n: int) -> complex:
    return cmath.exp(cmath.log(z) / n)


def _scaled(v: tuple[int, ...], n: int) -> tuple[int, ...]:
    """``n v``; a zero vector is returned as it is."""
    return tuple(n * c for c in v) if any(v) else v


def _differing(u, v):
    """The indices where ``u`` and ``v`` differ."""
    return compress(range(len(u)), map(operator.ne, u, v))


def _power(z: complex, n: int) -> complex:
    """``z ** n``, or an infinity where the power leaves the range of floats."""
    try:
        return z ** n
    except (OverflowError, ZeroDivisionError):
        return complex(math.inf)


@dataclass(frozen=True)
class Symbol:
    """``omega^k prod za^a zb^b h^e . prod_i C_i^(a_i) S_i^(b_i)`` (see the module docstring)."""

    a: tuple[int, ...]
    b: tuple[int, ...]
    e: tuple[int, ...]
    k: int


class Representation:
    """The symbols of a tensor product of cyclic factors realizing the algebra."""

    def __init__(self, spec: RepresentationSpec):
        params = spec.params
        N = params.N
        m = len(spec.basis.pairs)
        self._theta = spec.validate()
        self.spec = spec
        self.track = track = spec.track
        self.params = params
        self.dim = N ** m
        self.d = [d for _, _, d in spec.basis.pairs]
        # The generators' own values: X_i = za_i C_i, Y_i = zb_i S_i, Z_{eta_k} = h_k.
        self.za = [_principal_root(z, N) for z in spec.zeta_alphas]
        self.zb = [_principal_root(z, N) for z in spec.zeta_betas]
        self.h = list(spec.h)

        self.gamma_vectors = spec.basis.gamma_vectors
        self.zeta_gamma = list(spec.zeta_alphas) + list(spec.zeta_betas) + list(spec.zeta_etas)
        self._zero = (0,) * m
        self.generators = [self.symbol(row) for row in _unit_rows(len(self.gamma_vectors))]
        # theta(w, beta_i) = d_i a_i and theta(w, alpha_i) = -d_i b_i
        pair_gammas = self.gamma_vectors[:2 * m]
        self._columns = pair_gammas[m:] + pair_gammas[:m]
        # The etas are 0/1 with disjoint supports: each is read at its first 1,
        # where the pairs' gammas give the column subtracted from w.
        self._eta_columns = [(k, [g[k] for g in pair_gammas])
                             for k in (eta.index(1) for eta in spec.basis.etas)]

    # -- symbols ------------------------------------------------------------

    def _pairing(self, a, b) -> int:
        """``sum_i d_i a_i b_i``, the pairing sum of the form on the pairs; 0 at once if ``a`` or ``b`` is zero."""
        return sum(map(operator.mul, self.d, map(operator.mul, a, b))) if any(a) and any(b) else 0

    def symbol(self, coeffs) -> Symbol:
        """rho(Z_w) for the coefficients ``(a, b, e)`` of ``w`` over the gammas."""
        m = len(self.d)
        a, b, e = tuple(coeffs[:m]), tuple(coeffs[m:2 * m]), tuple(coeffs[2 * m:])
        return Symbol(a, b, e, -2 * self._pairing(a, b) % self.params.phase_order)

    def product(self, x: Symbol, y: Symbol) -> Symbol:
        k = x.k + y.k - 4 * self._pairing(y.a, x.b)
        return Symbol(tuple(map(operator.add, x.a, y.a)), tuple(map(operator.add, x.b, y.b)),
                      tuple(map(operator.add, x.e, y.e)), k % self.params.phase_order)

    def power(self, x: Symbol, n: int) -> Symbol:
        k = n * x.k - 2 * n * (n - 1) * self._pairing(x.a, x.b)
        return Symbol(_scaled(x.a, n), _scaled(x.b, n), _scaled(x.e, n), k % self.params.phase_order)

    def scalar(self, x: Symbol) -> complex:
        """The scalar of ``x``: omega^k times the generators' values to their exponents."""
        value = self.params.root_value(x.k)
        for values, exponents in ((self.za, x.a), (self.zb, x.b), (self.h, x.e)):
            for i in compress(range(len(exponents)), exponents):
                value *= _power(values[i], exponents[i])
        return value

    def deviation(self, x, y) -> float:
        """The exact largest entry of ``|A - B|`` over ``max(1, |s_A|, |s_B|)``.

        A side that is a number is that times I.
        """
        (ax, bx, sx), (ay, by, sy) = self._parts(x), self._parts(y)
        if not (cmath.isfinite(sx) and cmath.isfinite(sy)):
            return math.inf
        scale = max(1.0, math.hypot(sx.real, sx.imag), math.hypot(sy.real, sy.imag))
        N = self.params.N
        if bx != by and any((bx[i] - by[i]) % N for i in _differing(bx, by)):
            return max(abs(sx), abs(sy)) / scale
        step = N if ax == ay else math.gcd(N, *[self.d[i] * (ax[i] - ay[i]) for i in _differing(ax, ay)])
        if step == N:
            return abs(sx - sy) / scale
        # The q^t over the multiples t of step are the L-th roots of unity, and
        # |sx - sy z| is largest at the root z nearest the direction of
        # -sx / sy.  q^t = exp(2 pi i r t / N) for the root exponent r, so the
        # j-th root is t = step (j / r mod L).  Its neighbours are evaluated
        # too, in case the rounded phase lands across a midpoint.
        L = N // step
        j = round(cmath.phase(-sx * sy.conjugate()) * L / (2 * math.pi))
        r_inverse = pow(self.params.root_exponent, -1, L)
        return max(abs(sx - sy * self.params.root_value(4 * step * (k * r_inverse % L)))
                   for k in (j - 1, j, j + 1)) / scale

    def _parts(self, x) -> tuple[tuple[int, ...], tuple[int, ...], complex]:
        if isinstance(x, Symbol):
            return x.a, x.b, self.scalar(x)
        return self._zero, self._zero, complex(x)

    # -- weight systems -----------------------------------------------------

    def decompose(self, weights) -> list[int]:
        """Coefficients of ``weights`` over the gammas, read off the block form."""
        w = tuple(weights)
        if len(w) != self.track.branch_count or not is_weight_system(self.track, w):
            raise RepresentationError("input is not a weight system of the track")
        [coeffs] = self._coefficients([w])
        if _combine([coeffs], self.gamma_vectors) != [w]:
            raise RepresentationError("decomposition failed to reproduce the weight system")
        return coeffs

    def _coefficients(self, rows) -> list[list[int]]:
        """The coefficients of the weight systems ``rows`` read off the block form, unchecked.

        One ``theta_matrix`` of the rows with the columns ``betas + alphas``
        holds every ``d_i a_i = theta(w, beta_i)`` and ``d_i b_i = -theta(w, alpha_i)``.
        """
        blocks = [d for _, _, d in self.spec.basis.pairs]
        m = len(blocks)
        out = []
        for w, pairings in zip(rows, theta_matrix(self.track, rows, self._columns)):
            coeffs = []
            for x, d in zip(pairings[:m] + [-x for x in pairings[m:]], blocks + blocks):
                c, rem = divmod(x, d)
                if rem:
                    raise RepresentationError(
                        f"weight system leaves the lattice: pairing {x} is not a multiple of {d}")
                coeffs.append(c)
            out.append(coeffs + [w[k] - sum(map(operator.mul, coeffs, column))
                                 for k, column in self._eta_columns])
        return out

    def operator(self, weights) -> Symbol:
        """rho(Z_w) as a symbol."""
        return self.symbol(self.decompose(weights))

    def central_character(self, weights) -> complex:
        """The scalar of rho(Z_w^N): the epsilon-twisted multiplicative extension of zeta."""
        return self._character(self.decompose(weights))

    def _character(self, coeffs) -> complex:
        m = len(self.d)
        value = complex(self.params.epsilon ** (self._pairing(coeffs[:m], coeffs[m:2 * m]) % 2))
        for z, c in compress(zip(self.zeta_gamma, coeffs), coeffs):
            value *= _power(z, c)
        return value


def build(spec: RepresentationSpec) -> Representation:
    return Representation(spec)


# -- verification -------------------------------------------------------------

@dataclass
class CheckReport:
    dim: int
    deviations: dict[str, float] = field(default_factory=dict)
    commutant_dim: int | None = None
    passed: bool = False
    # verify's per-sample central deviations, which frobenius_compat reads; not printed
    sample_deviations: list[float] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "max_deviation": {k: float(v) for k, v in self.deviations.items()},
            **({} if self.commutant_dim is None else {"commutant_dim": self.commutant_dim}),
            "pass": self.passed,
        }


def commutant_dimension(rep: Representation) -> int:
    """Dimension of {X : [rho(Z_gamma), X] = 0 for all basis generators}.

    The image algebra is the tensor product of the factor algebras generated
    by (X_i, Y_i), and the eta generators are scalars, so the commutant is the
    tensor product of the factor commutants.  Each is known exactly by the
    clock-and-shift theorem (Weyl 1931).  The non-zero scalars ``za_i``,
    ``zb_i`` (``RepresentationSpec.validate``) leave it that of ``C_i`` and
    ``S_i``; the matrices commuting with the shift are the polynomials
    ``sum_k c_k S_i^k``, and one commutes with the clock exactly when
    ``c_k = 0`` unless ``q^(d_i k) = 1``.  ``q`` is a primitive N-th root
    (``AlgebraParams``), so that leaves the ``gcd(d_i, N)`` powers ``k`` that
    are multiples of ``N / gcd(d_i, N)``.  With no pairs the product is 1.
    """
    N = rep.params.N
    return math.prod(math.gcd(d, N) for d in rep.d)


def _max_deviation(rep: Representation, pairs) -> float:
    """The largest entry of |A - B| over the (A, B) pairs of symbols or scalars."""
    return max((rep.deviation(a, b) for a, b in pairs), default=0.0)


def _unit_rows(n: int) -> list[list[int]]:
    return [[int(u == v) for v in range(n)] for u in range(n)]


def _random_coefficients(rep: Representation, seed: int, count: int) -> list[list[int]]:
    """Seeded coefficient vectors in [-2, 2] over the gammas."""
    rng = random.Random(seed)
    return [[rng.randint(-2, 2) for _ in rep.gamma_vectors] for _ in range(count)]


def _weight_systems(rep: Representation, rows) -> None:
    """Check that the weight system of each coefficient row decomposes back to the row."""
    for row, coeffs in zip(rows, rep._coefficients(_combine(rows, rep.gamma_vectors))):
        if coeffs != row:
            raise RepresentationError(f"decompose does not recover the coefficients {row}")


def _heavy_generators(rep: Representation) -> set[int]:
    """The generators whose scalar may reach ``2**SCALAR_BITS`` in modulus.

    ``log2 |z|`` lies in ``[E - 1, E + 1)`` for the ``frexp`` exponent ``E``
    of the larger part of ``z``, so ``w``, the largest ``max(E + 1, 1 - E)``
    over the generators' values, bounds every ``|log2 |z||``.  A generator's
    scalar and each partial product of ``scalar`` then lie within
    ``2**(w sum |c|)`` over its exponents ``c``.  A zero or non-finite value
    makes ``w`` infinite.
    """
    def log2_bound(z):
        _, e = math.frexp(max(abs(z.real), abs(z.imag)))
        return max(e + 1, 1 - e) if z and cmath.isfinite(z) else math.inf

    w = max(map(log2_bound, (*rep.za, *rep.zb, *rep.h)), default=0)
    return {u for u, g in enumerate(rep.generators)
            if w * (sum(map(abs, g.a)) + sum(map(abs, g.b)) + sum(map(abs, g.e))) > SCALAR_BITS}


def _commutation(rep: Representation) -> float:
    """The largest deviation of ``g_u g_v`` from ``q^theta(u,v) g_v g_u`` over the pairs ``u < v``.

    The two sides have the same ``a``, ``b`` and ``e``, and phase exponents
    that differ by ``4 (Omega(u, v) - theta(u, v))`` modulo 4N, where
    ``Omega(u, v) = P(a_u, b_v) - P(a_v, b_u)`` and ``P(a, b) = sum_i d_i a_i b_i``
    over the generators' own symbols and ``rep.d``.  A pair with
    ``Omega = theta`` mod N is one symbol on both sides, whose scalar is one
    float, so its deviation is 0.0, or an infinity if that float is not
    finite.  Below ``2**SCALAR_BITS`` each, two generators' scalars multiply
    within the floats, so only the pairs that differ or hold a heavy
    generator are evaluated.  ``Omega`` is summed over the non-zero entries
    of the symbols, and ``theta`` is read above its diagonal.
    """
    gens, theta, d = rep.generators, rep._theta, rep.d
    N, order, n, m = rep.params.N, rep.params.phase_order, len(gens), len(d)
    with_a, with_b = [[] for _ in d], [[] for _ in d]
    for u, g in enumerate(gens):
        for i in compress(range(m), g.a):
            with_a[i].append((u, d[i] * g.a[i]))
        for i in compress(range(m), g.b):
            with_b[i].append((u, g.b[i]))
    omega = {}  # Omega above the diagonal, wherever it has a term or theta is non-zero
    for xs, ys in zip(with_a, with_b):
        for u, x in xs:
            for v, y in ys:
                if u != v:
                    key, term = ((u, v), x * y) if u < v else ((v, u), -x * y)
                    omega[key] = omega.get(key, 0) + term
    for u, row in enumerate(theta):
        for v in compress(range(u + 1, n), row[u + 1:]):
            omega.setdefault((u, v), 0)
    pairs = {(u, v) for (u, v), w in omega.items() if (w - theta[u][v]) % N}
    for u in _heavy_generators(rep):
        pairs.update((min(u, v), max(u, v)) for v in range(n) if v != u)

    def commuted(u, v):  # q^theta(gamma_u, gamma_v) rho(Z_gamma_v) rho(Z_gamma_u)
        x = rep.product(gens[v], gens[u])
        return replace(x, k=(x.k + 4 * theta[u][v]) % order)

    return _max_deviation(rep, ((rep.product(gens[u], gens[v]), commuted(u, v))
                                for u, v in pairs))


def verify(rep: Representation, tol: float = 1e-9, seed: int = 0) -> CheckReport:
    """Commutation phases, N-th power scalars, puncture scalars, irreducibility."""
    gens, N = rep.generators, rep.params.N
    report = CheckReport(dim=rep.dim)
    report.deviations["commutation"] = _commutation(rep)
    report.deviations["power_scalar"] = _max_deviation(
        rep, ((rep.power(g, N), z) for g, z in zip(gens, rep.zeta_gamma)))
    samples = _random_coefficients(rep, seed, FROBENIUS_SAMPLES)
    _weight_systems(rep, samples)
    report.deviations["puncture_scalar"] = _max_deviation(
        rep, zip(gens[2 * len(rep.d):], rep.spec.h))
    report.sample_deviations = [rep.deviation(rep.power(rep.symbol(c), N), rep._character(c))
                                for c in samples]
    report.deviations["central_scalar"] = max(report.sample_deviations[:SCALAR_SAMPLES],
                                              default=0.0)
    report.commutant_dim = commutant_dimension(rep)
    report.passed = (all(v <= tol for v in report.deviations.values())
                     and report.commutant_dim == 1)
    return report


def frobenius_compat(verified: CheckReport, tol: float = 1e-9) -> CheckReport:
    """Lifted commutative elements act by the central character, read off ``verify``'s report.

    The lift of ``Z_w`` is ``Z_(N w)``, whose symbol is ``Z_w``'s N-th power
    (module docstring), so ``matrix_power_oracle`` is 0 by construction.
    """
    report = CheckReport(dim=verified.dim, deviations={
        "basis_character": verified.deviations["power_scalar"],
        "random_character": max(verified.sample_deviations, default=0.0),
        "matrix_power_oracle": 0.0,
    })
    report.passed = all(v <= tol for v in report.deviations.values())
    return report


def puncture_invariants(trace_value: complex, N: int) -> list[complex]:
    """The N candidate puncture scalars p with T_N(p) = -trace_value."""
    return solve_chebyshev(-trace_value, N)
