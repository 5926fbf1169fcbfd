"""Exact arithmetic in the balanced root-of-unity torus algebra of a track.

Parameters
----------
The deformation parameter is a unit complex number ``w`` whose fourth power
``q = w^4`` is a primitive N-th root of unity, N odd.  Every such ``w`` is
``exp(2 pi i k / 4N)`` for some exponent ``k`` coprime to ``N``, so
:class:`AlgebraParams` stores the pair ``(N, k)`` and all phase arithmetic is
exact integer arithmetic on exponents modulo ``4N``.  Derived constants:
``epsilon = (w^{-2})^N = (-1)^k`` and ``iota = w^{N^2}``, a fourth root of
unity.  The algebra at ``iota`` is the same construction run at ``N = 1``
(``iota^4 = 1``), which is the commutative degeneration.

Elements
--------
The algebra has basis ``Z_w`` indexed by the integer weight systems of the
triangulation track, with product

    Z_a * Z_b = w^(2 theta(a, b)) Z_(a+b).

An element is a finite map  weight system -> phase polynomial,  where a phase
polynomial is a dict {exponent mod 4N: integer coefficient}: an integer
combination of powers of ``w``, reduced only by ``w^(4N) = 1``.  Elements are
kept reduced (every exponent in ``[0, 4N)``, no zero coefficient, no empty
polynomial), so equality is equality of the dicts.  The constructor reduces
arbitrary input; ``mul`` and ``frobenius`` build reduced terms themselves
(see Products).  ``phase_eval`` sends a phase polynomial to a complex number
for a concrete ``w``.

Monomials correspond to symmetrized ordered products of the edge generators:
``weyl_exponent`` computes the symmetrizing phase ``-sum_{u<v} k_u k_v
sigma_uv`` from the switch-sum vector, and ``ordered_product_normal_form``
reduces an arbitrary ordered generator string to (sorted exponent vector,
total phase), which is how permutation invariance of the symmetrized product
is tested.

Products
--------
``theta(a, b) = a^T T b / 2`` for the track's germ-pair form ``T``.  An
algebra turns the track's germ pairs into an array once, at its first
product (``intcore.germ_pair_array``).  A product of a p-term element by a
q-term element forms the germ images ``T b`` of the q right-hand weight
systems as one scatter over the germ pairs, and then all p*q doubled phases
``a . T b`` as one product (``intcore.doubled_pairings``).  The product goes
through ``intcore.matmul``, on float64 BLAS while a bit bound keeps it exact
and on Python ints otherwise, so no phase ever wraps or rounds.  The keys
``a + b`` are one broadcast sum, and one loop over the term pairs adds the
coefficient products into polynomials at exponents already reduced mod 4N.
The product drops what cancelled to 0 and hands its terms over reduced,
without the constructor's second pass; ``frobenius`` does the same with its
lift, which is reduced by construction.

Chebyshev utilities
-------------------
``chebyshev_coefficients``/``chebyshev_value`` implement the normalized
polynomials T_0 = 2, T_1 = x, T_{n+1} = x T_n - T_{n-1}, which satisfy
``T_n(a + 1/a) = a^n + 1/a^n`` and ``trace(M^n) = T_n(trace M)`` for unit
determinant 2x2 matrices.  ``solve_chebyshev`` returns all n solutions of
``T_n(x) = y``.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass

from .traintrack import TriangulationTrack, from_switch_sums, puncture_weight
from .traintrack import require_weight_system, theta
from .triangulation import sigma_matrix

TWO_PI = 2.0 * math.pi


# --- parameters ------------------------------------------------------------

@dataclass(frozen=True)
class AlgebraParams:
    """Root data (N, k): w = exp(2 pi i k / 4N), q = w^4 primitive N-th root."""

    N: int
    root_exponent: int

    def __post_init__(self):
        _check_candidate_filter(self.N, None)
        k = self.root_exponent % (4 * self.N)
        object.__setattr__(self, "root_exponent", k)
        if math.gcd(k, self.N) != 1:
            raise ValueError(f"w^4 must be a primitive {self.N}-th root: gcd({k}, {self.N}) != 1")

    @property
    def phase_order(self) -> int:
        return 4 * self.N

    @property
    def omega(self) -> complex:
        return self.root_value(1)

    @property
    def q(self) -> complex:
        return self.root_value(4)

    @property
    def epsilon(self) -> int:
        """(w^-2)^N = +-1; the sign splitting the two families of parameters."""
        return -1 if self.root_exponent % 2 else 1

    def root_value(self, exponent: int) -> complex:
        e = (exponent * self.root_exponent) % self.phase_order
        return cmath.exp(2j * math.pi * e / self.phase_order)

    def iota_params(self) -> "AlgebraParams":
        """Parameters of the commutative degeneration: iota = w^(N^2), N -> 1."""
        return AlgebraParams(1, (self.root_exponent * self.N) % 4)


def params_from_omega(N: int, omega: complex, tol: float = 1e-9) -> AlgebraParams:
    """Recover exact (N, k) parameters from a concrete unit-modulus w."""
    if abs(abs(omega) - 1.0) > tol:
        raise ValueError(f"w must have modulus 1, got |w| = {abs(omega)}")
    candidate = AlgebraParams(N, round(cmath.phase(omega) / TWO_PI * 4 * N))  # validates N
    if abs(candidate.omega - omega) > tol:
        raise ValueError(f"w is not a 4N-th root of unity for N = {N}")
    return candidate


# ``omega_candidate`` factors N by trial division up to sqrt(N), so its time
# grows as sqrt(N): 0.16 s for the prime 2**40 - 87 on one core.  A larger N
# needs an explicit omega (``params_from_omega``).
OMEGA_CANDIDATE_MAX_N = 2 ** 40


def omega_candidates(N: int, epsilon: int | None = None) -> list[AlgebraParams]:
    """All parameter choices for a given odd N, optionally filtered by epsilon."""
    return [AlgebraParams(N, k) for k in _root_exponents(N, epsilon)]


def omega_candidate(N: int, epsilon: int | None = None, index: int = 0) -> AlgebraParams:
    """``omega_candidates(N, epsilon)[index % count]``, without building the list.

    The exponents k < 4N coprime to N number 4 phi(N).  N is odd, so k -> k + N
    (mod 4N) flips the parity of k, which is the sign epsilon, and keeps
    gcd(k, N): each epsilon has half of them.  ``count(x)``, the number of
    candidates below x, is an inclusion-exclusion over the squarefree divisors
    D of N: the multiples of D below x, or with epsilon those of one parity,
    the k = D p (mod 2D) for the parity p.  The chosen k is the least with
    ``count(k + 1) > index % count(4N)``, found by binary search.
    """
    _check_candidate_filter(N, epsilon)
    if N > OMEGA_CANDIDATE_MAX_N:
        raise ValueError(f"N must be at most 2**40 to pick an omega candidate (or give omega), got {N}")
    divisors = [(1, 1)]  # (Moebius sign, squarefree divisor)
    for p in _prime_factors(N):
        divisors += [(-sign, d * p) for sign, d in divisors]
    step, parity = (1, 0) if epsilon is None else (2, 0 if epsilon == 1 else 1)

    def count(x: int) -> int:
        return sum(sign * ((x - d * parity + d * step - 1) // (d * step))
                   for sign, d in divisors)

    skip = index % count(4 * N)
    lo, hi = 0, 4 * N - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if count(mid + 1) > skip:
            hi = mid
        else:
            lo = mid + 1
    return AlgebraParams(N, lo)


def _root_exponents(N: int, epsilon):
    """The exponents k < 4N coprime to N in increasing order; with epsilon, those of that sign."""
    _check_candidate_filter(N, epsilon)
    return (k for k in range(4 * N)
            if math.gcd(k, N) == 1 and (epsilon is None or (-1 if k % 2 else 1) == epsilon))


def _check_candidate_filter(N: int, epsilon) -> None:
    if N < 1 or N % 2 == 0:
        raise ValueError(f"N must be odd and positive, got {N}")
    if epsilon is not None and (type(epsilon) is not int or epsilon not in (1, -1)):
        raise ValueError(f"epsilon must be 1 or -1, got {epsilon}")


def _prime_factors(n: int) -> list[int]:
    """The distinct primes of n by trial division."""
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


# --- phase polynomials: dict exponent -> integer coefficient ---------------

Phase = dict


def phase_term(exponent: int, order: int, coeff: int = 1) -> Phase:
    return {exponent % order: coeff}


def phase_add(p: Phase, q: Phase) -> Phase:
    out = dict(p)
    for e, c in q.items():
        out[e] = out.get(e, 0) + c
    return out


def phase_scale(p: Phase, factor: int) -> Phase:
    return {e: c * factor for e, c in p.items()}


def phase_shift(p: Phase, exponent: int, order: int) -> Phase:
    return {(e + exponent) % order: c for e, c in p.items()}


def phase_eval(p: Phase, params: AlgebraParams) -> complex:
    return sum((c * params.root_value(e) for e, c in p.items()), 0j)


def _reduced_phase(items, order: int) -> Phase:
    """The polynomial sum of ``c w^e`` over the ``(e, c)`` items, reduced.

    Exponents are taken modulo ``order``, repeated ones add, and zero
    coefficients are dropped.  ``items`` is sized and iterated at most twice.
    """
    out = {e % order: c for e, c in items if c}
    if len(out) == len(items):  # nothing dropped and no two exponents met
        return out
    out = {}
    for e, c in items:
        e %= order
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


# --- elements ---------------------------------------------------------------

class AlgebraElement:
    """Finite phase-weighted sum of basis monomials Z_w, w a weight system.

    ``terms`` maps each weight system to its phase polynomial, kept reduced.
    The constructor reduces any ``terms`` it is given.  ``mul`` and
    ``frobenius`` build theirs reduced and wrap them with ``_reduced``,
    which does not check again.
    """

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra: "BalancedAlgebra", terms: dict):
        self.algebra = algebra
        order = algebra.params.phase_order
        self.terms = {w: q for w, p in terms.items() if (q := _reduced_phase(p.items(), order))}

    @classmethod
    def _reduced(cls, algebra: "BalancedAlgebra", terms: dict) -> "AlgebraElement":
        """Wrap ``terms`` that are already reduced, without checking them."""
        out = cls.__new__(cls)
        out.algebra = algebra
        out.terms = terms
        return out

    def __eq__(self, other) -> bool:
        return (isinstance(other, AlgebraElement)
                and self.algebra.params == other.algebra.params
                and self.terms == other.terms)

    def __hash__(self):
        raise TypeError("AlgebraElement is not hashable")

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self.algebra.require_same(other)
        out = dict(self.terms)
        for w, p in other.terms.items():
            out[w] = phase_add(out.get(w, {}), p)
        return AlgebraElement(self.algebra, out)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self + other.scaled(-1)

    def __mul__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self.algebra.mul(self, other)

    def scaled(self, factor: int) -> "AlgebraElement":
        return AlgebraElement(self.algebra, {w: phase_scale(p, factor) for w, p in self.terms.items()})

    def scaled_by_root(self, exponent: int) -> "AlgebraElement":
        order = self.algebra.params.phase_order
        return AlgebraElement(self.algebra, {w: phase_shift(p, exponent, order) for w, p in self.terms.items()})

    def __repr__(self) -> str:
        return f"AlgebraElement({len(self.terms)} terms, N={self.algebra.params.N})"

    def to_json_dict(self) -> dict:
        return {
            "N": self.algebra.params.N,
            "root_exponent": self.algebra.params.root_exponent,
            "terms": [
                {"weights": list(w), "coeff": sorted([e, c] for e, c in p.items())}
                for w, p in sorted(self.terms.items())
            ],
        }


class BalancedAlgebra:
    """The algebra attached to a triangulation track at fixed root parameters.

    ``mul`` pairs every term of the left factor with the germ images of the
    right factor's weight systems in one exact product (see the module
    docstring).  Past its germ-pair array, built at the first product, an
    algebra keeps no cache, so its memory does not grow with the products it
    has computed.
    """

    def __init__(self, track: TriangulationTrack, params: AlgebraParams):
        if not isinstance(track, TriangulationTrack):
            raise TypeError("BalancedAlgebra needs the track of a triangulation")
        self.track = track
        self.params = params
        self._germ_pairs = None  # intcore.germ_pair_array of the track, built at the first product

    # -- plumbing ---------------------------------------------------------

    def require_same(self, other_or_element) -> None:
        other = other_or_element.algebra if isinstance(other_or_element, AlgebraElement) else other_or_element
        if other.track is not self.track or other.params != self.params:
            raise ValueError("algebra parameter or track mismatch")

    def theta(self, a: tuple, b: tuple) -> int:
        return theta(self.track, a, b)

    # -- constructors -------------------------------------------------------

    def zero(self) -> AlgebraElement:
        return AlgebraElement(self, {})

    def one(self) -> AlgebraElement:
        return self.monomial((0,) * self.track.branch_count)

    def monomial(self, weights) -> AlgebraElement:
        """The basis element Z_w with coefficient exactly 1."""
        w = require_weight_system(self.track, weights)
        return AlgebraElement(self, {w: phase_term(0, self.params.phase_order)})

    def puncture_element(self, k: int) -> AlgebraElement:
        return self.monomial(puncture_weight(self.track, k))

    # -- operations ----------------------------------------------------------

    def mul(self, x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
        """The product ``x y``: one exact pairing of all term pairs, then one merge.

        The doubled phases ``2 theta(a, b) = a . (T b)`` of every term pair
        are one product of ``x``'s weight rows with the germ images of
        ``y``'s, and the keys ``a + b`` one broadcast sum.  The merge adds
        each coefficient product at its exponent, already reduced mod 4N.
        Only a coefficient that cancels to 0 can leave a term unreduced, so
        the polynomials holding one (a C-level ``0 in p.values()`` test) are
        rebuilt without their zeros, and those left empty are dropped.
        """
        self.require_same(x)
        self.require_same(y)
        if not x.terms or not y.terms:
            return self.zero()
        from . import intcore
        if self._germ_pairs is None:
            self._germ_pairs = intcore.germ_pair_array(self.track.germ_pairs)
        a, b = intcore.as_array(list(x.terms)), intcore.as_array(list(y.terms))
        doubled = intcore.doubled_pairings(self._germ_pairs, a, b).tolist()
        keys = (a[:, None, :] + b[None, :, :]).tolist()
        order = self.params.phase_order
        out: dict = {}
        y_items = [list(pb.items()) for pb in y.terms.values()]
        for pa, keys_a, doubled_a in zip(x.terms.values(), keys, doubled):
            pa = list(pa.items())
            for pb, key, d in zip(y_items, keys_a, doubled_a):
                poly = out.setdefault(tuple(key), {})
                for e1, c1 in pa:
                    e1 += d
                    for e2, c2 in pb:
                        e = (e1 + e2) % order
                        poly[e] = poly.get(e, 0) + c1 * c2
        for w in [w for w, p in out.items() if 0 in p.values()]:
            if p := {e: c for e, c in out[w].items() if c}:
                out[w] = p
            else:
                del out[w]
        return AlgebraElement._reduced(self, out)

    def power(self, x: AlgebraElement, m: int) -> AlgebraElement:
        if m < 0:
            raise ValueError("power expects a non-negative exponent")
        result = self.one()
        for _ in range(m):
            result = self.mul(result, x)
        return result

    def weyl_exponent(self, sums) -> int:
        """Symmetrizing exponent -sum_{u<v} k_u k_v sigma_uv of a balanced switch-sum vector."""
        from_switch_sums(self.track, sums)  # raises ParityViolation when unbalanced
        sigma = sigma_matrix(self.track.tri)
        n = len(sums)
        total = 0
        for u in range(n):
            for v in range(u + 1, n):
                total -= sums[u] * sums[v] * sigma[u][v]
        return total % self.params.phase_order

    def element_from_json_dict(self, data: dict) -> AlgebraElement:
        if data.get("N") != self.params.N or data.get("root_exponent") != self.params.root_exponent:
            raise ValueError("element JSON carries different parameters")
        items: dict = {}  # repeated weights and exponents add up
        try:
            for item in data["terms"]:
                items.setdefault(require_weight_system(self.track, item["weights"]), []).extend(
                    (operator.index(e), operator.index(c)) for e, c in item["coeff"])
        except TypeError as exc:
            raise ValueError(f"malformed element JSON: {exc}") from exc
        order = self.params.phase_order
        return AlgebraElement(self, {w: _reduced_phase(pairs, order) for w, pairs in items.items()})


def ordered_product_normal_form(sigma, factors, order: int) -> tuple[tuple[int, ...], int]:
    """Reduce an ordered generator string to its symmetrized normal form.

    ``factors`` is a sequence of (generator index, exponent) pairs describing
    the ordered product; the result is the total exponent vector together
    with the phase exponent of the symmetrized product, i.e. the bracket
    phase of the string plus the commutation phases that sort it by index.
    Permutations of the string leave the result unchanged.
    """
    n = len(sigma)
    # bracket phase of the string as written
    phase = 0
    try:
        fs = [(operator.index(i), operator.index(m)) for i, m in factors]
    except TypeError as exc:
        raise ValueError(f"factors must be integer pairs: {exc}") from exc
    for u in range(len(fs)):
        for v in range(u + 1, len(fs)):
            iu, mu = fs[u]
            iv, mv = fs[v]
            phase -= mu * mv * sigma[iu][iv]
    # insertion sort by generator index, tracking commutation phases
    work = list(fs)
    for a in range(1, len(work)):
        b = a
        while b > 0 and work[b - 1][0] > work[b][0]:
            (i, m), (j, mj) = work[b - 1], work[b]
            # Z_i^m Z_j^mj = w^(2 m mj sigma_ij) Z_j^mj Z_i^m
            phase += 2 * m * mj * sigma[i][j]
            work[b - 1], work[b] = work[b], work[b - 1]
            b -= 1
    vector = [0] * n
    for i, m in work:
        vector[i] += m
    return tuple(vector), phase % order


def frobenius(x: AlgebraElement, target: BalancedAlgebra) -> AlgebraElement:
    """Lift an element of the commutative degeneration along Z_w -> Z_(N w).

    The source must live at the iota parameters of ``target`` (same track);
    the coefficient exponents re-embed via iota = w^(N^2), ``e -> e N^2 mod 4N``.

    The lift of a reduced element is reduced, so it is wrapped unchecked.
    ``w -> N w`` is injective, so no two terms meet.  The source exponents
    lie in ``Z/4``, and ``e -> e N^2 mod 4N`` is injective there: N is odd,
    so ``e N^2 = N (e N mod 4) (mod 4N)`` and ``e -> e N mod 4`` permutes
    ``Z/4``.  So no two exponents of a polynomial meet, and the coefficients
    stay the source's, none of them 0.
    """
    src = x.algebra
    if src.track is not target.track:
        raise ValueError("frobenius needs both algebras on the same track")
    if src.params != target.params.iota_params():
        raise ValueError("source parameters are not the iota degeneration of the target")
    N = target.params.N
    lift = N * N
    order = target.params.phase_order
    terms = {tuple([N * v for v in w]): {e * lift % order: c for e, c in p.items()}
             for w, p in x.terms.items()}
    return AlgebraElement._reduced(target, terms)


# --- Chebyshev utilities ----------------------------------------------------

def chebyshev_coefficients(n: int) -> list[int]:
    """Coefficients (ascending) of the normalized Chebyshev polynomial T_n."""
    if n < 0:
        raise ValueError("n must be non-negative")
    prev, cur = [2], [0, 1]
    if n == 0:
        return prev
    for _ in range(n - 1):
        nxt = [0] + cur
        for i, c in enumerate(prev):
            nxt[i] -= c
        prev, cur = cur, nxt
    return cur


def chebyshev_value(n: int, x):
    """T_n(x) by the three-term recurrence; exact on ints, stable on complex."""
    if n < 0:
        raise ValueError("n must be non-negative")
    prev, cur = 2, x
    if n == 0:
        return prev
    for _ in range(n - 1):
        prev, cur = cur, x * cur - prev
    return cur


def solve_chebyshev(y: complex, n: int) -> list[complex]:
    """All n solutions of T_n(x) = y.

    Write y = b + 1/b; then the solutions are a + 1/a over the n-th roots a
    of b (either quadratic root b gives the same solution set).
    """
    if n < 1:
        raise ValueError("n must be positive")
    y = complex(y)
    s = cmath.sqrt(y * y - 4)
    # the two quadratic roots multiply to 1; take the larger to avoid cancellation
    b = (y + s) / 2 if abs(y + s) >= abs(y - s) else (y - s) / 2
    r = abs(b) ** (1.0 / n)
    base = cmath.phase(b)
    out = []
    for j in range(n):
        a = r * cmath.exp(1j * (base + TWO_PI * j) / n)
        out.append(a + 1 / a)
    return out
