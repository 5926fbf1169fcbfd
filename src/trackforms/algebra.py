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

An element is a finite sum of terms ``c w^e Z_k``: an integer coefficient
``c``, a power of ``w`` reduced only by ``w^(4N) = 1``, and a weight system
``k``.  :class:`AlgebraElement` holds it in one canonical array form:

- ``keys``: its weight systems, unique rows in lexicographic order;
- the entries ``term``, ``exponent``, ``coeff``: three vectors, ``term``
  indexing ``keys``, sorted by term and then exponent, every exponent in
  ``[0, 4N)``, no coefficient 0 and no key without an entry.

The form of an element is unique, so equality is equality of the arrays,
between elements of the same track and parameters.  The arrays are int64
while a bit bound keeps every value below ``2**62``, and ``object`` arrays
of Python ints past it (``intcore``'s bound-then-widen rule), so weights,
exponents and coefficients of any size stay exact.  The constructor reads
the map ``{weights: {exponent: coeff}}`` and reduces it, ``terms`` gives
that map back, and ``phase_eval`` sends one of its phase polynomials to a
complex number for a concrete ``w``.  Only a read from a map or from JSON
sorts weight tuples; products and ``frobenius`` work on the arrays.
Importing this module or making an algebra loads no numpy; the first
element does.

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
product (``intcore.word_rows``).  The product of a p-term by a q-term
element is a short sequence of array steps:

1. all p*q doubled phases ``a_i^T T b_j`` are ``intcore.doubled_pairings``
   of the two factors' keys, the routine behind ``lattice.theta_matrix`` on
   arrays: one exact product over the germ pairs' branch columns (float64
   BLAS while a bit bound keeps it exact and Python ints past it), which
   raises if a pairing is odd;
2. every pair of entries gets its term pair, its exponent ``e1 + e2 + 2
   theta`` mod 4N and its coefficient ``c1 c2`` by broadcasting;
3. the p*q keys ``a_i + b_j`` are numbered in lexicographic order by one
   sort of packed integer codes (``intcore.sum_ranks``);
4. one sort by (key, exponent) slot brings equal slots together,
   ``np.add.reduceat`` adds them, and zeros, then keys left empty, are
   dropped (``intcore.merge_slots``).

Before each step whose int64 values could pass ``2**62`` (a key sum, a
coefficient product and its sums, a phase sum or slot at large 4N) a bit
bound is checked, and past it the arrays widen to Python ints.
``frobenius`` scales keys by N and exponents by N^2 mod 4N and sorts the
entries of each term again; the keys keep their order.

On the (2,2) ``algebra_laws`` benchmark this took the median ``ops_per_s``
from 584 to 1035 and the median operation from 1.65 to 0.93 ms (ten
alternating 25 s parent/change runs, seeds 51-60, on a 2-vCPU host with
CPython 3.11 and numpy 2.4; every run of the change was faster).

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

from .traintrack import TrackError, TriangulationTrack, from_switch_sums
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

def phase_eval(p: dict, params: AlgebraParams) -> complex:
    return sum((c * params.root_value(e) for e, c in p.items()), 0j)


# --- elements ---------------------------------------------------------------

class AlgebraElement:
    """Finite phase-weighted sum of basis monomials Z_w, w a weight system.

    Held in the canonical array form of the module docstring: ``keys``, and
    the entries ``term``, ``exponent`` and ``coeff``.
    ``AlgebraElement(algebra, terms)`` reads and reduces a map ``{weights:
    {exponent: coeff}}``; ``terms`` gives the map back.  The arrays are
    shared between elements and never changed in place.
    """

    __slots__ = ("algebra", "keys", "term", "exponent", "coeff")

    def __init__(self, algebra: "BalancedAlgebra", terms: dict):
        weights, entries = [], []
        for w, p in terms.items():
            entries += [(len(weights), e, c) for e, c in p.items()]
            weights.append(w)
        self.algebra = algebra
        self.keys, self.term, self.exponent, self.coeff = algebra._read(weights, entries)

    @classmethod
    def _wrap(cls, algebra, keys, term, exponent, coeff) -> "AlgebraElement":
        """Wrap arrays that are already in canonical form, without checking them."""
        out = cls.__new__(cls)
        out.algebra = algebra
        out.keys, out.term, out.exponent, out.coeff = keys, term, exponent, coeff
        return out

    def _entries(self) -> list:
        """The ``(term, exponent, coeff)`` entries as Python ints."""
        return list(zip(self.term.tolist(), self.exponent.tolist(), self.coeff.tolist()))

    @property
    def terms(self) -> dict:
        """The map ``{weights: {exponent: coeff}}`` of the element, as Python ints.

        It iterates in the canonical order: keys lexicographically, each
        polynomial by exponent.
        """
        polys = [{} for _ in range(len(self.keys))]
        for t, e, c in self._entries():
            polys[t][e] = c
        return dict(zip(map(tuple, self.keys.tolist()), polys))

    def __eq__(self, other) -> bool:
        if not (isinstance(other, AlgebraElement)
                and self.algebra.track is other.algebra.track
                and self.algebra.params == other.algebra.params):
            return False
        import numpy as np
        return all(np.array_equal(a, b) for a, b in zip(
            (self.keys, self.term, self.exponent, self.coeff),
            (other.keys, other.term, other.exponent, other.coeff)))

    def __hash__(self):
        raise TypeError("AlgebraElement is not hashable")

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self.algebra.require_same(other)
        shift = len(self.keys)
        return AlgebraElement._wrap(self.algebra, *self.algebra._read(
            self.keys.tolist() + other.keys.tolist(),
            self._entries() + [(t + shift, e, c) for t, e, c in other._entries()]))

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self + other.scaled(-1)

    def __mul__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self.algebra.mul(self, other)

    def scaled(self, factor: int) -> "AlgebraElement":
        factor = operator.index(factor)
        if not factor:
            return self.algebra.zero()
        from . import intcore
        coeff = self.coeff
        if coeff.dtype != object and intcore.max_bits(coeff) + factor.bit_length() > intcore.WORD_BITS:
            coeff = coeff.astype(object)
        return AlgebraElement._wrap(self.algebra, self.keys, self.term, self.exponent, coeff * factor)

    def __repr__(self) -> str:
        return f"AlgebraElement({len(self.keys)} terms, N={self.algebra.params.N})"

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

    ``mul`` pairs the keys of the two factors with ``intcore.doubled_pairings``
    (see the module docstring).  Past its germ-pair array, built at its first
    product, and its switch matrix, built the first time it reads JSON, an
    algebra keeps no cache, so its memory does not grow with the products it
    has computed.
    """

    def __init__(self, track: TriangulationTrack, params: AlgebraParams):
        if not isinstance(track, TriangulationTrack):
            raise TypeError("BalancedAlgebra needs the track of a triangulation")
        self.track = track
        self.params = params
        self._germ_pairs = None  # the track's germ pairs as a (P, 2) int64 array
        self._switches = None  # the transposed switch matrix of the track

    # -- plumbing ---------------------------------------------------------

    def require_same(self, other_or_element) -> None:
        other = other_or_element.algebra if isinstance(other_or_element, AlgebraElement) else other_or_element
        if other.track is not self.track or other.params != self.params:
            raise ValueError("algebra parameter or track mismatch")

    def theta(self, a: tuple, b: tuple) -> int:
        return theta(self.track, a, b)

    def _read(self, weights: list, entries: list) -> tuple:
        """The canonical arrays of the ``(index into weights, exponent, coeff)`` entries.

        Weights may repeat, and all values must be exact integers.  Python's
        sort of the weight tuples numbers the distinct keys, and
        ``intcore.merge_slots`` reduces the entries.
        """
        import numpy as np
        from . import intcore
        if not entries:
            return self._zero_arrays()
        try:
            rows = [tuple(map(operator.index, w)) for w in weights]
        except TypeError as exc:
            raise ValueError(f"weights must be exact integers: {exc}") from exc
        distinct = sorted(set(rows))
        number = {w: k for k, w in enumerate(distinct)}
        term, exponent, coeff = zip(*entries)
        order = self.params.phase_order
        exponent = intcore.as_array([[e % order for e in exponent]])[0]
        coeff = intcore.as_array([coeff])[0]
        if coeff.dtype != object and intcore.max_bits(coeff) + len(coeff).bit_length() > intcore.WORD_BITS:
            coeff = coeff.astype(object)
        key = np.array([number[rows[t]] for t in term], dtype=np.intp)
        used, term, exponent, coeff = intcore.merge_slots(key, exponent, coeff, len(distinct), order)
        return intcore.as_array(distinct)[used], term, exponent, coeff

    def _zero_arrays(self) -> tuple:
        """The arrays of the zero element: no key and no entry."""
        import numpy as np
        entries = np.zeros(0, dtype=np.int64)
        return np.zeros((0, self.track.branch_count), dtype=np.int64), entries, entries, entries

    # -- constructors -------------------------------------------------------

    def zero(self) -> AlgebraElement:
        return AlgebraElement._wrap(self, *self._zero_arrays())

    def one(self) -> AlgebraElement:
        return self.monomial((0,) * self.track.branch_count)

    def monomial(self, weights) -> AlgebraElement:
        """The basis element Z_w with coefficient exactly 1."""
        return AlgebraElement(self, {require_weight_system(self.track, weights): {0: 1}})

    # -- operations ----------------------------------------------------------

    def mul(self, x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
        """The product ``x y`` as array steps on the canonical forms (module docstring).

        Each step that could pass int64 first checks a bit bound and, past
        it, runs on Python ints: the key sums, the coefficient products with
        their sums, and the phase sums when 4N is that large.
        """
        self.require_same(x)
        self.require_same(y)
        if not len(x.coeff) or not len(y.coeff):
            return self.zero()
        from . import intcore
        order = self.params.phase_order
        ka, kb = x.keys, y.keys
        if max(intcore.max_bits(ka), intcore.max_bits(kb)) + 1 > intcore.WORD_BITS:  # a key sum
            ka, kb = ka.astype(object), kb.astype(object)
        if self._germ_pairs is None:
            self._germ_pairs = intcore.word_rows(self.track.germ_pairs, 2)
        doubled = intcore.doubled_pairings(self._germ_pairs, ka, kb)
        q = len(kb)
        pair = (x.term[:, None] * q + y.term).ravel()  # the term pair of each entry pair
        ea, eb = x.exponent, y.exponent
        if 3 * order > 1 << intcore.WORD_BITS:
            ea, eb, doubled = ea.astype(object), eb.astype(object), doubled.astype(object)
        exponent = ((ea[:, None] + eb).ravel() + (doubled % order).ravel()[pair]) % order
        ca, cb = x.coeff, y.coeff
        if intcore.max_bits(ca) + intcore.max_bits(cb) + (len(ca) * len(cb)).bit_length() > intcore.WORD_BITS:
            ca, cb = ca.astype(object), cb.astype(object)
        rank, rep = intcore.sum_ranks(ka, kb)
        used, term, exponent, coeff = intcore.merge_slots(
            rank[pair], exponent, (ca[:, None] * cb).ravel(), len(rep), order)
        i, j = divmod(rep[used], q)
        return AlgebraElement._wrap(self, ka[i] + kb[j], term, exponent, coeff)

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
        weights, entries = [], []  # repeated weights and exponents add up
        try:
            for item in data["terms"]:
                entries += [(len(weights), operator.index(e), operator.index(c)) for e, c in item["coeff"]]
                weights.append(item["weights"])
        except TypeError as exc:
            raise ValueError(f"malformed element JSON: {exc}") from exc
        if weights:
            weights = self._weight_systems(weights).tolist()
        return AlgebraElement._wrap(self, *self._read(weights, entries))

    def _weight_systems(self, weights: list):
        """``weights`` as rows of an array; ``TrackError`` unless each is a weight system.

        The switch conditions of all rows are one exact product with the
        track's switch matrix, which the algebra builds the first time.
        """
        import numpy as np
        from . import intcore
        keys = intcore.as_array(weights)
        n = self.track.branch_count
        if keys.shape[1] != n:
            raise TrackError(f"expected {n} weights, got {keys.shape[1]}")
        if self._switches is None:
            self._switches = intcore.switch_matrix(self.track.switches, n).T
        bad = np.flatnonzero(intcore.matmul(keys, self._switches).any(axis=0))
        if bad.size:
            raise TrackError(f"switch conditions violated at switches {bad.tolist()}")
        return keys


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

    The lift of a canonical form is canonical once its entries are sorted
    again.  ``w -> N w`` is injective and keeps the lexicographic order of
    the keys, so the keys scale by N.  The source exponents lie in ``Z/4``,
    and ``e -> e N^2 mod 4N`` is injective there: N is odd, so ``e N^2 = N
    (e N mod 4) (mod 4N)`` and ``e -> e N mod 4`` permutes ``Z/4``.  So no
    two entries meet, and the coefficients stay the source's, none of them
    0; only the order of the exponents within a term can change (for ``N =
    3 mod 4``).
    """
    src = x.algebra
    if src.track is not target.track:
        raise ValueError("frobenius needs both algebras on the same track")
    if src.params != target.params.iota_params():
        raise ValueError("source parameters are not the iota degeneration of the target")
    import numpy as np
    from . import intcore
    N = target.params.N
    order = target.params.phase_order
    keys, exponent = x.keys, x.exponent
    if intcore.max_bits(keys) + N.bit_length() > intcore.WORD_BITS:
        keys = keys.astype(object)
    if 4 * order > 1 << intcore.WORD_BITS:
        exponent = exponent.astype(object)
    exponent = exponent * (N * N % order) % order
    perm = np.lexsort((exponent, x.term))
    return AlgebraElement._wrap(target, keys * N, x.term[perm], exponent[perm], x.coeff[perm])


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
