"""Oracles: plain definitions that only the tests use.

Structure: ``switch_matrix`` (the switch conditions as a matrix) and
``integer_kernel``, the unimodular elimination of ``[A^T | I]`` that
``lattice.tree_basis`` replaced and that the tests keep as its reference.
``sigma_pairing`` is theta by the independent route through switch sums
and the ``sigma`` matrix, which pins the sign convention.
``disjoint_union`` puts tracks side by side.
``block_matrix`` and ``normal_form_json`` (the ``D`` and the JSON of a
``NormalForm``), ``kernel_rows`` and ``kernel_basis`` (the trailing rows
of ``U``), ``doubled_last_row`` (a normal form that fails only its
certificate), ``is_orientable`` (a BFS 2-colouring of switch polarities,
the reference for ``TrainTrack.forest``) and ``region_weight_system``
(which raises ``OddSpikesError``), ``contains_puncture`` and
``branch_multiplicities`` of a region.  ``eta_readings_match`` is the eta match before it became a
pairing: whether kernel rows are a basis of the etas' span, read at the
etas' first support entries.

Representations: ``loop_deviation`` walks the subgroup of roots that
``Representation.deviation`` reads in closed form.  ``float_commutation`` is
the commutation check that evaluates every pair of generators in floats,
where ``verify`` reads the phases as integers.  ``two_pass_reports``
computes the seven ``rep`` deviations as two passes that draw their own
samples, and lifts every sample through ``frobenius``, raising unless the
lift of ``Z_w`` is ``Z_(N w)``.  ``Monomial(perm, values)`` is the operator ``e_j -> values[j] e_perm[j]``:
one non-zero entry per column, held as a length-d permutation and a length-d
complex vector.  ``generators`` builds the 2m + s generators of a
representation that way, digit by digit of the tensor index, from the
generators' own values ``rep.za``, ``rep.zb`` and ``rep.h``;
``reference_generators`` builds them as dense Kronecker products of the N x N
``factors``.  Both are independent of the symbol laws in ``representation.py``,
which the tests check against them.  ``svd_commutant_dimension`` is the
numerical rank that ``commutant_dimension``'s exact certificate replaces.

Algebra: ``scaled_by_root`` multiplies an element by a power of ``w``, and
``puncture_element`` is the monomial of a puncture weight system.
"""

import cmath
import math
import random
from dataclasses import replace
from itertools import compress

import numpy as np

from trackforms import (
    IntegralityViolation,
    NormalForm,
    TrainTrack,
    from_triangulation,
    sigma_matrix,
    skew_normal_form,
    standard_triangulation,
    switch_sums,
)
from trackforms.algebra import AlgebraElement, BalancedAlgebra, frobenius, omega_candidate, phase_eval
from trackforms.lattice import _combine, _exact, _pivot, hermite_normal_form, identity_matrix
from trackforms.representation import (
    FROBENIUS_SAMPLES,
    SCALAR_SAMPLES,
    RepresentationError,
    build,
    commutant_dimension,
    random_spec,
)
from trackforms.traintrack import puncture_weight, require_weight_system

# Singular values at most SV_CUTOFF * max(1, largest) count as zero.
SV_CUTOFF = 1e-7


# --- algebra -----------------------------------------------------------------

def scaled_by_root(x, exponent: int) -> AlgebraElement:
    """``w^exponent x``: every exponent shifted, reduced by the element constructor."""
    return AlgebraElement(x.algebra, {w: {e + exponent: c for e, c in p.items()}
                                      for w, p in x.terms.items()})


def puncture_element(algebra, k: int) -> AlgebraElement:
    """The monomial ``Z_eta`` of the k-th puncture weight system."""
    return algebra.monomial(puncture_weight(algebra.track, k))


# --- structure ---------------------------------------------------------------

def switch_matrix(track) -> list[list[int]]:
    """Integer matrix of the switch conditions (rows: switches, cols: branches)."""
    rows = []
    for side_a, side_b in track.switches:
        row = [0] * track.branch_count
        for b, _ in side_a:
            row[b] += 1
        for b, _ in side_b:
            row[b] -= 1
        rows.append(row)
    return rows


def integer_kernel(matrix) -> list[list[int]]:
    """A basis of the integer kernel {v : matrix @ v = 0}, by unimodular elimination.

    Row-reduces ``[matrix^T | I]``; the right parts of the rows whose left
    part dies are the basis.  Entries that are not exact integers raise
    ``ValueError``.
    """
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    matrix = _exact(matrix)
    work = [[matrix[i][j] for i in range(rows)] + [1 if k == j else 0 for k in range(cols)]
            for j in range(cols)]
    r = 0
    for c in range(rows):
        if _pivot(work, r, c):
            r += 1
    return [row[rows:] for row in work[r:]]


def sigma_pairing(track, a, b) -> int:
    """Independent computation of theta through switch sums and the succession matrix.

    If ``ka, kb`` are the switch-sum vectors, the pairing equals
    ``1/2 * sum_{u<v} (ka_u kb_v - ka_v kb_u) sigma_{uv}``; agreement with the
    germ-pair formula is what fixes the left-to-right convention.
    """
    sigma = sigma_matrix(track.tri)
    ka = switch_sums(track, a)
    kb = switch_sums(track, b)
    n = len(ka)
    doubled = 0
    for u in range(n):
        for v in range(u + 1, n):
            doubled += (ka[u] * kb[v] - ka[v] * kb[u]) * sigma[u][v]
    if doubled % 2 != 0:
        raise IntegralityViolation(f"doubled sigma pairing {doubled} is odd")
    return doubled // 2


def disjoint_union(*tracks) -> TrainTrack:
    """The tracks side by side, each one's branches numbered after the ones before."""
    switches, offset = [], 0
    for track in tracks:
        switches += [([(b + offset, e) for b, e in side_a], [(b + offset, e) for b, e in side_b])
                     for side_a, side_b in track.switches]
        offset += track.branch_count
    return TrainTrack(offset, switches)


def block_matrix(nf) -> tuple[tuple[int, ...], ...]:
    """``D`` of a normal form: the ``(0 d; -d 0)`` blocks down the diagonal, then zeros."""
    d = [[0] * len(nf.U) for _ in nf.U]
    for k, b in enumerate(nf.blocks):
        d[2 * k][2 * k + 1], d[2 * k + 1][2 * k] = b, -b
    return tuple(map(tuple, d))


def normal_form_json(nf) -> dict:
    """Row-major integer arrays for U and D plus the block data."""
    return {
        "U": [list(r) for r in nf.U],
        "D": [list(r) for r in block_matrix(nf)],
        "blocks": list(nf.blocks),
        "nullity": nf.nullity,
    }


def kernel_rows(nf) -> list[tuple[int, ...]]:
    """The rows of ``U`` from ``nf.rank`` on: a basis of the integer kernel."""
    return list(nf.U[nf.rank:])


def kernel_basis(matrix) -> list[tuple[int, ...]]:
    """Basis of the integer kernel of an antisymmetric matrix (trailing rows of U)."""
    return kernel_rows(skew_normal_form(matrix))


def doubled_last_row(matrix) -> NormalForm:
    """``skew_normal_form`` with the last (kernel) row of ``U`` doubled.

    ``U M U^T = D`` and the blocks still hold, but ``det U = 2``: only the
    certificate's ``U V = I`` notices.
    """
    nf = skew_normal_form(matrix)
    return NormalForm(nf.U[:-1] + (tuple(2 * x for x in nf.U[-1]),), nf.blocks, nf.V)


def eta_readings_match(rows, etas) -> bool:
    """Whether ``rows`` is a basis of the lattice that the 0/1 ``etas`` span.

    The etas have disjoint, non-empty supports, so a vector ``c @ etas`` of
    their span is known from its *reading* ``c``: its entries at the etas'
    first support entries.  ``rows`` is a basis exactly when there are
    ``s = len(etas)`` of them, every row equals its reading times the etas,
    and the ``s x s`` matrix of readings is unimodular, that is, its Hermite
    form is ``I``.  Array rows are read as Python ints.
    """
    if isinstance(rows, np.ndarray):
        rows = rows.tolist()
    s = len(etas)
    if len(rows) != s or not s:
        return len(rows) == s
    first = [eta.index(1) for eta in etas]
    # lead[j]: the first support entry of the eta through entry j, -1 off every support
    lead = [-1] * len(etas[0])
    for f, eta in zip(first, etas):
        for j in compress(range(len(eta)), eta):
            lead[j] = f
    if any(row[j] != (row[f] if f >= 0 else 0) for row in rows for j, f in enumerate(lead)):
        return False
    readings = [[row[f] for f in first] for row in rows]
    return hermite_normal_form(readings) == tuple(map(tuple, identity_matrix(s)))


def contains_puncture(region) -> bool:
    """Whether a region of a triangulation track holds a puncture."""
    return region.puncture is not None


def branch_multiplicities(region, branch_count: int) -> list[int]:
    """How often the region's boundary walk runs along each branch."""
    out = [0] * branch_count
    for b, _ in region.darts:
        out[b] += 1
    return out


class OddSpikesError(ValueError):
    """Region weight systems require an even number of spikes."""


def is_orientable(track) -> bool:
    """Whether the branches admit orientations that cross every switch consistently.

    A BFS 2-colouring of switch polarities that rescans every branch per
    switch: a branch with ends on sides (x, y) of switches (s1, s2) forces
    p(s1) + p(s2) = 1 + x + y over GF(2), with side_a = 0 and side_b = 1.
    """
    polarity = {}
    for root in range(track.switch_count):
        if root in polarity:
            continue
        polarity[root] = 0
        stack = [root]
        while stack:
            s = stack.pop()
            for b in range(track.branch_count):
                s1, side1, _ = track.dart_slot[(b, 0)]
                s2, side2, _ = track.dart_slot[(b, 1)]
                if s not in (s1, s2):
                    continue
                need = 1 ^ side1 ^ side2
                for here, there in ((s1, s2), (s2, s1)):
                    if here != s:
                        continue
                    want = polarity[s] ^ need
                    if there not in polarity:
                        polarity[there] = want
                        stack.append(there)
                    elif polarity[there] != want:
                        return False
    return True


def region_weight_system(track, region) -> tuple[int, ...]:
    """The weight system carried by a region with an even number of spikes.

    Split the boundary walk at its spikes into arcs and weight each branch by
    the alternating count of arc passages; with no spikes at all this is the
    plain multiplicity of the core curve on each branch.
    """
    n_spikes = region.spikes
    if n_spikes % 2 != 0:
        raise OddSpikesError(f"region has {n_spikes} spikes")
    weights = [0] * track.branch_count
    L = len(region.darts)
    if n_spikes == 0:
        for b, _ in region.darts:
            weights[b] += 1
        return require_weight_system(track, weights)
    # Rotate so the walk starts just after a spike, then alternate arc signs.
    last_spike = max(i for i in range(L) if region.spike_after[i])
    order = [(i + last_spike + 1) % L for i in range(L)]
    sign = 1
    for i in order:
        weights[region.darts[i][0]] += sign
        if region.spike_after[i]:
            sign = -sign
    return require_weight_system(track, weights)


# --- representations ---------------------------------------------------------

def loop_deviation(rep, x, y) -> float:
    """``rep.deviation`` with its "only a differs" branch as the walk over the subgroup."""
    (ax, bx, sx), (ay, by, sy) = rep._parts(x), rep._parts(y)
    if not (cmath.isfinite(sx) and cmath.isfinite(sy)):
        return math.inf
    scale = max(1.0, math.hypot(sx.real, sx.imag), math.hypot(sy.real, sy.imag))
    N = rep.params.N
    if bx != by and any((u - v) % N for u, v in zip(bx, by)):
        return max(abs(sx), abs(sy)) / scale
    step = N if ax == ay else math.gcd(N, *(d * (u - v) for d, u, v in zip(rep.d, ax, ay)))
    if step == N:
        return abs(sx - sy) / scale
    return max(abs(sx - sy * rep.params.root_value(4 * t)) for t in range(0, N, step)) / scale


def make_rep(g, s, N, epsilon=1, seed=0, omega_index=0):
    track = from_triangulation(standard_triangulation(g, s))
    return build(random_spec(track, omega_candidate(N, epsilon, omega_index), seed=seed))


def algebra_of(rep) -> BalancedAlgebra:
    """The algebra that ``rep`` realizes."""
    return BalancedAlgebra(rep.track, rep.params)


def float_commutation(rep) -> float:
    """The largest deviation of ``g_u g_v`` from ``q^theta(u,v) g_v g_u``, evaluated on every pair."""
    gens, pairing, order, n = rep.generators, rep._theta, rep.params.phase_order, len(rep.generators)

    def commuted(u, v):
        x = rep.product(gens[v], gens[u])
        return replace(x, k=(x.k + 4 * pairing[u][v]) % order)

    return max((rep.deviation(rep.product(gens[u], gens[v]), commuted(u, v))
                for u in range(n) for v in range(u + 1, n)), default=0.0)


def two_pass_reports(rep, tol=1e-9, seed=0) -> tuple[dict, bool, dict, bool]:
    """``verify``'s and ``frobenius_compat``'s deviations and verdicts, each pass on its own draws.

    The first pass draws SCALAR_SAMPLES coefficient rows, the second
    FROBENIUS_SAMPLES from the same seed.  The second lifts every unit row and
    sample ``w`` through ``frobenius`` from the iota algebra, raises unless the
    lift is exactly ``Z_(N w)``, and compares ``symbol(N c)`` with the zeta
    values, the character and ``power(symbol(c), N)``.
    """
    N, n, gens = rep.params.N, len(rep.generators), rep.generators
    units = [[int(u == v) for v in range(n)] for u in range(n)]

    def draw(count):
        rng = random.Random(seed)
        rows = [[rng.randint(-2, 2) for _ in rep.gamma_vectors] for _ in range(count)]
        for row, w in zip(rows, _combine(rows, rep.gamma_vectors)):
            assert rep.decompose(w) == row
        return rows

    def worst(pairs):
        return max((rep.deviation(a, b) for a, b in pairs), default=0.0)

    checks = {
        "commutation": float_commutation(rep),
        "power_scalar": worst((rep.power(g, N), z) for g, z in zip(gens, rep.zeta_gamma)),
        "puncture_scalar": worst((rep.symbol(row), h)
                                 for row, h in zip(units[2 * len(rep.d):], rep.spec.h)),
        "central_scalar": worst((rep.power(rep.symbol(c), N), rep._character(c))
                                for c in draw(SCALAR_SAMPLES)),
    }
    checks_passed = all(v <= tol for v in checks.values()) and commutant_dimension(rep) == 1

    algebra = algebra_of(rep)
    iota = BalancedAlgebra(rep.track, rep.params.iota_params())

    def lifted(rows):
        for w in _combine(rows, rep.gamma_vectors):
            if frobenius(iota.monomial(w), algebra).terms != {tuple(N * x for x in w): {0: 1}}:
                raise RepresentationError("the Frobenius image of Z_w is not Z_(N w)")
        return [rep.symbol([N * c for c in row]) for row in rows]

    samples = draw(FROBENIUS_SAMPLES)
    ops = lifted(samples)
    frob = {
        "basis_character": worst(zip(lifted(units), rep.zeta_gamma)),
        "random_character": worst(zip(ops, map(rep._character, samples))),
        "matrix_power_oracle": worst((op, rep.power(rep.symbol(c), N))
                                     for op, c in zip(ops, samples)),
    }
    return checks, checks_passed, frob, all(v <= tol for v in frob.values())


def factors(rep) -> list[tuple[np.ndarray, np.ndarray]]:
    """The N x N matrices of X_i = za_i C_i and Y_i = zb_i S_i, one pair per block value d_i."""
    N, q = rep.params.N, rep.params.q
    out = []
    for za, zb, d in zip(rep.za, rep.zb, rep.d):
        clock = np.array([za * q ** (d * (j + 1)) for j in range(N)], dtype=complex)
        out.append((np.diag(clock), zb * np.roll(np.eye(N, dtype=complex), 1, axis=0)))
    return out


def svd_commutant_dimension(matrices) -> int:
    """d^2 - rank of the stacked system [A (x) I - I (x) A^T] over the d x d ``matrices``."""
    matrices = list(matrices)
    if not matrices:
        return 1
    eye = np.eye(len(matrices[0]), dtype=complex)
    system = np.vstack([np.kron(a, eye) - np.kron(eye, a.T) for a in matrices])
    sv = np.linalg.svd(system, compute_uv=False)
    return len(eye) ** 2 - int(np.sum(sv > SV_CUTOFF * max(1.0, float(sv[0]))))


class Monomial:
    """The operator ``e_j -> values[j] e_perm[j]``: one non-zero entry per column."""

    def __init__(self, perm: np.ndarray, values: np.ndarray):
        self.perm = perm
        self.values = values

    @classmethod
    def scalar(cls, d: int, c: complex) -> "Monomial":
        return cls(np.arange(d), np.full(d, c, dtype=complex))

    def __matmul__(self, other: "Monomial") -> "Monomial":
        return Monomial(self.perm[other.perm], other.values * self.values[other.perm])

    def __rmul__(self, c: complex) -> "Monomial":
        return Monomial(self.perm, c * self.values)

    def __pow__(self, k: int) -> "Monomial":
        if k < 0:
            inverse = np.empty_like(self.perm)
            inverse[self.perm] = np.arange(len(inverse))
            return Monomial(inverse, 1 / self.values[inverse]) ** -k
        if k <= 1:
            return self if k else Monomial.scalar(len(self.perm), 1)
        half = self ** (k // 2)  # repeated squaring
        return half @ half @ self if k % 2 else half @ half

    def deviation(self, other: "Monomial") -> float:
        """The exact max |A - B| over the entries of the two dense matrices."""
        apart = np.maximum(np.abs(self.values), np.abs(other.values))
        same = self.perm == other.perm
        return float(np.where(same, np.abs(self.values - other.values), apart).max())

    def dense(self) -> np.ndarray:
        return np.eye(len(self.perm), dtype=complex)[:, self.perm] * self.values


def generators(rep) -> list[Monomial]:
    """X_i, Y_i and the eta scalars as length-d monomials.

    Index j of the tensor product has digit (j // N^(m-1-i)) % N in factor i.
    """
    N, m, d = rep.params.N, len(rep.d), rep.dim
    index = np.arange(d)
    xs, ys = [], []
    for i, (za, zb, d_i) in enumerate(zip(rep.za, rep.zb, rep.d)):
        diag = np.array([za * rep.params.q ** (d_i * (j + 1)) for j in range(N)], dtype=complex)
        stride = N ** (m - 1 - i)
        digit = index // stride % N
        xs.append(Monomial(index, diag[digit]))
        ys.append(Monomial(index + stride * ((digit + 1) % N - digit), np.full(d, zb)))
    return xs + ys + [Monomial.scalar(d, h) for h in rep.h]


def reference_generators(rep):
    """The dense generators: Kronecker products of the factors, the etas times I."""
    N, pairs = rep.params.N, factors(rep)
    m = len(pairs)

    def embed(factor, position):
        out = np.eye(1, dtype=complex)
        for slot in range(m):
            out = np.kron(out, factor if slot == position else np.eye(N, dtype=complex))
        return out

    return ([embed(x, i) for i, (x, _) in enumerate(pairs)]
            + [embed(y, i) for i, (_, y) in enumerate(pairs)]
            + [h * np.eye(rep.dim, dtype=complex) for h in rep.h])


def symbol_monomial(rep, x, gens) -> Monomial:
    """A symbol as omega^k times the ordered generator powers X^a Y^b Z_eta^e."""
    out = Monomial.scalar(rep.dim, rep.params.root_value(x.k))
    for gen, c in zip(gens, x.a + x.b + x.e):
        if c:
            out = out @ gen ** c
    return out


def symbol_dense(rep, x, gens) -> np.ndarray:
    """A symbol as a dense matrix, from the dense generators ``gens``."""
    out = rep.params.root_value(x.k) * np.eye(rep.dim, dtype=complex)
    for gen, c in zip(gens, x.a + x.b + x.e):
        if c:
            out = out @ np.linalg.matrix_power(gen, c)
    return out


def reordering_exponent(rep, coeffs) -> int:
    """-2 sum_{u<v} m_u m_v theta(gamma_u, gamma_v), over the whole validated pairing."""
    n = len(coeffs)
    return -2 * sum(coeffs[u] * coeffs[v] * rep._theta[u][v]
                    for u in range(n) for v in range(u + 1, n))


def operator(rep, w, gens) -> Monomial:
    """rho(Z_w): the reordering phase times the product of generator powers."""
    coeffs = rep.decompose(w)
    out = Monomial.scalar(rep.dim, rep.params.root_value(reordering_exponent(rep, coeffs)))
    for gen, c in zip(gens, coeffs):
        if c:
            out = out @ gen ** c
    return out


def evaluate(rep, x, gens=None) -> np.ndarray:
    """The dense matrix of a general algebra element."""
    algebra_of(rep).require_same(x)
    gens = generators(rep) if gens is None else gens
    out = np.zeros((rep.dim, rep.dim), dtype=complex)
    for w, coeff in x.terms.items():
        out += phase_eval(coeff, rep.params) * operator(rep, w, gens).dense()
    return out
