"""Oracles: plain definitions that only the tests use.

Structure: ``block_matrix`` and ``normal_form_json`` (the ``D`` and the
JSON of a ``NormalForm``), ``kernel_rows`` and ``kernel_basis`` (the
trailing rows of ``U``), ``doubled_last_row`` (a normal form that fails
only its certificate), ``is_orientable`` and ``region_weight_system``
(which raises ``OddSpikesError``).

Representations: ``loop_deviation`` walks the subgroup of roots that
``Representation.deviation`` reads in closed form.  ``Monomial(perm, values)`` is the operator ``e_j -> values[j] e_perm[j]``:
one non-zero entry per column, held as a length-d permutation and a length-d
complex vector.  ``generators`` builds the 2m + s generators of a
representation that way, digit by digit of the tensor index, from the
generators' own values ``rep.za``, ``rep.zb`` and ``rep.h``;
``reference_generators`` builds them as dense Kronecker products of the N x N
``factors``.  Both are independent of the symbol laws in ``representation.py``,
which the tests check against them.  ``svd_commutant_dimension`` is the
numerical rank that ``commutant_dimension``'s exact certificate replaces.
"""

import cmath
import math

import numpy as np

from trackforms import NormalForm, from_triangulation, skew_normal_form, standard_triangulation
from trackforms.algebra import BalancedAlgebra, omega_candidate, phase_eval
from trackforms.representation import build, random_spec
from trackforms.traintrack import _switch_classes, require_weight_system

# Singular values at most SV_CUTOFF * max(1, largest) count as zero.
SV_CUTOFF = 1e-7


# --- structure ---------------------------------------------------------------

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


class OddSpikesError(ValueError):
    """Region weight systems require an even number of spikes."""


def is_orientable(track) -> bool:
    """Whether the branches admit orientations that cross every switch consistently."""
    return _switch_classes(track)[1]


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
    N = rep.params.N
    if bx != by and any((u - v) % N for u, v in zip(bx, by)):
        return max(abs(sx), abs(sy))
    step = N if ax == ay else math.gcd(N, *(d * (u - v) for d, u, v in zip(rep.d, ax, ay)))
    if step == N:
        return abs(sx - sy)
    return max(abs(sx - sy * rep.params.root_value(4 * t)) for t in range(0, N, step))


def make_rep(g, s, N, epsilon=1, seed=0, omega_index=0):
    track = from_triangulation(standard_triangulation(g, s))
    params = omega_candidate(N, epsilon, omega_index)
    algebra = BalancedAlgebra(track, params)
    return build(random_spec(algebra, seed=seed))


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
    rep.algebra.require_same(x)
    gens = generators(rep) if gens is None else gens
    out = np.zeros((rep.dim, rep.dim), dtype=complex)
    for w, coeff in x.terms.items():
        out += phase_eval(coeff, rep.params) * operator(rep, w, gens).dense()
    return out
