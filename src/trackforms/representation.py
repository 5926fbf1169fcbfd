"""Irreducible representations of the balanced algebra at a root of unity.

Construction
------------
``symplectic_basis`` block-diagonalizes the intersection form over the weight
lattice and returns basis pairs ``(alpha_i, beta_i)`` with
``theta(alpha_i, beta_i) = d_i`` in {1, 2} (d = 1 pairs first) plus the
puncture weight systems, which span the kernel.  Given a value of ``zeta`` on
every basis vector and scalars ``h_k`` with ``h_k^N = zeta(eta_k)``, the
representation is a tensor product of N-dimensional factors

    X_i v_j = zeta(alpha_i)^(1/N) q^(d_i (j+1)) v_j,
    Y_i v_j = zeta(beta_i)^(1/N) v_{j+1}      (indices mod N),

one factor per pair, with ``Z_{eta_k}`` acting by ``h_k``.  The dimension is
``N^(3g+s-3)`` and the factor relations are ``X_i Y_i = q^(d_i) Y_i X_i``.
Every generator, and so every ``rho(Z_w)``, has one non-zero entry per
column: it is stored as a length-d ``Monomial``, not as a dense matrix.

Monomial evaluation decomposes a weight system over the basis,
``w = sum_u m_u gamma_u``.  The coefficients are read off the block form:
``a_i = theta(w, beta_i) / d_i`` and ``b_i = theta(alpha_i, w) / d_i``, each
a dot product of ``w`` with a germ image ``T beta_i`` or ``-T alpha_i``
formed once per representation.  The puncture coefficients are the values
of the remainder on the disjoint supports of the etas.  It then applies the
exact reordering phase

    rho(Z_w) = omega^(-2 sum_{u<v} m_u m_v theta(gamma_u, gamma_v))
               prod_u rho(Z_{gamma_u})^(m_u),

which is independent of the basis ordering.  The resulting scalar of
``rho(Z_w^N)`` is ``central_character(w)``: the product of the
``zeta(gamma_u)^(m_u)`` times ``epsilon`` raised to the same pairing sum.
When ``epsilon = +1`` (and always on basis vectors) this is just the
multiplicative extension of ``zeta``; when ``epsilon = -1`` the quadratic
sign is genuinely there, as a direct matrix-power computation confirms.

N-th roots ``zeta^(1/N)`` use the principal branch; any other choice gives an
isomorphic representation.
"""

from __future__ import annotations

import cmath
import operator
import os
import random
from dataclasses import dataclass, field

import numpy as np

from .algebra import AlgebraElement, BalancedAlgebra, frobenius, phase_eval, solve_chebyshev
from .lattice import _combine, skew_normal_form
from .traintrack import TriangulationTrack, germ_image, halved, is_weight_system, puncture_weights
from .traintrack import theta_matrix, weight_lattice_basis
from .traintrack import theta  # not called here; perfbench's tracer counts theta calls at this name

# The h_k^N = zeta(eta_k) tolerance, the relative singular-value cutoff of the
# commutant rank, the random lattice vectors per central/Frobenius check, and
# the length-d working operators that the checks hold next to the generators.
ROOT_TOL = 1e-9
SV_CUTOFF = 1e-7
SCALAR_SAMPLES = 5
FROBENIUS_SAMPLES = 10
WORK_OPERATORS = 6


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
    """Pair basis from the normal form of the intersection form, kernel from punctures."""
    basis = weight_lattice_basis(track)
    m = theta_matrix(track, basis)
    nf = skew_normal_form(m)
    tri = track.tri
    g, s = tri.genus, tri.punctures
    expected = [1] * g + [2] * (2 * g + s - 3)
    if list(nf.blocks) != expected:
        raise RepresentationError(f"unexpected block pattern {nf.blocks} for (g, s) = ({g}, {s})")

    vectors = _combine(nf.U[:2 * len(nf.blocks)], basis)
    pairs = list(zip(vectors[0::2], vectors[1::2], nf.blocks))
    etas = tuple(puncture_weights(track))
    return SymplecticBasis(tuple(pairs), etas)


@dataclass
class RepresentationSpec:
    """Input data of a representation: basis, zeta on the basis, puncture scalars."""

    algebra: BalancedAlgebra
    basis: SymplecticBasis
    zeta_alphas: list[complex]
    zeta_betas: list[complex]
    zeta_etas: list[complex]
    h: list[complex]

    def validate(self) -> list[list[int]]:
        """Check the spec; return the theta matrix over ``basis.gamma_vectors``."""
        params = self.algebra.params
        m = len(self.basis.pairs)
        s = len(self.basis.etas)
        if not (len(self.zeta_alphas) == len(self.zeta_betas) == m and
                len(self.zeta_etas) == len(self.h) == s):
            raise RepresentationError("zeta/h lengths do not match the basis")
        for value in (*self.zeta_alphas, *self.zeta_betas, *self.zeta_etas, *self.h):
            if value == 0:
                raise RepresentationError("zeta and h values must be non-zero")
        pairing = theta_matrix(self.algebra.track, self.basis.gamma_vectors)
        for i, (_, _, d) in enumerate(self.basis.pairs):
            if pairing[i][i + m] != d or d not in (1, 2):
                raise RepresentationError(f"pair {i} does not pair to its block value")
        for i, row in enumerate(pairing):
            for j in range(i + 1, len(row)):
                v = row[j]
                expect = self.basis.pairs[i][2] if (j == i + m and i < m) else 0
                if v != expect:
                    raise RepresentationError(
                        f"basis vectors {i}, {j} pair to {v}, expected {expect}")
        for k, (h_k, z) in enumerate(zip(self.h, self.zeta_etas)):
            if abs(h_k ** params.N - z) > ROOT_TOL * max(1.0, abs(z)):
                raise RepresentationError(
                    f"h[{k}]^N = {h_k ** params.N} differs from zeta(eta_{k}) = {z}")
        return pairing


def random_spec(algebra: BalancedAlgebra, seed: int = 0) -> RepresentationSpec:
    """Generic unit-modulus zeta values with compatible random puncture scalars."""
    rng = random.Random(seed)
    basis = symplectic_basis(algebra.track)
    N = algebra.params.N
    unit = lambda: cmath.exp(2j * cmath.pi * rng.random())
    zeta_alphas = [unit() for _ in basis.pairs]
    zeta_betas = [unit() for _ in basis.pairs]
    zeta_etas = [unit() for _ in basis.etas]
    h = [_principal_root(z, N) * cmath.exp(2j * cmath.pi * rng.randrange(N) / N)
         for z in zeta_etas]
    return RepresentationSpec(algebra, basis, zeta_alphas, zeta_betas, zeta_etas, h)


def _principal_root(z: complex, n: int) -> complex:
    return cmath.exp(cmath.log(z) / n)


@dataclass(eq=False)
class Monomial:
    """The operator ``e_j -> values[j] e_perm[j]``: one non-zero entry per column."""

    perm: np.ndarray
    values: np.ndarray

    @classmethod
    def scalar(cls, d: int, c: complex) -> Monomial:
        return cls(np.arange(d), np.full(d, c, dtype=complex))

    def __matmul__(self, other: Monomial) -> Monomial:
        return Monomial(self.perm[other.perm], other.values * self.values[other.perm])

    def __rmul__(self, c: complex) -> Monomial:
        return Monomial(self.perm, c * self.values)

    def __pow__(self, k: int) -> Monomial:
        if k < 0:
            inverse = np.empty_like(self.perm)
            inverse[self.perm] = np.arange(len(inverse))
            return Monomial(inverse, 1 / self.values[inverse]) ** -k
        if k <= 1:
            return self if k else Monomial.scalar(len(self.perm), 1)
        half = self ** (k // 2)  # repeated squaring
        return half @ half @ self if k % 2 else half @ half

    def deviation(self, other: Monomial) -> float:
        """The exact max |A - B| over the entries of the two dense matrices."""
        apart = np.maximum(np.abs(self.values), np.abs(other.values))
        same = self.perm == other.perm
        return float(np.where(same, np.abs(self.values - other.values), apart).max())

    def dense(self) -> np.ndarray:
        return np.eye(len(self.perm), dtype=complex)[:, self.perm] * self.values


class Representation:
    """Monomial operators realizing the algebra on a tensor product of cyclic factors."""

    def __init__(self, spec: RepresentationSpec):
        params = spec.algebra.params
        N = params.N
        m = len(spec.basis.pairs)
        _require_memory(N, m, len(spec.basis.etas))
        self._theta = spec.validate()
        self.spec = spec
        self.algebra = spec.algebra
        self.params = params
        self.dim = d = N ** m

        # Index j of the tensor product has digit (j // N^(m-1-i)) % N in factor i.
        # The X generators share ``index`` as their permutation.
        index = np.arange(d)
        self.factors: list[tuple[np.ndarray, np.ndarray]] = []  # (X_i, Y_i)
        xs, ys = [], []
        for i, (_, _, d_i) in enumerate(spec.basis.pairs):
            za = _principal_root(spec.zeta_alphas[i], N)
            zb = _principal_root(spec.zeta_betas[i], N)
            diag = np.array([za * params.q ** (d_i * (j + 1)) for j in range(N)], dtype=complex)
            self.factors.append((np.diag(diag), zb * np.roll(np.eye(N, dtype=complex), 1, axis=0)))
            stride = N ** (m - 1 - i)
            digit = index // stride % N
            xs.append(Monomial(index, diag[digit]))
            ys.append(Monomial(index + stride * ((digit + 1) % N - digit), np.full(d, zb)))

        self.gamma_vectors = spec.basis.gamma_vectors
        self.zeta_gamma = list(spec.zeta_alphas) + list(spec.zeta_betas) + list(spec.zeta_etas)
        self.generators = xs + ys + [Monomial.scalar(d, h) for h in spec.h]  # etas act by scalars
        # The etas are 0/1 with disjoint supports: each is read at its first 1.
        self._eta_index = [eta.index(1) for eta in spec.basis.etas]
        # theta(w, beta_i) = w . T beta_i / 2 and theta(alpha_i, w) = w . T(-alpha_i) / 2
        track = spec.algebra.track
        self._pairing_images = (
            [(germ_image(track, beta), d) for _, beta, d in spec.basis.pairs]
            + [(germ_image(track, [-x for x in alpha]), d) for alpha, _, d in spec.basis.pairs])

    # -- evaluation ---------------------------------------------------------

    def decompose(self, weights) -> list[int]:
        """Coefficients of ``weights`` over the gammas, read off the block form."""
        track = self.algebra.track
        w = tuple(weights)
        if len(w) != track.branch_count or not is_weight_system(track, w):
            raise RepresentationError("input is not a weight system of the track")
        coeffs = []
        for image, d in self._pairing_images:  # d_i a_i, then d_i b_i
            x = halved(sum(map(operator.mul, w, image)))
            c, rem = divmod(x, d)
            if rem:
                raise RepresentationError(
                    f"weight system leaves the lattice: pairing {x} is not a multiple of {d}")
            coeffs.append(c)
        paired, = _combine([coeffs + [0] * len(self._eta_index)], self.gamma_vectors)
        coeffs += [w[k] - paired[k] for k in self._eta_index]
        if _combine([coeffs], self.gamma_vectors) != [w]:
            raise RepresentationError("decomposition failed to reproduce the weight system")
        return coeffs

    def _pairing_sum(self, coeffs) -> int:
        total = 0
        live = [(u, c) for u, c in enumerate(coeffs) if c]
        for a in range(len(live)):
            u, cu = live[a]
            for b in range(a + 1, len(live)):
                v, cv = live[b]
                total += cu * cv * self._theta[u][v]
        return total

    def operator(self, weights) -> Monomial:
        """rho(Z_w) as a monomial operator."""
        coeffs = self.decompose(weights)
        out = Monomial.scalar(self.dim, self.params.root_value(-2 * self._pairing_sum(coeffs)))
        for gen, c in zip(self.generators, coeffs):
            if c:
                out = out @ gen ** c
        return out

    def evaluate(self, x: AlgebraElement) -> np.ndarray:
        """The dense matrix of a general element."""
        self.algebra.require_same(x)
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for w, coeff in x.terms.items():
            out += phase_eval(coeff, self.params) * self.operator(w).dense()
        return out

    def central_character(self, weights) -> complex:
        """The scalar of rho(Z_w^N): the epsilon-twisted multiplicative extension of zeta."""
        coeffs = self.decompose(weights)
        value = complex(self.params.epsilon ** (self._pairing_sum(coeffs) % 2))
        for u, c in enumerate(coeffs):
            if c:
                value *= self.zeta_gamma[u] ** c
        return value


def build(spec: RepresentationSpec) -> Representation:
    return Representation(spec)


def _require_memory(N: int, m: int, s: int) -> None:
    """Refuse up front a representation that would exceed physical memory.

    The estimate is the 2m + s generators and the working operators of the
    checks, each a length-d permutation and complex value vector, plus one
    factor's 2N^2 x N^2 commutant system and the copy its SVD makes.
    """
    need = 24 * (2 * m + s + WORK_OPERATORS) * N ** m + (64 * N ** 4 if m else 0)
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise RepresentationError(
            f"dimension {N ** m} needs about {need / 2 ** 30:.1f} GiB, "
            f"more than the {have / 2 ** 30:.1f} GiB of physical memory")


# -- verification -------------------------------------------------------------

@dataclass
class CheckReport:
    dim: int
    deviations: dict[str, float] = field(default_factory=dict)
    commutant_dim: int | None = None
    passed: bool = False

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
    tensor product of the factor commutants: the product over the factors of
    N^2 - rank [X (x) I - I (x) X^T; Y (x) I - I (x) Y^T].
    """
    dim = 1
    for x, y in rep.factors:
        eye = np.eye(len(x), dtype=complex)
        system = np.vstack([np.kron(g, eye) - np.kron(eye, g.T) for g in (x, y)])
        sv = np.linalg.svd(system, compute_uv=False)
        rank = int(np.sum(sv > SV_CUTOFF * max(1.0, float(sv[0]))))
        dim *= len(x) ** 2 - rank
    return dim


def _max_deviation(pairs) -> float:
    """The largest entry of |A - B| over the (A, B) operator pairs."""
    return max((a.deviation(b) for a, b in pairs), default=0.0)


def _random_vectors(rep: Representation, seed: int, count: int) -> list[tuple[int, ...]]:
    """Seeded lattice vectors with coefficients in [-2, 2] over the gammas."""
    rng = random.Random(seed)
    gammas = rep.gamma_vectors
    return _combine([[rng.randint(-2, 2) for _ in gammas] for _ in range(count)], gammas)


def verify(rep: Representation, tol: float = 1e-9, seed: int = 0) -> CheckReport:
    """Commutation phases, N-th power scalars, puncture scalars, irreducibility."""
    params, d, gens = rep.params, rep.dim, rep.generators
    N = params.N
    report = CheckReport(dim=d)
    report.deviations["commutation"] = _max_deviation(
        (gu @ gens[v], params.root_value(4 * rep._theta[u][v]) * (gens[v] @ gu))
        for u, gu in enumerate(gens) for v in range(u + 1, len(gens)))
    report.deviations["power_scalar"] = _max_deviation(
        (gu ** N, Monomial.scalar(d, z)) for gu, z in zip(gens, rep.zeta_gamma))
    report.deviations["puncture_scalar"] = _max_deviation(
        (rep.operator(eta), Monomial.scalar(d, h))
        for eta, h in zip(rep.spec.basis.etas, rep.spec.h))
    report.deviations["central_scalar"] = _max_deviation(
        (rep.operator(w) ** N, Monomial.scalar(d, rep.central_character(w)))
        for w in _random_vectors(rep, seed, SCALAR_SAMPLES))
    report.commutant_dim = commutant_dimension(rep)
    report.passed = (all(v <= tol for v in report.deviations.values())
                     and report.commutant_dim == 1)
    return report


def frobenius_compat(rep: Representation, tol: float = 1e-9, seed: int = 0) -> CheckReport:
    """Lifted commutative elements act by the central character.

    Basis monomials must act by their plain zeta value; random lattice
    vectors are compared both against the epsilon-twisted character and
    against the direct N-th power of the monomial.
    """
    d = rep.dim
    report = CheckReport(dim=d)
    iota_algebra = BalancedAlgebra(rep.algebra.track, rep.params.iota_params())

    def lifted(w) -> Monomial:
        # the Frobenius image of a monomial is one monomial
        (nw, coeff), = frobenius(iota_algebra.monomial(w), rep.algebra).terms.items()
        return phase_eval(coeff, rep.params) * rep.operator(nw)

    report.deviations["basis_character"] = _max_deviation(
        (lifted(gamma), Monomial.scalar(d, z)) for gamma, z in zip(rep.gamma_vectors, rep.zeta_gamma))
    dev_char = dev_power = 0.0
    for w in _random_vectors(rep, seed, FROBENIUS_SAMPLES):
        op = lifted(w)
        dev_char = max(dev_char, op.deviation(Monomial.scalar(d, rep.central_character(w))))
        dev_power = max(dev_power, op.deviation(rep.operator(w) ** rep.params.N))
    report.deviations["random_character"] = dev_char
    report.deviations["matrix_power_oracle"] = dev_power
    report.passed = all(v <= tol for v in report.deviations.values())
    return report


def puncture_invariants(trace_value: complex, N: int) -> list[complex]:
    """The N candidate puncture scalars p with T_N(p) = -trace_value."""
    return solve_chebyshev(-trace_value, N)
