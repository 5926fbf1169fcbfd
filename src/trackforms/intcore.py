"""The exact integer stages on machine words: numpy int64 arrays, never wrapping.

Four stages send matrices of ``traintrack.INT64_MIN_ROWS`` rows or more
here: the integer kernel (the elimination basis, and for the weight-lattice
basis its Hermite form), the skew normal form and its certificate (from
``lattice``) and theta (from ``traintrack``).  Smaller ones stay on their
Python-int lists, where numpy's per-call dispatch would cost more than it
saves.  Every routine takes the same steps as its list counterpart (same
pivots, quotients and swaps), so the results are identical.

numpy's int64 arithmetic wraps silently on overflow.  Each routine keeps an
upper bound on the bit length of what an update can produce, and no int64
value it computes, intermediates included, reaches ``2**WORD_BITS``.  When a
bound would fail, the entries are measured again; if they really are that
large, the arrays widen to dtype ``object`` (Python ints) and the same numpy
code carries on exactly.

This module imports numpy, so ``lattice`` and ``traintrack`` import it only
when a matrix is large enough to need it, and ``algebra`` at its first
product (``doubled_pairings``).
"""

from __future__ import annotations

import functools
import math
import operator

import numpy as np

from .traintrack import IntegralityViolation

# Every int64 value computed here, intermediates included, is below 2**WORD_BITS.
WORD_BITS = 62


# --- arrays and bit bounds -------------------------------------------------

def as_array(rows) -> np.ndarray:
    """A 2-D int64 array of the rectangular ``rows``; object if an entry needs 62 bits.

    Entries must pass ``operator.index`` (else ``ValueError``).  They are read one
    by one only when numpy infers no integer dtype, as for a float or a huge entry.
    """
    a = np.array(rows)
    if a.size and a.ndim == 2 and a.dtype.kind in "biu":
        if -(1 << WORD_BITS) < a.min() and a.max() < 1 << WORD_BITS:
            return a.astype(np.int64, copy=False)
    try:
        return np.array([[operator.index(x) for x in row] for row in rows], dtype=object)
    except TypeError as exc:
        raise ValueError(f"entries must be exact integers: {exc}") from exc


def bit_lengths(a: np.ndarray) -> np.ndarray:
    """Elementwise upper bounds on ``|a|.bit_length()`` for an int64 array.

    The float conversion can only round up, so the frexp exponent is the bit
    length or one more.
    """
    return np.frexp(np.abs(a).astype(np.float64))[1]


def max_bits(a: np.ndarray) -> int:
    """Bit length of the largest ``|entry|`` of an int64 or object array."""
    return int(abs(a).max()).bit_length() if a.size else 0


def row_bits(a: np.ndarray) -> np.ndarray:
    """Per-row upper bounds on the bit length of the largest ``|entry|``."""
    if a.shape[1] == 0:
        return np.zeros(a.shape[0], dtype=np.int64)
    return bit_lengths(np.maximum(a.max(axis=1), -a.min(axis=1))).astype(np.int64)


def _tuples(a: np.ndarray) -> tuple[tuple[int, ...], ...]:
    return tuple(map(tuple, a.tolist()))


class Rows:
    """An integer matrix under row operations, on int64 while every bound allows.

    ``bits[i]`` bounds the bit length of row ``i``.  ``row[t] -= q row[s]``
    raises it to ``max(bits[t], bits(q) + bits[s]) + 1``; only when that
    passes ``WORD_BITS`` are the rows involved measured again, and if they
    really are that large the matrix widens to Python ints for good.
    """

    def __init__(self, a: np.ndarray):
        self.a = a
        self.bits = row_bits(a) if a.dtype != object else None

    def swap(self, i: int, j: int) -> None:
        if i != j:
            self.a[[i, j]] = self.a[[j, i]]
            if self.bits is not None:
                self.bits[[i, j]] = self.bits[[j, i]]

    def subtract(self, targets: np.ndarray, q: np.ndarray, src: int, start: int) -> None:
        """``row[t] -= q[k] * row[src]`` for each ``t = targets[k]``.

        Row ``src`` is zero before column ``start``, so only the columns from
        ``start`` on change.
        """
        if self.bits is not None:
            qb = bit_lengths(q)
            need = np.maximum(self.bits[targets], qb + self.bits[src]) + 1
            if need.max() > WORD_BITS:
                self.bits[targets] = row_bits(self.a[targets])
                self.bits[src] = row_bits(self.a[src:src + 1])[0]
                need = np.maximum(self.bits[targets], qb + self.bits[src]) + 1
            if need.max() > WORD_BITS:
                self.a, self.bits = self.a.astype(object), None
                q = q.astype(object)
            else:
                self.bits[targets] = need
        self.a[targets, start:] -= q[:, None] * self.a[src, start:]


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact ``a @ b``: int64 when the bound allows, Python ints otherwise."""
    if max_bits(a) + max_bits(b) + a.shape[1].bit_length() <= WORD_BITS:
        return a.astype(np.int64) @ b.astype(np.int64)
    return a.astype(object) @ b.astype(object)


# --- Hermite normal form and integer kernel --------------------------------

def _pivot(work: Rows, r: int, c: int) -> bool:
    """``lattice._pivot`` on an array: the same pivots, quotients and result.

    Both eliminations call it column by column, so rows ``r`` onward are
    already zero before column ``c``.
    """
    while True:
        col = work.a[r:, c]
        live = np.flatnonzero(col)
        if not live.size:
            return False
        work.swap(r, r + live[np.argmin(abs(col[live]))])
        below = r + 1 + np.flatnonzero(work.a[r + 1:, c])
        if not below.size:
            return True
        work.subtract(below, work.a[below, c] // work.a[r, c], r, c)
        if not work.a[below, c].any():
            return True


def _hermite_rows(work: Rows) -> list[list[int]]:
    """The loop of ``lattice.hermite_normal_form`` on an array; its pivot rows."""
    r = 0
    for c in range(work.a.shape[1]):
        if r == work.a.shape[0]:
            break
        if not _pivot(work, r, c):
            continue
        if work.a[r, c] < 0:
            work.a[r] = -work.a[r]
        q = work.a[:r, c] // work.a[r, c]
        above = np.flatnonzero(q)
        if above.size:
            work.subtract(above, q[above], r, c)
        r += 1
    return work.a[:r].tolist()


def _kernel_array(matrix) -> np.ndarray:
    """The rows of ``lattice.integer_kernel``: row-reduce ``[matrix^T | I]``."""
    a = as_array(matrix)
    rows, cols = a.shape
    work = np.zeros((cols, rows + cols), dtype=a.dtype)
    work[:, :rows] = a.T
    work[:, rows:][np.diag_indices(cols)] = 1
    work = Rows(work)
    r = 0
    for c in range(rows):
        if _pivot(work, r, c):
            r += 1
    return work.a[r:, rows:]


def integer_kernel(matrix) -> list[list[int]]:
    """``lattice.integer_kernel``: the elimination basis, not canonicalized."""
    return _kernel_array(matrix).tolist()


def integer_kernel_basis(matrix) -> list[list[int]]:
    """``lattice.integer_kernel_basis``: the elimination basis, then HNF."""
    return _hermite_rows(Rows(_kernel_array(matrix)))


# --- skew normal form ------------------------------------------------------

def skew_normal_form(matrix):
    """``lattice.skew_normal_form`` on arrays: the same pivots, ``U``, ``V`` and blocks.

    Returns ``(U, blocks, V)`` as tuples of Python ints.  The clearing sweep
    of pair ``(t, t+1)`` is one congruence by ``I + Q``, where ``Q`` is zero
    outside columns ``t, t+1`` of rows ``t+2`` onward and holds the quotients
    of rows ``t, t+1``.  Its elementary factors commute (``Q @ Q = 0``), so
    one rank-2 row update and one rank-2 column update of ``M`` give what the
    list code gets one entry at a time, and ``V`` takes ``V (I - Q)``.
    Before each update, a bound on the bit lengths of ``M``, ``U`` and ``V``
    is raised by what the update can add.
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix is not square")
    m = as_array(matrix)
    bad = np.argwhere(m != -m.T)
    if bad.size:
        raise ValueError(f"matrix is not antisymmetric at ({bad[0][0]}, {bad[0][1]})")
    u, v = np.eye(n, dtype=m.dtype), np.eye(n, dtype=m.dtype)
    bounds = None if m.dtype == object else (max_bits(m), 1, 1)
    n_bits = n.bit_length()

    def guard(grow):
        # grow maps the (M, U, V) bit bounds before an update to those after it
        nonlocal m, u, v, bounds
        if bounds is None:
            return
        need = grow(*bounds)
        if max(need) > WORD_BITS:
            need = grow(max_bits(m), max_bits(u), max_bits(v))
        if max(need) > WORD_BITS:
            m, u, v = (x.astype(object) for x in (m, u, v))
            bounds = None
        else:
            bounds = need

    def swap(i, j):
        if i != j:
            m[[i, j]] = m[[j, i]]
            m[:, [i, j]] = m[:, [j, i]]
            u[[i, j]] = u[[j, i]]
            v[:, [i, j]] = v[:, [j, i]]

    blocks = []
    t = 0
    while t + 1 < n:
        s = m[t:, t:]
        live = np.flatnonzero(s)
        if not live.size:
            break
        k = live[np.argmin(abs(s.ravel()[live]))]  # first minimum in row-major order
        i, j = t + k // (n - t), t + k % (n - t)
        if i != t:
            swap(t, i)
            if j == t:
                j = i
        if j != t + 1:
            swap(t + 1, j)
        if m[t, t + 1] < 0:
            swap(t, t + 1)
        p = int(m[t, t + 1])

        q0 = m[t + 1, t + 2:] // p     # Q[c, t]
        q1 = -(m[t, t + 2:] // p)      # Q[c, t + 1]
        rows = np.flatnonzero((q0 != 0) | (q1 != 0))
        if rows.size:  # only the rows c with a non-zero quotient move
            q0, q1 = q0[rows], q1[rows]
            qb = max(max_bits(q0), max_bits(q1))
            guard(lambda mb, ub, vb: (mb + 2 * qb + 4, ub + qb + 2, vb + qb + n_bits + 1))
            if bounds is None:
                q0, q1 = q0.astype(object), q1.astype(object)
            c = t + 2 + rows
            m[c, t:] += np.outer(q0, m[t, t:]) + np.outer(q1, m[t + 1, t:])
            m[t:, c] += np.outer(m[t:, t], q0) + np.outer(m[t:, t + 1], q1)
            u[c] += np.outer(q0, u[t]) + np.outer(q1, u[t + 1])
            v[:, t] -= v[:, c] @ q0
            v[:, t + 1] -= v[:, c] @ q1
        if m[t, t + 2:].any() or m[t + 1, t + 2:].any():
            continue

        # every entry is a multiple of p = 1, so only larger pivots can fold
        folds = np.flatnonzero((m[t + 2:, t + 2:] % p != 0).any(axis=1)) if p > 1 else ()
        if len(folds):
            f = t + 2 + folds[0]
            guard(lambda mb, ub, vb: (mb + 2, ub + 1, vb + 1))
            m[t] += m[f]
            m[:, t] += m[:, f]
            u[t] += u[f]
            v[:, f] -= v[:, t]
            continue
        blocks.append(p)
        t += 2
    return _tuples(u), tuple(blocks), _tuples(v)


@functools.lru_cache(maxsize=None)
def _primes_below(bits: int, count: int) -> tuple[int, ...]:
    """The ``count`` largest primes below ``2**bits``, in decreasing order."""
    out: list[int] = []
    p = (1 << bits) - 1
    while len(out) < count:
        if all(p % d for d in range(3, math.isqrt(p) + 1, 2)):
            out.append(p)
        p -= 2
    return tuple(out)


def certifies(u, v, m, d) -> bool:
    """Whether ``U M U^T == D`` and ``U V == I`` hold exactly (square, same size).

    Both are checked modulo primes ``p`` with ``n * p**2 < 2**63``, so every
    residue product stays in int64.  Once the primes multiply past
    ``2**bound``, where ``bound`` covers both sides of both identities,
    agreement modulo each prime is agreement over the integers (Chinese
    remaindering), for entries of any size.
    """
    u, v, m, d = (as_array(x) for x in (u, v, m, d))
    n = len(u)
    n_bits = n.bit_length()
    ub = max_bits(u)
    bound = 1 + max(2 * ub + max_bits(m) + 2 * n_bits, ub + max_bits(v) + n_bits, max_bits(d))
    prime_bits = (63 - n_bits) // 2
    count = -(-bound // (prime_bits - 1))  # each prime exceeds 2**(prime_bits - 1)
    eye = np.eye(n, dtype=np.int64)
    for p in _primes_below(prime_bits, 1 << (count - 1).bit_length())[:count]:
        ur = (u % p).astype(np.int64)
        umu = (ur @ (m % p).astype(np.int64) % p) @ ur.T % p
        if not np.array_equal(umu, (d % p).astype(np.int64)):
            return False
        if not np.array_equal(ur @ (v % p).astype(np.int64) % p, eye):
            return False
    return True


# --- the intersection form -------------------------------------------------

def doubled_pairings(germ_pairs, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The exact matrix of doubled pairings ``a_i^T T b_j = 2 theta(a_i, b_j)``.

    The germ images ``T b_j`` are one ``np.add.at`` scatter, and all the
    pairings one guarded product.  Raises ``IntegralityViolation`` if one is odd.
    """
    pairs = np.array(germ_pairs, dtype=np.int64).reshape(-1, 2)
    if max_bits(b) + len(pairs).bit_length() + 1 > WORD_BITS:
        b = b.astype(object)
    left, right = pairs[:, 0], pairs[:, 1]
    images = np.zeros_like(b)  # row j is T b_j
    np.add.at(images, (slice(None), right), b[:, left])
    np.subtract.at(images, (slice(None), left), b[:, right])
    doubled = matmul(a, images.T)
    odd = np.argwhere(doubled % 2 != 0)
    if odd.size:
        raise IntegralityViolation(f"doubled pairing {doubled[tuple(odd[0])]} is odd")
    return doubled


def theta_matrix(germ_pairs, basis) -> list[list[int]]:
    """``traintrack.theta_matrix`` as one exact array product ``B (T B^T) / 2``."""
    b = as_array(basis)
    return (doubled_pairings(germ_pairs, b, b) // 2).tolist()
