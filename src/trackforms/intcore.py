"""The exact integer stages on machine words: numpy arrays, never wrapping.

Four stages send matrices of ``traintrack.INT64_MIN_ROWS`` rows or more
here: the integer kernel (the elimination basis), the skew normal form and
its certificate (from ``lattice``) and theta (from ``traintrack``).  Smaller
ones stay on their Python-int lists, where numpy's per-call dispatch would
cost more than it saves.  The kernel and the normal form take the same steps
as their list counterparts (same pivots, quotients and swaps), so the
results are identical; the certificate and theta are exact products.

On the large path of ``lattice.certified_form`` one array goes from stage
to stage: the switch matrix (``switch_matrix``), the kernel (theta's basis),
theta's matrix and the normal form's ``U`` and ``V``, which the certificate
reads.  Rows of ``U`` times the basis are one ``matmul``: ``rep``'s pair
rows, or the kernel rows that the eta match reads at the etas' first support
entries (``eta_consistent``).  Each stage still validates an array it is
given (``as_array``); Python ints are made only for a public result.

The kernel and the normal form run on int64 arrays.  numpy's int64
arithmetic wraps silently on overflow, so each routine keeps an upper bound
on the bit length of what an update can produce, and no int64 value it
computes, intermediates included, reaches ``2**WORD_BITS``.  When a bound
would fail, the entries are measured again; if they really are that large,
the arrays widen to dtype ``object`` (Python ints) and the same numpy code
carries on exactly.  A normal-form step permutes ``M``, ``U`` and ``V`` once
(the list code's up to three swaps) and clears its pair of rows and columns
by rank-2 products.

Products (``matmul``) have two tiers.  While the bit bound of a product
stays within ``FLOAT_BITS = 53`` it runs on float64 BLAS, where every
partial sum is an integer the significand holds exactly, and comes back as
int64; past it, it runs on Python-int ``object`` arrays.

This module imports numpy, so ``lattice`` and ``traintrack`` import it only
when a matrix is large enough to need it, and ``algebra`` at its first
product, which also builds the algebra's ``germ_pair_array`` once.
"""

from __future__ import annotations

import operator

import numpy as np

from .traintrack import IntegralityViolation

# Every int64 value computed here, intermediates included, is below 2**WORD_BITS.
WORD_BITS = 62
# A float64 significand holds every integer below 2**FLOAT_BITS exactly.
FLOAT_BITS = 53


# --- arrays and bit bounds -------------------------------------------------

def as_array(rows) -> np.ndarray:
    """A new 2-D int64 array of the rectangular ``rows``; object if an entry needs 62 bits.

    ``rows`` may be lists or an array.  Entries must pass ``operator.index``
    (else ``ValueError``).  They are read one by one only when numpy infers no
    integer dtype, as for a float, a huge entry or an ``object`` array.
    """
    a = np.array(rows)
    if a.ndim == 2 and a.dtype.kind in "biu":
        if not a.size or -(1 << WORD_BITS) < a.min() and a.max() < 1 << WORD_BITS:
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
    """Exact ``a @ b``: float64 BLAS when the bound allows, Python ints otherwise.

    Every product of entries is below ``2**(max_bits(a) + max_bits(b))`` and
    there are ``k`` of them per entry, so within ``FLOAT_BITS`` every partial
    sum is an integer that float64 holds exactly, whatever order BLAS adds in.
    The result comes back as int64.
    """
    if max_bits(a) + max_bits(b) + a.shape[1].bit_length() <= FLOAT_BITS:
        return (a.astype(np.float64) @ b.astype(np.float64)).astype(np.int64)
    return a.astype(object) @ b.astype(object)


# --- integer kernel ----------------------------------------------------------

def switch_matrix(switches, branch_count: int) -> np.ndarray:
    """``traintrack.switch_matrix`` as an int64 array, from the darts, with no list to parse."""
    rows, cols, signs = [], [], []
    for s, (side_a, side_b) in enumerate(switches):
        for side, sign in ((side_a, 1), (side_b, -1)):
            for b, _ in side:
                rows.append(s)
                cols.append(b)
                signs.append(sign)
    a = np.zeros((len(switches), branch_count), dtype=np.int64)
    np.add.at(a, (rows, cols), signs)
    return a


def _pivot(work: Rows, r: int, c: int) -> bool:
    """``lattice._pivot`` on an array: the same pivots, quotients and result.

    The kernel calls it column by column, so rows ``r`` onward are already
    zero before column ``c``.
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


def integer_kernel(matrix) -> np.ndarray:
    """``lattice.integer_kernel`` as an array: row-reduce ``[matrix^T | I]``."""
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
    return work.a[r:, rows:].copy()  # not a view that keeps the whole work matrix


# --- skew normal form ------------------------------------------------------

def skew_normal_form(matrix):
    """``lattice.skew_normal_form`` on arrays: the same pivots, ``U``, ``V`` and blocks.

    ``matrix`` may be lists or an array; it is read by ``as_array`` and not
    changed.  Returns ``(U, blocks, V)`` with ``U`` and ``V`` as arrays
    (int64, or object once they widen).  The swaps that
    bring a step's pivot to ``(t, t+1)`` are one permutation of ``M``, ``U``
    and ``V``.  The clearing sweep of pair ``(t, t+1)`` is one congruence by
    ``I + Q``, where ``Q`` is zero outside columns ``t, t+1`` of rows ``t+2``
    onward and holds the quotients of rows ``t, t+1``.  Its elementary
    factors commute (``Q @ Q = 0``), so the rank-2 products
    ``Q M[t:t+2]`` and ``M[:, t:t+2] Q^T`` give what the list code gets one
    entry at a time, ``U`` takes ``Q U[t:t+2]`` and ``V`` takes ``V (I - Q)``.
    Before each update, a bound on the bit lengths of ``M``, ``U`` and ``V``
    is raised by what the update can add.
    """
    n = len(matrix)
    m = as_array(matrix)  # ragged rows raise ValueError here
    if m.shape != (n, n):
        raise ValueError("matrix is not square")
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

    blocks = []
    t = 0
    while t + 1 < n:
        s = m[t:, t:]
        live = np.flatnonzero(s)
        if not live.size:
            break
        k = live[np.argmin(abs(s.ravel()[live]))]  # first minimum in row-major order
        i, j = t + k // (n - t), t + k % (n - t)
        # The list code's swaps as one permutation: the pivot's row and column
        # move to t and t + 1, ordered so that M[t, t+1] > 0, and the rows and
        # columns they displace move to where the pivot's were.
        dst = [t, t + 1] + [x for x in (i, j) if x > t + 1]
        src = ([i, j] if m[i, j] > 0 else [j, i]) + [x for x in (t, t + 1) if x not in (i, j)]
        if dst != src:
            m[dst] = m[src]
            m[:, dst] = m[:, src]
            u[dst] = u[src]
            v[:, dst] = v[:, src]
        p = int(m[t, t + 1])

        q = np.stack((m[t + 1, t + 2:] // p, -(m[t, t + 2:] // p)), axis=1)  # Q[t+2:, t:t+2]
        if q.any():
            qb = max_bits(q)
            guard(lambda mb, ub, vb: (mb + 2 * qb + 4, ub + qb + 2, vb + qb + n_bits + 1))
            if bounds is None:
                q = q.astype(object)
            m[t + 2:, t:] += q @ m[t:t + 2, t:]
            m[t:, t + 2:] += m[t:, t:t + 2] @ q.T
            u[t + 2:] += q @ u[t:t + 2]
            v[:, t:t + 2] -= v[:, t + 2:] @ q
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
    return u, tuple(blocks), v


def certifies(u, v, m, blocks) -> bool:
    """Whether ``U M U^T == D`` and ``U V == I`` hold exactly (square, same size).

    ``D`` holds the ``(0 d; -d 0)`` blocks down the diagonal, on Python ints
    if a block needs them, and needs ``2 len(blocks) <= len(u)``.  The
    matrices may be lists or arrays.  Both products are exact (``matmul``),
    so entries of any size are checked.
    """
    u, v, m = (as_array(x) for x in (u, v, m))
    n = len(u)
    b = as_array([blocks])[0] if blocks else np.zeros(0, dtype=np.int64)
    d = np.zeros((n, n), dtype=b.dtype)
    k = np.arange(0, 2 * len(b), 2)
    d[k, k + 1], d[k + 1, k] = b, -b
    return (np.array_equal(matmul(matmul(u, m), u.T), d)
            and np.array_equal(matmul(u, v), np.eye(n, dtype=np.int64)))


# --- the intersection form -------------------------------------------------

def germ_pair_array(germ_pairs) -> np.ndarray:
    """``TrainTrack.germ_pairs`` as the (P, 2) int64 array ``doubled_pairings`` takes."""
    return np.array(germ_pairs, dtype=np.int64).reshape(-1, 2)


def doubled_pairings(pairs: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The exact matrix of doubled pairings ``a_i^T T b_j = 2 theta(a_i, b_j)``.

    ``pairs`` is ``germ_pair_array`` of the track.  The germ images ``T b_j``
    are one ``np.add.at`` scatter, and all the pairings one guarded product.
    Raises ``IntegralityViolation`` if one is odd.
    """
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


def theta_matrix(germ_pairs, basis):
    """``traintrack.theta_matrix`` as one exact array product ``B (T B^T) / 2``.

    An array for an array ``basis``, lists of Python ints for lists.
    """
    b = as_array(basis)
    theta = doubled_pairings(germ_pair_array(germ_pairs), b, b) // 2
    return theta if isinstance(basis, np.ndarray) else theta.tolist()


# --- the eta match ---------------------------------------------------------

def eta_consistent(rows: np.ndarray, lead) -> bool:
    """Whether column ``j`` of ``rows`` equals column ``lead[j]``, or is 0 where ``lead[j] < 0``.

    ``lattice._eta_match``'s test that every row is its reading times the etas.
    """
    lead = np.asarray(lead, dtype=np.int64)
    on = lead >= 0
    return bool((rows[:, on] == rows[:, lead[on]]).all()) and not rows[:, ~on].any()
