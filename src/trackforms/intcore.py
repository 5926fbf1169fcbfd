"""The exact integer stages on machine words: numpy arrays, never wrapping.

Four routines of ``lattice`` send matrices of ``lattice.INT64_MIN_ROWS``
rows or more here, and ``lattice`` alone decides which: theta, the skew
normal form, its certificate and ``_combine``'s integer combinations.
Smaller ones stay on their Python-int lists, where numpy's per-call
dispatch would cost more than it saves.  The normal form takes the same
steps as its list counterpart (same pivots, quotients and swaps), so the
results are identical; the others are exact products.

On the large path of ``lattice.certified_form`` one array goes from stage
to stage: the tree basis (``as_array``), theta's matrix and the normal
form's ``U`` and ``V``, which the certificate reads.  ``theta_matrix`` also
pairs the basis with the etas, rows of Python ints, for the eta match, and
``rep``'s pair rows and sample weight systems are one ``matmul`` each.
Each stage still validates an array it is given (``as_array``); Python
ints are made only for a public result.

The normal form runs on int64 arrays.  numpy's int64 arithmetic wraps
silently on overflow, so it keeps upper bounds on the bit lengths of what
an update can produce, one each for ``M``, ``U`` and ``V``, and no int64
value it computes, intermediates included, reaches ``2**WORD_BITS``.  When
a bound would fail, the live entries are measured again; if they really
are that large, the array widens to dtype ``object`` (Python ints) and the
same numpy code carries on exactly.  The normal form holds ``M``, ``U``
and ``V^T`` side by side in one row array, so a step permutes them with
one row permutation (the list code's up to three swaps) and clears its
pair of rows and columns by three rank-2 products.

Products have two tiers in ``matmul`` and three in the normal form.  While
the bit bound of a product stays within ``FLOAT_BITS = 53`` it runs on
float64 BLAS, where every partial sum is an integer the significand holds
exactly, and comes back as int64.  Past it ``matmul`` runs on Python-int
``object`` arrays; the normal form's rank-2 products run on int64 up to
``WORD_BITS``, where numpy's int64 ``@`` (a plain loop, no BLAS) is still
exact, and on Python ints past that.

The balanced algebra keeps its elements here as arrays (see ``algebra``):
``germ_images`` makes the germ images of the keys a read gives, and a
product is ``doubled_pairings`` of the left keys with the right images,
``sum_ranks`` to number the key sums, whose packed codes stay exact on
int64, and ``merge_slots`` to add equal (key, exponent) slots.  They widen
to Python ints by the same bit bounds.

This module imports numpy, so ``lattice`` imports it only when a matrix is
large enough to need it, and ``algebra`` at its first element, which also
builds the algebra's ``germ_pair_array`` once.
"""

from __future__ import annotations

import operator
from itertools import chain

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


def max_bits(a: np.ndarray) -> int:
    """Bit length of the largest ``|entry|`` of an int64 or object array (no ``abs`` copy)."""
    return max(int(a.max()), -int(a.min())).bit_length() if a.size else 0


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


# --- the switch conditions ---------------------------------------------------

def switch_matrix(switches, branch_count: int) -> np.ndarray:
    """The switch conditions as an int64 array from the darts: +1 on side a, -1 on side b."""
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


# --- skew normal form ------------------------------------------------------

def skew_normal_form(matrix):
    """``lattice.skew_normal_form`` on arrays: the same pivots, ``U``, ``V`` and blocks.

    ``matrix`` may be lists or an array; it is read by ``as_array`` and not
    changed.  Returns ``(U, blocks, V)`` with ``U`` and ``V`` as arrays
    (int64, or object once they widen), views of one ``n x 3n`` row array
    ``[M | U | V^T]``.  Every operation on ``V`` is one on the rows of
    ``V^T``, so the swaps that bring a step's pivot to ``(t, t+1)`` are one
    row permutation of the whole array and one column permutation of ``M``.
    The clearing sweep of pair ``(t, t+1)`` is one congruence by ``I + Q``,
    where ``Q`` is zero outside columns ``t, t+1`` of rows ``t+2`` onward and
    holds the quotients of rows ``t, t+1``.  Its elementary factors commute
    (``Q @ Q = 0``), so the rank-2 products ``Q [M | U][t:t+2]`` (the rows of
    ``M`` and ``U`` at once), ``M[:, t:t+2] Q^T`` and ``Q^T V^T[t+2:]`` give
    what the list code gets one entry at a time.

    Before each update a bound on the bit lengths of ``M``, ``U`` and ``V``
    is raised by what the update can add, and it bounds every partial sum of
    the update's products too.  While it stays within ``FLOAT_BITS`` the
    products run on float64 BLAS, past it on int64.  Only when it would pass
    the tier it was last measured in are the rows from ``t`` on (the rows
    above are final) measured again; past ``WORD_BITS`` the array widens to
    Python ints for good.

    Every entry of the trailing block is a multiple of ``lo``: 1 at first,
    then the last block, since the block found no fold and congruences keep
    the divisibility.  So an entry of magnitude ``lo`` in row ``t`` is the
    first least entry, found without a search of the block, and a pivot
    ``p = lo`` needs no fold check.
    """
    n = len(matrix)
    m = as_array(matrix)  # ragged rows raise ValueError here
    if m.shape != (n, n):
        raise ValueError("matrix is not square")
    bad = np.argwhere(m != -m.T)
    if bad.size:
        raise ValueError(f"matrix is not antisymmetric at ({bad[0][0]}, {bad[0][1]})")
    a = np.zeros((n, 3 * n), dtype=m.dtype)
    a[:, :n] = m
    a[:, n:2 * n][np.diag_indices(n)] = a[:, 2 * n:][np.diag_indices(n)] = 1
    m, vt = a[:, :n], a[:, 2 * n:]
    bounds = None if a.dtype == object else (max_bits(m), 1, 1)
    limit = FLOAT_BITS

    def guard(grow):
        # grow maps the (M, U, V) bit bounds before an update to those after
        # it; returns the update to run, on float64, int64 or Python ints
        nonlocal a, m, vt, bounds, limit
        if bounds is None:
            return _exact_update
        need = grow(*bounds)
        if max(need) > limit:
            measured = max_bits(a[t:])  # rows above t are final
            need = grow(measured, measured, measured)
            limit = FLOAT_BITS if max(need) <= FLOAT_BITS else WORD_BITS
        if max(need) > WORD_BITS:
            a = a.astype(object)
            m, vt = a[:, :n], a[:, 2 * n:]
            bounds = None
            return _exact_update
        bounds = need
        return _float_update if max(need) <= FLOAT_BITS else _exact_update

    blocks = []
    lo = 1
    t = 0
    while t + 1 < n:
        # the pivot is the first least |entry| of the block in row-major order
        hit = np.flatnonzero(abs(m[t, t:]) == lo)
        if hit.size:
            k = hit[0]
        else:
            s = abs(m[t:, t:])
            k = (s == lo).argmax()
            if s.flat[k] != lo:
                live = np.flatnonzero(s)
                if not live.size:
                    break
                k = live[np.argmin(s.ravel()[live])]
        i, j = t + k // (n - t), t + k % (n - t)
        # The list code's swaps as one permutation: the pivot's row and column
        # move to t and t + 1, ordered so that M[t, t+1] > 0, and the rows and
        # columns they displace move to where the pivot's were.
        dst = [t, t + 1] + [x for x in (i, j) if x > t + 1]
        src = ([i, j] if m[i, j] > 0 else [j, i]) + [x for x in (t, t + 1) if x not in (i, j)]
        if dst != src:
            a[dst] = a[src]
            m[:, dst] = m[:, src]
        p = int(m[t, t + 1])

        qt = (m[t:t + 2, t + 2:] // p)[::-1]  # Q[t+2:, t:t+2]^T, once its row 1 is negated
        np.negative(qt[1], out=qt[1])
        qb = max_bits(qt)
        if qb:
            q1b = int(abs(qt).sum(axis=1).max()).bit_length()  # V Q grows by a column sum of |Q|
            update = guard(lambda mb, ub, vb: (mb + 2 * qb + 4, ub + qb + 2, vb + q1b + 1))
            qt = qt.astype(a.dtype, copy=False)
            update(a[t + 2:, t:2 * n], qt.T, a[t:t + 2, t:2 * n])
            update(m[t:, t + 2:], m[t:, t:t + 2], qt)
            update(vt[t:t + 2], -qt, vt[t + 2:])
        if m[t:t + 2, t + 2:].any():
            continue

        # every entry is a multiple of lo, so only larger pivots can fold
        folds = np.flatnonzero((m[t + 2:, t + 2:] % p != 0).any(axis=1)) if p > lo else ()
        if len(folds):
            f = t + 2 + folds[0]
            guard(lambda mb, ub, vb: (mb + 2, ub + 1, vb + 1))
            a[t, :2 * n] += a[f, :2 * n]
            m[:, t] += m[:, f]
            vt[f] -= vt[t]
            continue
        blocks.append(p)
        lo = p
        t += 2
    return a[:, n:2 * n], tuple(blocks), vt.T


def _float_update(target: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
    """``target += a @ b`` in place, the product on float64 BLAS.

    Exact when the caller's bound on ``target``, the product, its partial
    sums and the result is within ``FLOAT_BITS``: the int64 target is read
    into float64 and the sum written back in buffered chunks, so the only
    temporary is the product.
    """
    np.add(target, a.astype(np.float64) @ b.astype(np.float64), out=target, casting="unsafe")


def _exact_update(target: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
    """``target += a @ b`` in place on int64 (exact within ``WORD_BITS``) or Python ints."""
    target += a @ b


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
    """``TrainTrack.germ_pairs`` as the (P, 2) int64 array ``germ_images`` takes."""
    return np.fromiter(chain.from_iterable(germ_pairs), np.int64, 2 * len(germ_pairs)).reshape(-1, 2)


def germ_images(pairs: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The germ images ``T b_j`` of the rows of ``b``, as one ``np.add.at`` scatter.

    ``pairs`` is ``germ_pair_array`` of the track.  A row of images is a sum
    of at most ``2 len(pairs)`` entries of ``b``, so past that bound the
    images are made on Python ints.
    """
    if max_bits(b) + len(pairs).bit_length() + 1 > WORD_BITS:
        b = b.astype(object)
    left, right = pairs[:, 0], pairs[:, 1]
    images = np.zeros_like(b)  # row j is T b_j
    np.add.at(images, (slice(None), right), b[:, left])
    np.subtract.at(images, (slice(None), left), b[:, right])
    return images


def doubled_pairings(a: np.ndarray, images: np.ndarray) -> np.ndarray:
    """The exact matrix of doubled pairings ``a_i^T T b_j = 2 theta(a_i, b_j)``.

    ``images`` holds the germ images ``T b_j`` (``germ_images``).  All the
    pairings are one guarded product.  Raises ``IntegralityViolation`` if
    one is odd.
    """
    doubled = matmul(a, images.T)
    odd = doubled % 2
    if odd.any():
        raise IntegralityViolation(f"doubled pairing {doubled[tuple(np.argwhere(odd)[0])]} is odd")
    return doubled


def theta_matrix(germ_pairs, rows, cols=None):
    """``lattice.theta_matrix`` as one exact array product ``R (T C^T) / 2``.

    One scatter makes the germ images of ``cols`` (``rows`` if omitted), and
    one ``doubled_pairings`` pairs ``rows`` with them.  An array if either
    side is one, lists of Python ints otherwise.
    """
    a = as_array(rows)
    b = a if cols is None else as_array(cols)
    theta = doubled_pairings(a, germ_images(germ_pair_array(germ_pairs), b)) // 2
    return theta if isinstance(rows, np.ndarray) or isinstance(cols, np.ndarray) else theta.tolist()


# --- sparse sums: the products of the balanced algebra --------------------

def merge_slots(key, exponent, coeff, keys: int, order: int):
    """Add the entries of equal (key, exponent) slots and drop the zeros.

    ``key`` numbers each entry's key among ``keys`` keys in their canonical
    order, every exponent lies in ``[0, order)``, and the caller has sized
    ``coeff`` so that no sum of its entries wraps.  One sort by slot
    ``key * order + exponent`` (on Python ints if that could pass
    ``WORD_BITS`` bits) brings equal slots together, ``np.add.reduceat``
    adds them and zeros are dropped.  Returns ``(used, term, exponent,
    coeff)``: the entries sorted by slot, ``used`` the key numbers that keep
    an entry, in order, and ``term`` each entry's index into ``used``.
    """
    if keys * order > 1 << WORD_BITS:
        key = key.astype(object)
    slot = key * order + exponent
    perm = np.argsort(slot, kind="stable")  # lexsort's kernel: one sort kernel fewer in memory
    slot, coeff = slot[perm], coeff[perm]
    new = np.empty(len(slot), dtype=bool)
    new[:1] = True
    np.not_equal(slot[1:], slot[:-1], out=new[1:])
    if not new.all():
        start = np.flatnonzero(new)
        slot, coeff = slot[start], np.add.reduceat(coeff, start)
    live = coeff != 0
    if not live.all():
        slot, coeff = slot[live], coeff[live]
    key, exponent = (slot // order).astype(np.intp), slot % order
    new = np.empty(len(key), dtype=bool)
    new[:1] = True
    np.not_equal(key[1:], key[:-1], out=new[1:])
    return key[new], new.cumsum() - 1, exponent, coeff


def sum_ranks(ka, kb):
    """Number the sums ``ka[i] + kb[j]`` (pair ``i * len(kb) + j``) in lexicographic order.

    Returns ``(rank, rep)``: the number of each pair's sum among the
    distinct sums, and one pair for each distinct sum.  One lexicographic
    sort of the pairs by their ``_sum_codes`` does it.
    """
    codes = _sum_codes(ka, kb)
    perm = np.lexsort(codes.T[::-1])
    codes = codes[perm]
    new = np.empty(len(perm), dtype=bool)
    new[0] = True
    np.logical_or.reduce(codes[1:] != codes[:-1], axis=1, out=new[1:])
    rank = np.empty(len(perm), dtype=np.intp)
    rank[perm] = new.cumsum() - 1
    return rank, perm[new]


def _sum_codes(ka, kb):
    """Codes that order the rows ``ka[i] + kb[j]`` lexicographically, most significant first.

    Row ``i * len(kb) + j`` of the result holds the codes of ``ka[i] +
    kb[j]``.  Less the least entry of its factor, every entry of a sum is a
    digit of ``width`` bits, ``width`` the bit length of the two factors'
    ranges added.  So ``WORD_BITS // width`` consecutive columns pack into
    one code that is exact on int64, and the code of a sum is the sum of the
    codes of its two rows.  Past ``WORD_BITS`` bits each column is a code of
    its own: the caller has widened keys that wide to Python ints, so their
    codes are Python ints too.
    """
    lo_a, lo_b = ka.min(), kb.min()
    width = (int(ka.max()) - int(lo_a) + int(kb.max()) - int(lo_b)).bit_length()
    n = ka.shape[1]
    per = max(1, WORD_BITS // width) if width else n
    chunks = -(-n // per)
    place = np.array([1 << (width * k) for k in range(per - 1, -1, -1)])

    def codes(rows, lo):
        digits = rows - lo
        if chunks * per > n:  # zero digits in front fill out the first code
            pad = np.zeros((len(rows), chunks * per - n), dtype=digits.dtype)
            digits = np.concatenate((pad, digits), axis=1)
        return digits.reshape(len(rows), chunks, per) @ place

    return (codes(ka, lo_a)[:, None] + codes(kb, lo_b)).reshape(-1, chunks)
