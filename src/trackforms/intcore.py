"""The exact integer stages on machine words: numpy arrays, never wrapping.

Four routines of ``lattice`` send matrices of ``lattice.INT64_MIN_ROWS``
rows or more here, and ``lattice`` alone decides which: theta, the skew
normal form, its certificate and ``_combine``'s integer combinations.
Smaller ones stay on their Python-int lists, where numpy's per-call
dispatch would cost more than it saves.  The normal form takes the same
steps as its list counterpart (same pivots, quotients and swaps), so the
results are identical; the others are exact products.

On the large path of ``lattice.certified_form`` one array goes from stage
to stage: the tree basis (``word_rows``, one pass over its small entries),
theta's matrix and the normal form's ``U`` and ``V``, which the
certificate reads.  ``theta_matrix`` also pairs the basis with the etas,
rows of Python ints, for the eta match, and ``rep``'s pair rows and sample
weight systems are one ``matmul`` each.  Each stage still validates an
array it is given (``as_array``); Python ints are made only for a public
result.

Products have two tiers in ``matmul`` and three in the normal form.  While
the bit bound of a product stays within ``FLOAT_BITS = 53`` it runs on
float64 BLAS, where every partial sum is an integer the significand holds
exactly.  Past it ``matmul`` runs on Python-int ``object`` arrays; the
normal form runs on int64 up to ``WORD_BITS``, where numpy's int64 ``@``
(a plain loop, no BLAS) is still exact, and on Python ints past that.
numpy's int64 arithmetic wraps silently on overflow, so no int64 value
computed here, intermediates included, reaches ``2**WORD_BITS``.

The normal form reduces ``M`` alone and keeps, beside it, the multipliers
``N`` of each pair and the cumulative row permutation ``P``, as LAPACK's
``getrf`` keeps ``L`` beside ``U``.  While every pair clears in one sweep
with no fold, ``V = P^T (I - N)`` needs no arithmetic and ``U = (I - N)^-1
P`` is one backward sweep over the column pairs (``_unwind``); from the
first pair that folds or sweeps twice, ``U`` and ``V^T`` are assembled and
the loop's recorded steps are replayed on them (``_replay``).  Each of its
arrays takes the tier of an upper bound on its bit lengths (``_Tiers``):
the bound is raised by what an update can add, the live entries are
measured again only when it would pass the tier, and the array moves to
the tier they need, so the same numpy code carries on exactly.

The balanced algebra keeps its elements here as arrays (see ``algebra``):
``germ_images`` makes the germ images of the keys a read gives, and a
product is ``doubled_pairings`` of the left keys with the right images,
``sum_ranks`` to number the key sums, whose packed codes stay exact on
int64, and ``merge_slots`` to add equal (key, exponent) slots.  They widen
to Python ints by the same bit bounds.

This module imports numpy, so ``lattice`` imports it only when a matrix is
large enough to need it, and ``algebra`` at its first element, which also
reads the track's germ pairs into an array once.
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


def word_rows(rows, width: int) -> np.ndarray:
    """Rows of ``width`` Python ints that fit int64, as one int64 array read in a single pass.

    For rows the package builds itself, such as ``lattice.tree_basis``'s and
    the germ pairs, whose entries are known to fit: numpy reads the chained
    entries straight into int64.  ``as_array`` validates caller rows instead.
    """
    return np.fromiter(chain.from_iterable(rows), np.int64, len(rows) * width).reshape(len(rows), width)


def max_bits(a: np.ndarray) -> int:
    """Bit length of the largest ``|entry|`` of a float64, int64 or object array (no ``abs`` copy)."""
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
    (int64, or object once they widen), views of one ``n x 2n`` row array
    ``[U | V^T]``.

    The loop reduces ``M`` alone.  A step's swaps, which bring its pivot to
    ``(t, t+1)``, are one row permutation of the row array ``[M | N | perm]``
    and one column permutation of ``M``.  Its clearing sweep is one
    congruence by ``I + Q``, where ``Q`` is zero outside columns ``t, t+1``
    of rows ``t+2`` onward and holds the quotients of rows ``t, t+1``; its
    elementary factors commute (``Q @ Q = 0``), so two rank-2 products,
    ``Q M[t:t+2]`` and ``M[:, t:t+2] Q^T``, give what the list code gets one
    entry at a time.  As LAPACK's ``getrf`` keeps ``L`` beside ``U``, the
    multipliers ``N`` keep each pair's ``Q`` in its columns ``t, t+1``, and
    later swaps permute their rows with ``M``'s; ``perm`` is the cumulative
    row permutation ``P``.

    A pair that clears in one sweep with no fold leaves rows ``t, t+1`` to
    later swaps untouched, so each ``Q`` commutes past the later
    permutations, and ``(I - Q_i)(I - Q_j) = I - Q_i - Q_j`` for ``i < j``.
    Hence ``U = (I - N)^-1 P`` and ``V = P^T (I - N)``: ``V`` costs no
    arithmetic, and ``_unwind`` builds ``U`` by one backward sweep over the
    column pairs.  From the first pair that folds or needs a second sweep
    on, ``U`` and ``V^T`` are assembled from the pairs before it, and the
    loop records its steps instead, for ``_replay`` to apply to them.

    ``M``'s row array is float64, int64 or object, as a bound on the bit
    length of ``M`` allows (``_Tiers``); it is raised by what each update
    can add, and it bounds every partial sum of the update's products too.

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
    bits = max_bits(m)
    a = np.zeros((n, 2 * n + 1), dtype=_tier(bits))
    a[:, :n] = m
    a[:, 2 * n] = np.arange(n)
    tiers = _Tiers(a, bits)
    m, nq = a[:, :n], a[:, n:2 * n]
    qbits = []  # the quotient bits of each pair kept in N
    record = uvt = None  # the steps from the first pair that folds or sweeps twice on

    blocks = []
    lo = 1
    t = 0
    while t + 1 < n:
        # the pivot is the first least |entry| of the block in row-major order
        row = abs(m[t, t:])
        k = (row == lo).argmax()
        if row[k] != lo:
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
        swap = None
        if dst != src:
            swap = dst, src
            a[dst] = a[src]
            m[:, dst] = m[:, src]
        p = int(m[t, t + 1])

        qt = (m[t:t + 2, t + 2:] // p)[::-1]  # Q[t+2:, t:t+2]^T, once its row 1 is negated
        np.negative(qt[1], out=qt[1])
        qb = max_bits(qt)
        if qb:
            if tiers.grow(lambda mb: (mb + 2 * qb + 4,), m[t:, t:]):
                a = tiers.a
                m, nq = a[:, :n], a[:, n:2 * n]
                qt = _cast(qt, a.dtype)
            m[t + 2:, t:] += qt.T @ m[t:t + 2, t:]
            m[t:, t + 2:] += m[t:, t:t + 2] @ qt
        dirty = np.count_nonzero(m[t:t + 2, t + 2:])
        fold = None
        if not dirty and p > lo:  # every entry is a multiple of lo, so only larger pivots can fold
            folds = np.flatnonzero((m[t + 2:, t + 2:] % p != 0).any(axis=1))
            if folds.size:
                fold = t + 2 + int(folds[0])
        if record is None and (dirty or fold is not None):
            uvt = _unwind(nq, a[:, 2 * n], qbits)  # already holds this step's swap
            record, swap = [], None
        if record is not None:
            record.append((t, swap, qt if qb else None, fold))
        elif qb:
            nq[t + 2:, t:t + 2] = qt.T
        if fold is not None:
            if tiers.grow(lambda mb: (mb + 2,), m[t:, t:]):
                a = tiers.a
                m, nq = a[:, :n], a[:, n:2 * n]
            m[t] += m[fold]
            m[:, t] += m[:, fold]
            continue
        if dirty:
            continue
        if record is None:
            qbits.append(qb)
        blocks.append(p)
        lo = p
        t += 2
    uvt = _unwind(nq, a[:, 2 * n], qbits) if record is None else _replay(uvt, record)
    return uvt[:, :n], tuple(blocks), uvt[:, n:].T


def _tier(bits: int):
    """The dtype whose products are exact when every partial sum is below ``2**bits``."""
    return np.float64 if bits <= FLOAT_BITS else np.int64 if bits <= WORD_BITS else object


def _cast(a: np.ndarray, dtype) -> np.ndarray:
    """``a`` on ``dtype``, its integer values unchanged (float64 reaches Python ints through int64)."""
    if dtype == object:
        a = _exact(a)
    return a.astype(dtype, copy=False)


def _exact(a: np.ndarray) -> np.ndarray:
    """``a`` on int64 if it is float64, else ``a`` itself."""
    return a.astype(np.int64) if a.dtype == np.float64 else a


class _Tiers:
    """Upper bounds on the bit lengths of the parts of a row array ``a``, and its tier.

    ``a``'s dtype is the tier every update of it runs on: float64 BLAS
    within ``FLOAT_BITS`` (every partial sum is an integer the significand
    holds exactly), int64 within ``WORD_BITS`` (numpy's int64 ``@`` is a
    plain exact loop) and Python ints past that, for good.  ``grow(raise_,
    live)`` raises the bounds by ``raise_``, which maps the bounds before an
    update to those after it.  Only when they would pass the tier's limit is
    ``live``, the part of ``a`` that updates still read, measured again, and
    ``a`` moves to the tier the result needs: up, or back down to float64
    if all of ``a`` fits it, final rows outside ``live`` included.  Returns
    whether ``a`` is a new array, whose views the caller takes again.
    """

    __slots__ = ("a", "bounds")

    def __init__(self, a, *bounds):
        self.a, self.bounds = a, bounds

    def grow(self, raise_, live) -> bool:
        if self.a.dtype == object:
            return False
        need = raise_(*self.bounds)
        if max(need) <= (FLOAT_BITS if self.a.dtype == np.float64 else WORD_BITS):
            self.bounds = need
            return False
        self.bounds = need = raise_(*[max_bits(live)] * len(need))
        tier = _tier(max(need))
        if tier == self.a.dtype or tier == np.float64 and max_bits(self.a) > FLOAT_BITS:
            return False
        self.a = _cast(self.a, tier)
        return True


def _unwind(nq, perm, qbits):
    """The row array ``[U | V^T]`` of the first ``len(qbits)`` pairs, from ``N`` and ``P``.

    ``U = X P`` with ``X = (I - N)^-1``, and ``V^T = (I - N)^T P``.  ``X``
    is unit lower triangular by column pairs, so it is the identity right
    multiplied by each pair's ``I + Q`` from the last pair back:
    ``X[s+2:, s:s+2] = X[s+2:, s+2:] N[s+2:, s:s+2]``, where columns ``s, s+1``
    below the diagonal block were zero.  The columns it reads are final
    columns of ``U``, so the product is bounded by their bits, the pair's
    quotient bits ``qbits`` and the bits of its length, as in ``matmul``.
    ``X`` is float64 while that bound is within ``FLOAT_BITS``, int64
    within ``WORD_BITS`` and Python ints past that.  The bound is raised
    pair by pair, and only when it would pass the tier are the columns
    written since the last measurement measured.
    """
    n = len(nq)
    perm = perm.astype(np.intp)
    x = np.eye(n)
    bound = measured = 1  # bits of X[s+2:, s+2:], and of its columns from `fresh` on
    fresh = 2 * len(qbits)
    for s in range(fresh - 2, -1, -2):
        qb = qbits[s // 2]
        if not qb:
            continue
        grow = qb + (n - s - 2).bit_length()
        if x.dtype != object and bound + grow > (FLOAT_BITS if x.dtype == np.float64 else WORD_BITS):
            measured = bound = max(measured, max_bits(x[s + 2:, s + 2:fresh]))
            fresh = s + 2
            x = _cast(x, _tier(bound + grow))
        x[s + 2:, s:s + 2] = x[s + 2:, s + 2:] @ _cast(nq[s + 2:, s:s + 2], x.dtype)
        bound += grow
    x, nq = _exact(x), _exact(nq)
    uvt = np.empty((n, 2 * n), dtype=object if object in (x.dtype, nq.dtype) else np.int64)
    uvt[:, perm] = x
    uvt[:, n + perm] = -nq.T
    uvt[np.arange(n), n + perm] = 1
    return uvt


def _replay(uvt, record):
    """Apply the loop's recorded steps to the row array ``[U | V^T]``; return it on int64 or object.

    Each step is ``(t, swap, qt, fold)``: the swap's row permutation, the
    sweep ``U[t+2:] += Q U[t:t+2]``, ``V^T[t:t+2] -= Q^T V^T[t+2:]`` (``qt``
    is ``Q[t+2:, t:t+2]^T``), and the fold ``U[t] += U[fold]``,
    ``V^T[fold] -= V^T[t]``, as the loop applied them to ``M``.  ``_Tiers``
    keeps one bound for ``U`` and one for ``V``; rows above ``t`` are final.
    """
    n = len(uvt)
    bounds = max_bits(uvt[:, :n]), max_bits(uvt[:, n:])
    tiers = _Tiers(_cast(uvt, _tier(max(bounds))), *bounds)
    uvt = tiers.a
    u, vt = uvt[:, :n], uvt[:, n:]
    for t, swap, qt, fold in record:
        if swap:
            dst, src = swap
            uvt[dst] = uvt[src]
        if qt is not None:
            qb = max_bits(qt)
            q1b = int(abs(qt).sum(axis=1).max()).bit_length()  # V Q grows by a column sum of |Q|
            if tiers.grow(lambda ub, vb: (ub + qb + 2, vb + q1b + 1), uvt[t:]):
                uvt = tiers.a
                u, vt = uvt[:, :n], uvt[:, n:]
            qt = _cast(qt, uvt.dtype)
            u[t + 2:] += qt.T @ u[t:t + 2]
            vt[t:t + 2] -= qt @ vt[t + 2:]
        if fold is not None:
            if tiers.grow(lambda ub, vb: (ub + 1, vb + 1), uvt[t:]):
                uvt = tiers.a
                u, vt = uvt[:, :n], uvt[:, n:]
            u[t] += u[fold]
            vt[fold] -= vt[t]
    return _exact(uvt)


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

def germ_images(pairs: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The germ images ``T b_j`` of the rows of ``b``, as one ``np.add.at`` scatter.

    ``pairs`` is the track's germ pairs as a (P, 2) int64 array.  A row of images is a sum
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
    return _even(matmul(a, images.T))


def _even(doubled: np.ndarray) -> np.ndarray:
    """``doubled``, a matrix of doubled pairings; ``IntegralityViolation`` if one is odd."""
    odd = doubled & 1
    if odd.any():
        raise IntegralityViolation(f"doubled pairing {doubled[tuple(np.argwhere(odd)[0])]} is odd")
    return doubled


def theta_matrix(germ_pairs, rows, cols=None):
    """``lattice.theta_matrix`` as exact array products.

    A germ pair ``(l, r)`` adds ``x_r y_l - x_l y_r`` to the doubled pairing
    of ``x`` and ``y``.  With ``cols`` omitted that makes the square matrix
    ``X - X^T`` for the one product ``X = R[:, r] R[:, l]^T`` over the pairs'
    branch columns ``l`` and ``r``, with no germ images; ``X`` is a
    ``matmul`` (float64 BLAS within its bound), and the difference needs one
    bit more, which int64 holds.  Given ``cols``, typically a few rows such
    as the etas, one scatter makes their germ images and one
    ``doubled_pairings`` pairs ``rows`` with them.  An array if either side
    is one, lists of Python ints otherwise.
    """
    pairs = word_rows(germ_pairs, 2)
    a = as_array(rows)
    if cols is None:
        x = matmul(a[:, pairs[:, 1]], a[:, pairs[:, 0]].T)
        doubled = _even(x - x.T)
    else:
        doubled = doubled_pairings(a, germ_images(pairs, as_array(cols)))
    theta = doubled >> 1
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
