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

The normal form reduces ``M`` alone, and holds only its trailing block:
a contiguous ``k x k`` array in one of two flat buffers, ``k`` shrinking by
2 with each pair.  A pair whose pivot ``p`` divides its two rows (the
common case: always when ``p`` equals the last block) clears in one sweep,
and the block it leaves is ``M + a b^T - b a^T``, ``a`` the pair's second
row and ``b`` its first over ``p``: one product of inner size 2, written
into the other buffer.  Beside the block it keeps the multipliers ``N`` of
each pair and the cumulative row permutation ``P`` in one row array ``[N |
perm]``, as LAPACK's ``getrf`` keeps ``L`` beside ``U``.  While every pair
clears in one sweep with no fold, ``V = P^T (I - N)`` needs no arithmetic
and ``U = (I - N)^-1 P`` is one backward sweep over the column pairs
(``_unwind``).  At the first pair that folds or sweeps twice, ``_unwind``
assembles ``[U | V^T]`` from the pairs before it, and that array takes the
place of ``[N | perm]``: the swaps permute its rows, and ``_step`` applies
each later sweep and fold to it as the loop applies them to ``M``.  The
block and ``[U | V^T]`` each take the tier of an upper bound on their
largest ``|entry|`` (``_Tiers``): the bound is
raised by what an update can add (on the block, ``2 max|a| max|b|`` for a
clean pair), the live entries are measured again only when it would pass
the tier, and the array moves to the tier they need, so the same numpy code
carries on exactly.

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


def max_abs(a: np.ndarray) -> int:
    """The largest ``|entry|`` of a float64, int64 or object array, as a Python int (no ``abs`` copy)."""
    return max(int(a.max()), -int(a.min())) if a.size else 0


def max_bits(a: np.ndarray) -> int:
    """Bit length of the largest ``|entry|`` of a float64, int64 or object array."""
    return max_abs(a).bit_length()


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

    The loop reduces ``M`` alone, and holds only its trailing block, the
    rows and columns ``t`` onward that pairs still change: a contiguous
    ``k x k`` array, the reshape of one of two flat buffers.  A step's swaps,
    which bring its pivot to ``(t, t+1)``, are the list code's
    transpositions, each a copy of two rows and two columns of the block,
    and of two rows of the row array beside it.  Its
    clearing sweep is one congruence by
    ``I + Q``, where ``Q`` is zero outside columns ``t, t+1`` of rows
    ``t+2`` onward and holds the quotients of rows ``t, t+1`` by the pivot
    ``p`` (``qt`` is ``Q[t+2:, t:t+2]^T``).

    A pair is clean when ``p`` divides rows ``t, t+1``, so that the sweep
    clears them.  Then ``(I + Q) M (I + Q)^T`` leaves the block
    ``M' = M[t+2:, t+2:] + Q M[t:t+2, t+2:]`` (the terms of ``M Q^T`` and
    ``Q M Q^T`` cancel), which is ``M[t+2:, t+2:] + a b^T - b a^T`` with
    ``a`` row ``t+1`` and ``b`` row ``t`` over ``p``, both from column
    ``t+2`` on.  ``_next_block`` writes it into the other buffer as one
    product of inner size 2 and one sum, and it becomes the block.  With
    ``p = lo`` (below) every pair is clean and cannot fold.  Any other pair
    takes the general sweep, two rank-2 updates of the block, which keeps
    rows ``t, t+1``, and is reduced again.  On a clean pair that sweep
    leaves those rows as the pivot block with zeros beside it and the rest
    as ``M'``, so a pair whose ``M'`` folds takes it too, then the fold.

    As LAPACK's ``getrf`` keeps ``L`` beside ``U``, the multipliers ``N``
    keep each clean pair's ``Q`` in its columns ``t, t+1``, and later swaps
    permute their rows; ``perm`` is the cumulative row permutation ``P``.
    Such a pair leaves rows ``t, t+1`` to later swaps untouched, so each
    ``Q`` commutes past the later permutations, and ``(I - Q_i)(I - Q_j) =
    I - Q_i - Q_j`` for ``i < j``.  Hence ``U = (I - N)^-1 P`` and ``V = P^T
    (I - N)``: ``V`` costs no arithmetic, and ``_unwind`` builds ``U`` by
    one backward sweep over the column pairs.  At the first pair that folds
    or needs a second sweep, ``_unwind`` assembles ``[U | V^T]`` from the
    pairs before it, and that array replaces ``[N | perm]`` beside the
    block: the swaps permute its rows, and ``_step`` applies each step's
    sweep and fold to it at once, this pair's included.

    The block is float64, int64 or object, as a bound on its largest
    ``|entry|`` allows (``_Tiers``).  A clean pair raises the bound by ``2
    max|a| max|b|``, read off the quotient rows (``max|a| = p qa``, ``max|b|
    = qb``), since ``|M'| <= |M| + 2 max|a| max|b|``; the general sweep
    multiplies it by ``(2q + 1)^2``, ``q`` the largest ``|quotient|``, and a
    fold by 4 more.  Each bounds every partial sum of its update's products too.
    On the clean path the bound grows by sums, not by factors, so the block
    is seldom measured again.

    Every entry of the block is a multiple of ``lo``: 1 at first, then the
    last pivot, since its pair found no fold and congruences keep the
    divisibility.  So an entry of magnitude ``lo`` in row ``t`` is the first
    least entry, found without a search of the block, and a pivot ``p = lo``
    divides rows ``t, t+1``.
    """
    n = len(matrix)
    m = as_array(matrix)  # ragged rows raise ValueError here
    if m.shape != (n, n):
        raise ValueError("matrix is not square")
    bad = np.argwhere(m != -m.T)
    if bad.size:
        raise ValueError(f"matrix is not antisymmetric at ({bad[0][0]}, {bad[0][1]})")
    tiers = _Tiers(max_abs(m))
    blk, spare = _buffers(m, tiers.dtype)
    rows = np.zeros((n, n + 1), dtype=np.int64)  # [N | perm], then [U | V^T]
    rows[:, n] = np.arange(n)
    qbits = []  # the quotient bits of each pair kept in N
    uv = None  # the bounds of [U | V^T] once it replaces [N | perm]

    blocks = []
    lo = 1
    t = 0
    while t + 1 < n:
        k = n - t
        # the pivot is the first least |entry| of the block in row-major order
        row = abs(blk[0])
        c = (row == lo).argmax()
        if row[c] != lo:
            s = abs(blk)
            c = (s == lo).argmax()
            if s.flat[c] != lo:
                live = np.flatnonzero(s)
                if not live.size:
                    break
                c = live[np.argmin(s.ravel()[live])]
        i, j = divmod(int(c), k)
        # The list code's swaps, each a transposition of two rows and columns
        # of the block and of two rows of the row array: the pivot moves to
        # (0, 1) of the block, with a positive entry there.  Below row 0 the
        # pivot is never in column 0, since its mirror in row 0 comes first.
        if i:
            _swap(blk, rows, t, 0, i)
        if j != 1:
            _swap(blk, rows, t, 1, j)
        if blk[0, 1] < 0:
            _swap(blk, rows, t, 0, 1)
        p = int(blk[0, 1])
        r = blk[:2, 2:]
        qt = (r // p)[::-1]  # row t+1 over p, and minus row t over p
        np.negative(qt[1], out=qt[1])
        qa, qb = map(int, abs(qt).max(axis=1, initial=0))  # max|a| / p and max|b| if clean
        q = max(qa, qb)
        dirty = p > lo and bool((r % p).any())  # a remainder: the pair is reduced again
        fold = None
        if not dirty:
            if (tier := tiers.grow(lambda b: (b + 2 * p * qa * qb,), blk)) is not None:
                blk, spare = _buffers(blk, tier)
                qt = _cast(qt, tier)
            nxt = _next_block(blk, qt, spare[:(k - 2) ** 2].reshape(k - 2, k - 2))
            if p > lo:  # every entry is a multiple of lo, so only larger pivots can fold
                folds = np.flatnonzero((nxt % p != 0).any(axis=1))
                if folds.size:
                    fold = 2 + int(folds[0])
        if dirty or fold is not None:
            # the general sweep, which keeps rows t, t+1, then any fold
            if (tier := tiers.grow(lambda b: (b * (2 * q + 1) ** 2 * (1 if fold is None else 4),), blk)) is not None:
                blk, spare = _buffers(blk, tier)
                qt = _cast(qt, tier)
            if uv is None:
                rows = _unwind(rows[:, :n], rows[:, n], qbits)
                uv = _Tiers(max_abs(rows[:, :n]), max_abs(rows[:, n:]))
                rows = _cast(rows, uv.dtype)
            rows = _step(rows, uv, t, qt, fold)
            blk[2:] += qt.T @ blk[:2]
            blk[:, 2:] += blk[:, :2] @ qt
            if fold is not None:
                blk[0] += blk[fold]
                blk[:, 0] += blk[:, fold]
            continue
        if uv is None:
            if qt.dtype == object and rows.dtype != object:
                rows = rows.astype(object)
            rows[t + 2:, t:t + 2] = qt.T
            qbits.append(q.bit_length())
        else:
            rows = _step(rows, uv, t, qt, None)
        blocks.append(p)
        lo = p
        t += 2
        blk, spare = nxt, blk.reshape(-1)
    uvt = _unwind(rows[:, :n], rows[:, n], qbits) if uv is None else _exact(rows)
    return uvt[:, :n], tuple(blocks), uvt[:, n:].T


def _next_block(blk, qt, out):
    """``out = blk[2:, 2:] + qt^T blk[:2, 2:]``, the block a clean pair leaves.

    ``out`` is a contiguous array of ``blk``'s dtype, outside ``blk``: one
    product of inner size 2 (float64 BLAS on the float tier) writes it, and
    one sum adds the old trailing block.
    """
    np.matmul(qt.T, blk[:2, 2:], out=out)
    out += blk[2:, 2:]
    return out


def _swap(blk, rows, t, x, y):
    """Transpose rows and columns ``x`` and ``y`` of the block, and rows ``t + x`` and ``t + y`` beside it."""
    _transpose(blk, x, y)
    _transpose(blk.T, x, y)
    _transpose(rows, t + x, t + y)


def _transpose(a, x, y):
    """Swap rows ``x`` and ``y`` of ``a`` in place, by copies of the two rows."""
    row = a[x].copy()
    a[x] = a[y]
    a[y] = row


def _buffers(blk, dtype):
    """``blk`` as a contiguous array on ``dtype``, and a flat spare buffer of its size."""
    blk = _cast(blk, dtype)
    return blk, np.empty(blk.size, dtype=dtype)


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
    """Upper bounds on the largest ``|entry|`` of the parts of an array, and the tier they allow.

    ``dtype`` is the tier every update of the array runs on: float64 BLAS
    within ``FLOAT_BITS`` (every partial sum is an integer the significand
    holds exactly), int64 within ``WORD_BITS`` (numpy's int64 ``@`` is a
    plain exact loop) and Python ints past that, for good.  ``grow(raise_,
    live, whole)`` raises the bounds by ``raise_``, which maps the bounds
    before an update to those after it.  Only when they would pass the
    tier's limit is ``live``, the part of the array that updates still read,
    measured again, and the array moves to the tier the result needs: up,
    or back down to float64 if all of ``whole`` (``live`` if omitted) fits
    it, final rows outside ``live`` included.  Returns that new dtype, to
    which the caller casts the array, or None if the array stays.
    """

    __slots__ = ("dtype", "bounds")

    def __init__(self, *bounds):
        self.bounds = bounds
        self.dtype = np.dtype(_tier(max(bounds).bit_length()))

    def grow(self, raise_, live, whole=None):
        if self.dtype == object:
            return None
        need = raise_(*self.bounds)
        if max(need).bit_length() <= (FLOAT_BITS if self.dtype == np.float64 else WORD_BITS):
            self.bounds = need
            return None
        self.bounds = need = raise_(*[max_abs(live)] * len(need))
        tier = np.dtype(_tier(max(need).bit_length()))
        if tier == self.dtype or tier == np.float64 and whole is not None and max_bits(whole) > FLOAT_BITS:
            return None
        self.dtype = tier
        return tier


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
        grow = qbits[s // 2] + (n - s - 2).bit_length()
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


def _step(uvt, tiers, t, qt, fold):
    """Apply one step of the loop to the row array ``[U | V^T]``; return it, on a new tier if it moved.

    The step is the sweep ``U[t+2:] += Q U[t:t+2]``, ``V^T[t:t+2] -= Q^T
    V^T[t+2:]`` (``qt`` is ``Q[t+2:, t:t+2]^T``), then, unless ``fold`` is
    None, the fold ``U[t] += U[t+fold]``, ``V^T[t+fold] -= V^T[t]``, as the
    loop applies them to ``M``.  ``tiers`` keeps one bound for ``U`` and
    one for ``V``; rows above ``t`` are final.
    """
    n = len(uvt)
    q = max_abs(qt)
    q1 = int(abs(qt).sum(axis=1).max())  # V Q grows by a column sum of |Q|
    if (tier := tiers.grow(lambda ub, vb: (ub * (2 * q + 1), vb * (q1 + 1)), uvt[t:], uvt)) is not None:
        uvt = _cast(uvt, tier)
    qt = _cast(qt, uvt.dtype)
    uvt[t + 2:, :n] += qt.T @ uvt[t:t + 2, :n]
    uvt[t:t + 2, n:] -= qt @ uvt[t + 2:, n:]
    if fold is not None:
        if (tier := tiers.grow(lambda ub, vb: (2 * ub, 2 * vb), uvt[t:], uvt)) is not None:
            uvt = _cast(uvt, tier)
        uvt[t, :n] += uvt[t + fold, :n]
        uvt[t + fold, n:] -= uvt[t, n:]
    return uvt


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
