"""Exact integer linear algebra: Hermite forms, kernels, and the skew normal form.

Everything here is exact; nothing is ever rounded.  Three routines here
fork at ``traintrack.INT64_MIN_ROWS`` rows: the integer kernel (the
elimination basis), the skew normal form and its certificate run on
Python-int lists below it and on the overflow-guarded int64 arrays of
``intcore`` from there on, with the same results.  Every routine that takes
caller matrices, lists or arrays, reads its entries with ``operator.index``
(or checks an int64 dtype) and refuses anything else.  The central
routine, :func:`skew_normal_form`, reduces an antisymmetric integer
matrix ``M`` by a unimodular congruence ``U M U^T`` to a block diagonal
matrix with 2x2 blocks ``(0 d; -d 0)``, ``d_1 | d_2 | ...``, followed by a
zero block, and returns the certificate ``U`` with its inverse ``V``.

:func:`certified_form` (elimination basis, theta, normal form, certificate)
is the structure stage of both commands; on the array path the kernel,
theta's matrix, ``U`` and ``V`` (kept on the ``NormalForm`` next to their
tuples) and ``_combine``'s products stay arrays.  No command reduces on
``hermite_normal_form``, which stays on lists and serves ``lattice_equal``,
``integer_kernel_basis`` and the eta match's ``s x s`` readings.

``verify_structure`` combines the normal form with the region census of a
connected train track and checks the predicted block multiset:

* some region has an odd spike count: ``h`` blocks with d = 1,
  ``n_odd / 2 - 1`` blocks with d = 2, and ``n_even`` zero rows;
* every region has an even spike count and the track is orientable:
  ``h`` blocks with d = 1 and ``n_even - 1`` zero rows;
* every region has an even spike count and the track is non-orientable:
  ``h - 1`` blocks with d = 1 and ``n_even`` zero rows.

Here ``h`` is the genus of the thickened neighborhood ``U``.  Rank
bookkeeping pins the non-orientable count: the weight lattice then has rank
``-chi(U) = 2h + n_even - 2``, which only accommodates ``h - 1`` paired
blocks next to the ``n_even`` zero rows.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from itertools import compress

from .traintrack import (
    TrainTrack,
    TriangulationTrack,
    _int64,
    _is_array,
    puncture_weights,
    regions,
    switch_matrix,
    theta_matrix,
)
# Not called here (no Hermite basis, etas built at once); perfbench's tracer wraps them.
from .traintrack import puncture_weight, weight_lattice_basis  # noqa: F401


# --- generic helpers -------------------------------------------------------

def identity_matrix(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _exact(rows) -> list[list[int]]:
    """``rows`` as lists of Python ints by ``operator.index``; ``ValueError`` otherwise."""
    try:
        return [list(map(operator.index, r)) for r in rows]
    except TypeError as exc:
        raise ValueError(f"entries must be exact integers: {exc}") from exc


def _pivot(work, r, c) -> bool:
    """gcd elimination in column ``c`` among the rows ``r`` onward, in place.

    Repeatedly moves the row with the smallest non-zero entry (ties: lowest
    index) to position ``r`` and reduces the rows below it by floor quotients
    until only row ``r`` is non-zero in column ``c``.  The pivot keeps its
    sign.  Returns whether the column had a non-zero entry.
    """
    n = len(work)
    while True:
        live = [i for i in range(r, n) if work[i][c] != 0]
        if not live:
            return False
        i_min = min(live, key=lambda i: (abs(work[i][c]), i))
        work[r], work[i_min] = work[i_min], work[r]
        p = work[r][c]
        done = True
        for i in range(r + 1, n):
            if work[i][c] != 0:
                q = work[i][c] // p
                work[i] = [x - q * y for x, y in zip(work[i], work[r])]
                if work[i][c] != 0:
                    done = False
        if done:
            return True


def hermite_normal_form(rows) -> tuple[tuple[int, ...], ...]:
    """Canonical row-style Hermite normal form, zero rows dropped.

    Pivots are positive, entries above each pivot are reduced into
    ``[0, pivot)``; the result is a canonical invariant of the row span.
    """
    if not rows:
        return ()
    cols = len(rows[0])
    if any(len(r) != cols for r in rows):
        raise ValueError("ragged rows")
    work = _exact(rows)
    r = 0
    for c in range(cols):
        if not _pivot(work, r, c):
            continue
        if work[r][c] < 0:
            work[r] = [-x for x in work[r]]
        p = work[r][c]
        for i in range(r):
            q = work[i][c] // p
            if q:
                work[i] = [x - q * y for x, y in zip(work[i], work[r])]
        r += 1
        if r == len(work):
            break
    return tuple(tuple(row) for row in work[:r] if any(row))


def lattice_equal(a_rows, b_rows) -> bool:
    """Whether two lists of integer vectors span the same lattice (not just the same Q-span)."""
    a_rows = list(a_rows)
    b_rows = list(b_rows)
    if a_rows and b_rows and len(a_rows[0]) != len(b_rows[0]):
        raise ValueError(f"ambient dimension mismatch: {len(a_rows[0])} vs {len(b_rows[0])}")
    return hermite_normal_form(a_rows) == hermite_normal_form(b_rows)


def integer_kernel(matrix) -> list[list[int]]:
    """A basis of the integer kernel {v : matrix @ v = 0}, by unimodular elimination.

    Row-reduces ``[matrix^T | I]``; the right parts of the rows whose left
    part dies are the basis.  It spans the kernel lattice but is not
    canonical: :func:`integer_kernel_basis` puts it into Hermite form.
    """
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    if _int64(rows):
        from . import intcore
        return intcore.integer_kernel(matrix).tolist()
    matrix = _exact(matrix)
    work = [[matrix[i][j] for i in range(rows)] + [1 if k == j else 0 for k in range(cols)]
            for j in range(cols)]
    r = 0
    for c in range(rows):
        if _pivot(work, r, c):
            r += 1
    return [row[rows:] for row in work[r:]]


def integer_kernel_basis(matrix) -> list[list[int]]:
    """Basis of the integer kernel {v : matrix @ v = 0}, canonicalized by HNF."""
    return [list(row) for row in hermite_normal_form(integer_kernel(matrix))]


# --- skew normal form ------------------------------------------------------

@dataclass(frozen=True)
class NormalForm:
    """Certificate ``U M U^T = D`` with ``U V = I``, so ``|det U| = 1``.

    ``blocks`` lists the d's of the 2x2 blocks ``(0 d; -d 0)`` of ``D`` in
    divisibility order; ``nullity`` follows from them.  Rows
    ``2 * len(blocks)`` onward of ``U`` are a basis of the integer kernel.
    ``V`` is the inverse of ``U``, kept so that unimodularity is checked by
    one product.  ``arrays`` holds ``(U, V)`` as the read-only arrays the
    int64 path computed, for the certificate and the eta match to read
    without parsing the tuples again; it is None otherwise, and
    ``dataclasses.replace`` drops it.
    """

    U: tuple[tuple[int, ...], ...]
    blocks: tuple[int, ...]
    V: tuple[tuple[int, ...], ...]
    arrays: tuple | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def rank(self) -> int:
        return 2 * len(self.blocks)

    @property
    def nullity(self) -> int:
        return len(self.U) - self.rank


def _check_antisymmetric(m) -> list[list[int]]:
    n = len(m)
    out = _exact(m)
    if any(len(row) != n for row in out):
        raise ValueError("matrix is not square")
    for i in range(n):
        for j in range(n):
            if out[i][j] != -out[j][i]:
                raise ValueError(f"matrix is not antisymmetric at ({i}, {j})")
    return out


def skew_normal_form(matrix) -> NormalForm:
    """Block-diagonalize an antisymmetric integer matrix by unimodular congruence.

    Deterministic: pivots are chosen with minimal absolute value, ties broken
    lexicographically by (row, column).  Division remainders and divisibility
    folds strictly shrink the pivot, so the loop terminates.  Matrices from
    ``INT64_MIN_ROWS`` rows on take the same steps on arrays.
    """
    if _int64(len(matrix)):
        from . import intcore
        u, blocks, v = intcore.skew_normal_form(matrix)
        nf = NormalForm(tuple(map(tuple, u.tolist())), blocks, tuple(map(tuple, v.tolist())))
        u.flags.writeable = v.flags.writeable = False
        object.__setattr__(nf, "arrays", (u, v))
        return nf
    m = _check_antisymmetric(matrix)
    n = len(m)
    u = identity_matrix(n)
    vt = identity_matrix(n)  # V^T: a row operation on U is a column operation on V

    def swap(i, j):
        if i == j:
            return
        m[i], m[j] = m[j], m[i]
        u[i], u[j] = u[j], u[i]
        vt[i], vt[j] = vt[j], vt[i]
        for row in m:
            row[i], row[j] = row[j], row[i]

    def add_row(i, j, q):
        # row_i += q row_j, col_i += q col_j: congruence by I + q E_ij
        if q == 0:
            return
        m[i] = [x + q * y for x, y in zip(m[i], m[j])]
        u[i] = [x + q * y for x, y in zip(u[i], u[j])]
        vt[j] = [x - q * y for x, y in zip(vt[j], vt[i])]
        for row in m:
            row[i] += q * row[j]

    blocks = []
    t = 0
    while t + 1 < n:
        pivot = None
        for i in range(t, n):
            for j in range(t, n):
                v = m[i][j]
                if v != 0 and (pivot is None or abs(v) < abs(m[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        i, j = pivot
        if i != t:
            swap(t, i)
            if j == t:
                j = i
        if j != t + 1:
            swap(t + 1, j)
        if m[t][t + 1] < 0:
            swap(t, t + 1)
        p = m[t][t + 1]

        dirty = False
        for c in range(t + 2, n):
            # clear m[t][c] with row/col t+1, then m[t+1][c] with row/col t
            if m[t][c] != 0:
                q = -(m[t][c] // p)
                add_row(c, t + 1, q)
                if m[t][c] != 0:
                    dirty = True
            if m[t + 1][c] != 0:
                q = m[t + 1][c] // p
                add_row(c, t, q)
                if m[t + 1][c] != 0:
                    dirty = True
        if dirty:
            continue

        fold = None
        for i in range(t + 2, n):
            for j in range(t + 2, n):
                if m[i][j] % p != 0:
                    fold = i
                    break
            if fold is not None:
                break
        if fold is not None:
            add_row(t, fold, 1)
            continue
        blocks.append(p)
        t += 2
    return NormalForm(tuple(map(tuple, u)), tuple(blocks), tuple(zip(*vt)))


def certify_normal_form(nf: NormalForm, matrix) -> bool:
    """Exact check of U M U^T == D, U V == I, and the divisibility chain.

    ``U V = I`` with integer ``V`` makes ``det U`` a unit, so ``|det U| = 1``.
    Below ``INT64_MIN_ROWS`` rows the products are Python-int row dot
    products, compared with the blocks and unit rows directly; from there on
    they are ``intcore.matmul`` products, on float64 BLAS within 53 bits and
    on Python ints past them.  Entries that are not exact integers raise
    ``ValueError``.
    """
    n = len(nf.U)
    if not len(nf.V) == len(matrix) == n or 2 * len(nf.blocks) > n or any(
            len(r) != n for rows in (nf.U, nf.V, matrix) for r in rows):
        return False
    if _int64(n):
        from . import intcore
        u, v = nf.arrays or (nf.U, nf.V)
        if not intcore.certifies(u, v, matrix, nf.blocks):
            return False
    else:
        # U M U^T = (U M) U^T, and the rows of M^T and V^T are zip(*M), zip(*V)
        u, v, m = _exact(nf.U), _exact(nf.V), _exact(matrix)
        if not _is_blocks(_row_dots(_row_dots(u, zip(*m)), u), nf.blocks):
            return False
        if not _is_identity(_row_dots(u, zip(*v))):
            return False
    return (all(d > 0 for d in nf.blocks)
            and all(b % a == 0 for a, b in zip(nf.blocks, nf.blocks[1:])))


def _row_dots(a, b) -> list[tuple[int, ...]]:
    """``a @ b^T`` over Python ints: every row of ``a`` dotted with every row of ``b``."""
    b = list(b)
    return [tuple([sum(map(operator.mul, r, s)) for s in b]) for r in a]


def _is_blocks(rows, blocks) -> bool:
    """Whether ``rows`` is ``D`` of the non-zero ``blocks`` (zero blocks are refused)."""
    n = len(rows)
    for k, d in enumerate(blocks):
        top, bottom = rows[2 * k], rows[2 * k + 1]
        if (top[2 * k + 1] != d or bottom[2 * k] != -d
                or top.count(0) != n - 1 or bottom.count(0) != n - 1):
            return False
    return not any(map(any, rows[2 * len(blocks):]))


def _is_identity(rows) -> bool:
    n = len(rows)
    for i, row in enumerate(rows):
        if row[i] != 1 or row.count(0) != n - 1:
            return False
    return True


# --- the structure theorem -------------------------------------------------

class CertificateError(ValueError):
    """A normal form that fails its certificate (``certify_normal_form``)."""


def certified_form(track: TrainTrack):
    """The elimination basis and theta's normal form on it, certified or ``CertificateError``.

    Every figure the commands report is an invariant of the form on the lattice,
    and the Hermite basis only made ``U`` grow on flipped triangulations.  From
    ``INT64_MIN_ROWS`` switches on, the basis and ``nf.arrays`` are arrays.
    """
    if _int64(track.switch_count):
        from . import intcore
        basis = intcore.integer_kernel(intcore.switch_matrix(track.switches, track.branch_count))
    else:
        basis = integer_kernel(switch_matrix(track))
    m = theta_matrix(track, basis)
    nf = skew_normal_form(m)
    if not certify_normal_form(nf, m):
        raise CertificateError("normal form certificate failed")
    return basis, nf


@dataclass(frozen=True)
class StructureReport:
    case: str
    genus: int
    n_even: int
    n_odd: int
    orientable: bool
    expected_blocks: tuple[int, ...]
    expected_nullity: int
    computed_blocks: tuple[int, ...]
    nullity: int
    rank: int
    passed: bool
    eta_kernel_match: bool | None = None

    def to_json_dict(self) -> dict:
        return {
            "case": self.case,
            "h": self.genus,
            "n_even": self.n_even,
            "n_odd": self.n_odd,
            "orientable": self.orientable,
            "expected_blocks": list(self.expected_blocks),
            "expected_nullity": self.expected_nullity,
            "computed_blocks": list(self.computed_blocks),
            "nullity": self.nullity,
            "rank": self.rank,
            "pass": self.passed,
            **({} if self.eta_kernel_match is None
               else {"eta_kernel_match": self.eta_kernel_match}),
        }


def predicted_blocks(genus: int, n_even: int, n_odd: int, orientable: bool) -> tuple[tuple[int, ...], int]:
    """Expected (block multiset, nullity) for a connected track's census."""
    if n_odd > 0:
        if n_odd % 2 != 0:
            raise ValueError("odd-spiked regions come in pairs")
        return tuple([1] * genus + [2] * (n_odd // 2 - 1)), n_even
    if orientable:
        return tuple([1] * genus), n_even - 1
    return tuple([1] * (genus - 1)), n_even


def verify_structure(track: TrainTrack) -> StructureReport:
    """Run census + :func:`certified_form` on a connected track and compare block predictions."""
    regs, topo = regions(track)
    basis, nf = certified_form(track)
    expected, expected_nullity = predicted_blocks(
        topo.genus, topo.n_even, topo.n_odd, topo.orientable)
    if topo.n_odd > 0:
        case = "odd-spiked regions present"
    elif topo.orientable:
        case = "all regions even-spiked, orientable"
    else:
        case = "all regions even-spiked, non-orientable"
    computed = tuple(sorted(nf.blocks))
    passed = computed == tuple(sorted(expected)) and nf.nullity == expected_nullity

    eta_match = None
    if isinstance(track, TriangulationTrack):
        u = nf.U if nf.arrays is None else nf.arrays[0]
        eta_match = _eta_match(_combine(u[nf.rank:], basis), puncture_weights(track))
        passed = passed and eta_match
    return StructureReport(
        case=case,
        genus=topo.genus,
        n_even=topo.n_even,
        n_odd=topo.n_odd,
        orientable=topo.orientable,
        expected_blocks=tuple(sorted(expected)),
        expected_nullity=expected_nullity,
        computed_blocks=computed,
        nullity=nf.nullity,
        rank=nf.rank,
        passed=passed,
        eta_kernel_match=eta_match,
    )


def _combine(rows, basis):
    """The combinations ``rows @ basis``: one vector per row of coefficients.

    If either side is an array this is one exact ``intcore.matmul``, and the
    result an array.  On lists each row adds up its basis vectors with
    non-zero coefficients, which skips the zeros of the sparse rows of ``U``.
    """
    if _is_array(rows) or _is_array(basis):
        from . import intcore
        return intcore.matmul(intcore.as_array(rows), intcore.as_array(basis))
    out = []
    for row in rows:
        vector = [0] * len(basis[0])
        for c, vec in zip(row, basis):
            if c:
                for i, x in enumerate(vec):
                    vector[i] += c * x
        out.append(tuple(vector))
    return out


def _eta_match(rows, etas) -> bool:
    """Whether ``rows`` is a basis of the lattice that the ``etas`` span.

    The etas are 0/1 vectors with disjoint, non-empty supports, so a vector
    ``c @ etas`` of their span is known from its *reading* ``c``: its entries
    at the etas' first support entries.  ``rows`` is a basis exactly when
    there are ``s = len(etas)`` of them, every row equals its reading times
    the etas, and the ``s x s`` matrix of readings is unimodular, that is,
    its Hermite form is ``I``.  Array rows (exact, of any dtype) are checked
    as arrays.
    """
    s = len(etas)
    if len(rows) != s or not s:
        return len(rows) == s
    first = [eta.index(1) for eta in etas]
    # lead[j]: the first support entry of the eta through entry j, -1 off every support
    lead = [-1] * len(etas[0])
    for f, eta in zip(first, etas):
        for j in compress(range(len(eta)), eta):
            lead[j] = f
    if _is_array(rows):
        from . import intcore
        if not intcore.eta_consistent(rows, lead):
            return False
        readings = rows[:, first].tolist()
    else:
        if any(row[j] != (row[f] if f >= 0 else 0) for row in rows for j, f in enumerate(lead)):
            return False
        readings = [[row[f] for f in first] for row in rows]
    return hermite_normal_form(readings) == tuple(map(tuple, identity_matrix(s)))
