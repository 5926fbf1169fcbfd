"""Exact integer linear algebra: Hermite forms, the weight lattice, theta's matrix, the skew normal form.

Everything here is exact; nothing is ever rounded.  Whether a routine
runs on Python-int lists or on the overflow-guarded int64 arrays of
``intcore`` is decided here alone, by one rule: arrays from
``INT64_MIN_ROWS`` rows on, or when an argument already is one, with the
same results either way.  Theta's matrix, the skew normal form, its
certificate and the integer combinations ``_combine`` follow it, and
``_combine`` hands its callers tuples of Python ints on both paths.  The
weight lattice has one basis routine for every size, :func:`tree_basis`,
which reads it off the track's spanning forest of the switch graph with no
elimination.  Every routine that takes caller matrices, lists or arrays,
reads its entries with ``operator.index`` (or checks an int64 dtype) and
refuses anything else.  The central routine, :func:`skew_normal_form`,
reduces an antisymmetric integer matrix ``M`` by a unimodular congruence
``U M U^T`` to a block diagonal matrix with 2x2 blocks ``(0 d; -d 0)``,
``d_1 | d_2 | ...``, followed by a zero block, and returns the certificate
``U`` with its inverse ``V``.

:func:`certified_form` (tree basis, theta, normal form, certificate) is
the structure stage of both commands; on the array path the basis,
theta's matrix, ``U`` and ``V`` (kept on the ``NormalForm``, which makes
its tuples only when they are read) stay arrays.  :func:`theta_matrix` is
the only place either command pairs weight systems: the form's matrix, the
eta match and ``rep``'s decomposition all read it.  No command reduces on
``hermite_normal_form``, which stays on lists and serves ``lattice_equal``
and ``weight_lattice_basis``.

``verify_structure`` combines the normal form with the region census of a
connected train track and checks the predicted block multiset (on a
triangulation track, also that the puncture weights span the form's
radical, by one pairing with the basis):

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
import sys
from dataclasses import dataclass, field
from itertools import chain, compress

from .traintrack import (
    TrainTrack,
    TriangulationTrack,
    germ_image,
    halved,
    puncture_weights,
    regions,
)
# Not called here (the etas come at once); perfbench's tracer wraps it.
from .traintrack import puncture_weight  # noqa: F401

# Theta, the skew normal form, its certificate and ``_combine`` fork here.
# Matrices with fewer rows stay on Python-int lists, where numpy's per-call
# dispatch costs more than it saves; from here on they run on numpy arrays
# (``intcore``), which give the same results.  Measured crossovers on
# standard triangulations (best of 5, lists against arrays): the normal form
# at 15 rows ((2,3): 377 against 366 us; 151 against 219 us at 12 rows),
# theta at 15 basis vectors, and the certificate alone at 6 rows (at n = 9,
# lists 146-153 us against arrays 68-84 us).  But a cutoff of 9 rows or fewer
# would load numpy on the grid cells and ribbon tracks of ``survey_small``,
# whose forms have at most 9 rows, and importing numpy raises a process from
# 13.1 to 27.0 MB RSS.  The cutoff stays at 20, though 15 to 19 rows would
# run faster on arrays; no benchmark input has a form of that size to show
# it end to end.  Nor can one array core serve every size: with every stage
# on arrays a ``survey_small`` operation goes from 97-103 to 274-285 us, each
# stage 35-65 us slower.  So the list paths stay.  ``certified_form`` makes
# the tree basis an array from this many switches on and hands the arrays on
# from stage to stage; the etas stay lists.
INT64_MIN_ROWS = 20


def _int64(rows: int) -> bool:
    """Whether a matrix with ``rows`` rows runs on int64 arrays."""
    return rows > 0 and rows >= INT64_MIN_ROWS


def _is_array(x) -> bool:
    """Whether ``x`` is a numpy array, without importing numpy (an array implies it is loaded)."""
    np = sys.modules.get("numpy")
    return np is not None and isinstance(x, np.ndarray)


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


# --- the weight lattice and theta over it ----------------------------------

def tree_basis(track: TrainTrack) -> list[list[int]]:
    """A basis of the weight lattice read off the spanning forest of the signed switch graph.

    The switch conditions are the incidence matrix of the graph that
    ``track.forest`` spans (``traintrack.SwitchForest``).  A branch ``e``
    off the forest starts as ``e_e``, whose residual is +-1 at each end's
    switch; each tree branch takes the coefficient that clears the residual
    at its lower switch and passes it on to its upper one.  So ``v_e`` is 1
    on ``e``, at most 2 in absolute value on the tree, and leaves ``R_e`` in
    {0, +-2} at the root, 0 exactly when ``e`` is balanced.  If ``R_e = 0``,
    ``v_e`` is a weight system; otherwise the component's first such branch
    ``e0`` is kept aside and ``v_e - (R_e / R_e0) v_e0`` is one.  Every
    vector is 1 on its own branch off the tree and 0 on the others but
    ``e0``, and the tree with ``e0`` has independent columns (``e0`` closes
    an unbalanced cycle), so a weight system less the combination that
    clears its entries off the tree is 0: the vectors are a basis of the
    integer kernel.  No entry passes 4 in absolute value.  The basis is not
    canonical: :func:`weight_lattice_basis` puts it into Hermite form.
    """
    ends, component, up = track.forest.ends, track.forest.component, track.forest.up
    tree = {u[1] for u in up if u is not None}
    basis = []
    unbalanced = {}  # component -> (R_e0, the support of v_e0)
    for e in range(track.branch_count):
        if e in tree:
            continue
        v = [0] * track.branch_count
        v[e] = 1
        residual = 0
        for s, r in ends[e]:
            while up[s] is not None:
                s, b, cs, cp = up[s]
                v[b] -= r * cs
                r = -r * cs * cp
            residual += r
        if not residual:
            basis.append(v)
            continue
        c = component[ends[e][0][0]]
        if c not in unbalanced:
            unbalanced[c] = residual, [(i, x) for i, x in enumerate(v) if x]
            continue
        r0, support = unbalanced[c]
        sign = 1 if residual == r0 else -1
        for i, x in support:
            v[i] -= sign * x
        basis.append(v)
    return basis


def weight_lattice_basis(track: TrainTrack) -> list[tuple[int, ...]]:
    """Basis of the integer kernel of the switch conditions, canonically ordered (Hermite form)."""
    return list(hermite_normal_form(tree_basis(track)))


def theta_matrix(track: TrainTrack, rows, cols=None):
    """The matrix ``theta(rows_i, cols_j) = R T C^T / 2``: the one pairing routine of the commands.

    ``T`` is the germ-pair form ``track.germ_pairs``.  With ``cols`` omitted
    it is the antisymmetric matrix over ``rows``.  If either side is an array
    or has ``INT64_MIN_ROWS`` rows or more it is exact array products in
    ``intcore`` over the germ pairs' branch columns (float64 BLAS while
    their bit bound is within 53), an array if either side is one.
    Otherwise the image ``T c`` of each column vector is formed once and
    dotted with the support of each row, over Python ints; an antisymmetric
    matrix computes each unordered pair once.
    """
    if (_is_array(rows) or _is_array(cols) or _int64(len(rows))
            or cols is not None and _int64(len(cols))):
        from . import intcore
        return intcore.theta_matrix(track.germ_pairs, rows, cols)
    square = cols is None
    if square:  # each unordered pair once: row i reads the images of rows i + 1 onward
        images = [None] + [germ_image(track, r) for r in rows[1:]]
    else:
        images = [germ_image(track, c) for c in cols]
    out = [[0] * len(images) for _ in rows]
    for i, r in enumerate(rows[:-1] if square else rows):
        support = [(k, x) for k, x in enumerate(r) if x]
        row = out[i]
        for j in range(i + 1 if square else 0, len(images)):
            image = images[j]
            doubled = 0
            for k, x in support:
                doubled += x * image[k]
            row[j] = v = halved(doubled)
            if square:
                out[j][i] = -v
    return out


# --- skew normal form ------------------------------------------------------

class NormalForm:
    """Certificate ``U M U^T = D`` with ``U V = I``, so ``|det U| = 1``.

    ``blocks`` lists the d's of the 2x2 blocks ``(0 d; -d 0)`` of ``D`` in
    divisibility order; ``nullity`` follows from them.  Rows
    ``2 * len(blocks)`` onward of ``U`` are a basis of the integer kernel.
    ``V`` is the inverse of ``U``, kept so that unimodularity is checked by
    one product.  ``arrays`` holds ``(U, V)`` as the read-only arrays the
    int64 path computed (``from_arrays``), for the certificate to read; it
    is None otherwise.  There the tuples ``U`` and ``V`` are made from the
    arrays the first time they are read.  Two normal forms are equal when
    their ``U``, ``blocks`` and ``V`` are.
    """

    __slots__ = ("_U", "blocks", "_V", "arrays")

    def __init__(self, U, blocks, V):
        self._U, self.blocks, self._V = U, blocks, V
        self.arrays = None

    @classmethod
    def from_arrays(cls, u, blocks, v) -> "NormalForm":
        u.flags.writeable = v.flags.writeable = False
        nf = cls(None, blocks, None)
        nf.arrays = (u, v)
        return nf

    @property
    def U(self) -> tuple[tuple[int, ...], ...]:
        if self._U is None:
            self._U = tuple(map(tuple, self.arrays[0].tolist()))
        return self._U

    @property
    def V(self) -> tuple[tuple[int, ...], ...]:
        if self._V is None:
            self._V = tuple(map(tuple, self.arrays[1].tolist()))
        return self._V

    @property
    def rank(self) -> int:
        return 2 * len(self.blocks)

    @property
    def nullity(self) -> int:
        return len(self._U if self.arrays is None else self.arrays[0]) - self.rank

    def __eq__(self, other):
        if not isinstance(other, NormalForm):
            return NotImplemented
        return (self.blocks, self.U, self.V) == (other.blocks, other.U, other.V)

    def __hash__(self):
        return hash((self.U, self.blocks, self.V))

    def __repr__(self):
        return f"NormalForm(U={self.U!r}, blocks={self.blocks!r}, V={self.V!r})"


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
        return NormalForm.from_arrays(*intcore.skew_normal_form(matrix))
    m = _check_antisymmetric(matrix)
    n = len(m)
    u = identity_matrix(n)
    vt = identity_matrix(n)  # V^T: a row operation on U is a column operation on V

    def swap(i, j):
        m[i], m[j] = m[j], m[i]
        u[i], u[j] = u[j], u[i]
        vt[i], vt[j] = vt[j], vt[i]
        for row in m:
            row[i], row[j] = row[j], row[i]

    def add_row(i, j, q):
        # row_i += q row_j, col_i += q col_j: congruence by I + q E_ij
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
        i, j = pivot  # below row t never in column t: its mirror in row t comes first
        if i != t:
            swap(t, i)
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
    u, v = nf.arrays or (nf.U, nf.V)
    n = len(u)
    square = (matrix,) if nf.arrays else (u, v, matrix)  # the int64 path's arrays are square
    if not len(v) == len(matrix) == n or 2 * len(nf.blocks) > n or any(
            len(r) != n for rows in square for r in rows):
        return False
    if _int64(n):
        from . import intcore
        if not intcore.certifies(u, v, matrix, nf.blocks):
            return False
    else:
        # U M U^T = (U M) U^T, and the rows of M^T and V^T are zip(*M), zip(*V)
        u, v, m = _exact(u), _exact(v), _exact(matrix)
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
    """The tree basis and theta's normal form on it, certified or ``CertificateError``.

    Every figure the commands report is an invariant of the form on the lattice,
    and the Hermite basis only made ``U`` grow on flipped triangulations.  From
    ``INT64_MIN_ROWS`` switches on, the basis and ``nf.arrays`` are arrays.
    """
    basis = tree_basis(track)
    if _int64(track.switch_count):
        from . import intcore
        basis = intcore.word_rows(basis, track.branch_count)
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
    # the certified normal form the figures are read from; not printed or compared
    normal_form: NormalForm | None = field(default=None, compare=False, repr=False)

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
        eta_match = _etas_span_radical(track, basis, puncture_weights(track), nf.nullity)
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
        normal_form=nf,
    )


def pair_vectors(nf: NormalForm, basis) -> list[tuple[int, ...]]:
    """The weight systems ``U[:rank] @ basis`` of the normal form's pair rows, as tuples of Python ints.

    On the array path ``U``'s rows are read from ``nf.arrays`` as an array,
    so the tuples ``nf.U`` are not made only to be read back into one.
    """
    return _combine((nf.arrays[0] if nf.arrays else nf.U)[:nf.rank], basis)


def _combine(rows, basis) -> list[tuple[int, ...]]:
    """The combinations ``rows @ basis`` as tuples of Python ints: one vector per row of coefficients.

    If either side is an array or ``basis`` has ``INT64_MIN_ROWS`` rows or
    more (``theta_matrix``'s rule) this is one exact ``intcore.matmul``.  On
    lists each row adds up its basis vectors with non-zero coefficients,
    which skips the zeros of the sparse rows of ``U``.
    """
    if not len(rows):
        return []
    if _is_array(rows) or _is_array(basis) or _int64(len(basis)):
        from . import intcore
        return list(map(tuple, intcore.matmul(intcore.as_array(rows), intcore.as_array(basis)).tolist()))
    out = []
    for row in rows:
        vector = [0] * len(basis[0])
        for c, vec in zip(row, basis):
            if c:
                for i, x in enumerate(vec):
                    vector[i] += c * x
        out.append(tuple(vector))
    return out


def _etas_span_radical(track: TrainTrack, basis, etas, nullity: int) -> bool:
    """Whether the ``etas`` are a basis of the radical ``R`` of theta on the span ``L`` of ``basis``.

    ``L`` is the kernel of the switch matrix, the etas lie in it
    (``puncture_owners`` checks), and the certificate gives ``R`` rank
    ``nullity``.  0/1 etas with disjoint non-empty supports span a saturated
    lattice ``E``.  If there are ``nullity`` of them and each pairs to zero
    with the basis, ``E`` lies in ``R`` with the same rank, so ``R`` lies in
    the integer vectors of ``Q E``, which are ``E``.  The etas, a list of
    tuples, go second in ``theta_matrix``, so only their germ images are
    formed.
    """
    if len(etas) != nullity:
        return False
    if not len(etas):
        return True
    # every non-zero entry is a 1, and no branch lies in two supports
    supports = [list(compress(range(len(eta)), eta)) for eta in etas]
    if (not all(supports) or any(eta.count(1) != len(sup) for eta, sup in zip(etas, supports))
            or len(set(chain.from_iterable(supports))) != sum(map(len, supports))):
        return False
    pairing = theta_matrix(track, basis, etas)
    return not (pairing.any() if _is_array(pairing) else any(map(any, pairing)))
