"""Exact integer matrix algebra: Smith normal form, determinants, kernels.

A matrix is held as int rows: a tuple of tuples of Python ints, so
arithmetic never overflows, with its column count given wherever it
can have no rows.  `int_rows` is the gate every input passes.
This module is the decidability engine for everything built on finitely
generated abelian groups.  The array API (`as_int_matrix`, `identity`,
the transforms of a `SmithDecomposition`, `kernel_basis` and
`solve_linear`) wraps the int rows in numpy object arrays and imports
numpy on its first call; the rest never loads it.  No code path of the
package calls the array API: its callers are the benchmark in
`perfbench/` and the tests.
"""

from __future__ import annotations

from functools import cached_property
from operator import mul, sub

from .analytic import as_int


def int_rows(M, shape=None, name="entry"):
    """`M` (nested lists or tuples, or a 2d array) as (rows, n): a tuple
    of int tuples and its column count.

    Every entry passes `as_int`; a bad one is named as name[i][j].
    `shape` is required to disambiguate empty inputs, e.g. a relation
    matrix with zero rows over n generators; an empty input for a shape
    with entries is refused rather than read as zeros.
    """
    dims = getattr(M, "shape", None)     # an array keeps n with no rows
    try:
        rows = [tuple(r) for r in M]
    except TypeError:
        rows = None
    widths = {len(r) for r in rows or ()}
    if rows is None or len(widths) > 1 or dims and len(dims) != 2:
        raise ValueError(f"{name}: expected a 2d matrix")
    n = widths.pop() if rows else dims[1] if dims else None
    if not n:
        if shape is None and n is None:
            raise ValueError("shape required for empty matrix")
        shape = shape or (len(rows), n)
        if 0 not in shape:
            raise ValueError(f"{name}: empty, expected a "
                             f"{shape[0]}x{shape[1]} matrix")
        # empty rows of another width keep it for the caller's check
        if n not in (None, shape[1]):
            return tuple(rows), n
        return ((),) * shape[0], shape[1]
    for i, row in enumerate(rows):
        if not all(type(x) is int for x in row):
            rows[i] = tuple(as_int(x, f"{name}[{i}][{j}]")
                            for j, x in enumerate(row))
    return tuple(rows), n


def transpose(A, n):
    """The n rows of the transpose of the rows A of n columns."""
    return tuple(zip(*A)) if A else ((),) * n


def matmul(A, B, n):
    """A B as rows, for the rows B of n columns."""
    cols = transpose(B, n)
    return tuple(tuple(sum(map(mul, a, c)) for c in cols) for a in A)


def hstack(A, B):
    """[A | B] as rows, for A and B with the same number of rows."""
    return tuple(a + b for a, b in zip(A, B))


def difference(A, B):
    """A - B as rows, for A and B of one shape."""
    return tuple(tuple(map(sub, a, b)) for a, b in zip(A, B))


def _array(rows, n, writeable=True):
    """An object array of the int rows `rows` of n columns."""
    import numpy as np
    A = np.array(rows, dtype=object).reshape(len(rows), n)
    A.flags.writeable = writeable
    return A


def as_int_matrix(rows, shape=None, name="entry"):
    """`int_rows` as an object-dtype integer array."""
    return _array(*int_rows(rows, shape, name))


def identity(n):
    return _array(tuple(tuple(int(i == j) for j in range(n))
                        for i in range(n)), n)


def det(M):
    """Exact determinant of a square integer matrix (fraction-free Bareiss)."""
    rows, n = int_rows(M)
    if len(rows) != n:
        raise ValueError("det of non-square matrix")
    if n == 0:
        return 1
    A = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if A[k][k] == 0:
            pivot_row = next((i for i in range(k + 1, n) if A[i][k] != 0), None)
            if pivot_row is None:
                return 0
            A[k], A[pivot_row] = A[pivot_row], A[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                A[i][j] = (A[i][j] * A[k][k] - A[i][k] * A[k][j]) // prev
        prev = A[k][k]
    return sign * A[n - 1][n - 1]


class SmithDecomposition:
    """Holds U·M·V = D together with the exact inverses of U and V.

    D is diagonal with nonnegative entries d1 | d2 | ... ; U and V are
    unimodular.  `shape` is that of M and `rows` its int rows; `diag` is
    a new list of the min(m, n) diagonal entries.  `smith` eliminates on
    a copy of M alone and logs its elementary row and column operations.
    One log reader, `apply_log`, interprets the log: solving and kernels
    apply U and V to single vectors with it, and `u_rows` and `v_rows`
    read a transform's rows off it.  The arrays D, U, U_inv, V and V_inv
    are built on first access.  Equal inputs to `smith` share one
    instance, so the arrays are read-only.
    """

    def __init__(self, shape, rows, diag, row_ops, col_ops):
        self.shape = shape
        self.rows = rows
        self._diag = diag
        self._row_ops = row_ops
        self._col_ops = col_ops

    @property
    def diag(self):
        return list(self._diag)

    def u_rows(self, inverse=False):
        """The rows of U, or of U^-1, as int tuples."""
        return _transform_rows(self._row_ops, self.shape[0], False, inverse)

    def v_rows(self, inverse=False):
        """The rows of V, or of V^-1, as int tuples."""
        return _transform_rows(self._col_ops, self.shape[1], True, inverse)

    @cached_property
    def D(self):
        m, n = self.shape
        return _array(tuple(tuple(self._diag[i] if i == j else 0
                                  for j in range(n)) for i in range(m)), n,
                      writeable=False)

    @cached_property
    def U(self):
        return _array(self.u_rows(), self.shape[0], writeable=False)

    @cached_property
    def U_inv(self):
        return _array(self.u_rows(inverse=True), self.shape[0],
                      writeable=False)

    @cached_property
    def V(self):
        return _array(self.v_rows(), self.shape[1], writeable=False)

    @cached_property
    def V_inv(self):
        return _array(self.v_rows(inverse=True), self.shape[1],
                      writeable=False)


def _transform_rows(ops, n, transposed, inverse):
    """The rows of the n x n matrix T with T x = `apply_log(ops, x,
    transposed, inverse)`: row r is T^T e_r, the log read transposed."""
    return tuple(tuple(apply_log(ops, [0] * r + [1] + [0] * (n - 1 - r),
                                 not transposed, inverse))
                 for r in range(n))


def apply_log(ops, x, transpose=False, inverse=False):
    """U x, or U^-1 x with `inverse`, for the row log `ops`; with
    `transpose`, V x or V^-1 x for the column log.  Returns a list.

    A log entry is ("swap", i, j), ("neg", i) or ("add", i, j, q) for
    row_i += q * row_j; the log E_1, ..., E_k stands for E_k ... E_1, and
    a column log holds the same operations on the transpose.  Transposing
    and inverting each reverse the order; transposing makes an add act
    as x_j += q * x_i, inverting makes it subtract.  O(len(ops)) steps.
    """
    x = list(x)
    for op in reversed(ops) if transpose != inverse else ops:
        if op[0] == "add":
            _, i, j, q = op
            if transpose:
                i, j = j, i
            if inverse:
                q = -q
            x[i] += q * x[j]
        elif op[0] == "swap":
            _, i, j = op
            x[i], x[j] = x[j], x[i]
        else:
            x[op[1]] = -x[op[1]]
    return x


SMITH_CACHE_SIZE = 16   # repeats of a matrix come within a few calls
_SMITH_CACHE = {}


def smith(M, n=None):
    """Smith decomposition of an integer matrix, shared by equal inputs.

    `M` passes the gate `int_rows` once (`n` is its column count, needed
    when there are no rows).  Equal matrices (same shape and entries, in
    any container) get one read-only `SmithDecomposition`, and the memo
    keeps the SMITH_CACHE_SIZE most recently used distinct inputs."""
    return _smith(*int_rows(M, None if n is None else (len(M), n)))


def _smith(M, n):
    """`smith` for int rows M of n columns that passed the gate, or that
    the group layer built from gated rows; they key the memo as they are."""
    shape = (len(M), n)
    key = (shape, M)
    s = _SMITH_CACHE.pop(key, None)
    if s is None:
        s = _eliminate(shape, M)
        if len(_SMITH_CACHE) >= SMITH_CACHE_SIZE:
            del _SMITH_CACHE[next(iter(_SMITH_CACHE))]
    _SMITH_CACHE[key] = s
    return s


def _eliminate(shape, rows):
    """Row/column eliminations in place on a list copy A of the int rows,
    each logged for the transforms.  The pivot is a minimal nonzero
    |entry| of the trailing block, first in row-major order; the inner
    divisibility pass guarantees the divisor chain d1 | d2 | ..."""
    m, n = shape
    A = [list(r) for r in rows]
    row_ops, col_ops = [], []
    log_row, log_col = row_ops.append, col_ops.append

    # the leading s x s block is diagonal and the rest of its rows and
    # columns zero, so every operation at step s reads columns/rows >= s
    for s in range(min(m, n)):
        while True:
            # locate a minimal nonzero entry in the trailing block
            pivot = best = None
            for i in range(s, m):
                row = A[i]
                for j in range(s, n):
                    a = row[j]
                    if a and (best is None or abs(a) < best):
                        best = abs(a)
                        pivot = (i, j)
                if best == 1:
                    break
            if pivot is None:
                break
            i, j = pivot
            if i != s:
                A[s], A[i] = A[i], A[s]
                log_row(("swap", s, i))
            if j != s:
                for r in range(s, m):
                    row = A[r]
                    row[s], row[j] = row[j], row[s]
                log_col(("swap", s, j))
            top = A[s]
            if top[s] < 0:
                top = A[s] = [-a for a in top]
                log_row(("neg", s))

            p = top[s]
            dirty = False
            for i in range(s + 1, m):
                row = A[i]
                if row[s]:
                    q = -(row[s] // p)          # row_i += q * row_s
                    for c in range(s, n):
                        row[c] += q * top[c]
                    log_row(("add", i, s, q))
                    if row[s]:
                        dirty = True
            for j in range(s + 1, n):
                if top[j]:
                    q = -(top[j] // p)          # col_j += q * col_s
                    for r in range(s, m):
                        row = A[r]
                        row[j] += q * row[s]
                    log_col(("add", j, s, q))
                    if top[j]:
                        dirty = True
            if dirty:
                continue

            # pivot clears its row and column; force it to divide the rest:
            # row_s += the first row holding an entry p does not divide
            for i in range(s + 1, m):
                row = A[i]
                for c in range(s + 1, n):
                    if row[c] % p:
                        break
                else:
                    continue
                for c in range(s, n):
                    top[c] += row[c]
                log_row(("add", s, i, 1))
                break
            else:
                break

    dg = [A[i][i] for i in range(min(m, n))]
    normal = True
    for i, row in enumerate(A):         # diagonal,
        normal = normal and not any(row[:i]) and not any(row[i + 1:])
    for i, d in enumerate(dg):          # nonnegative and a divisor chain
        normal = normal and d >= 0 and not (i and dg[i - 1] and d % dg[i - 1])
    if not normal:
        raise ArithmeticError(f"smith: result is not in Smith normal form "
                              f"(diagonal {dg})")
    return SmithDecomposition(shape, rows, dg, row_ops, col_ops)


def kernel_vectors(s):
    """A basis of the integer kernel {x : M x = 0} of the decomposition
    `s` of M, as int tuples.

    The vectors are V e_f over the free coordinates f, each
    sign-normalized (first nonzero entry positive) so the basis is
    deterministic.
    """
    n = s.shape[1]
    basis = []
    for f in range(n):
        if f < len(s._diag) and s._diag[f]:
            continue
        v = apply_log(s._col_ops, [int(i == f) for i in range(n)],
                      transpose=True)
        lead = next((x for x in v if x), 0)
        basis.append(tuple(-x for x in v) if lead < 0 else tuple(v))
    return tuple(basis)


def kernel_basis(M):
    """Columns spanning the integer kernel {x : M x = 0}: the
    `kernel_vectors` of `smith(M)` as an object array."""
    s = smith(M)
    basis = kernel_vectors(s)
    return _array(transpose(basis, s.shape[1]), len(basis))


def solve_vector(s, b):
    """One integer solution x of M x = b as a list, for the
    decomposition `s` of M and an int vector b, or None if unsolvable.

    Free coordinates are pinned to zero, so the answer is deterministic.
    Solves D (V^-1 x) = U b with U b and V w taken from the operation
    log.
    """
    m, n = s.shape
    if len(b) != m:
        raise ValueError("rhs has wrong length")
    w = [0] * n
    for i, ci in enumerate(apply_log(s._row_ops, b)):
        d = s._diag[i] if i < len(s._diag) else 0
        if d == 0:
            if ci != 0:
                return None
        else:
            if ci % d != 0:
                return None
            w[i] = ci // d
    return apply_log(s._col_ops, w, transpose=True)


def solve_linear(M, b, decomposition=None):
    """`solve_vector` as an object array, for a matrix M and a vector b
    whose entries pass `as_int`.

    A given `decomposition` must be `smith(M)`; it is checked against the
    shape of M only.
    """
    import numpy as np
    s = decomposition if decomposition is not None else smith(M)
    if np.shape(M) != s.shape:
        raise ValueError(f"matrix of shape {np.shape(M)} for a "
                         f"decomposition of shape {s.shape}")
    x = solve_vector(s, [as_int(v, "rhs") for v in b])
    return None if x is None else np.array(x, dtype=object)
