"""Exact integer matrix algebra: Smith normal form, determinants, kernels.

All matrices are numpy arrays with dtype=object holding Python ints, so
arithmetic never overflows.  This module is the decidability engine for
everything built on finitely generated abelian groups.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .analytic import as_int


def as_int_matrix(rows, shape=None, name="entry"):
    """Coerce nested lists (or an array) to an object-dtype integer matrix.

    Every entry passes `as_int`; a bad one is named as name[i][j].
    `shape` is required to disambiguate empty inputs, e.g. a relation
    matrix with zero rows over n generators; an empty input for a shape
    with entries is refused rather than read as zeros.
    """
    A = np.array(rows, dtype=object)
    if A.size == 0:
        if shape is None and A.ndim == 2:
            shape = A.shape
        if shape is None:
            raise ValueError("shape required for empty matrix")
        if 0 not in shape:
            raise ValueError(f"{name}: empty, expected a "
                             f"{shape[0]}x{shape[1]} matrix")
        # empty rows of another width keep it for the caller's check
        return np.zeros(A.shape if A.ndim == 2 and A.shape[1] != shape[1]
                        else shape, dtype=object)
    if A.ndim != 2:
        raise ValueError(f"expected a 2d matrix, got ndim={A.ndim}")
    for k, x in enumerate(A.flat):
        if type(x) is not int:
            i, j = divmod(k, A.shape[1])
            A[i, j] = as_int(x, f"{name}[{i}][{j}]")
    return A


def identity(n):
    return np.array([[int(i == j) for j in range(n)] for i in range(n)],
                    dtype=object).reshape(n, n)


def zeros(m, n):
    return np.zeros((m, n), dtype=object)


def det(M):
    """Exact determinant of a square integer matrix (fraction-free Bareiss)."""
    A = as_int_matrix(M)
    n = A.shape[0]
    if A.shape != (n, n):
        raise ValueError("det of non-square matrix")
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if A[k, k] == 0:
            pivot_row = next((i for i in range(k + 1, n) if A[i, k] != 0), None)
            if pivot_row is None:
                return 0
            A[[k, pivot_row]] = A[[pivot_row, k]]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                A[i, j] = (A[i, j] * A[k, k] - A[i, k] * A[k, j]) // prev
        prev = A[k, k]
    return sign * A[n - 1, n - 1]


class SmithDecomposition:
    """Holds U·M·V = D together with the exact inverses of U and V.

    D is diagonal with nonnegative entries d1 | d2 | ... ; U and V are
    unimodular.  `diag` is a new list of the min(m, n) diagonal entries.
    `smith` eliminates on a copy of M alone and logs its elementary row
    and column operations.  One log reader, `apply_log`, interprets the
    log: solving and kernels apply U and V to single vectors with it, and
    each transform is built on first access by applying it to the
    columns of the identity.  Equal inputs to `smith` share one instance,
    so M, D and the four transforms are read-only arrays.
    """

    def __init__(self, M, D, row_ops, col_ops):
        M.flags.writeable = D.flags.writeable = False
        self.M = M
        self.D = D
        self._diag = D.diagonal().tolist()
        self._row_ops = row_ops
        self._col_ops = col_ops

    @property
    def diag(self):
        return list(self._diag)

    @cached_property
    def U(self):
        return _columns(self._row_ops, self.M.shape[0])

    @cached_property
    def U_inv(self):
        return _columns(self._row_ops, self.M.shape[0], inverse=True)

    @cached_property
    def V(self):
        return _columns(self._col_ops, self.M.shape[1], transpose=True)

    @cached_property
    def V_inv(self):
        return _columns(self._col_ops, self.M.shape[1], transpose=True,
                        inverse=True)


def _columns(ops, n, **how):
    """The n x n matrix whose column c is `apply_log(ops, e_c, **how)`."""
    cols = [apply_log(ops, [0] * c + [1] + [0] * (n - 1 - c), **how)
            for c in range(n)]
    T = np.array(cols, dtype=object).reshape(n, n)
    T.flags.writeable = False
    return T.T


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


def smith(M):
    """Smith decomposition of an integer matrix, shared by equal inputs:
    equal matrices after `as_int_matrix` (same shape and entries, in any
    container) get one read-only `SmithDecomposition`, and the memo keeps
    the SMITH_CACHE_SIZE most recently used distinct inputs."""
    M = as_int_matrix(M)
    A = M.tolist()
    key = (M.shape, tuple(map(tuple, A)))
    s = _SMITH_CACHE.pop(key, None)
    if s is None:
        s = _eliminate(M, A)
        if len(_SMITH_CACHE) >= SMITH_CACHE_SIZE:
            del _SMITH_CACHE[next(iter(_SMITH_CACHE))]
    _SMITH_CACHE[key] = s
    return s


def _eliminate(M, A):
    """Row/column eliminations in place on the int rows A of M, each
    logged for the transforms.  The pivot is a minimal nonzero |entry| of
    the trailing block, first in row-major order; the inner divisibility
    pass guarantees the divisor chain d1 | d2 | ..."""
    m, n = M.shape
    row_ops, col_ops = [], []

    # the leading s x s block is diagonal and the rest of its rows and
    # columns zero, so every operation at step s reads columns/rows >= s
    def row_addmul(i, j, q, s):
        # row_i += q * row_j
        ri, rj = A[i], A[j]
        for c in range(s, n):
            ri[c] += q * rj[c]
        row_ops.append(("add", i, j, q))

    def col_addmul(i, j, q, s):
        # col_i += q * col_j
        for r in range(s, m):
            row = A[r]
            row[i] += q * row[j]
        col_ops.append(("add", i, j, q))

    for s in range(min(m, n)):
        while True:
            # locate a minimal nonzero entry in the trailing block
            pivot = None
            best = None
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
                row_ops.append(("swap", s, i))
            if j != s:
                for r in range(s, m):
                    row = A[r]
                    row[s], row[j] = row[j], row[s]
                col_ops.append(("swap", s, j))
            if A[s][s] < 0:
                A[s] = [-a for a in A[s]]
                row_ops.append(("neg", s))

            p = A[s][s]
            dirty = False
            for i in range(s + 1, m):
                if A[i][s] != 0:
                    row_addmul(i, s, -(A[i][s] // p), s)
                    if A[i][s] != 0:
                        dirty = True
            top = A[s]
            for j in range(s + 1, n):
                if top[j] != 0:
                    col_addmul(j, s, -(top[j] // p), s)
                    if top[j] != 0:
                        dirty = True
            if dirty:
                continue

            # pivot clears its row and column; force it to divide the rest
            offender = next((i for i in range(s + 1, m)
                             if any(a % p for a in A[i][s + 1:])), None)
            if offender is None:
                break
            row_addmul(s, offender, 1, s)

    D = np.array(A, dtype=object).reshape(m, n)
    dg = [D[i, i] for i in range(min(m, n))]
    if not (all(D[i, j] == 0 for i in range(m) for j in range(n) if i != j)
            and all(d >= 0 for d in dg)
            and all(dg[i + 1] % dg[i] == 0
                    for i in range(len(dg) - 1) if dg[i] != 0)):
        raise ArithmeticError(f"smith: result is not in Smith normal form "
                              f"(diagonal {dg})")
    return SmithDecomposition(M, D, row_ops, col_ops)


def kernel_basis(M):
    """Columns spanning the integer kernel {x : M x = 0}.

    The columns are V e_f over the free coordinates f, each
    sign-normalized (first nonzero entry positive) so the basis is
    deterministic.
    """
    s = smith(M)
    n = s.M.shape[1]
    free = [i for i in range(n) if i >= len(s._diag) or s._diag[i] == 0]
    B = zeros(n, len(free))
    for k, f in enumerate(free):
        col = apply_log(s._col_ops, [int(i == f) for i in range(n)],
                        transpose=True)
        lead = next((v for v in col if v != 0), None)
        B[:, k] = [-v for v in col] if lead is not None and lead < 0 else col
    return B


def solve_linear(M, b, decomposition=None):
    """One integer solution x of M x = b, or None if unsolvable.

    A given `decomposition` must be `smith(M)`; it is checked against the
    shape of M only.  Free coordinates are pinned to zero, so the answer
    is deterministic.  Solves D (V^-1 x) = U b with U b and V w taken
    from the operation log.
    """
    s = decomposition if decomposition is not None else smith(M)
    m, n = s.M.shape
    if np.shape(M) != (m, n):
        raise ValueError(f"matrix of shape {np.shape(M)} for a "
                         f"decomposition of shape {(m, n)}")
    b = [as_int(v, "rhs") for v in b]
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
    return np.array(apply_log(s._col_ops, w, transpose=True), dtype=object)
