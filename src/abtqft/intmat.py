"""Exact integer matrix algebra: Smith normal form, determinants, kernels.

All matrices are numpy arrays with dtype=object holding Python ints, so
arithmetic never overflows.  This module is the decidability engine for
everything built on finitely generated abelian groups.
"""

from __future__ import annotations

import numpy as np


def as_int(x, where="value"):
    """`x` as a Python int.  The one integer gate: a bool or a non-integer
    (even an integral float) raises ValueError naming `where`."""
    if isinstance(x, bool) or not isinstance(x, (int, np.integer)):
        raise ValueError(f"{where}: expected exact integer, got {x!r}")
    return int(x)


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
        return np.zeros(shape, dtype=object)
    if A.ndim != 2:
        raise ValueError(f"expected a 2d matrix, got ndim={A.ndim}")
    out = np.empty(A.shape, dtype=object)
    for (i, j), x in np.ndenumerate(A):
        out[i, j] = as_int(x, f"{name}[{i}][{j}]")
    return out


def identity(n):
    return np.array([[int(i == j) for j in range(n)] for i in range(n)],
                    dtype=object).reshape(n, n)


def zeros(m, n):
    return np.zeros((m, n), dtype=object)


def det(M):
    """Exact determinant of a square integer matrix (fraction-free Bareiss)."""
    M = np.array(M, dtype=object)
    n = M.shape[0]
    if M.shape != (n, n):
        raise ValueError("det of non-square matrix")
    if n == 0:
        return 1
    A = M.copy()
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
    unimodular.  `diag` lists the min(m, n) diagonal entries.
    """

    def __init__(self, M, U, D, V, U_inv, V_inv):
        self.M = M
        self.U = U
        self.D = D
        self.V = V
        self.U_inv = U_inv
        self.V_inv = V_inv
        self.diag = [int(D[i, i]) for i in range(min(D.shape))]

    @property
    def rank(self):
        return sum(1 for d in self.diag if d != 0)


def smith(M):
    """Smith decomposition of an integer matrix.

    Row/column eliminations with full transform bookkeeping.  The inner
    divisibility pass guarantees the divisor chain d1 | d2 | ...
    """
    M = as_int_matrix(M)
    m, n = M.shape
    A = M.copy()
    U, U_inv = identity(m), identity(m)
    V, V_inv = identity(n), identity(n)

    def row_swap(i, j):
        A[[i, j]] = A[[j, i]]
        U[[i, j]] = U[[j, i]]
        U_inv[:, [i, j]] = U_inv[:, [j, i]]

    def col_swap(i, j):
        A[:, [i, j]] = A[:, [j, i]]
        V[:, [i, j]] = V[:, [j, i]]
        V_inv[[i, j]] = V_inv[[j, i]]

    def row_negate(i):
        A[i, :] = -A[i, :]
        U[i, :] = -U[i, :]
        U_inv[:, i] = -U_inv[:, i]

    def row_addmul(i, j, q):
        # row_i += q * row_j
        A[i, :] += q * A[j, :]
        U[i, :] += q * U[j, :]
        U_inv[:, j] -= q * U_inv[:, i]

    def col_addmul(i, j, q):
        # col_i += q * col_j
        A[:, i] += q * A[:, j]
        V[:, i] += q * V[:, j]
        V_inv[j, :] -= q * V_inv[i, :]

    for s in range(min(m, n)):
        while True:
            # locate a minimal nonzero entry in the trailing block
            pivot = None
            best = None
            for i in range(s, m):
                for j in range(s, n):
                    a = A[i, j]
                    if a != 0 and (best is None or abs(a) < best):
                        best = abs(a)
                        pivot = (i, j)
            if pivot is None:
                break
            i, j = pivot
            if i != s:
                row_swap(s, i)
            if j != s:
                col_swap(s, j)
            if A[s, s] < 0:
                row_negate(s)

            dirty = False
            for i in range(s + 1, m):
                if A[i, s] != 0:
                    q = A[i, s] // A[s, s]
                    row_addmul(i, s, -q)
                    if A[i, s] != 0:
                        dirty = True
            for j in range(s + 1, n):
                if A[s, j] != 0:
                    q = A[s, j] // A[s, s]
                    col_addmul(j, s, -q)
                    if A[s, j] != 0:
                        dirty = True
            if dirty:
                continue

            # pivot clears its row and column; force it to divide the rest
            offender = None
            for i in range(s + 1, m):
                for j in range(s + 1, n):
                    if A[i, j] % A[s, s] != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            row_addmul(s, offender, 1)

    D = A
    dg = [D[i, i] for i in range(min(m, n))]
    if not (all(D[i, j] == 0 for i in range(m) for j in range(n) if i != j)
            and all(d >= 0 for d in dg)
            and all(dg[i + 1] % dg[i] == 0
                    for i in range(len(dg) - 1) if dg[i] != 0)):
        raise ArithmeticError(f"smith: result is not in Smith normal form "
                              f"(diagonal {dg})")
    return SmithDecomposition(M, U, D, V, U_inv, V_inv)


def kernel_basis(M):
    """Columns spanning the integer kernel {x : M x = 0}.

    Each column is sign-normalized (first nonzero entry positive) so the
    basis is deterministic.
    """
    s = smith(M)
    n = s.M.shape[1]
    free = [i for i in range(n) if i >= len(s.diag) or s.diag[i] == 0]
    B = s.V[:, free] if free else zeros(n, 0)
    for j in range(B.shape[1]):
        lead = next((v for v in B[:, j] if v != 0), None)
        if lead is not None and lead < 0:
            B[:, j] = -B[:, j]
    return B


def solve_linear(M, b, decomposition=None):
    """One integer solution x of M x = b, or None if unsolvable.

    A given `decomposition` must be `smith(M)`; it is checked against the
    shape of M only.  Free coordinates are pinned to zero, so the answer
    is deterministic.
    """
    s = decomposition if decomposition is not None else smith(M)
    m, n = s.M.shape
    if np.shape(M) != (m, n):
        raise ValueError(f"matrix of shape {np.shape(M)} for a "
                         f"decomposition of shape {(m, n)}")
    b = np.array([as_int(v, "rhs") for v in b], dtype=object)
    if b.shape != (m,):
        raise ValueError("rhs has wrong length")
    c = s.U @ b
    w = np.zeros(n, dtype=object)
    for i in range(m):
        d = s.diag[i] if i < len(s.diag) else 0
        ci = c[i]
        if d == 0:
            if ci != 0:
                return None
        else:
            if ci % d != 0:
                return None
            if i < n:
                w[i] = ci // d
    return s.V @ w
