import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from sympy import Matrix

from abtqft import intmat


def entries(lo=-5, hi=5):
    return st.integers(min_value=lo, max_value=hi)


def matrices(max_dim=4):
    return st.integers(min_value=0, max_value=max_dim).flatmap(
        lambda m: st.integers(min_value=0, max_value=max_dim).flatmap(
            lambda n: st.lists(
                st.lists(entries(), min_size=n, max_size=n),
                min_size=m, max_size=m).map(
                    lambda rows: intmat.as_int_matrix(rows, (m, n)))))


def test_smith_worked_example():
    M = intmat.as_int_matrix([[2, 4], [6, 8]])
    s = intmat.smith(M)
    U, D, V = s.U, s.D, s.V
    assert [int(D[i, i]) for i in range(2)] == [2, 4]
    assert (U @ M @ V == D).all()
    # d1 is the gcd of all entries, d1*d2 the absolute determinant
    assert D[0, 0] == 2
    assert D[0, 0] * D[1, 1] == abs(intmat.det(M)) == 8


def test_smith_identity_and_zero():
    assert intmat.smith([[1, 0], [0, 1]]).D.tolist() == [[1, 0], [0, 1]]
    assert intmat.smith([[0]]).D.tolist() == [[0]]


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_smith_properties(M):
    s = intmat.smith(M)
    assert (s.U @ M @ s.V == s.D).all()
    assert abs(intmat.det(s.U)) == 1
    assert abs(intmat.det(s.V)) == 1
    assert (s.U @ s.U_inv == intmat.identity(M.shape[0])).all()
    assert (s.V @ s.V_inv == intmat.identity(M.shape[1])).all()
    for i in range(len(s.diag) - 1):
        if s.diag[i] != 0:
            assert s.diag[i + 1] % s.diag[i] == 0
        else:
            assert s.diag[i + 1] == 0
    assert all(d >= 0 for d in s.diag)
    # the first invariant factor is the gcd of all entries
    entries = [abs(int(v)) for v in M.flat if v != 0]
    if entries:
        g = 0
        for v in entries:
            g = math.gcd(g, v)
        assert s.diag[0] == g


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_kernel_basis_annihilates(M):
    K = intmat.kernel_basis(M)
    if K.shape[1]:
        assert not (M @ K).any()


@settings(max_examples=150, deadline=None)
@given(matrices(3), st.lists(entries(-3, 3), min_size=0, max_size=3))
def test_solve_linear_roundtrip(M, x):
    if len(x) != M.shape[1]:
        x = (x + [0] * M.shape[1])[:M.shape[1]]
    b = M @ np.array(x, dtype=object) if M.shape[1] else np.zeros(
        M.shape[0], dtype=object)
    sol = intmat.solve_linear(M, b)
    assert sol is not None
    assert ((M @ sol if M.shape[1] else b) == b).all()
    # a cached decomposition gives the same solution as none
    cached = intmat.solve_linear(M, b, decomposition=intmat.smith(M))
    assert cached.tolist() == sol.tolist()


def test_solve_linear_unsolvable():
    assert intmat.solve_linear(intmat.as_int_matrix([[2]]), [3]) is None
    assert intmat.solve_linear(intmat.as_int_matrix([[0]]), [1]) is None
    # a decomposition of a matrix of another shape is refused
    with pytest.raises(ValueError, match="shape"):
        intmat.solve_linear([[1, 0]], [1], decomposition=intmat.smith([[1]]))
    with pytest.raises(ValueError, match="shape"):
        intmat.solve_linear([[1]], [1], decomposition=intmat.smith([[1], [0]]))


def test_solve_linear_rejects_non_integer_rhs():
    with pytest.raises(ValueError, match="rhs"):
        intmat.solve_linear(intmat.as_int_matrix([[1]]), [1.5])


def test_det_examples():
    assert intmat.det(intmat.identity(3)) == 1
    assert intmat.det(intmat.as_int_matrix([[2, 0], [0, 3]])) == 6
    assert intmat.det(intmat.as_int_matrix([[0, 1], [1, 0]])) == -1
    assert intmat.det(intmat.as_int_matrix([[1, 2], [2, 4]])) == 0


@pytest.mark.parametrize("bad, where", [
    ([[0.5, 1], [1, 3]], r"entry\[0\]\[0\]"),     # was read as det 0.0
    ([[1, True], [0, 1]], r"entry\[0\]\[1\]"),
])
def test_det_takes_the_integer_gate(bad, where):
    with pytest.raises(ValueError, match=f"^{where}: expected exact integer"):
        intmat.det(bad)


def test_as_int_matrix_rejects_floats_and_bools():
    with pytest.raises(ValueError, match=r"^entry\[0\]\[0\]: "):
        intmat.as_int_matrix([[1.5]])
    with pytest.raises(ValueError, match=r"^entry\[0\]\[0\]: "):
        intmat.as_int_matrix([[True]])
    # the message names the position of the bad entry
    with pytest.raises(ValueError, match=r"^relations\[1\]\[0\]: .* 2\.0$"):
        intmat.as_int_matrix([[1, 2], [2.0, 3]], name="relations")


@pytest.mark.parametrize("call, message", [
    (lambda: intmat.int_rows(7), r"^entry: expected a 2d matrix$"),
    (lambda: intmat.int_rows([]), r"^shape required for empty matrix$"),
    (lambda: intmat.det([[1, 2]]), r"^det of non-square matrix$"),
    (lambda: intmat.solve_linear([[1, 2]], [1, 2]),
     r"^rhs has wrong length$"),
], ids=["not-iterable", "empty-no-shape", "det-non-square", "rhs-length"])
def test_malformed_input_is_refused(call, message):
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize("M", [
    [[0, 1], [0, 2]],                   # no pivot in the first column
    [[1, 2, 3], [2, 4, 6], [0, 0, 5]],  # a zero pivot after elimination
    [[0, 0, 0], [0, 0, 0], [0, 0, 0]],
])
def test_det_of_a_singular_matrix_is_zero(M):
    assert intmat.det(M) == Matrix(M).det() == 0
