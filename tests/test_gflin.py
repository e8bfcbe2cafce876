import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sumnet.gflin import (
    DimensionMismatch,
    FieldMismatch,
    FieldSpec,
    MatrixGF,
    mat_inv,
    mat_mul,
    rank,
    solve_right,
)

from helpers import array, dumb_mat_mul

F2 = FieldSpec(2)
F3 = FieldSpec(3)
F5 = FieldSpec(5)


def m(f, rows):
    return MatrixGF(f, rows)


def test_fieldspec_rejects_nonprime():
    with pytest.raises(ValueError):
        FieldSpec(4)
    with pytest.raises(ValueError):
        FieldSpec(1)
    with pytest.raises(ValueError):
        FieldSpec(1 << 17)
    assert FieldSpec(65521).p == 65521  # largest prime below 2**16
    with pytest.raises(ZeroDivisionError):
        FieldSpec(7).inv(14)


def test_entries_reduced_mod_p():
    a = m(F3, [[4, -1], [3, 5]])
    assert a.tolists() == [[1, 2], [0, 2]]
    assert m(F5, [[2**70]]) == m(F5, [[2**70 % 5]])  # beyond int64


def test_constructor_rejects_ragged_and_empty_rows():
    for rows in ([[1, 0], [1]], [[1], [1, 0]], [], [[]]):
        with pytest.raises(DimensionMismatch):
            m(F2, rows)


def test_identity_times_matrix():
    a = m(F5, [[1, 2], [3, 4]])
    assert mat_mul(MatrixGF.identity(F5, 2), a) == a
    assert mat_mul(a, MatrixGF.identity(F5, 2)) == a


def test_hand_product_gf2():
    a = m(F2, [[1, 1], [0, 1]])
    b = m(F2, [[1, 0], [1, 1]])
    assert mat_mul(a, b).tolists() == [[0, 1], [1, 1]]


def test_product_transpose_rule_gf5():
    rng = np.random.default_rng(11235)
    a = m(F5, rng.integers(0, 5, (3, 3)).tolist())
    b = m(F5, rng.integers(0, 5, (3, 3)).tolist())
    lhs = mat_mul(a, b).transpose()
    rhs = mat_mul(b.transpose(), a.transpose())
    assert lhs == rhs
    # and against the loop-written oracle
    assert mat_mul(a, b).tolists() == dumb_mat_mul(a.tolists(), b.tolists(), 5)


def test_mul_shape_and_field_checks():
    with pytest.raises(DimensionMismatch):
        mat_mul(m(F2, [[1, 0]]), m(F2, [[1, 0]]))
    with pytest.raises(FieldMismatch):
        mat_mul(m(F2, [[1]]), m(F3, [[1]]))


def test_inverse_identity_and_singular():
    assert mat_inv(MatrixGF.identity(F2, 3)) == MatrixGF.identity(F2, 3)
    assert mat_inv(m(F2, [[1, 1], [1, 1]])) is None
    assert mat_inv(m(F3, [[2]])) == m(F3, [[2]])  # 2*2 = 4 = 1 mod 3
    with pytest.raises(DimensionMismatch):
        mat_inv(m(F2, [[1, 0]]))


def test_solve_right_basics():
    b = m(F3, [[1, 2], [0, 1]])
    assert solve_right(MatrixGF.identity(F3, 2), b) == b
    zero = MatrixGF.zeros(F2, 2, 2)
    assert solve_right(zero, MatrixGF.zeros(F2, 2, 2)) == MatrixGF.zeros(F2, 2, 2)
    assert solve_right(m(F2, [[1, 1], [0, 0]]), m(F2, [[1], [1]])) is None
    with pytest.raises(DimensionMismatch, match="matching row counts"):
        solve_right(MatrixGF.identity(F2, 2), m(F2, [[1]]))


small_fields = st.sampled_from([2, 3, 5])
dims = st.integers(min_value=1, max_value=3)


def matrices(p, rows, cols):
    return st.lists(
        st.lists(st.integers(0, p - 1), min_size=cols, max_size=cols),
        min_size=rows,
        max_size=rows,
    ).map(lambda rs: MatrixGF(FieldSpec(p), rs))


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(st.data())
def test_associativity_and_identity(data):
    p = data.draw(small_fields)
    a_dim, b_dim, c_dim, d_dim = (data.draw(dims) for _ in range(4))
    a = data.draw(matrices(p, a_dim, b_dim))
    b = data.draw(matrices(p, b_dim, c_dim))
    c = data.draw(matrices(p, c_dim, d_dim))
    assert mat_mul(mat_mul(a, b), c) == mat_mul(a, mat_mul(b, c))
    eye = MatrixGF.identity(FieldSpec(p), a_dim)
    assert mat_mul(eye, a) == a


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(st.data())
def test_inverse_exists_iff_full_rank(data):
    p = data.draw(small_fields)
    d = data.draw(dims)
    a = data.draw(matrices(p, d, d))
    inv = mat_inv(a)
    if rank(a) == d:
        assert inv is not None
        assert mat_mul(a, inv) == MatrixGF.identity(FieldSpec(p), d)
        assert mat_mul(inv, a) == MatrixGF.identity(FieldSpec(p), d)
    else:
        assert inv is None


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(st.data())
def test_solve_right_verified_by_remultiplication(data):
    p = data.draw(small_fields)
    rows, cols, rhs = (data.draw(dims) for _ in range(3))
    a = data.draw(matrices(p, rows, cols))
    x_true = data.draw(matrices(p, cols, rhs))
    b = mat_mul(a, x_true)  # consistent by construction
    x = solve_right(a, b)
    assert x is not None
    assert mat_mul(a, x) == b


def _rref_by_rows(a, p):
    """Gauss-Jordan elimination clearing one row at a time: the reference for ``rank`` and ``solve_right``."""
    m = (a % p).copy()
    rows, cols = m.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        nz = np.nonzero(m[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            m[[r, i]] = m[[i, r]]
        inv = pow(int(m[r, c]), p - 2, p)
        m[r] = (m[r] * inv) % p
        for j in range(rows):
            if j != r and m[j, c]:
                m[j] = (m[j] - m[j, c] * m[r]) % p
        pivots.append(c)
        r += 1
    return m, pivots


def _solution_by_rows(a, b, p):
    """The reference's X with a X = b, every non-pivot unknown 0, read off the RREF of [a | b]; or None."""
    r, pivots = _rref_by_rows(np.concatenate([a, b], axis=1), p)
    cols = a.shape[1]
    if any(c >= cols for c in pivots):
        return None
    x = np.zeros((cols, b.shape[1]), dtype=np.int64)
    for i, c in enumerate(pivots):
        x[c] = r[i, cols:]
    return x.tolist()


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(st.data())
def test_rank_and_solve_match_row_by_row_elimination(data):
    # Square, wide and tall shapes; a product through a narrower inner
    # dimension makes the matrix rank-deficient.  Both choose a's pivot
    # columns left to right and set every other unknown to 0, so the
    # solutions agree exactly, not only up to the null space.
    p = data.draw(st.sampled_from([2, 3, 5, 65521]))
    rows, cols = data.draw(st.sampled_from([(3, 3), (5, 5), (2, 6), (3, 7), (6, 2), (7, 3), (1, 4), (4, 1)]))
    inner = data.draw(st.integers(1, min(rows, cols)))
    a = data.draw(matrices(p, rows, inner)) @ data.draw(matrices(p, inner, cols))
    r = rank(a)
    assert r == len(_rref_by_rows(array(a), p)[1])
    rhs = data.draw(st.integers(1, 3))
    consistent = a @ data.draw(matrices(p, cols, rhs))
    drawn = data.draw(matrices(p, rows, rhs))
    for b in (consistent, drawn):
        x = solve_right(a, b)
        assert (None if x is None else x.tolists()) == _solution_by_rows(array(a), array(b), p)
    assert solve_right(a, consistent) is not None
    if r < rows:
        # Row r of the RREF of [a | I] is y with y a = 0 and y != 0; no X has a X = e_j where y_j != 0.
        y = _rref_by_rows(np.concatenate([array(a), np.eye(rows, dtype=np.int64)], axis=1), p)[0][r, cols:]
        e = MatrixGF(FieldSpec(p), np.eye(rows, dtype=np.int64)[:, [int(np.nonzero(y)[0][0])]].tolist())
        assert solve_right(a, e) is None and _solution_by_rows(array(a), array(e), p) is None
