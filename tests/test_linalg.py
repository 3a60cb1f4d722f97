from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from spaltenstein.linalg import RowSpace, kernel_basis, scaled_int_row, span, transpose_rows


def fraction_rank(rows, width):
    """Plain Gaussian elimination over Fractions, the reference rank."""
    mat = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    for col in range(width):
        pivot = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        for i in range(len(mat)):
            if i != rank and mat[i][col]:
                f = mat[i][col] / mat[rank][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[rank])]
        rank += 1
    return rank


def matrix_strategy():
    return st.integers(min_value=1, max_value=5).flatmap(
        lambda w: st.lists(
            st.lists(st.integers(min_value=-9, max_value=9), min_size=w, max_size=w),
            min_size=1,
            max_size=7,
        ).map(lambda rows: (rows, w))
    )


class TestRowSpace:
    def test_basic_membership(self):
        space = span([[1, 2, 0], [0, 0, 3]], 3)
        assert space.rank == 2
        assert space.contains([2, 4, 5])
        assert not space.contains([0, 1, 0])

    def test_duplicate_rows_do_not_grow(self):
        space = RowSpace(2)
        assert space.insert([2, 4])
        assert not space.insert([1, 2])
        assert not space.insert([-3, -6])
        assert space.rank == 1

    def test_fraction_rows_scaled(self):
        space = RowSpace(2)
        space.insert([Fraction(1, 2), Fraction(1, 3)])
        assert space.contains([3, 2])

    def test_residual_vanishes_at_pivots(self):
        space = span([[1, 1, 1], [0, 2, 5]], 3)
        res = space.residual([7, 1, 3])
        assert res is not None
        for c in space.pivot_rows:
            assert res[c] == 0

    def test_residual_fraction_is_linear(self):
        space = span([[1, 0, 2], [0, 1, 1]], 3)
        u, v = [3, 1, 4], [0, 2, 2]
        ru = space.residual_fraction(u)
        rv = space.residual_fraction(v)
        rsum = space.residual_fraction([a + b for a, b in zip(u, v)])
        assert rsum == [a + b for a, b in zip(ru, rv)]

    def test_equality_of_spans(self):
        a = span([[1, 0], [0, 1]], 2)
        b = span([[1, 1], [1, -1]], 2)
        assert a == b
        assert span([[1, 0]], 2) != span([[0, 1]], 2)
        assert span([[1, 0]], 2) != span([[1, 0]], 3)

    @settings(max_examples=120, deadline=None)
    @given(matrix_strategy())
    def test_rank_matches_fraction_oracle(self, data):
        rows, width = data
        assert span(rows, width).rank == fraction_rank(rows, width)

    @settings(max_examples=80, deadline=None)
    @given(matrix_strategy())
    def test_insertion_order_irrelevant(self, data):
        rows, width = data
        forward, backward = span(rows, width), span(list(reversed(rows)), width)
        assert forward == backward
        assert forward.basis() == backward.basis()


class TestKernel:
    def test_simple_kernel(self):
        vecs = kernel_basis([[1, 1, 0]], 3)
        assert len(vecs) == 2
        for v in vecs:
            assert v[0] + v[1] == 0 or v[0] == v[1] == 0

    def test_full_rank_kernel_empty(self):
        assert kernel_basis([[1, 0], [0, 1]], 2) == []

    @settings(max_examples=100, deadline=None)
    @given(matrix_strategy())
    def test_kernel_orthogonal_and_complete(self, data):
        rows, width = data
        kernel = kernel_basis(rows, width)
        for v in kernel:
            for row in rows:
                assert sum(a * b for a, b in zip(row, v)) == 0
        assert len(kernel) == width - fraction_rank(rows, width)

    def test_scaled_int_row(self):
        assert scaled_int_row([Fraction(1, 2), Fraction(2, 3)]) == [3, 4]
        assert scaled_int_row([1, 2]) == [1, 2]

    def test_transpose(self):
        assert transpose_rows([[1, 2, 3], [4, 5, 6]], 3) == [[1, 4], [2, 5], [3, 6]]
