from fractions import Fraction
from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st

from spaltenstein.linalg import RowSpace, kernel_basis, scaled_int_row, span, transpose_rows


def primitive_int(row):
    """A non-zero rational row scaled to a primitive integer row with a
    positive first non-zero entry."""
    ints = scaled_int_row(row)
    g = gcd(*ints)
    if next(v for v in ints if v) < 0:
        g = -g
    return tuple(v // g for v in ints)


def fraction_rref(rows, width):
    """Plain Gauss-Jordan elimination over Fractions, the reference reduced
    echelon basis: one row per pivot column, each a primitive integer row
    with a positive lead."""
    mat = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    for col in range(width):
        pivot = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        lead = mat[rank][col]
        mat[rank] = [v / lead for v in mat[rank]]
        for i in range(len(mat)):
            if i != rank and mat[i][col]:
                f = mat[i][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[rank])]
        rank += 1
    return [primitive_int(row) for row in mat[:rank]]


def fraction_residual(reduced, row):
    """row minus its projection along the reduced echelon basis: the one
    vector of row + span vanishing at every pivot column."""
    out = [Fraction(v) for v in row]
    for basis_row in reduced:
        col = next(c for c, v in enumerate(basis_row) if v)
        f = out[col] / basis_row[col]
        out = [a - f * b for a, b in zip(out, basis_row)]
    return out


def matrix_strategy():
    return st.integers(min_value=1, max_value=5).flatmap(
        lambda w: st.lists(
            st.lists(st.integers(min_value=-9, max_value=9), min_size=w, max_size=w),
            min_size=1,
            max_size=7,
        ).map(lambda rows: (rows, w))
    )


def sparse_row(width):
    """Mostly-zero rows of integers in -9..9, some divided by a common
    denominator into Fractions."""
    entry = st.one_of(st.just(0), st.just(0), st.just(0), st.integers(-9, 9))
    ints = st.lists(entry, min_size=width, max_size=width)
    fractions = st.tuples(ints, st.integers(2, 6)).map(
        lambda pair: [Fraction(v, pair[1]) for v in pair[0]]
    )
    return st.one_of(ints, ints, ints, fractions)


def sparse_strategy():
    """(rows, probe rows, width) with widths up to 20."""
    return st.integers(min_value=1, max_value=20).flatmap(
        lambda w: st.tuples(
            st.lists(sparse_row(w), min_size=1, max_size=12),
            st.lists(sparse_row(w), min_size=1, max_size=4),
            st.just(w),
        )
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
        assert span(rows, width).rank == len(fraction_rref(rows, width))

    @settings(max_examples=200, deadline=None)
    @given(sparse_strategy())
    def test_matches_dense_oracle(self, data):
        rows, probes, width = data
        space = span(rows, width)
        reduced = fraction_rref(rows, width)
        assert space.basis() == tuple(reduced)
        assert space.rank == len(reduced)
        for row in rows:
            assert space.residual(row) is None
            assert space.contains(row)
        assert (space == span(probes, width)) == (reduced == fraction_rref(probes, width))
        for probe in probes:
            expected = fraction_residual(reduced, probe)
            assert space.residual_fraction(probe) == expected
            if any(expected):
                assert space.residual(probe) == list(primitive_int(expected))
                assert not space.contains(probe)
            else:
                assert space.residual(probe) is None

    @settings(max_examples=80, deadline=None)
    @given(sparse_strategy())
    def test_copy_is_independent(self, data):
        rows, probes, width = data
        space = span(rows, width)
        before = space.basis()
        other = space.copy()
        for probe in probes:
            other.insert(probe)
        assert space.basis() == before
        assert other.basis() == tuple(fraction_rref(rows + probes, width))

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
        assert len(kernel) == width - len(fraction_rref(rows, width))

    def test_scaled_int_row(self):
        assert scaled_int_row([Fraction(1, 2), Fraction(2, 3)]) == [3, 4]
        assert scaled_int_row([1, 2]) == [1, 2]

    def test_transpose(self):
        assert transpose_rows([[1, 2, 3], [4, 5, 6]], 3) == [[1, 4], [2, 5], [3, 6]]
