from copy import deepcopy
from fractions import Fraction
from math import gcd, lcm

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import kernel_basis, scaled_int_row, span, sparse
from spaltenstein.linalg import RowSpace


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


def oracle_pivot_rows(reduced):
    """The rows of fraction_rref keyed by pivot column, as pivot_rows
    holds them."""
    return {min(row): row for row in map(sparse, reduced)}


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
        assert not space.scaled_residual({0: 2, 1: 4, 2: 5})[1]
        assert space.scaled_residual({1: 1})[1]

    def test_duplicate_rows_do_not_grow(self):
        space = RowSpace(2)
        assert space.insert({0: 2, 1: 4})
        assert not space.insert({0: 1, 1: 2})
        assert not space.insert({0: -3, 1: -6})
        assert space.rank == 1

    def test_fraction_rows_scaled(self):
        space = RowSpace(2)
        space.insert({0: 3, 1: 2})
        assert not space.scaled_residual({0: Fraction(1, 2), 1: Fraction(1, 3)})[1]
        assert space.scaled_residual({0: Fraction(1, 2), 1: Fraction(1, 2)})[1]

    def test_residual_vanishes_at_pivots(self):
        space = span([[1, 1, 1], [0, 2, 5]], 3)
        scale, res = space.scaled_residual({0: 7, 1: 1, 2: 3})
        assert scale == 2
        assert res
        for c in space.pivot_rows:
            assert c not in res

    def test_scaled_residual_is_linear(self):
        space = span([[1, 0, 2], [0, 1, 1]], 3)
        u, v = [3, 1, 4], [0, 2, 2]
        su, ru = space.scaled_residual(sparse(u))
        sv, rv = space.scaled_residual(sparse(v))
        ssum, rsum = space.scaled_residual(sparse([a + b for a, b in zip(u, v)]))
        assert su == sv == ssum
        assert rsum == sparse([ru.get(k, 0) + rv.get(k, 0) for k in range(3)])

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
        assert space.pivot_rows == oracle_pivot_rows(reduced)
        assert space.rank == len(reduced)
        for row in rows:
            assert not space.scaled_residual(sparse(row))[1]
        assert (space == span(probes, width)) == (reduced == fraction_rref(probes, width))
        for probe in probes:
            in_space = not space.scaled_residual(sparse(probe))[1]
            assert in_space == (not any(fraction_residual(reduced, probe)))

    @settings(max_examples=200, deadline=None)
    @given(sparse_strategy(), st.integers(-5, 5), st.integers(-5, 5))
    def test_scaled_residual_matches_fraction_oracle(self, data, a, b):
        # (L, L * residual) with L the lcm of the pivot entries of the
        # reduced echelon basis, times the denominator lcm of a Fraction row
        rows, probes, width = data
        space = span(rows, width)
        reduced = fraction_rref(rows, width)
        pivot_lcm = lcm(*(next(v for v in row if v) for row in reduced))
        for probe in probes:
            den = lcm(*(Fraction(v).denominator for v in probe))
            scale, res = space.scaled_residual(sparse(probe))
            assert scale == pivot_lcm * den
            assert all(type(v) is int and v for v in res.values())
            assert res == sparse([scale * v for v in fraction_residual(reduced, probe)])
        # linear on integer rows: one scale, and residuals add
        ints = [scaled_int_row(probe) for probe in probes]
        u, v = ints[0], ints[-1]
        combo = [a * x + b * y for x, y in zip(u, v)]
        (su, ru), (sv, rv) = space.scaled_residual(sparse(u)), space.scaled_residual(sparse(v))
        sc, rc = space.scaled_residual(sparse(combo))
        assert su == sv == sc == pivot_lcm
        assert rc == sparse([a * ru.get(k, 0) + b * rv.get(k, 0) for k in range(width)])

    @settings(max_examples=80, deadline=None)
    @given(sparse_strategy())
    def test_copy_is_independent(self, data):
        rows, probes, width = data
        space = span(rows, width)
        before = deepcopy(space.pivot_rows)
        other = space.copy()
        for probe in probes:
            other.insert(sparse(scaled_int_row(probe)))
        assert space.pivot_rows == before
        assert other.pivot_rows == oracle_pivot_rows(fraction_rref(rows + probes, width))

    @settings(max_examples=100, deadline=None)
    @given(sparse_strategy())
    def test_arguments_unchanged(self, data):
        # ownership rule: insert and scaled_residual change no row
        # they are given, though insert may keep it as a basis row and a
        # later insert back-substitutes into that basis row
        rows, probes, width = data
        given_rows = [sparse(scaled_int_row(row)) for row in rows + probes]
        given_probes = [sparse(probe) for probe in probes]
        before = deepcopy((given_rows, given_probes))
        space = RowSpace(width)
        for row in given_rows[: len(rows)]:
            space.insert(row)
        for probe in given_probes:
            space.scaled_residual(probe)
        for row in given_rows[len(rows) :]:
            space.insert(row)
        assert (given_rows, given_probes) == before

    @settings(max_examples=80, deadline=None)
    @given(matrix_strategy())
    def test_insertion_order_irrelevant(self, data):
        rows, width = data
        forward, backward = span(rows, width), span(list(reversed(rows)), width)
        assert forward == backward


class TestUnitPivots:
    """The unit-pivot lemma of RowSpace._reduce: a stored row {c: 1} clears
    by deleting column c, and a row on unit pivots alone reduces to {}."""

    def test_unit_pivot_path(self):
        space = RowSpace(4)
        assert space.extend([{0: 1}, {1: 1, 2: 3}, {3: 2}]) == 3
        assert space.pivot_rows == {0: {0: 1}, 1: {1: 1, 2: 3}, 3: {3: 1}}
        row = {0: 5, 3: -2}
        assert space._reduce(row) == {} and row == {0: 5, 3: -2}
        # pivot 1 has entry 1 but is no unit row: -6 is left at column 2
        assert space._reduce({0: 5, 1: 2}) == {2: -6}
        assert space.scaled_residual({1: 2, 3: 7}) == (1, {2: -6})
        assert space.insert({0: 5, 1: 2})
        assert space.pivot_rows == {0: {0: 1}, 1: {1: 1}, 2: {2: 1}, 3: {3: 1}}

    @settings(max_examples=100, deadline=None)
    @given(sparse_strategy(), st.data())
    def test_mixed_pivots_match_fraction_oracle(self, data, draw):
        # unit rows {c: 1} shuffled in among the rows, and probes both as
        # drawn and cut down to the pivot columns: every insert gives the
        # Gauss-Jordan basis and grows exactly when the oracle's residual
        # is non-zero
        rows, probes, width = data
        units = draw.draw(st.lists(st.integers(0, width - 1), max_size=width))
        unit_rows = [[int(k == c) for k in range(width)] for c in units]
        rows = draw.draw(st.permutations(unit_rows + rows))
        space = span(rows, width)
        reduced = fraction_rref(rows, width)
        assert space.pivot_rows == oracle_pivot_rows(reduced)
        for probe in map(scaled_int_row, probes):
            cut = [v if k in space.pivot_rows else 0 for k, v in enumerate(probe)]
            for row in (probe, cut):
                grown = space.copy()
                assert grown.insert(sparse(row)) == any(fraction_residual(reduced, row))
                assert grown.pivot_rows == oracle_pivot_rows(fraction_rref(rows + [row], width))


class CountingSpace(RowSpace):
    """A RowSpace that records (its rank, the row) for every insert."""

    __slots__ = ("calls",)

    def __init__(self, width):
        super().__init__(width)
        self.calls = []

    def insert(self, row):
        self.calls.append((self.rank, row))
        return super().insert(row)


class TestExtend:
    @settings(max_examples=200, deadline=None)
    @given(sparse_strategy(), st.randoms(use_true_random=False))
    def test_extend_matches_one_by_one_insert(self, data, rng):
        # a shuffled batch on top of some start rows: the same pivot_rows
        # as inserting the rows one by one in the given order, the rank
        # gain as return value, no argument row changed, and no insert
        # into a full space
        rows, probes, width = data
        start = [sparse(scaled_int_row(row)) for row in probes]
        batch = [sparse(scaled_int_row(row)) for row in rows]
        rng.shuffle(batch)
        before = deepcopy((start, batch))
        one_by_one = RowSpace(width)
        for row in start + batch:
            one_by_one.insert(row)
        space = CountingSpace(width)
        for row in start:
            space.insert(row)
        rank = space.rank
        space.calls.clear()
        gain = space.extend(batch)
        assert space.pivot_rows == one_by_one.pivot_rows
        assert gain == space.rank - rank
        assert (start, batch) == before
        assert all(seen < width for seen, _ in space.calls)
        if space.rank < width:
            assert len(space.calls) == sum(1 for row in batch if row)

    def test_full_space_inserts_nothing(self):
        space = CountingSpace(2)
        assert space.extend([{0: 1, 1: 1}, {1: 2}, {0: 3}, {0: 1, 1: 5}]) == 2
        assert len(space.calls) == 2
        assert space.extend([{0: 1}, {1: 1}]) == 0
        assert len(space.calls) == 2

    def test_zero_rows_skipped(self):
        space = CountingSpace(3)
        assert space.extend([{}, {2: 4}, {}]) == 1
        assert space.calls == [(0, {2: 4})]
        assert space.pivot_rows == {2: {2: 1}}

    def test_descending_lead_order(self):
        # leads 2, 1, 1, 0 in that order; equal leads keep the given order
        space = CountingSpace(3)
        rows = [{0: 1}, {1: 1, 2: 1}, {2: 1}, {1: 2}]
        space.extend(rows)
        assert [row for _, row in space.calls] == [rows[2], rows[1], rows[3], rows[0]]

    def test_cap_and_marks(self):
        # the batch stops once the rank reaches cap, and each gain marks the
        # pivot column it created, also when it back-substitutes into a row
        # left of it (gain order of insert)
        space = CountingSpace(4)
        marks = {}
        pairs = [({0: 1, 1: 1}, 1), ({1: 2}, 2), ({2: 1, 3: 1}, 3), ({3: 5}, 4)]
        assert space.extend(pairs, 2, marks) == 2
        assert len(space.calls) == 2 and marks == {3: 4, 2: 3}
        space = RowSpace(3)
        space.insert({0: 1, 1: 1})
        marks = {}
        assert space.extend([({1: 1, 2: 1}, 7), ({}, 8)], marks=marks) == 1
        assert space.pivot_rows == {0: {0: 1, 2: -1}, 1: {1: 1, 2: 1}}
        assert marks == {1: 7}

    @settings(max_examples=100, deadline=None)
    @given(sparse_strategy())
    def test_widened_copy_stays_canonical(self, data):
        # copy(width) embeds the space in a wider one: inserting rows that
        # use the new columns gives the span of everything, canonically
        rows, probes, width = data
        space = span(rows, width)
        wide = space.copy(width + 2)
        tagged = [{**sparse(scaled_int_row(p)), width + i % 2: 1} for i, p in enumerate(probes)]
        wide.extend(tagged)
        oracle = RowSpace(width + 2)
        for row in list(space.pivot_rows.values()) + tagged:
            oracle.insert(row)
        assert wide == oracle
        assert space.width == width


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

    @settings(max_examples=150, deadline=None)
    @given(sparse_strategy())
    def test_kernel_matches_fraction_oracle(self, data):
        # the back-solve on the Fraction reduced echelon basis: for each
        # free column f, x[f] = 1 and x[c] = -R[f] / R[c] for the row R of
        # pivot c, scaled to a primitive integer vector positive at f
        rows, _, width = data
        reduced = fraction_rref(rows, width)
        pivots = {next(c for c, v in enumerate(row) if v): row for row in reduced}
        expected = []
        for f in range(width):
            if f in pivots:
                continue
            x = [Fraction(int(i == f)) for i in range(width)]
            for c, row in pivots.items():
                x[c] = Fraction(-row[f], row[c])
            ints = scaled_int_row(x)
            g = gcd(*ints)
            expected.append([v // g for v in ints])
        assert kernel_basis(rows, width) == expected
        assert span(rows, width).kernel() == [sparse(x) for x in expected]

    def test_scaled_int_row(self):
        assert scaled_int_row([Fraction(1, 2), Fraction(2, 3)]) == [3, 4]
        assert scaled_int_row([1, 2]) == [1, 2]

