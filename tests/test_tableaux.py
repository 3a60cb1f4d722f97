import pickle
from functools import lru_cache
from itertools import combinations, product, zip_longest
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    cell_leq_by_reduction,
    count_by_columns,
    degree_by_reduction,
    key_tableaux_by_search,
    straighten_by_reduction,
)

from spaltenstein import tableaux as tableaux_module
from spaltenstein.presentation import HilbertSeries, clear_caches
from spaltenstein.symring import Polynomial, check_permutation
from spaltenstein.tableaux import (
    Composition,
    Partition,
    Tableau,
    _chain,
    _degree_from_columns,
    _identity,
    _key_chains,
    _key_fillings,
    _key_tableaux,
    _lowerings,
    _relabelling,
    cell_order,
    column_sequence_to_partition,
    compositions,
    count_column_strict,
    dims,
    dominance_leq,
    enumerate_column_strict,
    enumerate_semistandard,
    iter_pairs,
    partition_to_column_sequence,
    partitions,
    reduce_tableau,
    straighten,
    tableau_degree,
    transpose,
)

ANEX_LAM = Partition([4, 3, 3, 2])
ANEX_MU = Composition([1, 4, 1, 3, 1, 2])
ANEX_T = Tableau([[2, 1, 2, 2], [3, 2, 4], [4, 4, 6], [6, 5]])


def brute_force_column_strict(lam, mu):
    """Independent oracle: try every filling of the diagram."""
    cells = [(i, j) for i, p in enumerate(lam.parts) for j in range(p)]
    n = len(mu)
    found = []
    for values in product(range(1, n + 1), repeat=len(cells)):
        rows = [[0] * p for p in lam.parts]
        for (i, j), v in zip(cells, values):
            rows[i][j] = v
        T = Tableau(rows)
        if T.is_column_strict() and T.content(n) == mu:
            found.append(T)
    return set(found)


class TestEnumerators:
    def test_partition_counts_and_order(self):
        assert [len(list(partitions(d))) for d in range(8)] == [1, 1, 2, 3, 5, 7, 11, 15]
        for d in range(8):
            for n in range(d + 1):
                parts = list(partitions(d, n))
                assert parts == sorted(parts, reverse=True)
                for p in parts:
                    assert sum(p) == d and len(p) <= n and Partition(p).parts == p

    def test_composition_counts_and_order(self):
        assert list(compositions(0, 0)) == [()]
        assert list(compositions(1, 0)) == []
        for d in range(6):
            for n in range(1, 5):
                comps = list(compositions(d, n))
                assert len(comps) == comb(d + n - 1, n - 1)
                assert comps == sorted(comps)
                assert all(len(c) == n and sum(c) == d for c in comps)

    def test_pairs(self):
        assert [(lam.parts, mu.parts) for lam, mu in iter_pairs(1)] == [((), ()), ((1,), (1,))]
        assert sum(1 for _ in iter_pairs(5)) == 1641
        capped = list(iter_pairs(4, 2))
        assert all(len(mu) <= 2 and lam.height() <= len(mu) for lam, mu in capped)
        assert capped == [(lam, mu) for lam, mu in iter_pairs(4) if len(mu) <= 2]


class TestPartition:
    def test_trailing_zeros_normalized(self):
        assert Partition([2, 1, 0, 0]) == Partition([2, 1])

    def test_rejects_increasing(self):
        with pytest.raises(ValueError):
            Partition([1, 2])

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Partition([2, -1])

    def test_padded(self):
        assert Partition([2, 1]).padded(4) == (2, 1, 0, 0)
        with pytest.raises(ValueError):
            Partition([2, 1]).padded(1)

    def test_non_integer_entries_are_refused(self):
        # int() would truncate 2.9 to 2 and answer for a pair the caller
        # never gave; operator.index refuses it
        refused = (
            lambda: Partition([2.9, 0.1]),
            lambda: Composition([1.5, 1.5]),
            lambda: Tableau([[1.7, 2]]),
            lambda: HilbertSeries([1.9, 2]),
            lambda: Polynomial(2, {(1.5, 0): 1}),
            lambda: column_sequence_to_partition([1.0, 2.5], 2, 3),
            lambda: check_permutation([2.0, 1.0], 2),
            lambda: Partition(["2"]),
        )
        for build in refused:
            with pytest.raises(TypeError):
                build()
        assert Partition([True, 0]) == Partition([1])
        assert Polynomial(2, {(2, 0): 1}).terms == {(2, 0): 1}


class TestSizeSlot:
    def test_filled_on_first_read_only(self):
        built = [
            Partition([3, 1, 0]),
            Partition._trusted((2, 2)),
            Composition([0, 2, 1]),
            Composition([0, 2, 1]).sorted(),
        ]
        for value in built:
            assert value._size is None
            assert value.size() == sum(value.parts)
            assert value._size == sum(value.parts)
            assert value.size() == sum(value.parts)
        # the slot takes no part in ==, hash, repr or pickling
        fresh, read = Composition([0, 2, 1]), built[2]
        assert fresh == read and hash(fresh) == hash(read) and repr(fresh) == repr(read)
        assert pickle.loads(pickle.dumps(read))._size is None

    def test_immutable(self):
        with pytest.raises(AttributeError):
            Partition([2])._size = 3


class TestCompositionSorted:
    def test_equals_validated_partition_d8(self):
        count = 0
        for d in range(9):
            for n in range(d + 1):
                for parts in compositions(d, n):
                    got = Composition(parts).sorted()
                    expected = Partition(sorted(parts, reverse=True))
                    assert type(got) is Partition
                    assert got == expected and got.parts == expected.parts, parts
                    assert got.size() == d
                    count += 1
        assert count == 15522


class TestRelabelling:
    def test_rows_mapped_entry_by_entry_d6(self):
        # every pair whose zero parts do not all trail: each relabelled
        # row is the key's row mapped entry by entry
        pairs = 0
        for lam, mu in iter_pairs(6):
            relabel = _relabelling(mu)
            if relabel is _identity:
                assert 0 not in mu.parts[: len(mu._nonzero)]
                continue
            iota = [0] + [i for i, p in enumerate(mu.parts, start=1) if p]
            for T in _key_fillings(lam, mu):
                U = relabel(T)
                assert U.shape == T.shape
                for row, new in zip(T.rows, U.rows):
                    assert new == tuple(iota[v] for v in row)
            pairs += 1
        assert pairs == 8391

    def test_fresh_lists(self):
        # the identity (trailing zeros) and a relabelling (a zero inside):
        # changing one call's list leaves the next call's unchanged
        lam = Partition([3, 1])
        for mu in (Composition([1, 2, 1, 0]), Composition([1, 0, 2, 1])):
            first = enumerate_column_strict(lam, mu)
            expected = list(first)
            first.clear()
            assert enumerate_column_strict(lam, mu) == expected


class TestDominance:
    def test_examples(self):
        assert dominance_leq(Partition([2, 1, 1]), Partition([2, 2]))
        assert not dominance_leq(Partition([3, 1]), Partition([2, 2]))
        assert dominance_leq(ANEX_MU.sorted(), ANEX_LAM)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            dominance_leq(Partition([2]), Partition([1]))

    def test_prefix_sum_oracle(self):
        # every pair of partitions of d <= 8, unequal lengths included,
        # against every prefix of the longer one (prefix lemma)
        for d in range(9):
            parts = list(partitions(d))
            for a in parts:
                for b in parts:
                    pa, pb = Partition(a), Partition(b)
                    expected = all(
                        sum(a[: m + 1]) <= sum(b[: m + 1]) for m in range(max(len(a), len(b)))
                    )
                    assert dominance_leq(pa, pb) == expected


class TestTranspose:
    def test_examples(self):
        assert transpose(Partition([4, 3, 2])) == Partition([3, 3, 2, 1])
        assert transpose(Partition([])) == Partition([])
        assert transpose(Partition([1, 1])) == Partition([2])

    @given(st.lists(st.integers(min_value=1, max_value=8), max_size=8))
    def test_involution(self, parts):
        lam = Partition(sorted(parts, reverse=True))
        assert transpose(transpose(lam)) == lam


class TestColumnSequenceCodec:
    def test_examples(self):
        assert column_sequence_to_partition([1, 3], 2, 12) == Partition([1])
        assert column_sequence_to_partition(range(1, 5), 4, 9) == Partition([])
        k, d = 3, 7
        gamma = Partition([d - k] * k)
        assert partition_to_column_sequence(gamma, k, d) == tuple(range(d - k + 1, d + 1))
        assert column_sequence_to_partition(range(d - k + 1, d + 1), k, d) == gamma

    def test_non_strict_rejected(self):
        with pytest.raises(ValueError):
            column_sequence_to_partition([1, 1], 2, 4)
        with pytest.raises(ValueError):
            column_sequence_to_partition([2, 1], 2, 4)

    def test_round_trip_exhaustive(self):
        for d in range(11):
            for k in range(d + 1):
                for c in combinations(range(1, d + 1), k):
                    gamma = column_sequence_to_partition(c, k, d)
                    assert gamma.height() <= k and gamma.part(1) <= d - k
                    assert partition_to_column_sequence(gamma, k, d) == c


class TestEnumeration:
    def test_small_counts(self):
        assert len(enumerate_column_strict(Partition([2, 0]), Composition([1, 1]))) == 2
        assert len(enumerate_column_strict(Partition([2, 1]), Composition([1, 1, 1]))) == 3
        assert enumerate_column_strict(Partition([1, 1]), Composition([2, 0])) == []

    def test_against_brute_force(self):
        for d in range(5):
            for n in range(1, d + 1):
                for lam in partitions(d, n):
                    for mu in compositions(d, n):
                        lam_p, mu_c = Partition(lam), Composition(mu)
                        got = enumerate_column_strict(lam_p, mu_c)
                        assert set(got) == brute_force_column_strict(lam_p, mu_c)
                        assert len(set(got)) == len(got)

    def test_reading_word_order(self):
        tabs = enumerate_column_strict(Partition([3, 1]), Composition([2, 1, 1]))
        words = [T.reading_word() for T in tabs]
        assert words == sorted(words)

    def test_semistandard(self):
        assert len(enumerate_semistandard(Partition([2, 1]), Composition([1, 1, 1]))) == 2
        assert len(enumerate_semistandard(Partition([3]), Composition([3]))) == 1
        assert len(enumerate_semistandard(Partition([1, 1]), Composition([1, 1]))) == 1

    def test_empty_iff_not_dominated(self):
        for d in range(6):
            for n in range(1, d + 1):
                for lam in partitions(d, n):
                    for mu in compositions(d, n):
                        lam_p, mu_c = Partition(lam), Composition(mu)
                        nonempty = bool(enumerate_column_strict(lam_p, mu_c))
                        assert nonempty == dominance_leq(mu_c.sorted(), lam_p)

    def test_count_matches_enumeration(self):
        for lam, mu in iter_pairs(6):
            assert count_column_strict(lam, mu) == len(enumerate_column_strict(lam, mu))

    def test_wider_than_the_recursion_limit(self):
        # one column per loop step, not per stack frame
        lam, mu = Partition([1000]), Composition([1000])
        assert enumerate_column_strict(lam, mu) == [Tableau([[1] * 1000])]
        assert count_column_strict(lam, mu) == 1
        lam, mu = Partition([600, 600]), Composition([600, 600])
        assert enumerate_column_strict(lam, mu) == [Tableau([[1] * 600, [2] * 600])]
        assert count_column_strict(lam, mu) == 1

    def test_taller_than_the_recursion_limit(self):
        # one loop step per label on the way down and on the way up
        lam, mu = Partition([1] * 1000), Composition([1] * 1000)
        T = Tableau([[v] for v in range(1, 1001)])
        assert enumerate_column_strict(lam, mu) == [T]
        assert _key_tableaux(lam, mu)[1:] == ([((1,),) * 1000], [T])
        assert count_column_strict(lam, mu) == 1

    def test_count_invariant_under_content_permutation(self):
        # enumeration is order-sensitive, so this is a real check, unlike
        # comparing the sorted-state counting oracle against itself
        for d in range(7):
            for n in range(1, d + 1):
                for lam in partitions(d, n):
                    lam_p = Partition(lam)
                    base_counts = {}
                    for mu in compositions(d, n):
                        mu_c = Composition(mu)
                        key = tuple(sorted(mu))
                        count = len(enumerate_column_strict(lam_p, mu_c))
                        if key in base_counts:
                            assert count == base_counts[key]
                        else:
                            base_counts[key] = count


def transposed_rows(rows):
    """The columns of rows, read by zip_longest rather than by index."""
    return tuple(tuple(v for v in col if v is not None) for col in zip_longest(*rows))


class TestColumnsSlot:
    def test_columns_are_the_transposed_rows_d6(self):
        # every enumerated tableau, relabelled ones included; the enumerator
        # hands its columns over, a relabelled tableau computes its own on
        # the first call, and the slot never shows in ==, hash or repr
        seen = relabelled = 0
        for lam, mu in iter_pairs(6):
            # iota is the identity exactly when the zero parts all trail
            nonzero = tuple(p for p in mu.parts if p)
            relabels = mu.parts[: len(nonzero)] != nonzero
            for T in enumerate_column_strict(lam, mu):
                if relabels:
                    assert T._columns is None
                    relabelled += 1
                assert T.columns() == transposed_rows(T.rows)
                assert T.columns() is T.columns()
                fresh = Tableau(T.rows)
                assert (fresh, hash(fresh), repr(fresh)) == (T, hash(T), repr(T))
                seen += 1
        assert (seen, relabelled) == (128219, 104585)

    def test_straightened_and_reduced_tableaux(self):
        for T in enumerate_column_strict(Partition([3, 2, 1]), Composition([2, 2, 1, 1])):
            S = straighten(T, Composition([2, 2, 1, 1]))
            Tbar = reduce_tableau(T, Composition([2, 2, 1, 1]))[1]
            for U in (S, Tbar):
                assert U.columns() == transposed_rows(U.rows)


class TestReduce:
    def test_worked_example(self):
        gamma, tbar, lambar, mubar = reduce_tableau(ANEX_T, ANEX_MU)
        assert partition_to_column_sequence(gamma, 2, 12) == (1, 3)
        assert tbar == Tableau([[1, 2, 2, 2], [2, 3, 4], [4, 4], [5]])
        assert lambar == Partition([4, 3, 2, 1])
        assert mubar == Composition([1, 4, 1, 3, 1])

    def test_zero_last_part(self):
        T = Tableau([[1, 2]])
        gamma, tbar, lambar, mubar = reduce_tableau(T, Composition([1, 1, 0]))
        assert gamma == Partition([])
        assert tbar == T
        assert mubar == Composition([1, 1])

    def test_single_row(self):
        gamma, tbar, _, _ = reduce_tableau(Tableau([[1, 2]]), Composition([1, 1]))
        assert gamma == Partition([1])
        assert tbar == Tableau([[1]])

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            reduce_tableau(Tableau([[1], [1]]), Composition([2]))
        with pytest.raises(ValueError):
            reduce_tableau(Tableau([[1, 2]]), Composition([2, 0]))


class TestDegree:
    def test_worked_example(self):
        assert tableau_degree(ANEX_T, ANEX_MU) == 2

    def test_empty(self):
        assert tableau_degree(Tableau([]), Composition([])) == 0

    def test_frozen_small(self):
        mu = Composition([1, 1, 1])
        got = sorted(
            tableau_degree(T, mu) for T in enumerate_column_strict(Partition([2, 1]), mu)
        )
        assert got == [0, 1, 1]

    def test_unique_degree_zero(self):
        for d in range(6):
            for n in range(1, d + 1):
                for lam in partitions(d, n):
                    for mu in compositions(d, n):
                        lam_p, mu_c = Partition(lam), Composition(mu)
                        tabs = enumerate_column_strict(lam_p, mu_c)
                        if tabs:
                            zeros = [T for T in tabs if tableau_degree(T, mu_c) == 0]
                            assert len(zeros) == 1

    def test_degree_bound_small(self):
        for d in range(6):
            for n in range(1, d + 1):
                for lam in partitions(d, n):
                    for mu in compositions(d, n):
                        lam_p, mu_c = Partition(lam), Composition(mu)
                        d_lam, d_mu = dims(lam_p, mu_c)
                        for T in enumerate_column_strict(lam_p, mu_c):
                            deg = tableau_degree(T, mu_c)
                            assert deg <= d_lam - d_mu
                            assert (deg == d_lam - d_mu) == T.is_semistandard()


class TestDegreeOnePass:
    @staticmethod
    def _fillings(d_max):
        """Every filling of every shape with d <= d_max by labels 1..d that
        is strictly increasing down each column, as (columns, content)."""
        for d in range(d_max + 1):
            for lam in partitions(d):
                heights = transpose(Partition(lam)).parts
                per_column = [list(combinations(range(1, d + 1), h)) for h in heights]
                for cols in product(*per_column):
                    content = [0] * d
                    for col in cols:
                        for v in col:
                            content[v - 1] += 1
                    yield cols, tuple(content)

    def test_matches_reduction_oracle_d6(self):
        count = 0
        for cols, content in self._fillings(6):
            want = degree_by_reduction(list(cols), content)
            assert _degree_from_columns([list(c) for c in cols], content) == want
            assert _degree_from_columns(cols, content) == want
            count += 1
        assert count == 90593

    def test_wrong_content_raises_like_oracle(self):
        def outcome(f, cols, content):
            try:
                return f(cols, content)
            except ValueError as exc:
                return str(exc)

        raised = 0
        for cols, content in self._fillings(4):
            if not content:
                continue
            for shifted in (content[1:] + content[:1], content[:-1] + (content[-1] + 1,)):
                want = outcome(degree_by_reduction, list(cols), shifted)
                assert outcome(_degree_from_columns, cols, shifted) == want
                raised += isinstance(want, str)
        assert raised

    def test_columns_of_unsorted_heights(self):
        # the first level takes the columns in their given order
        cases = (([[1], [1, 2]], (2, 1)), ([[1], [1, 2]], (2, 1, 0)), ([[2], [1, 3], [1]], (2, 1, 1)))
        for cols, content in cases:
            assert _degree_from_columns(cols, content) == degree_by_reduction(cols, content)


class TestStraighten:
    def test_fixed_point(self):
        T = Tableau([[1, 2], [3]])
        assert straighten(T, Composition([1, 1, 1])) == T

    def test_single_step(self):
        assert straighten(Tableau([[2, 1]]), Composition([1, 1])) == Tableau([[1, 2]])

    def test_idempotent_and_fibers(self):
        for d in range(6):
            for n in range(1, d + 1):
                for lam in partitions(d, n):
                    for mu in compositions(d, n):
                        lam_p, mu_c = Partition(lam), Composition(mu)
                        tabs = enumerate_column_strict(lam_p, mu_c)
                        std = set(enumerate_semistandard(lam_p, mu_c))
                        images = {}
                        for T in tabs:
                            S = straighten(T, mu_c)
                            assert S in std
                            assert straighten(S, mu_c) == S
                            images.setdefault(S, []).append(T)
                        if tabs:
                            assert set(images) == std
                            assert sum(len(v) for v in images.values()) == len(tabs)

    def test_top_degree_counts_semistandard(self):
        for d in range(6):
            for lam in partitions(d, d):
                for mu in compositions(d, min(d, 3)):
                    lam_p, mu_c = Partition(lam), Composition(mu)
                    if lam_p.height() > len(mu_c):
                        continue
                    d_lam, d_mu = dims(lam_p, mu_c)
                    tabs = enumerate_column_strict(lam_p, mu_c)
                    top = [T for T in tabs if tableau_degree(T, mu_c) == d_lam - d_mu]
                    assert len(top) == len(enumerate_semistandard(lam_p, mu_c))


class TestCellOrder:
    def test_reflexive(self):
        assert cell_order(ANEX_T, ANEX_T, ANEX_MU) == "equal"

    def test_two_cells(self):
        mu = Composition([1, 1])
        assert cell_order(Tableau([[2, 1]]), Tableau([[1, 2]]), mu) == "less"
        assert cell_order(Tableau([[1, 2]]), Tableau([[2, 1]]), mu) == "greater"

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            cell_order(Tableau([[1, 2]]), Tableau([[1], [2]]), Composition([1, 1]))

    def test_partial_order_axioms(self):
        for d in range(6):
            for n in range(1, d + 1):
                for lam in partitions(d, n):
                    for mu in compositions(d, n):
                        lam_p, mu_c = Partition(lam), Composition(mu)
                        tabs = enumerate_column_strict(lam_p, mu_c)
                        below = {T: set() for T in tabs}
                        for i, T in enumerate(tabs):
                            for U in tabs[i + 1 :]:
                                rel = cell_order(T, U, mu_c)
                                back = cell_order(U, T, mu_c)
                                assert (rel, back) in {
                                    ("less", "greater"),
                                    ("greater", "less"),
                                    ("incomparable", "incomparable"),
                                }
                                if rel == "less":
                                    below[U].add(T)
                                elif rel == "greater":
                                    below[T].add(U)
                        for T in tabs:
                            for U in below[T]:
                                assert T not in below[U]
                                assert below[U] <= below[T]


class TestReductionChain:
    def test_worked_example(self):
        # level 6 fills columns 1 and 3 (TestReduce), and level n fills mu_n columns
        chain = _chain(ANEX_T.columns(), ANEX_MU.parts)
        assert chain[0] == (1, 3)
        assert [len(level) for level in chain] == list(ANEX_MU.parts[::-1])

    def test_straighten_and_degree_match_oracles_d6(self):
        tableaux = 0
        for lam, mu in iter_pairs(6):
            reduce = lru_cache(maxsize=None)(reduce_tableau)
            for T in enumerate_column_strict(lam, mu):
                S, want = straighten(T, mu), straighten_by_reduction(T, mu, reduce)
                assert (S.rows, S.shape) == (want.rows, want.shape)
                assert tableau_degree(T, mu) == degree_by_reduction(list(T.columns()), mu.parts)
                tableaux += 1
        assert tableaux == 128219

    def test_cell_order_matches_oracle_d4(self):
        # every ordered pair within each pair; d <= 5 (206,694 comparisons,
        # about 12 s) agrees too, but is left out of the default run for time
        comparisons = 0
        for lam, mu in iter_pairs(4):
            reduce = lru_cache(maxsize=None)(reduce_tableau)
            tabs = enumerate_column_strict(lam, mu)
            for T in tabs:
                for U in tabs:
                    if T == U:
                        want = "equal"
                    elif cell_leq_by_reduction(T, U, mu, reduce):
                        want = "less"
                    elif cell_leq_by_reduction(U, T, mu, reduce):
                        want = "greater"
                    else:
                        want = "incomparable"
                    assert cell_order(T, U, mu) == want
                    comparisons += 1
        assert comparisons == 4285

    def test_kept_chains_are_each_pairs_own_d6(self):
        # relabelling lemma against the slow path: the chains kept for a
        # key, read with the parts of mu', are the chains of each pair's own
        # tableaux read with the parts of mu, empty levels dropped, in
        # enumeration order
        clear_caches()
        tableaux = 0
        for lam, mu in iter_pairs(6):
            own = [
                tuple(level for level in _chain(T.columns(), mu.parts) if level)
                for T in enumerate_column_strict(lam, mu)
            ]
            assert _key_chains(lam, mu) == own, (lam, mu)
            tableaux += len(own)
        clear_caches()
        assert tableaux == 128219


class TestKeyRecursion:
    def test_matches_search_oracle_d6(self):
        # recursion lemma against the column search: on every zero-free key
        # with d <= 6, the fillings in order with their columns, the chains,
        # and the images, one object per fiber, each equal to exactly one
        # filling, its fixed point, which is semi-standard
        clear_caches()
        keys = fillings = 0
        for lam, mu in iter_pairs(6):
            if 0 in mu.parts:
                continue
            got, chains, images = _key_tableaux(lam, mu)
            want, want_chains, want_images = key_tableaux_by_search(lam, mu)
            assert [(T.rows, T.shape, T._columns) for T in got] == [
                (T.rows, T.shape, T.columns()) for T in want
            ], (lam, mu)
            assert chains == want_chains, (lam, mu)
            assert [(S.rows, S.shape) for S in images] == [
                (S.rows, S.shape) for S in want_images
            ], (lam, mu)
            distinct = {S.rows: S for S in images}
            assert all(S is distinct[S.rows] for S in images)
            fixed = [T for T in got if T.rows in distinct]
            assert len(fixed) == len(distinct)
            assert fixed == [T for T in got if T.is_semistandard()]
            keys += 1
            fillings += len(got)
        clear_caches()
        assert (keys, fillings) == (356, 10182)


    def test_lowerings_match_brute_force_d7(self):
        # lowering lemma: at the top level of every dominated zero-free key
        # with d <= 7, the tuples yielded are, each once, those of the
        # choices of k columns whose lowered heights some filling by the
        # labels left fits (unpruned oracle count)
        cases = 0
        for lam, mu in iter_pairs(7):
            if not mu.parts or 0 in mu.parts or not dominance_leq(mu.sorted(), lam):
                continue
            heights, k = transpose(lam).parts, mu.parts[-1]
            runs = [(h, heights.count(h)) for h in sorted(set(heights), reverse=True)]
            rest = Composition(mu.parts[:-1])
            want = set()
            for c in combinations(range(len(heights)), k):
                lowered = sorted((h - (j in c) for j, h in enumerate(heights)), reverse=True)
                shape = transpose(Partition([h for h in lowered if h]))
                if count_by_columns(shape, rest):
                    want.add(tuple(sum(heights[j] == h for j in c) for h, _ in runs))
            got = list(_lowerings(runs, k, sorted(rest.parts, reverse=True)))
            assert len(got) == len(set(got)) and set(got) == want, (lam, mu)
            cases += 1
        assert cases == 907

    @pytest.mark.parametrize("lam, mu", [
        ((30, 15), (30, 15)),
        ((600, 300), (600, 300)),
        # 30 runs of one column each, and the last label lowers 15 of them:
        # C(30, 15) choices, of which one leads to the one filling
        (tuple(range(30, 0, -1)), tuple(p for p in range(30, 0, -1) if p != 15) + (15,)),
    ])
    def test_one_filling_tries_no_dead_choice(self, lam, mu, monkeypatch):
        # every choice the build keeps leads to a filling, so a key with
        # one filling draws a few column positions per label, where trying
        # every set of positions draws C(30, 15) = 155,117,520 for a label;
        # the count, too, picks the labels of a column group by group with
        # no dead branch (_group_choices), where it walked 2^30 branches for
        # the first column of the staircase
        drawn = []

        def counted(pool, r):
            for c in combinations(pool, r):
                drawn.append(c)
                assert len(drawn) <= 10_000, "the build tries choices that lead to no filling"
                yield c

        monkeypatch.setattr(tableaux_module, "combinations", counted)
        clear_caches()
        lam, mu = Partition(lam), Composition(mu)
        got = enumerate_column_strict(lam, mu)
        clear_caches()
        assert len(got) == count_by_columns(lam, mu) == count_column_strict(lam, mu) == 1
        assert got[0].content(len(mu)) == mu and drawn


class TestCountCap:
    def test_capped_count_matches_unpruned_oracle_d6(self):
        # Gale-Ryser lemma: at or below the cap the count is exact, above
        # it a bound above the cap and at most the count
        for lam, mu in iter_pairs(6):
            n = count_by_columns(lam, mu)
            assert count_column_strict(lam, mu) == n, (lam, mu)
            for cap in (0, n - 1, n, 10**9):
                got = count_column_strict(lam, mu, cap=cap)
                assert got == n if n <= cap else cap < got <= n, (lam, mu, cap)


class TestDims:
    def test_examples(self):
        assert dims(Partition([3]), Composition([1, 1, 1])) == (3, 0)
        assert dims(ANEX_LAM, ANEX_MU) == (13, 10)
        assert dims(Partition([2, 1]), Composition([2, 1])) == (1, 1)
