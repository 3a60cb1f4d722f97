import random
from copy import deepcopy
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    block_antisymmetrizer,
    dense,
    kernel_basis,
    nf_by_division,
    sparse,
    sym_classes_by_recurrence,
)
from spaltenstein import coinvariant, presentation
from spaltenstein.coinvariant import MAX_D, CoinvariantRing, get_ring, invariant_rows
from spaltenstein.linalg import RowSpace
from spaltenstein.symring import BlockStructure, Polynomial, complete_block, elementary_block
from spaltenstein.presentation import h_of_tableau
from spaltenstein.tableaux import (
    Composition,
    _chain,
    compositions,
    enumerate_column_strict,
    iter_pairs,
)


def gaussian_multinomial(d, parts):
    """Coefficient list of the q-multinomial [d; parts]_q, an exact oracle
    for the graded dimensions of the S_mu-invariants of the coinvariant
    algebra (invariant_rows)."""
    numer = _q_factorial(d)
    for p in parts:
        numer = _q_poly_divide(numer, _q_factorial(p))
    return numer


def _q_factorial(m):
    poly = [1]
    for i in range(1, m + 1):
        poly = _q_poly_mul(poly, [1] * i)
    return poly


def _q_poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _q_poly_divide(a, b):
    a = list(a)
    out = [0] * (len(a) - len(b) + 1)
    for i in range(len(out) - 1, -1, -1):
        coeff = a[i + len(b) - 1] // b[-1]
        out[i] = coeff
        for j, y in enumerate(b):
            a[i + j] -= coeff * y
    if any(a):
        raise ArithmeticError("inexact q-polynomial division")
    return out


def dense_nf(ring, mono):
    """The sparse normal form of a monomial as a dense vector."""
    out = [0] * ring.dim(sum(mono))
    for pos, val in ring.nf(mono):
        out[pos] = val
    return out


def dense_swap_matrix(ring, i, r):
    """The transposition (i, i+1) on the degree-r basis, as dense rows
    read from the normal forms of the swapped monomials."""
    mat = []
    for mono in ring.basis[r]:
        m = list(mono)
        m[i - 1], m[i] = m[i], m[i - 1]
        mat.append(dense_nf(ring, tuple(m)))
    return mat


def dense_invariant_rows(ring, transpositions, r):
    """Oracle for invariant_rows: the dense equations x (S - 1) = 0, one
    per column of each swap matrix S, solved by kernel_basis."""
    dim = ring.dim(r)
    if not transpositions:
        return [[int(b == c) for c in range(dim)] for b in range(dim)]
    equations = []
    for i, _ in transpositions:
        mat = dense_swap_matrix(ring, i, r)
        for coord in range(dim):
            equations.append([mat[b][coord] - (b == coord) for b in range(dim)])
    return kernel_basis(equations, dim)


def product_by_normal_forms(ring, vec, v, r):
    """Oracle for the variable products: x_v times sum c_b t_b is
    sum c_b nf(x_v t_b), as a dense vector."""
    out = [0] * ring.dim(r + 1)
    for c, mono in zip(vec, ring.basis[r]):
        bumped = tuple(e + (i == v - 1) for i, e in enumerate(mono))
        for j, w in enumerate(dense_nf(ring, bumped)):
            out[j] += c * w
    return out


def inversion_counts(d):
    counts = {}
    for w in permutations(range(d)):
        inv = sum(1 for i in range(d) for j in range(i + 1, d) if w[i] > w[j])
        counts[inv] = counts.get(inv, 0) + 1
    return counts


class TestRingBasics:
    def test_graded_dimensions_match_inversion_counts(self):
        for d in range(0, 7):
            ring = get_ring(d)
            counts = inversion_counts(d)
            for r in range(ring.top + 1):
                assert ring.dim(r) == counts.get(r, 0)

    def test_symmetric_functions_die(self):
        ring = get_ring(4)
        allvars = (1, 2, 3, 4)
        for r in range(1, 5):
            assert ring.sym_classes(allvars, "h")[r] == {}
            assert ring.sym_classes(allvars, "e")[r] == {}

    def test_nf_agrees_with_polynomial_relations(self):
        # x1 + ... + xd reduces to zero
        ring = get_ring(3)
        total = [0] * ring.dim(1)
        for v in range(1, 4):
            mono = tuple(1 if i == v - 1 else 0 for i in range(3))
            for pos, c in ring.nf(mono):
                total[pos] += c
        assert not any(total)

    def test_nf_matches_groebner_remainder(self):
        # sympy's remainder on division by h_i(x_i, ..., x_d), the reduced
        # lex Groebner basis, against the memoised sparse rows; every
        # monomial with exponents up to d and degree up to top + 1
        sympy = pytest.importorskip("sympy")
        for d in range(1, 5):
            ring = get_ring(d)
            xs = sympy.symbols(f"x1:{d + 1}")
            basis = [
                sympy.Add(*(sympy.Mul(*c) for c in combinations_with_replacement(xs[i - 1 :], i)))
                for i in range(1, d + 1)
            ]
            for mono in product(range(d + 1), repeat=d):
                if sum(mono) > ring.top + 1:
                    continue
                term = sympy.Mul(*(x**e for x, e in zip(xs, mono)))
                _, rem = sympy.reduced(term, basis, *xs, order="lex")
                expected = [0] * ring.dim(sum(mono))
                for exps, c in sympy.Poly(rem, *xs).terms():
                    if c:
                        expected[ring.index[exps]] = int(c)
                assert dense_nf(ring, mono) == expected
                assert all(val for _, val in ring.nf(mono))

    def test_class_of_polynomial_multiplicative(self):
        ring = get_ring(3)
        p = Polynomial(3, {(1, 0, 0): 1, (0, 1, 0): 2})
        q = Polynomial(3, {(0, 0, 1): 1, (1, 1, 0): Fraction(1, 2)})
        pq_cls = ring.class_of_polynomial(p * q)
        p_cls = ring.class_of_polynomial(p)
        q_cls = ring.class_of_polynomial(q)
        for (rp, vp) in p_cls.items():
            for (rq, vq) in q_cls.items():
                got = ring.mul_classes(vp, rp, vq, rq)
                assert got == pq_cls.get(rp + rq, {})

    def test_apply_var_matches_normal_form(self):
        # the sparse variable matrices act as multiplication of monomials
        for d in range(1, 6):
            ring = get_ring(d)
            for r in range(ring.top):
                for pos, mono in enumerate(ring.basis[r]):
                    for v in range(1, d + 1):
                        bumped = tuple(e + (i == v - 1) for i, e in enumerate(mono))
                        expected = [3 * c for c in dense_nf(ring, bumped)]
                        assert ring.apply_var({pos: 3}, v, r) == sparse(expected)

    def test_sparse_product_matches_dense(self):
        rng = random.Random(5)
        for d in range(1, 6):
            ring = get_ring(d)
            for r in range(ring.top + 1):
                dim = ring.dim(r)
                vectors = [[int(b == c) for c in range(dim)] for b in range(dim)]
                vectors += [
                    [rng.choice((0, 0, 0, 1, -1, 2, -3)) for _ in range(dim)] for _ in range(8)
                ]
                for vec in vectors:
                    for v in range(1, d + 1):
                        got = dense(ring.apply_var(sparse(vec), v, r), ring.dim(r + 1))
                        assert got == product_by_normal_forms(ring, vec, v, r)

    def test_last_variable_is_minus_the_others(self):
        # e_1 = 0, so x_d b = -(x_1 + ... + x_{d-1}) b for every class b;
        # GradedQuotient._build relies on this to skip x_d
        for d in range(1, 7):
            ring = get_ring(d)
            for r in range(ring.top):
                for pos in range(ring.dim(r)):
                    total = [0] * ring.dim(r + 1)
                    for v in range(1, d + 1):
                        product = dense(ring.apply_var({pos: 1}, v, r), ring.dim(r + 1))
                        total = [a + b for a, b in zip(total, product)]
                    assert not any(total)

    def test_h_class_chain_matches_class_of_polynomial_d5(self):
        # the basis classes multiply the cached h tables (sym_classes) with
        # mul_classes; each must be the one-degree class of the expanded
        # basis polynomial, with the memo shared across the tableaux of a
        # pair as in the certificate
        tableaux = 0
        for lam, mu in iter_pairs(5):
            if 0 in mu.parts:
                continue
            ring, memo = get_ring(mu.size()), {}
            for T in enumerate_column_strict(lam, mu):
                chain = _chain(T.columns(), mu.parts)
                vec, t = presentation._h_class_chain(ring, chain, mu, memo)
                assert ring.class_of_polynomial(h_of_tableau(T, mu)) == {t: vec}, T
                tableaux += 1
        assert tableaux == 1119


class TestTables:
    """The variable tables and normal forms, filled by the table lemma
    (CoinvariantRing.var_matrix), against division by the Groebner basis."""

    def test_var_matrix_matches_division(self):
        for d in range(1, 7):
            ring, memo = CoinvariantRing(d), {}
            for r in range(ring.top + 1):
                for v in range(1, d + 1):
                    table = ring.var_matrix(v, r)
                    assert len(table) == ring.dim(r)
                    for mono, row in zip(ring.basis[r], table):
                        bumped = tuple(e + (i == v - 1) for i, e in enumerate(mono))
                        assert row == nf_by_division(ring, bumped, memo), (d, v, mono)

    def test_nf_matches_division(self):
        # every monomial with a_i <= 2(i - 1) and degree up to top + 1
        for d in range(1, 7):
            ring, memo = CoinvariantRing(d), {}
            count = 0
            for mono in product(*(range(2 * i - 1) for i in range(1, d + 1))):
                if sum(mono) <= ring.top + 1:
                    assert ring.nf(mono) == nf_by_division(ring, mono, memo), mono
                    count += 1
            assert count == {1: 1, 2: 3, 3: 12, 4: 74, 5: 615, 6: 6406}[d]

    def test_tables_do_not_use_nf(self):
        # the table lemma builds every table from tables, never from a
        # normal form of a monomial
        for d in range(1, 7):
            ring = CoinvariantRing(d)
            for r in range(ring.top + 1):
                for v in range(1, d + 1):
                    ring.var_matrix(v, r)
            assert len(ring._var_matrices) == d * (ring.top + 1)
            assert ring._nf == {}


class TestInvariants:
    def test_dims_match_gaussian_multinomial(self):
        for d in range(1, 6):
            ring = get_ring(d)
            for n in range(1, min(d, 3) + 1):
                for mu in compositions(d, n):
                    mu_c = Composition(mu)
                    transpositions = tuple(BlockStructure(mu_c).transpositions())
                    series = gaussian_multinomial(d, tuple(p for p in mu if p))
                    for r in range(ring.top + 1):
                        rows = invariant_rows(ring, transpositions, r)
                        expected = series[r] if r < len(series) else 0
                        assert len(rows) == expected

    def test_sparse_equations_match_dense_oracle(self):
        # every transposition set of a composition with d <= 6: row for
        # row against the dense oracle, and x S = x for every returned row
        # x and the swap matrix S of every transposition
        for d in range(1, 7):
            ring = get_ring(d)
            sets = {
                tuple(BlockStructure(Composition(mu)).transpositions())
                for n in range(1, d + 1)
                for mu in compositions(d, n)
            }
            assert len(sets) == 2 ** (d - 1)
            for transpositions, r in product(sorted(sets), range(ring.top + 1)):
                rows = invariant_rows(ring, transpositions, r)
                assert rows == list(map(sparse, dense_invariant_rows(ring, transpositions, r)))
                dim = ring.dim(r)
                for i, _ in transpositions:
                    mat = dense_swap_matrix(ring, i, r)
                    for row in rows:
                        image = [0] * dim
                        for b, x in row.items():
                            for c, w in enumerate(mat[b]):
                                image[c] += x * w
                        assert image == dense(row, dim)
        # the rows are memoised on the ring, which clear_caches drops
        assert invariant_rows(ring, transpositions, r) is rows
        presentation.clear_caches()
        assert get_ring(d) is not ring and get_ring(d)._invariants == {}

    def test_antisymmetrizer_class_matches_polynomial(self):
        ring = get_ring(4)
        mu = Composition([2, 2])
        pairs = [(1, 2), (3, 4)]
        row, deg = ring.antisymmetrizer_class(pairs)
        assert deg == 2
        eps = block_antisymmetrizer(mu) * 4  # clear the 1/|S_mu| factor
        assert row == ring.class_of_polynomial(eps)[2]


class TestSymClasses:
    def test_same_classes_rising_falling_cold(self):
        # the classes of a set do not depend on what the ring filled
        # before: the variable tables in rising or falling degree, the
        # classes of the other sets and kinds, or nothing (cold)
        for d in range(1, 6):
            ends = tuple(sorted({1, d}))
            var_sets = [(1,), tuple(range(1, d + 1)), tuple(range(2, d + 1)), ends]
            for kind in ("h", "e"):
                for vars_ in var_sets:
                    runs = []
                    for order in ("rising", "falling", "others", "cold"):
                        ring = CoinvariantRing(d)
                        degrees = range(ring.top + 1)
                        if order in ("rising", "falling"):
                            for r in degrees if order == "rising" else reversed(degrees):
                                for v in range(1, d + 1):
                                    ring.var_matrix(v, r)
                        elif order == "others":
                            for other in var_sets:
                                for k in ("e", "h"):
                                    if (other, k) != (vars_, kind):
                                        ring.sym_classes(other, k)
                        classes = ring.sym_classes(vars_, kind)
                        assert len(classes) == ring.top + 1
                        assert ring.sym_classes(vars_, kind) is classes
                        runs.append(classes)
                    assert runs[0] == runs[1] == runs[2] == runs[3]

    def test_matches_unbounded_recurrence(self):
        # every subset of the variables, both kinds, d <= 6: the recurrence
        # stopped at the vanishing bound and padded with zero rows, against
        # the recurrence run to top in every step
        for d in range(0, 7):
            ring = CoinvariantRing(d)
            for k in range(d + 1):
                for vars_ in combinations(range(1, d + 1), k):
                    for kind in ("h", "e"):
                        expected = sym_classes_by_recurrence(ring, vars_, kind)
                        assert ring.sym_classes(vars_, kind) == expected, (d, vars_, kind)

    def test_classes_match_polynomials(self):
        # the recurrence against the normal forms of the expanded polynomials
        for d in range(1, 5):
            ring = get_ring(d)
            ones = Composition((1,) * d)
            var_sets = [(1,), tuple(range(1, d + 1)), tuple(range(2, d + 1))]
            for vars_ in var_sets + [(1, d)] * (d > 1):
                for kind, builder in (("h", complete_block), ("e", elementary_block)):
                    classes = ring.sym_classes(vars_, kind)
                    for r in range(1, ring.top + 1):
                        expected = ring.class_of_polynomial(builder(ones, vars_, r))
                        assert classes[r] == expected.get(r, {})

    def test_repeated_or_out_of_range_variable_is_refused(self):
        # the vanishing bound counts distinct variables among 1..d
        for d, vars_ in ((2, (1, 1)), (2, (2, 2)), (2, (0,)), (2, (3,)), (1, (1, 1))):
            ring = CoinvariantRing(d)
            for kind in ("h", "e"):
                with pytest.raises(ValueError, match="distinct variables"):
                    ring.sym_classes(vars_, kind)
            assert not ring._sym_classes


class TestOwnership:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_products_leave_arguments_unchanged(self, data):
        d = data.draw(st.integers(1, 5))
        ring = get_ring(d)
        degree = st.integers(0, ring.top)
        ru, rw, v = data.draw(degree), data.draw(degree), data.draw(st.integers(1, d))

        def row(r):
            entry = st.sampled_from((0, 0, 0, 1, -1, 2, -3))
            return data.draw(st.lists(entry, min_size=ring.dim(r), max_size=ring.dim(r)).map(sparse))

        u, w = row(ru), row(rw)
        before = deepcopy((u, w))
        ring.apply_var(u, v, ru)
        ring.mul_classes(u, ru, w, rw)
        assert (u, w) == before

    def test_cached_class_in_two_spaces(self):
        # one cached sym_classes row: kept as it is as a basis row of the
        # first space, reduced against a pivot entry 1 (so without scaling)
        # in the second, then back-substituted in the first
        ring = get_ring(4)
        row = ring.sym_classes((3, 4), "h")[2]
        assert row == {0: 1, 1: 1, 2: 1}
        before = deepcopy(ring._sym_classes)
        first, second = RowSpace(ring.dim(2)), RowSpace(ring.dim(2))
        assert first.insert(row)
        assert first.pivot_rows[0] is row
        assert second.insert({0: 1})
        assert second.insert(row)
        assert first.insert({1: 1})
        assert first.pivot_rows[0] == {0: 1, 2: 1}
        assert ring._sym_classes == before


class TestResourceGuard:
    def test_refused_before_any_monomial(self, monkeypatch):
        def no_monomials(*args):
            raise AssertionError("monomials generated")

        monkeypatch.setattr(coinvariant, "product", no_monomials)
        coinvariant._RINGS.pop(MAX_D + 1, None)
        with pytest.raises(ValueError, match=f"d <= {MAX_D}"):
            CoinvariantRing(MAX_D + 1)
        with pytest.raises(ValueError, match=f"d <= {MAX_D}"):
            get_ring(MAX_D + 1)
        assert MAX_D + 1 not in coinvariant._RINGS
        assert MAX_D == 8


class TestGaussianMultinomial:
    def test_small_values(self):
        assert gaussian_multinomial(2, (1, 1)) == [1, 1]
        assert gaussian_multinomial(3, (2, 1)) == [1, 1, 1]
        assert gaussian_multinomial(4, (2, 2)) == [1, 1, 2, 1, 1]

    def test_total_is_multinomial(self):
        from math import comb

        assert sum(gaussian_multinomial(6, (3, 3))) == comb(6, 3)
