from fractions import Fraction
from itertools import combinations, permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import block_antisymmetrizer, dense, span
from spaltenstein.coinvariant import get_ring, invariant_rows
from spaltenstein.symring import (
    BlockStructure,
    Polynomial,
    complete_block,
    elementary_block,
    is_invariant,
    permute,
    term_sort_key,
    transposition,
)
from spaltenstein.tableaux import Composition, compositions, half_pair_sum


def convolution_identity_check(mu, subset, r):
    """Oracle for elementary_block and complete_block: the expansion of e_r
    and h_r over a block union into per-block products, summed over all
    splittings r_1 + ... + r_m = r."""
    subset = sorted(set(subset))
    d = mu.size()
    for builder in (elementary_block, complete_block):
        lhs = builder(mu, subset, r)
        rhs = Polynomial.zero(d)
        for split in compositions(r, len(subset)):
            prod = Polynomial.one(d)
            for j, rj in zip(subset, split):
                prod = prod * builder(mu, [j], rj)
            rhs = rhs + prod
        if lhs != rhs:
            return False
    return True


def orbit_sum(mu, exps):
    """Sum of the distinct monomials in the S_mu-orbit of the given monomial."""
    blocks = BlockStructure(mu)
    per_block = [
        sorted(set(permutations(exps[v - 1] for v in blocks.block(j))))
        for j in range(1, len(mu) + 1)
    ]
    terms = {sum(combo, ()): Fraction(1) for combo in product(*per_block)}
    return Polynomial(blocks.d, terms)


def invariant_monomial_basis(mu, D):
    """Oracle for invariant_rows: a basis of the degree-D invariants of S_mu
    as orbit sums of monomials.

    D is the grading degree, so it must be even; the orbit representatives
    have exponents sorted decreasingly within each block and the list is in
    graded-lex order of representatives.
    """
    if D < 0 or D % 2:
        raise ValueError(f"degree {D} is not a non-negative even integer")
    blocks = BlockStructure(mu)
    d = blocks.d
    r = D // 2
    if d == 0:
        return [Polynomial.one(0)] if r == 0 else []
    reps = []
    for exps in compositions(r, d):
        canon = []
        for j in range(1, len(mu) + 1):
            canon.extend(sorted((exps[v - 1] for v in blocks.block(j)), reverse=True))
        if tuple(canon) == exps:
            reps.append(exps)
    reps.sort(key=term_sort_key)
    return [orbit_sum(mu, rep) for rep in reps]


def poly_strategy(d=3, max_deg=3):
    exps = st.tuples(*([st.integers(min_value=0, max_value=max_deg)] * d))
    coeff = st.builds(
        Fraction, st.integers(min_value=-6, max_value=6), st.integers(min_value=1, max_value=4)
    )
    return st.dictionaries(exps, coeff, max_size=5).map(lambda t: Polynomial(d, t))


class TestPolynomial:
    def test_zero_coefficients_dropped(self):
        p = Polynomial(2, {(1, 0): Fraction(0), (0, 1): 2})
        assert p.terms == {(0, 1): Fraction(2)}

    def test_degree_doubling(self):
        p = Polynomial.variable(3, 2)
        assert p.degree() == 2
        assert (p * p).degree() == 4

    def test_json_round_trip_and_order(self):
        p = Polynomial(2, {(0, 2): Fraction(1, 3), (2, 0): 2, (1, 0): -1})
        data = p.to_json()
        assert [item["exps"] for item in data] == [[1, 0], [2, 0], [0, 2]]
        terms = {}
        for item in data:
            num, den = item["coeff"].split("/")
            terms[tuple(item["exps"])] = Fraction(int(num), int(den))
        assert Polynomial(2, terms) == p

    @settings(max_examples=60, deadline=None)
    @given(poly_strategy(), poly_strategy(), poly_strategy())
    def test_ring_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a

    @settings(max_examples=40, deadline=None)
    @given(poly_strategy(), poly_strategy())
    def test_permute_is_ring_map(self, a, b):
        for w in permutations(range(1, 4)):
            assert permute(w, a * b) == permute(w, a) * permute(w, b)
            assert permute(w, a + b) == permute(w, a) + permute(w, b)


class TestBlocks:
    def test_block_layout(self):
        blocks = BlockStructure(Composition([1, 4, 1, 3, 1, 2]))
        assert blocks.block(1) == (1,)
        assert blocks.block(2) == (2, 3, 4, 5)
        assert blocks.block(6) == (11, 12)
        assert blocks.union([1, 3]) == (1, 6)

    def test_zero_block_is_empty(self):
        blocks = BlockStructure(Composition([2, 0, 1]))
        assert blocks.block(2) == ()
        assert blocks.transpositions() == [(1, 2)]


class TestBlockSymmetric:
    def test_worked_example(self):
        mu = Composition([1, 4, 1, 3, 1, 2])
        expected = Polynomial(12, {
            tuple(1 if i == 10 else 0 for i in range(12)): 1,
            tuple(1 if i == 11 else 0 for i in range(12)): 1,
        })
        assert complete_block(mu, [6], 1) == expected

    def test_conventions(self):
        mu = Composition([2, 1])
        assert elementary_block(mu, [1], 0) == Polynomial.one(3)
        assert complete_block(mu, [1, 2], -3) == Polynomial.zero(3)
        with pytest.raises(ValueError):
            elementary_block(mu, [], 1)

    def test_vanishing_and_single_variable(self):
        assert elementary_block(Composition([0, 1]), [1], 1).is_zero()
        assert elementary_block(Composition([2]), [1], 3).is_zero()
        assert complete_block(Composition([1]), [1], 2) == Polynomial(1, {(2,): 1})

    def test_convolution_trivial_cases(self):
        assert convolution_identity_check(Composition([3]), [1], 2)
        assert convolution_identity_check(Composition([1, 1]), [1, 2], 1)

    def test_convolution_exhaustive(self):
        for d in range(6):
            for n in range(1, min(d, 3) + 1):
                for mu in compositions(d, n):
                    mu_c = Composition(mu)
                    for m in range(1, n + 1):
                        for subset in combinations(range(1, n + 1), m):
                            for r in range(d + 1):
                                assert convolution_identity_check(mu_c, subset, r)

    def test_newton_inversion(self):
        # depends only on the variable set, so run over all subsets directly
        for d in range(1, 7):
            mu = Composition([1] * d)
            for m in range(1, d + 1):
                for subset in combinations(range(1, d + 1), m):
                    for r in range(1, d + 1):
                        total = Polynomial.zero(d)
                        for a in range(r + 1):
                            total = total + (
                                Fraction((-1) ** a)
                                * elementary_block(mu, subset, a)
                                * complete_block(mu, subset, r - a)
                            )
                        assert total.is_zero()


class TestPermutation:
    def test_identity_and_transposition(self):
        p = Polynomial.variable(3, 1)
        assert permute((1, 2, 3), p) == p
        assert permute(transposition(3, 1, 2), p) == Polynomial.variable(3, 2)

    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            permute((1, 1, 3), Polynomial.one(3))

    def test_block_generators_invariant(self):
        for d in range(1, 6):
            for n in range(1, min(d, 3) + 1):
                for mu in compositions(d, n):
                    mu_c = Composition(mu)
                    for i in range(1, n + 1):
                        for r in range(1, mu_c.part(i) + 1):
                            assert is_invariant(mu_c, elementary_block(mu_c, [i], r))
                            assert is_invariant(mu_c, complete_block(mu_c, [i], r))


class TestAntisymmetrizer:
    def test_trivial(self):
        assert block_antisymmetrizer(Composition([1, 1, 1])) == Polynomial.one(3)

    def test_single_pair(self):
        eps = block_antisymmetrizer(Composition([2]))
        expected = Fraction(1, 2) * (Polynomial.variable(2, 1) - Polynomial.variable(2, 2))
        assert eps == expected

    def test_degree_and_alternation(self):
        def check(mu_c, d):
            eps = block_antisymmetrizer(mu_c)
            dm = half_pair_sum(mu_c.parts)
            assert eps.degree() == (2 * dm if dm else 0)
            for i, j in BlockStructure(mu_c).transpositions():
                assert permute(transposition(d, i, j), eps) == -1 * eps

        for d in range(1, 6):
            for n in range(1, d + 1):
                for mu in compositions(d, n):
                    check(Composition(mu), d)
        for mu in [(6,), (4, 2), (3, 3), (2, 2, 2), (2, 2, 1, 1), (1, 2, 2, 1)]:
            check(Composition(mu), 6)


class TestInvariantMonomialBasis:
    def test_degree_zero(self):
        assert invariant_monomial_basis(Composition([2, 1]), 0) == [Polynomial.one(3)]

    def test_trivial_group(self):
        basis = invariant_monomial_basis(Composition([1, 1]), 2)
        assert basis == [Polynomial.variable(2, 1), Polynomial.variable(2, 2)]

    def test_odd_degree_rejected(self):
        with pytest.raises(ValueError):
            invariant_monomial_basis(Composition([2]), 3)

    def test_orbit_sum_coefficients_are_one(self):
        mu = Composition([2, 2])
        for p in invariant_monomial_basis(mu, 6):
            assert all(c == 1 for c in p.terms.values())
            assert is_invariant(mu, p)

    def test_size_matches_free_generator_series(self):
        for d in range(1, 7):
            for n in range(1, min(d, 4) + 1):
                for mu in compositions(d, n):
                    mu_c = Composition(mu)
                    series = free_generator_series(mu, degree=5)
                    for D in range(0, 11, 2):
                        assert len(invariant_monomial_basis(mu_c, D)) == series[D // 2]

    def test_orbit_sum_classes_span_invariant_rows(self):
        # averaging over S_mu commutes with the projection onto the
        # coinvariant algebra, so the invariants there are the classes of
        # the orbit sums
        for d in range(1, 6):
            ring = get_ring(d)
            for n in range(1, min(d, 3) + 1):
                for mu in map(Composition, compositions(d, n)):
                    transpositions = tuple(BlockStructure(mu).transpositions())
                    for r in range(ring.top + 1):
                        dim = ring.dim(r)
                        classes = [
                            dense(ring.class_of_polynomial(p).get(r, {}), dim)
                            for p in invariant_monomial_basis(mu, 2 * r)
                        ]
                        rows = [dense(row, dim) for row in invariant_rows(ring, transpositions, r)]
                        assert span(classes, dim) == span(rows, dim)


def free_generator_series(mu, degree):
    """Coefficients of prod_i prod_{r=1..mu_i} 1/(1 - q^r) up to q^degree,
    written in the x-degree variable q (the grading doubles it)."""
    coeffs = [1] + [0] * degree
    for p in mu:
        for r in range(1, p + 1):
            for k in range(r, degree + 1):
                coeffs[k] += coeffs[k - r]
    return coeffs
