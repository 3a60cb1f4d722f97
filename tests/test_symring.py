from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spaltenstein.symring import (
    BlockStructure,
    Polynomial,
    block_antisymmetrizer,
    complete_block,
    convolution_identity_check,
    elementary_block,
    invariant_monomial_basis,
    is_invariant,
    orbit_sum,
    permutation_sign,
    permute,
    transposition,
)
from spaltenstein.tableaux import Composition, compositions, half_pair_sum


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

    def test_components(self):
        p = Polynomial(2, {(1, 0): 1, (1, 1): 2, (0, 2): 3})
        comps = p.homogeneous_components()
        assert sorted(comps) == [2, 4]
        assert comps[4].terms == {(1, 1): Fraction(2), (0, 2): Fraction(3)}

    def test_json_round_trip_and_order(self):
        p = Polynomial(2, {(0, 2): Fraction(1, 3), (2, 0): 2, (1, 0): -1})
        data = p.to_json()
        assert [item["exps"] for item in data] == [[1, 0], [2, 0], [0, 2]]
        assert Polynomial.from_json(2, data) == p

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

    def test_sign(self):
        assert permutation_sign((1, 2, 3)) == 1
        assert permutation_sign((2, 1, 3)) == -1
        assert permutation_sign((2, 3, 1)) == 1

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


def free_generator_series(mu, degree):
    """Coefficients of prod_i prod_{r=1..mu_i} 1/(1 - q^r) up to q^degree,
    written in the x-degree variable q (the grading doubles it)."""
    coeffs = [1] + [0] * degree
    for p in mu:
        for r in range(1, p + 1):
            for k in range(r, degree + 1):
                coeffs[k] += coeffs[k - r]
    return coeffs
