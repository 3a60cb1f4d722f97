from fractions import Fraction
from itertools import permutations

from spaltenstein.coinvariant import get_ring, invariant_rows
from spaltenstein.symring import BlockStructure, Polynomial, block_antisymmetrizer
from spaltenstein.tableaux import Composition, compositions


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
            assert not any(ring.sym_class(allvars, r, "h"))
            assert not any(ring.sym_class(allvars, r, "e"))

    def test_nf_agrees_with_polynomial_relations(self):
        # x1 + ... + xd reduces to zero
        ring = get_ring(3)
        total = [0] * ring.dim(1)
        for v in range(1, 4):
            mono = tuple(1 if i == v - 1 else 0 for i in range(3))
            for pos, c in enumerate(ring.nf(mono)):
                total[pos] += c
        assert not any(total)

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
                expected = pq_cls.get(rp + rq, [0] * ring.dim(rp + rq))
                assert [Fraction(v) for v in got] == [Fraction(v) for v in expected]

    def test_mul_block_h_matches_generic_product(self):
        ring = get_ring(4)
        vars_ = (3, 4)
        u = ring.nf((0, 1, 1, 0))
        for s in range(3):
            via_block = ring.mul_block_h(list(u), 2, vars_, s)
            h_cls = ring.sym_class(vars_, s, "h")
            via_generic = ring.mul_classes(u, 2, h_cls, s)
            assert via_block[0] == via_generic
            assert via_block[1] == 2 + s


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

    def test_antisymmetrizer_class_matches_polynomial(self):
        ring = get_ring(4)
        mu = Composition([2, 2])
        pairs = [(1, 2), (3, 4)]
        vec, deg = ring.antisymmetrizer_class(pairs)
        assert deg == 2
        eps = block_antisymmetrizer(mu) * 4  # clear the 1/|S_mu| factor
        cls = ring.class_of_polynomial(eps)
        assert [Fraction(v) for v in vec] == [Fraction(v) for v in cls[2]]


class TestGaussianMultinomial:
    def test_small_values(self):
        assert gaussian_multinomial(2, (1, 1)) == [1, 1]
        assert gaussian_multinomial(3, (2, 1)) == [1, 1, 1]
        assert gaussian_multinomial(4, (2, 2)) == [1, 1, 2, 1, 1]

    def test_total_is_multinomial(self):
        from math import comb

        assert sum(gaussian_multinomial(6, (3, 3))) == comb(6, 3)
