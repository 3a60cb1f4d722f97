"""Independent oracles for the H quotient: its Hilbert series and its
multiplication tensor.

The H ideal is generated in the full ring Q[x_1..x_d] and a grevlex
Groebner basis is taken with sympy.
  - Hilbert series: the standard monomials are counted by degree.  Q[x]
    is free over the S_mu-invariants with Hilbert series the product of
    the [mu_i]_q!, so dividing by that product gives the Hilbert series
    of the quotient of the invariants.
  - Tensor: each product h_T * h_T' is reduced modulo the basis and
    solved for its coordinates in the reduced h_T'' over Q.  The ideal
    extended to Q[x] contracts to the block ideal of the invariants (the
    Reynolds operator is linear over the invariants and fixes them, so
    it maps sum a_i g_i onto sum R(a_i) g_i), so an invariant polynomial reduces to zero
    exactly when it lies in the block ideal, and the coordinates agree
    with the quotient's.
Neither oracle uses the coinvariant compression or RowSpace.
"""

from fractions import Fraction
from itertools import combinations, combinations_with_replacement

import pytest

from spaltenstein.presentation import build_quotient, h_of_tableau, structure_constants
from spaltenstein.tableaux import dominance_leq, enumerate_column_strict, iter_pairs

sympy = pytest.importorskip("sympy")


def _complete(variables, r):
    return sympy.Add(*(sympy.Mul(*c) for c in combinations_with_replacement(variables, r)))


def _h_ideal(lam, mu, xs):
    """h_r(X_S) for b <= r < b + |X_S|, where the H family of S is
    r > lam_1 + ... + lam_|S| - sum of mu_j over j in S and b is its first
    r >= 0; the e/h recurrence puts every higher h_r(X_S) in the ideal
    they span."""
    starts = [0]
    for p in mu.parts:
        starts.append(starts[-1] + p)
    n = len(mu)
    gens = []
    for m in range(1, n + 1):
        for subset in combinations(range(1, n + 1), m):
            variables = [xs[k] for j in subset for k in range(starts[j - 1], starts[j])]
            bound = sum(lam.part(i) for i in range(1, m + 1)) - sum(mu.part(j) for j in subset)
            b = max(0, bound + 1)
            gens.extend(_complete(variables, r) for r in range(b, b + len(variables)))
    return gens


def _standard_monomial_counts(gens, xs):
    """Standard monomials of the grevlex Groebner basis, counted by degree
    up to the first degree that has none (no higher degree has any)."""
    basis = sympy.groebner(gens, *xs, order="grevlex")
    leads = [sympy.Poly(g, *xs).monoms(order="grevlex")[0] for g in basis.exprs]
    counts = []
    while not counts or counts[-1]:
        count = 0
        for chosen in combinations_with_replacement(range(len(xs)), len(counts)):
            exps = [chosen.count(i) for i in range(len(xs))]
            if not any(all(a >= b for a, b in zip(exps, lead)) for lead in leads):
                count += 1
        counts.append(count)
    return counts


def _q_factorial(q, m):
    return sympy.Mul(*(sum(q**i for i in range(k)) for k in range(1, m + 1)))


def _dominated_keys(d_max):
    """The dominated pairs with 0 < d <= d_max and no zero part in mu."""
    for lam, mu in iter_pairs(d_max):
        if mu.size() and 0 not in mu.parts and dominance_leq(mu.sorted(), lam):
            yield lam, mu


def test_groebner_hilbert_series_d4():
    q = sympy.Symbol("q")
    keys = 0
    for lam, mu in _dominated_keys(4):
        xs = sympy.symbols(f"x1:{mu.size() + 1}")
        counts = _standard_monomial_counts(_h_ideal(lam, mu, xs), xs)
        free_rank = sympy.Mul(*(_q_factorial(q, p) for p in mu.parts))
        series, rest = sympy.div(sympy.Poly(counts[::-1], q), sympy.Poly(free_rank, q))
        assert rest.is_zero, (lam, mu)
        coeffs = [int(c) for c in series.all_coeffs()[::-1]]
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        assert coeffs == list(build_quotient(lam, mu).hilbert.coeffs), (lam, mu)
        keys += 1
    assert keys == 37


def _to_sympy(poly, xs):
    terms = {exps: sympy.QQ(c.numerator, c.denominator) for exps, c in poly.terms.items()}
    return sympy.Poly.from_dict(terms, *xs, domain=sympy.QQ)


def test_groebner_structure_constants_d4():
    keys = products = 0
    for lam, mu in _dominated_keys(4):
        xs = sympy.symbols(f"x1:{mu.size() + 1}")
        basis = sympy.groebner(
            _h_ideal(lam, mu, xs), *xs, order="grevlex", domain=sympy.QQ, polys=True
        )
        tabs = enumerate_column_strict(lam, mu)
        h = [_to_sympy(h_of_tableau(T, mu), xs) for T in tabs]
        reduced = [basis.reduce(p)[1].as_dict() for p in h]
        monomials = sorted({m for r in reduced for m in r})
        columns = sympy.Matrix([[r.get(m, 0) for r in reduced] for m in monomials])
        # the reduced h_T are independent, so this left inverse gives the
        # unique coordinates of any vector in their span
        left_inverse = (columns.T * columns).inv() * columns.T
        got_tabs, tensor = structure_constants(lam, mu)
        assert got_tabs == tabs
        for i in range(len(tabs)):
            for j in range(i, len(tabs)):
                product = basis.reduce(h[i] * h[j])[1].as_dict()
                assert set(product) <= set(monomials), (lam, mu, i, j)
                target = sympy.Matrix([product.get(m, 0) for m in monomials])
                coords = left_inverse * target
                assert columns * coords == target, (lam, mu, i, j)
                expected = {
                    k: Fraction(int(c.p), int(c.q)) for k, c in enumerate(coords) if c
                }
                assert tensor[(i, j)] == expected, (lam, mu, i, j)
                products += 1
        keys += 1
    assert (keys, products) == (37, 798)
