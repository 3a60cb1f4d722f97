"""Independent oracle for the Hilbert series of the H quotient.

The H ideal is generated in the full ring Q[x_1..x_d], a grevlex Groebner
basis is taken with sympy, and the standard monomials are counted by
degree.  Q[x] is free over the S_mu-invariants with Hilbert series the
product of the [mu_i]_q!, so dividing by that product gives the Hilbert
series of the quotient of the invariants, without the coinvariant
compression and without RowSpace.
"""

from itertools import combinations, combinations_with_replacement

import pytest

from spaltenstein.presentation import build_quotient
from spaltenstein.tableaux import dominance_leq, iter_pairs

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


def test_groebner_hilbert_series_d4():
    q = sympy.Symbol("q")
    keys = 0
    for lam, mu in iter_pairs(4):
        if not mu.size() or 0 in mu.parts or not dominance_leq(mu.sorted(), lam):
            continue
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
