"""An independent presentation for two-row Jordan types.

Let lam have parts in {1, 2}, k of them 2, so that its Jordan type
lam^T is (d - k, k).  Then the H ideal of (lam, 1^d) in the coinvariant
algebra C is (x_1^2, ..., x_d^2) + C_{>k}: for k = d/2 this is
Khovanov's presentation of the (n, n) Springer fiber ("Crossingless
matchings and the cohomology of (n,n) Springer varieties", Commun.
Contemp. Math. 6, 2004), and Stroppel and Webster give every two-row
type ("2-block Springer fibers: convolution algebras and coherent
sheaves", Comment. Math. Helv. 87, 2012).  oracles.ideal_by_squares
builds that ideal without the paper's families, and the tests compare:
  - the ideal spaces of (lam, 1^d), degree by degree;
  - for mu with parts at most 2, the Hilbert series of (lam, mu) with the
    S_mu-anti-invariant dimensions of C modulo that ideal, shifted by
    d_mu, which runs the push-forward on an ideal the families never
    build.  A pair is non-empty exactly when it is valid here: mu with j
    parts 2 has d - j parts, at least the d - k of lam, exactly when
    j <= k, and that is when lam dominates mu sorted.
"""

from oracles import anti_invariant_dim_by_equations, ideal_by_squares
from spaltenstein.coinvariant import get_ring
from spaltenstein.presentation import build_quotient, clear_caches
from spaltenstein.symring import BlockStructure
from spaltenstein.tableaux import Composition, Partition, compositions

D_MAX = 7


class _StandIn:
    """The ideal_space interface of a quotient, over oracle spaces."""

    def __init__(self, spaces):
        self.spaces = spaces

    def ideal_space(self, t):
        return self.spaces[t] if t < len(self.spaces) else None


def _two_row_lams(d):
    """(lam, k) for lam = 2^k 1^(d-2k), k = 0..d/2."""
    return [(Partition((2,) * k + (1,) * (d - 2 * k)), k) for k in range(d // 2 + 1)]


def test_regular_ideal_is_squares_and_degree_cut():
    for d in range(1, D_MAX + 1):
        for lam, k in _two_row_lams(d):
            q = build_quotient(lam, Composition((1,) * d))
            oracle = ideal_by_squares(d, k)
            for t in range(q.stop_x + 1):
                assert q.ideal_space(t).pivot_rows == oracle[t].pivot_rows, (lam, t)


def test_hilbert_series_is_anti_invariant_dimension():
    clear_caches()
    pairs = 0
    for d in range(1, D_MAX + 1):
        ring = get_ring(d)
        for lam, k in _two_row_lams(d):
            stand_in = _StandIn(ideal_by_squares(d, k))
            for n in range(d - k, d + 1):
                for parts in compositions(d, n):
                    if 0 in parts or max(parts) > 2:
                        continue
                    # the padded pair first, so the key's core is its build
                    for mu in (Composition((0,) + parts), Composition(parts)):
                        q = build_quotient(lam, mu)
                        transpositions = BlockStructure(mu).transpositions()
                        for t in range(q.stop_x + 1):
                            anti = anti_invariant_dim_by_equations(
                                ring, stand_in, transpositions, t + q.d_mu
                            )
                            assert q.hilbert.coefficient(2 * t) == anti, (lam, mu, t)
                    pairs += 1
    assert pairs == 110
