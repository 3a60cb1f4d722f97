"""Test oracles shared by several test modules."""

from fractions import Fraction
from itertools import combinations
from math import factorial, prod

from spaltenstein.symring import BlockStructure, Polynomial


def block_antisymmetrizer(mu):
    """Oracle for CoinvariantRing.antisymmetrizer_class, by polynomial
    arithmetic: the product of x_i - x_j over pairs i < j in a common
    block, scaled by 1/|S_mu|.

    This element is homogeneous of degree twice the half-sum of
    mu_i*(mu_i - 1) and alternates under S_mu; it generates the
    anti-invariants as a rank-one module over the invariants.
    """
    blocks = BlockStructure(mu)
    d = blocks.d
    out = Polynomial.one(d)
    for j in range(1, len(mu) + 1):
        for a, b in combinations(blocks.block(j), 2):
            out = out * (Polynomial.variable(d, a) - Polynomial.variable(d, b))
    return out * Fraction(1, prod(factorial(p) for p in mu.parts))
