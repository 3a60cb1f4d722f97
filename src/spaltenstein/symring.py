"""Sparse exact polynomials in x_1..x_d with block symmetric functions.

Coefficients are arbitrary-precision rationals and every x_i sits in
degree 2.  A polynomial is a map from exponent tuples of length d to
non-zero Fractions, for example ``{(1, 0): Fraction(2)}`` is 2*x_1 in two
variables.  Terms serialise in graded-lex order: increasing total degree,
and within a degree decreasing lexicographic exponent tuple.

The blocks X_j of a composition mu partition the variables into
consecutive runs of lengths mu_1, ..., mu_n, and e_r(mu; S), h_r(mu; S)
are the elementary and complete symmetric functions of the variables in
the union of the blocks indexed by S.  Both are 1 for r = 0 and 0 for
r < 0.
"""

from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from operator import index


def _as_fraction(c):
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"coefficient {c!r} is not rational")


def term_sort_key(exps):
    return (sum(exps), tuple(-e for e in exps))


class Polynomial:
    """Sparse multivariate polynomial over Q, graded with deg(x_i) = 2."""

    __slots__ = ("d", "terms")

    def __init__(self, d, terms=None):
        clean = {}
        for exps, c in (terms or {}).items():
            c = _as_fraction(c)
            if c == 0:
                continue
            exps = tuple(map(index, exps))
            if len(exps) != d or any(e < 0 for e in exps):
                raise ValueError(f"bad exponent vector {exps} for d={d}")
            clean[exps] = c
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    def __reduce__(self):
        return Polynomial, (self.d, self.terms)

    @classmethod
    def zero(cls, d):
        return cls(d, {})

    @classmethod
    def one(cls, d):
        return cls(d, {(0,) * d: Fraction(1)})

    @classmethod
    def variable(cls, d, i):
        """x_i, 1-indexed."""
        if not 1 <= i <= d:
            raise ValueError(f"variable index {i} out of range 1..{d}")
        exps = [0] * d
        exps[i - 1] = 1
        return cls(d, {tuple(exps): Fraction(1)})

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.d == other.d
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.d, frozenset(self.terms.items())))

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            if other.d != self.d:
                raise ValueError("polynomials live in different variable counts")
            return other
        return Polynomial(self.d, {(0,) * self.d: _as_fraction(other)})

    def __add__(self, other):
        other = self._coerce(other)
        terms = dict(self.terms)
        for exps, c in other.terms.items():
            s = terms.get(exps, 0) + c
            if s:
                terms[exps] = s
            else:
                terms.pop(exps, None)
        return Polynomial(self.d, terms)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.d, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            c = _as_fraction(other)
            return Polynomial(self.d, {e: c * v for e, v in self.terms.items()})
        other = self._coerce(other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return Polynomial(self.d, out)

    __rmul__ = __mul__

    def degree(self):
        """Top grading degree (2 per exponent unit); -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return 2 * max(sum(e) for e in self.terms)

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda item: term_sort_key(item[0]))

    def __str__(self):
        if not self.terms:
            return "0"
        pieces = []
        for exps, c in self.sorted_terms():
            mono = "*".join(
                f"x{i + 1}" + (f"^{e}" if e > 1 else "")
                for i, e in enumerate(exps)
                if e
            )
            if mono:
                pieces.append(f"{c}*{mono}" if c != 1 else mono)
            else:
                pieces.append(str(c))
        return " + ".join(pieces)

    def to_json(self):
        return [
            {"coeff": f"{c.numerator}/{c.denominator}", "exps": list(exps)}
            for exps, c in self.sorted_terms()
        ]


class BlockStructure:
    """The variable blocks X_j = {x_k : mu_1+...+mu_{j-1} < k <= mu_1+...+mu_j}."""

    __slots__ = ("mu", "d", "_starts")

    def __init__(self, mu):
        starts = [0]
        for p in mu.parts:
            starts.append(starts[-1] + p)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "d", starts[-1])
        object.__setattr__(self, "_starts", tuple(starts))

    def __setattr__(self, name, value):
        raise AttributeError("BlockStructure is immutable")

    def block(self, j):
        """Variable indices (1-indexed) of block j."""
        if not 1 <= j <= len(self.mu):
            raise ValueError(f"block index {j} out of range 1..{len(self.mu)}")
        return tuple(range(self._starts[j - 1] + 1, self._starts[j] + 1))

    def union(self, subset):
        vars_ = []
        for j in sorted(set(subset)):
            vars_.extend(self.block(j))
        return tuple(vars_)

    def transpositions(self):
        """Adjacent transpositions (k, k+1) inside blocks, generating S_mu."""
        pairs = []
        for j in range(1, len(self.mu) + 1):
            blk = self.block(j)
            pairs.extend((blk[t], blk[t + 1]) for t in range(len(blk) - 1))
        return pairs


def _sym_from_vars(d, vars_, r, elementary):
    if r < 0:
        return Polynomial.zero(d)
    if r == 0:
        return Polynomial.one(d)
    chooser = combinations if elementary else combinations_with_replacement
    terms = {}
    for chosen in chooser(vars_, r):
        exps = [0] * d
        for v in chosen:
            exps[v - 1] += 1
        terms[tuple(exps)] = Fraction(1)
    return Polynomial(d, terms)


def elementary_block(mu, subset, r):
    """e_r of the variables in the union of the blocks indexed by subset."""
    if not subset:
        raise ValueError("subset of block indices must be non-empty")
    blocks = BlockStructure(mu)
    return _sym_from_vars(blocks.d, blocks.union(subset), r, elementary=True)


def complete_block(mu, subset, r):
    """h_r of the variables in the union of the blocks indexed by subset."""
    if not subset:
        raise ValueError("subset of block indices must be non-empty")
    blocks = BlockStructure(mu)
    return _sym_from_vars(blocks.d, blocks.union(subset), r, elementary=False)


def check_permutation(w, d):
    w = tuple(map(index, w))
    if len(w) != d or sorted(w) != list(range(1, d + 1)):
        raise ValueError(f"{w} is not a permutation of 1..{d}")
    return w


def permute(w, p):
    """The algebra automorphism sending x_i to x_{w(i)}."""
    w = check_permutation(w, p.d)
    terms = {}
    for exps, c in p.terms.items():
        out = [0] * p.d
        for i, e in enumerate(exps):
            out[w[i] - 1] = e
        terms[tuple(out)] = c
    return Polynomial(p.d, terms)


def transposition(d, i, j):
    """The permutation exchanging i and j."""
    w = list(range(1, d + 1))
    w[i - 1], w[j - 1] = j, i
    return tuple(w)


def is_invariant(mu, p):
    """Whether p is fixed by every generator of S_mu."""
    blocks = BlockStructure(mu)
    return all(
        permute(transposition(p.d, i, j), p) == p
        for i, j in blocks.transpositions()
    )
