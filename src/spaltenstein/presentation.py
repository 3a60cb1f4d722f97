"""Graded quotient presentations and the tableau basis.

For a pair (lam, mu) with |lam| = |mu| = d, the quotient is the algebra
of S_mu-invariant polynomials modulo the ideal generated by one of two
truncated families of block symmetric functions:

  H family:  h_r(mu; i_1..i_m)  for  r > lam_1+...+lam_m - mu_{i_1}-...-mu_{i_m}
  E family:  e_r(mu; i_1..i_m)  for  r > mu_{i_1}+...+mu_{i_m} - lam_{l+1}-...-lam_n,
             l the number of non-zero parts of mu outside the index set.

Both families contain every full symmetric function of positive degree
(the bound for the full index set is zero), so the quotient is computed
inside the coinvariant algebra: the ideal grows degree by degree through
multiplication by single variables, from only the members that can be
non-zero there (vanishing-range lemma in _generator_items).  Degrees
above twice (d_lam - d_mu) are verified to vanish on a window as wide as
the second-largest part of mu, which forces vanishing in all higher
degrees: the invariants are generated by the block functions of every
block but the largest (last-block lemma in GradedQuotient._build).  In
that window each degree stops once its ideal rank reaches the ceiling
that the quotient dimensions below give it, and multiplies each row
only by the variables its mark allows, completing the products where
that falls short (cap lemma in GradedQuotient._build).

The paper's theorem says the two families cut out one ideal; the
library checks that (rel_equivalence) and never assumes it.  Still, one
build makes both families of a key: the products x_v * I_{t-1} depend on
I_{t-1} only, so each degree forms them once per distinct ideal below,
and each family extends them by its own generators (shared products in
GradedQuotient._build).

The quotient dimensions are read off the ideal ranks: the coinvariant
algebra is free over its S_mu-invariants, with Hilbert series
P_mu(q) = prod_j [mu_j]_q!, so each dimension is dim C_t - rank I_t
less the lower dimensions weighted by P_mu (Hilbert lemma in
GradedQuotient._build).  The one isotypic pass, _transfer_ranks, serves
the transfer only: in each degree it reads the invariant rows, memoised
on the ring by invariant_rows, once.  eps times a row, modulo the
regular ideal, spans the anti-invariants of the regular quotient (eps
lemma), and the row itself, modulo the block ideal, spans the
invariants of the quotient, whose rank the kernel check compares with
the divided quotient dimension.

All computations are exact.  The x-degree of a polynomial is half its
grading degree; public interfaces use the grading degree throughout.
"""

from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import comb, factorial, lcm
from operator import index, mul

from .coinvariant import _RINGS, get_ring, invariant_rows
from .linalg import RowSpace
from .symring import (
    BlockStructure,
    Polynomial,
    complete_block,
    elementary_block,
    is_invariant,
)
from .tableaux import (
    _KEYS,
    _LATEST,
    Composition,
    Partition,
    _check_sizes,
    _key_chains,
    _key_fillings,
    _member_chain,
    _relabelling,
    count_column_strict,
    dims,
    enumerate_column_strict,
    shared,
    zero_free_key,
)


class VerificationError(Exception):
    """A mathematical consistency check failed; carries a witness."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness or {}


class TruncationError(VerificationError):
    pass


class BasisError(VerificationError):
    pass


class TransferError(VerificationError):
    pass


class HilbertSeries:
    """Graded dimensions supported in even degrees, exact integers."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        coeffs = tuple(map(index, coeffs))
        while coeffs and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        if any(c < 0 for c in coeffs):
            raise ValueError("negative coefficient in a Hilbert series")
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("HilbertSeries is immutable")

    def coefficient(self, degree):
        if degree < 0 or degree % 2:
            return 0
        k = degree // 2
        return self.coeffs[k] if k < len(self.coeffs) else 0

    def total(self):
        return sum(self.coeffs)

    def top_degree(self):
        return 2 * (len(self.coeffs) - 1) if self.coeffs else -1

    def __eq__(self, other):
        return isinstance(other, HilbertSeries) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"HilbertSeries({list(self.coeffs)})"

    def __reduce__(self):
        return HilbertSeries, (self.coeffs,)

    def to_json(self):
        return list(self.coeffs)


def _validate_pair(lam, mu):
    """(len(mu), d) of a valid pair; else TypeError, or ValueError worded
    as the command line's usage error: sizes first, then height."""
    if not isinstance(lam, Partition) or not isinstance(mu, Composition):
        raise TypeError("expected (Partition, Composition)")
    n = len(mu)
    _check_sizes(lam, mu)
    if lam.height() > n:
        raise ValueError(f"lambda has more than {n} parts")
    return n, mu.size()


class _Record:
    """An immutable record of the fields named in __slots__, in that order;
    equal and hashed as the tuple of its field values."""

    __slots__ = ()

    def _init(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        return type(other) is type(self) and self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._values()


class GeneratorFamily(_Record):
    """The members of one family up to max_degree; entries is a tuple of
    (subset, r, Polynomial)."""

    __slots__ = ("family", "lam", "mu", "max_degree", "entries")

    def __init__(self, family, lam, mu, max_degree, entries):
        self._init(family, lam, mu, max_degree, entries)

    def to_json(self):
        return {
            "family": self.family,
            "lambda": self.lam.to_json(),
            "mu": self.mu.to_json(),
            "max_degree": self.max_degree,
            "entries": [
                {"subset": list(s), "r": r, "poly": p.to_json()}
                for s, r, p in self.entries
            ],
        }


def generators(lam, mu, family="H", max_degree=None):
    """All family members of grading degree at most max_degree.

    Entries are ordered by subset size, then subset, then r.  max_degree
    defaults to 2*(d_lam - d_mu) + 2.
    """
    _validate_pair(lam, mu)
    if max_degree is None:
        d_lam, d_mu = dims(lam, mu)
        max_degree = max(2 * (d_lam - d_mu) + 2, 0)
    if family not in ("H", "E"):
        raise ValueError(f"unknown family {family!r}")
    builder = complete_block if family == "H" else elementary_block
    entries = tuple(
        (subset, r, builder(mu, subset, r))
        for subset, r in _generator_items(lam, mu, family, max_degree // 2)
    )
    return GeneratorFamily(family, lam, mu, max_degree, entries)


def _generator_items(lam, mu, family, max_xdeg, in_coinvariants=False):
    """The (subset, r) of the family members of x-degree at most max_xdeg,
    ordered by subset size, then subset, then r.  By default, the members
    as polynomials in Q[x] (generators): every non-empty subset S of the
    indices of mu, and every r > b(S), the bound of the module docstring.
    With in_coinvariants, for the build, which reads them in the
    coinvariant algebra C of S_d, only the members that can be non-zero
    there: the subsets of the non-zero blocks (zero-block lemma in
    GradedQuotient), each with the r of its vanishing range.

    The bounds, from one running sum: let tails[j] = lam_{j+1} + ... +
    lam_n (n = len(mu)), |X_S| the sum of the parts of mu in S, and k the
    number of non-zero parts of mu.  With the ceiling c(S) = d - |X_S| for
    H and |X_S| for E, and the width w(S) = tails[|S|] for H and
    tails[k - z] for E, z the number of non-zero parts of mu in S, b(S) =
    c(S) - w(S): for H, lam_1 + ... + lam_|S| = d - tails[|S|], and for E
    the l of the module docstring is k - z.

    Vanishing-range lemma: in C, h_r(X) = 0 for r > d - |X| and e_r(X) = 0
    for r > |X| (vanishing lemma in coinvariant.CoinvariantRing.sym_classes),
    so the member (S, r) can be non-zero in C only for b(S) < r <= c(S),
    the w(S) degrees just below its ceiling.  The width is zero, and the
    range empty, for every subset of a size with tails[|S|] = 0, that is
    |S| >= len(lam), for H; and, as z = |S| over the non-zero blocks, with
    tails[k - |S|] = 0, that is |S| <= k - len(lam), for E.  E's one
    subset of size k, all the non-zero blocks, has a range ending at d,
    but its members e_r(x_1, ..., x_d) are the relations C is the quotient
    by, zero for every r >= 1.  So those sizes form no subset, and a
    subset whose range is empty adds no item, so the build forms no block
    union for it.  Q[x] has no such ceiling: there h_r(X) is not zero for
    any r, so generators keeps every member."""
    n, d, k = len(mu), mu.size(), len(mu._nonzero)
    weight = (0,) + mu.parts
    tails = [0] * (n + 1)
    for j in range(n - 1, -1, -1):
        tails[j] = tails[j + 1] + lam.part(j + 1)
    if not in_coinvariants:
        indices, sizes = range(1, n + 1), range(1, n + 1)
    else:
        # the sizes that can give a non-zero member (vanishing-range lemma)
        height = lam.height()
        indices = [i for i in range(1, n + 1) if weight[i]]
        if family == "H":
            sizes = range(1, min(height, k + 1))
        else:
            sizes = range(max(1, k - height + 1), k)
    items = []
    for size in sizes:
        for subset in combinations(indices, size):
            inside = [weight[i] for i in subset]
            if family == "H":
                ceiling, width = d - sum(inside), tails[size]
            else:
                ceiling, width = sum(inside), tails[k - size + inside.count(0)]
            top = min(max_xdeg, ceiling) if in_coinvariants else max_xdeg
            items += ((subset, r) for r in range(max(0, ceiling - width + 1), top + 1))
    return items


def _poincare(parts):
    """Coefficients of P_mu(q) = prod_j [mu_j]_q!, where [m]_q! = prod over
    i = 1..m of 1 + q + ... + q^(i-1): the Hilbert series of Q[x] as a
    free Q[x]^{S_mu}-module (Chevalley).  A zero part gives the factor 1,
    and the degree is d_mu."""
    coeffs = [1]
    for m in parts:
        for i in range(2, m + 1):
            out = [0] * (len(coeffs) + i - 1)
            for k, c in enumerate(coeffs):
                for j in range(k, k + i):
                    out[j] += c
            coeffs = out
    return coeffs


class GradedQuotient:
    """Per-degree presentation data for one (lam, mu, family) triple.

    Holds, for each x-degree t up to the verified stopping degree, the
    ideal row space inside the coinvariant algebra and the quotient
    dimension.  Quotient dimensions above the stopping degree are zero;
    this is forced by the verified vanishing window, not assumed.

    Its core, (stop_x, the ideal spaces, the Hilbert series, top_x, d_mu),
    comes from _build, which makes the cores of both families at once;
    tableaux.shared keeps the pair under "cores": it depends only on the
    zero-free key (lam, non-zero parts of mu in order).  Zero-block lemma:
    let mu' be mu with its zero parts deleted.
      - A zero block adds no variables, so every block union, the
        transpositions() of the blocks, the second-largest non-zero part
        m2 and the Poincare polynomial P_mu agree for all pairs of one
        key.  A zero part adds nothing to d_mu, and lam is part of the
        key, so d_mu, top_x = d_lam - d_mu and stop_x agree too: the core
        carries top_x and d_mu, and a pair whose key is kept reads them
        with it rather than recompute them (tableaux.dims).
      - Adding zero blocks to a subset raises the H bound (lam gains
        parts, the mu sum does not change) or leaves it unchanged, and
        leaves the E bound unchanged (the non-zero parts outside the
        subset and the tail of lam are the same).  So the subsets of the
        non-zero blocks alone give every (variables, r) generator but the
        zero-only ones: h_r(), e_r() with r > 0, which are zero vectors,
        and the unit e_0(), given by a subset of zero blocks only exactly
        when lam has more parts than mu'; then every pair of the key has
        a zero part and that unit.  _build reads the subsets of the
        non-zero blocks and adds that unit, so every pair of the key has
        one generator set per family; equal generator sets span equal
        ideals, and RowSpace is canonical, so the pivot_rows of each
        degree agree, and so do the quotient dimensions.

    A quotient whose key is kept reads its core and builds nothing else:
    it validates the pair and asks for the ring, and blocks, which only a
    build and the transfer read, is built on first read, from the
    immutable mu.
    """

    def __init__(self, lam, mu, family):
        if family not in ("H", "E"):
            raise ValueError(f"unknown family {family!r}")
        self.lam = lam
        self.mu = mu
        self.family = family
        _, self.d = _validate_pair(lam, mu)
        self.ring = get_ring(self.d)
        core = shared("cores", lam, mu, self._build)[family]
        self.stop_x, self._ideal, self.hilbert, self.top_x, self.d_mu = core

    @cached_property
    def blocks(self):
        """The BlockStructure of mu, built on first read."""
        return BlockStructure(self.mu)

    def _build(self):
        """The cores {"H": core, "E": core} of this pair, each core (stop_x,
        ideal spaces by x-degree, Hilbert series, top_x, d_mu), top_x and
        d_mu computed here once per key (zero-block lemma in
        GradedQuotient).  The generator classes are those of
        _generator_classes: only the members that can be non-zero in C,
        each block union once per degree, as inserting one vector twice
        cannot change a span.

        Degree t of a family is I_t = P_t + span G_t, with G_t the
        family's generator classes of degree t and P_t = sum_{v<d} x_v
        I_{t-1} (P_0 = 0).  Last-variable lemma: e_1 = 0 in the
        coinvariant algebra, so x_d b = -sum_{v<d} x_v b for every degree-r
        class b, hence x_d * I_{t-1} lies in P_t.  The classes of each
        block union come from its one cached sym_classes list, and each
        subset's union is formed once.  P_t extends an empty space by the
        products of the pivot rows of I_{t-1} by x_1..x_{d-1} (above top_x,
        first the marked ones: cap lemma), and I_t is
        P_t, or a copy of P_t extended by G_t where G_t raises the rank: by
        the order lemma of RowSpace the two calls give the canonical basis
        of I_t, and extend's order leaves little back-substitution.

        Shared products: P_t is a function of I_{t-1}, so each degree forms
        it once per distinct I_{t-1} object.  Where E's I_t equals H's (==
        on canonical RowSpaces), E keeps H's object, so at the next degree
        the two I_{t-1} are one object and P_{t+1} is formed once.  Each
        family is still the span of its own generators and its own
        products; nothing assumes that the families agree.

        Hilbert lemma: let R = C^{S_mu}, and let P_mu(q) = prod_j
        [mu_j]_q! (_poincare).
          - Freeness (Chevalley): Q[x] is a free Q[x]^{S_mu}-module on a
            homogeneous basis with Hilbert series P_mu.  Tensoring over
            Q[x]^{S_d} with Q keeps the basis, so C is a free R-module
            with the same series.
          - Reynolds: over Q the projector C -> R is R-linear and fixes
            the generators, which are S_mu-invariant; so it maps
            I = C * G onto R * G, and I_R = I meet R equals R * G, so
            I = C * I_R.
        So C/I = C tensor_R R/I_R is free over R/I_R with the same basis,
        and Hilb(C/I) = P_mu(q) * Hilb(R/I_R), where R/I_R is the
        quotient: its invariants (isotypic lemma in _transfer_ranks).  With
        F_t = dim C_t - rank I_t and P_mu[0] = 1, the coefficient of q^t
        reads H_t = F_t - sum_{k=1..t} P_mu[k] * H_{t-k}: H_t needs F_0..F_t
        only, the degrees the loop has built.  A negative H_t cannot
        occur for an ideal generated by invariants, and raises
        VerificationError.  Each degree checks H, then E, and every
        witness names its family.

        Cap lemma: as H_t >= 0, rank I_t <= cap_t = dim C_t - sum_{k>=1}
        P_mu[k] * H_{t-k}, with equality exactly when H_t = 0 (the
        Hilbert-driven stop of Traverso, "Hilbert functions and the
        Buchberger algorithm", J. Symb. Comput. 22, 1996).  So a subspace
        of I_t of rank cap_t is I_t.  Above top_x, where H_t must vanish,
        each family's inserts into degree t stop at its cap; P_t stops at
        the least cap of the families whose I_{t-1} it is, and a family
        whose cap P_t reaches takes P_t and inserts no generator.  The cap
        is read off ranks the build has computed, never off tableau
        counts, and a degree that does not vanish never reaches it.  A stop
        at dim C_t - betti_t instead would assume the theorem that the
        build certifies.
          - Marks: each pivot column of a degree is marked with the v of
            the product x_v b that gained it, or 1 for a generator.  Above
            top_x a degree first forms x_v b only for the v at or above
            the mark of b's pivot (v < d), in one batch as below top_x
            (after Gerdt and Blinkov's multiplicative variables, "Involutive
            bases of polynomial ideals", Math. Comput. Simul. 45, 1998).
            Nothing trusts that these products span P_t.
          - Completion: a family still below its cap after the marked
            products and its generators completes the shared P_t, once per
            distinct I_{t-1}, with the unmarked products, and extends it
            by its generators again.  So every degree is exactly P_t + G_t,
            and a degree that does not vanish raises TruncationError with
            its true dimension.
        Unlike inserting the products stage by stage, v by v, each degree
        stays one batch in descending-lead order, and the cap, not a
        pattern of the data, decides when it is complete.  Below top_x
        every product is formed and the cap is dim C_t.

        Last-block lemma: let A = R/I_R be the quotient, so H_t = dim A_t,
        and let m2 be the second-largest non-zero part of mu, or 1 when
        mu has one non-zero part.  Then A_t = 0 for the m2 degrees
        first_above <= t <= first_above + m2 - 1, with first_above =
        max(0, top_x + 1), forces A_t = 0 for every t >= first_above, so
        the build stops at stop_x = min(top, first_above + m2 - 1) (C is
        zero above top).
          - Reynolds surjection: Q[x]^{S_mu} is generated by the block
            functions e_k(X_j), 1 <= k <= mu_j (fundamental theorem, block
            by block), and over Q the S_mu-equivariant projection of Q[x]
            onto C maps Q[x]^{S_mu} onto R.  So the e_k(X_j) generate R.
          - Series inverse: with E_j(s) = sum_k e_k(X_j) s^k, the product
            of the E_j(s) over all blocks is sum_k e_k(x) s^k = 1 in C,
            since e_k(x) = 0 there for k >= 1.  Each E_j(s) has constant
            term 1, so it is invertible in R[[s]], and for the block j0 of
            the largest part E_j0(s) = prod_{j != j0} E_j(s)^{-1}: each
            e_k(X_j0) is an integer polynomial in the e's of the other
            blocks.  So R, and its quotient A, are generated in degrees
            1..m2 (R = Q when mu has one non-zero part).
          - Induction: for t >= first_above + m2, A_t is spanned by
            products g * a, g a generator of degree k in 1..m2 and a in
            A_{t-k}, with first_above <= t - k < t; so A_t = 0 once the
            lower degrees vanish.
        The regular quotient, mu = 1^d, has width 1."""
        ring = self.ring
        d_lam, d_mu = dims(self.lam, self.mu)
        top_x = d_lam - d_mu
        # the second-largest part of mu, at least 1 (last-block lemma)
        m2 = max([1, *sorted(self.mu.parts)[-2:-1]])
        first_above = max(0, top_x + 1)
        stop_x = min(ring.top, first_above + m2 - 1)
        gens_of = _generator_classes(self, stop_x)
        poincare = _poincare(self.mu.parts)
        ideals, marks, qdims = {"H": {}, "E": {}}, {"H": {}, "E": {}}, {"H": [], "E": []}

        def products(below, lows, marked):
            """(x_v b, v) for the pivot rows b of below and the v < d at or
            above the mark of b's pivot (marked) or below it (not marked)."""
            rows = below.pivot_rows
            return (
                (ring.apply_var(rows[c], v, t - 1), v)
                for c in rows
                for v in range(1, self.d)
                if (lows.get(c, 1) <= v) == marked
            )

        for t in range(stop_x + 1):
            full = ring.dim(t)
            window = t > top_x
            # dim C_t less the sum over k >= 1 of P_mu[k] * H_{t-k} (cap lemma)
            ceilings = {
                f: full - sum(map(mul, poincare[1:], reversed(q))) for f, q in qdims.items()
            }
            caps = ceilings if window else dict.fromkeys(ceilings, full)
            # [I_{t-1}, P_t or its marked part, its marks, complete] per object
            spans = []
            for family, ideal in ideals.items():
                below = ideal.get(t - 1)
                lows = marks[family].get(t - 1) if window else {}
                # a span at the cap of a family whose I_{t-1} is below is P_t
                span_cap = min(caps[f] for f in ideals if ideals[f].get(t - 1) is below)
                entry = next((e for e in spans if e[0] is below), None)
                if entry is None:
                    span, span_marks = RowSpace(full), {}
                    if below is not None:
                        span.extend(products(below, lows, True), span_cap, span_marks)
                    # degree 0 has no products: nothing to complete
                    complete = not window or below is None or span.rank >= span_cap
                    entry = [below, span, span_marks, complete]
                    spans.append(entry)
                _, span, span_marks, complete = entry
                gens = [(g, 1) for g in gens_of[family].get(t, ())]
                cap = caps[family]
                space, space_marks = _with_generators(span, span_marks, gens, cap)
                if space.rank < cap and not complete:
                    # completion: the unmarked products, once per I_{t-1}
                    span, span_marks = span.copy(), dict(span_marks)
                    span.extend(products(below, lows, False), span_cap, span_marks)
                    entry[1:] = span, span_marks, True
                    space, space_marks = _with_generators(span, span_marks, gens, cap)
                if family == "E" and space == ideals["H"][t]:
                    space, space_marks = ideals["H"][t], marks["H"][t]
                ideal[t] = space
                marks[family][t] = space_marks
                dim = ceilings[family] - space.rank
                if dim < 0:
                    raise VerificationError(
                        "negative quotient dimension from the Poincare division",
                        witness={
                            "lambda": self.lam.to_json(),
                            "mu": self.mu.to_json(),
                            "family": family,
                            "degree": 2 * t,
                            "ring_dimension": full,
                            "ideal_rank": space.rank,
                            "dimension": dim,
                        },
                    )
                qdims[family].append(dim)
        for family, qdim in qdims.items():
            for t in range(first_above, stop_x + 1):
                if qdim[t]:
                    raise TruncationError(
                        "quotient does not vanish above its top degree",
                        witness={
                            "lambda": self.lam.to_json(),
                            "mu": self.mu.to_json(),
                            "family": family,
                            "degree": 2 * t,
                            "dimension": qdim[t],
                        },
                    )
        top = max(top_x, -1) + 1
        return {
            f: (stop_x, ideals[f], HilbertSeries(qdims[f][:top]), top_x, d_mu)
            for f in ideals
        }

    def ideal_space(self, t):
        """Ideal row space at x-degree t; above the stop degree the quotient
        vanishes, so membership of invariant classes is automatic.  The
        space may be shared with other quotients: copy() it before any
        insert."""
        return self._ideal.get(t)

    def to_json(self):
        return {
            "lambda": self.lam.to_json(),
            "mu": self.mu.to_json(),
            "family": self.family,
            "hilbert": self.hilbert.to_json(),
            "top_degree": 2 * self.top_x,
            "total_dimension": self.hilbert.total(),
        }


def _generator_classes(quotient, stop_x):
    """{family: {t: generator classes of x-degree t}} of the quotient's key
    up to stop_x, for GradedQuotient._build: the members that can be
    non-zero in C (vanishing-range lemma in _generator_items), collected
    per family and degree as a set of block unions, keyed by (variables,
    r), in the order of their first member.  Each subset's union is formed
    once, and the classes of each union come from its one cached
    sym_classes list.  E adds the unit e_0() of a subset of zero blocks
    when lam has more parts than mu has non-zero ones (zero-block lemma in
    GradedQuotient)."""
    ring, lam, mu = quotient.ring, quotient.lam, quotient.mu
    union_of, gens_of = {}, {}
    for family, kind in (("H", "h"), ("E", "e")):
        by_deg = {}
        for subset, r in _generator_items(lam, mu, family, stop_x, True):
            vars_ = union_of.get(subset)
            if vars_ is None:
                vars_ = union_of[subset] = quotient.blocks.union(subset)
            by_deg.setdefault(r, {})[vars_] = None
        if family == "E" and lam.height() > len(mu._nonzero):
            by_deg.setdefault(0, {})[()] = None
        classes = {v: ring.sym_classes(v, kind) for v in set().union(*by_deg.values())}
        gens_of[family] = {t: [classes[v][t] for v in gens] for t, gens in by_deg.items()}
    return gens_of


def _with_generators(span, span_marks, gens, cap):
    """(space, its marks): span, or a copy of it extended by the (generator,
    mark) pairs gens up to cap where that raises the rank."""
    if gens and span.rank < cap:
        space, space_marks = span.copy(), dict(span_marks)
        if space.extend(gens, cap, space_marks):
            return space, space_marks
    return span, span_marks


def build_quotient(lam, mu, family="H"):
    return GradedQuotient(lam, mu, family)


def h_of_tableau(T, mu):
    """The basis element attached to a column-strict tableau, as an honest
    polynomial: the product over the reduction chain of T (tableaux._chain)
    of the complete symmetric functions h_{gamma_i} of each level's block.
    As in _h_class_chain, at level n each position c_i > i gives the factor
    h_{c_i - i}(X_n), since gamma_{k+1-i} = c_i - i."""
    return _h_of_chain(_member_chain(T, mu), mu)


def _h_of_chain(chain, mu):
    """h_of_tableau of the tableau of content mu whose reduction chain is
    chain; no validation."""
    out = Polynomial.one(mu.size())
    for n, level in zip(range(len(mu), 0, -1), chain):
        for i, c in enumerate(level, start=1):
            if c > i:
                out = out * complete_block(mu, (n,), c - i)
    return out


def _h_term_count(chain, mu):
    """The number of terms of _h_of_chain(chain, mu) without the
    expansion: the factors of level n are complete symmetric functions of
    the mu_n variables of block n, of total degree |gamma_n|, so their
    product has every monomial of that degree, C(|gamma_n| + mu_n - 1,
    mu_n - 1) of them, and no two blocks share a variable."""
    count = 1
    for k, level in zip(reversed(mu.parts), chain):
        if k:
            count *= comb(sum(level) - k * (k + 1) // 2 + k - 1, k - 1)
    return count


def _h_class_chain(ring, chain, mu, memo):
    """Class of h_of_tableau(T, mu) in the coinvariant algebra, for the
    tableau T of content mu whose reduction chain (tableaux._chain) is
    chain: from level 1 up, the product of h_{gamma_1}, h_{gamma_2}, ...
    of each level's block.  The class of levels 1..m depends only on
    those levels of the chain, so memo, one per content mu, maps each run
    of lower levels to its class, and the tableaux that share lower
    levels share their product.  The factors are the cached h tables
    (sym_classes).  The positions c_1 < c_2 < ... of a level start at 1,
    so c_i >= i, and the x-degree returned, the sum of the c_i - i over
    the levels, is the chain's degree (tableaux._chain_degree)."""
    vec, t = ring.unit(), 0
    key = ()
    base = 0
    for k, level in zip(mu.parts, reversed(chain)):
        key += (level,)
        hit = memo.get(key)
        if hit is None:
            vars_ = tuple(range(base + 1, base + k + 1))
            for i in range(k, 0, -1):
                s = level[i - 1] - i
                if s > 0:
                    vec = ring.mul_classes(vec, t, ring.sym_classes(vars_, "h")[s], s)
                    t += s
            memo[key] = (vec, t)
        else:
            vec, t = hit
        base += k
    return vec, t


class BasisCertificate:
    """A certified tableau basis with exact coordinate data.

    lam and mu are the pair of the tableaux, which the quotient may share
    only its zero-free key with.  degrees and classes list the basis
    position by position; for each x-degree with tableaux the augmented
    row space stores the ideal rows together with the tagged basis
    classes, which turns coordinate extraction into row reduction.

    tableaux, the basis in reading-word order, is built on first read:
    the key's kept fillings relabelled for (lam, mu), which by the
    relabelling lemma (enumerate_column_strict) are the pair's own
    tableaux, position by position with degrees and classes.  A caller
    that reads only the numbers relabels nothing.
    """

    def __init__(self, quotient, lam, mu, degrees, classes, coordinate_spaces):
        self.quotient = quotient
        self.lam = lam
        self.mu = mu
        self.degrees = degrees
        self.classes = classes
        self._spaces = coordinate_spaces

    @cached_property
    def tableaux(self):
        return enumerate_column_strict(self.lam, self.mu)

    def size(self):
        return len(self.degrees)

    def coordinates_of_class(self, vec, t):
        """Coordinates of a degree-2t invariant class in the basis.  A degree
        without tableaux reads the ideal space alone, with no tag columns;
        above stop_x there is none, and every invariant class lies in the
        ideal, since the quotient is verified to vanish there, so the
        result is {} whatever vec is (vanishing skip in _tensor_data).
        The class of basis element k has coordinates {k: 1}: its row is
        tagged k in the certified span (unit lemma in _tensor_data)."""
        space, indices = self._spaces.get(t) or (self.quotient.ideal_space(t), ())
        if space is None:
            return {}
        width = space.width - len(indices)
        scale, res = space.scaled_residual(vec)
        if any(k < width for k in res):
            raise BasisError(
                "class outside the certified span",
                witness={
                    "degree": 2 * t,
                    "residual": [str(Fraction(res.get(k, 0), scale)) for k in range(width)],
                },
            )
        return {
            idx: Fraction(-res[width + pos], scale)
            for pos, idx in enumerate(indices)
            if width + pos in res
        }

    def to_json(self):
        return {
            "lambda": self.lam.to_json(),
            "mu": self.mu.to_json(),
            "family": self.quotient.family,
            "hilbert": self.quotient.hilbert.to_json(),
            "basis": [T.to_json() for T in self.tableaux],
            "degrees": [2 * t for t in self.degrees],
            "certified": True,
        }


def certify_basis(lam, mu, family="H", quotient=None):
    """Check that the tableau classes are a basis of the quotient.

    Verifies both counting (the number of tableaux of each degree equals
    the quotient dimension) and linear independence modulo the ideal.
    Failure raises BasisError with a witness; success returns a
    BasisCertificate.

    A given quotient must have the zero-free key of (lam, mu) apart from
    the family (see GradedQuotient), else ValueError; family is ignored
    when a quotient is given, so the basis is certified against that
    quotient's own family.  The degrees, classes and coordinate spaces are
    kept by tableaux.shared under ("certificate", family).  Lemma
    (relabelling lemma in enumerate_column_strict): the order-preserving
    relabelling of the non-zero labels of mu maps the column-strict
    tableaux of one pair of a key onto those of another and keeps the
    reading-word order; a zero part of mu adds an empty level to the
    reduction chain, so the degrees and the h-classes agree position by
    position; both are read off the key's chains (tableaux._key_chains).
    So a call relabels no filling: it checks the number of the key's kept
    fillings, the pair's tableau count, against the shared data, and the
    certificate relabels its tableaux when they are first read.
    """
    if quotient is None:
        quotient = build_quotient(lam, mu, family)
    else:
        _check_keys(lam, mu, quotient)
    degrees, classes, spaces = shared(
        ("certificate", quotient.family), lam, mu,
        lambda: _certificate_data(lam, mu, quotient),
    )
    count = len(_key_fillings(lam, mu))
    if count != len(degrees):
        raise BasisError(
            "tableau count differs from the shared certificate",
            witness={
                "lambda": lam.to_json(),
                "mu": mu.to_json(),
                "tableaux": count,
                "shared": len(degrees),
            },
        )
    return BasisCertificate(quotient, lam, mu, degrees, classes, spaces)


def _check_keys(lam, mu, *quotients):
    """ValueError unless (lam, mu) is a valid pair and every quotient has
    its zero-free key; the pair is validated and keyed once."""
    _validate_pair(lam, mu)
    key = zero_free_key(lam, mu)
    for quotient in quotients:
        if zero_free_key(quotient.lam, quotient.mu) != key:
            raise ValueError(
                f"the quotient of ({quotient.lam}, {quotient.mu}) has another "
                f"zero-free key than ({lam}, {mu})"
            )


def _witness_tableau(lam, mu, idx):
    """The JSON of the pair's own tableau at position idx of the key's
    fillings: the one place the certificate data relabels a filling."""
    return _relabelling(mu)(_key_fillings(lam, mu)[idx]).to_json()


def _certificate_data(lam, mu, quotient):
    """(degrees, classes, coordinate spaces) of the basis of (lam, mu),
    read off the key's chains; a witness names the pair's own tableaux."""
    ring = quotient.ring
    key_mu = Composition(zero_free_key(lam, mu)[1])
    memo = {}
    degrees = []
    classes = []
    by_degree = {}
    for idx, chain in enumerate(_key_chains(lam, mu)):
        vec, t = _h_class_chain(ring, chain, key_mu, memo)
        degrees.append(t)
        classes.append(vec)
        by_degree.setdefault(t, []).append(idx)
    for t in range(max(quotient.top_x, -1) + 1):
        count = len(by_degree.get(t, []))
        if count != quotient.hilbert.coefficient(2 * t):
            raise BasisError(
                "tableau count does not match quotient dimension",
                witness={
                    "lambda": lam.to_json(),
                    "mu": mu.to_json(),
                    "degree": 2 * t,
                    "tableaux": count,
                    "dimension": quotient.hilbert.coefficient(2 * t),
                },
            )
    spaces = {}
    for t, indices in sorted(by_degree.items()):
        ideal = quotient.ideal_space(t)
        width = ring.dim(t)
        tags = len(indices)
        # the ideal rows are zero in the tag columns, so they stay canonical
        space = ideal.copy(width + tags) if ideal is not None else RowSpace(width + tags)
        space.extend({**classes[idx], width + pos: 1} for pos, idx in enumerate(indices))
        # a dependence modulo the ideal shows up as a pivot in the tag region;
        # its row (0, c) is a combination of inserted rows, so sum c_k class_k
        # lies in the ideal
        tag_pivot = min((c for c in space.pivot_rows if c >= width), default=None)
        if tag_pivot is not None:
            combo = space.pivot_rows[tag_pivot]
            raise BasisError(
                "tableau classes are dependent modulo the ideal",
                witness={
                    "degree": 2 * t,
                    "combination": {
                        str(_witness_tableau(lam, mu, indices[c - width])): combo[c]
                        for c in sorted(combo)
                    },
                },
            )
        spaces[t] = (space, indices)
    return degrees, classes, spaces


def normal_form(p, certificate):
    """Coordinates of an invariant polynomial in the certified basis.

    The polynomial must be S_mu-invariant; the result maps each tableau
    to an exact rational coefficient, omitting zeros.
    """
    mu = certificate.mu
    if p.d != mu.size():
        raise ValueError(f"polynomial has {p.d} variables, expected {mu.size()}")
    if not is_invariant(mu, p):
        raise ValueError("polynomial is not invariant under the block subgroup")
    ring = certificate.quotient.ring
    coords = {}
    for t, vec in ring.class_of_polynomial(p).items():
        for idx, c in certificate.coordinates_of_class(vec, t).items():
            coords[certificate.tableaux[idx]] = coords.get(certificate.tableaux[idx], 0) + c
    return {T: c for T, c in coords.items() if c}


# the most pairs i <= j of basis elements that structure_constants forms a
# tensor for: every d <= 6 key has at most 259,560, and (6)/(1^6) peaks at
# 115 MB; 2M pairs keep the peak near 1 GB (2 vCPUs, Python 3.11.7)
MAX_PAIRS = 2_000_000


def structure_constants(lam, mu):
    """Multiplication tensor of the certified H basis.

    Returns (tableaux, tensor) with tensor[(i, j)][k] the coefficient of
    basis element k in the product of elements i and j, as exact
    rationals.  The tensor is symmetric in (i, j), and tensor[(i, j)] is
    tensor[(j, i)].

    The tensor is kept packed (_tensor_data) by tableaux.shared under
    "tensor", and each call unpacks a fresh dict of dicts.  Lemma
    (relabelling lemma in certify_basis): the pairs of one zero-free key
    have the same classes, degrees and coordinate spaces position by
    position, so their tensors agree position by position.  Each distinct
    product of basis elements is formed at most once (product lemma in
    _tensor_data): none above stop_x, where the quotient vanishes
    (vanishing skip), and none that is itself a basis element b_k, whose
    coordinates are {k: 1} (unit lemma).

    A basis of n elements whose n(n+1)/2 pairs i <= j exceed MAX_PAIRS is
    refused with ValueError, before any certification or product; there is
    no override.  The ring is asked for first, so a d above
    coinvariant.MAX_D is refused as in regular_quotient, and n is counted
    (count_column_strict) only when d! exceeds the cap: a filling is
    determined by its reading word, a word of d letters with content mu,
    so n <= d!.
    """
    _, d = _validate_pair(lam, mu)
    get_ring(d)
    n = factorial(d)
    if n * (n + 1) // 2 > MAX_PAIRS:
        n = count_column_strict(lam, mu)
    if n * (n + 1) // 2 > MAX_PAIRS:
        raise ValueError(
            f"the tensor of ({lam}, {mu}) has {n * (n + 1) // 2} pairs of basis "
            f"elements, more than the cap of {MAX_PAIRS}"
        )
    certificate = certify_basis(lam, mu)
    tabs = certificate.tableaux
    packed = shared("tensor", lam, mu, lambda: _tensor_data(certificate))
    return tabs, _unpack_tensor(packed, len(tabs))


def _tensor_data(certificate):
    """The tensor of structure_constants, packed as (D, flat, numbers): flat
    one tuple of ints that lists, for each distinct product in order, the
    number m of its non-zero entries and then m pairs (k, D * entry), k
    increasing; D the lcm of the denominators of those entries; and
    numbers the tuple of the product number of each pair i <= j in order.
    Product 0 is the empty entry.  By tracemalloc, the packed tensor of
    (5)/(2,1,1,1) holds 20 kB, against 34 kB for one entry per pair.

    Product lemma: basis element i is the class of prod h_s(X_m)^c
    (_h_class_chain), so pairs whose exponent vectors (_exponent_codes)
    have equal sums have equal products, classes and coordinates.  Each sum
    gets its entry once, for all its pairs, and forms its product at most
    once:
      - Vanishing skip: a sum of degree t above stop_x gets the empty
        entry with no product, as coordinates_of_class reads no space
        there.  A window sum, top_x < t <= stop_x, still forms its
        product, which coordinates_of_class checks against the bare
        ideal space, raising on an escape.
      - Unit lemma: the exponent vectors of a certified basis are
        distinct, as equal vectors give equal classes, which the
        independence check of certify_basis rejects (a repeat raises
        BasisError, naming both positions).  When e_i + e_j =
        e_k, b_i * b_j is the class of the monomial of b_k, which is
        tagged row k of the certified span, so its coordinates are
        {k: 1}, with no product formed.
    Every other sum forms its product and reads its coordinates."""
    quotient = certificate.quotient
    ring, stop_x = quotient.ring, quotient.stop_x
    classes, degrees = certificate.classes, certificate.degrees
    lam, mu = certificate.lam, certificate.mu
    codes = _exponent_codes(_key_chains(lam, mu), zero_free_key(lam, mu)[1])
    basis = {code: k for k, code in enumerate(codes)}
    if len(basis) != len(codes):
        i = next(i for i, code in enumerate(codes) if basis[code] != i)
        raise BasisError(
            "equal exponent vectors in a certified basis",
            witness={
                "lambda": lam.to_json(), "mu": mu.to_json(), "positions": [i, basis[codes[i]]],
            },
        )
    entries = [{}]
    product_of = {}
    numbers = []
    for i, (code_i, t_i) in enumerate(zip(codes, degrees)):
        for j in range(i, len(codes)):
            code = code_i + codes[j]
            p = product_of.get(code)
            if p is None:
                t = t_i + degrees[j]
                if t > stop_x:
                    entry = {}
                elif code in basis:
                    entry = {basis[code]: 1}
                else:
                    product = ring.mul_classes(classes[i], t_i, classes[j], degrees[j])
                    entry = certificate.coordinates_of_class(product, t)
                p = product_of[code] = len(entries) if entry else 0
                if entry:
                    entries.append(entry)
            numbers.append(p)
    denom = lcm(*(c.denominator for entry in entries for c in entry.values()))
    flat = []
    for entry in entries:
        flat.append(len(entry))
        for k in sorted(entry):
            flat += (k, entry[k].numerator * (denom // entry[k].denominator))
    return denom, tuple(flat), tuple(numbers)


def _exponent_codes(chains, parts):
    """Exponent vectors of the basis, in the order of the key's chains (parts
    of mu'): the power of each h_s(X_m) of _h_class_chain, one slot per
    (m, s), or one, the power of x, for X_m = {x}: h_a(x) h_b(x) = h_{a+b}(x).
    Each vector is one int, its mixed-radix code sum_s e_s R^s with R =
    2 * (the largest power in the basis) + 1: a sum of two powers is below
    R, so code(e) + code(f) = code(e + f) with no carry, and equal codes
    are equal vectors."""
    rows = [{} for _ in chains]
    for row, chain in zip(rows, chains):
        for m, (k, level) in enumerate(zip(parts, reversed(chain))):
            for i, c in enumerate(level, start=1):
                if c > i:
                    slot, power = ((m, 0), c - i) if k == 1 else ((m, c - i), 1)
                    row[slot] = row.get(slot, 0) + power
    slots = sorted({slot for row in rows for slot in row})
    radix = 2 * max((e for row in rows for e in row.values()), default=0) + 1
    codes = []
    for row in rows:
        code = 0
        for slot in slots:
            code = code * radix + row.get(slot, 0)
        codes.append(code)
    return codes


def _unpack_tensor(packed, size):
    """The tensor packed by _tensor_data, as a fresh dict of dicts: each
    distinct product's entry is built once, and each pair i <= j gets its
    own copy, which (j, i) shares.  Equal entries share one Fraction, which
    is immutable."""
    denom, flat, numbers = packed
    fractions = {}
    entries = []
    pos = 0
    while pos < len(flat):
        end = pos + 1 + 2 * flat[pos]
        entry = {}
        for p in range(pos + 1, end, 2):
            c = fractions.get(flat[p + 1])
            if c is None:
                c = fractions[flat[p + 1]] = Fraction(flat[p + 1], denom)
            entry[flat[p]] = c
        entries.append(entry)
        pos = end
    copies = iter([entries[p].copy() for p in numbers])
    tensor = {}
    for i in range(size):
        for j in range(i, size):
            tensor[(i, j)] = tensor[(j, i)] = next(copies)
    return tensor


def rel_equivalence(lam, mu, qh=None, qe=None):
    """Whether the H and E families cut out the same ideal degreewise.

    Each ideal_space(t) is a RowSpace in canonical form (the unique
    reduced echelon basis of the span), so two ideal spaces are equal
    exactly when they compare equal with ==, which reads the stored rows.
    The stopping degree stop_x depends only on the zero-free key of (lam,
    mu), and above it both quotients are verified to vanish.  So the
    families are equivalent exactly when they have equal ideal spaces in
    every degree up to stop_x; equal Hilbert series follow.  Both
    quotients keep their spaces in one dict each, holding exactly the
    degrees 0..stop_x of the one key, so one == of the two dicts compares
    them degree by degree; dict equality tests identity before ==, so it
    reads no row where the E quotient keeps the H quotient's object
    (shared products in GradedQuotient._build).

    qh must be an H quotient and qe an E quotient, both of the zero-free
    key of (lam, mu), else ValueError; the pair is validated once, and
    both quotients are checked against its one key.
    """
    if qh is None:
        qh = build_quotient(lam, mu, "H")
    if qe is None:
        qe = build_quotient(lam, mu, "E")
    if (qh.family, qe.family) != ("H", "E"):
        raise ValueError(f"expected an H and an E quotient, got {qh.family} and {qe.family}")
    _check_keys(lam, mu, qh, qe)
    return qh._ideal == qe._ideal


def regular_quotient(lam, d):
    """The H quotient of the regular composition (1, ..., 1) of d, asked
    for as the padded pair (lam, (1, ..., 1, 0)): by the zero-block lemma
    it has the core of (lam, 1^d), and having a zero part, it keeps that
    core in tableaux._KEYS (storage rule of shared), so the core is built
    once per (d, lam) and never takes the one-key slot from another
    pair.  It asks for the ring first, so a d above coinvariant.MAX_D is
    refused with ValueError before the d parts of (1, ..., 1) are built."""
    get_ring(d)
    return GradedQuotient(lam, Composition((1,) * d + (0,)), "H")


def clear_caches():
    """Empty every module-level cache of the library.

    Policy: caches are per process and grow without bound until this is
    called.  Each is keyed as documented where it is defined: coinvariant
    rings by d (_RINGS), each with its own tables, invariant rows
    included; everything shared across the pairs of one zero-free key by
    (key, kind) (tableaux._KEYS), the regular cores included; and the
    value of the last zero-free pair by kind (tableaux._LATEST, one key
    per kind).  The last two are written only by tableaux.shared.  The
    values are read-only.  Objects built before the call stay valid;
    later builds start cold and give equal results.
    """
    for cache in (_RINGS, _KEYS, _LATEST):
        cache.clear()


class TransferReport(_Record):
    """The verified data of anti_invariant_transfer for (lam, mu)."""

    __slots__ = ("lam", "mu", "shift", "degrees", "anti_dims", "quotient_dims")

    def __init__(self, lam, mu, shift, degrees, anti_dims, quotient_dims):
        self._init(lam, mu, shift, degrees, anti_dims, quotient_dims)

    def to_json(self):
        return {
            "lambda": self.lam.to_json(),
            "mu": self.mu.to_json(),
            "shift": self.shift,
            "degrees": list(self.degrees),
            "anti_dims": list(self.anti_dims),
            "quotient_dims": list(self.quotient_dims),
            "certified": True,
        }


def anti_invariant_transfer(lam, mu):
    """Verify the algebraic shadow of the push-forward isomorphism: the
    H quotient of (lam, mu) is the sign-isotypic part of the regular
    quotient of lam under S_mu, shifted by twice d_mu.

    One pass per degree t (_transfer_ranks) reads, on the invariant
    classes v of degree t, the ranks of phi(v) = eps * v modulo the
    regular ideal, of psi(v) = v modulo the block ideal, and of (phi, psi),
    and requires all three equal to the quotient dimension H_t (two
    eliminations: projection lemma in _transfer_ranks):
    (a) well-definedness: v * eps lies in the regular ideal exactly when
        v lies in the block ideal (rank lemma in _transfer_ranks);
    (b) rank phi, the anti-invariant dimension of the regular quotient in
        degree t + d_mu (eps lemma in _transfer_ranks), is H_t, the block
        quotient dimension after the degree shift by twice d_mu.

    The verified (shift, degrees, anti_dims, quotient_dims) is kept by
    tableaux.shared under "transfer", and each call returns it with its
    own lam and mu; a call whose key is kept validates the pair and builds
    nothing.  Lemma: a zero block adds no variables and no block pairs,
    so d_mu, eps, the invariant rows (one transposition set), the H core
    (zero-block lemma in GradedQuotient) and regular_quotient(lam, d)
    agree across the key, and so does every number the check computes.

    Any failure raises TransferError with the offending degree and stores
    nothing.
    """
    _, d = _validate_pair(lam, mu)
    data = shared("transfer", lam, mu, lambda: _transfer_data(lam, mu, d))
    return TransferReport(lam, mu, *data)


def _transfer_data(lam, mu, d):
    """The checks (a) and (b) of anti_invariant_transfer on the H quotient
    of (lam, mu) against the regular quotient of lam; returns (shift,
    degrees, anti_dims, quotient_dims), anti_dims the ranks phi.

    Degree bound: the degrees t run up to max(top_x, reg.stop_x - d_mu),
    past which both sides vanish, and that is at most stop_x, so every
    degree has a block ideal space.  With top = C(d, 2) the top degree of
    C, top_x = d_lam - d_mu <= d_lam <= top, and stop_x = min(top,
    max(0, top_x + 1) + m2 - 1) with m2 >= 1 (last-block lemma in
    GradedQuotient._build), so top_x <= stop_x; the regular quotient has
    d_mu = 0 and m2 = 1, so reg.stop_x - d_mu = min(top - d_mu, top_x + 1)
    <= min(top, top_x + 1) <= stop_x.
    """
    reg = regular_quotient(lam, d)
    quotient = build_quotient(lam, mu, "H")
    ring = quotient.ring
    d_mu = quotient.d_mu
    pairs = [p for j in range(1, len(mu) + 1) for p in combinations(quotient.blocks.block(j), 2)]
    # x-degree len(pairs), the sum of C(mu_j, 2), which is d_mu
    eps_vec, _ = ring.antisymmetrizer_class(pairs)

    degrees = range(max(quotient.top_x, reg.stop_x - d_mu, -1) + 1)
    anti_dims = []
    quotient_dims = []
    for t in degrees:
        a_dim, psi, both = _transfer_ranks(ring, quotient, reg, eps_vec, d_mu, t)
        q_dim = quotient.hilbert.coefficient(2 * t)
        if a_dim != q_dim:
            raise TransferError(
                "anti-invariant dimension mismatch",
                witness={
                    "lambda": lam.to_json(),
                    "mu": mu.to_json(),
                    "degree": 2 * t,
                    "anti_dim": a_dim,
                    "quotient_dim": q_dim,
                },
            )
        if not a_dim == psi == both:
            raise TransferError(
                "multiplication by the antisymmetrizer has the wrong kernel",
                witness={"lambda": lam.to_json(), "mu": mu.to_json(), "degree": 2 * t},
            )
        anti_dims.append(a_dim)
        quotient_dims.append(q_dim)
    return 2 * d_mu, tuple(2 * t for t in degrees), tuple(anti_dims), tuple(quotient_dims)


def _transfer_ranks(ring, quotient, reg, eps_vec, d_mu, t):
    """(rank phi, rank psi, rank (phi, psi)) on the invariant classes v of
    degree t, with phi(v) = v * eps modulo the regular ideal in degree
    t + d_mu and psi(v) = v modulo the block ideal in degree t.

    On the invariant rows, phi and psi are the scaled residuals: linear on
    integer rows, with one scale per space, and with the space as kernel.
    So the rank of the residuals of the rows is the rank of the map on
    their span, and the rows (phi_i, psi_i) concatenated column-wise have
    the rank of (phi, psi).  Where the regular ideal has no space, its
    quotient is zero and phi is zero.

    Rank lemma: ker phi = ker psi exactly when rank phi = rank psi =
    rank (phi, psi), since ker (phi, psi) is their intersection.

    Projection lemma: the phi columns come first in the joint space of
    the rows (phi_i, psi_i).  Its reduced echelon basis spans it; the rows
    whose pivot lies below width have their phi parts in echelon form, so
    independent, and the others are zero there.  So rank phi, the rank of
    the projection onto the phi columns, is the number of pivot columns
    below width, and two eliminations, psi and (phi, psi), give all three
    ranks.

    Isotypic lemma: when an ideal I of C is stable under a group G, over
    Q the isotypic projector of a character of G commutes with C -> C/I,
    so the isotypic part of C/I is the image of the isotypic part of C.
    The block ideal is generated by invariants, so rank psi is the
    dimension of the invariants of the quotient, which the caller
    compares with the Poincare division of the build.

    Eps lemma: Q[x]^{sgn} = eps * Q[x]^{S_mu} for the sign character of
    S_mu (an anti-invariant vanishes where x_i = x_j in one block, so
    each of these coprime x_i - x_j, hence eps, divides it, with an
    invariant quotient).  The projection Q[x] -> C is an S_mu-equivariant
    ring map with an S_d-stable kernel, so by the isotypic lemma (Q[x] in
    place of C) C^{sgn}_{t+d_mu} = eps * C^{S_mu}_t, spanned by the
    v * eps.  The regular ideal is S_d-stable, because S_d permutes its
    generators h_r of the variable subsets of one size; so, by the
    isotypic lemma for S_mu and its sign character, rank phi is
    dim (C/I_reg)^{sgn} in degree t + d_mu.
    """
    target = reg.ideal_space(t + d_mu)
    ideal = quotient.ideal_space(t)
    width = ring.dim(t + d_mu)
    psi, both = [], []
    for row in invariant_rows(ring, quotient.blocks.transpositions(), t):
        prod = ring.mul_classes(row, t, eps_vec, d_mu)
        phi_i = target.scaled_residual(prod)[1] if target is not None else {}
        psi_i = ideal.scaled_residual(row)[1]
        psi.append(psi_i)
        both.append({**phi_i, **{width + k: w for k, w in psi_i.items()}})
    joint = RowSpace(width + ring.dim(t))
    joint.extend(both)
    # projection lemma
    phi_rank = sum(1 for c in joint.pivot_rows if c < width)
    return phi_rank, RowSpace(ring.dim(t)).extend(psi), joint.rank
