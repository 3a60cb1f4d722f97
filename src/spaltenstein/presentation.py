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
multiplication by single variables.  Degrees above twice
(d_lam - d_mu) are verified to vanish on a window wide enough to force
vanishing in all higher degrees, instead of being assumed.

Every isotypic count is one probe, _residual_rank: the rank of the
scaled residuals of a cached basis against an ideal.  It gives the
quotient dimensions, the anti-invariant dimensions of the regular
quotient and the kernel check of the transfer.

All computations are exact.  The x-degree of a polynomial is half its
grading degree; public interfaces use the grading degree throughout.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

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
    _TABLEAU_KEYS,
    Composition,
    Partition,
    _chain,
    _degree_from_columns,
    dims,
    enumerate_column_strict,
    reduce_tableau,
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
        coeffs = tuple(int(c) for c in coeffs)
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

    def evaluate(self, q=1):
        return sum(c * q ** (2 * k) for k, c in enumerate(self.coeffs))

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

    def to_json(self):
        return list(self.coeffs)


def _validate_pair(lam, mu):
    if not isinstance(lam, Partition) or not isinstance(mu, Composition):
        raise TypeError("expected (Partition, Composition)")
    n = len(mu)
    if lam.height() > n:
        raise ValueError(f"{lam} has more than {n} parts")
    if lam.size() != mu.size():
        raise ValueError(f"|lam|={lam.size()} and |mu|={mu.size()} differ")
    return n, mu.size()


def _subsets(n):
    out = []
    for mask in range(1, 1 << n):
        out.append(tuple(i + 1 for i in range(n) if mask >> i & 1))
    out.sort(key=lambda s: (len(s), s))
    return out


def generator_bound(lam, mu, family, subset):
    """Strict lower bound on r for the (subset, r) members of the family."""
    m = len(subset)
    if family == "H":
        return sum(lam.part(i) for i in range(1, m + 1)) - sum(
            mu.part(i) for i in subset
        )
    if family == "E":
        outside = sum(1 for i in range(1, len(mu) + 1) if mu.part(i) > 0 and i not in subset)
        return sum(mu.part(i) for i in subset) - sum(
            lam.part(i) for i in range(outside + 1, len(mu) + 1)
        )
    raise ValueError(f"unknown family {family!r}")


@dataclass(frozen=True)
class GeneratorFamily:
    family: str
    lam: Partition
    mu: Composition
    max_degree: int
    entries: tuple  # of (subset, r, Polynomial)

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


def _generator_items(lam, mu, family, max_xdeg):
    items = []
    for subset in _subsets(len(mu)):
        bound = generator_bound(lam, mu, family, subset)
        for r in range(max(0, bound + 1), max_xdeg + 1):
            items.append((subset, r))
    return items


_INV_CACHE = {}


def _invariant_data(ring, mu, t, sign=1):
    # the (anti-)invariant subspace depends on mu only through the
    # generated subgroup, so key the cache by the transposition set
    transpositions = tuple(BlockStructure(mu).transpositions())
    key = (ring.d, transpositions, t, sign)
    rows = _INV_CACHE.get(key)
    if rows is None:
        rows = invariant_rows(ring, transpositions, t, sign)
        _INV_CACHE[key] = rows
    return rows


def _residual_rank(space, rows):
    """Rank of the images of rows in the quotient by space, 0 where space
    is None (a degree where the quotient is proven zero).

    The scaled residual is linear on integer rows, with one scale L for
    the whole space, and its kernel is the space; so the rank of the
    residuals is the dimension of the image of the span of rows.

    Isotypic lemma: when the ideal is stable under a group G, over Q the
    isotypic projector of a character of G commutes with C -> C/I, so
    the isotypic part of C/I is the image of the isotypic part of C.
    With rows a basis of the invariants (or anti-invariants) of C, the
    rank is the dimension of the invariants (or anti-invariants) of C/I.
    """
    if space is None:
        return 0
    return RowSpace(space.width).extend(space.scaled_residual(row)[1] for row in rows)


def _zero_free_key(family, lam, mu):
    """(family, lam, the non-zero parts of mu in order): the family and the
    tableau layer's zero_free_key, the data that the core of a quotient and
    the certificate data depend on (zero-block lemma in GradedQuotient)."""
    return (family, *zero_free_key(lam, mu))


# zero-free key -> QuotientCore, filled only by pairs whose mu has a zero part
_CORES = {}


class QuotientCore:
    """The pair-independent part of a quotient: the verified stopping
    x-degree, the ideal RowSpace of each x-degree up to it, the quotient
    dimensions, and three slots that are filled once each:
      - certificate: (degrees, classes, coordinate spaces), by the first
        certify_basis against the core;
      - transfer: the verified (shift, degrees, anti_dims, quotient_dims)
        of anti_invariant_transfer, on an H core;
      - tensor: the multiplication tensor of the certificate, packed by
        _pack_tensor, by the first structure_constants that used it.
    Each slot holds data that agrees across the zero-free key (the
    lemmas are in certify_basis, anti_invariant_transfer and
    structure_constants), and only the cold computation fills it.  Shared
    by every quotient of one zero-free key, so it is read-only apart from
    those fills: copy() an ideal space before inserting into it."""

    __slots__ = ("stop_x", "ideal", "qdim", "certificate", "transfer", "tensor")

    def __init__(self, stop_x, ideal, qdim):
        self.stop_x = stop_x
        self.ideal = ideal
        self.qdim = qdim
        self.certificate = None
        self.transfer = None
        self.tensor = None


class GradedQuotient:
    """Per-degree presentation data for one (lam, mu, family) triple.

    Holds, for each x-degree t up to the verified stopping degree, the
    ideal row space inside the coinvariant algebra and the quotient
    dimension.  Quotient dimensions above the stopping degree are zero;
    this is forced by the verified vanishing window, not assumed.

    The quotient is a per-pair shell (lam, mu, family, blocks, hilbert,
    to_json) around a QuotientCore (stop_x, the ideal spaces, the quotient
    dimensions, the certificate data).  The core depends only on the
    zero-free key (family, lam, non-zero parts of mu in order).  Zero-block
    lemma: let mu' be mu with its zero parts deleted.
      - A zero block adds no variables, so every block union, the
        transpositions() of the blocks (hence the invariant rows), d_mu,
        max_alg and stop_x agree for all pairs of one key.
      - Adding zero blocks to a subset raises the H bound (lam gains
        parts, the mu sum does not change) or leaves it unchanged, and
        leaves the E bound unchanged (the non-zero parts outside the
        subset and the tail of lam are the same).  So the (variables, r)
        generators agree up to zero vectors h_r(), e_r() with r > 0.  A
        subset of zero blocks only also gives the unit e_0() exactly when
        lam has more parts than mu'; then every pair of the key has a
        zero part and that unit.  Equal generator sets span equal
        ideals, and RowSpace is canonical, so the pivot_rows of each
        degree agree.
    A pair whose mu has a zero part looks its core up in _CORES and builds
    it on a miss; a zero-free pair builds its own and stores nothing.
    This is the one place that decides what is shared.
    """

    def __init__(self, lam, mu, family):
        self.lam = lam
        self.mu = mu
        self.family = family
        _, self.d = _validate_pair(lam, mu)
        d_lambda, self.d_mu = dims(lam, mu)
        self.top_x = d_lambda - self.d_mu
        self.ring = get_ring(self.d)
        self.blocks = BlockStructure(mu)
        if 0 in mu.parts:
            key = _zero_free_key(family, lam, mu)
            core = _CORES.get(key)
            if core is None:
                core = _CORES[key] = self._build()
        else:
            core = self._build()
        self.core = core
        coeffs = [core.qdim.get(t, 0) for t in range(max(self.top_x, -1) + 1)]
        self.hilbert = HilbertSeries(coeffs)

    @property
    def stop_x(self):
        return self.core.stop_x

    def _build(self):
        """The core of this pair.  Generators are collected per degree as a
        set of block unions, keyed by (variables, r): inserting one vector
        twice cannot change a span, and zero blocks repeat unions.

        Degree t is spanned by its generators and x_v * I_{t-1} for
        v < d only.  Last-variable lemma: e_1 = 0 in the coinvariant
        algebra, so x_d b = -sum_{v<d} x_v b for every degree-r class b,
        hence x_d * I_{t-1} lies in sum_{v<d} x_v * I_{t-1}.  The classes
        of each block union come from one sym_classes call up to stop_x.
        Each degree gathers its generator classes and the products of the
        pivot rows of I_{t-1} by x_1..x_{d-1} into one batch and extends
        an empty space by it: by the order lemma of RowSpace the batch
        order cannot change the canonical basis, and extend's order
        leaves little back-substitution.  The quotient dimension is the
        residual rank of the S_mu-invariant rows (_residual_rank): the
        generators are S_mu-invariant, so the ideal is S_mu-stable and
        the isotypic lemma applies."""
        ring = self.ring
        max_alg = max([p for p in self.mu.parts if p > 0], default=1)
        first_above = max(0, self.top_x + 1)
        stop_x = min(ring.top, first_above + max_alg - 1)
        gens_by_deg = {}
        for subset, r in _generator_items(self.lam, self.mu, self.family, stop_x):
            gens_by_deg.setdefault(r, {})[self.blocks.union(subset)] = None
        kind = "h" if self.family == "H" else "e"
        unions = {vars_ for gens in gens_by_deg.values() for vars_ in gens}
        classes = {vars_: ring.sym_classes(vars_, stop_x, kind) for vars_ in unions}
        ideal, qdim = {}, {}
        for t in range(stop_x + 1):
            full = ring.dim(t)
            batch = [classes[vars_][t] for vars_ in gens_by_deg.get(t, ())]
            if t:
                below = ideal[t - 1].pivot_rows.values()
                batch += [ring.apply_var(row, v, t - 1) for v in range(1, self.d) for row in below]
            space = ideal[t] = RowSpace(full)
            space.extend(batch)
            qdim[t] = _residual_rank(space, _invariant_data(ring, self.mu, t))
        for t in range(first_above, stop_x + 1):
            if qdim.get(t, 0):
                raise TruncationError(
                    "quotient does not vanish above its top degree",
                    witness={
                        "lambda": self.lam.to_json(),
                        "mu": self.mu.to_json(),
                        "degree": 2 * t,
                        "dimension": qdim[t],
                    },
                )
        return QuotientCore(stop_x, ideal, qdim)

    def ideal_space(self, t):
        """Ideal row space at x-degree t; above the stop degree the quotient
        vanishes, so membership of invariant classes is automatic.  The
        space may be shared with other quotients: copy() it before any
        insert."""
        return self.core.ideal.get(t)

    def invariant_basis_rows(self, t):
        return _invariant_data(self.ring, self.mu, t)

    def dimension(self, degree):
        if degree < 0 or degree % 2:
            return 0
        return self.core.qdim.get(degree // 2, 0)

    def total_dimension(self):
        return sum(self.core.qdim.get(t, 0) for t in range(max(self.top_x, -1) + 1))

    def is_trivial(self):
        return self.total_dimension() == 0

    def contains_class(self, vec, t):
        """Membership of a degree-2t class in the ideal."""
        space = self.core.ideal.get(t)
        if space is None:
            # beyond the verified window every invariant class is in the ideal
            return True
        return space.contains(vec)

    def to_json(self):
        return {
            "lambda": self.lam.to_json(),
            "mu": self.mu.to_json(),
            "family": self.family,
            "hilbert": self.hilbert.to_json(),
            "top_degree": 2 * self.top_x,
            "total_dimension": self.total_dimension(),
        }


def build_quotient(lam, mu, family="H"):
    return GradedQuotient(lam, mu, family)


def h_of_tableau(T, mu):
    """The basis element attached to a column-strict tableau, as an honest
    polynomial: the product over the reduction chain of the complete
    symmetric functions h_{gamma_i} of the current last block."""
    out = Polynomial.one(mu.size())
    current, current_mu = T, mu
    for level in range(len(mu), 0, -1):
        gamma, current, _, current_mu = reduce_tableau(current, current_mu)
        for part in gamma.parts:
            out = out * complete_block(mu, (level,), part)
    return out


def _h_class_chain(ring, T, mu, memo):
    """Class of h_of_tableau(T, mu) in the coinvariant algebra: from level 1
    up, the product of h_{gamma_1}, h_{gamma_2}, ... of each level's block,
    gamma read from the reduction chain of T (tableaux._chain).  The class
    of levels 1..m depends only on those levels of the chain, so memo, one
    per content mu, maps each run of lower levels to its class, and the
    tableaux that share lower levels share their product."""
    chain = _chain(T.columns(), mu.parts)
    vec, t = ring.unit(), 0
    key = ()
    base = 0
    for k, level in zip(mu.parts, reversed(chain)):
        key += (level,)
        hit = memo.get(key)
        if hit is None:
            vars_ = tuple(range(base + 1, base + k + 1))
            for i in range(k, 0, -1):
                if level[i - 1] > i:
                    vec, t = ring.mul_block_h(vec, t, vars_, level[i - 1] - i)
            memo[key] = (vec, t)
        else:
            vec, t = hit
        base += k
    return vec, t


class BasisCertificate:
    """A certified tableau basis with exact coordinate data.

    lam and mu are the pair of the tableaux, which the quotient may share
    only its zero-free key with.  tableaux are listed in reading-word
    order; for each x-degree the augmented row space stores the ideal rows
    together with the tagged basis classes, which turns coordinate
    extraction into row reduction.
    """

    def __init__(self, quotient, lam, mu, tableaux, degrees, classes, coordinate_spaces):
        self.quotient = quotient
        self.lam = lam
        self.mu = mu
        self.tableaux = tableaux
        self.degrees = degrees
        self.classes = classes
        self._spaces = coordinate_spaces

    def size(self):
        return len(self.tableaux)

    def coordinates_of_class(self, vec, t):
        """Coordinates of a degree-2t invariant class in the basis."""
        data = self._spaces.get(t)
        if data is None:
            if self.quotient.contains_class(vec, t):
                return {}
            raise BasisError(
                "class outside the certified span",
                witness={"degree": 2 * t},
            )
        space, indices = data
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
    computed once per core and kept on it, so the pairs of one zero-free
    key that share a core share them too.  Lemma (relabelling lemma in
    enumerate_column_strict): the order-preserving relabelling of the
    non-zero labels of mu maps the column-strict tableaux of one pair of a
    key onto those of another and keeps the reading-word order; a zero
    part of mu adds an empty level to the reduction chain, so the degrees
    and the h-classes agree position by position.  Every call still
    enumerates the tableaux of its own pair and checks their number
    against the core's data.
    """
    if quotient is None:
        quotient = build_quotient(lam, mu, family)
    elif _zero_free_key(quotient.family, lam, mu) != _zero_free_key(
        quotient.family, quotient.lam, quotient.mu
    ):
        raise ValueError(
            f"the quotient of ({quotient.lam}, {quotient.mu}) has another "
            f"zero-free key than ({lam}, {mu})"
        )
    tableaux = enumerate_column_strict(lam, mu)
    core = quotient.core
    if core.certificate is None:
        core.certificate = _certificate_data(lam, mu, quotient, tableaux)
    degrees, classes, spaces = core.certificate
    if len(tableaux) != len(degrees):
        raise BasisError(
            "tableau count differs from the shared certificate",
            witness={
                "lambda": lam.to_json(),
                "mu": mu.to_json(),
                "tableaux": len(tableaux),
                "shared": len(degrees),
            },
        )
    return BasisCertificate(quotient, lam, mu, tableaux, degrees, classes, spaces)


def _certificate_data(lam, mu, quotient, tableaux):
    ring = quotient.ring
    memo = {}
    degrees = []
    classes = []
    for T in tableaux:
        vec, t = _h_class_chain(ring, T, mu, memo)
        expected = _degree_from_columns(T.columns(), mu.parts)
        if t != expected:
            raise BasisError(
                "basis element degree mismatch",
                witness={"tableau": T.to_json(), "degree": 2 * t, "expected": 2 * expected},
            )
        degrees.append(t)
        classes.append(vec)
    by_degree = {}
    for idx, t in enumerate(degrees):
        by_degree.setdefault(t, []).append(idx)
    for t in range(max(quotient.top_x, -1) + 1):
        count = len(by_degree.get(t, []))
        if count != quotient.dimension(2 * t):
            raise BasisError(
                "tableau count does not match quotient dimension",
                witness={
                    "lambda": lam.to_json(),
                    "mu": mu.to_json(),
                    "degree": 2 * t,
                    "tableaux": count,
                    "dimension": quotient.dimension(2 * t),
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
                        str(tableaux[indices[c - width]].to_json()): combo[c]
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
    for component in ring.class_of_polynomial(p).items():
        t, vec = component
        for idx, c in certificate.coordinates_of_class(vec, t).items():
            coords[certificate.tableaux[idx]] = coords.get(certificate.tableaux[idx], 0) + c
    return {T: c for T, c in coords.items() if c}


def structure_constants(lam, mu, family="H", certificate=None):
    """Multiplication tensor of the certified basis.

    Returns (tableaux, tensor) with tensor[(i, j)][k] the coefficient of
    basis element k in the product of elements i and j, as exact
    rationals.  The tensor is symmetric in (i, j), and tensor[(i, j)] is
    tensor[(j, i)].

    A given certificate must be of exactly (lam, mu), else ValueError;
    family is then ignored, and the tensor is that of the certificate's
    own quotient, as in certify_basis.  The tensor is computed once per
    core and kept on it, packed (_pack_tensor); each call gets a fresh
    dict of dicts.  Lemma (relabelling lemma in certify_basis): the pairs
    of one zero-free key have the same classes, degrees and coordinate
    spaces position by position, so their tensors agree position by
    position.
    """
    if certificate is None:
        certificate = certify_basis(lam, mu, family)
    elif (certificate.lam, certificate.mu) != (lam, mu):
        raise ValueError(
            f"the certificate of ({certificate.lam}, {certificate.mu}) is not "
            f"one of ({lam}, {mu})"
        )
    tabs = certificate.tableaux
    core = certificate.quotient.core
    if core.tensor is not None:
        return tabs, _unpack_tensor(core.tensor, len(tabs))
    ring = certificate.quotient.ring
    tensor = {}
    for i in range(len(tabs)):
        vi, ti = certificate.classes[i], certificate.degrees[i]
        for j in range(i, len(tabs)):
            vj, tj = certificate.classes[j], certificate.degrees[j]
            # above top_x no tableau has degree t, so coordinates_of_class
            # falls back to ideal membership and raises on an escape
            product = ring.mul_classes(vi, ti, vj, tj)
            entry = certificate.coordinates_of_class(product, ti + tj)
            tensor[(i, j)] = entry
            tensor[(j, i)] = entry
    core.tensor = _pack_tensor(tensor, len(tabs))
    return tabs, tensor


def _pack_tensor(tensor, size):
    """(D, flat): D the lcm of the denominators of the tensor and flat one
    tuple of ints that lists, for i <= j in order, the number m of
    non-zero entries of tensor[(i, j)] and then m pairs (k, D * entry),
    k increasing.  By tracemalloc, about 18 times smaller than the dict of
    dicts."""
    denom = lcm(*(c.denominator for entry in tensor.values() for c in entry.values()))
    flat = []
    for i in range(size):
        for j in range(i, size):
            entry = tensor[(i, j)]
            flat.append(len(entry))
            for k in sorted(entry):
                flat += (k, entry[k].numerator * (denom // entry[k].denominator))
    return denom, tuple(flat)


def _unpack_tensor(packed, size):
    """The dict of dicts of _pack_tensor's input, built fresh."""
    denom, flat = packed
    tensor = {}
    pos = 0
    for i in range(size):
        for j in range(i, size):
            end = pos + 1 + 2 * flat[pos]
            entry = {
                flat[p]: Fraction(flat[p + 1], denom) for p in range(pos + 1, end, 2)
            }
            tensor[(i, j)] = tensor[(j, i)] = entry
            pos = end
    return tensor


def rel_equivalence(lam, mu, qh=None, qe=None):
    """Whether the H and E families cut out the same ideal degreewise.

    Each ideal_space(t) is a RowSpace in canonical form (the unique
    reduced echelon basis of the span), so two ideal spaces are equal
    exactly when they compare equal with ==, which reads the stored rows.
    The stopping degree stop_x depends only on (lam, mu), and above it
    both quotients are verified to vanish.  So the families are
    equivalent exactly when they have the same stop_x and equal ideal
    spaces in every degree up to it; equal Hilbert series follow.
    Quotients of two different pairs with different stop_x compare
    unequal even when both ideals are the unit ideal.
    """
    if qh is None:
        qh = build_quotient(lam, mu, "H")
    if qe is None:
        qe = build_quotient(lam, mu, "E")
    if qh.stop_x != qe.stop_x:
        return False
    return all(
        qh.ideal_space(t) == qe.ideal_space(t) for t in range(qh.stop_x + 1)
    )


_REGULAR_CACHE = {}


def regular_quotient(lam, d):
    """Quotient for the regular composition (1, ..., 1), cached per (d, lam)."""
    key = (d, lam.parts)
    q = _REGULAR_CACHE.get(key)
    if q is None:
        q = build_quotient(lam, Composition((1,) * d), "H")
        _REGULAR_CACHE[key] = q
    return q


def clear_caches():
    """Empty every module-level cache of the library.

    Policy: caches are per process and grow without bound until this is
    called.  Each is keyed as documented where it is defined: coinvariant
    rings by d (_RINGS), invariant and anti-invariant rows by
    (d, transpositions, t, sign) (_INV_CACHE), regular quotients by
    (d, lam) (_REGULAR_CACHE), quotient cores, with their certificate
    data, transfer report and packed multiplication tensor, by the
    zero-free key (_CORES), the tableaux, Betti series and components of
    a zero-free key's own pair, by the tableau layer's zero_free_key
    (_TABLEAU_KEYS).  The values are read-only: callers copy() a RowSpace
    before inserting into it, the tableau data is relabelled into new
    lists, a transfer report is rebuilt with the caller's pair and a
    tensor is unpacked into new dicts.  Objects built before the call stay
    valid; later builds start cold and give equal results.
    """
    for cache in (_RINGS, _INV_CACHE, _REGULAR_CACHE, _CORES, _TABLEAU_KEYS):
        cache.clear()


@dataclass(frozen=True)
class TransferReport:
    lam: Partition
    mu: Composition
    shift: int
    degrees: tuple
    anti_dims: tuple
    quotient_dims: tuple

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

    (a) well-definedness: an invariant class v has v * eps in the regular
        ideal exactly when v lies in the block ideal, degree by degree
        (_transfer_kernel_matches);
    (b) the anti-invariants of the regular quotient match the block
        quotient dimensions after the degree shift by twice d_mu.

    The anti-invariant dimension is the residual rank of the
    anti-invariant rows of C against the regular ideal (_residual_rank).
    The regular ideal is S_d-stable, because S_d permutes its generators
    h_r of the variable subsets of one size, so the isotypic lemma
    applies to S_mu and its sign character.

    The verified (shift, degrees, anti_dims, quotient_dims) is kept on
    the H core, and a later pair of the same zero-free key returns it
    with its own lam and mu.  Lemma: a zero block adds no variables and
    no block pairs, so d_mu, eps, the invariant and anti-invariant rows
    (one transposition set), the H core (zero-block lemma in
    GradedQuotient) and regular_quotient(lam, d) agree across the key,
    and so does every number the check computes.

    Any failure raises TransferError with the offending degree and stores
    nothing.
    """
    quotient = build_quotient(lam, mu, "H")
    core = quotient.core
    if core.transfer is None:
        core.transfer = _transfer_data(lam, mu, quotient)
    return TransferReport(lam, mu, *core.transfer)


def _transfer_data(lam, mu, quotient):
    """The checks (a) and (b) of anti_invariant_transfer on the H quotient
    of (lam, mu); returns (shift, degrees, anti_dims, quotient_dims)."""
    ring = quotient.ring
    d_mu = quotient.d_mu
    reg = regular_quotient(lam, quotient.d)
    blocks = quotient.blocks
    pairs = []
    for j in range(1, len(mu) + 1):
        blk = blocks.block(j)
        pairs.extend(
            (blk[a], blk[b]) for a in range(len(blk)) for b in range(a + 1, len(blk))
        )
    eps_vec, eps_deg = ring.antisymmetrizer_class(pairs)
    if eps_deg != d_mu:
        raise TransferError("antisymmetrizer degree mismatch", witness={"degree": eps_deg})

    top = max(quotient.top_x, -1)
    reg_reach = reg.stop_x - d_mu
    degrees = []
    anti_dims = []
    quotient_dims = []
    for t in range(0, max(top, reg_reach) + 1):
        e = t + d_mu
        # (b) anti-invariant dimension of the regular quotient in degree 2e
        a_dim = _residual_rank(reg.ideal_space(e), _invariant_data(ring, mu, e, -1))
        q_dim = quotient.dimension(2 * t)
        degrees.append(2 * t)
        anti_dims.append(a_dim)
        quotient_dims.append(q_dim)
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
        # (a) kernel of multiplication by eps equals the block ideal
        if t <= quotient.stop_x:
            if not _transfer_kernel_matches(ring, quotient, reg, eps_vec, d_mu, t):
                raise TransferError(
                    "multiplication by the antisymmetrizer has the wrong kernel",
                    witness={"lambda": lam.to_json(), "mu": mu.to_json(), "degree": 2 * t},
                )
    return 2 * d_mu, tuple(degrees), tuple(anti_dims), tuple(quotient_dims)


def _transfer_kernel_matches(ring, quotient, reg, eps_vec, d_mu, t):
    """Whether phi(v) = v * eps modulo the regular ideal in degree t + d_mu
    and psi(v) = v modulo the block ideal in degree t have the same kernel
    on the invariant classes v of degree t.

    Rank lemma: ker phi = ker psi exactly when rank phi = rank psi =
    rank (phi, psi), since ker (phi, psi) is their intersection.  On the
    invariant rows, phi and psi are the scaled residuals, linear with one
    scale per space, so the rows (phi_i, psi_i) concatenated column-wise
    have the rank of (phi, psi); rank psi is the quotient dimension.
    Where the regular ideal has no space, its quotient is zero and phi
    is zero.
    """
    target = reg.ideal_space(t + d_mu)
    ideal = quotient.ideal_space(t)
    width = ring.dim(t + d_mu)
    phi, both = [], []
    for row in quotient.invariant_basis_rows(t):
        prod = ring.mul_classes(row, t, eps_vec, d_mu)
        phi_i = target.scaled_residual(prod)[1] if target is not None else {}
        psi_i = ideal.scaled_residual(row)[1]
        phi.append(phi_i)
        both.append({**phi_i, **{width + k: w for k, w in psi_i.items()}})
    rank_phi = RowSpace(width).extend(phi)
    return rank_phi == quotient.dimension(2 * t) == RowSpace(width + ring.dim(t)).extend(both)
