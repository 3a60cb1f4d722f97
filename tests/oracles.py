"""Test oracles shared by several test modules."""

from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from math import factorial, lcm, prod

from spaltenstein.coinvariant import get_ring, invariant_rows
from spaltenstein.linalg import RowSpace, _subtract
from spaltenstein.presentation import HilbertSeries
from spaltenstein.symring import BlockStructure, Polynomial, complete_block
from spaltenstein.tableaux import (
    Composition,
    Tableau,
    _chain,
    _check_sizes,
    _degree_from_columns,
    _reduce_columns,
    _straighten,
    enumerate_column_strict,
    reduce_tableau,
    transpose,
    zero_free_key,
)


def dense(row, width):
    """A row {column: entry} as a list of width entries."""
    out = [0] * width
    for k, v in row.items():
        out[k] = v
    return out


def sparse(row):
    """A list of entries as the row {column: non-zero entry}."""
    return {k: v for k, v in enumerate(row) if v}


def scaled_int_row(row):
    """A list of Fractions or ints times the lcm of its denominators."""
    den = lcm(*(Fraction(v).denominator for v in row))
    return [int(v * den) for v in row]


def span(rows, width):
    """The RowSpace of a list of rational lists."""
    space = RowSpace(width)
    for row in rows:
        space.insert(sparse(scaled_int_row(row)))
    return space


def kernel_basis(rows, width):
    """Integer basis of {x in Q^width : row . x = 0 for all rows}, as lists;
    free coordinates are taken in increasing order."""
    return [dense(x, width) for x in span(rows, width).kernel()]


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


def nf_by_division(ring, mono, memo):
    """Oracle for CoinvariantRing.nf: the normal form of a monomial by
    division by the lex Groebner basis g_i = h_i(x_i, ..., x_d), as a tuple
    of (position, non-zero int) pairs; () above top.  With i the first index
    where a_i >= i, x^a = x^a / x_i^i * (x_i^i - g_i), and x_i^i - g_i is
    minus the other monomials of h_i(x_i, ..., x_d).  memo, one dict per
    ring, keeps every normal form reached."""
    d = ring.d
    tails = {}
    stack = [mono]
    while stack:
        m = stack[-1]
        if m in memo:
            stack.pop()
            continue
        if sum(m) > ring.top:
            memo[m] = ()
            stack.pop()
            continue
        i = next((i for i in range(1, d + 1) if m[i - 1] >= i), None)
        if i is None:
            memo[m] = ((ring.index[m], 1),)
            stack.pop()
            continue
        if i not in tails:
            combos = combinations_with_replacement(range(i, d + 1), i)
            exps = (tuple(combo.count(v) for v in range(1, d + 1)) for combo in combos)
            tails[i] = [e for e in exps if e[i - 1] != i]
        base = list(m)
        base[i - 1] -= i
        deps = [tuple(b + t for b, t in zip(base, tail)) for tail in tails[i]]
        missing = [dep for dep in deps if dep not in memo]
        if missing:
            stack.extend(missing)
            continue
        acc = {}
        for dep in deps:
            for pos, val in memo[dep]:
                acc[pos] = acc.get(pos, 0) - val
        memo[m] = tuple(jw for jw in sorted(acc.items()) if jw[1])
        stack.pop()
    return memo[mono]


def sym_classes_by_recurrence(ring, vars_, kind):
    """Oracle for CoinvariantRing.sym_classes: the classes of e_r or h_r of
    vars_ for r = 0..top by the recurrence over the variables run to top in
    every step, with no vanishing bound."""
    classes = [{0: 1}] + [{} for _ in range(ring.top)]
    for v in vars_:
        nxt = [classes[0]]
        lower = classes if kind == "e" else nxt
        for r in range(1, ring.top + 1):
            row = dict(classes[r])
            _subtract(row, -1, ring.apply_var(lower[r - 1], v, r - 1))
            nxt.append(row)
        classes = nxt
    return classes


def generator_bound(lam, mu, family, subset):
    """Strict lower bound on r for the (subset, r) members of the family,
    summed from the definition for the one subset."""
    inside = [mu.part(i) for i in subset]
    if family == "H":
        return sum(lam.parts[: len(subset)]) - sum(inside)
    if family == "E":
        # the number of non-zero parts of mu outside the subset
        outside = sum(1 for p in mu.parts if p) - sum(1 for p in inside if p)
        return sum(inside) - sum(lam.parts[outside : len(mu)])
    raise ValueError(f"unknown family {family!r}")


def generator_items(lam, mu, family, max_xdeg, indices=None):
    """The (subset, r) of every family member of x-degree at most max_xdeg,
    over the non-empty subsets of indices (default: every index of mu),
    ordered by subset size, then subset, then r: every subset and every r
    above its bound, with no vanishing range, so members that are zero in
    the coinvariant algebra are included."""
    if indices is None:
        indices = range(1, len(mu) + 1)
    items = []
    for size in range(1, len(indices) + 1):
        for subset in combinations(indices, size):
            bound = generator_bound(lam, mu, family, subset)
            for r in range(max(0, bound + 1), max_xdeg + 1):
                items.append((subset, r))
    return items


def generator_classes(quotient, stop_x):
    """{family: {t: classes}} as the build collected them before the
    vanishing range: every member of generator_items over the non-zero
    blocks up to stop_x, each block union once per degree in the order of
    its first member, and E's unit e_0() of zero blocks where lam has more
    parts than mu has non-zero ones; then the zero classes dropped."""
    ring, lam, mu = quotient.ring, quotient.lam, quotient.mu
    nonzero = [i for i, p in enumerate(mu.parts, start=1) if p]
    out = {}
    for family, kind in (("H", "h"), ("E", "e")):
        by_deg = {}
        for subset, r in generator_items(lam, mu, family, stop_x, nonzero):
            by_deg.setdefault(r, {})[quotient.blocks.union(subset)] = None
        if family == "E" and lam.height() > len(nonzero):
            by_deg.setdefault(0, {})[()] = None
        out[family] = {}
        for t, unions in by_deg.items():
            classes = [ring.sym_classes(v, kind)[t] for v in unions]
            if any(classes):
                out[family][t] = [row for row in classes if row]
    return out


def ideal_by_insertion(quotient, stop=None):
    """The ideal spaces of a quotient, one per x-degree up to stop (default
    its stop_x), grown one insert at a time in the order that precedes
    batching: the degree's generator classes first, then x_v times the
    pivot rows of I_{t-1} in pivot order, for v = 1..d-1 in turn.  Each
    degree is propagated from this oracle's own I_{t-1}, not from the
    library's."""
    ring = quotient.ring
    kind = "h" if quotient.family == "H" else "e"
    if stop is None:
        stop = quotient.stop_x
    gens = {}
    for subset, r in generator_items(quotient.lam, quotient.mu, quotient.family, stop):
        gens.setdefault(r, {})[quotient.blocks.union(subset)] = None
    ideal = []
    for t in range(stop + 1):
        space = RowSpace(ring.dim(t))
        for vars_ in gens.get(t, ()):
            space.insert(ring.sym_classes(vars_, kind)[t])
        if t:
            below = ideal[-1].pivot_rows
            for v in range(1, quotient.d):
                for c in sorted(below):
                    space.insert(ring.apply_var(below[c], v, t - 1))
        ideal.append(space)
    return ideal


def largest_part_stop(quotient):
    """The last x-degree of a vanishing window as wide as the largest part
    of mu, where the build stopped before the last-block lemma narrowed the
    window to the second-largest part: never below the quotient's stop_x."""
    width = max(filter(None, quotient.mu.parts), default=1)
    return min(quotient.ring.top, max(0, quotient.top_x + 1) + width - 1)


class WideWindow:
    """A quotient seen up to largest_part_stop: its own ideal spaces up to
    its stop_x, and above it those of ideal_by_insertion, whose spaces in
    every degree up to largest_part_stop are kept in spaces; every other
    attribute is the quotient's."""

    def __init__(self, quotient):
        self.quotient = quotient
        self.stop_x = largest_part_stop(quotient)
        self.spaces = ideal_by_insertion(quotient, self.stop_x)

    def __getattr__(self, name):
        return getattr(self.quotient, name)

    def ideal_space(self, t):
        if t <= self.quotient.stop_x:
            return self.quotient.ideal_space(t)
        return self.spaces[t] if t < len(self.spaces) else None


def qdim_by_invariant_rows(quotient):
    """The quotient dimensions by x-degree up to stop_x, read the way the
    build read them before the Poincare division: in each degree, the
    rank of the scaled residuals of the S_mu-invariant rows of the
    coinvariant algebra against the ideal (isotypic lemma in
    presentation._transfer_ranks).  The scaled residual is linear on
    integer rows, with one scale for the whole space, and its kernel is
    the space, so that rank is the dimension of the image of the rows."""
    ring = quotient.ring
    transpositions = quotient.blocks.transpositions()
    out = []
    for t in range(quotient.stop_x + 1):
        space = quotient.ideal_space(t)
        rows = invariant_rows(ring, transpositions, t)
        out.append(RowSpace(space.width).extend(space.scaled_residual(row)[1] for row in rows))
    return out


def ideal_by_squares(d, k):
    """The ideal (x_1^2, ..., x_d^2) + C_{>k} of the coinvariant algebra C
    of S_d, as its RowSpace in each x-degree 0..top: a full space above
    k; else the classes x_i^2 in degree 2 and x_v times the pivot rows of
    the degree below, for every v = 1..d (no last-variable shortcut).
    For lam with parts in {1, 2}, k of them 2, this is the H ideal of
    (lam, 1^d) (Khovanov for k = d/2; Stroppel and Webster for every
    two-row Jordan type)."""
    ring = get_ring(d)
    squares = [ring.apply_var(ring.apply_var(ring.unit(), i, 0), i, 1) for i in range(1, d + 1)]
    ideal = []
    for t in range(ring.top + 1):
        space = RowSpace(ring.dim(t))
        if t > k:
            space.extend({c: 1} for c in range(ring.dim(t)))
        else:
            if t == 2:
                space.extend(squares)
            if t:
                rows = ideal[-1].pivot_rows.values()
                space.extend(ring.apply_var(b, v, t - 1) for b in rows for v in range(1, d + 1))
        ideal.append(space)
    return ideal


def anti_invariant_dim_by_equations(ring, reg, transpositions, e):
    """Oracle for the anti-invariant count of the transfer: the dimension
    of the sign-isotypic part of the regular quotient in degree 2e.

    A class v is anti-invariant in the quotient when (s + 1)v lies in the
    ideal for every generating transposition s.  The scaled residual
    against the ideal is linear in v (one scale L for the whole space), so
    the classes with zero residuals form the kernel of one exact linear
    system; its equations are gathered sparse, one per transposition and
    residual column.  The kernel has dimension dim minus the rank of the
    equations, and it contains the ideal.
    """
    dim = ring.dim(e)
    if dim == 0:
        return 0
    ideal = reg.ideal_space(e)
    if ideal is None:
        # quotient proven zero in this degree, so no anti-invariants either
        return 0
    if not transpositions:
        return dim - ideal.rank
    batch = []
    for i, _ in transpositions:
        equations = {}
        for b, row in enumerate(ring.swap_matrix(i, e)):
            moved = dict(row)
            w = moved.pop(b, 0) + 1
            if w:
                moved[b] = w
            for j, w in ideal.scaled_residual(moved)[1].items():
                equations.setdefault(j, {})[b] = w
        batch += equations.values()
    return dim - RowSpace(dim).extend(batch) - ideal.rank


def degree_by_reduction(columns, mu_parts):
    """Oracle for tableaux._degree_from_columns: at each level n, from
    len(mu_parts) down to 1, strip the boxes labelled n from the bottoms
    of the columns and re-sort the stripped column tuples stably by height
    (_reduce_columns), adding the positions of the stripped columns minus
    1, 2, ..., k."""
    total = 0
    for n in range(len(mu_parts), 0, -1):
        cols_of_n, columns = _reduce_columns(columns, n)
        if len(cols_of_n) != mu_parts[n - 1]:
            raise ValueError(
                f"entry {n} fills {len(cols_of_n)} columns, expected {mu_parts[n - 1]}"
            )
        total += sum(c - i for i, c in enumerate(cols_of_n, start=1))
    return total


def betti_by_enumeration(lam, mu):
    """Oracle for reports.betti: list the column-strict fillings and count
    them by tableaux._degree_from_columns, zero parts of mu included."""
    degrees = [
        _degree_from_columns(T.columns(), mu.parts) for T in enumerate_column_strict(lam, mu)
    ]
    coeffs = [0] * (max(degrees, default=-1) + 1)
    for t in degrees:
        coeffs[t] += 1
    return HilbertSeries(coeffs)


def betti_by_positions(lam, mu):
    """Oracle for reports.betti with neither _lowerings nor Gaussian
    binomials: the graded count of the bijection lemma over every set c of
    k = mu_n column positions at every level, whether or not the lowered
    heights can be filled, each adding sum(c) + k - k(k+1)/2 (positions
    1-indexed) to the degree; a state that cannot be finished dies when a
    later label has more entries than it has columns."""
    states = {transpose(lam).parts: [1]}
    for k in reversed(zero_free_key(lam, mu)[1]):
        after = {}
        for heights, coeffs in states.items():
            for c in combinations(range(len(heights)), k):
                lowered = list(heights)
                for j in c:
                    lowered[j] -= 1
                lowered = tuple(sorted((h for h in lowered if h), reverse=True))
                shift = sum(c) - k * (k - 1) // 2
                total = after.setdefault(lowered, [])
                total.extend([0] * (shift + len(coeffs) - len(total)))
                for r, v in enumerate(coeffs, start=shift):
                    total[r] += v
        states = after
    return HilbertSeries(states.get((), ()))


def straighten_by_reduction(T, mu, reduce=reduce_tableau):
    """Oracle for tableaux.straighten: the recursion on reduced tableaux.
    Straighten Tbar of one reduction step (reduce, by default
    reduce_tableau), then append n = len(mu) to row i lam_i - lambar_i
    times."""
    n = len(mu)
    if n == 0:
        return T
    _, Tbar, lambar, mubar = reduce(T, mu)
    S = straighten_by_reduction(Tbar, mubar, reduce)
    lam = T.shape
    rows = S.rows + ((),) * (lam.height() - len(S.rows))
    rows = tuple(
        row + (n,) * (part - lambar.part(i))
        for i, (row, part) in enumerate(zip(rows, lam.parts), start=1)
    )
    return Tableau._trusted(rows, lam)


def cell_leq_by_reduction(T, Tp, mu, reduce=reduce_tableau):
    """Oracle for tableaux._cell_leq on the chains of T and Tp: compare the
    gammas of one reduction step of each, as partitions, and recurse on
    the reduced tableaux while they are equal."""
    if len(mu) == 0:
        return True
    gamma, Tbar, _, mubar = reduce(T, mu)
    gammap, Tbarp, _, _ = reduce(Tp, mu)
    if gamma == gammap:
        return cell_leq_by_reduction(Tbar, Tbarp, mubar, reduce)
    return all(g <= gammap.part(i) for i, g in enumerate(gamma.parts, start=1))


def h_by_reduction(T, mu):
    """Oracle for presentation.h_of_tableau: one validated reduce_tableau
    step per level, from len(mu) down, multiplying by h_part of that
    level's block for each part of the step's gamma."""
    out = Polynomial.one(mu.size())
    current, current_mu = T, mu
    for level in range(len(mu), 0, -1):
        gamma, current, _, current_mu = reduce_tableau(current, current_mu)
        for part in gamma.parts:
            out = out * complete_block(mu, (level,), part)
    return out


def column_strict_by_search(lam, mu):
    """Oracle for enumerate_column_strict without the zero-free key: a
    search over every label of mu, zero parts included, that builds each
    filling through the validating Tableau(...) and sorts the list by
    reading word."""
    heights = transpose(lam).parts
    counts = list(mu.parts)
    found = []

    def fill(j, cols):
        if j == len(heights):
            rows = [[col[i] for col in cols if len(col) > i] for i in range(max(heights, default=0))]
            found.append(Tableau(rows))
            return
        avail = [v for v in range(1, len(mu) + 1) if counts[v - 1] > 0]
        for chosen in combinations(avail, heights[j]):
            for v in chosen:
                counts[v - 1] -= 1
            fill(j + 1, cols + [chosen])
            for v in chosen:
                counts[v - 1] += 1

    fill(0, [])
    return sorted(found, key=Tableau.reading_word)


def key_tableaux_by_search(lam, mu):
    """Oracle for tableaux._key_tableaux: (fillings, chains, images) of the
    zero-free key of (lam, mu), with no recursion over the labels.  The
    fillings are those of column_strict_by_search for (lam, mu'), and each
    is then chained by _chain and straightened by _straighten on its own."""
    _check_sizes(lam, mu)
    parts = zero_free_key(lam, mu)[1]
    fillings = column_strict_by_search(lam, Composition(parts))
    chains = [_chain(T.columns(), parts) for T in fillings]
    images = [_straighten(chain, lam) for chain in chains]
    return fillings, chains, images


def count_by_columns(lam, mu):
    """Oracle for tableaux.count_column_strict without its pruning or cap:
    the forward programme over the columns of lam on sorted tuples of
    remaining label counts, keeping every state, completable or not."""
    states = {tuple(sorted(p for p in mu.parts if p)): 1}
    for h in transpose(lam).parts:
        after = {}
        for state, ways in states.items():
            for picks in combinations(range(len(state)), h):
                nxt = list(state)
                for i in picks:
                    nxt[i] -= 1
                nxt = tuple(sorted(v for v in nxt if v))
                after[nxt] = after.get(nxt, 0) + ways
        states = after
    return states.get((), 0)


def _horizontal_strips(inner, outer, size):
    """The partitions inside outer, as tuples of len(outer) parts, that
    grow inner by a horizontal strip of size boxes: row i grows to at most
    row i - 1 of inner, so no two new boxes share a column."""

    def grow(i, left):
        if i == len(inner):
            if left == 0:
                yield ()
            return
        cap = outer[i] if i == 0 else min(outer[i], inner[i - 1])
        for n in range(inner[i], min(cap, inner[i] + left) + 1):
            for rest in grow(i + 1, left - (n - inner[i])):
                yield (n,) + rest

    return grow(0, size)


def semistandard_by_strips(shape, content):
    """The semistandard tableaux of a shape and a content (tuples of
    parts), as lists of rows: label i fills a horizontal strip of
    content[i - 1] boxes.  Independent of the library's enumeration."""
    found = []

    def fill(label, current, rows):
        if label > len(content):
            if current == tuple(shape):
                found.append(rows)
            return
        for nxt in _horizontal_strips(current, shape, content[label - 1]):
            fill(label + 1, nxt, [row + [label] * (n - c) for row, c, n in zip(rows, current, nxt)])

    fill(1, (0,) * len(shape), [[] for _ in shape])
    return found


def charge(word):
    """Lascoux-Schutzenberger charge of a word whose content is a partition:
    the sum of the charges of its standard subwords.  A subword is read
    leftwards from the right end, cyclically: the rightmost 1 remaining,
    then the first 2 to its left, wrapping to the right end if there is
    none, and so on; the letter r + 1 has the index of r, plus one when
    the search for it wrapped, and 1 has index 0."""
    left = list(enumerate(word))
    total = 0
    while left:
        top = max(v for _, v in left)
        pos, index, picked = len(word), 0, []
        for r in range(1, top + 1):
            before = [p for p, v in left if v == r and p < pos]
            if before:
                pos = max(before)
            else:
                pos = max(p for p, v in left if v == r)
                index += 1
            total += index
            picked.append(pos)
        left = [(p, v) for p, v in left if p not in picked]
    return total


def charge_counts(rho, nu):
    """K_{rho, nu}(q) as {charge: count}: the charges of the semistandard
    tableaux of shape rho and content nu (tuples of parts), each read row
    by row from the bottom row to the top."""
    out = {}
    for rows in semistandard_by_strips(rho, nu):
        c = charge([v for row in reversed(rows) for v in row])
        out[c] = out.get(c, 0) + 1
    return out


def _partitions(d):
    if d == 0:
        return [()]
    out = []

    def gen(left, cap, parts):
        if left == 0:
            out.append(tuple(parts))
        for p in range(min(left, cap), 0, -1):
            gen(left - p, p, parts + [p])

    gen(d, d, [])
    return out


def _conjugate(parts):
    return tuple(sum(1 for p in parts if p > j) for j in range(parts[0])) if parts else ()


def hilbert_by_charge(lam, mu, springer_shape=_conjugate):
    """Oracle for the Hilbert series of the quotient of (lam, mu), from
    charge alone, as {x-degree: coefficient}:

      q^(-sum C(mu_i, 2)) sum_rho K_{rho^T, mu+} q^(n(nu)) K_{rho, nu}(1/q),

    nu = lam^T, mu+ the non-zero parts of mu sorted, n(nu) = sum (i - 1)
    nu_i, K_{rho, nu}(q) the sum of q^charge over the semistandard
    tableaux of shape rho and content nu, their reading word taken row by
    row from the bottom row to the top, and K_{rho^T, mu+} a count of
    semistandard tableaux (Lascoux-Schutzenberger, Hotta-Springer,
    Garsia-Procesi, Borho-MacPherson).  The shape of the Kostka number is
    springer_shape(rho), so that a test can try the wrong convention."""
    d = sum(lam.parts)
    nu = _conjugate(lam.parts)
    mu_plus = tuple(sorted((p for p in mu.parts if p), reverse=True))
    n_nu = sum(i * p for i, p in enumerate(nu))
    shift = sum(p * (p - 1) // 2 for p in mu.parts)
    out = {}
    for rho in _partitions(d):
        kostka = len(semistandard_by_strips(springer_shape(rho), mu_plus))
        if not kostka:
            continue
        for c, count in charge_counts(rho, nu).items():
            k = n_nu - c - shift
            out[k] = out.get(k, 0) + kostka * count
    return out


def tensor_by_all_products(certificate):
    """Oracle for presentation.structure_constants: the tensor {(i, j):
    coordinates} with the product of every pair i <= j formed and reduced
    on its own, and (j, i) given an equal entry."""
    ring = certificate.quotient.ring
    classes, degrees = certificate.classes, certificate.degrees
    tensor = {}
    for i in range(len(classes)):
        for j in range(i, len(classes)):
            product = ring.mul_classes(classes[i], degrees[i], classes[j], degrees[j])
            entry = certificate.coordinates_of_class(product, degrees[i] + degrees[j])
            tensor[(i, j)] = tensor[(j, i)] = entry
    return tensor
