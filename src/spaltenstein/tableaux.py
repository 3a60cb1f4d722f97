"""Partitions, compositions and column-strict tableaux.

Conventions: Young diagrams are drawn the English way, rows weakly
decreasing top to bottom, columns numbered from 1 on the left.  A filling
is column-strict if entries strictly increase down each column, and
semi-standard if rows additionally increase weakly left to right.  The
content of a tableau is the vector counting occurrences of each entry.

The degree statistic, straightening, the cell order and the basis
polynomials of presentation all read one recursion, the reduction chain
(_chain): strip the largest label n, record the columns it fills as
gamma, recurse on the reduced tableau.

Every object here is an immutable value; all operations are pure
functions, so everything is safe to share between threads.  A Tableau
keeps its columns in one slot, filled by the enumerator or on the first
columns() call: the columns are a function of the rows (lemma in
_columns_to_tableau), so the slot takes no part in ==, hash or repr, and
a second filling writes an equal value.  A Partition or Composition
keeps its size in one slot the same way, filled on the first size()
call, so a pair read by many calls sums its parts once and a pair built
for one call pays nothing at construction but the empty slot.  A
Composition keeps its non-zero parts in one slot, set at construction
(zero_free_key).  The data shared per zero-free key (_KEYS, and the
one-key slot _LATEST, both written only by shared) holds only values
that a recomputation gives equal; through it, one key enumerates and
chains its fillings once, for every pair of the key.
"""

from itertools import combinations
from math import comb
from operator import index


class _Parts:
    """The members Partition and Composition share: a tuple of ints in the
    slot parts, immutable; messages and reprs name the class.

    The slot _size holds size() once read, else None; it is a function of
    parts, so it takes no part in ==, hash, repr or pickling."""

    __slots__ = ("parts", "_size")

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __repr__(self):
        return f"{type(self).__name__}({list(self.parts)})"

    def __iter__(self):
        return iter(self.parts)

    def __len__(self):
        return len(self.parts)

    def size(self):
        """The sum of the parts, computed at most once."""
        size = self._size
        if size is None:
            size = sum(self.parts)
            _set_size(self, size)
        return size

    def part(self, i):
        """The i-th part (1-indexed), zero beyond the length."""
        return self.parts[i - 1] if 1 <= i <= len(self.parts) else 0

    def to_json(self):
        return list(self.parts)

    def __reduce__(self):
        return type(self), (self.parts,)


class Partition(_Parts):
    """A weakly decreasing tuple of non-negative integers.

    Trailing zeros are stripped, so ``Partition((2, 1, 0))`` equals
    ``Partition((2, 1))``.
    """

    __slots__ = ()

    def __init__(self, parts=()):
        parts = tuple(map(index, parts))
        for a, b in zip(parts, parts[1:]):
            if a < b:
                raise ValueError(f"parts {parts} are not weakly decreasing")
        if parts and parts[-1] < 0:
            raise ValueError(f"parts {parts} contain a negative entry")
        while parts and parts[-1] == 0:
            parts = parts[:-1]
        object.__setattr__(self, "parts", parts)
        object.__setattr__(self, "_size", None)

    @classmethod
    def _trusted(cls, parts):
        """The partition of a tuple of positive ints, weakly decreasing,
        built without the checks of __init__: only for parts the library
        has built valid."""
        out = _new(cls)
        _set_parts(out, parts)
        _set_size(out, None)
        return out

    def __eq__(self, other):
        return isinstance(other, Partition) and self.parts == other.parts

    def __hash__(self):
        return hash(("Partition", self.parts))

    def height(self):
        return len(self.parts)

    def padded(self, n):
        """Parts as a length-n tuple, padded with zeros."""
        if len(self.parts) > n:
            raise ValueError(f"partition {self.parts} has more than {n} parts")
        return self.parts + (0,) * (n - len(self.parts))


class Composition(_Parts):
    """A sequence of non-negative integers of a fixed length.

    Zero parts are retained; they index empty variable blocks and shift
    the meaning of later parts, so the length is significant.

    The slot _nonzero holds the non-zero parts in order, set with parts
    (zero_free_key); it is a function of parts, so it takes no part in ==,
    hash, repr or pickling.
    """

    __slots__ = ("_nonzero",)

    def __init__(self, parts=()):
        parts = tuple(map(index, parts))
        if any(p < 0 for p in parts):
            raise ValueError(f"parts {parts} contain a negative entry")
        object.__setattr__(self, "parts", parts)
        object.__setattr__(self, "_size", None)
        object.__setattr__(self, "_nonzero", tuple(p for p in parts if p))

    def __eq__(self, other):
        return isinstance(other, Composition) and self.parts == other.parts

    def __hash__(self):
        return hash(("Composition", self.parts))

    def sorted(self):
        """The partition obtained by sorting the parts decreasingly: the
        non-zero parts, positive ints, sorted, so built unchecked."""
        return Partition._trusted(tuple(sorted(self._nonzero, reverse=True)))


_new = object.__new__
_set_parts = _Parts.parts.__set__
_set_size = _Parts._size.__set__


class Tableau:
    """A filling of a Young diagram by positive integers, stored row-major.

    The slot _columns holds columns() once known, else None; it is a
    function of the rows (see _columns_to_tableau), so it takes no part
    in ==, hash, repr or pickling."""

    __slots__ = ("rows", "shape", "_columns")

    def __init__(self, rows=()):
        rows = tuple(tuple(map(index, row)) for row in rows)
        while rows and not rows[-1]:
            rows = rows[:-1]
        shape = Partition(len(row) for row in rows)
        if any(v <= 0 for row in rows for v in row):
            raise ValueError("tableau entries must be positive integers")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "_columns", None)

    @classmethod
    def _trusted(cls, rows, shape, columns=None):
        """The tableau of rows (non-empty tuples of positive ints, of weakly
        decreasing lengths) with shape their lengths, built without the
        checks of __init__: only for data the library has built valid.  It
        equals Tableau(rows) in rows and shape.  columns, when given, must
        be the tuple that columns() would compute."""
        out = _new(cls)
        _set_rows(out, rows)
        _set_shape(out, shape)
        _set_columns(out, columns)
        return out

    def __setattr__(self, name, value):
        raise AttributeError("Tableau is immutable")

    def __eq__(self, other):
        return isinstance(other, Tableau) and self.rows == other.rows

    def __hash__(self):
        return hash(("Tableau", self.rows))

    def __repr__(self):
        return f"Tableau({[list(r) for r in self.rows]})"

    def __reduce__(self):
        return Tableau, (self.rows,)

    def columns(self):
        """Columns as tuples read top to bottom, computed at most once."""
        columns = self._columns
        if columns is None:
            columns = tuple(
                tuple(row[j] for row in self.rows if len(row) > j)
                for j in range(self.shape.part(1))
            )
            _set_columns(self, columns)
        return columns

    def reading_word(self):
        """Concatenated column reading word, top to bottom then left to right."""
        return tuple(v for col in self.columns() for v in col)

    def content(self, n=None):
        """Occurrence counts of 1..n as a Composition; n defaults to the max entry."""
        if n is None:
            n = max((v for row in self.rows for v in row), default=0)
        counts = [0] * n
        for row in self.rows:
            for v in row:
                if v > n:
                    raise ValueError(f"entry {v} exceeds n={n}")
                counts[v - 1] += 1
        return Composition(counts)

    def is_column_strict(self):
        return all(a < b for col in self.columns() for a, b in zip(col, col[1:]))

    def is_semistandard(self):
        if not self.is_column_strict():
            return False
        return all(
            a <= b for row in self.rows for a, b in zip(row, row[1:])
        )

    def to_json(self):
        return {"shape": self.shape.to_json(), "rows": [list(r) for r in self.rows]}


_set_rows = Tableau.rows.__set__
_set_shape = Tableau.shape.__set__
_set_columns = Tableau._columns.__set__


def partitions(d, max_parts=None):
    """Part tuples of the partitions of d with at most max_parts parts
    (default d), in decreasing lexicographic order."""

    def gen(remaining, cap, room):
        if remaining == 0:
            yield ()
            return
        if room <= 0:
            return
        for p in range(min(cap, remaining), 0, -1):
            for rest in gen(remaining - p, p, room - 1):
                yield (p,) + rest

    return gen(d, d, d if max_parts is None else max_parts)


def compositions(d, n):
    """Part tuples of the length-n compositions of d (zero parts allowed),
    in increasing lexicographic order."""
    if n <= 0:
        if n == 0 and d == 0:
            yield ()
        return
    for first in range(d + 1):
        for rest in compositions(d - first, n - 1):
            yield (first,) + rest


def iter_pairs(d_max, n_max=None):
    """Every (Partition, Composition) pair with |lam| = |mu| = d <= d_max,
    len(mu) = n for 1 <= n <= d (at most n_max), and at most n parts in
    lam; d = 0 gives the one empty pair.  Ordered by d, n, lam, then mu."""
    for d in range(d_max + 1):
        top_n = d if n_max is None else min(n_max, d)
        for n in range(0 if d == 0 else 1, top_n + 1):
            for lam in partitions(d, n):
                for mu in compositions(d, n):
                    yield Partition(lam), Composition(mu)


def _columns_to_tableau(columns):
    """The tableau of a tuple of non-empty columns of positive labels, top
    to bottom, in weakly decreasing order of height, built without checks;
    it keeps columns as its columns().

    Lemma: row i is (col[i] for the columns of height > i), and the
    heights decrease weakly, so row i has an entry in column j exactly
    when len(col_j) > i; column j read from the rows is then col_j[i] for
    i < len(col_j), which is col_j."""
    height = len(columns[0]) if columns else 0
    rows = tuple(tuple(col[i] for col in columns if len(col) > i) for i in range(height))
    return Tableau._trusted(rows, Partition._trusted(tuple(map(len, rows))), columns)


def _check_sizes(lam, mu):
    """ValueError unless |lam| = |mu|: the one wording of this fault, for
    the library's entry points and the command line's usage error."""
    if lam.size() != mu.size():
        raise ValueError(f"|lambda|={lam.size()} and |mu|={mu.size()} differ")


def dominance_leq(a, b):
    """Dominance order: every prefix sum of a is at most that of b.

    Both arguments must be partitions of the same number.

    Prefix lemma: the walk reads the prefix sums of a and b together, up
    to the last part of the shorter one.  With |a| = |b|: past b's last
    part b's prefix sum is |b| = |a|, which no prefix sum of a exceeds;
    past a's last part a's prefix sum is |a|, so a later prefix can fail
    only if b's prefix sum at len(a) is below |b|, and the walk's last
    step, at len(a), already tests that.
    """
    if a.size() != b.size():
        raise ValueError(f"dominance needs equal sizes, got {a.size()} != {b.size()}")
    sa = sb = 0
    for p, q in zip(a.parts, b.parts):
        sa += p
        sb += q
        if sa > sb:
            return False
    return True


def transpose(lam):
    """Transpose partition: column lengths of the Young diagram."""
    if not lam.parts:
        return Partition(())
    return Partition(
        sum(1 for p in lam.parts if p >= j) for j in range(1, lam.parts[0] + 1)
    )


def column_sequence_to_partition(c, k, d):
    """Decode a column sequence 1 <= c_1 < ... < c_k <= d into a partition.

    The parts satisfy gamma_{k+1-i} = c_i - i, giving the standard bijection
    with partitions inside a k x (d-k) rectangle.
    """
    c = tuple(map(index, c))
    if len(c) != k:
        raise ValueError(f"expected {k} column indices, got {len(c)}")
    if any(a >= b for a, b in zip(c, c[1:])):
        raise ValueError(f"column sequence {c} is not strictly increasing")
    if c and (c[0] < 1 or c[-1] > d):
        raise ValueError(f"column sequence {c} is not within 1..{d}")
    gamma = [0] * k
    for i in range(1, k + 1):
        gamma[k - i] = c[i - 1] - i
    return Partition(gamma)


def partition_to_column_sequence(gamma, k, d):
    """Inverse of column_sequence_to_partition on partitions in a k x (d-k) box."""
    if gamma.height() > k:
        raise ValueError(f"{gamma} has more than {k} parts")
    if gamma.part(1) > d - k:
        raise ValueError(f"{gamma} does not fit in a {k} x {d - k} rectangle")
    padded = gamma.padded(k)
    return tuple(padded[k - i] + i for i in range(1, k + 1))


def _check_member(T, mu):
    """The columns of T, once T is checked column-strict with content mu."""
    columns = T.columns()
    if not all(a < b for col in columns for a, b in zip(col, col[1:])):
        raise ValueError(f"tableau {T} is not column-strict")
    if T.content(len(mu)) != mu:
        raise ValueError(f"tableau content is not {mu}")
    return columns


def zero_free_key(lam, mu):
    """(lam parts, the non-zero parts of mu in order): the one datum that
    everything kept by shared depends on.  The non-zero parts are set
    when the Composition is built (its _nonzero slot), so a key costs no
    pass over the parts."""
    return lam.parts, mu._nonzero


# written only by shared: (zero-free key, kind) -> the value of that kind for
# every pair of the key, and kind -> (key, value) of the last zero-free pair
_KEYS, _LATEST = {}, {}


def shared(kind, lam, mu, compute):
    """compute(), a value other than None, kept per (zero-free key, kind)
    of (lam, mu).

    The rule for everything the library shares across pairs.  Read order:
    _KEYS, then the one-key slot _LATEST, then compute().  Storage rule: a
    pair whose mu has a zero part keeps the value in _KEYS (the object it
    read from the slot, if it did), a zero-free pair in the slot, which
    holds one key per kind, so its own later calls (the E quotient after
    the H quotient, say) read it back.  Keeping zero-free values in _KEYS
    too raised the peak RSS of a pass over every third zero-free d = 6
    pair from 23.2 to 27.1 MB (2 vCPUs, Python 3.11.7).  A compute() that
    raises leaves both tables as they were.  Read lemma: a value kept
    under a key, in either table, was computed by a pair of that key, and
    compute must give every pair of the key an equal value (by the lemma
    of its kind, below), so any pair may read either table:
      - "enumerate", "betti", "components": for every pair, the value of
        the zero-free pair of the key (lemma in enumerate_column_strict);
      - "chains": the reduction chains of those fillings (_key_chains);
      - "cores": the quotient data of both families (zero-block lemma in
        GradedQuotient); regular_quotient asks with a padded pair, so
        the regular core of (d, lam) is kept in _KEYS;
      - ("certificate", family), "transfer", "tensor": the data of
        certify_basis, anti_invariant_transfer and structure_constants.
    Values are read-only: callers relabel, rebuild or unpack them, and
    copy() a RowSpace before inserting into it.
    """
    key = zero_free_key(lam, mu)
    value = _KEYS.get((key, kind))
    if value is None:
        latest = _LATEST.get(kind)
        value = latest[1] if latest is not None and latest[0] == key else compute()
        if 0 in mu.parts:
            _KEYS[key, kind] = value
        else:
            _LATEST[kind] = (key, value)
    return value


def _identity(T):
    """The relabelling of a mu whose zero parts all trail (_relabelling)."""
    return T


def _relabelling(mu):
    """The label map iota of mu, applied entry by entry: the tableaux of the
    zero-free key of mu onto those of mu (lemma in enumerate_column_strict).
    When the zero parts of mu all trail, iota is the identity and this map
    is _identity, which callers test for to skip the map."""
    iota = (0,) + tuple(i for i, p in enumerate(mu.parts, start=1) if p)
    if iota == tuple(range(len(iota))):
        return _identity
    label = iota.__getitem__

    def relabel(T):
        return Tableau._trusted(tuple(tuple(map(label, row)) for row in T.rows), T.shape)

    return relabel


def enumerate_column_strict(lam, mu):
    """All column-strict fillings of shape lam with content mu.

    Returned in increasing lexicographic order of the column reading word.
    The list is empty exactly when mu sorted is not dominated by lam.

    Relabelling lemma.  Let mu' be mu with its zero parts deleted, and iota
    the order-preserving injection of the labels 1..len(mu') onto the
    labels of mu of non-zero multiplicity.  Labels of multiplicity zero
    never occur in a filling of content mu, so iota, applied entry by
    entry, is a bijection from the column-strict fillings of (lam, mu')
    onto those of (lam, mu).  Being order-preserving, it keeps column
    strictness both ways, semi-standardness and the order of reading
    words.  A zero part of mu adds an empty level to the reduction chain
    (_chain): the level strips no box and leaves the column order as it
    is, and every other level of iota(T) is the matching level of T, at
    the same positions.  So the degree, the straightening (replay lemma in
    _straighten: an empty level writes nothing, the others write iota(n)
    where T's replay writes n) and the cell order (_cell_leq: empty levels
    never differ) do not change: tableau_degree(iota(T), mu) equals
    tableau_degree(T, mu'), iota commutes with straighten and keeps
    cell_order.  This is the lemma of certify_basis, extended to fibers.

    So every pair returns the fillings of its zero-free pair, kept by
    shared (_key_fillings), relabelled by iota, in a new list; where iota
    is the identity, the list is a copy, with no call per tableau.
    """
    relabel = _relabelling(mu)
    if relabel is _identity:
        return list(_key_fillings(lam, mu))
    return [relabel(T) for T in _key_fillings(lam, mu)]


def _key_fillings(lam, mu):
    """The column-strict fillings of (lam, mu'), kept by shared as "enumerate";
    read-only.

    The search picks the columns left to right, each a combination of the
    labels still available, in increasing lexicographic order.  Column j
    has the fixed height lam'_j, so this is the lexicographic order of the
    reading words and the list needs no sort.  The backtracking keeps one
    iterator of candidates per column on an explicit stack, so a wide lam
    meets no recursion limit.

    Sizes are checked in the search only: every pair of a kept key (lam,
    mu') has |lam| = |mu'| = |mu|, and a pair of mismatched sizes has a key
    that is never kept, so its search raises the ValueError.
    """

    def search():
        _check_sizes(lam, mu)
        heights = transpose(lam).parts
        counts = list(zero_free_key(lam, mu)[1])
        results = []
        # cols holds the columns chosen so far; levels[j] iterates the
        # candidates of column j, and cols[j] is its current one
        cols, levels = [], []
        while True:
            if len(cols) == len(heights):
                results.append(_columns_to_tableau(tuple(cols)))
            else:
                avail = [v for v, c in enumerate(counts, start=1) if c]
                levels.append(combinations(avail, heights[len(cols)]))
            while levels:
                if len(cols) == len(levels):
                    for v in cols.pop():
                        counts[v - 1] += 1
                chosen = next(levels[-1], None)
                if chosen is not None:
                    break
                levels.pop()
            else:
                return results
            for v in chosen:
                counts[v - 1] -= 1
            cols.append(chosen)

    return shared("enumerate", lam, mu, search)


def _key_chains(lam, mu):
    """The chains of _key_fillings(lam, mu) in its order, read with the
    parts of mu', kept by shared as "chains" from the first read; read-only.
    By the relabelling lemma each is the chain of the matching filling of
    (lam, mu), read with the parts of mu, less the levels of its zeros."""
    parts = zero_free_key(lam, mu)[1]
    return shared(
        "chains", lam, mu, lambda: [_chain(T.columns(), parts) for T in _key_fillings(lam, mu)]
    )


def enumerate_semistandard(lam, mu):
    """Semi-standard subset of enumerate_column_strict, same order."""
    return [T for T in enumerate_column_strict(lam, mu) if T.is_semistandard()]


def count_column_strict(lam, mu):
    """Number of column-strict fillings, by dynamic programming.

    Counts 0/1 matrices with column sums the column lengths of lam and row
    sums mu, which is an enumeration-free oracle for len(enumerate_column_strict).
    The programme runs forward over the columns of lam, one loop step each.
    """
    _check_sizes(lam, mu)
    # states maps the sorted tuple of positive remaining counts, after the
    # columns so far, to the number of ways to reach it; labels with equal
    # count are interchangeable, so a column picks how many of each group
    states = {tuple(sorted(p for p in mu.parts if p > 0)): 1}
    for h in transpose(lam).parts:
        after = {}
        for state, ways in states.items():
            groups = []
            prev = None
            for v in state:
                if v == prev:
                    groups[-1][1] += 1
                else:
                    groups.append([v, 1])
                    prev = v
            for picks in _group_choices(groups, h):
                nxt = []
                mult = ways
                for (val, size), take in zip(groups, picks):
                    nxt.extend([val] * (size - take))
                    nxt.extend([val - 1] * take)
                    mult *= comb(size, take)
                nxt = tuple(sorted(v for v in nxt if v > 0))
                after[nxt] = after.get(nxt, 0) + mult
        states = after
    return states.get((), 0)


def _group_choices(groups, h):
    if not groups:
        if h == 0:
            yield ()
        return
    val, size = groups[0]
    for take in range(min(size, h) + 1):
        for rest in _group_choices(groups[1:], h - take):
            yield (take,) + rest


def _reduce_columns(columns, n):
    """One reduction step on columns: strip the boxes labelled n, re-sort.

    Returns (cols_of_n, new_columns).  Columns are re-ordered by a stable
    sort on height, which realises the repeated interchange of adjacent
    columns whenever the left one is shorter.
    """
    cols_of_n = []
    stripped = []
    for j, col in enumerate(columns, start=1):
        if col and col[-1] == n:
            cols_of_n.append(j)
            col = col[:-1]
        stripped.append(col)
    stripped = [col for col in stripped if col]
    stripped.sort(key=len, reverse=True)
    return cols_of_n, stripped


def reduce_tableau(T, mu):
    """Strip the maximal entry n from T and restore partition shape.

    Returns (gamma, Tbar, lambar, mubar): the partition encoded by the
    columns containing n, the reduced tableau, its shape, and mu without
    its last part.  This is the one-step definition; the library reads
    the whole recursion from _chain.
    """
    if len(mu) == 0:
        raise ValueError("mu must have at least one part")
    n = len(mu)
    cols_of_n, stripped = _reduce_columns(list(_check_member(T, mu)), n)
    gamma = column_sequence_to_partition(cols_of_n, mu.part(n), mu.size())
    Tbar = _columns_to_tableau(tuple(stripped))
    return gamma, Tbar, Tbar.shape, Composition(mu.parts[:-1])


def _chain(columns, mu_parts):
    """The reduction chain of a filling given as columns; no validation.

    For each level n = len(mu_parts)..1, in that order, the tuple of the
    increasing positions c_1 < ... < c_k of the columns whose bottom entry
    is n, in the column order of that level; they encode
    gamma_{k+1-i} = c_i - i (column_sequence_to_partition).  ValueError
    when n fills other than mu_parts[n - 1] columns.

    Chain lemma: this is the sequence of gammas of reduce_tableau applied
    len(mu_parts) times.  The loop keeps each column's current height and
    bottom entry (0 once empty), instead of stripping and re-sorting
    tuples as _reduce_columns does.  The stable sort by height at each
    level depends only on the heights and the previous order, so sorting
    the column indices by height gives the order of the stripped columns;
    a column emptied sorts to the end, where it fills no position before a
    non-empty one.  A level that strips nothing changes no height, so
    after the first level, which takes the columns in their given order,
    it keeps the order.
    """
    heights = [len(col) for col in columns]
    bottoms = [col[-1] if col else 0 for col in columns]
    order = range(len(columns))
    chain = []
    for n in range(len(mu_parts), 0, -1):
        level = []
        if n in bottoms:
            for pos, j in enumerate(order, start=1):
                if bottoms[j] == n:
                    level.append(pos)
                    h = heights[j] = heights[j] - 1
                    bottoms[j] = columns[j][h - 1] if h else 0
        if len(level) != mu_parts[n - 1]:
            raise ValueError(f"entry {n} fills {len(level)} columns, expected {mu_parts[n - 1]}")
        if level or n == len(mu_parts):
            order = sorted(order, key=heights.__getitem__, reverse=True)
        chain.append(tuple(level))
    return chain


def _member_chain(T, mu):
    """The chain of T once T is checked column-strict with content mu."""
    return _chain(_check_member(T, mu), mu.parts)


def tableau_degree(T, mu):
    """Cell dimension statistic: sum of |gamma| over the reduction chain."""
    return _degree_from_columns(_check_member(T, mu), mu.parts)


def _degree_from_columns(columns, mu_parts):
    """Degree of a valid filling given as columns; no validation."""
    return _chain_degree(_chain(columns, mu_parts))


def _chain_degree(chain):
    """The degree of a reduction chain: the sum of |gamma| = c_1 + ... +
    c_k - k(k+1)/2 over its levels."""
    return sum(sum(c) - len(c) * (len(c) + 1) // 2 for c in chain)


def straighten(T, mu):
    """The semi-standard tableau reached by rebuilding each entry greedily.

    Fixed points are exactly the semi-standard tableaux.
    """
    return _straighten(_member_chain(T, mu), T.shape, transpose(T.shape).parts)


def _straighten(chain, shape, column_heights):
    """straighten of the filling of this shape with this reduction chain;
    column_heights are those of the shape (transpose(shape).parts), which a
    caller straightening many fillings of one shape computes once.

    The recursion: S(T) is S(Tbar) with n appended to row i once for each
    box of row i stripped at level n, lam_i - lambar_i times.

    Replay lemma: a box stripped from the bottom of a column of height h
    lies in row h, so row h of S gains one n for each column of height h
    stripped at level n.  The heights in the column order of a level are
    the column heights of the shape sorted decreasingly, with the columns
    stripped so far shortened: the chain's positions index them.  So the
    replay keeps that sorted height list, lowers the heights at the
    positions of each level, re-sorts, and fills each row from the right,
    the largest label first.
    """
    heights = list(column_heights)
    rows = [[0] * p for p in shape.parts]
    ends = list(shape.parts)
    for n, level in zip(range(len(chain), 0, -1), chain):
        for c in level:
            h = heights[c - 1]
            heights[c - 1] = h - 1
            ends[h - 1] -= 1
            rows[h - 1][ends[h - 1]] = n
        if level:
            heights.sort(reverse=True)
    return Tableau._trusted(tuple(map(tuple, rows)), shape)


def cell_order(T, Tp, mu):
    """Compare two column-strict tableaux in the cell closure order.

    Returns one of "less", "equal", "greater", "incomparable".  The order
    is genuinely partial: it refines strict containment of the partitions
    produced along the reduction chain.
    """
    chain, chainp = _member_chain(T, mu), _member_chain(Tp, mu)
    if T.shape != Tp.shape:
        raise ValueError(f"shapes {T.shape} and {Tp.shape} differ")
    if T == Tp:
        return "equal"
    if _cell_leq(chain, chainp):
        return "less"
    if _cell_leq(chainp, chain):
        return "greater"
    return "incomparable"


def _cell_leq(chain, chainp):
    """Whether the tableau of chain lies below that of chainp in the cell
    order: the gamma of the first level where the chains differ is
    contained in that of chainp; True when no level differs.

    Containment lemma: with gamma_{k+1-i} = c_i - i and gamma'_{k+1-i} =
    c'_i - i, gamma is contained in gamma' exactly when c_i <= c'_i for
    every i, and equal positions give equal gammas."""
    for level, levelp in zip(chain, chainp):
        if level != levelp:
            return all(c <= cp for c, cp in zip(level, levelp))
    return True


def half_pair_sum(parts):
    """Sum of binomial(p, 2) over the parts, always an integer."""
    return sum(p * (p - 1) for p in parts) // 2


def dims(lam, mu):
    """The pair (d_lambda, d_mu) of half-sums of p*(p-1) over the parts."""
    return half_pair_sum(lam.parts), half_pair_sum(mu.parts)
