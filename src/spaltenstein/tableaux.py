"""Partitions, compositions and column-strict tableaux.

Conventions: Young diagrams are drawn the English way, rows weakly
decreasing top to bottom, columns numbered from 1 on the left.  A filling
is column-strict if entries strictly increase down each column, and
semi-standard if rows additionally increase weakly left to right.  The
content of a tableau is the vector counting occurrences of each entry.

The degree statistic, straightening, the cell order and the basis
polynomials of presentation all read one recursion, the reduction chain
(_chain): strip the largest label n, record the columns it fills as
gamma, recurse on the reduced tableau.  One tableau is chained by _chain
and straightened by _straighten; the fillings of a key are built with
their chains and straightened images in one pass over the same
recursion (recursion lemma in _key_tableaux).

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
that a recomputation gives equal; through it, one key enumerates,
chains and straightens its fillings once, for every pair of the key.
"""

from itertools import combinations, groupby, product
from math import comb
from operator import index, itemgetter


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
        "enumerate" holds the fillings with their chains and images
        (_key_tableaux);
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
    """The column-strict fillings of (lam, mu') in reading-word order, the
    first of _key_tableaux(lam, mu); read-only."""
    return _key_tableaux(lam, mu)[0]


def _key_chains(lam, mu):
    """The chains of _key_fillings(lam, mu) in its order, read with the
    parts of mu', the second of _key_tableaux(lam, mu); read-only.  By the
    relabelling lemma each is the chain of the matching filling of (lam,
    mu), read with the parts of mu, less the levels of its zeros."""
    return _key_tableaux(lam, mu)[1]


def _key_tableaux(lam, mu):
    """(fillings, chains, images) of (lam, mu'), kept by shared as
    "enumerate"; read-only.  fillings lists the column-strict fillings in
    increasing lexicographic order of their reading words, chains[i] is
    the reduction chain of fillings[i] read with the parts of mu' (_chain),
    a tuple of tuples, and images[i] its straightening (_straighten), one
    object per fiber.

    Recursion lemma.  By the bijection lemma of reports.betti, a filling
    of the weakly decreasing column heights h by the labels 1..n is a
    choice c of k = mu'_n positions, those of the columns that n ends, and
    a filling by the labels 1..n-1 of the lowered heights, stably
    re-sorted decreasingly, zeros dropped: undo the stable sort and append
    n to the columns at c.  Its chain is (c,) followed by the chain of the
    sub-filling (chain lemma in _chain), and its straightened rows are
    those of the sub-filling with n appended to row h_j once for each j in
    c (replay lemma in _straighten).  Choices that lower columns of equal
    heights lower the same heights and append to the same rows, so the
    images of h are interned per multiset of the heights at c.

    The sub-results depend on the lowered heights and n only, so each is
    built once: a pass down the labels collects the heights that each
    label reaches, and a pass up builds a label's results from those of
    the label below, which it then drops; with no recursion, a tall lam
    meets no recursion limit.  The pass down keeps only the choices whose
    lowered heights the labels left can fill, found run by run without a
    dead end (lowering lemma in _lowerings), so every choice kept leads
    to a filling: the key (30, 15), (30, 15) takes one choice per label,
    where trying every set of positions would try C(30, 15) for the label
    2.  The top level has the fixed column heights of lam, so sorting
    its results by their column tuples gives the order of the reading
    words.

    Sizes are checked in the build only: every pair of a kept key (lam,
    mu') has |lam| = |mu'| = |mu|, and a pair of mismatched sizes has a key
    that is never kept, so its build raises the ValueError.
    """

    def build():
        _check_sizes(lam, mu)
        if not dominance_leq(mu.sorted(), lam):
            return [], [], []
        top = transpose(lam).parts
        labels = zero_free_key(lam, mu)[1]
        # down: per label from n, each heights tuple it reaches, with its
        # choices (chain level, c, lowered heights, slots, heights at c);
        # column j of a filling is column slots[j] of its sub-filling, the
        # past-the-end slot standing for an emptied column.  Every choice
        # kept leaves fillable heights (_lowerings), so every heights tuple
        # reached has a filling.
        plan, reached = [], {top}
        for n in range(len(labels), 0, -1):
            k, rest, level, below = labels[n - 1], None, {}, set()
            for heights in reached:
                level[heights] = choices = []
                runs = [(h, len(tuple(g))) for h, g in groupby(heights)]
                if len(runs) > 1 and rest is None:
                    rest = sorted(labels[: n - 1], reverse=True)
                for takes in _lowerings(runs, k, rest):
                    live, hc, blocks, start = [], (), [], 0
                    for (h, size), t in zip(runs, takes):
                        live += [h] * (size - t) + [h - 1] * t
                        hc += (h,) * t
                        blocks.append(combinations(range(start, start + size), t))
                        start += size
                    live = tuple(live[: len(live) - live.count(0)])
                    below.add(live)
                    for parts in product(*blocks):
                        c = sum(parts, ())
                        lowered = list(heights)
                        for j in c:
                            lowered[j] -= 1
                        order = sorted(range(len(heights)), key=lowered.__getitem__, reverse=True)
                        slots = [0] * len(heights)
                        for pos, j in enumerate(order):
                            slots[j] = min(pos, len(live))
                        choices.append((tuple(j + 1 for j in c), c, live, slots, hc))
            plan.append(level)
            reached = below
        # up: done maps each heights tuple of the label below to its
        # fillings, as (columns, chain, image number), and its image rows
        done = {(): ([((), (), 0)], [()])}
        for n, level in enumerate(reversed(plan), start=1):
            label, up = (n,), {}
            for heights, choices in level.items():
                fillings, images, blocks = [], [], {}
                for pos, c, live, slots, hc in choices:
                    sub = done[live]
                    base = blocks.get(hc)
                    if base is None:
                        base = blocks[hc] = len(images)
                        for rows in sub[1]:
                            rows = list(rows) + [()] * (heights[0] - len(rows))
                            for h in hc:
                                rows[h - 1] += label
                            images.append(tuple(rows))
                    head = (pos,)
                    for cols, chain, image in sub[0]:
                        new = list(map((cols + ((),)).__getitem__, slots))
                        for j in c:
                            new[j] += label
                        fillings.append((tuple(new), head + chain, base + image))
                up[heights] = (fillings, images)
            done = up
        fillings, rows = done[top]
        fillings.sort(key=itemgetter(0))
        images = [Tableau._trusted(r, lam) for r in rows]
        widths = [(itemgetter(i), w) for i, w in enumerate(lam.parts)]
        return (
            [
                Tableau._trusted(tuple([tuple(map(g, cols[:w])) for g, w in widths]), lam, cols)
                for cols, _, _ in fillings
            ],
            [chain for _, chain, _ in fillings],
            [images[image] for _, _, image in fillings],
        )

    return shared("enumerate", lam, mu, build)


def enumerate_semistandard(lam, mu):
    """Semi-standard subset of enumerate_column_strict, same order."""
    return [T for T in enumerate_column_strict(lam, mu) if T.is_semistandard()]


def count_column_strict(lam, mu, cap=None):
    """Number of column-strict fillings, by dynamic programming.

    Counts 0/1 matrices with column sums the column lengths of lam and row
    sums mu, which is an enumeration-free oracle for len(enumerate_column_strict).
    The programme runs forward over the columns of lam, one loop step each.

    Gale-Ryser lemma: a 0/1 matrix with row sums r and column sums the
    weakly decreasing heights h exists exactly when sum(r) = sum(h) and r
    sorted decreasingly is dominated by the conjugate of h.  A state, the
    label counts left after some columns, survives only if it can be
    completed by the remaining columns, whose conjugate loses one box per
    row of the column just taken; so every surviving state has at least
    one completion, and after any column the count is at least the sum of
    the surviving ways.  With cap, the programme returns that sum as soon
    as it exceeds cap: the result is the count when the count is at most
    cap, and otherwise a number above cap and at most the count.
    """
    _check_sizes(lam, mu)
    # conj lists the row lengths of the remaining columns
    conj = list(lam.parts)

    def completes(state):
        return all(slack >= 0 for slack in _slacks(reversed(state), conj))

    # states maps the sorted tuple of positive remaining counts, after the
    # columns so far, to the number of ways to reach it; labels with equal
    # count are interchangeable, so a column picks how many of each group
    start = tuple(sorted(p for p in mu.parts if p > 0))
    states = {start: 1} if completes(start) else {}
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
        for i in range(h):
            conj[i] -= 1
        states = {state: ways for state, ways in after.items() if completes(state)}
        if cap is not None:
            total = sum(states.values())
            if total > cap:
                return total
    return states.get((), 0)


def _slacks(counts, conj):
    """The slacks of the Gale-Ryser test (lemma in count_column_strict):
    for i = 1, ..., len(counts), the sum of the first i row lengths conj
    of the heights (zero past its end) less the sum of the first i
    counts, which are in decreasing order.  The test passes exactly when
    no slack is negative; past len(counts) the slack only grows."""
    room = total = 0
    for i, v in enumerate(counts):
        total += v
        room += conj[i] if i < len(conj) else 0
        yield room - total


def _lowerings(runs, k, counts):
    """Each way to lower k of the column heights by one and leave heights
    that the labels left can fill, as the tuple of how many columns each
    run of equal heights lowers.

    runs lists the runs as (height, number of columns), heights
    decreasing; counts lists the counts of the labels left, decreasing,
    and is read only when there are two runs or more.  The heights must
    have a filling by those labels and one more of count k.

    Lowering lemma.  Lowering a column of height h takes one box off the
    row lengths of the heights at row h, so it lowers slack(i) (_slacks)
    by one at every i >= h: the lowered heights pass the Gale-Ryser test
    exactly when, for every i, at most slack(i) of the lowered columns
    have height at most i.  Take the runs from the shortest.  The columns
    lowered up to a run of height g number at most the least of k and of
    slack(i) for i >= g (later runs only add, and from the tallest height
    on the slack is at least k), and at least k less the columns of the
    taller runs.  Both bounds grow from run to run, the lower one by the
    size of the next run, so any number within a run's bounds leaves the
    next run a number within its own; the given filling's lowering meets
    every bound, so no run's bounds cross.  So each tuple yielded passes
    the test, and the search meets no dead end.
    """
    if len(runs) == 1:
        yield (k,)
        return
    # conj[i] is the length of row i + 1 of the heights
    conj, width, below = [], sum(size for _, size in runs), 0
    for h, size in reversed(runs):
        conj += [width] * (h - below)
        width, below = width - size, h
    tallest = len(conj)
    counts = counts[: tallest - 1]
    slack = list(_slacks(counts + [0] * (tallest - 1 - len(counts)), conj))
    # caps[g - 1]: the least of k and of slack(i) for i >= g
    caps = slack + [k]
    for i in range(tallest - 2, -1, -1):
        caps[i] = min(caps[i], caps[i + 1])
    above = [0]
    for _, size in runs:
        above.append(above[-1] + size)

    def pick(a, taken):
        # the runs a, a - 1, ..., 0 are left; taken columns of the shorter
        # runs are lowered
        h, size = runs[a]
        for t in range(max(0, k - above[a] - taken), min(size, caps[h - 1] - taken) + 1):
            if a == 0:
                yield (t,)
            else:
                for rest in pick(a - 1, taken + t):
                    yield rest + (t,)

    yield from pick(len(runs) - 1, 0)


def _group_choices(groups, h, room=None):
    """Each way to take h members from groups of (value, size), as the
    tuple of how many each group gives; room, the total size of the
    groups, bounds what the later groups can give, so no branch is a dead
    end."""
    if room is None:
        room = sum(size for _, size in groups)
    if not groups:
        if h == 0:
            yield ()
        return
    size = groups[0][1]
    room -= size
    for take in range(max(0, h - room), min(size, h) + 1):
        for rest in _group_choices(groups[1:], h - take, room):
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
    """The reduction chain of a filling given as columns, a tuple of
    levels; no validation.

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
    return tuple(chain)


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
    return _straighten(_member_chain(T, mu), T.shape)


def _straighten(chain, shape):
    """straighten of the filling of this shape with this reduction chain.

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
    heights = list(transpose(shape).parts)
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
