"""Partitions, compositions and column-strict tableaux.

Conventions: Young diagrams are drawn the English way, rows weakly
decreasing top to bottom, columns numbered from 1 on the left.  A filling
is column-strict if entries strictly increase down each column, and
semi-standard if rows additionally increase weakly left to right.  The
content of a tableau is the vector counting occurrences of each entry.

Every object here is an immutable value; all operations are pure
functions, so everything is safe to share between threads.
"""

from functools import lru_cache
from itertools import combinations
from math import comb


class Partition:
    """A weakly decreasing tuple of non-negative integers.

    Trailing zeros are stripped, so ``Partition((2, 1, 0))`` equals
    ``Partition((2, 1))``.
    """

    __slots__ = ("parts",)

    def __init__(self, parts=()):
        parts = tuple(int(p) for p in parts)
        for a, b in zip(parts, parts[1:]):
            if a < b:
                raise ValueError(f"parts {parts} are not weakly decreasing")
        if parts and parts[-1] < 0:
            raise ValueError(f"parts {parts} contain a negative entry")
        while parts and parts[-1] == 0:
            parts = parts[:-1]
        object.__setattr__(self, "parts", parts)

    def __setattr__(self, name, value):
        raise AttributeError("Partition is immutable")

    def __eq__(self, other):
        return isinstance(other, Partition) and self.parts == other.parts

    def __hash__(self):
        return hash(("Partition", self.parts))

    def __repr__(self):
        return f"Partition({list(self.parts)})"

    def __iter__(self):
        return iter(self.parts)

    def __len__(self):
        return len(self.parts)

    def size(self):
        return sum(self.parts)

    def height(self):
        return len(self.parts)

    def part(self, i):
        """The i-th part (1-indexed), zero beyond the height."""
        return self.parts[i - 1] if 1 <= i <= len(self.parts) else 0

    def padded(self, n):
        """Parts as a length-n tuple, padded with zeros."""
        if len(self.parts) > n:
            raise ValueError(f"partition {self.parts} has more than {n} parts")
        return self.parts + (0,) * (n - len(self.parts))

    def contains(self, other):
        """Containment of Young diagrams: other_i <= self_i for all i."""
        return all(other.part(i) <= self.part(i) for i in range(1, len(other) + 1))

    def to_json(self):
        return list(self.parts)


class Composition:
    """A sequence of non-negative integers of a fixed length.

    Zero parts are retained; they index empty variable blocks and shift
    the meaning of later parts, so the length is significant.
    """

    __slots__ = ("parts",)

    def __init__(self, parts=()):
        parts = tuple(int(p) for p in parts)
        if any(p < 0 for p in parts):
            raise ValueError(f"parts {parts} contain a negative entry")
        object.__setattr__(self, "parts", parts)

    def __setattr__(self, name, value):
        raise AttributeError("Composition is immutable")

    def __eq__(self, other):
        return isinstance(other, Composition) and self.parts == other.parts

    def __hash__(self):
        return hash(("Composition", self.parts))

    def __repr__(self):
        return f"Composition({list(self.parts)})"

    def __iter__(self):
        return iter(self.parts)

    def __len__(self):
        return len(self.parts)

    def size(self):
        return sum(self.parts)

    def part(self, i):
        return self.parts[i - 1] if 1 <= i <= len(self.parts) else 0

    def sorted(self):
        """The partition obtained by sorting the parts decreasingly."""
        return Partition(sorted(self.parts, reverse=True))

    def drop_last(self):
        return Composition(self.parts[:-1])

    def to_json(self):
        return list(self.parts)


class Tableau:
    """A filling of a Young diagram by positive integers, stored row-major."""

    __slots__ = ("rows", "shape")

    def __init__(self, rows=()):
        rows = tuple(tuple(int(v) for v in row) for row in rows)
        while rows and not rows[-1]:
            rows = rows[:-1]
        shape = Partition(len(row) for row in rows)
        if any(v <= 0 for row in rows for v in row):
            raise ValueError("tableau entries must be positive integers")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "shape", shape)

    def __setattr__(self, name, value):
        raise AttributeError("Tableau is immutable")

    def __eq__(self, other):
        return isinstance(other, Tableau) and self.rows == other.rows

    def __hash__(self):
        return hash(("Tableau", self.rows))

    def __repr__(self):
        return f"Tableau({[list(r) for r in self.rows]})"

    def columns(self):
        """Columns as tuples read top to bottom."""
        width = self.shape.part(1)
        return tuple(
            tuple(row[j] for row in self.rows if len(row) > j) for j in range(width)
        )

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
    columns = [col for col in columns if col]
    height = max((len(c) for c in columns), default=0)
    rows = []
    for i in range(height):
        rows.append(tuple(col[i] for col in columns if len(col) > i))
    return Tableau(rows)


def dominance_leq(a, b):
    """Dominance order: every prefix sum of a is at most that of b.

    Both arguments must be partitions of the same number.
    """
    if a.size() != b.size():
        raise ValueError(f"dominance needs equal sizes, got {a.size()} != {b.size()}")
    sa = sb = 0
    for m in range(1, max(len(a), len(b)) + 1):
        sa += a.part(m)
        sb += b.part(m)
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
    c = tuple(int(v) for v in c)
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
    if not T.is_column_strict():
        raise ValueError(f"tableau {T} is not column-strict")
    if T.content(len(mu)) != mu:
        raise ValueError(f"tableau content is not {mu}")


def enumerate_column_strict(lam, mu):
    """All column-strict fillings of shape lam with content mu.

    Returned in increasing lexicographic order of the column reading word.
    The list is empty exactly when mu sorted is not dominated by lam.
    """
    if lam.size() != mu.size():
        raise ValueError(f"|lam|={lam.size()} and |mu|={mu.size()} differ")
    heights = transpose(lam).parts
    n = len(mu)
    results = []
    counts = list(mu.parts)

    def fill(j, cols):
        if j == len(heights):
            results.append(_columns_to_tableau(cols))
            return
        avail = [v for v in range(1, n + 1) if counts[v - 1] > 0]
        for chosen in combinations(avail, heights[j]):
            for v in chosen:
                counts[v - 1] -= 1
            cols.append(chosen)
            fill(j + 1, cols)
            cols.pop()
            for v in chosen:
                counts[v - 1] += 1

    fill(0, [])
    results.sort(key=Tableau.reading_word)
    return results


def enumerate_semistandard(lam, mu):
    """Semi-standard subset of enumerate_column_strict, same order."""
    return [T for T in enumerate_column_strict(lam, mu) if T.is_semistandard()]


def count_column_strict(lam, mu):
    """Number of column-strict fillings, by dynamic programming.

    Counts 0/1 matrices with column sums the column lengths of lam and row
    sums mu, which is an enumeration-free oracle for len(enumerate_column_strict).
    """
    if lam.size() != mu.size():
        raise ValueError(f"|lam|={lam.size()} and |mu|={mu.size()} differ")
    heights = transpose(lam).parts

    @lru_cache(maxsize=None)
    def ways(j, state):
        if j == len(heights):
            return 1 if not state else 0
        h = heights[j]
        # state is the sorted tuple of positive remaining counts; values with
        # equal count are interchangeable, so group them.
        groups = []
        prev = None
        for v in state:
            if v == prev:
                groups[-1][1] += 1
            else:
                groups.append([v, 1])
                prev = v
        total = 0
        for picks in _group_choices(groups, h):
            nxt = []
            for (val, size), take in zip(groups, picks):
                nxt.extend([val] * (size - take))
                nxt.extend([val - 1] * take)
            nxt = tuple(sorted(v for v in nxt if v > 0))
            mult = 1
            for (val, size), take in zip(groups, picks):
                mult *= comb(size, take)
            total += mult * ways(j + 1, nxt)
        return total

    state = tuple(sorted(p for p in mu.parts if p > 0))
    result = ways(0, state)
    ways.cache_clear()
    return result


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
    its last part.
    """
    if len(mu) == 0:
        raise ValueError("mu must have at least one part")
    _check_member(T, mu)
    return _reduce_raw(T, mu)


@lru_cache(maxsize=1 << 18)
def _reduce_raw(T, mu):
    n = len(mu)
    d = mu.size()
    k = mu.part(n)
    cols_of_n, stripped = _reduce_columns(list(T.columns()), n)
    if len(cols_of_n) != k:
        raise ValueError(f"entry {n} fills {len(cols_of_n)} columns, expected {k}")
    gamma = column_sequence_to_partition(cols_of_n, k, d) if k else Partition(())
    Tbar = _columns_to_tableau(stripped)
    return gamma, Tbar, Tbar.shape, mu.drop_last()


def tableau_degree(T, mu):
    """Cell dimension statistic: sum of |gamma| over the reduction chain."""
    _check_member(T, mu)
    return _degree_from_columns(list(T.columns()), mu.parts)


def _degree_from_columns(columns, mu_parts):
    """Degree of a valid filling given as columns; no validation."""
    total = 0
    for n in range(len(mu_parts), 0, -1):
        cols_of_n, columns = _reduce_columns(columns, n)
        if len(cols_of_n) != mu_parts[n - 1]:
            raise ValueError(
                f"entry {n} fills {len(cols_of_n)} columns, expected {mu_parts[n - 1]}"
            )
        total += sum(c - i for i, c in enumerate(cols_of_n, start=1))
    return total


def straighten(T, mu):
    """The semi-standard tableau reached by rebuilding each entry greedily.

    Fixed points are exactly the semi-standard tableaux.
    """
    _check_member(T, mu)
    return _straighten(T, mu)


def _straighten(T, mu):
    n = len(mu)
    if n == 0:
        return T
    gamma, Tbar, lambar, mubar = _reduce_raw(T, mu)
    S = _straighten(Tbar, mubar)
    lam = T.shape
    rows = []
    for i in range(1, lam.height() + 1):
        row = list(S.rows[i - 1]) if i <= S.shape.height() else []
        row.extend([n] * (lam.part(i) - lambar.part(i)))
        rows.append(row)
    return Tableau(rows)


def cell_order(T, Tp, mu):
    """Compare two column-strict tableaux in the cell closure order.

    Returns one of "less", "equal", "greater", "incomparable".  The order
    is genuinely partial: it refines strict containment of the partitions
    produced along the reduction chain.
    """
    _check_member(T, mu)
    _check_member(Tp, mu)
    if T.shape != Tp.shape:
        raise ValueError(f"shapes {T.shape} and {Tp.shape} differ")
    if T == Tp:
        return "equal"
    if _cell_leq(T, Tp, mu):
        return "less"
    if _cell_leq(Tp, T, mu):
        return "greater"
    return "incomparable"


def _cell_leq(T, Tp, mu):
    n = len(mu)
    if n == 0:
        return True
    gamma, Tbar, _, mubar = _reduce_raw(T, mu)
    gammap, Tbarp, _, _ = _reduce_raw(Tp, mu)
    if gamma == gammap:
        return _cell_leq(Tbar, Tbarp, mubar)
    return gammap.contains(gamma)


def half_pair_sum(parts):
    """Sum of binomial(p, 2) over the parts, always an integer."""
    return sum(p * (p - 1) for p in parts) // 2


def dims(lam, mu):
    """The pair (d_lambda, d_mu) of half-sums of p*(p-1) over the parts."""
    return half_pair_sum(lam.parts), half_pair_sum(mu.parts)
