"""Fraction-free exact linear algebra over the rationals.

A row is a dict {column: non-zero entry}, the one vector format of the
library: the rows of the presentation layer are mostly zero, so
elimination touches only their support.  Entries are Python integers,
except that scaled_residual also takes rows holding Fractions and
clears their denominators on the way in.

Ownership rule: no function changes a row it is given, and a returned
row may be shared (with a cache, a stored pivot row, or the argument
itself).  So a caller changes only a row it built itself and has not
handed on yet; a row given to insert may become a basis row as it is.

A subspace is kept as a set of primitive integer rows, one per pivot
column, each vanishing at all other pivot columns.  Elimination uses
integer multiples followed by division by the content, so no fractions
ever appear and ranks are exact.  Pivot columns are chosen as the first
non-zero coordinate of the reduced row, which makes every computation
deterministic.
"""

from fractions import Fraction
from math import gcd, lcm


def _subtract(row, f, p):
    """row -= f * p in place, keeping only non-zero entries."""
    get = row.get
    for k, y in p.items():
        v = get(k, 0) - f * y
        if v:
            row[k] = v
        else:
            del row[k]


def _primitive(row, pivot):
    """A non-empty sparse row divided by its content, positive at pivot."""
    g = gcd(*row.values())
    if row[pivot] < 0:
        g = -g
    if g == 1:
        return row
    return {k: v // g for k, v in row.items()}


class RowSpace:
    """A subspace of Q^width with exact rank and residuals.

    Canonical form: each stored row is primitive, its first non-zero
    entry sits in its pivot column and is positive, and it vanishes at
    every other pivot column.  So pivot_rows, which maps each pivot
    column to its row, holds the unique reduced echelon basis of the
    span, each row scaled to a primitive integer row, and two spaces of
    equal width are equal exactly when their pivot_rows are equal, which
    __eq__ compares.  A stored row is never changed in place (insert
    replaces it), so copy() shares them.

    Residual lemma: since the basis is reduced echelon, subtracting a
    multiple of the row of pivot c changes column c and non-pivot columns
    only, so clearing one pivot column never makes another pivot column
    non-zero.  The pivots to clear are therefore exactly the pivot
    columns in the support of the input row, known up front, and the
    order of clearing does not matter.

    Order lemma: the reduced echelon basis of a span is unique, so the
    order in which rows are inserted cannot change pivot_rows; it changes
    only the cost.  The stored row of pivot c is zero left of column c,
    so a gain whose lead lies left of every pivot column finds no stored
    row to back-substitute into.  extend therefore inserts a batch in
    descending order of first column, and insert skips its scan when the
    new lead is left of the smallest pivot column.
    """

    __slots__ = ("width", "pivot_rows", "_scale", "_first")

    def __init__(self, width):
        self.width = width
        self.pivot_rows = {}
        # lcm of the pivot entries; an insert that raises the rank resets it
        # to None, and scaled_residual computes it again when it is needed
        self._scale = 1
        # the smallest pivot column, width while the space is zero
        self._first = width

    @property
    def rank(self):
        return len(self.pivot_rows)

    def copy(self, width=None):
        """An independent copy, in Q^width for a width of at least
        self.width: the stored rows are zero in the added columns, so they
        stay canonical there."""
        out = RowSpace(self.width if width is None else width)
        out.pivot_rows = dict(self.pivot_rows)
        out._scale = self._scale
        out._first = min(out.pivot_rows, default=out.width)
        return out

    def _reduce(self, row):
        """Residual of an int row, up to a non-zero scalar: it vanishes at
        every pivot column.  It is row itself when no pivot column is hit.

        Unit-pivot lemma: a stored row with one entry is {c: 1}, since
        stored rows are primitive and positive at their pivot.  Its pivot
        entry 1 leaves the scale as it is, and clearing it subtracts
        row[c] times {c: 1}, which deletes column c and touches no other
        column.  So a row whose every entry sits on a unit pivot reduces to
        {}, with no copy."""
        pivot_rows = self.pivot_rows
        hits = [c for c in row if c in pivot_rows]
        if not hits:
            return row
        scale = 1
        units = 0
        for c in hits:
            p = pivot_rows[c]
            if len(p) == 1:
                units += 1
            else:
                pv = p[c]
                scale = scale * pv // gcd(scale, pv)
        if units == len(row):
            return {}
        row = {k: scale * v for k, v in row.items()} if scale != 1 else dict(row)
        for c in hits:
            p = pivot_rows[c]
            if len(p) == 1:
                del row[c]
            else:
                _subtract(row, row[c] // p[c], p)
        return row

    def insert(self, row):
        """Add an int row; returns True when the rank grows.
        Back-substitution touches only the pivot rows that are non-zero at
        the new pivot column; when that column is left of every pivot
        column there are none (order lemma), and the scan is skipped.
        Gain order: a gain adds its pivot column as the last key of
        pivot_rows and only replaces the rows of the other keys, so the
        keys of pivot_rows are the pivot columns in the order they were
        gained."""
        res = self._reduce(row)
        if not res:
            return False
        lead = min(res)
        res = _primitive(res, lead)
        pivot_rows = self.pivot_rows
        if lead < self._first:
            self._first = lead
        else:
            pv = res[lead]
            for c, p in list(pivot_rows.items()):
                v = p.get(lead)
                if v:
                    g = gcd(pv, v)
                    a = pv // g
                    q = {k: a * x for k, x in p.items()} if a != 1 else dict(p)
                    _subtract(q, v // g, res)
                    pivot_rows[c] = _primitive(q, c)
        pivot_rows[lead] = res
        self._scale = None
        return True

    def extend(self, rows, cap=None, marks=None):
        """Insert a batch of int rows; returns the rank gain.  The rows go
        in descending order of first column (a stable sort), so that most
        gains lead left of every pivot column and back-substitute into no
        stored row, and the batch stops once the rank reaches cap (default
        the width: a full space).  Unless it stops at a cap below the
        width, the result is the span of the batch and the space, whatever
        the order of rows (order lemma).

        With a dict marks, rows are (row, mark) pairs, and each row that
        raises the rank sets marks[its pivot column] = mark: by the gain
        order of insert, that column is the last key of pivot_rows."""
        pivot_rows = self.pivot_rows
        before = len(pivot_rows)
        if cap is None:
            cap = self.width
        insert = self.insert
        if marks is None:
            for row in sorted(filter(None, rows), key=min, reverse=True):
                if len(pivot_rows) >= cap:
                    break
                insert(row)
        else:
            pairs = sorted((p for p in rows if p[0]), key=lambda p: min(p[0]), reverse=True)
            for row, mark in pairs:
                if len(pivot_rows) >= cap:
                    break
                if insert(row):
                    marks[next(reversed(pivot_rows))] = mark
        return len(pivot_rows) - before

    def scaled_residual(self, row):
        """The residual row - (projection onto the space), scaled to
        integers: (L, L * residual), the residual as {column: non-zero int}.

        row may hold Fractions.  For an integer row, L is the lcm of the
        pivot entries of the space, so it depends on the space only and
        row -> L * residual is linear on integer rows, which matters when
        residuals of several rows are assembled into a new linear system.
        A row holding non-integral Fractions is first multiplied by the lcm
        D of its denominators, and the L returned includes the factor D.

        Exactness: by the residual lemma, clearing pivot c leaves every
        other pivot column unchanged, so when c is cleared its entry is
        still the scaled input entry L * row[c], and the pivot entry p[c]
        divides L; each multiple L * row[c] / p[c] is an exact integer.
        """
        scale = self._scale
        if scale is None:
            scale = self._scale = lcm(*(p[c] for c, p in self.pivot_rows.items()))
        den = 1
        if Fraction in map(type, row.values()):
            den = lcm(*(v.denominator for v in row.values()))
            row = {k: int(v * den) for k, v in row.items()}
        res = {k: scale * v for k, v in row.items()} if scale != 1 else dict(row)
        pivot_rows = self.pivot_rows
        for c in [c for c in res if c in pivot_rows]:
            p = pivot_rows[c]
            _subtract(res, res[c] // p[c], p)
        return scale * den, res

    def kernel(self):
        """Integer row basis of {x in Q^width : row . x = 0 for every row of
        the space}, one vector per non-pivot column f in increasing
        order: the primitive integer multiple, positive at f, of the
        vector with x[f] = 1, x[c] = -p[f] / p[c] for the row p of each
        pivot c, and 0 elsewhere.  Every entry p[f] with f != c lies in a
        non-pivot column, so the back-solve reads each row once; the
        scale is the lcm of the reduced denominators p[c] / gcd(p[f], p[c]).
        """
        pivot_rows = self.pivot_rows
        hits = {}
        for c, p in pivot_rows.items():
            for f, v in p.items():
                if f != c:
                    hits.setdefault(f, []).append((c, v, p[c]))
        vectors = []
        for f in range(self.width):
            if f in pivot_rows:
                continue
            column = hits.get(f, ())
            scale = 1
            for _, v, pv in column:
                den = pv // gcd(v, pv)
                scale = scale * den // gcd(scale, den)
            x = {f: scale}
            for c, v, pv in column:
                x[c] = -v * scale // pv
            vectors.append(x)
        return vectors

    def __eq__(self, other):
        """Equal width and equal pivot_rows (canonical form, above).  A
        space is equal to itself, so comparing an object with itself
        reads no row: the quotient build keeps one object for both
        families wherever their ideals agree (shared products in
        GradedQuotient._build), and rel_equivalence compares them."""
        if other is self:
            return True
        return (
            isinstance(other, RowSpace)
            and self.width == other.width
            and self.pivot_rows == other.pivot_rows
        )

