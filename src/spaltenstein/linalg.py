"""Fraction-free exact linear algebra over the rationals.

Every public function and method takes and returns dense rows (lists of
Python integers or Fractions).  Inside RowSpace each basis row is stored
sparse, as a dict {column: non-zero int}: the rows of the presentation
layer are mostly zero, so elimination touches only their support.  A
subspace is kept as a set of primitive integer rows, one per pivot
column, each vanishing at all other pivot columns.  Elimination uses
integer multiples followed by division by the content, so no fractions
ever appear and ranks are exact.  Pivot columns are chosen as the first
non-zero coordinate of the reduced row, which makes every computation
deterministic.
"""

from fractions import Fraction
from math import gcd


def scaled_int_row(row):
    """Clear denominators of a row of Fractions or ints."""
    lcm = 1
    for v in row:
        if isinstance(v, Fraction):
            den = v.denominator
            lcm = lcm * den // gcd(lcm, den)
    if lcm == 1:
        return [int(v) for v in row]
    return [int(v * lcm) for v in row]


def _sparse_int(row):
    """A dense row as {column: non-zero int}; a row holding Fractions is
    first scaled to integers (scaling does not change the span)."""
    sparse = {i: v for i, v in enumerate(row) if v}
    if Fraction in map(type, sparse.values()):
        sparse = {i: v for i, v in enumerate(scaled_int_row(row)) if v}
    return sparse


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
    """A subspace of Q^width with exact rank and membership tests.

    Canonical form: each stored row is primitive, its first non-zero
    entry sits in its pivot column and is positive, and it vanishes at
    every other pivot column.  So basis() is the unique reduced echelon
    basis of the span, each row scaled to a primitive integer row, and
    two spaces of equal width are equal exactly when their pivot_rows
    are equal; __eq__ compares them directly, without densifying.

    pivot_rows maps each pivot column to its row as {column: non-zero
    int}.  A stored row dict is never changed in place (insert replaces
    it), so copy() shares them.

    Residual lemma: since the basis is reduced echelon, subtracting a
    multiple of the row of pivot c changes column c and non-pivot columns
    only, so clearing one pivot column never makes another pivot column
    non-zero.  The pivots to clear are therefore exactly the pivot
    columns in the support of the input row, known up front, and the
    order of clearing does not matter.
    """

    __slots__ = ("width", "pivot_rows")

    def __init__(self, width):
        self.width = width
        self.pivot_rows = {}

    @property
    def rank(self):
        return len(self.pivot_rows)

    def copy(self):
        out = RowSpace(self.width)
        out.pivot_rows = dict(self.pivot_rows)
        return out

    def _reduce(self, row):
        """Residual of a sparse int row (consumed), up to a non-zero
        scalar: it vanishes at every pivot column."""
        pivot_rows = self.pivot_rows
        hits = [c for c in row if c in pivot_rows]
        if not hits:
            return row
        scale = 1
        for c in hits:
            pv = pivot_rows[c][c]
            scale = scale * pv // gcd(scale, pv)
        if scale != 1:
            row = {k: scale * v for k, v in row.items()}
        for c in hits:
            p = pivot_rows[c]
            _subtract(row, row[c] // p[c], p)
        return row

    def _dense(self, row):
        out = [0] * self.width
        for k, v in row.items():
            out[k] = v
        return out

    def residual(self, row):
        """Reduce a row against the basis; primitive integer row or None.

        The residual vanishes at every pivot column and is positive at
        its first non-zero entry.
        """
        res = self._reduce(_sparse_int(row))
        if not res:
            return None
        return self._dense(_primitive(res, min(res)))

    def insert(self, row):
        """Add a row to the space; returns True when the rank grows.

        Back-substitution touches only the pivot rows that are non-zero
        at the new pivot column.
        """
        res = self._reduce(_sparse_int(row))
        if not res:
            return False
        lead = min(res)
        res = _primitive(res, lead)
        pv = res[lead]
        pivot_rows = self.pivot_rows
        for c, p in list(pivot_rows.items()):
            v = p.get(lead)
            if v:
                g = gcd(pv, v)
                a = pv // g
                q = {k: a * x for k, x in p.items()} if a != 1 else dict(p)
                _subtract(q, v // g, res)
                pivot_rows[c] = _primitive(q, c)
        pivot_rows[lead] = res
        return True

    def contains(self, row):
        return not self._reduce(_sparse_int(row))

    def residual_fraction(self, row):
        """Exact residual row - (projection onto the space), as Fractions.

        Unlike residual this is linear in the input, which matters when
        residuals of several rows are assembled into a new linear system.
        """
        res = {i: Fraction(v) for i, v in enumerate(row) if v}
        pivot_rows = self.pivot_rows
        for c in [c for c in res if c in pivot_rows]:
            p = pivot_rows[c]
            _subtract(res, res[c] / p[c], p)
        out = [Fraction(0)] * len(row)
        for k, v in res.items():
            out[k] = v
        return out

    def basis(self):
        """Basis rows as dense tuples, ordered by pivot column."""
        return tuple(tuple(self._dense(self.pivot_rows[c])) for c in sorted(self.pivot_rows))

    def __eq__(self, other):
        return (
            isinstance(other, RowSpace)
            and self.width == other.width
            and self.pivot_rows == other.pivot_rows
        )


def span(rows, width):
    space = RowSpace(width)
    for row in rows:
        space.insert(row)
    return space


def transpose_rows(rows, width):
    return [[row[c] for row in rows] for c in range(width)]


def kernel_basis(rows, width):
    """Integer basis of {x in Q^width : row . x = 0 for all rows}.

    Deterministic: free coordinates are taken in increasing order.
    """
    echelon = span(rows, width)
    pivot_rows = echelon.pivot_rows
    vectors = []
    for f in range(width):
        if f in pivot_rows:
            continue
        x = [0] * width
        x[f] = 1
        for c, p in pivot_rows.items():
            v = p.get(f)
            if v:
                x[c] = Fraction(-v, p[c])
        vectors.append(scaled_int_row(x))
    return vectors
