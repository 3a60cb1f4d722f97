"""Fraction-free exact linear algebra over the rationals.

Rows are dense lists of Python integers; every subspace is kept as a set
of primitive integer rows, one per pivot column, each vanishing at all
other pivot columns.  Elimination uses two-term integer
cross-multiplication followed by division by the content, so no
fractions ever appear and ranks are exact.  Rows are inserted in stream
order and pivot columns are chosen as the first non-zero coordinate of
the reduced row, which makes every computation deterministic.
"""

from bisect import insort
from fractions import Fraction
from math import gcd


def row_content(row):
    g = 0
    for v in row:
        if v:
            g = gcd(g, v)
            if g == 1:
                return 1
    return g


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


class RowSpace:
    """A subspace of Q^width with exact rank and membership tests.

    Canonical form: each stored row is primitive, its first non-zero
    entry sits in its pivot column and is positive, and it vanishes at
    every other pivot column.  So basis() is the unique reduced echelon
    basis of the span, each row scaled to a primitive integer row, and
    two spaces of equal width are equal exactly when their basis() tuples
    are equal; __eq__ compares them directly.
    """

    __slots__ = ("width", "pivot_rows", "_order")

    def __init__(self, width):
        self.width = width
        self.pivot_rows = {}
        self._order = []

    @property
    def rank(self):
        return len(self.pivot_rows)

    def copy(self):
        out = RowSpace(self.width)
        out.pivot_rows = {c: list(r) for c, r in self.pivot_rows.items()}
        out._order = list(self._order)
        return out

    def residual(self, row):
        """Reduce a row against the basis; primitive integer row or None.

        The residual vanishes at every pivot column.  Rows of Fractions
        are scaled to integers first (scaling does not change the span).
        """
        row = list(row)
        try:
            return self._residual_int(row)
        except TypeError:
            return self._residual_int(scaled_int_row(row))

    def _residual_int(self, row):
        for c in self._order:
            v = row[c]
            if v:
                p = self.pivot_rows[c]
                pv = p[c]
                g = gcd(pv, v)
                a, b = pv // g, v // g
                if a < 0:
                    a, b = -a, -b
                row = [a * x - b * y for x, y in zip(row, p)]
        return self._primitive(row, None)

    @staticmethod
    def _primitive(row, pivot):
        lead = next((i for i, v in enumerate(row) if v), None)
        if lead is None:
            return None
        g = row_content(row)
        if row[pivot if pivot is not None else lead] < 0:
            g = -g
        if g != 1:
            row = [v // g for v in row]
        return row

    def insert(self, row):
        """Add a row to the space; returns True when the rank grows."""
        row = self.residual(row)
        if row is None:
            return False
        lead = next(i for i, v in enumerate(row) if v)
        for c, p in list(self.pivot_rows.items()):
            v = p[lead]
            if v:
                pv = row[lead]
                g = gcd(pv, v)
                a, b = pv // g, v // g
                if a < 0:
                    a, b = -a, -b
                p = [a * x - b * y for x, y in zip(p, row)]
                self.pivot_rows[c] = self._primitive(p, c)
        self.pivot_rows[lead] = row
        insort(self._order, lead)
        return True

    def contains(self, row):
        return self.residual(row) is None

    def residual_fraction(self, row):
        """Exact residual row - (projection onto the space), as Fractions.

        Unlike residual this is linear in the input, which matters when
        residuals of several rows are assembled into a new linear system.
        """
        row = [Fraction(v) for v in row]
        for c in self._order:
            v = row[c]
            if v:
                p = self.pivot_rows[c]
                f = Fraction(v, p[c])
                row = [x - f * y for x, y in zip(row, p)]
        return row

    def basis(self):
        """Basis rows ordered by pivot column."""
        return tuple(tuple(self.pivot_rows[c]) for c in self._order)

    def __eq__(self, other):
        return (
            isinstance(other, RowSpace)
            and self.width == other.width
            and self.basis() == other.basis()
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
    pivots = sorted(echelon.pivot_rows)
    free = [c for c in range(width) if c not in echelon.pivot_rows]
    vectors = []
    for f in free:
        x = [Fraction(0)] * width
        x[f] = Fraction(1)
        for c in pivots:
            p = echelon.pivot_rows[c]
            x[c] = Fraction(-p[f], p[c])
        vectors.append(scaled_int_row(x))
    return vectors
