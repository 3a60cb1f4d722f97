"""Exact arithmetic in the coinvariant algebra of S_d.

Every ideal considered by the presentation layer contains the full
symmetric ideal (the family bound for the full index set is always
zero), so all graded linear algebra can be compressed into the
coinvariant quotient C = Q[x_1..x_d] / (symmetric polynomials of
positive degree).  C has dimension d!, with graded pieces no larger than
the number of permutations with a given inversion count, which keeps all
row widths small even where the ambient polynomial ring explodes.

Normal forms are taken with respect to the triangular set

    g_i = h_i(x_i, ..., x_d)          (i = 1, ..., d)

whose members lie in the symmetric ideal by the expansion of
h_i(x_i,...,x_d) over e_t(x_1,...,x_{i-1}) * h_{i-t}(x_1,...,x_d).  The
leading term of g_i is x_i^i, so the reduced monomials are the staircase
monomials x^a with a_i <= i - 1; there are d! of them, matching dim C,
which proves the set is a Groebner basis degree by degree.  No monomial
is divided by it, though.  Two recursions fill the tables instead:
  - table lemma (var_matrix): the table of x_v on degree r, a sparse
    integer matrix, is built from the table of x_v on degree r - 1 and
    the tables of x_u, u > v, on degree r, with g_v read off directly
    where neither applies; the normal form of a monomial (nf) is then
    x_i times that of the monomial divided by x_i, read off a table;
  - vanishing lemma (sym_classes): h_r(X) = (-1)^r e_r of the other
    variables in C, so the classes of e_r(X) and h_r(X), built by a short
    linear recurrence over the variables, vanish above |X| and d - |X|,
    and each list is built once, up to that bound.
Each ring keeps every table it determines, the rows of invariant_rows
included.  Those are the S_mu-invariants only: the sign-isotypic classes
are eps times them (eps lemma in presentation._transfer_ranks), so no
anti-invariant rows are solved for.

A class is a row {position: non-zero entry} over the per-degree
staircase basis, ordered lexicographically, as in linalg, whose
ownership rule holds here too: the rows returned may be shared with the
caches of the ring.  Entries are integers, except that
class_of_polynomial returns the Fractions of the coefficients.  nf
returns the normal form of a monomial as a tuple of (position, non-zero
int) pairs, and the variable and swap matrices are lists of nf rows.
Degrees in this module are x-degrees; the public grading of the library
doubles them.

Rings are refused above d = MAX_D, before any monomial is generated: the
staircase basis has d! monomials, so d = 9 already needs 362,880 of them
and the variable matrices of every degree.
"""

from itertools import combinations_with_replacement, product
from operator import add

from .linalg import RowSpace, _subtract

# the largest d a CoinvariantRing is built for
MAX_D = 8


class CoinvariantRing:
    """Staircase model of Q[x_1..x_d]/(positive-degree symmetric polynomials).

    Raises ValueError for d > MAX_D.
    """

    def __init__(self, d):
        if d > MAX_D:
            raise ValueError(f"d = {d} exceeds the limit d <= {MAX_D} of the coinvariant ring")
        self.d = d
        self.top = d * (d - 1) // 2
        basis = [[] for _ in range(self.top + 1)]
        for mono in product(*(range(i) for i in range(1, d + 1))):
            basis[sum(mono)].append(mono)
        for row in basis:
            row.sort()
        self.basis = [tuple(row) for row in basis]
        self.index = {}
        for r, row in enumerate(self.basis):
            for pos, mono in enumerate(row):
                self.index[mono] = pos
        self._nf = {}
        self._var_matrices = {}
        self._pairs = {}
        self._swap_matrices = {}
        self._sym_classes = {}
        self._invariants = {}

    def dim(self, r):
        return len(self.basis[r]) if 0 <= r <= self.top else 0

    def unit(self):
        return {0: 1}

    def nf(self, mono):
        """Class of a monomial as a sparse row: a tuple of (position,
        non-zero int) pairs over its degree, in increasing position; () above
        top.

        A staircase monomial is its own basis vector.  Otherwise, with i the
        first index where a_i >= i, the class is x_i times the class of
        x^a / x_i, read off the variable table X_i of the degree below:
        normal forms are unique and linear.  Memoised per monomial, and
        equal pairs are stored once per ring, to save memory; the rows are
        shared, so callers must not change them."""
        row = self._nf.get(mono)
        if row is not None:
            return row
        r = sum(mono)
        if r > self.top:
            row = ()
        else:
            for i, a in enumerate(mono, start=1):
                if a >= i:
                    lower = list(mono)
                    lower[i - 1] -= 1
                    row = self._times(self.nf(tuple(lower)), self.var_matrix(i, r - 1))
                    break
            else:
                jw = (self.index[mono], 1)
                row = (self._pairs.setdefault(jw, jw),)
        self._nf[mono] = row
        return row

    def _times(self, row, table):
        """The nf row sum val * table[pos] over the (pos, val) pairs of row."""
        acc = {}
        get = acc.get
        for pos, val in row:
            for j, w in table[pos]:
                acc[j] = get(j, 0) + val * w
        items = [jw for jw in sorted(acc.items()) if jw[1]]
        return tuple(map(self._pairs.setdefault, items, items))

    def class_of_polynomial(self, p):
        """Classes of a polynomial, one non-zero row per degree."""
        if p.d != self.d:
            raise ValueError(f"polynomial has {p.d} variables, ring has {self.d}")
        out = {}
        for mono, coeff in p.terms.items():
            r = sum(mono)
            if r > self.top or not coeff:
                continue
            row = out.setdefault(r, {})
            get = row.get
            for pos, val in self.nf(mono):
                x = get(pos, 0) + coeff * val
                if x:
                    row[pos] = x
                else:
                    del row[pos]
        return {r: row for r, row in out.items() if row}

    def var_matrix(self, v, r):
        """The table X_v^(r): rows t -> class(x_v * t) for t in the degree-r
        basis, each the sparse nf row over the degree-(r+1) basis.

        Table lemma: let m = x^a be a staircase monomial of degree r < top.
          1. a_v < v - 1: x_v m is itself staircase.
          2. a_v = v - 1 and a_u > 0 for some u > v (the last such u is
             taken): x_v m = x_u (x_v m / x_u), so by uniqueness and
             linearity of normal forms the row is X_u^(r) applied to row
             m / x_u of X_v^(r-1).
          3. a_v = v - 1 and a_u = 0 for every u > v: as g_v = sum_{j=0..v}
             x_v^j h_{v-j}(x_{v+1..d}), x_v m is minus the sum of the
             x^{a<v} x_v^j h_{v-j}(x_{v+1..d}), j < v.  Every term is a
             distinct staircase monomial (x_v has exponent j <= v - 1, and
             each x_w with w > v at most v - j <= w - 1), so the row has -1
             at each of them.
        Each table depends only on (v, r - 1) and on (u > v, r), a
        well-founded order in which x_d uses cases 1 and 3 only, so the
        recursion is at most top + d deep.  Tables are filled on first use;
        at and above top every row is zero."""
        key = (v, r)
        table = self._var_matrices.get(key)
        if table is None:
            table = self._var_matrices[key] = self._fill_var_matrix(v, r)
        return table

    def _fill_var_matrix(self, v, r):
        if r >= self.top:
            return [()] * self.dim(r)
        index, pairs = self.index, self._pairs
        below = tails = None
        table = []
        for mono in self.basis[r]:
            m = list(mono)
            if m[v - 1] < v - 1:
                m[v - 1] += 1
                jw = (index[tuple(m)], 1)
                table.append((pairs.setdefault(jw, jw),))
                continue
            u = next((u for u in range(self.d, v, -1) if m[u - 1]), None)
            if u is not None:
                m[u - 1] -= 1
                if below is None:
                    below = self.var_matrix(v, r - 1)
                table.append(self._times(below[index[tuple(m)]], self.var_matrix(u, r)))
                continue
            if tails is None:
                # the exponents on x_v..x_d of the terms x_v^j h_{v-j}, j < v
                tails = [
                    tuple(combo.count(w) for w in range(v, self.d + 1))
                    for combo in combinations_with_replacement(range(v, self.d + 1), v)
                    if combo[-1] != v
                ]
            head = mono[: v - 1]
            items = [(j, -1) for j in sorted(index[head + tail] for tail in tails)]
            table.append(tuple(map(pairs.setdefault, items, items)))
        return table

    def apply_var(self, row, v, r):
        """Class of x_v times a degree-r class."""
        if r >= self.top or not row:
            return {}
        rows = self.var_matrix(v, r)
        out = {}
        get = out.get
        for pos, val in row.items():
            for j, w in rows[pos]:
                out[j] = get(j, 0) + val * w
        return {j: x for j, x in out.items() if x}

    def swap_matrix(self, i, r):
        """Action of the adjacent transposition (i, i+1) on the degree-r
        basis, one sparse nf row per basis monomial."""
        key = (i, r)
        cached = self._swap_matrices.get(key)
        if cached is None:
            swapped = []
            for mono in self.basis[r]:
                m = list(mono)
                m[i - 1], m[i] = m[i], m[i - 1]
                swapped.append(tuple(m))
            cached = self._swap_matrices[key] = [self.nf(m) for m in swapped]
        return cached

    def sym_classes(self, vars_, kind):
        """Classes of e_r or h_r of the given variables X for r = 0..top, as
        a list of top + 1 rows indexed by r, built once per (vars_, kind).

        Vanishing lemma: e_r(X) = 0 for r > |X|.  Over all d variables,
        prod_{x in X} (1 - x t)^{-1} * prod_x (1 - x t) = prod_{x not in X}
        (1 - x t), and the middle product is 1 in C, so h_r(X) = (-1)^r
        e_r(of the other variables), which is 0 for r > d - |X|.  The
        recurrence runs only up to that bound, and the list is padded with
        zero rows up to top.  The bound counts distinct variables, so a
        repeated variable, or one outside 1..d, raises ValueError.
        """
        key = (vars_, kind)
        classes = self._sym_classes.get(key)
        if classes is not None:
            return classes
        if len(set(vars_)) < len(vars_) or not all(1 <= v <= self.d for v in vars_):
            raise ValueError(f"expected distinct variables among 1..{self.d}, got {vars_}")
        bound = min(self.top, len(vars_) if kind == "e" else self.d - len(vars_))
        classes = [self.unit()] + [{} for _ in range(bound)]
        for v in vars_:
            # adding v: e_r += x_v e_{r-1} of the old variables, while
            # h_r += x_v h_{r-1} of the new ones
            nxt = [classes[0]]
            lower = classes if kind == "e" else nxt
            for r in range(1, bound + 1):
                row = dict(classes[r])
                _subtract(row, -1, self.apply_var(lower[r - 1], v, r - 1))
                nxt.append(row)
            classes = nxt
        classes += [{} for _ in range(self.top - bound)]
        self._sym_classes[key] = classes
        return classes

    def mul_classes(self, u, ru, v, rv):
        """Product of two classes of x-degrees ru and rv."""
        if not self.dim(ru + rv):
            return {}
        memo_get = self._nf.get
        basis_u, basis_v = self.basis[ru], self.basis[rv]
        terms_v = [(basis_v[pos], cv) for pos, cv in v.items()]
        out = {}
        get = out.get
        for pos, cu in u.items():
            mono_u = basis_u[pos]
            for mono_v, cv in terms_v:
                prod = tuple(map(add, mono_u, mono_v))
                row = memo_get(prod)
                if row is None:
                    row = self.nf(prod)
                coeff = cu * cv
                for j, val in row:
                    out[j] = get(j, 0) + coeff * val
        return {j: x for j, x in out.items() if x}

    def antisymmetrizer_class(self, block_pairs):
        """Class of the product of (x_i - x_j) over the given pairs, unscaled,
        and its x-degree (the number of pairs).

        With the pairs i < j inside a common block of mu, this is |S_mu|
        times the block antisymmetrizer, the product of the differences
        scaled by 1/|S_mu|.  It is the product, not a sum: a sum of the
        differences would be homogeneous of degree 2 and would not
        alternate, while the product is homogeneous of exactly twice the
        blockwise pair count and does alternate under S_mu, which is what
        the rank-one transfer statement requires.
        """
        vec, r = self.unit(), 0
        for i, j in block_pairs:
            diff = dict(self.apply_var(vec, i, r))
            _subtract(diff, 1, self.apply_var(vec, j, r))
            vec, r = diff, r + 1
        return vec, r


_RINGS = {}


def get_ring(d):
    ring = _RINGS.get(d)
    if ring is None:
        ring = _RINGS[d] = CoinvariantRing(d)
    return ring


def invariant_rows(ring, transpositions, r):
    """Basis of the degree-r invariants: the classes x with x S = x for the
    swap matrix S of every transposition.  The anti-invariants need no
    rows of their own: they are eps times the invariants (eps lemma in
    presentation._transfer_ranks).

    The transpositions must be adjacent pairs (i, i+1); the result is a
    deterministic list of integer rows.  Each transposition gives one
    equation per column of S - 1.  The equations are gathered sparse
    from the rows of S, the identically zero ones are dropped, and the
    kernel is read off their reduced echelon form, which is canonical:
    the rows do not depend on the order of the equations.  With no
    transposition the space of equations is zero and its kernel is the
    unit rows.  Memoised on the ring per (transpositions, r).
    """
    dim = ring.dim(r)
    if dim == 0:
        return []
    key = (tuple(transpositions), r)
    rows = ring._invariants.get(key)
    if rows is not None:
        return rows
    batch = []
    for i, _ in transpositions:
        equations = [{} for _ in range(dim)]
        for b, row in enumerate(ring.swap_matrix(i, r)):
            for coord, w in row:
                equations[coord][b] = w
        for coord, eq in enumerate(equations):
            w = eq.get(coord, 0) - 1
            if w:
                eq[coord] = w
            else:
                del eq[coord]
        batch += equations
    space = RowSpace(dim)
    space.extend(batch)
    rows = ring._invariants[key] = space.kernel()
    return rows
