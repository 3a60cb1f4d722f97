"""Exact arithmetic in the coinvariant algebra of S_d.

Every ideal considered by the presentation layer contains the full
symmetric ideal (the family bound for the full index set is always
zero), so all graded linear algebra can be compressed into the
coinvariant quotient C = Q[x_1..x_d] / (symmetric polynomials of
positive degree).  C has dimension d!, with graded pieces no larger than
the number of permutations with a given inversion count, which keeps all
row widths small even where the ambient polynomial ring explodes.

Normal forms are computed by division by the triangular set

    g_i = h_i(x_i, ..., x_d)          (i = 1, ..., d)

whose members lie in the symmetric ideal by the expansion of
h_i(x_i,...,x_d) over e_t(x_1,...,x_{i-1}) * h_{i-t}(x_1,...,x_d).  The
leading term of g_i is x_i^i, so the reduced monomials are the staircase
monomials x^a with a_i <= i - 1; there are d! of them, matching dim C,
which proves the set is a Groebner basis degree by degree.  Division is
memoised per monomial as a sparse row, and multiplication by a single
variable is cached as a sparse integer matrix per degree; block symmetric
functions then act through short linear recurrences instead of polynomial
expansion.

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
        self._tails = [None] * (d + 1)
        for i in range(1, d + 1):
            tails = []
            for combo in combinations_with_replacement(range(i, d + 1), i):
                exps = tuple(combo.count(v) for v in range(1, d + 1))
                if exps[i - 1] != i:
                    tails.append(exps)
            self._tails[i] = tuple(tails)
        self._nf = {}
        self._var_matrices = {}
        self._pairs = {}
        self._swap_matrices = {}
        self._sym_classes = {}

    def dim(self, r):
        return len(self.basis[r]) if 0 <= r <= self.top else 0

    def unit(self):
        return {0: 1}

    def _first_reducible(self, mono):
        for i in range(1, self.d + 1):
            if mono[i - 1] >= i:
                return i
        return None

    def nf(self, mono):
        """Class of a monomial as a sparse row: a tuple of (position,
        non-zero int) pairs over its degree, in increasing position.

        Memoised per monomial, and equal pairs are stored once per ring,
        to save memory; the rows are shared, so callers must not change
        them."""
        memo = self._nf
        cached = memo.get(mono)
        if cached is not None:
            return cached
        pairs = self._pairs
        stack = [mono]
        while stack:
            m = stack[-1]
            if m in memo:
                stack.pop()
                continue
            r = sum(m)
            if r > self.top:
                memo[m] = ()
                stack.pop()
                continue
            i = self._first_reducible(m)
            if i is None:
                jw = (self.index[m], 1)
                memo[m] = (pairs.setdefault(jw, jw),)
                stack.pop()
                continue
            base = list(m)
            base[i - 1] -= i
            deps = [tuple(b + t for b, t in zip(base, tail)) for tail in self._tails[i]]
            missing = [dep for dep in deps if dep not in memo]
            if missing:
                stack.extend(missing)
                continue
            acc = {}
            get = acc.get
            for dep in deps:
                for pos, val in memo[dep]:
                    acc[pos] = get(pos, 0) - val
            memo[m] = tuple(
                pairs.setdefault(jw, jw) for jw in sorted(acc.items()) if jw[1]
            )
            stack.pop()
        return memo[mono]

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
        """Rows t -> class(x_v * t) for t in the degree-r basis, each the
        sparse nf row over the degree-(r+1) basis."""
        key = (v, r)
        cached = self._var_matrices.get(key)
        if cached is None:
            bumped = []
            for mono in self.basis[r]:
                m = list(mono)
                m[v - 1] += 1
                bumped.append(tuple(m))
            cached = self._var_matrices[key] = [self.nf(m) for m in bumped]
        return cached

    def apply_var(self, row, v, r):
        """Class of x_v times a degree-r class."""
        if r >= self.top:
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

    def sym_classes(self, vars_, rmax, kind):
        """Classes of e_r or h_r of the given variables for r = 0..rmax, as
        a list of at least rmax + 1 rows indexed by r.

        Cached per (vars_, kind), whatever rmax: a cached list is returned
        whenever it reaches rmax, and otherwise the recurrence runs again
        up to rmax and its list replaces the cached one.  Class r does not
        depend on rmax, so every call sees the same classes; a caller that
        needs several degrees asks once for the largest.
        """
        key = (vars_, kind)
        cached = self._sym_classes.get(key)
        if cached is not None and len(cached) > rmax:
            return cached
        classes = [self.unit()] + [{} for _ in range(rmax)]
        for v in vars_:
            # adding v: e_r += x_v e_{r-1} of the old variables, while
            # h_r += x_v h_{r-1} of the new ones
            nxt = [classes[0]]
            lower = classes if kind == "e" else nxt
            for r in range(1, rmax + 1):
                row = dict(classes[r])
                _subtract(row, -1, self.apply_var(lower[r - 1], v, r - 1))
                nxt.append(row)
            classes = nxt
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


def invariant_rows(ring, transpositions, r, sign=1):
    """Basis of the degree-r classes x with x S = sign * x for the swap
    matrix S of every transposition: the invariants for sign 1, the
    anti-invariants for sign -1.

    The transpositions must be adjacent pairs (i, i+1); the result is a
    deterministic list of integer rows.  Each transposition gives one
    equation per column of S - sign.  The equations are gathered sparse
    from the rows of S, the identically zero ones are dropped, and the
    kernel is read off their reduced echelon form, which is canonical:
    the rows do not depend on the order of the equations.  With no
    transposition the space of equations is zero and its kernel is the
    unit rows.
    """
    dim = ring.dim(r)
    if dim == 0:
        return []
    batch = []
    for i, _ in transpositions:
        equations = [{} for _ in range(dim)]
        for b, row in enumerate(ring.swap_matrix(i, r)):
            for coord, w in row:
                equations[coord][b] = w
        for coord, eq in enumerate(equations):
            w = eq.get(coord, 0) - sign
            if w:
                eq[coord] = w
            else:
                del eq[coord]
        batch += equations
    space = RowSpace(dim)
    space.extend(batch)
    return space.kernel()
