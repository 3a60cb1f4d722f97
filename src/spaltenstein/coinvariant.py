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
memoised per monomial, and multiplication by a single variable is cached
as a sparse integer matrix per degree; block symmetric functions then act
through short linear recurrences instead of polynomial expansion.

All vectors taken and returned are dense integer lists over the
per-degree staircase basis, ordered lexicographically.  Degrees in this
module are x-degrees; the public grading of the library doubles them.
"""

from itertools import combinations_with_replacement, product


class CoinvariantRing:
    """Staircase model of Q[x_1..x_d]/(positive-degree symmetric polynomials)."""

    def __init__(self, d):
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
                exps = [0] * d
                for v in combo:
                    exps[v - 1] += 1
                exps = tuple(exps)
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

    def zero(self, r):
        return [0] * self.dim(r)

    def unit(self):
        return [1]

    def _first_reducible(self, mono):
        for i in range(1, self.d + 1):
            if mono[i - 1] >= i:
                return i
        return None

    def nf(self, mono):
        """Class of a monomial as a dense integer vector in its degree."""
        memo = self._nf
        cached = memo.get(mono)
        if cached is not None:
            return cached
        stack = [mono]
        while stack:
            m = stack[-1]
            if m in memo:
                stack.pop()
                continue
            r = sum(m)
            if r > self.top:
                memo[m] = []
                stack.pop()
                continue
            i = self._first_reducible(m)
            if i is None:
                vec = [0] * self.dim(r)
                vec[self.index[m]] = 1
                memo[m] = vec
                stack.pop()
                continue
            base = list(m)
            base[i - 1] -= i
            deps = [tuple(b + t for b, t in zip(base, tail)) for tail in self._tails[i]]
            missing = [dep for dep in deps if dep not in memo]
            if missing:
                stack.extend(missing)
                continue
            vec = [0] * self.dim(r)
            for dep in deps:
                w = memo[dep]
                for pos, val in enumerate(w):
                    if val:
                        vec[pos] -= val
            memo[m] = vec
            stack.pop()
        return memo[mono]

    def class_of_terms(self, terms):
        """Classes of a {exponent tuple: coefficient} map, one vector per degree."""
        out = {}
        for mono, coeff in terms.items():
            r = sum(mono)
            if r > self.top or not coeff:
                continue
            vec = out.get(r)
            if vec is None:
                vec = out[r] = [0 * coeff] * self.dim(r)
            w = self.nf(mono)
            for pos, val in enumerate(w):
                if val:
                    vec[pos] += coeff * val
        return {r: vec for r, vec in out.items() if any(vec)}

    def class_of_polynomial(self, p):
        if p.d != self.d:
            raise ValueError(f"polynomial has {p.d} variables, ring has {self.d}")
        return self.class_of_terms(p.terms)

    def var_matrix(self, v, r):
        """Rows t -> class(x_v * t) for t in the degree-r basis, each row
        stored sparse as a tuple of (column, entry) pairs over its non-zero
        entries in the degree-(r+1) basis.  Equal pairs are stored once
        per ring, to save memory."""
        key = (v, r)
        cached = self._var_matrices.get(key)
        if cached is None:
            rows, pairs = [], self._pairs
            for mono in self.basis[r]:
                bumped = list(mono)
                bumped[v - 1] += 1
                vec = self.nf(tuple(bumped))
                rows.append(tuple(pairs.setdefault(jw, jw) for jw in enumerate(vec) if jw[1]))
            cached = self._var_matrices[key] = rows
        return cached

    def apply_var(self, vec, v, r):
        """Class of x_v times a degree-r class, as a dense vector."""
        out_dim = self.dim(r + 1)
        out = [0] * out_dim
        if not out_dim:
            return out
        rows = self.var_matrix(v, r)
        for pos, val in enumerate(vec):
            if val:
                for j, w in rows[pos]:
                    out[j] += val * w
        return out

    def swap_matrix(self, i, r):
        """Action of the adjacent transposition (i, i+1) on the degree-r basis."""
        key = (i, r)
        cached = self._swap_matrices.get(key)
        if cached is None:
            rows = []
            for mono in self.basis[r]:
                m = list(mono)
                m[i - 1], m[i] = m[i], m[i - 1]
                rows.append(self.nf(tuple(m)))
            cached = self._swap_matrices[key] = rows
        return cached

    def sym_classes(self, vars_, rmax, kind):
        """Classes of e_r or h_r of the given variables for r = 0..rmax."""
        key = (vars_, rmax, kind)
        cached = self._sym_classes.get(key)
        if cached is not None:
            return cached
        classes = [self.unit()] + [self.zero(r) for r in range(1, rmax + 1)]
        for v in vars_:
            # adding v: e_r += x_v e_{r-1} of the old variables, while
            # h_r += x_v h_{r-1} of the new ones
            nxt = [classes[0]]
            lower = classes if kind == "e" else nxt
            for r in range(1, rmax + 1):
                bump = self.apply_var(lower[r - 1], v, r - 1)
                nxt.append([a + b for a, b in zip(classes[r], bump)])
            classes = nxt
        self._sym_classes[key] = classes
        return classes

    def sym_class(self, vars_, r, kind):
        if r < 0:
            return None
        if r == 0:
            return self.unit()
        if r > self.top:
            return self.zero(r)
        return self.sym_classes(vars_, r, kind)[r]

    def mul_block_h(self, vec, r, vars_, s):
        """Class of (degree-r class) times h_s of the given variables.

        Uses h_s(V) = h_s(V minus v) + x_v h_{s-1}(V) columnwise, so the cost
        is |V| * s applications of variable matrices.
        """
        if s == 0:
            return list(vec), r
        table = [list(vec)] + [self.zero(r + j) for j in range(1, s + 1)]
        for v in vars_:
            for j in range(1, s + 1):
                bump = self.apply_var(table[j - 1], v, r + j - 1)
                table[j] = [a + b for a, b in zip(table[j], bump)]
        return table[s], r + s

    def mul_classes(self, u, ru, v, rv):
        """Product of two classes of x-degrees ru and rv."""
        out_dim = self.dim(ru + rv)
        out = [0] * out_dim
        if not out_dim:
            return out
        basis_u = self.basis[ru]
        basis_v = self.basis[rv]
        for pu, cu in enumerate(u):
            if not cu:
                continue
            mono_u = basis_u[pu]
            for pv, cv in enumerate(v):
                if not cv:
                    continue
                prod = tuple(a + b for a, b in zip(mono_u, basis_v[pv]))
                w = self.nf(prod)
                coeff = cu * cv
                for j, val in enumerate(w):
                    if val:
                        out[j] += coeff * val
        return out

    def antisymmetrizer_class(self, block_pairs):
        """Class of the product of (x_i - x_j) over the given pairs, unscaled."""
        vec, r = self.unit(), 0
        for i, j in block_pairs:
            vec = [
                a - b
                for a, b in zip(self.apply_var(vec, i, r), self.apply_var(vec, j, r))
            ]
            r += 1
        return vec, r


_RINGS = {}


def get_ring(d):
    ring = _RINGS.get(d)
    if ring is None:
        ring = _RINGS[d] = CoinvariantRing(d)
    return ring


def invariant_rows(ring, transpositions, r):
    """Basis of the subspace of degree-r classes fixed by the transpositions.

    The transpositions must be adjacent pairs (i, i+1); the result is a
    deterministic list of integer rows in the staircase coordinates.
    """
    from .linalg import kernel_basis

    dim = ring.dim(r)
    if dim == 0:
        return []
    if not transpositions:
        rows = []
        for pos in range(dim):
            row = [0] * dim
            row[pos] = 1
            rows.append(row)
        return rows
    equations = []
    for i, _ in transpositions:
        mat = ring.swap_matrix(i, r)
        for coord in range(dim):
            equations.append([mat[b][coord] - (1 if b == coord else 0) for b in range(dim)])
    return [list(v) for v in kernel_basis(equations, dim)]

