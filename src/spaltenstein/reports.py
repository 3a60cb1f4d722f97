"""Combinatorial geometry reports: Betti numbers, components, cell poset.

Everything here is tableau combinatorics; the quotient algebra is not
touched.  Betti numbers count column-strict tableaux by degree (a graded
count over the reduction recursion, with no enumeration), the
irreducible components are indexed by semi-standard tableaux with their
fibers collected from the straightening map, and the cell order is
exported as a Hasse diagram.  Every pair reads the values of its
zero-free pair and the chains of its key through tableaux.shared
(relabelling lemma in enumerate_column_strict).
"""

from itertools import combinations

from .presentation import HilbertSeries
from .tableaux import (
    _cell_leq,
    _check_sizes,
    _identity,
    _key_chains,
    _key_fillings,
    _relabelling,
    _straighten,
    dims,
    enumerate_column_strict,
    shared,
    transpose,
    zero_free_key,
)


def betti(lam, mu):
    """Betti series: coefficient at degree 2r counts degree-r tableaux.

    A zero part of mu adds an empty level to the reduction chain, which
    keeps every degree (relabelling lemma in enumerate_column_strict), so
    every pair returns the series of its zero-free pair, kept by shared.

    The series counts by degree without listing tableaux.  Bijection lemma
    (chain lemma in _chain): the entries n of a column-strict filling
    T of content mu, n = len(mu), are the bottoms of mu_n columns.  Let the
    columns, in the order of their level, have the weakly decreasing
    heights h; T maps to (c, Tbar), c the k = mu_n positions of the
    columns ending in n and Tbar the filling that the reduction leaves,
    its columns stably sorted by height.  Any k positions and any filling
    of the lowered heights, sorted, zeros dropped, with content
    mu_1..mu_{n-1} give back one T: undo the stable sort, append n to the
    columns at c.  So the map is a bijection, and the degree of T is
    c_1 + ... + c_k - k(k+1)/2 plus that of Tbar.  The count runs level
    by level from n down to 1 on a dict from the sorted heights to their
    graded count, which merges equal heights."""
    _check_sizes(lam, mu)

    def count():
        states = {transpose(lam).parts: [1]}
        for k in reversed(zero_free_key(lam, mu)[1]):
            after = {}
            for heights, coeffs in states.items():
                for c in combinations(range(len(heights)), k):
                    lowered = list(heights)
                    for j in c:
                        lowered[j] -= 1
                    lowered = tuple(sorted((h for h in lowered if h), reverse=True))
                    # positions are 1-indexed: sum(c) + k - k(k+1)/2
                    shift = sum(c) - k * (k - 1) // 2
                    total = after.setdefault(lowered, [])
                    total.extend([0] * (shift + len(coeffs) - len(total)))
                    for r, v in enumerate(coeffs, start=shift):
                        total[r] += v
            states = after
        return HilbertSeries(states.get((), ()))

    return shared("betti", lam, mu, count)


def components(lam, mu):
    """One (S, dimension, fiber) triple per semi-standard tableau.

    The fibers partition the column-strict tableaux and S is their unique
    maximal element in the cell order; all components share the dimension
    d_lam - d_mu.

    By the relabelling lemma (enumerate_column_strict) the label map iota
    keeps semi-standardness and commutes with straightening, and d_mu =
    d_mu', so every pair relabels the triples of its zero-free pair, kept
    by shared, which straightens the key's fillings along their chains.
    Where iota is the identity the fibers are copied, with no call per
    tableau; every call returns fresh lists.
    """

    def compute():
        d_lam, d_mu = dims(lam, mu)
        cols = _key_fillings(lam, mu)
        heights = transpose(lam).parts
        fibers = {}
        for T, chain in zip(cols, _key_chains(lam, mu)):
            fibers.setdefault(_straighten(chain, T.shape, heights), []).append(T)
        out = [(S, d_lam - d_mu, fibers.pop(S)) for S in cols if S.is_semistandard()]
        if fibers:
            raise ValueError(f"straightening produced a non-semistandard image {next(iter(fibers))}")
        return out

    relabel = _relabelling(mu)
    triples = shared("components", lam, mu, compute)
    if relabel is _identity:
        return [(S, dim, list(fiber)) for S, dim, fiber in triples]
    return [(relabel(S), dim, [relabel(T) for T in fiber]) for S, dim, fiber in triples]


def poset_edges(lam, mu):
    """Hasse diagram edges (covers) of the cell order, in enumeration order.

    The chains kept for the key are compared directly (_cell_leq), as
    cell_order does for two distinct tableaux; the empty levels they leave
    out never differ, so they change no comparison."""
    return _covers(enumerate_column_strict(lam, mu), _key_chains(lam, mu))


def _covers(cols, chains):
    """poset_edges, given the pair's tableaux cols and its key's kept chains."""
    less = {T: set() for T in cols}
    for i, T in enumerate(cols):
        for j in range(i + 1, len(cols)):
            if _cell_leq(chains[i], chains[j]):
                less[T].add(cols[j])
            elif _cell_leq(chains[j], chains[i]):
                less[cols[j]].add(T)
    edges = []
    for T in cols:
        for U in sorted(less[T], key=lambda V: V.reading_word()):
            if not any(U in less[W] for W in less[T] if W != U):
                edges.append((T, U))
    return edges


def poset_dot(lam, mu):
    """DOT text for the Hasse diagram, node labels the column reading words."""
    cols = enumerate_column_strict(lam, mu)
    edges = _covers(cols, _key_chains(lam, mu))

    def label(T):
        return ",".join(str(v) for v in T.reading_word())

    lines = ["digraph cells {"]
    for T in cols:
        lines.append(f'  "{label(T)}";')
    for T, U in edges:
        lines.append(f'  "{label(T)}" -> "{label(U)}";')
    lines.append("}")
    return "\n".join(lines)
