"""Acceptance suite: each test prints one pass line with its timing.

The heavy d <= 6 sweep over all (lam, mu) pairs is computed once by the
session fixture in conftest and shared by the criteria that quantify
over it.  All comparisons are exact; there are no tolerances anywhere.
"""

import time
from itertools import combinations, product

from spaltenstein.presentation import (
    HilbertSeries,
    anti_invariant_transfer,
    certify_basis,
    generators,
    h_of_tableau,
    structure_constants,
)
from spaltenstein.symring import Polynomial, complete_block, elementary_block
from spaltenstein.tableaux import (
    Composition,
    Partition,
    Tableau,
    count_column_strict,
    dominance_leq,
    half_pair_sum,
    iter_pairs,
    partition_to_column_sequence,
    partitions,
    reduce_tableau,
    tableau_degree,
    transpose,
    _degree_from_columns,
)

ANEX_LAM = Partition([4, 3, 3, 2])
ANEX_MU = Composition([1, 4, 1, 3, 1, 2])
ANEX_T = Tableau([[2, 1, 2, 2], [3, 2, 4], [4, 4, 6], [6, 5]])
ANEX_TBAR = Tableau([[1, 2, 2, 2], [2, 3, 4], [4, 4], [5]])


def tanisaki_generators(lam, d, max_degree):
    """The classical single-variable-block generator set for the regular
    case (Tanisaki, Tohoku Math. J. 34, 1982): e_r of each subset of the
    variables, r strictly above the subset size minus the tail sum of lam
    padded to d parts.  Subsets are listed by size, then lexicographically."""
    padded = lam.padded(d)
    mu = Composition((1,) * d)
    entries = []
    for m in range(1, d + 1):
        bound = m - sum(padded[d - m :])
        for subset in combinations(range(1, d + 1), m):
            for r in range(max(0, bound + 1), max_degree // 2 + 1):
                entries.append((subset, r, elementary_block(mu, subset, r)))
    return entries


def _report(n, text, t0):
    print(f"[PASS] criterion {n}: {text} ({time.perf_counter() - t0:.1f}s)")


def test_criterion_1_worked_example():
    t0 = time.perf_counter()
    gamma, tbar, lambar, mubar = reduce_tableau(ANEX_T, ANEX_MU)
    assert partition_to_column_sequence(gamma, 2, 12) == (1, 3)
    assert tbar == ANEX_TBAR
    assert lambar == Partition([4, 3, 2, 1])
    assert tableau_degree(ANEX_T, ANEX_MU) == 2
    x6 = Polynomial.variable(12, 6)
    x11 = Polynomial.variable(12, 11)
    x12 = Polynomial.variable(12, 12)
    assert h_of_tableau(ANEX_T, ANEX_MU) == x6 * (x11 + x12)
    assert h_of_tableau(ANEX_T, ANEX_MU) == complete_block(
        ANEX_MU, [3], 1
    ) * complete_block(ANEX_MU, [6], 1)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(1, "worked example reduction, degree and basis element", t0)


def test_criterion_2_tableau_basis_sweep(sweep_d6):
    t0 = time.perf_counter()
    records, timings = sweep_d6
    assert len(records) == 9804
    for rec in records:
        assert rec["cols"] == rec["hilbert"].total()
    assert timings["certify"] < 600
    _report(
        2,
        f"tableau basis certified on {len(records)} pairs, "
        f"certification time {timings['certify']:.0f}s (target 600s)",
        t0,
    )


def test_criterion_3_hilbert_equals_betti(sweep_d6):
    t0 = time.perf_counter()
    records, _ = sweep_d6
    by_sorted_content = {}
    for rec in records:
        counts = {}
        for t in rec["degrees"]:
            counts[t] = counts.get(t, 0) + 1
        top = max(counts) if counts else -1
        betti_series = HilbertSeries([counts.get(t, 0) for t in range(top + 1)])
        assert betti_series == rec["hilbert"]
        assert rec["vanish_above_top"]
        key = (rec["lam"].parts, len(rec["mu"]), tuple(sorted(rec["mu"].parts)))
        if key in by_sorted_content:
            assert rec["hilbert"] == by_sorted_content[key]
        else:
            by_sorted_content[key] = rec["hilbert"]
    _report(
        3,
        "Hilbert equals Betti, truncation vanishes, series invariant "
        "under permuting the content",
        t0,
    )


def test_criterion_4_family_equivalence(sweep_d6):
    t0 = time.perf_counter()
    records, _ = sweep_d6
    for rec in records:
        assert rec["equivalent"]
        assert rec["hilbert"] == rec["hilbert_e"]
    checked = 0
    for d in range(1, 6):
        mu = Composition([1] * d)
        for lam_parts in partitions(d):
            lam = Partition(lam_parts)
            cap = 2 * d
            fam = generators(lam, mu, "E", cap)
            classical = tanisaki_generators(lam, d, cap)
            assert [(s, r) for s, r, _ in fam.entries] == [
                (s, r) for s, r, _ in classical
            ]
            assert [p for _, _, p in fam.entries] == [p for _, _, p in classical]
            checked += 1
    _report(4, f"H/E ideals agree on all pairs; {checked} classical generator sets match", t0)


def test_criterion_5_nonvanishing_iff_dominance(sweep_d6):
    t0 = time.perf_counter()
    pairs = 0
    for lam, mu in iter_pairs(7):
        nonempty = count_column_strict(lam, mu) > 0
        assert nonempty == dominance_leq(mu.sorted(), lam)
        pairs += 1
    records, _ = sweep_d6
    for rec in records:
        positive = rec["hilbert"].total() > 0
        assert positive == rec["dominated"]
        assert positive == (rec["cols"] > 0)
    _report(5, f"non-vanishing equals dominance on {pairs} combinatorial pairs", t0)


def test_criterion_6_anti_invariant_transfer():
    t0 = time.perf_counter()
    pairs = 0
    for lam, mu in iter_pairs(5):
        anti_invariant_transfer(lam, mu)
        pairs += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 900
    _report(6, f"anti-invariant transfer verified on {pairs} pairs (target 900s)", t0)


def test_criterion_7_components(sweep_d6):
    t0 = time.perf_counter()
    records, _ = sweep_d6
    for rec in records:
        assert rec["fibers_ok"]
        top_count = rec["hilbert"].coefficient(2 * rec["top"]) if rec["top"] >= 0 else 0
        if rec["dominated"]:
            assert top_count == rec["std"]
        else:
            assert rec["std"] == 0 and rec["cols"] == 0
    _report(7, "components, fibers and top Betti numbers", t0)


def test_criterion_8_integral_structure_constants():
    t0 = time.perf_counter()
    pairs = 0
    entries = 0
    for lam, mu in iter_pairs(5):
        if not dominance_leq(mu.sorted(), lam):
            continue
        tabs, tensor = structure_constants(lam, mu)
        for (i, j), entry in tensor.items():
            if i > j:
                continue
            for c in entry.values():
                assert c.denominator == 1
                entries += 1
        pairs += 1
    _report(8, f"{entries} structure constants integral over {pairs} pairs", t0)


def test_criterion_9_degree_bound():
    t0 = time.perf_counter()
    fillings = 0
    for d in range(8):
        for lam_parts in partitions(d):
            lam = Partition(lam_parts)
            heights = transpose(lam).parts
            d_lam = half_pair_sum(lam_parts)
            per_column = [list(combinations(range(1, d + 1), h)) for h in heights]
            for cols in product(*per_column):
                content = [0] * d
                for col in cols:
                    for v in col:
                        content[v - 1] += 1
                bound = d_lam - half_pair_sum(content)
                deg = _degree_from_columns([list(c) for c in cols], tuple(content))
                assert deg <= bound
                semistandard = all(
                    a[i] <= b[i]
                    for a, b in zip(cols, cols[1:])
                    for i in range(len(b))
                )
                assert (deg == bound) == semistandard
                fillings += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60
    _report(9, f"degree bound with equality iff semistandard on {fillings} fillings (target 60s)", t0)
