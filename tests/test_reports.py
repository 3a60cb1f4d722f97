import time
from collections import Counter

import pytest
from oracles import (
    betti_by_enumeration,
    betti_by_positions,
    charge_counts,
    column_strict_by_search,
    hilbert_by_charge,
    semistandard_by_strips,
)

from spaltenstein import presentation, reports, tableaux
from spaltenstein.presentation import HilbertSeries, build_quotient, certify_basis, clear_caches
from spaltenstein.reports import (
    betti,
    components,
    poset_dot,
    poset_edges,
)
from spaltenstein.tableaux import (
    Composition,
    Partition,
    Tableau,
    compositions,
    count_column_strict,
    dims,
    dominance_leq,
    enumerate_column_strict,
    enumerate_semistandard,
    iter_pairs,
    partitions,
    reduce_tableau,
    shared,
    straighten,
    tableau_degree,
    transpose,
    zero_free_key,
)


class TestBetti:
    def test_projective_line(self):
        assert betti(Partition([2, 0]), Composition([1, 1])) == HilbertSeries([1, 1])

    def test_empty_variety(self):
        assert betti(Partition([1, 1]), Composition([2, 0])) == HilbertSeries([])

    def test_two_sphere_bouquet(self):
        assert betti(Partition([2, 1]), Composition([1, 1, 1])) == HilbertSeries([1, 2])

    def test_euler_characteristic_counts_cells(self):
        for d in range(5):
            for n in range(1, d + 1):
                for lam in partitions(d, n):
                    for mu in compositions(d, n):
                        lam_p, mu_c = Partition(lam), Composition(mu)
                        assert betti(lam_p, mu_c).total() == len(
                            enumerate_column_strict(lam_p, mu_c)
                        )

    def test_matches_enumeration_d6(self):
        # the graded count against listing the fillings and summing each
        # one's chain, on zero-free and padded pairs alike
        clear_caches()
        padded = zero_free = 0
        for lam, mu in iter_pairs(6):
            assert betti(lam, mu) == betti_by_enumeration(lam, mu), (lam, mu)
            if 0 in mu.parts:
                padded += 1
            else:
                zero_free += 1
        assert (zero_free, padded) == (356, 9448)

    def test_matches_position_oracle_d7(self):
        # run lemma: the Gaussian binomials over the steps of _label_steps
        # against every set of positions at every level, on every zero-free
        # pair with d <= 7, dominated or not
        clear_caches()
        pairs = 0
        for lam, mu in iter_pairs(7):
            if 0 in mu.parts:
                continue
            assert betti(lam, mu) == betti_by_positions(lam, mu), (lam, mu)
            pairs += 1
        assert pairs == 1015

    def test_zero_free_pair_lists_no_tableau(self, monkeypatch, key_builds):
        # betti reads the down pass that the build of the fillings expands
        # (_label_steps), and on cold caches neither builds nor keeps a
        # filling of the key
        lam, mu = Partition([3, 2, 1]), Composition([2, 1, 2, 1])
        want = betti_by_enumeration(lam, mu)
        clear_caches()
        key_builds.clear()

        def refuse(lam, mu):
            raise AssertionError("betti enumerated the tableaux")

        for module in (tableaux, reports):
            monkeypatch.setattr(module, "enumerate_column_strict", refuse)
            monkeypatch.setattr(module, "_key_tableaux", refuse)
        assert betti(lam, mu) == want
        assert key_builds == []
        assert "enumerate" not in tableaux._LATEST
        assert [key for key in tableaux._KEYS if key[1] == "enumerate"] == []

    def test_deeper_and_wider_than_the_recursion_limit(self):
        # one loop step per label and per choice of how many columns each
        # run lowers, no stack frames: (30, 15)/(30, 15) and (600, 300)/
        # (600, 300) have one filling, and never draw the C(30, 15) or
        # C(600, 300) position sets of the label 2
        clear_caches()
        lam, mu = Partition([12, 12]), Composition([1] * 24)
        start = time.perf_counter()
        ones = [
            betti(Partition([1] * 1000), Composition([1] * 1000)),
            betti(Partition([1000]), Composition([1000])),
            betti(Partition([600, 600]), Composition([600, 600])),
            betti(Partition([30, 15]), Composition([30, 15])),
            betti(Partition([600, 300]), Composition([600, 300])),
        ]
        many = betti(lam, mu)
        seconds = time.perf_counter() - start
        assert ones == [HilbertSeries([1])] * 5
        assert many.total() == count_column_strict(lam, mu)
        assert seconds < 1


class TestSizeMismatch:
    def test_every_entry_point_words_it_alike(self):
        # the library and the command line's usage error share one message
        lam = Partition([2, 1])
        for mu in (Composition([1, 1]), Composition([1, 0, 1])):
            messages = set()
            for entry in (enumerate_column_strict, count_column_strict, betti, build_quotient):
                with pytest.raises(ValueError) as err:
                    entry(lam, mu)
                messages.add(str(err.value))
            assert messages == {"|lambda|=3 and |mu|=2 differ"}


def zero_free_dominated_keys(d_max):
    return [(lam, mu) for lam, mu in iter_pairs(d_max)
            if 0 not in mu.parts and dominance_leq(mu.sorted(), lam)]


def as_degrees(series):
    return {k: c for k, c in enumerate(series.coeffs) if c}


class TestChargeOracle:
    def test_every_key_d6_matches_betti_and_quotient(self):
        # the charge formula uses neither the tableau degree nor linear
        # algebra, and it sees mu only through its sorted non-zero parts
        keys = zero_free_dominated_keys(6)
        for lam, mu in keys:
            expected = hilbert_by_charge(lam, mu)
            assert as_degrees(betti(lam, mu)) == expected
            assert as_degrees(build_quotient(lam, mu).hilbert) == expected
        assert len(keys) == 320

    def test_wrong_kostka_convention_fails_d4(self):
        # K_{rho, mu+} in place of K_{rho^T, mu+} gives negative x-degrees
        keys = zero_free_dominated_keys(4)
        wrong = [(lam, mu) for lam, mu in keys
                 if hilbert_by_charge(lam, mu, springer_shape=lambda rho: rho)
                 != as_degrees(betti(lam, mu))]
        assert (len(keys), len(wrong)) == (38, 26)
        assert all(min(hilbert_by_charge(lam, mu, springer_shape=lambda rho: rho)) < 0
                   for lam, mu in wrong)

    def test_every_pair_d8_matches_betti(self):
        # past the keys that the quotient can check in tier-1: every pair
        # of partitions with d = 8, dominated or not
        pairs = [(Partition(lam), Composition(mu)) for lam in partitions(8) for mu in partitions(8)]
        for lam, mu in pairs:
            assert as_degrees(betti(lam, mu)) == hilbert_by_charge(lam, mu), (lam, mu)
        assert len(pairs) == 484


def springer_multiplicities(lam):
    """The graded Springer multiplicities G_sigma(q) of lam, one per
    partition sigma of |lam|, as {x-degree: non-zero coefficient}, from the
    library's Hilbert series alone.  With shift(mu) = sum C(mu_i, 2),

      q^shift(mu) Hilb(lam, mu) = sum_sigma K_{sigma, mu} G_sigma(q),

    and K_{sigma, mu} is 0 unless sigma dominates mu, and 1 at sigma = mu.
    partitions() lists mu in decreasing lexicographic order, which refines
    dominance, so every G_sigma with sigma above mu is known when mu is
    reached, and back substitution gives G_mu.  A mu with fewer parts than
    lam is padded with zero parts.  No charge is used."""
    out = {}
    for mu in partitions(lam.size()):
        pair_mu = Composition(mu + (0,) * (lam.height() - len(mu)))
        shift = sum(p * (p - 1) // 2 for p in mu)
        series = build_quotient(lam, pair_mu).hilbert.coeffs
        g = Counter({k + shift: c for k, c in enumerate(series)})
        for sigma, g_sigma in out.items():
            kostka = len(semistandard_by_strips(sigma, mu))
            g.subtract({k: kostka * c for k, c in g_sigma.items()})
        out[mu] = {k: c for k, c in g.items() if c}
    return out


class TestSpringerMultiplicities:
    def test_back_substitution_matches_charge_d6(self):
        # each G_sigma has non-negative coefficients and equals
        # q^n(nu) K_{sigma^T, nu}(1/q), nu = lam^T, n(nu) = sum (i - 1) nu_i
        # (Hotta-Springer; Garsia-Procesi, Adv. Math. 94, 1992)
        tables = non_zero = 0
        for d in range(1, 7):
            for lam in map(Partition, partitions(d)):
                nu = transpose(lam).parts
                n_nu = sum(i * p for i, p in enumerate(nu))
                for sigma, g in springer_multiplicities(lam).items():
                    assert all(c > 0 for c in g.values()), (lam, sigma, g)
                    rho = transpose(Partition(sigma)).parts
                    expected = {n_nu - c: k for c, k in charge_counts(rho, nu).items()}
                    assert g == expected, (lam, sigma)
                    tables += 1
                    non_zero += bool(g)
        assert (tables, non_zero) == (209, 117)


class TestComponents:
    def test_two_components(self):
        comps = components(Partition([2, 1]), Composition([1, 1, 1]))
        assert len(comps) == 2
        assert all(dim == 1 for _, dim, _ in comps)

    def test_point(self):
        comps = components(Partition([2, 1]), Composition([2, 1]))
        assert len(comps) == 1
        assert comps[0][1] == 0

    def test_fibers_partition(self):
        for d in range(6):
            for n in range(1, d + 1):
                for lam in partitions(d, n):
                    for mu in compositions(d, n):
                        lam_p, mu_c = Partition(lam), Composition(mu)
                        comps = components(lam_p, mu_c)
                        cols = enumerate_column_strict(lam_p, mu_c)
                        std = enumerate_semistandard(lam_p, mu_c)
                        assert len(comps) == len(std)
                        seen = [T for _, _, fiber in comps for T in fiber]
                        assert sorted(seen, key=Tableau.reading_word) == cols
                        d_lam, d_mu = dims(lam_p, mu_c)
                        for S, dim, fiber in comps:
                            assert dim == d_lam - d_mu
                            assert S in fiber

    def test_fibers_match_straighten_d5(self):
        # the kept images against the one-tableau straighten: every member
        # of a fiber straightens to its S
        for lam, mu in iter_pairs(5):
            for S, _, fiber in components(lam, mu):
                assert all(straighten(T, mu) == S for T in fiber), (lam, mu)

    def test_bad_images_raise(self, monkeypatch):
        # straightening faked as the identity makes every filling a fixed
        # point, semi-standard or not; an image equal to no filling has no
        # fixed point
        lam, mu = Partition([2, 1]), Composition([1, 1, 1])
        fillings, chains, images = tableaux._key_tableaux(lam, mu)
        stray = Tableau([[1, 1], [3]])
        for fake in (fillings, [stray] * len(fillings)):
            clear_caches()
            monkeypatch.setattr(reports, "_key_tableaux", lambda lam, mu: (fillings, chains, fake))
            with pytest.raises(ValueError, match="non-semistandard image"):
                components(lam, mu)
        clear_caches()

    def test_column_heights_once_per_call(self, monkeypatch):
        # the 60 fillings of (3,2,1) with content (1^6) are straightened in
        # the key's one recursion, from one list of column heights, not one
        # transpose each
        calls = []
        real = tableaux.transpose

        def counting(lam):
            calls.append(lam)
            return real(lam)

        monkeypatch.setattr(tableaux, "transpose", counting)
        monkeypatch.setattr(reports, "transpose", counting)
        lam, mu = Partition([3, 2, 1]), Composition([1] * 6)
        comps = components(lam, mu)
        assert sum(len(fiber) for _, _, fiber in comps) == 60
        assert len(calls) <= 2
        assert [straighten(T, mu) for T in comps[0][2]] == [comps[0][0]] * len(comps[0][2])


class TestWideInput:
    def test_wider_than_the_recursion_limit(self):
        # lam = mu = (1000): 1000 columns, one enumeration step each
        lam, mu = Partition([1000]), Composition([1000])
        T = Tableau([[1] * 1000])
        assert betti(lam, mu) == HilbertSeries([1])
        assert components(lam, mu) == [(T, 0, [T])]
        padded = Composition([0, 1000])
        assert betti(lam, padded) == HilbertSeries([1])
        assert components(lam, padded) == [(Tableau([[2] * 1000]), 0, [Tableau([[2] * 1000])])]


class TestPoset:
    def test_singleton_no_edges(self):
        assert poset_edges(Partition([2, 1]), Composition([2, 1])) == []

    def test_two_cell_edge(self):
        edges = poset_edges(Partition([2, 0]), Composition([1, 1]))
        assert edges == [(Tableau([[2, 1]]), Tableau([[1, 2]]))]

    def test_dot_output(self):
        text = poset_dot(Partition([2, 0]), Composition([1, 1]))
        assert text.splitlines()[0] == "digraph cells {"
        assert '"2,1" -> "1,2";' in text

    def test_acyclic(self):
        for d in range(6):
            for n in range(1, d + 1):
                for lam in partitions(d, n):
                    for mu in compositions(d, n):
                        lam_p, mu_c = Partition(lam), Composition(mu)
                        edges = poset_edges(lam_p, mu_c)
                        succ = {}
                        for a, b in edges:
                            succ.setdefault(a, []).append(b)
                        state = {}

                        def dfs(node):
                            state[node] = 1
                            for nxt in succ.get(node, []):
                                if state.get(nxt) == 1:
                                    raise AssertionError("cycle in cell order")
                                if nxt not in state:
                                    dfs(nxt)
                            state[node] = 2

                        for node in list(succ):
                            if node not in state:
                                dfs(node)


def _cold_record(lam, mu):
    """Enumeration rows, Betti coefficients and (S rows, dimension, fiber
    rows) triples of one pair, computed on the pair itself from the
    search oracle, with no zero-free key."""
    tabs = column_strict_by_search(lam, mu)
    coeffs = [0] * (max((tableau_degree(T, mu) for T in tabs), default=-1) + 1)
    fibers = {}
    for T in tabs:
        coeffs[tableau_degree(T, mu)] += 1
        fibers.setdefault(straighten(T, mu), []).append(T)
    d_lam, d_mu = dims(lam, mu)
    triples = [
        (S.rows, d_lam - d_mu, [T.rows for T in fibers[S]]) for S in tabs if S.is_semistandard()
    ]
    return [T.rows for T in tabs], HilbertSeries(coeffs).coeffs, triples


def _shared_record(lam, mu):
    """The record of _cold_record from the library's own calls; checks on
    the way that every tableau it returns or builds equals the validating
    Tableau(T.rows) in rows and shape."""
    tabs = enumerate_column_strict(lam, mu)
    comps = components(lam, mu)
    built = tabs + [S for S, _, _ in comps] + [T for _, _, fiber in comps for T in fiber]
    built += [straighten(T, mu) for T in tabs]
    built += [reduce_tableau(T, mu)[1] for T in tabs if len(mu)]
    for T in built:
        checked = Tableau(T.rows)
        assert (T.rows, T.shape) == (checked.rows, checked.shape), T
    triples = [(S.rows, dim, [T.rows for T in fiber]) for S, dim, fiber in comps]
    return [T.rows for T in tabs], betti(lam, mu).coeffs, triples


class TestOnePassPerKey:
    def test_certificate_components_and_dot_read_one_pass(self, monkeypatch, key_builds):
        # a zero-free pair builds its fillings, their chains and their
        # images in one recursion (tableaux._key_tableaux), for
        # certify_basis, components and poset_dot together: no filling is
        # chained or straightened on its own, wherever _chain and
        # _straighten are looked up
        clear_caches()
        chained, straightened = [], []
        for name, calls in (("_chain", chained), ("_straighten", straightened)):
            real = getattr(tableaux, name)

            def counting(*args, real=real, calls=calls):
                calls.append(args)
                return real(*args)

            for module in (tableaux, presentation, reports):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counting)
        lam, mu = Partition([3, 2, 1]), Composition([1, 2, 2, 1])
        cert = certify_basis(lam, mu)
        comps = components(lam, mu)
        dot = poset_dot(lam, mu)
        nodes = [line for line in dot.splitlines()[1:-1] if "->" not in line]
        assert len(cert.tableaux) == sum(len(fiber) for _, _, fiber in comps) == len(nodes) > 1
        assert key_builds == [zero_free_key(lam, mu)]
        assert chained == straightened == []

    def test_dot_relabels_once(self, monkeypatch):
        lam, mu = Partition([3, 2, 1]), Composition([1, 0, 2, 2, 1])
        expected = poset_dot(lam, mu)
        real = tableaux._relabelling
        calls = []

        def counting(mu):
            calls.append(mu)
            return real(mu)

        monkeypatch.setattr(tableaux, "_relabelling", counting)
        monkeypatch.setattr(reports, "_relabelling", counting)
        assert poset_dot(lam, mu) == expected
        assert calls == [mu]


class TestSharedTableaux:
    def test_shared_equals_cold_d5(self):
        pairs = list(iter_pairs(5))
        cold = {(lam, mu): _cold_record(lam, mu) for lam, mu in pairs}
        padded_keys = {zero_free_key(lam, mu) for lam, mu in pairs if 0 in mu.parts}
        # iter_pairs lists each zero-free pair before the padded pairs of its
        # key, so the reversed list reaches a key through a padded pair first
        for order in (pairs, pairs[::-1]):
            clear_caches()
            for lam, mu in order:
                assert _shared_record(lam, mu) == cold[lam, mu], (lam, mu)
            # the chains and images of a key are kept with its fillings, so
            # every padded key keeps the same three kinds in either order
            assert set(tableaux._KEYS) == {
                (key, kind) for key in padded_keys for kind in ("enumerate", "betti", "components")
            }

    def test_padded_pairs_relabel_the_key(self):
        clear_caches()
        lam = Partition([2, 1])
        key = enumerate_column_strict(lam, Composition([1, 2]))
        got = enumerate_column_strict(lam, Composition([0, 1, 0, 2]))
        assert [T.rows for T in got] == [
            tuple(tuple({1: 2, 2: 4}[v] for v in row) for row in T.rows) for T in key
        ]
        assert list(tableaux._KEYS) == [(((2, 1), (1, 2)), "enumerate")]
        # trailing zeros relabel by the identity and still return a new list
        trailing = enumerate_column_strict(lam, Composition([1, 2, 0]))
        assert trailing == key
        trailing.clear()
        assert enumerate_column_strict(lam, Composition([1, 2, 0])) == key

    def test_components_return_fresh_lists(self):
        # the identity (trailing zeros) and a relabelling (a zero inside):
        # changing one call's lists leaves the next call's unchanged
        lam = Partition([3, 1])
        for mu in (Composition([1, 2, 1, 0]), Composition([1, 0, 2, 1])):
            first = components(lam, mu)
            expected = [(S, dim, list(fiber)) for S, dim, fiber in first]
            assert any(len(fiber) > 1 for _, _, fiber in first)
            for _, _, fiber in first:
                fiber.clear()
            first.clear()
            assert components(lam, mu) == expected

    def test_failed_compute_leaves_the_table_unchanged(self):
        lam, mu = Partition([2, 1]), Composition([1, 0, 2])

        def fail():
            raise RuntimeError("compute failed")

        clear_caches()
        for kept in ({}, {(zero_free_key(lam, mu), "kept"): 1}):
            tableaux._KEYS.update(kept)
            with pytest.raises(RuntimeError):
                shared("failed", lam, mu, fail)
            assert tableaux._KEYS == kept
        assert shared("failed", lam, mu, lambda: 2) == 2
        assert shared("failed", lam, Composition([0, 1, 2]), fail) == 2
        clear_caches()

    def test_zero_free_pairs_store_nothing(self):
        clear_caches()
        for lam, mu in iter_pairs(4):
            if 0 not in mu.parts:
                enumerate_column_strict(lam, mu)
                betti(lam, mu)
                components(lam, mu)
        assert not tableaux._KEYS
