from spaltenstein.presentation import HilbertSeries
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
    dims,
    enumerate_column_strict,
    enumerate_semistandard,
    partitions,
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
                        assert betti(lam_p, mu_c).evaluate(1) == len(
                            enumerate_column_strict(lam_p, mu_c)
                        )


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
