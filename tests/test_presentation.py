import json
from fractions import Fraction

import pytest

from spaltenstein import presentation
from spaltenstein.presentation import (
    BasisError,
    HilbertSeries,
    _generator_items,
    anti_invariant_transfer,
    build_quotient,
    certify_basis,
    clear_caches,
    generator_bound,
    generators,
    h_of_tableau,
    normal_form,
    regular_quotient,
    rel_equivalence,
    structure_constants,
)
from spaltenstein.reports import betti
from spaltenstein.symring import Polynomial, complete_block
from spaltenstein.tableaux import (
    Composition,
    Partition,
    Tableau,
    compositions,
    enumerate_column_strict,
    iter_pairs,
    partitions,
    tableau_degree,
)

ANEX_LAM = Partition([4, 3, 3, 2])
ANEX_MU = Composition([1, 4, 1, 3, 1, 2])
ANEX_T = Tableau([[2, 1, 2, 2], [3, 2, 4], [4, 4, 6], [6, 5]])


class TestHilbertSeries:
    def test_trailing_zeros_stripped(self):
        assert HilbertSeries([1, 2, 0]) == HilbertSeries([1, 2])

    def test_coefficient_and_evaluate(self):
        h = HilbertSeries([1, 2, 1])
        assert h.coefficient(0) == 1
        assert h.coefficient(2) == 2
        assert h.coefficient(3) == 0
        assert h.coefficient(8) == 0
        assert h.evaluate(1) == 4
        assert h.total() == 4
        assert h.top_degree() == 4

    def test_negative_coefficient_rejected(self):
        with pytest.raises(ValueError):
            HilbertSeries([1, -1])


class TestGenerators:
    def test_h_family_example(self):
        fam = generators(Partition([2, 0]), Composition([1, 1]), "H", 4)
        entries = [(s, r) for s, r, _ in fam.entries]
        assert entries == [((1,), 2), ((2,), 2), ((1, 2), 1), ((1, 2), 2)]
        polys = {(s, r): p for s, r, p in fam.entries}
        assert polys[((1,), 2)] == Polynomial(2, {(2, 0): 1})
        assert polys[((1, 2), 1)] == Polynomial(2, {(1, 0): 1, (0, 1): 1})

    def test_full_set_bound_is_zero(self):
        for d in range(1, 6):
            for n in range(1, min(d, 3) + 1):
                for mu in compositions(d, n):
                    mu_c = Composition(mu)
                    lam = mu_c.sorted()
                    if lam.height() > n:
                        continue
                    full = tuple(range(1, n + 1))
                    assert generator_bound(lam, mu_c, "H", full) == 0
                    assert generator_bound(lam, mu_c, "E", full) == 0

    def test_degree_zero_generator_when_not_dominated(self):
        lam, mu = Partition([1, 1]), Composition([2, 0])
        fam_h = generators(lam, mu, "H", 2)
        fam_e = generators(lam, mu, "E", 2)
        assert any(r == 0 for _, r, _ in fam_h.entries)
        assert any(r == 0 for _, r, _ in fam_e.entries)


class TestQuotient:
    def test_point_quotient(self):
        q = build_quotient(Partition([2, 1]), Composition([2, 1]))
        assert q.hilbert == HilbertSeries([1])

    def test_projective_line(self):
        q = build_quotient(Partition([2, 0]), Composition([1, 1]))
        assert q.hilbert == HilbertSeries([1, 1])
        assert q.total_dimension() == 2

    def test_two_cell_springer_fiber(self):
        q = build_quotient(Partition([2, 1]), Composition([1, 1, 1]))
        assert q.hilbert == HilbertSeries([1, 2])

    def test_not_dominated_gives_zero(self):
        q = build_quotient(Partition([1, 1]), Composition([2, 0]))
        assert q.hilbert == HilbertSeries([])
        assert q.is_trivial()

    def test_dimension_vanishes_beyond_top(self):
        q = build_quotient(Partition([3, 1]), Composition([1, 1, 1, 1]))
        top = 2 * q.top_x
        assert q.dimension(top + 2) == 0
        assert q.dimension(top + 4) == 0
        assert q.dimension(1) == 0

    def test_total_matches_tableau_count(self):
        for d in range(5):
            for n in range(1, d + 1):
                for lam in partitions(d, n):
                    for mu in compositions(d, n):
                        lam_p, mu_c = Partition(lam), Composition(mu)
                        q = build_quotient(lam_p, mu_c)
                        assert q.total_dimension() == len(
                            enumerate_column_strict(lam_p, mu_c)
                        )


class TestTableauBasis:
    def test_worked_example_polynomial(self):
        expected = Polynomial(12, {
            tuple(1 if i in (5, 10) else 0 for i in range(12)): 1,
            tuple(1 if i in (5, 11) else 0 for i in range(12)): 1,
        })
        assert h_of_tableau(ANEX_T, ANEX_MU) == expected
        assert h_of_tableau(ANEX_T, ANEX_MU) == complete_block(
            ANEX_MU, [3], 1
        ) * complete_block(ANEX_MU, [6], 1)

    def test_degree_zero_tableau_gives_one(self):
        mu = Composition([1, 1, 1])
        for T in enumerate_column_strict(Partition([2, 1]), mu):
            if tableau_degree(T, mu) == 0:
                assert h_of_tableau(T, mu) == Polynomial.one(3)

    def test_small_basis(self):
        mu = Composition([1, 1])
        tabs = enumerate_column_strict(Partition([2, 0]), mu)
        polys = sorted(str(h_of_tableau(T, mu)) for T in tabs)
        assert polys == ["1", "x2"]

    def test_certify_small(self):
        cert = certify_basis(Partition([2, 0]), Composition([1, 1]))
        assert cert.size() == 2
        assert cert.to_json()["certified"] is True

    def test_certify_empty(self):
        cert = certify_basis(Partition([1, 1]), Composition([2, 0]))
        assert cert.size() == 0

    def test_homogeneity(self):
        for T in enumerate_column_strict(ANEX_LAM, ANEX_MU)[:20]:
            p = h_of_tableau(T, ANEX_MU)
            assert p.is_homogeneous()
            assert p.degree() == 2 * tableau_degree(T, ANEX_MU)


class TestNormalForm:
    def setup_method(self):
        self.cert = certify_basis(Partition([2, 0]), Composition([1, 1]))
        self.by_rows = {T.rows: T for T in self.cert.tableaux}

    def test_generator_maps_to_zero(self):
        gen = complete_block(Composition([1, 1]), [1], 2)  # x1^2
        assert normal_form(gen, self.cert) == {}
        e1 = complete_block(Composition([1, 1]), [1, 2], 1)
        assert normal_form(e1, self.cert) == {}

    def test_unit_maps_to_degree_zero_tableau(self):
        coords = normal_form(Polynomial.one(2), self.cert)
        assert coords == {self.by_rows[((2, 1),)]: Fraction(1)}

    def test_x1_is_minus_x2(self):
        coords = normal_form(Polynomial.variable(2, 1), self.cert)
        assert coords == {self.by_rows[((1, 2),)]: Fraction(-1)}

    def test_rejects_non_invariant(self):
        cert = certify_basis(Partition([2]), Composition([2]))
        with pytest.raises(ValueError):
            normal_form(Polynomial.variable(2, 1), cert)

    def test_basis_elements_are_unit_vectors(self):
        mu = Composition([1, 1, 1])
        cert = certify_basis(Partition([2, 1]), mu)
        for T in cert.tableaux:
            coords = normal_form(h_of_tableau(T, mu), cert)
            assert coords == {T: Fraction(1)}


class TestStructureConstants:
    def test_unit_acts_as_identity(self):
        tabs, tensor = structure_constants(Partition([2, 0]), Composition([1, 1]))
        unit = next(i for i, T in enumerate(tabs) if T == Tableau([[2, 1]]))
        for j in range(len(tabs)):
            assert tensor[(unit, j)] == {j: Fraction(1)}

    def test_top_degree_product_vanishes(self):
        tabs, tensor = structure_constants(Partition([2, 0]), Composition([1, 1]))
        x2 = next(i for i, T in enumerate(tabs) if T == Tableau([[1, 2]]))
        assert tensor[(x2, x2)] == {}

    def test_symmetry_and_integrality(self):
        for lam, mu in [
            (Partition([2, 1]), Composition([1, 1, 1])),
            (Partition([3, 1]), Composition([2, 2])),
            (Partition([2, 2]), Composition([1, 2, 1])),
        ]:
            tabs, tensor = structure_constants(lam, mu)
            for i in range(len(tabs)):
                for j in range(len(tabs)):
                    assert tensor[(i, j)] == tensor[(j, i)]
                    for c in tensor[(i, j)].values():
                        assert c.denominator == 1

    def test_associativity_small(self):
        lam, mu = Partition([2, 1]), Composition([1, 1, 1])
        tabs, tensor = structure_constants(lam, mu)
        n = len(tabs)
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    left = {}
                    for u, c in tensor[(i, j)].items():
                        for v, e in tensor[(u, k)].items():
                            left[v] = left.get(v, 0) + c * e
                    right = {}
                    for u, c in tensor[(j, k)].items():
                        for v, e in tensor[(i, u)].items():
                            right[v] = right.get(v, 0) + c * e
                    assert {k_: v for k_, v in left.items() if v} == {
                        k_: v for k_, v in right.items() if v
                    }


class TestDependencyWitness:
    def test_fabricated_dependency_yields_combination(self, monkeypatch):
        # give the second tableau of the lowest repeated degree twice the
        # class of the first; the witness combination must lie in the ideal
        real = presentation._h_class_chain
        fake = {}

        def chain(ring, T, mu, memo):
            hit = fake.get((T, mu))
            return hit if hit is not None else real(ring, T, mu, memo)

        monkeypatch.setattr(presentation, "_h_class_chain", chain)
        pairs = 0
        for lam, mu in iter_pairs(5):
            if 0 in mu.parts:
                continue
            tabs = enumerate_column_strict(lam, mu)
            by_degree = {}
            for T in tabs:
                by_degree.setdefault(tableau_degree(T, mu), []).append(T)
            repeated = [(t, ts) for t, ts in sorted(by_degree.items()) if len(ts) > 1]
            if not repeated:
                continue
            t, (first, second) = repeated[0][0], repeated[0][1][:2]
            q = build_quotient(lam, mu)
            base = real(q.ring, first, mu, {})[0]
            fake.clear()
            fake[second, mu] = ([2 * v for v in base], t)
            with pytest.raises(BasisError) as err:
                presentation._certificate_data(lam, mu, q, tabs)
            witness = err.value.witness
            assert witness["degree"] == 2 * t
            combo = witness["combination"]
            assert set(combo) == {str(first.to_json()), str(second.to_json())}
            total = [
                combo[str(first.to_json())] * v + combo[str(second.to_json())] * 2 * v
                for v in base
            ]
            assert q.contains_class(total, t)
            pairs += 1
        assert pairs == 56


class TestLastVariableSkip:
    def test_ideals_closed_under_last_variable_d5(self):
        # _build propagates I_{t-1} by x_1..x_{d-1} only; the ideal it gets
        # must still contain x_d * I_{t-1}
        pairs = 0
        for lam, mu in iter_pairs(5):
            d = mu.size()
            for family in ("H", "E"):
                q = build_quotient(lam, mu, family)
                for t in range(1, q.stop_x + 1):
                    space = q.ideal_space(t)
                    for row in q.ideal_space(t - 1).basis():
                        assert space.contains(q.ring.apply_var(list(row), d, t - 1))
            pairs += 1
        assert pairs == 1641


def membership_equivalence(qh, qe):
    """Oracle for rel_equivalence by membership instead of canonical bases:
    equal Hilbert series, equal ideal ranks through the common window, and
    every generator of each family in the other family's ideal."""
    if qh.hilbert != qe.hilbert:
        return False
    for t in range(min(qh.stop_x, qe.stop_x) + 1):
        if qh.ideal_space(t).rank != qe.ideal_space(t).rank:
            return False
    ring = qh.ring
    for source, target, kind in ((qh, qe, "h"), (qe, qh, "e")):
        for subset, r in _generator_items(source.lam, source.mu, source.family, source.stop_x):
            vec = ring.sym_class(source.blocks.union(subset), r, kind)
            if any(vec) and not target.contains_class(vec, r):
                return False
    return True


class TestRelEquivalence:
    def test_small_cases(self):
        assert rel_equivalence(Partition([2, 0]), Composition([1, 1]))
        assert rel_equivalence(Partition([2, 1]), Composition([1, 2, 0]))
        assert rel_equivalence(Partition([1, 1]), Composition([2, 0]))

    def test_sweep_d4(self):
        pairs = 0
        for lam, mu in iter_pairs(4):
            qh, qe = build_quotient(lam, mu, "H"), build_quotient(lam, mu, "E")
            assert rel_equivalence(lam, mu, qh=qh, qe=qe)
            assert membership_equivalence(qh, qe)
            pairs += 1
        assert pairs == 299

    def test_different_lambda_same_mu_agrees_with_membership_oracle(self):
        for d in range(1, 4):
            for n in range(1, d + 1):
                lams = [Partition(p) for p in partitions(d, n)]
                for mu in map(Composition, compositions(d, n)):
                    for a in lams:
                        for b in lams:
                            qh = build_quotient(a, mu, "H")
                            qe = build_quotient(b, mu, "E")
                            assert rel_equivalence(a, mu, qh=qh, qe=qe) == (
                                membership_equivalence(qh, qe)
                            )

    def test_equal_ranks_different_ideals(self):
        mu = Composition([1, 2, 3])
        qh = build_quotient(Partition([4, 1, 1]), mu, "H")
        qe = build_quotient(Partition([3, 3]), mu, "E")
        assert qh.stop_x == qe.stop_x and qh.hilbert == qe.hilbert
        for t in range(qh.stop_x + 1):
            assert qh.ideal_space(t).rank == qe.ideal_space(t).rank
        assert not rel_equivalence(Partition([4, 1, 1]), mu, qh=qh, qe=qe)
        assert not membership_equivalence(qh, qe)

    def test_stop_degrees_differ(self):
        # both ideals are the unit ideal and agree up to the lower stop
        # degree, so only the stop degrees tell the two windows apart
        mu = Composition([1, 1, 4])
        qh = build_quotient(Partition([3, 3]), mu, "H")
        qe = build_quotient(Partition([3, 2, 1]), mu, "E")
        assert qh.stop_x > qe.stop_x
        assert not rel_equivalence(Partition([3, 3]), mu, qh=qh, qe=qe)
        assert not rel_equivalence(Partition([3, 2, 1]), mu, qh=qe, qe=qh)


class TestTransfer:
    def test_hand_example(self):
        report = anti_invariant_transfer(Partition([2, 0]), Composition([2]))
        assert report.shift == 2
        assert report.anti_dims == (1,)
        assert report.quotient_dims == (1,)

    def test_regular_case_degenerates(self):
        lam = Partition([2, 1])
        report = anti_invariant_transfer(lam, Composition([1, 1, 1]))
        assert report.shift == 0
        q = regular_quotient(lam, 3)
        for degree, a, b in zip(report.degrees, report.anti_dims, report.quotient_dims):
            assert a == b == q.dimension(degree)

    def test_point_pair(self):
        report = anti_invariant_transfer(Partition([2, 1]), Composition([2, 1]))
        assert report.quotient_dims[0] == 1
        assert report.anti_dims == report.quotient_dims

    def test_sweep_d3(self):
        for d in range(4):
            for n in range(1, d + 1):
                for lam in partitions(d, n):
                    for mu in compositions(d, n):
                        anti_invariant_transfer(Partition(lam), Composition(mu))


class TestBettiAgainstQuotient:
    def test_small_sweep(self):
        for d in range(5):
            for n in range(1, d + 1):
                for lam in partitions(d, n):
                    for mu in compositions(d, n):
                        lam_p, mu_c = Partition(lam), Composition(mu)
                        assert betti(lam_p, mu_c) == build_quotient(lam_p, mu_c).hilbert


def _pipeline_record(lam, mu):
    """What a shared build must reproduce: both families' to_json and ideal
    bases, the certificate JSON bytes, and the coordinates of every basis
    class."""
    qh, qe = build_quotient(lam, mu, "H"), build_quotient(lam, mu, "E")
    cert = certify_basis(lam, mu, quotient=qh)
    return (
        qh.to_json(),
        qe.to_json(),
        [[q.ideal_space(t).basis() for t in range(q.stop_x + 1)] for q in (qh, qe)],
        json.dumps(cert.to_json(), sort_keys=True).encode(),
        [cert.coordinates_of_class(v, t) for v, t in zip(cert.classes, cert.degrees)],
    )


def _cache_sizes():
    tables = ("_RINGS", "_INV_CACHE", "_REGULAR_CACHE", "_CORES")
    return [len(getattr(presentation, name)) for name in tables] + [
        presentation._reduce_raw.cache_info().currsize
    ]


class TestSharedCore:
    def test_shared_build_equals_cold_build_d5(self):
        pairs = list(iter_pairs(5))
        cold = {}
        for lam, mu in pairs:
            clear_caches()
            cold[lam, mu] = _pipeline_record(lam, mu)
        padded_keys = {
            (lam.parts, tuple(p for p in mu.parts if p)) for lam, mu in pairs if 0 in mu.parts
        }
        # iter_pairs lists each zero-free pair before the padded pairs of its
        # key, so the reversed list builds a padded pair first
        for order in (pairs, pairs[::-1]):
            clear_caches()
            for lam, mu in order:
                assert _pipeline_record(lam, mu) == cold[lam, mu], (lam, mu)
            assert len(presentation._CORES) == 2 * len(padded_keys)
            # every pair certifies against its H quotient and none against E
            for (family, _, _), core in presentation._CORES.items():
                assert (core.certificate is not None) == (family == "H")

    def test_padded_pairs_share_one_core_and_certificate(self):
        clear_caches()
        lam = Partition([2, 1])
        a, b = Composition([1, 0, 2]), Composition([0, 1, 2, 0])
        qa, qb = build_quotient(lam, a), build_quotient(lam, b)
        assert qa.core is qb.core
        ca, cb = certify_basis(lam, a, quotient=qa), certify_basis(lam, b, quotient=qb)
        assert ca.classes is cb.classes and ca.tableaux != cb.tableaux
        # a different family, or a non-zero part order, is a different key
        assert build_quotient(lam, a, "E").core is not qa.core
        assert build_quotient(lam, Composition([2, 0, 1])).core is not qa.core

    def test_zero_free_pairs_store_nothing(self):
        clear_caches()
        for lam, mu in iter_pairs(4):
            if 0 not in mu.parts:
                certify_basis(lam, mu, quotient=build_quotient(lam, mu, "H"))
                build_quotient(lam, mu, "E")
        assert not presentation._CORES

    def test_quotient_of_another_key_is_rejected(self):
        lam, mu = Partition([2, 1]), Composition([1, 2])
        with pytest.raises(ValueError):
            certify_basis(lam, mu, quotient=build_quotient(lam, Composition([2, 1])))
        with pytest.raises(ValueError):
            certify_basis(lam, mu, quotient=build_quotient(Partition([3]), mu))

    def test_quotient_of_the_zero_free_pair_is_accepted(self):
        lam, mu = Partition([2, 1]), Composition([1, 0, 2])
        clear_caches()
        cold = certify_basis(lam, mu)
        q = build_quotient(lam, Composition([1, 2]))
        cert = certify_basis(lam, mu, quotient=q)
        assert cert.quotient is q and q.core.certificate is not None
        assert cert.to_json() == cold.to_json()
        assert (cert.classes, cert.degrees) == (cold.classes, cold.degrees)

    def test_quotient_of_the_other_family_is_accepted(self):
        # family is ignored when a quotient is given
        lam, mu = Partition([3, 1]), Composition([1, 2, 1])
        qe = build_quotient(lam, mu, "E")
        cert = certify_basis(lam, mu, "H", quotient=qe)
        assert cert.quotient is qe
        assert cert.to_json() == certify_basis(lam, mu, "E").to_json()
        assert cert.classes == certify_basis(lam, mu, "H").classes

    def test_shared_count_mismatch_raises(self):
        clear_caches()
        lam, mu = Partition([2, 1]), Composition([1, 0, 2])
        core = certify_basis(lam, mu).quotient.core
        degrees, classes, spaces = core.certificate
        core.certificate = (degrees[:-1], classes, spaces)
        try:
            with pytest.raises(BasisError):
                certify_basis(lam, Composition([0, 1, 2]))
        finally:
            clear_caches()


class TestClearCaches:
    def test_tables_empty_and_rebuild_equal(self):
        lam, mu = Partition([2, 1]), Composition([1, 0, 2])
        before = _pipeline_record(lam, mu)
        transfer = anti_invariant_transfer(lam, mu).to_json()
        assert all(_cache_sizes())
        clear_caches()
        assert _cache_sizes() == [0] * 5
        assert _pipeline_record(lam, mu) == before
        assert anti_invariant_transfer(lam, mu).to_json() == transfer
