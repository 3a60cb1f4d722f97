import hashlib
import json
from fractions import Fraction
from itertools import combinations

import pytest

from oracles import (
    anti_invariant_dim_by_equations,
    dense,
    ideal_by_insertion,
    kernel_basis,
    scaled_int_row,
    span,
    sparse,
)
from spaltenstein import presentation
from spaltenstein.coinvariant import get_ring, invariant_rows
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
from spaltenstein.linalg import RowSpace
from test_linalg import fraction_residual, fraction_rref
from spaltenstein.reports import betti
from spaltenstein.symring import BlockStructure, Polynomial, complete_block, elementary_block
from spaltenstein.tableaux import (
    Composition,
    Partition,
    Tableau,
    compositions,
    dominance_leq,
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


def dominated_pairs(d_max):
    return [(lam, mu) for lam, mu in iter_pairs(d_max) if dominance_leq(mu.sorted(), lam)]


def augmented_oracle(cert, t):
    """Gauss-Jordan over Fractions on the degree-t ideal rows and the basis
    classes of degree t, each class tagged by a unit vector: (reduced
    basis, class width, tableau indices of degree t)."""
    width = cert.quotient.ring.dim(t)
    indices = [i for i, s in enumerate(cert.degrees) if s == t]
    tags = len(indices)
    ideal = cert.quotient.ideal_space(t)
    rows = [dense(row, width) + [0] * tags for row in (ideal.pivot_rows.values() if ideal else ())]
    for pos, i in enumerate(indices):
        rows.append(dense(cert.classes[i], width) + [int(k == pos) for k in range(tags)])
    return fraction_rref(rows, width + tags), width, indices


def fraction_normal_form(p, cert):
    """Oracle for normal_form: each degree-t class reduced by the Fraction
    residual against the augmented Gauss-Jordan basis; the tag entries are
    minus the coordinates.  Above the stopping degree every class lies in
    the ideal."""
    coords = {}
    for t, row in cert.quotient.ring.class_of_polynomial(p).items():
        if cert.quotient.ideal_space(t) is None:
            continue
        reduced, width, indices = augmented_oracle(cert, t)
        res = fraction_residual(reduced, dense(row, width) + [0] * len(indices))
        assert not any(res[:width])
        for pos, i in enumerate(indices):
            T = cert.tableaux[i]
            coords[T] = coords.get(T, 0) - res[width + pos]
    return {T: c for T, c in coords.items() if c}


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

    def test_rational_combinations_match_fraction_oracle(self):
        # non-integral coefficients are cleared before the integer residual
        # (a floor division on Fractions would give wrong coordinates)
        checked = 0
        for lam, mu in dominated_pairs(4):
            cert = certify_basis(lam, mu)
            polys = [h_of_tableau(T, mu) for T in cert.tableaux]
            for a, pa in enumerate(polys):
                pb = polys[(a + 1) % len(polys)]
                p = pa * Fraction(1, 2) + pb * Fraction(3, 7) + pa * pb * Fraction(-5, 3)
                got = normal_form(p, cert)
                assert got == fraction_normal_form(p, cert)
                assert all(type(c) is Fraction for c in got.values())
                checked += 1
        assert checked == 603


class TestEscapeWitness:
    def test_residual_strings_match_fraction_path(self):
        # classes outside the certified span: unit vectors and a rational
        # vector of every certified degree; the witness lists the Fraction
        # residual of the class part, as str
        escapes = 0
        for lam, mu in dominated_pairs(4):
            cert = certify_basis(lam, mu)
            for t in sorted(set(cert.degrees)):
                reduced, width, indices = augmented_oracle(cert, t)
                probes = [[int(k == pos) for k in range(width)] for pos in range(width)]
                probes.append([Fraction(k + 1, 3) for k in range(width)])
                for vec in probes:
                    res = fraction_residual(reduced, vec + [0] * len(indices))
                    if not any(res[:width]):
                        assert cert.coordinates_of_class(sparse(vec), t) == {
                            i: -res[width + pos] for pos, i in enumerate(indices) if res[width + pos]
                        }
                        continue
                    with pytest.raises(BasisError) as err:
                        cert.coordinates_of_class(sparse(vec), t)
                    assert str(err.value) == "class outside the certified span"
                    assert err.value.witness == {
                        "degree": 2 * t,
                        "residual": [str(v) for v in res[:width]],
                    }
                    escapes += 1
        assert escapes == 1016


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

    def test_tensors_pinned_d4(self):
        # every tensor value of the 177 dominated pairs with d <= 4, hashed;
        # the digest was recorded from the Fraction-residual implementation
        digest = hashlib.sha256()
        entries = 0
        for lam, mu in dominated_pairs(4):
            tabs, tensor = structure_constants(lam, mu)
            digest.update(repr((lam.parts, mu.parts, len(tabs))).encode())
            for key in sorted(tensor):
                entries += len(tensor[key])
                row = sorted((k, c.numerator, c.denominator) for k, c in tensor[key].items())
                digest.update(repr((key, row)).encode())
        assert entries == 2501
        assert digest.hexdigest() == (
            "642859cec9ff218da87746e0b2f958580b4db66de72c559f364f00df59670028"
        )

    def test_certificate_of_another_pair_is_rejected(self):
        cert = certify_basis(Partition([2, 1]), Composition([1, 1, 1]))
        with pytest.raises(ValueError):
            structure_constants(Partition([3]), Composition([3]), certificate=cert)
        padded = certify_basis(Partition([2, 1]), Composition([1, 0, 2]))
        with pytest.raises(ValueError):
            structure_constants(Partition([2, 1]), Composition([0, 1, 2]), certificate=padded)
        tabs, tensor = structure_constants(
            Partition([2, 1]), Composition([1, 0, 2]), certificate=padded
        )
        assert tabs == padded.tableaux
        assert tensor == structure_constants(Partition([2, 1]), Composition([1, 2]))[1]

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
            base = dense(real(q.ring, first, mu, {})[0], q.ring.dim(t))
            fake.clear()
            fake[second, mu] = (sparse([2 * v for v in base]), t)
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
            assert q.contains_class(sparse(total), t)
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
                    for row in q.ideal_space(t - 1).pivot_rows.values():
                        assert space.contains(q.ring.apply_var(row, d, t - 1))
            pairs += 1
        assert pairs == 1641


class TestQuotientDimension:
    def test_qdim_equals_copy_and_insert_d5(self):
        # the rank of the invariant residuals against the copy-and-insert
        # count: insert every invariant row into a copy of the ideal
        pairs = 0
        for lam, mu in iter_pairs(5):
            for family in ("H", "E"):
                q = build_quotient(lam, mu, family)
                for t in range(q.stop_x + 1):
                    probe = q.ideal_space(t).copy()
                    gains = sum(1 for row in q.invariant_basis_rows(t) if probe.insert(row))
                    assert q.core.qdim[t] == gains
            pairs += 1
        assert pairs == 1641


class TestSparsePropagation:
    def test_ideal_equals_dense_span_d5(self):
        # I_t is the span of the degree-t generator classes, computed from
        # the expanded polynomials, and of x_v * I_{t-1} for every v <= d
        gen_classes = {}

        def gen_class(q, subset, r, kind):
            key = (q.d, q.blocks.union(subset), r, kind)
            if key not in gen_classes:
                builder = complete_block if kind == "h" else elementary_block
                poly = builder(q.mu, subset, r)
                row = q.ring.class_of_polynomial(poly).get(r, {})
                gen_classes[key] = sparse(scaled_int_row(dense(row, q.ring.dim(r))))
            return gen_classes[key]

        pairs = 0
        for lam, mu in iter_pairs(5):
            d = mu.size()
            for family, kind in (("H", "h"), ("E", "e")):
                q = build_quotient(lam, mu, family)
                ring = q.ring
                items = _generator_items(lam, mu, family, q.stop_x)
                for t in range(q.stop_x + 1):
                    oracle = RowSpace(ring.dim(t))
                    for subset, r in items:
                        if r == t:
                            oracle.insert(gen_class(q, subset, r, kind))
                    if t:
                        for row in q.ideal_space(t - 1).pivot_rows.values():
                            for v in range(1, d + 1):
                                oracle.insert(ring.apply_var(row, v, t - 1))
                    assert q.ideal_space(t) == oracle
            pairs += 1
        assert pairs == 1641


class TestBatchedBuild:
    def test_ideal_equals_one_at_a_time_build_d5(self):
        # _build extends each degree by one batch in descending lead order;
        # by the order lemma its pivot_rows equal those of the one-at-a-time
        # build, degree by degree, on every zero-free key
        keys = 0
        for lam, mu in iter_pairs(5):
            if 0 in mu.parts:
                continue
            for family in ("H", "E"):
                q = build_quotient(lam, mu, family)
                oracle = ideal_by_insertion(q)
                assert len(oracle) == q.stop_x + 1
                for t, space in enumerate(oracle):
                    assert q.ideal_space(t).pivot_rows == space.pivot_rows
            keys += 1
        assert keys == 114


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
            row = ring.sym_classes(source.blocks.union(subset), r, kind)[r]
            if row and not target.contains_class(row, r):
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


def kernel_match_oracle(q, reg, eps, e, t):
    """Oracle for _transfer_kernel_matches: the combinations of the
    invariant rows whose product with eps lies in the degree-(t + e)
    regular ideal, and those that lie in the block ideal, each found by
    Fraction Gauss-Jordan and kernel_basis and compared as spans of dense
    classes.  Where reg has no ideal space, its quotient is zero."""
    ring, width = q.ring, q.ring.dim(t)
    inv = [dense(row, width) for row in q.invariant_basis_rows(t)]

    def null_span(images, space, image_width):
        rows = [dense(row, image_width) for row in space.pivot_rows.values()] if space else []
        reduced = fraction_rref(rows, image_width)
        residuals = [fraction_residual(reduced, image) if space else [0] * image_width
                     for image in images]
        equations = [[res[j] for res in residuals] for j in range(image_width)]
        combos = kernel_basis(equations, len(inv))
        return span([[sum(c * row[k] for c, row in zip(combo, inv)) for k in range(width)]
                     for combo in combos], width)

    products = [dense(ring.mul_classes(sparse(row), t, eps, e), ring.dim(t + e)) for row in inv]
    return null_span(products, reg.ideal_space(t + e), ring.dim(t + e)) == null_span(
        inv, q.ideal_space(t), width
    )


class TestTransfer:
    def test_kernel_check_matches_combination_oracle_d4(self):
        # the relation-space comparison against the spans of the null
        # combinations, for the antisymmetrizer and for three wrong
        # multipliers: x_1 times it, 1, and x_d^e (which gives kernels
        # of equal dimension that differ)
        outcomes = []
        for lam, mu in iter_pairs(4):
            q = build_quotient(lam, mu)
            ring, reg = q.ring, regular_quotient(lam, mu.size())
            blocks = BlockStructure(mu)
            pairs = [p for j in range(1, len(mu) + 1) for p in combinations(blocks.block(j), 2)]
            eps, e = ring.antisymmetrizer_class(pairs)
            power = ring.unit()
            for r in range(e):
                power = ring.apply_var(power, mu.size(), r)
            wrong = ((ring.apply_var(eps, 1, e), e + 1), (ring.unit(), 0), (power, e))
            for t in range(q.stop_x + 1):
                assert presentation._transfer_kernel_matches(ring, q, reg, eps, e, t)
                assert kernel_match_oracle(q, reg, eps, e, t)
                for mult, deg in wrong:
                    got = presentation._transfer_kernel_matches(ring, q, reg, mult, deg, t)
                    assert got == kernel_match_oracle(q, reg, mult, deg, t)
                    outcomes.append(got)
        assert (outcomes.count(True), outcomes.count(False)) == (2836, 695)

    def test_anti_invariant_count_matches_equation_oracle_d6(self):
        # the residual rank of the anti-invariant rows against the
        # (s + 1)v equation system, for every lam, every transposition
        # set and every degree 0..top+1 with d <= 6
        cases = 0
        for d in range(1, 7):
            ring = get_ring(d)
            sets = {
                tuple(BlockStructure(Composition(mu)).transpositions())
                for n in range(1, d + 1)
                for mu in compositions(d, n)
            }
            for lam in partitions(d):
                reg = regular_quotient(Partition(lam), d)
                for transpositions in sorted(sets):
                    for e in range(ring.top + 2):
                        rows = invariant_rows(ring, transpositions, e, -1)
                        got = presentation._residual_rank(reg.ideal_space(e), rows)
                        assert got == anti_invariant_dim_by_equations(ring, reg, transpositions, e)
                        cases += 1
        assert cases == 7722

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
    spaces, the certificate JSON bytes, the coordinates of every basis
    class, the transfer JSON and the multiplication tensor."""
    qh, qe = build_quotient(lam, mu, "H"), build_quotient(lam, mu, "E")
    cert = certify_basis(lam, mu, quotient=qh)
    return (
        qh.to_json(),
        qe.to_json(),
        [[q.ideal_space(t) for t in range(q.stop_x + 1)] for q in (qh, qe)],
        json.dumps(cert.to_json(), sort_keys=True).encode(),
        [cert.coordinates_of_class(v, t) for v, t in zip(cert.classes, cert.degrees)],
        anti_invariant_transfer(lam, mu).to_json(),
        structure_constants(lam, mu, certificate=cert),
    )


def _cache_sizes():
    tables = ("_RINGS", "_INV_CACHE", "_REGULAR_CACHE", "_CORES", "_TABLEAU_KEYS")
    return [len(getattr(presentation, name)) for name in tables]


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
        # key, so the reversed list builds a padded pair first; the first
        # pair of a key returns its transfer report and tensor as computed,
        # later pairs get them relabelled and unpacked from the core
        for order in (pairs, pairs[::-1]):
            clear_caches()
            for lam, mu in order:
                assert _pipeline_record(lam, mu) == cold[lam, mu], (lam, mu)
            assert len(presentation._CORES) == 2 * len(padded_keys)
            # every pair certifies, transfers and multiplies against its H
            # quotient and none against E
            for (family, _, _), core in presentation._CORES.items():
                slots = (core.certificate, core.transfer, core.tensor)
                assert [slot is not None for slot in slots] == [family == "H"] * 3

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

    def test_shared_tensor_is_fresh_per_call(self):
        clear_caches()
        lam = Partition([2, 1])
        _, first = structure_constants(lam, Composition([1, 0, 2]))
        first[(0, 0)][0] = Fraction(7)
        _, second = structure_constants(lam, Composition([0, 1, 2]))
        assert second[(0, 0)] == {0: Fraction(1)}
        assert all(second[(i, j)] is second[(j, i)] for i, j in second)

    def test_failed_transfer_stores_nothing(self, monkeypatch):
        lam, mu, other = Partition([2, 1]), Composition([1, 0, 2]), Composition([0, 1, 2])
        clear_caches()
        cold = anti_invariant_transfer(lam, other).to_json()
        clear_caches()
        monkeypatch.setattr(presentation, "_transfer_kernel_matches", lambda *args: False)
        with pytest.raises(presentation.TransferError):
            anti_invariant_transfer(lam, mu)
        core = build_quotient(lam, mu).core
        assert core.transfer is None
        monkeypatch.undo()
        assert anti_invariant_transfer(lam, other).to_json() == cold
        assert core.transfer is not None

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
        assert all(_cache_sizes())
        clear_caches()
        assert _cache_sizes() == [0] * 5
        assert _pipeline_record(lam, mu) == before
