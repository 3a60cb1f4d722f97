import hashlib
import json
import sys
import tracemalloc
from collections import Counter
from collections.abc import MutableMapping
import pickle
from copy import copy, deepcopy
from fractions import Fraction
from itertools import combinations
from math import factorial, prod

import pytest

import oracles
from oracles import (
    WideWindow,
    anti_invariant_dim_by_equations,
    dense,
    generator_classes,
    generator_items,
    h_by_reduction,
    ideal_by_insertion,
    kernel_basis,
    keys_chained_by_padded_pairs,
    largest_part_stop,
    qdim_by_invariant_rows,
    scaled_int_row,
    span,
    sparse,
    tensor_by_all_products,
)
from spaltenstein import presentation, tableaux
from spaltenstein.coinvariant import CoinvariantRing, get_ring, invariant_rows
from spaltenstein.presentation import (
    BasisError,
    GeneratorFamily,
    HilbertSeries,
    TransferReport,
    TruncationError,
    VerificationError,
    MAX_PAIRS,
    _generator_classes,
    _generator_items,
    anti_invariant_transfer,
    build_quotient,
    certify_basis,
    clear_caches,
    generators,
    h_of_tableau,
    normal_form,
    regular_quotient,
    rel_equivalence,
    structure_constants,
)
from spaltenstein.linalg import RowSpace
from test_linalg import fraction_residual, fraction_rref
from spaltenstein.reports import betti, components
from spaltenstein.symring import BlockStructure, Polynomial, complete_block, elementary_block
from spaltenstein.tableaux import (
    Composition,
    Partition,
    Tableau,
    _chain,
    compositions,
    count_column_strict,
    dims,
    dominance_leq,
    enumerate_column_strict,
    iter_pairs,
    partitions,
    tableau_degree,
    zero_free_key,
)

ANEX_LAM = Partition([4, 3, 3, 2])
ANEX_MU = Composition([1, 4, 1, 3, 1, 2])
ANEX_T = Tableau([[2, 1, 2, 2], [3, 2, 4], [4, 4, 6], [6, 5]])


class TestHilbertSeries:
    def test_trailing_zeros_stripped(self):
        assert HilbertSeries([1, 2, 0]) == HilbertSeries([1, 2])

    def test_coefficient_and_total(self):
        h = HilbertSeries([1, 2, 1])
        assert h.coefficient(0) == 1
        assert h.coefficient(2) == 2
        assert h.coefficient(3) == 0
        assert h.coefficient(8) == 0
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
                    for family in ("H", "E"):
                        items = _generator_items(lam, mu_c, family, d)
                        assert [r for s, r in items if s == full] == list(range(1, d + 1))

    def test_degree_zero_generator_when_not_dominated(self):
        lam, mu = Partition([1, 1]), Composition([2, 0])
        fam_h = generators(lam, mu, "H", 2)
        fam_e = generators(lam, mu, "E", 2)
        assert any(r == 0 for _, r, _ in fam_h.entries)
        assert any(r == 0 for _, r, _ in fam_e.entries)


class TestGeneratorRange:
    """The build collects only the members that can be non-zero in C
    (vanishing-range lemma in presentation._generator_items), and
    generators still lists every member, in Q[x]."""

    def test_build_classes_equal_nonzero_oracle_classes_d6(self):
        # the library collects no zero class, so it equals the oracle's
        # non-zero classes as it stands
        pairs = 0
        for lam, mu in iter_pairs(6):
            q = build_quotient(lam, mu, "H")
            assert _generator_classes(q, q.stop_x) == generator_classes(q, q.stop_x), (lam, mu)
            pairs += 1
        assert pairs == 9804

    def test_dropped_members_vanish_d7(self):
        # every key with d <= 7, every r up to the top degree of C
        keys = dropped = 0
        for d in range(8):
            ring = get_ring(d)
            for n in range(0 if d == 0 else 1, d + 1):
                for lam in map(Partition, partitions(d, n)):
                    for mu in map(Composition, compositions(d, n)):
                        if 0 in mu.parts:
                            continue
                        blocks = BlockStructure(mu)
                        for family, kind in (("H", "h"), ("E", "e")):
                            kept = set(_generator_items(lam, mu, family, ring.top, True))
                            for subset, r in generator_items(lam, mu, family, ring.top):
                                if (subset, r) not in kept:
                                    union = blocks.union(subset)
                                    assert ring.sym_classes(union, kind)[r] == {}, (
                                        lam, mu, family, subset, r,
                                    )
                                    dropped += 1
                        keys += 1
        assert keys == 1015
        assert dropped == 730912

    def test_generators_equal_oracle_members_d5(self):
        # generators at its default degree; the collection it reads, by
        # default, up to the top degree of C
        pairs = 0
        for lam, mu in iter_pairs(5):
            top = get_ring(mu.size()).top
            for family in ("H", "E"):
                fam = generators(lam, mu, family)
                members = generator_items(lam, mu, family, fam.max_degree // 2)
                assert [(s, r) for s, r, _ in fam.entries] == members, (lam, mu, family)
                for max_xdeg in (-1, 0, top):
                    expected = generator_items(lam, mu, family, max_xdeg)
                    assert _generator_items(lam, mu, family, max_xdeg) == expected
            pairs += 1
        assert pairs == 1641

    def test_build_forms_unions_only_for_ranges(self, monkeypatch):
        # (2,2,2)/(1,1,1,1,1,1): H has ranges for the subsets of sizes 1
        # and 2 only, E for sizes 4 and 5; the 20 subsets of size 3 form
        # no union, and neither does E's full set, whose members are zero
        calls = _count_calls(monkeypatch, BlockStructure, "union")
        clear_caches()
        build_quotient(Partition([2, 2, 2]), Composition([1] * 6), "H")
        sizes = Counter(len(call[1]) for call in calls)
        assert sizes == {1: 6, 2: 15, 4: 15, 5: 6}
        clear_caches()


class TestRecords:
    """GeneratorFamily and TransferReport behave as frozen records."""

    FIELDS = {
        GeneratorFamily: ("family", "lam", "mu", "max_degree", "entries"),
        TransferReport: ("lam", "mu", "shift", "degrees", "anti_dims", "quotient_dims"),
    }

    def fields(self, record):
        return [getattr(record, name) for name in self.FIELDS[type(record)]]

    @staticmethod
    def examples():
        # the pairs of the README present and transfer examples
        return (
            generators(Partition([2, 0]), Composition([1, 1]), "H"),
            anti_invariant_transfer(Partition([2, 0]), Composition([2])),
        )

    def test_equal_fields_equal_objects(self):
        for record in self.examples():
            twin = type(record)(*self.fields(record))
            assert twin is not record
            assert twin == record and hash(twin) == hash(record)

    def test_field_names(self):
        family, report = self.examples()
        assert (family.family, family.max_degree, len(family.entries)) == ("H", 4, 4)
        assert (report.lam, report.mu) == (Partition([2]), Composition([2]))
        assert (report.shift, report.degrees) == (2, (0,))
        assert report == TransferReport(
            lam=report.lam, mu=report.mu, shift=2, degrees=(0,), anti_dims=(1,), quotient_dims=(1,)
        )

    def test_different_field_unequal(self):
        family, report = self.examples()
        assert family != GeneratorFamily("E", *self.fields(family)[1:])
        assert report != TransferReport(report.lam, report.mu, 0, (0,), (1,), (1,))
        assert report != tuple(self.fields(report))

    def test_immutable(self):
        for record in self.examples():
            with pytest.raises(AttributeError):
                record.lam = Partition([1, 1])
            with pytest.raises(AttributeError):
                record.extra = 1
            with pytest.raises(AttributeError):
                del record.mu

    def test_repr_names_the_class(self):
        family, report = self.examples()
        assert repr(family).startswith("GeneratorFamily(family='H', lam=Partition([2]), ")
        assert repr(report) == (
            "TransferReport(lam=Partition([2]), mu=Composition([2]), shift=2, "
            "degrees=(0,), anti_dims=(1,), quotient_dims=(1,))"
        )

    def test_to_json_unchanged(self):
        # the bytes of the frozen-dataclass versions, key order included
        family, report = self.examples()
        assert json.dumps(report.to_json()) == (
            '{"lambda": [2], "mu": [2], "shift": 2, "degrees": [0], "anti_dims": [1], '
            '"quotient_dims": [1], "certified": true}'
        )
        assert json.dumps(family.to_json()) == (
            '{"family": "H", "lambda": [2], "mu": [1, 1], "max_degree": 4, "entries": ['
            '{"subset": [1], "r": 2, "poly": [{"coeff": "1/1", "exps": [2, 0]}]}, '
            '{"subset": [2], "r": 2, "poly": [{"coeff": "1/1", "exps": [0, 2]}]}, '
            '{"subset": [1, 2], "r": 1, "poly": [{"coeff": "1/1", "exps": [1, 0]}, '
            '{"coeff": "1/1", "exps": [0, 1]}]}, '
            '{"subset": [1, 2], "r": 2, "poly": [{"coeff": "1/1", "exps": [2, 0]}, '
            '{"coeff": "1/1", "exps": [1, 1]}, {"coeff": "1/1", "exps": [0, 2]}]}]}'
        )


class TestQuotient:
    def test_point_quotient(self):
        q = build_quotient(Partition([2, 1]), Composition([2, 1]))
        assert q.hilbert == HilbertSeries([1])

    def test_projective_line(self):
        q = build_quotient(Partition([2, 0]), Composition([1, 1]))
        assert q.hilbert == HilbertSeries([1, 1])
        assert q.hilbert.total() == 2
        assert q.to_json()["total_dimension"] == 2

    def test_two_cell_springer_fiber(self):
        q = build_quotient(Partition([2, 1]), Composition([1, 1, 1]))
        assert q.hilbert == HilbertSeries([1, 2])

    def test_not_dominated_gives_zero(self):
        q = build_quotient(Partition([1, 1]), Composition([2, 0]))
        assert q.hilbert == HilbertSeries([])
        assert q.hilbert.total() == 0

    def test_dimension_vanishes_beyond_top(self):
        q = build_quotient(Partition([3, 1]), Composition([1, 1, 1, 1]))
        top = 2 * q.top_x
        assert q.hilbert.coefficient(top + 2) == 0
        assert q.hilbert.coefficient(top + 4) == 0
        assert q.hilbert.coefficient(1) == 0

    def test_total_matches_tableau_count(self):
        for d in range(5):
            for n in range(1, d + 1):
                for lam in partitions(d, n):
                    for mu in compositions(d, n):
                        lam_p, mu_c = Partition(lam), Composition(mu)
                        q = build_quotient(lam_p, mu_c)
                        assert q.hilbert.total() == len(
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

    def test_chain_product_matches_reduction_oracle_d5(self):
        # h_of_tableau reads the chain once; the oracle multiplies the gammas
        # of validated reduce_tableau steps; _h_term_count counts the terms
        # of the chain's product without expanding it
        tableaux = 0
        for lam, mu in iter_pairs(5):
            for T in enumerate_column_strict(lam, mu):
                p = h_of_tableau(T, mu)
                assert p == h_by_reduction(T, mu)
                chain = _chain(T.columns(), mu.parts)
                assert len(p.terms) == presentation._h_term_count(chain, mu)
                tableaux += 1
        assert tableaux == 7904

    def test_invalid_tableau_rejected(self):
        with pytest.raises(ValueError):
            h_of_tableau(Tableau([[1], [1]]), Composition([2]))
        with pytest.raises(ValueError):
            h_of_tableau(Tableau([[1, 2]]), Composition([2, 0]))

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
            assert {2 * sum(e) for e in p.terms} == {2 * tableau_degree(T, ANEX_MU)}


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

    def test_degrees_without_tableaux(self):
        # such a degree reads the bare ideal space: a class in the ideal has
        # no coordinates, one outside it escapes with the residual witness
        # of a certified degree; above stop_x every class lies in the ideal,
        # which the probes check up to one degree past a window as wide as
        # the largest part of mu (last-block lemma)
        inside = escapes = above = 0
        for lam, mu in iter_pairs(4):
            cert = certify_basis(lam, mu)
            ring, stop_x = cert.quotient.ring, cert.quotient.stop_x
            for t in range(largest_part_stop(cert.quotient) + 2):
                if t in cert.degrees:
                    continue
                width = ring.dim(t)
                probes = [[int(k == pos) for k in range(width)] for pos in range(width)]
                probes.append([Fraction(k + 1, 3) for k in range(width)])
                if t > stop_x:
                    assert all(cert.coordinates_of_class(sparse(vec), t) == {} for vec in probes)
                    above += len(probes)
                    continue
                ideal = cert.quotient.ideal_space(t)
                probes += [dense(row, width) for row in ideal.pivot_rows.values()]
                reduced = augmented_oracle(cert, t)[0]
                for vec in probes:
                    res = fraction_residual(reduced, vec)
                    if not any(res):
                        assert cert.coordinates_of_class(sparse(vec), t) == {}
                        inside += 1
                        continue
                    with pytest.raises(BasisError) as err:
                        cert.coordinates_of_class(sparse(vec), t)
                    assert err.value.witness == {
                        "degree": 2 * t,
                        "residual": [str(v) for v in res],
                    }
                    escapes += 1
        assert (inside, escapes, above) == (1023, 680, 3399)


class TestStructureConstants:
    def test_cap_refuses_before_certifying(self, monkeypatch):
        # (7)/(1^7) has 5,040 tableaux, so 12,703,320 pairs
        certified = _count_calls(monkeypatch, presentation, "certify_basis")
        products = _count_calls(monkeypatch, CoinvariantRing, "mul_classes")
        with pytest.raises(ValueError) as err:
            structure_constants(Partition([7]), Composition([1] * 7))
        assert "12703320 pairs" in str(err.value)
        assert f"cap of {MAX_PAIRS}" in str(err.value)
        assert certified == [] and products == []

    def test_cap_admits_every_key_d6(self, monkeypatch):
        # d <= 6 needs no count: 6! * (6! + 1) / 2 = 259,560 is within the cap
        assert 259560 <= MAX_PAIRS
        largest = 0
        for lam, mu in iter_pairs(6):
            if 0 not in mu.parts and dominance_leq(mu.sorted(), lam):
                n = count_column_strict(lam, mu)
                largest = max(largest, n * (n + 1) // 2)
        assert largest == 259560

        def refused(*args):
            raise AssertionError("count_column_strict called")

        monkeypatch.setattr(presentation, "count_column_strict", refused)
        tabs, _ = structure_constants(Partition([3, 1]), Composition([1, 2, 1]))
        assert len(tabs) == 5

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

    def test_tensor_equals_all_products_oracle_d5(self):
        # product, unit and vanishing lemmas: the public tensor equals the
        # tensor of forming and reducing every pair's product on its own, on
        # every dominated zero-free key with d <= 5 and on padded pairs
        clear_caches()
        pairs = [(lam, mu) for lam, mu in dominated_pairs(5) if 0 not in mu.parts]
        assert len(pairs) == 107
        pairs += [
            (Partition([3, 1, 1]), Composition([1, 0, 1, 2, 1])),
            (Partition([5]), Composition([0, 2, 1, 1, 1])),
            (Partition([2, 2, 1]), Composition([2, 0, 2, 1])),
            (Partition([3, 2]), Composition([1, 1, 0, 2, 1])),
        ]
        for lam, mu in pairs:
            cert = certify_basis(lam, mu)
            tensor = structure_constants(lam, mu)[1]
            assert tensor == tensor_by_all_products(cert), (lam, mu)

    @staticmethod
    def _mul_calls(monkeypatch, lam, mu):
        """(certificate, quotient, the args of every mul_classes call that
        structure_constants makes on a cold tensor of (lam, mu)).  The
        certificate comes first, so the tensor's own certify_basis reads the
        kept data and forms no product."""
        clear_caches()
        cert = certify_basis(lam, mu)
        real = CoinvariantRing.mul_classes
        calls = []

        def counting(ring, *args):
            calls.append(args)
            return real(ring, *args)

        with monkeypatch.context() as m:
            m.setattr(CoinvariantRing, "mul_classes", counting)
            structure_constants(lam, mu)
        return cert, cert.quotient, calls

    def test_each_distinct_product_formed_once(self, monkeypatch):
        # 60 tableaux each, so 1,830 pairs i <= j; a one-variable block has
        # one slot, so h_1(x) h_2(x) and h_3(x) are one product.  No product
        # above stop_x and none that is a basis element is formed; the
        # window products, top_x < t <= stop_x, are all still formed and
        # checked for an escape
        counts = {}
        for parts in ([2, 1, 1, 1], [1, 1, 2, 1]):
            cert, q, calls = self._mul_calls(monkeypatch, Partition([5]), Composition(parts))
            assert cert.size() == 60
            window = sum(q.top_x < t + u for _, t, _, u in calls)
            counts[tuple(parts)] = (len(calls), window)
        assert counts == {(2, 1, 1, 1): (146, 32), (1, 1, 2, 1): (206, 42)}

    def test_no_product_formed_above_stop_x(self, monkeypatch):
        # vanishing skip: pairs of degree above stop_x exist, and their
        # entries are empty, but no product of such a degree is formed
        for lam, mu in [
            (Partition([5]), Composition([2, 1, 1, 1])),
            (Partition([3, 2]), Composition([1, 2, 1, 1])),
            (Partition([4, 1]), Composition([1, 1, 1, 1, 1])),
        ]:
            cert, q, calls = self._mul_calls(monkeypatch, lam, mu)
            tensor = structure_constants(lam, mu)[1]
            above = [(i, j) for i, j in tensor if cert.degrees[i] + cert.degrees[j] > q.stop_x]
            assert above and all(tensor[pair] == {} for pair in above)
            degrees = Counter(t + u for _, t, _, u in calls)
            assert calls and max(degrees) <= q.stop_x, (lam, mu, degrees)

    def test_basis_hit_forms_no_product(self, monkeypatch):
        # unit lemma: when e_i + e_j = e_k the entry is exactly {k: 1}, and
        # no product of such a pair is formed
        lam, mu = Partition([3, 2]), Composition([1, 2, 1, 1])
        cert, q, calls = self._mul_calls(monkeypatch, lam, mu)
        codes = presentation._exponent_codes(
            tableaux._key_chains(lam, mu), zero_free_key(lam, mu)[1]
        )
        basis = {code: k for k, code in enumerate(codes)}
        assert len(basis) == len(codes)
        position = {id(vec): k for k, vec in enumerate(cert.classes)}
        assert len(position) == len(codes)
        formed = {codes[position[id(a)]] + codes[position[id(b)]] for a, _, b, _ in calls}
        assert not formed & set(basis)
        tensor = structure_constants(lam, mu)[1]
        hits = 0
        for i, j in tensor:
            k = basis.get(codes[i] + codes[j])
            if k is not None:
                entry = tensor[(i, j)]
                assert entry == {k: Fraction(1)} and type(entry[k]) is Fraction
                hits += 1
        assert hits > len(codes)

    def test_pairs_of_one_product_hold_their_own_dicts(self):
        # (i, j) and (j, i) share one dict, and no dict is shared by two
        # pairs that share one product, so a caller's change stays local
        lam, mu = Partition([5]), Composition([2, 1, 1, 1])
        clear_caches()
        tabs, tensor = structure_constants(lam, mu)
        codes = presentation._exponent_codes(
            tableaux._key_chains(lam, mu), zero_free_key(lam, mu)[1]
        )
        by_code = {}
        for i in range(len(tabs)):
            for j in range(i + 1, len(tabs)):
                assert tensor[(i, j)] is tensor[(j, i)]
                by_code.setdefault(codes[i] + codes[j], []).append((i, j))
        shared_products = [pairs for pairs in by_code.values() if len(pairs) > 1]
        assert shared_products
        for first, second in (pairs[:2] for pairs in shared_products):
            assert tensor[first] == tensor[second]
            assert tensor[first] is not tensor[second]
        first, second = shared_products[0][:2]
        tensor[first][len(tabs)] = Fraction(7)
        assert len(tabs) not in tensor[second]

    def test_packed_tensor_no_larger_than_one_entry_per_pair(self):
        # tracemalloc, on a copy of the kept packed tensor of (5)/(2,1,1,1):
        # one entry per distinct product holds no more than the 33,864
        # bytes of one entry per pair i <= j (measured on Python 3.11)
        lam, mu = Partition([5]), Composition([2, 1, 1, 1])
        clear_caches()
        blob = pickle.dumps(presentation._tensor_data(certify_basis(lam, mu)))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            packed = pickle.loads(blob)
            size = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(packed[2]) == 60 * 61 // 2
        assert size <= 33864

    def test_equal_exponent_codes_raise_basis_error(self, monkeypatch):
        # the unit lemma's distinct codes are checked, not asserted, so the
        # check holds under python -O too; the witness names both positions
        real = presentation._exponent_codes

        def repeated(chains, parts):
            codes = real(chains, parts)
            return codes[:1] * 2 + codes[2:]

        clear_caches()
        monkeypatch.setattr(presentation, "_exponent_codes", repeated)
        with pytest.raises(BasisError, match="equal exponent vectors") as info:
            structure_constants(Partition([2, 1]), Composition([1, 1, 1]))
        assert info.value.witness == {"lambda": [2, 1], "mu": [1, 1, 1], "positions": [0, 1]}
        clear_caches()

    def test_padded_pair_gives_its_own_tableaux(self):
        # relabelling lemma: the padded pair lists its own tableaux, with
        # the tensor of its zero-free pair position by position
        padded = certify_basis(Partition([2, 1]), Composition([1, 0, 2]))
        tabs, tensor = structure_constants(Partition([2, 1]), Composition([1, 0, 2]))
        own_tabs, own_tensor = structure_constants(Partition([2, 1]), Composition([1, 2]))
        assert tabs == padded.tableaux and tabs != own_tabs
        assert tensor == own_tensor

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


def _pickled(value):
    return pickle.loads(pickle.dumps(value))


class TestValueRoundTrips:
    @staticmethod
    def values():
        lam, mu = Partition([2, 1]), Composition([1, 1, 1])
        # a relabelled tableau whose columns were read
        read = enumerate_column_strict(Partition([3, 1]), Composition([2, 0, 1, 1]))[1]
        read.columns()
        return [
            lam, mu, Composition([1, 0, 2]), read, Tableau([[1, 2], [3]]),
            HilbertSeries([1, 2]), complete_block(mu, (1, 2), 2),
            generators(lam, mu, "E"), anti_invariant_transfer(lam, mu),
        ]

    @pytest.mark.parametrize("roundtrip", [_pickled, copy, deepcopy])
    def test_equal_values_and_hashes(self, roundtrip):
        for value in self.values():
            got = roundtrip(value)
            assert type(got) is type(value)
            assert got == value and hash(got) == hash(value)
            if isinstance(value, Tableau):
                # rows only: the columns slot refills on the first call
                assert got._columns is None
                assert got.columns() == value.columns()


class TestDependencyWitness:
    def test_fabricated_dependency_yields_combination(self, monkeypatch):
        # give the second tableau of the lowest repeated degree twice the
        # class of the first; the witness combination must lie in the ideal.
        # The fake is keyed by the reduction chain, which determines the
        # tableau (bijection lemma in reports.betti).  The certificate data
        # of a pair is read off its key's fillings, so the pair padded by a
        # zero part in front, which moves every label up, must get the same
        # combination on its own relabelled tableaux
        real = presentation._h_class_chain
        fake = {}

        def h_class(ring, chain, mu, memo):
            hit = fake.get((tuple(chain), mu))
            return hit if hit is not None else real(ring, chain, mu, memo)

        monkeypatch.setattr(presentation, "_h_class_chain", h_class)
        pairs = 0
        for lam, mu in iter_pairs(5):
            if 0 in mu.parts:
                continue
            tabs = enumerate_column_strict(lam, mu)
            by_degree = {}
            for i, T in enumerate(tabs):
                by_degree.setdefault(tableau_degree(T, mu), []).append(i)
            repeated = [(t, ids) for t, ids in sorted(by_degree.items()) if len(ids) > 1]
            if not repeated:
                continue
            t, (i, j) = repeated[0][0], repeated[0][1][:2]
            first_chain, second_chain = (_chain(tabs[k].columns(), mu.parts) for k in (i, j))
            for pair_mu in (mu, Composition((0,) + mu.parts)):
                q = build_quotient(lam, pair_mu)
                base = dense(real(q.ring, first_chain, mu, {})[0], q.ring.dim(t))
                fake.clear()
                fake[tuple(second_chain), mu] = (sparse([2 * v for v in base]), t)
                with pytest.raises(BasisError) as err:
                    presentation._certificate_data(lam, pair_mu, q)
                witness = err.value.witness
                assert witness["degree"] == 2 * t
                own = enumerate_column_strict(lam, pair_mu)
                first, second = str(own[i].to_json()), str(own[j].to_json())
                combo = witness["combination"]
                assert set(combo) == {first, second}
                total = [combo[first] * v + combo[second] * 2 * v for v in base]
                assert not q.ideal_space(t).scaled_residual(sparse(total))[1]
            assert own != tabs
            pairs += 1
        assert pairs == 56

    def test_one_chain_per_tableau(self, monkeypatch):
        # the class and the degree read one reduction chain, the one kept
        # for the key (tableaux._key_chains)
        calls = []
        real = tableaux._chain

        def counting(columns, mu_parts):
            calls.append(columns)
            return real(columns, mu_parts)

        clear_caches()
        monkeypatch.setattr(tableaux, "_chain", counting)
        lam, mu = Partition([3, 2, 1]), Composition([2, 1, 2, 1])
        tabs = enumerate_column_strict(lam, mu)
        presentation._certificate_data(lam, mu, build_quotient(lam, mu))
        assert calls == [T.columns() for T in tabs]


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
                        assert not space.scaled_residual(q.ring.apply_var(row, d, t - 1))[1]
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
                transpositions = BlockStructure(mu).transpositions()
                for t in range(q.stop_x + 1):
                    probe = q.ideal_space(t).copy()
                    rows = invariant_rows(q.ring, transpositions, t)
                    gains = sum(1 for row in rows if probe.insert(row))
                    assert q.hilbert.coefficient(2 * t) == gains
            pairs += 1
        assert pairs == 1641

    def test_division_matches_invariant_rows_d6(self):
        # the Poincare division of the build against the residual rank of
        # the invariant rows, degree by degree up to stop_x, on every
        # zero-free key with d <= 6
        keys = 0
        for lam, mu in iter_pairs(6):
            if 0 in mu.parts:
                continue
            for family in ("H", "E"):
                q = build_quotient(lam, mu, family)
                oracle = qdim_by_invariant_rows(q)
                assert oracle == [q.hilbert.coefficient(2 * t) for t in range(q.stop_x + 1)]
            keys += 1
        assert keys == 356

    def test_poincare_polynomial(self):
        # prod_j [mu_j]_q!: value |S_mu| at q = 1, degree d_mu, palindromic,
        # and a zero part is the factor 1
        assert presentation._poincare((3,)) == [1, 2, 2, 1]
        assert presentation._poincare((2, 0, 2)) == [1, 2, 1]
        assert presentation._poincare((1, 1, 1)) == [1]
        assert presentation._poincare(()) == [1]
        for n in range(1, 5):
            for mu in map(Composition, compositions(6, n)):
                p = presentation._poincare(mu.parts)
                assert sum(p) == prod(factorial(m) for m in mu.parts)
                assert len(p) - 1 == sum(m * (m - 1) // 2 for m in mu.parts)
                assert p == p[::-1]

    def test_negative_dimension_raises_with_witness(self, monkeypatch):
        # a wrong P_mu drives a dimension below zero: the build stops with
        # the ranks of the offending degree
        clear_caches()
        monkeypatch.setattr(presentation, "_poincare", lambda parts: [1, 3])
        lam, mu = Partition([2, 1]), Composition([1, 1, 1])
        with pytest.raises(VerificationError) as err:
            build_quotient(lam, mu, "H")
        assert err.value.witness == {
            "lambda": [2, 1],
            "mu": [1, 1, 1],
            "family": "H",
            "degree": 2,
            "ring_dimension": 2,
            "ideal_rank": 0,
            "dimension": -1,
        }


class TestInvariantRowsOffBuildPath:
    def test_builds_leave_invariant_cache_empty_d4(self):
        # the build reads its dimensions off the ideal ranks: no pair of
        # either family computes an invariant row, so every ring's
        # invariant-row memo stays empty
        clear_caches()
        try:
            pairs = 0
            for lam, mu in iter_pairs(4):
                build_quotient(lam, mu, "H")
                build_quotient(lam, mu, "E")
                pairs += 1
            assert pairs == 299
            assert presentation._RINGS
            assert all(ring._invariants == {} for ring in presentation._RINGS.values())
        finally:
            clear_caches()


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
                items = generator_items(lam, mu, family, q.stop_x)
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


def _core_of(q):
    return q.stop_x, q.hilbert, [q.ideal_space(t).pivot_rows for t in range(q.stop_x + 1)]


class TestTwinBuild:
    """One build makes both families of a key and forms each product span
    once per distinct ideal below (shared products in
    GradedQuotient._build); each family must still be the span of its own
    generators and its own products."""

    @staticmethod
    def _assert_insertion_oracle(q):
        oracle = [space.pivot_rows for space in ideal_by_insertion(q)]
        assert _core_of(q) == (q.stop_x, q.hilbert, oracle), (q.lam, q.mu, q.family)

    def test_seeded_builds_equal_insertion_oracle_d6(self):
        clear_caches()
        keys = shared = 0
        for lam, mu in iter_pairs(6):
            if 0 in mu.parts:
                continue
            qh, qe = build_quotient(lam, mu, "H"), build_quotient(lam, mu, "E")
            self._assert_insertion_oracle(qh)
            self._assert_insertion_oracle(qe)
            shared += all(qe.ideal_space(t) is qh.ideal_space(t) for t in range(qh.stop_x + 1))
            keys += 1
        assert keys == 356
        # H and E cut out one ideal, so every E space is the H space
        assert shared == keys

    def test_divergent_families_equal_cold_builds(self, monkeypatch):
        # one more H generator, h_r(x_1) with r at the bound, makes the two
        # ideals differ; (3,1)/(1,1,1,1) agrees in degrees 0 and 1, parts
        # in degree 2, where only H gains, and meets again in the full
        # degree 4.  Where the ideals below differ, each family forms its
        # own products, which the insertion oracle checks.  The build reads
        # the member from its collection, the oracle from its lowered bound
        bound, items = oracles.generator_bound, presentation._generator_items

        def lowered(lam, mu, family, subset):
            return bound(lam, mu, family, subset) - (family == "H" and subset == (1,))

        def with_member(lam, mu, family, max_xdeg, *in_coinvariants):
            r = bound(lam, mu, family, (1,))
            extra = [((1,), r)] if family == "H" and mu.parts and 0 <= r <= max_xdeg else []
            return extra + items(lam, mu, family, max_xdeg, *in_coinvariants)

        monkeypatch.setattr(oracles, "generator_bound", lowered)
        monkeypatch.setattr(presentation, "_generator_items", with_member)
        differ = 0
        for lam, mu in iter_pairs(4):
            if 0 in mu.parts:
                continue
            cold = {}
            for family in ("H", "E"):
                clear_caches()
                cold[family] = _core_of(build_quotient(lam, mu, family))
            for first_family, second_family in (("H", "E"), ("E", "H")):
                clear_caches()
                first = build_quotient(lam, mu, first_family)
                second = build_quotient(lam, mu, second_family)
                assert _core_of(first) == cold[first_family], (lam, mu, first_family)
                assert _core_of(second) == cold[second_family], (lam, mu, second_family)
                qh, qe = (first, second) if first_family == "H" else (second, first)
                self._assert_insertion_oracle(qh)
                self._assert_insertion_oracle(qe)
                equivalent = rel_equivalence(lam, mu, qh=qh, qe=qe)
                assert equivalent == (cold["H"] == cold["E"])
                differ += not equivalent
                if (lam, mu) == (Partition([3, 1]), Composition([1, 1, 1, 1])):
                    assert not equivalent
                    assert [qe.ideal_space(t) is qh.ideal_space(t) for t in range(5)] == [
                        True, True, False, False, True,
                    ]
        assert differ == 2 * 33
        clear_caches()

    def test_truncation_witness_names_the_family(self, monkeypatch):
        # E loses e_r(block 1) at the bound of (2,1)/(1,2), so its quotient
        # no longer vanishes above top_x; the H call builds both families
        # and raises for E
        items = presentation._generator_items

        def raised(lam, mu, family, max_xdeg, *in_coinvariants):
            lost = ((1,), oracles.generator_bound(lam, mu, family, (1,)) + 1)
            kept = items(lam, mu, family, max_xdeg, *in_coinvariants)
            return [item for item in kept if family != "E" or item != lost]

        monkeypatch.setattr(presentation, "_generator_items", raised)
        clear_caches()
        lam, mu = Partition([2, 1]), Composition([1, 2])
        try:
            with pytest.raises(TruncationError) as err:
                build_quotient(lam, mu, "H")
            assert err.value.witness["family"] == "E"
            assert err.value.witness["lambda"] == [2, 1] and err.value.witness["mu"] == [1, 2]
        finally:
            clear_caches()

    def test_truncation_in_degree_zero(self, monkeypatch):
        # (2,2,2)/(1,2,3) has top_x = -1, so its window starts at degree 0,
        # which has no degree below to complete from; with no generator the
        # unit survives there
        monkeypatch.setattr(presentation, "_generator_items", lambda *args: [])
        clear_caches()
        try:
            with pytest.raises(TruncationError) as err:
                build_quotient(Partition([2, 2, 2]), Composition([1, 2, 3]), "H")
            assert err.value.witness == {
                "lambda": [2, 2, 2], "mu": [1, 2, 3], "family": "H", "degree": 0, "dimension": 1,
            }
        finally:
            clear_caches()

    def test_window_as_wide_as_second_largest_part(self, monkeypatch):
        # last-block lemma: the quotient is generated in degrees up to the
        # second-largest part m2 of mu, so it may vanish in one degree above
        # top_x and not in the next.  (2,2,1)/(2,2,1) has top_x = 0 and
        # m2 = 2; with the generators h_1(X_1) and h_1(X_3) alone, every
        # degree-1 invariant lies in the ideal and e_2(X_1) does not, which
        # a window of width 1 misses.  A changed generator bound cannot
        # give this ideal: it admits every r above the bound, so h_2(X_1)
        # comes with h_1(X_1)
        generators = [((1,), 1), ((3,), 1)]
        monkeypatch.setattr(presentation, "_generator_items", lambda *args: generators)
        clear_caches()
        try:
            with pytest.raises(TruncationError) as err:
                build_quotient(Partition([2, 2, 1]), Composition([2, 2, 1]), "H")
            assert err.value.witness == {
                "lambda": [2, 2, 1], "mu": [2, 2, 1], "family": "H", "degree": 4, "dimension": 1,
            }
        finally:
            clear_caches()


def _warm_rebuild(lam, mu, count):
    """The H quotient of (lam, mu), rebuilt on a warm ring, so that every
    apply_var call of the rebuild is a product of _build; count is the list
    that _count_calls fills."""
    clear_caches()
    build_quotient(lam, mu, "H")
    tableaux._LATEST.clear()
    count.clear()
    return build_quotient(lam, mu, "H")


class TestVanishingWindow:
    """Above top_x the build multiplies each pivot row by the variables at or
    above its mark only, stops each degree at the Hilbert cap, and completes
    P_t with the unmarked products where a family falls short (cap lemma in
    GradedQuotient._build)."""

    # every zero-free key with d <= 6 whose marked products and generators
    # fall short of the cap, with each x-degree where they do
    COMPLETED = (((5, 1), (1, 2, 1, 2), (10,)),)

    def test_completion_forms_each_product_once(self, monkeypatch):
        # in a completed degree every product x_v b, v < d, of the one
        # I_{t-1} that H and E share is formed exactly once: the marked
        # ones first, the unmarked ones by the one completion; both
        # families still equal the insertion oracle
        calls = _count_calls(monkeypatch, CoinvariantRing, "apply_var")
        for lam, mu, degrees in self.COMPLETED:
            lam, mu = Partition(lam), Composition(mu)
            qh = _warm_rebuild(lam, mu, calls)
            qe = build_quotient(lam, mu, "E")
            for t in degrees:
                assert t > qh.top_x
                below = qh.ideal_space(t - 1)
                assert qe.ideal_space(t - 1) is below
                formed = Counter((id(row), v) for _, row, v, r in calls if r == t - 1)
                rows = below.pivot_rows.values()
                assert formed == Counter((id(row), v) for row in rows for v in range(1, qh.d))
            TestTwinBuild._assert_insertion_oracle(qh)
            TestTwinBuild._assert_insertion_oracle(qe)
        clear_caches()

    def test_last_block_window_equals_largest_part_window_d6(self):
        # last-block lemma: on every zero-free key with d <= 6, in both
        # families, the insertion oracle grown through a window as wide as
        # the largest part of mu has the library's rows up to stop_x, and no
        # invariant quotient in any degree between stop_x and that window's
        # end
        clear_caches()
        keys = degrees = 0
        for lam, mu in iter_pairs(6):
            if 0 in mu.parts:
                continue
            for family in ("H", "E"):
                q = build_quotient(lam, mu, family)
                wide = WideWindow(q)
                assert [space.pivot_rows for space in wide.spaces[: q.stop_x + 1]] == [
                    q.ideal_space(t).pivot_rows for t in range(q.stop_x + 1)
                ], (lam, mu, family)
                qdims = qdim_by_invariant_rows(wide)
                assert not any(qdims[q.stop_x + 1 :]), (lam, mu, family, qdims)
                degrees += wide.stop_x - q.stop_x
            keys += 1
        assert (keys, degrees) == (356, 762)
        clear_caches()

    def test_window_products_pinned(self, monkeypatch):
        # (5,1)/(1,1,1,3) has top_x = 7 and, its second-largest part being
        # 1, stop_x = 8 (last-block lemma): all products below the window
        # take 285 calls, the marked ones of its one degree 158
        calls = _count_calls(monkeypatch, CoinvariantRing, "apply_var")
        q = _warm_rebuild(Partition([5, 1]), Composition([1, 1, 1, 3]), calls)
        assert (q.top_x, q.stop_x) == (7, 8)
        assert sum(1 for call in calls if call[3] < q.top_x) == 285
        assert len(calls) == 443
        TestTwinBuild._assert_insertion_oracle(q)
        clear_caches()


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
        for subset, r in generator_items(source.lam, source.mu, source.family, source.stop_x):
            row = ring.sym_classes(source.blocks.union(subset), kind)[r]
            if row and target.ideal_space(r).scaled_residual(row)[1]:
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
                            if a == b:
                                assert rel_equivalence(a, mu, qh=qh, qe=qe)
                                assert membership_equivalence(qh, qe)
                                continue
                            with pytest.raises(ValueError):
                                rel_equivalence(a, mu, qh=qh, qe=qe)
                            # the canonical spaces still tell the two
                            # ideals apart exactly as membership does
                            same = qh.stop_x == qe.stop_x and all(
                                qh.ideal_space(t) == qe.ideal_space(t)
                                for t in range(qh.stop_x + 1)
                            )
                            assert same == membership_equivalence(qh, qe)

    def test_equal_ranks_different_ideals(self):
        mu = Composition([1, 2, 3])
        qh = build_quotient(Partition([4, 1, 1]), mu, "H")
        qe = build_quotient(Partition([3, 3]), mu, "E")
        assert qh.stop_x == qe.stop_x and qh.hilbert == qe.hilbert
        for t in range(qh.stop_x + 1):
            assert qh.ideal_space(t).rank == qe.ideal_space(t).rank
        assert any(qh.ideal_space(t) != qe.ideal_space(t) for t in range(qh.stop_x + 1))
        assert not membership_equivalence(qh, qe)
        with pytest.raises(ValueError):
            rel_equivalence(Partition([4, 1, 1]), mu, qh=qh, qe=qe)

    def test_stop_degrees_differ(self):
        # quotients of two keys, with different stop degrees, are refused
        # in either order
        mu = Composition([1, 1, 4])
        qh = build_quotient(Partition([3, 3]), mu, "H")
        qe = build_quotient(Partition([3, 2, 1]), mu, "E")
        assert qh.stop_x > qe.stop_x
        with pytest.raises(ValueError):
            rel_equivalence(Partition([3, 3]), mu, qh=qh, qe=qe)
        with pytest.raises(ValueError):
            rel_equivalence(Partition([3, 2, 1]), mu, qh=qe, qe=qh)

    def test_quotients_of_another_family_or_key_are_rejected(self):
        lam, mu = Partition([2, 1]), Composition([1, 2])
        qh, qe = build_quotient(lam, mu, "H"), build_quotient(lam, mu, "E")
        with pytest.raises(ValueError):
            rel_equivalence(lam, mu, qh=qh, qe=qh)
        with pytest.raises(ValueError):
            rel_equivalence(lam, mu, qh=qe, qe=qe)
        other = Partition([3]), Composition([3])
        with pytest.raises(ValueError):
            rel_equivalence(lam, mu, qh=build_quotient(*other, "H"), qe=build_quotient(*other, "E"))
        # another pair of the same zero-free key is accepted
        assert rel_equivalence(lam, Composition([0, 1, 2]), qh=qh, qe=qe)


def kernel_matches(q, reg, eps, e, t):
    """The kernel check of the transfer in degree t: the three ranks of
    _transfer_ranks all equal the quotient dimension."""
    ranks = presentation._transfer_ranks(q.ring, q, reg, eps, e, t)
    return set(ranks) == {q.hilbert.coefficient(2 * t)}


def kernel_match_oracle(q, reg, eps, e, t):
    """Oracle for the kernel check of _transfer_ranks: the combinations of the
    invariant rows whose product with eps lies in the degree-(t + e)
    regular ideal, and those that lie in the block ideal, each found by
    Fraction Gauss-Jordan and kernel_basis and compared as spans of dense
    classes.  Where reg has no ideal space, its quotient is zero."""
    ring, width = q.ring, q.ring.dim(t)
    inv = [dense(row, width)
           for row in invariant_rows(ring, BlockStructure(q.mu).transpositions(), t)]

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
        # of equal dimension that differ); up to a window as wide as the
        # largest part of mu, the insertion oracle's spaces above stop_x
        outcomes = []
        for lam, mu in iter_pairs(4):
            q = WideWindow(build_quotient(lam, mu))
            ring, reg = q.ring, regular_quotient(lam, mu.size())
            blocks = BlockStructure(mu)
            pairs = [p for j in range(1, len(mu) + 1) for p in combinations(blocks.block(j), 2)]
            eps, e = ring.antisymmetrizer_class(pairs)
            power = ring.unit()
            for r in range(e):
                power = ring.apply_var(power, mu.size(), r)
            wrong = ((ring.apply_var(eps, 1, e), e + 1), (ring.unit(), 0), (power, e))
            for t in range(q.stop_x + 1):
                assert kernel_matches(q, reg, eps, e, t)
                assert kernel_match_oracle(q, reg, eps, e, t)
                for mult, deg in wrong:
                    got = kernel_matches(q, reg, mult, deg, t)
                    assert got == kernel_match_oracle(q, reg, mult, deg, t)
                    outcomes.append(got)
        assert (outcomes.count(True), outcomes.count(False)) == (2836, 695)

    def test_kernel_check_rejects_full_block_ideal_d5(self, monkeypatch):
        # a block ideal replaced by the full space in a degree where the
        # quotient is non-zero leaves phi and (phi, psi) of one rank, so
        # only rank psi, which drops to 0, can tell; the transfer, handed
        # the mutant (its regular quotient is cached), must raise
        mutants = 0
        for lam, mu in iter_pairs(5):
            if 0 in mu.parts:
                continue
            q = build_quotient(lam, mu)
            ring, reg = q.ring, regular_quotient(lam, mu.size())
            pairs = [p for j in range(1, len(mu) + 1) for p in combinations(q.blocks.block(j), 2)]
            eps, e = ring.antisymmetrizer_class(pairs)
            for t in range(1, q.stop_x + 1):
                if not q.hilbert.coefficient(2 * t):
                    continue
                full = RowSpace(ring.dim(t))
                full.extend({c: 1} for c in range(ring.dim(t)))
                mutant = copy(q)
                mutant._ideal = {**q._ideal, t: full}
                assert kernel_matches(q, reg, eps, e, t)
                assert not kernel_matches(mutant, reg, eps, e, t)
                with monkeypatch.context() as patch:
                    patch.setattr(presentation, "build_quotient", lambda *args: mutant)
                    with pytest.raises(presentation.TransferError, match="wrong kernel"):
                        presentation._transfer_data(lam, mu, mu.size())
                mutants += 1
        assert mutants == 264

    def test_anti_dims_match_equation_oracle_d6(self):
        # rank phi of the one isotypic pass against the (s + 1)v equation
        # system, for every lam, transposition set and degree that a
        # transfer with d <= 6 reaches
        clear_caches()
        cases = set()
        for lam, mu in iter_pairs(6):
            report = anti_invariant_transfer(lam, mu)
            ring, reg = get_ring(mu.size()), regular_quotient(lam, mu.size())
            transpositions = tuple(BlockStructure(mu).transpositions())
            for degree, a_dim in zip(report.degrees, report.anti_dims):
                case = (lam, transpositions, (degree + report.shift) // 2)
                if case not in cases:
                    assert a_dim == anti_invariant_dim_by_equations(ring, reg, *case[1:]), case
                    cases.add(case)
        assert len(cases) == 1813

    def test_core_built_once_with_structure_constants(self, monkeypatch):
        # the regular core is kept in _KEYS, not in the slot of
        # tableaux.shared, so the pair's cores are still in the slot when
        # structure_constants certifies the pair, whichever quotient the
        # transfer asks for first
        real = presentation.GradedQuotient._build
        builds = []

        def counting(self):
            builds.append(self.mu)
            return real(self)

        clear_caches()
        monkeypatch.setattr(presentation.GradedQuotient, "_build", counting)
        lam, mu = Partition([3, 1]), Composition([1, 2, 1])
        anti_invariant_transfer(lam, mu)
        structure_constants(lam, mu)
        assert builds.count(mu) == 1

    def test_regular_core_built_once_per_lambda_d4(self, monkeypatch):
        # regular_quotient asks for the padded pair (lam, 1^d 0): its core
        # is built once per (d, lam), by that pair, kept in _KEYS, and no
        # regular key ever takes the slot of "cores"
        clear_caches()
        builds = _count_calls(monkeypatch, presentation.GradedQuotient, "_build")
        expected = set()
        for lam, mu in iter_pairs(4):
            anti_invariant_transfer(lam, mu)
            expected.add((lam.parts, (1,) * mu.size()))
            latest = tableaux._LATEST.get("cores")
            assert latest is None or set(latest[0][1]) != {1}, (lam, mu)
        regular = Counter(
            (zero_free_key(q.lam, q.mu), q.mu.parts[-1:])
            for (q,) in builds if set(q.mu.parts) <= {0, 1}
        )
        assert regular == {(key, (0,)): 1 for key in expected}
        assert {(key, "cores") for key in expected} <= set(tableaux._KEYS)

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
            assert a == b == q.hilbert.coefficient(degree)

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
        structure_constants(lam, mu),
    )


def _module_tables():
    """Every module-level mapping of the spaltenstein modules, by (module,
    name)."""
    return {
        (name, attr): value
        for name, module in list(sys.modules.items())
        if name == "spaltenstein" or name.startswith("spaltenstein.")
        for attr, value in vars(module).items()
        if isinstance(value, MutableMapping) and not attr.startswith("__")
    }


def _count_calls(monkeypatch, owner, name):
    """The list of the argument tuples of every later call of owner.name,
    which still runs."""
    real, calls = getattr(owner, name), []

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


class TestSharedCore:
    def test_shared_build_equals_cold_build_d5(self):
        pairs = list(iter_pairs(5))
        cold = {}
        for lam, mu in pairs:
            clear_caches()
            cold[lam, mu] = _pipeline_record(lam, mu)
        padded_keys = {zero_free_key(lam, mu) for lam, mu in pairs if 0 in mu.parts}
        regular_keys = {(lam.parts, (1,) * mu.size()) for lam, mu in pairs}
        # iter_pairs lists each zero-free pair before the padded pairs of its
        # key, so the reversed list builds a padded pair first; the first
        # pair of a key computes its transfer report and tensor, later pairs
        # get them rebuilt and unpacked from the table
        for order in (pairs, pairs[::-1]):
            clear_caches()
            for lam, mu in order:
                assert _pipeline_record(lam, mu) == cold[lam, mu], (lam, mu)
            # every pair certifies, transfers and multiplies against its H
            # quotient and none against E, a padded pair that reads its
            # certificate from the slot reads no chains
            # (oracles.keys_chained_by_padded_pairs), and every transfer
            # keeps the regular core of its (d, lam)
            kinds = ("enumerate", "cores", ("certificate", "H"), "transfer", "tensor")
            assert set(tableaux._KEYS) == {
                (key, kind) for key in padded_keys for kind in kinds
            } | {(key, "chains") for key in keys_chained_by_padded_pairs(order)} | {
                (key, "cores") for key in regular_keys
            }

    def test_padded_pairs_share_one_core_and_certificate(self):
        clear_caches()
        lam = Partition([2, 1])
        a, b = Composition([1, 0, 2]), Composition([0, 1, 2, 0])
        qa, qb = build_quotient(lam, a), build_quotient(lam, b)
        assert qa.hilbert is qb.hilbert and qa.ideal_space(1) is qb.ideal_space(1)
        ca, cb = certify_basis(lam, a, quotient=qa), certify_basis(lam, b, quotient=qb)
        assert ca.classes is cb.classes and ca.tableaux != cb.tableaux
        # the other family of the key keeps qa's space where the two ideals
        # agree (shared products in GradedQuotient._build); a different
        # non-zero part order is a different key
        assert build_quotient(lam, a, "E").ideal_space(1) is qa.ideal_space(1)
        assert build_quotient(lam, Composition([2, 0, 1])).ideal_space(1) is not qa.ideal_space(1)

    def test_zero_free_pairs_store_nothing(self):
        # nothing in _KEYS but the regular cores that the transfers keep
        # there, and the slot holds one value per kind, each of the last
        # zero-free pair
        clear_caches()
        regular_keys = set()
        for lam, mu in iter_pairs(4):
            if 0 not in mu.parts:
                qh = build_quotient(lam, mu, "H")
                build_quotient(lam, mu, "E")
                certify_basis(lam, mu, quotient=qh)
                anti_invariant_transfer(lam, mu)
                structure_constants(lam, mu)
                enumerate_column_strict(lam, mu)
                betti(lam, mu)
                components(lam, mu)
                kept = {kind: key for kind, (key, _) in tableaux._LATEST.items()}
                if all(p == 1 for p in mu.parts):
                    # a regular pair whose (d, lam) a transfer met before
                    # reads its cores from _KEYS, and leaves the slot as is
                    kept.pop("cores", None)
                assert set(kept.values()) == {zero_free_key(lam, mu)}
                regular_keys.add((lam.parts, (1,) * mu.size()))
        assert set(tableaux._KEYS) == {(key, "cores") for key in regular_keys}
        assert set(tableaux._LATEST) == {
            "enumerate", "chains", "betti", "components",
            "cores", ("certificate", "H"), "transfer", "tensor",
        }

    def test_zero_free_pair_reads_the_padded_pairs_values(self, monkeypatch):
        # one read path: the zero-free pair finds the key's cores and
        # certificate data in _KEYS, where its padded pair kept them
        clear_caches()
        builds = _count_calls(monkeypatch, presentation.GradedQuotient, "_build")
        certs = _count_calls(monkeypatch, presentation, "_certificate_data")
        lam = Partition([2, 1])
        for mu in (Composition([1, 0, 2]), Composition([1, 2])):
            certify_basis(lam, mu, quotient=build_quotient(lam, mu))
        assert (len(builds), len(certs)) == (1, 1)

    def test_padded_pair_reads_the_slot(self, monkeypatch):
        # the padded pair finds the cores of its zero-free pair in the slot
        # and keeps that same object in _KEYS
        clear_caches()
        builds = _count_calls(monkeypatch, presentation.GradedQuotient, "_build")
        lam, mu = Partition([2, 1]), Composition([1, 0, 2])
        build_quotient(lam, Composition([1, 2]))
        build_quotient(lam, mu)
        assert len(builds) == 1
        assert tableaux._KEYS[zero_free_key(lam, mu), "cores"] is tableaux._LATEST["cores"][1]

    def test_transfer_hit_builds_nothing(self, monkeypatch):
        # a kept key: one validation, one lookup, no quotient asked for
        clear_caches()
        lam = Partition([2, 1])
        first = anti_invariant_transfer(lam, Composition([1, 0, 2]))
        calls = [
            _count_calls(monkeypatch, presentation, name)
            for name in ("build_quotient", "regular_quotient", "_validate_pair")
        ]
        report = anti_invariant_transfer(lam, Composition([0, 1, 2]))
        assert [len(c) for c in calls] == [0, 0, 1]
        assert report.to_json() == {**first.to_json(), "mu": [0, 1, 2]}

    def test_padded_pair_reads_a_kept_key_cheaply(self, monkeypatch):
        # after one cold op on the zero-free pair, a padded pair of its key
        # pays only for what it gets back: certify_basis relabels nothing,
        # its tableaux relabel each filling once, on first read, and
        # rel_equivalence validates the pair once
        clear_caches()
        lam, key_mu = Partition([3, 2, 1]), Composition([1, 2, 2, 1])
        qh = build_quotient(lam, key_mu, "H")
        certify_basis(lam, key_mu, quotient=qh)
        assert rel_equivalence(lam, key_mu, qh=qh, qe=build_quotient(lam, key_mu, "E"))
        betti(lam, key_mu)
        components(lam, key_mu)
        relabelled, real = [], tableaux._relabelling

        def counting(mu):
            relabel = real(mu)

            def relabel_counted(T):
                relabelled.append(T)
                return relabel(T)

            return relabel_counted

        for module in (tableaux, presentation):
            monkeypatch.setattr(module, "_relabelling", counting)
        validations = _count_calls(monkeypatch, presentation, "_validate_pair")
        mu = Composition([1, 0, 2, 2, 1])
        qh = build_quotient(lam, mu, "H")
        cert = certify_basis(lam, mu, quotient=qh)
        qe = build_quotient(lam, mu, "E")
        assert relabelled == []
        validations.clear()
        assert rel_equivalence(lam, mu, qh=qh, qe=qe)
        assert len(validations) == 1
        fillings = tableaux._key_fillings(lam, mu)
        first = cert.tableaux
        assert len(relabelled) == len(fillings) > 1
        assert all(a is b for a, b in zip(relabelled, fillings))
        assert cert.tableaux is first and len(relabelled) == len(fillings)
        assert cert.size() == len(first)
        monkeypatch.undo()
        assert first == enumerate_column_strict(lam, mu) != list(fillings)

    def test_kept_key_read_checks_no_sizes(self, monkeypatch):
        # every pair of a kept key has |lam| = |mu|, so _key_fillings checks
        # sizes in its search only; a pair of mismatched sizes has a key
        # that is never kept, and its search still raises
        clear_caches()
        lam = Partition([3, 2, 1])
        tableaux._key_fillings(lam, Composition([1, 2, 2, 1]))
        sizes = _count_calls(monkeypatch, tableaux, "_check_sizes")
        for mu in (Composition([1, 2, 2, 1]), Composition([1, 0, 2, 2, 1])):
            tableaux._key_fillings(lam, mu)
        assert sizes == []
        with pytest.raises(ValueError, match=r"^\|lambda\|=6 and \|mu\|=5 differ$"):
            tableaux._key_fillings(lam, Composition([1, 2, 2]))
        assert len(sizes) == 1
        clear_caches()

    def test_space_equals_itself_without_reading_a_row(self):
        class Unreadable(RowSpace):
            __slots__ = ()

            @property
            def pivot_rows(self):
                raise AssertionError("a row was read")

        space = Unreadable.__new__(Unreadable)
        space.width = 3
        assert space == space and not space != space
        # E keeps H's object in every degree of this key (shared products
        # in GradedQuotient._build), so rel_equivalence reads no row
        lam, mu = Partition([3, 2, 1]), Composition([1, 0, 2, 2, 1])
        qh, qe = build_quotient(lam, mu, "H"), build_quotient(lam, mu, "E")
        assert all(qe.ideal_space(t) is qh.ideal_space(t) for t in range(qh.stop_x + 1))

    def test_zero_free_key_once_per_composition(self):
        # the non-zero parts are set when the Composition is built, the key
        # reads that one tuple, and the slot takes no part in equality,
        # hashing or pickling
        lam, mu = Partition([3, 2, 1]), Composition([1, 0, 2, 2, 1])
        assert mu._nonzero == (1, 2, 2, 1)
        key = zero_free_key(lam, mu)
        assert key == ((3, 2, 1), (1, 2, 2, 1))
        assert zero_free_key(lam, mu)[1] is key[1] is mu._nonzero
        fresh = Composition([1, 0, 2, 2, 1])
        assert fresh == mu and hash(fresh) == hash(mu)
        assert pickle.loads(pickle.dumps(mu))._nonzero == mu._nonzero
        assert Composition([0, 0])._nonzero == ()
        assert zero_free_key(Partition([2]), Composition([0, 2, 0])) == ((2,), (2,))

    def test_unknown_family_is_rejected(self):
        clear_caches()
        for lam, mu in ((Partition(()), Composition(())), (Partition([1]), Composition([1, 0]))):
            with pytest.raises(ValueError, match="unknown family"):
                build_quotient(lam, mu, "X")
        assert not tableaux._KEYS

    def test_quotient_of_another_key_is_rejected(self):
        lam, mu = Partition([2, 1]), Composition([1, 2])
        with pytest.raises(ValueError):
            certify_basis(lam, mu, quotient=build_quotient(lam, Composition([2, 1])))
        with pytest.raises(ValueError):
            certify_basis(lam, mu, quotient=build_quotient(Partition([3]), mu))

    def test_invalid_pair_of_a_valid_key_is_rejected(self):
        # (1,1,1)/(3,0) has more lam parts than mu parts; (1,1,1)/(3,0,0)
        # is valid and has the same zero-free key
        lam, mu, padded = Partition([1, 1, 1]), Composition([3, 0]), Composition([3, 0, 0])
        qh, qe = build_quotient(lam, padded, "H"), build_quotient(lam, padded, "E")
        with pytest.raises(ValueError):
            certify_basis(lam, mu, quotient=qh)
        with pytest.raises(ValueError):
            rel_equivalence(lam, mu, qh=qh, qe=qe)

    def test_quotient_of_the_zero_free_pair_is_accepted(self):
        lam, mu = Partition([2, 1]), Composition([1, 0, 2])
        clear_caches()
        q = build_quotient(lam, Composition([1, 2]))
        cert = certify_basis(lam, mu, quotient=q)
        assert cert.quotient is q
        assert set(tableaux._KEYS) == {(zero_free_key(lam, mu), kind) for kind in (
            "enumerate", "chains", ("certificate", "H"))}
        clear_caches()
        cold = certify_basis(lam, mu)
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
        entry = (zero_free_key(lam, mu), "transfer")
        clear_caches()
        cold = anti_invariant_transfer(lam, other).to_json()
        clear_caches()
        monkeypatch.setattr(presentation, "_transfer_ranks", lambda *args: (-1, -1, -1))
        with pytest.raises(presentation.TransferError):
            anti_invariant_transfer(lam, mu)
        assert entry not in tableaux._KEYS
        monkeypatch.undo()
        assert anti_invariant_transfer(lam, other).to_json() == cold
        assert entry in tableaux._KEYS

    def test_shared_count_mismatch_raises(self):
        clear_caches()
        lam, mu = Partition([2, 1]), Composition([1, 0, 2])
        certify_basis(lam, mu)
        entry = (zero_free_key(lam, mu), ("certificate", "H"))
        degrees, classes, spaces = tableaux._KEYS[entry]
        tableaux._KEYS[entry] = (degrees[:-1], classes, spaces)
        try:
            with pytest.raises(BasisError):
                certify_basis(lam, Composition([0, 1, 2]))
        finally:
            clear_caches()


class TestClearCaches:
    def test_tables_empty_and_rebuild_equal(self):
        # every module-level mapping that a pipeline run grows is a cache,
        # and clear_caches must empty it; a padded pair fills _KEYS and a
        # zero-free pair of another key the slot _LATEST
        lam = Partition([2, 1])
        pairs = [(lam, Composition([1, 0, 2])), (lam, Composition([2, 1]))]
        clear_caches()
        sizes = {name: len(table) for name, table in _module_tables().items()}
        before = [_pipeline_record(lam, mu) for lam, mu in pairs]
        grown = [name for name, table in _module_tables().items() if len(table) > sizes.get(name, 0)]
        assert {attr for _, attr in grown} >= {"_RINGS", "_KEYS", "_LATEST"}
        clear_caches()
        tables = _module_tables()
        assert [name for name in grown if tables[name]] == []
        assert [_pipeline_record(lam, mu) for lam, mu in pairs] == before
