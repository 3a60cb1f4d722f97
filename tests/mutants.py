"""Mutation catalogue: shortcuts of the library, each broken on purpose,
with the tests that must catch it.

Every entry names the lemma of the library's docstrings that its
shortcut rests on (`lemma`), a file under src/spaltenstein/, an exact
snippet `old` that occurs once in it, the text `new` that replaces it,
and the pytest node ids that must fail on the mutated copy.  A lemma
with no mutable shortcut behind it gets an entry with an empty `old`,
no node ids and a `reason`, so the gap stays in sight.  A change that
adds or replaces a shortcut adds its mutants here.

    python tests/mutants.py [ids]

runs the named mutants, or all, two at a time (JOBS): for each it copies
src/ into a temporary directory, applies the mutant there and runs only
its node ids with PYTHONPATH pointing at the copy.  Hypothesis runs there
with no example database and no shrinking (the plugin PROFILE), so a
property test that kills a mutant stops at its first failing example.  A
mutant is killed when pytest exits 1 and every named node id fails; exit
codes 2-5 are errors.  It prints one line per mutant with its time, in
catalogue order, and one per gap with its reason, and exits 1 if any
mutant survives or errors.  tests/test_mutants.py checks the catalogue
against the code without running it.
"""

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
JOBS = 2

# a pytest plugin, loaded from the mutated copy before any test module
PROFILE = """from hypothesis import Phase, settings

settings.register_profile(
    "mutants", database=None, phases=(Phase.explicit, Phase.reuse, Phase.generate)
)
settings.load_profile("mutants")
"""

MUTANTS = [
    {
        "id": "shared-slot-any-key",
        "lemma": "read",
        "file": "tableaux.py",
        "old": "value = latest[1] if latest is not None and latest[0] == key else compute()",
        "new": "value = latest[1] if latest is not None else compute()",
        "kills": [
            "tests/test_presentation.py::TestSharedCore::test_shared_build_equals_cold_build_d5",
            "tests/test_pinned.py::test_outputs_pinned_d4",
        ],
    },
    {
        "id": "shared-zero-free-writes-keys",
        "lemma": "read",
        "file": "tableaux.py",
        "old": (
            "        if 0 in mu.parts:\n"
            "            _KEYS[key, kind] = value\n"
            "        else:\n"
            "            _LATEST[kind] = (key, value)\n"
        ),
        "new": (
            "        _KEYS[key, kind] = value\n"
            "        if 0 not in mu.parts:\n"
            "            _LATEST[kind] = (key, value)\n"
        ),
        "kills": [
            "tests/test_presentation.py::TestSharedCore::test_zero_free_pairs_store_nothing",
        ],
    },
    {
        "id": "key-sorts-parts",
        "lemma": "zero-block",
        "file": "tableaux.py",
        "old": "tuple(p for p in parts if p)",
        "new": "tuple(sorted(p for p in parts if p))",
        "kills": [
            "tests/test_presentation.py::TestSharedCore::test_padded_pairs_share_one_core_and_certificate",
            "tests/test_pinned.py::test_outputs_pinned_d4",
        ],
    },
    {
        "id": "clear-caches-keeps-slot",
        "lemma": "read",
        "file": "presentation.py",
        "old": "for cache in (_RINGS, _KEYS, _LATEST):",
        "new": "for cache in (_RINGS, _KEYS):",
        "kills": [
            "tests/test_presentation.py::TestClearCaches::test_tables_empty_and_rebuild_equal",
        ],
    },
    {
        "id": "products-shared-across-ideals",
        "lemma": "shared products",
        "file": "presentation.py",
        "old": "entry = next((e for e in spans if e[0] is below), None)",
        "new": "entry = next(iter(spans), None)",
        "kills": [
            "tests/test_presentation.py::TestTwinBuild::test_divergent_families_equal_cold_builds",
        ],
    },
    {
        "id": "e-extends-h-ideal",
        "lemma": "shared products",
        "file": "presentation.py",
        "old": "cap = caps[family]\n                space, space_marks = _with_generators(span,",
        "new": (
            "cap = caps[family]\n                space, space_marks = _with_generators("
            'ideals["H"][t] if family == "E" else span,'
        ),
        "kills": [
            "tests/test_presentation.py::TestTwinBuild::test_divergent_families_equal_cold_builds",
        ],
    },
    {
        "id": "window-cap-one-low",
        "lemma": "cap",
        "file": "presentation.py",
        "old": "caps = ceilings if window else dict.fromkeys(ceilings, full)",
        "new": (
            "caps = {f: c - 1 for f, c in ceilings.items()} if window "
            "else dict.fromkeys(ceilings, full)"
        ),
        "kills": [
            "tests/test_presentation.py::TestTwinBuild::test_seeded_builds_equal_insertion_oracle_d6",
            "tests/test_presentation.py::TestVanishingWindow::test_window_products_pinned",
            "tests/test_pinned.py::test_outputs_pinned_d4",
            "tests/test_two_row.py::test_regular_ideal_is_squares_and_degree_cut",
            "tests/test_two_row.py::test_hilbert_series_is_anti_invariant_dimension",
        ],
    },
    {
        "id": "last-block-largest-part",
        "lemma": "last-block",
        "file": "presentation.py",
        "old": "m2 = max([1, *sorted(self.mu.parts)[-2:-1]])",
        "new": "m2 = max([1, *sorted(self.mu.parts)[-1:]])",
        "kills": [
            "tests/test_presentation.py::TestVanishingWindow::test_window_products_pinned",
            "tests/test_presentation.py::TestVanishingWindow::"
            "test_last_block_window_equals_largest_part_window_d6",
        ],
    },
    {
        "id": "last-block-width-zero",
        "lemma": "last-block",
        "file": "presentation.py",
        "old": "stop_x = min(ring.top, first_above + m2 - 1)",
        "new": "stop_x = min(ring.top, first_above - 1)",
        "kills": [
            "tests/test_presentation.py::TestTwinBuild::test_truncation_witness_names_the_family",
        ],
    },
    {
        "id": "last-block-third-part",
        "lemma": "last-block",
        "file": "presentation.py",
        "old": "m2 = max([1, *sorted(self.mu.parts)[-2:-1]])",
        "new": "m2 = max([1, *sorted(self.mu.parts)[-3:-2]])",
        "kills": [
            "tests/test_presentation.py::TestTwinBuild::test_window_as_wide_as_second_largest_part",
        ],
    },
    {
        "id": "window-completion-skipped",
        "lemma": "cap",
        "file": "presentation.py",
        "old": "if space.rank < cap and not complete:",
        "new": "if False:",
        "kills": [
            "tests/test_presentation.py::TestVanishingWindow::test_completion_forms_each_product_once",
            "tests/test_presentation.py::TestTwinBuild::test_seeded_builds_equal_insertion_oracle_d6",
        ],
    },
    {
        "id": "window-marks-ignored",
        "lemma": "cap",
        "file": "presentation.py",
        "old": "lows = marks[family].get(t - 1) if window else {}",
        "new": "lows = {}",
        "kills": [
            "tests/test_presentation.py::TestVanishingWindow::test_window_products_pinned",
        ],
    },
    {
        "id": "poincare-q-integer",
        "lemma": "hilbert",
        "file": "presentation.py",
        "old": "for i in range(2, m + 1):",
        "new": "for i in range(max(m, 2), m + 1):",
        "kills": [
            "tests/test_presentation.py::TestQuotientDimension::test_poincare_polynomial",
            "tests/test_presentation.py::TestQuotient::test_total_matches_tableau_count",
            "tests/test_reports.py::TestSpringerMultiplicities::test_back_substitution_matches_charge_d6",
        ],
    },
    {
        "id": "h-class-reads-e-table",
        "lemma": "product",
        "file": "presentation.py",
        "old": 'ring.sym_classes(vars_, "h")[s]',
        "new": 'ring.sym_classes(vars_, "e")[s]',
        "kills": [
            "tests/test_presentation.py::TestStructureConstants::test_tensors_pinned_d4",
            "tests/test_pinned.py::test_outputs_pinned_d4",
        ],
    },
    {
        "id": "kernel-check-drops-psi-rank",
        "lemma": "rank",
        "file": "presentation.py",
        "old": "if not a_dim == psi == both:",
        "new": "if not a_dim == both:",
        "kills": [
            "tests/test_presentation.py::TestTransfer::test_kernel_check_rejects_full_block_ideal_d5",
        ],
    },
    {
        "id": "phi-drops-eps",
        "lemma": "eps",
        "file": "presentation.py",
        "old": "prod = ring.mul_classes(row, t, eps_vec, d_mu)",
        "new": "prod = row",
        "kills": [
            "tests/test_presentation.py::TestTransfer::test_anti_dims_match_equation_oracle_d6",
            "tests/test_pinned.py::test_transfer_reports_pinned_d5",
        ],
    },
    {
        "id": "coordinates-reversed",
        "lemma": "unit",
        "file": "presentation.py",
        "old": "for pos, idx in enumerate(indices)\n            if width + pos in res",
        "new": "for pos, idx in enumerate(indices[::-1])\n            if width + pos in res",
        "kills": [
            "tests/test_hilbert_oracle.py::test_groebner_structure_constants_d4",
            "tests/test_hilbert_oracle.py::test_groebner_normal_form_d4",
            "tests/test_presentation.py::TestStructureConstants::test_tensors_pinned_d4",
        ],
    },
    {
        "id": "cell-leq-strict",
        "lemma": "containment",
        "file": "tableaux.py",
        "old": "return all(c <= cp for c, cp in zip(level, levelp))",
        "new": "return all(c < cp for c, cp in zip(level, levelp))",
        "kills": [
            "tests/test_tableaux.py::TestReductionChain::test_cell_order_matches_oracle_d4",
        ],
    },
    {
        "id": "key-chains-reversed",
        "lemma": "relabelling",
        "file": "tableaux.py",
        "old": "[chain for _, chain, _ in fillings],",
        "new": "[chain for _, chain, _ in fillings][::-1],",
        "kills": [
            "tests/test_tableaux.py::TestReductionChain::test_kept_chains_are_each_pairs_own_d6",
            "tests/test_presentation.py::TestDependencyWitness::test_fabricated_dependency_yields_combination",
            "tests/test_pinned.py::test_outputs_pinned_d4",
        ],
    },
    {
        "id": "key-chains-padded-parts",
        "lemma": "relabelling",
        "file": "tableaux.py",
        "old": "_label_steps(top, zero_free_key(lam, mu)[1])",
        "new": "_label_steps(top, mu.parts)",
        "kills": [
            "tests/test_tableaux.py::TestReductionChain::test_kept_chains_are_each_pairs_own_d6",
            "tests/test_presentation.py::TestSharedCore::test_shared_build_equals_cold_build_d5",
        ],
    },
    {
        "id": "h-class-padded-parts",
        "lemma": "relabelling",
        "file": "presentation.py",
        "old": "vec, t = _h_class_chain(ring, chain, key_mu, memo)",
        "new": "vec, t = _h_class_chain(ring, chain, mu, memo)",
        "kills": [
            "tests/test_presentation.py::TestSharedCore::test_shared_build_equals_cold_build_d5",
            "tests/test_pinned.py::test_outputs_pinned_d4",
        ],
    },
    {
        "id": "product-key-one-variable-blocks",
        "lemma": "product",
        "file": "presentation.py",
        "old": "slot, power = ((m, 0), c - i) if k == 1 else ((m, c - i), 1)",
        "new": "slot, power = (m, 0), c - i",
        "kills": [
            "tests/test_presentation.py::TestStructureConstants::test_tensors_pinned_d4",
            "tests/test_presentation.py::TestStructureConstants::test_tensor_equals_all_products_oracle_d5",
            "tests/test_hilbert_oracle.py::test_groebner_structure_constants_d4",
        ],
    },
    {
        "id": "product-key-elementwise-max",
        "lemma": "product",
        "file": "presentation.py",
        "old": "code = code_i + codes[j]",
        "new": "code = (i, max(code_i, codes[j]))",
        "kills": [
            "tests/test_presentation.py::TestStructureConstants::test_unit_acts_as_identity",
            "tests/test_presentation.py::TestStructureConstants::test_tensor_equals_all_products_oracle_d5",
        ],
    },
    {
        "id": "unit-hit-next-element",
        "lemma": "unit",
        "file": "presentation.py",
        "old": "entry = {basis[code]: 1}",
        "new": "entry = {basis[code] + 1: 1}",
        "kills": [
            "tests/test_presentation.py::TestStructureConstants::test_unit_acts_as_identity",
            "tests/test_presentation.py::TestStructureConstants::test_basis_hit_forms_no_product",
            "tests/test_presentation.py::TestStructureConstants::test_tensor_equals_all_products_oracle_d5",
        ],
    },
    {
        "id": "vanishing-skip-at-top-x",
        "lemma": "product",
        "file": "presentation.py",
        "old": "if t > stop_x:",
        "new": "if t > quotient.top_x:",
        "kills": [
            "tests/test_presentation.py::TestStructureConstants::test_each_distinct_product_formed_once",
        ],
    },
    {
        "id": "code-radix-carries",
        "lemma": "product",
        "file": "presentation.py",
        "old": "radix = 2 * max(",
        "new": "radix = max(",
        "kills": [
            "tests/test_presentation.py::TestStructureConstants::test_tensor_equals_all_products_oracle_d5",
        ],
    },
    {
        "id": "projection-counts-psi-column",
        "lemma": "projection",
        "file": "presentation.py",
        "old": "for c in joint.pivot_rows if c < width)",
        "new": "for c in joint.pivot_rows if c <= width)",
        "kills": [
            "tests/test_presentation.py::TestTransfer::test_kernel_check_matches_combination_oracle_d4",
        ],
    },
    {
        "id": "product-key-no-one-variable-slot",
        "lemma": "product",
        "file": "presentation.py",
        "old": "if k == 1 else ((m, c - i), 1)",
        "new": "if k == 0 else ((m, c - i), 1)",
        "kills": [
            "tests/test_presentation.py::TestStructureConstants::test_each_distinct_product_formed_once",
        ],
    },
    {
        "id": "enumerate-skips-relabel",
        "lemma": "relabelling",
        "file": "tableaux.py",
        "old": "return [relabel(T) for T in _key_fillings(lam, mu)]",
        "new": "return list(_key_fillings(lam, mu))",
        "kills": [
            "tests/test_reports.py::TestSharedTableaux::test_padded_pairs_relabel_the_key",
            "tests/test_reports.py::TestSharedTableaux::test_shared_equals_cold_d5",
            "tests/test_pinned.py::test_outputs_pinned_d4",
        ],
    },
    {
        "id": "core-keeps-d-lambda-as-top-x",
        "lemma": "zero-block",
        "file": "presentation.py",
        "old": "HilbertSeries(qdims[f][:top]), top_x, d_mu)",
        "new": "HilbertSeries(qdims[f][:top]), d_lam, d_mu)",
        "kills": [
            "tests/test_presentation.py::TestSharedCore::test_core_top_x_and_d_mu_match_dims_d6",
            "tests/test_presentation.py::TestSharedCore::test_kept_key_answers_at_the_cost_of_its_lookups",
        ],
    },
    {
        "id": "nonzero-memo-keeps-zeros",
        "lemma": "zero-block",
        "file": "tableaux.py",
        "old": '"_nonzero", tuple(p for p in parts if p)',
        "new": '"_nonzero", parts',
        "kills": [
            "tests/test_presentation.py::TestSharedCore::test_zero_free_key_once_per_composition",
            "tests/test_presentation.py::TestSharedCore::test_shared_build_equals_cold_build_d5",
        ],
    },
    {
        "id": "unit-pivot-by-entry",
        "lemma": "unit-pivot",
        "file": "linalg.py",
        "old": "if len(p) == 1:\n                units += 1",
        "new": "if p[c] == 1:\n                units += 1",
        "kills": [
            "tests/test_linalg.py::TestUnitPivots::test_unit_pivot_path",
            "tests/test_linalg.py::TestUnitPivots::test_mixed_pivots_match_fraction_oracle",
            "tests/test_two_row.py::test_regular_ideal_is_squares_and_degree_cut",
            "tests/test_two_row.py::test_hilbert_series_is_anti_invariant_dimension",
        ],
    },
    {
        "id": "row-space-eq-by-width",
        "lemma": "order",
        "file": "linalg.py",
        "old": "if other is self:",
        "new": "if other is self or isinstance(other, RowSpace) and self.width == other.width:",
        "kills": [
            "tests/test_linalg.py::TestRowSpace::test_equality_of_spans",
            "tests/test_presentation.py::TestRelEquivalence::test_equal_ranks_different_ideals",
        ],
    },
    {
        "id": "certificate-tableaux-unrelabelled",
        "lemma": "relabelling",
        "file": "presentation.py",
        "old": "return enumerate_column_strict(self.lam, self.mu)",
        "new": "return list(_key_fillings(self.lam, self.mu))",
        "kills": [
            "tests/test_presentation.py::TestSharedCore::test_padded_pair_reads_a_kept_key_cheaply",
            "tests/test_presentation.py::TestSharedCore::test_padded_pairs_share_one_core_and_certificate",
            "tests/test_hilbert_oracle.py::test_groebner_normal_form_d4",
        ],
    },
    {
        "id": "count-guard-reads-itself",
        "lemma": "relabelling",
        "file": "presentation.py",
        "old": "if count != len(degrees):",
        "new": "if len(degrees) != len(degrees):",
        "kills": [
            "tests/test_presentation.py::TestSharedCore::test_shared_count_mismatch_raises",
        ],
    },
    {
        "id": "witness-unrelabelled",
        "lemma": "relabelling",
        "file": "presentation.py",
        "old": "return _relabelling(mu)(_key_fillings(lam, mu)[idx]).to_json()",
        "new": "return _key_fillings(lam, mu)[idx].to_json()",
        "kills": [
            "tests/test_presentation.py::TestDependencyWitness::test_fabricated_dependency_yields_combination",
        ],
    },
    {
        "id": "table-drops-j0-term",
        "lemma": "table",
        "file": "coinvariant.py",
        "old": "if combo[-1] != v\n",
        "new": "if combo[-1] != v and combo[0] == v\n",
        "kills": [
            "tests/test_coinvariant.py::TestTables::test_var_matrix_matches_division",
            "tests/test_coinvariant.py::TestTables::test_nf_matches_division",
            "tests/test_two_row.py::test_regular_ideal_is_squares_and_degree_cut",
            "tests/test_two_row.py::test_hilbert_series_is_anti_invariant_dimension",
        ],
    },
    {
        "id": "table-u-below-v",
        "lemma": "table",
        "file": "coinvariant.py",
        "old": "u = next((u for u in range(self.d, v, -1) if m[u - 1]), None)",
        "new": "u = next((u for u in range(self.d, 0, -1) if u != v and m[u - 1]), None)",
        "kills": [
            "tests/test_coinvariant.py::TestTables::test_var_matrix_matches_division",
            "tests/test_coinvariant.py::TestTables::test_nf_matches_division",
            "tests/test_two_row.py::test_regular_ideal_is_squares_and_degree_cut",
            "tests/test_two_row.py::test_hilbert_series_is_anti_invariant_dimension",
        ],
    },
    {
        "id": "vanishing-e-bound-one-low",
        "lemma": "vanishing",
        "file": "coinvariant.py",
        "old": 'len(vars_) if kind == "e" else',
        "new": 'len(vars_) - 1 if kind == "e" else',
        "kills": [
            "tests/test_coinvariant.py::TestSymClasses::test_matches_unbounded_recurrence",
            "tests/test_two_row.py::test_regular_ideal_is_squares_and_degree_cut",
            "tests/test_two_row.py::test_hilbert_series_is_anti_invariant_dimension",
        ],
    },
    {
        "id": "vanishing-h-bound-one-low",
        "lemma": "vanishing",
        "file": "coinvariant.py",
        "old": "else self.d - len(vars_))",
        "new": "else self.d - len(vars_) - 1)",
        "kills": [
            "tests/test_coinvariant.py::TestSymClasses::test_matches_unbounded_recurrence",
            "tests/test_two_row.py::test_regular_ideal_is_squares_and_degree_cut",
            "tests/test_two_row.py::test_hilbert_series_is_anti_invariant_dimension",
        ],
    },
    {
        "id": "last-variable-skips-two",
        "lemma": "last-variable",
        "file": "presentation.py",
        "old": "for v in range(1, self.d)\n",
        "new": "for v in range(1, self.d - 1)\n",
        "kills": [
            "tests/test_presentation.py::TestTwinBuild::test_seeded_builds_equal_insertion_oracle_d6",
            "tests/test_pinned.py::test_outputs_pinned_d4",
            "tests/test_two_row.py::test_hilbert_series_is_anti_invariant_dimension",
        ],
    },
    {
        "id": "copy-forgets-first-pivot",
        "lemma": "order",
        "file": "linalg.py",
        "old": "out._first = min(out.pivot_rows, default=out.width)",
        "new": "out._first = out.width",
        "kills": [
            "tests/test_pinned.py::test_outputs_pinned_d4",
            "tests/test_pinned.py::test_transfer_reports_pinned_d5",
            "tests/test_two_row.py::test_regular_ideal_is_squares_and_degree_cut",
            "tests/test_two_row.py::test_hilbert_series_is_anti_invariant_dimension",
        ],
    },
    {
        "id": "reduce-drops-scale",
        "lemma": "residual",
        "file": "linalg.py",
        "old": "scale = scale * pv // gcd(scale, pv)",
        "new": "scale = scale",
        "kills": [
            "tests/test_presentation.py::TestSparsePropagation::test_ideal_equals_dense_span_d5",
            "tests/test_pinned.py::test_transfer_reports_pinned_d5",
            "tests/test_two_row.py::test_regular_ideal_is_squares_and_degree_cut",
            "tests/test_two_row.py::test_hilbert_series_is_anti_invariant_dimension",
        ],
    },
    {
        "id": "chain-sorts-first-level-only",
        "lemma": "chain",
        "file": "tableaux.py",
        "old": "if level or n == len(mu_parts):",
        "new": "if n == len(mu_parts):",
        "kills": [
            "tests/test_tableaux.py::TestDegreeOnePass::test_matches_reduction_oracle_d6",
        ],
    },
    {
        "id": "replay-sorts-on-empty-levels",
        "lemma": "replay",
        "file": "tableaux.py",
        "old": "        if level:\n            heights.sort(reverse=True)",
        "new": "        if not level:\n            heights.sort(reverse=True)",
        "kills": [
            "tests/test_tableaux.py::TestStraighten::test_idempotent_and_fibers",
        ],
    },
    {
        "id": "recursion-sort-unstable",
        "lemma": "recursion",
        "file": "tableaux.py",
        "old": "order = sorted(range(len(heights)), key=lowered.__getitem__, reverse=True)",
        "new": "order = sorted(range(len(heights))[::-1], key=lowered.__getitem__, reverse=True)",
        "kills": [
            "tests/test_tableaux.py::TestKeyRecursion::test_matches_search_oracle_d6",
        ],
    },
    {
        "id": "recursion-sort-ascending",
        "lemma": "recursion",
        "file": "tableaux.py",
        "old": "order = sorted(range(len(heights)), key=lowered.__getitem__, reverse=True)",
        "new": "order = sorted(range(len(heights)), key=lowered.__getitem__)",
        "kills": [
            "tests/test_tableaux.py::TestKeyRecursion::test_matches_search_oracle_d6",
        ],
    },
    {
        "id": "recursion-drops-final-sort",
        "lemma": "recursion",
        "file": "tableaux.py",
        "old": "fillings.sort(key=itemgetter(0))",
        "new": "pass",
        "kills": [
            "tests/test_tableaux.py::TestKeyRecursion::test_matches_search_oracle_d6",
            "tests/test_pinned.py::test_outputs_pinned_d4",
        ],
    },
    {
        "id": "recursion-appends-lowered-row",
        "lemma": "recursion",
        "file": "tableaux.py",
        "old": "rows[h - 1] += label",
        "new": "rows[h - 2] += label",
        "kills": [
            "tests/test_tableaux.py::TestKeyRecursion::test_matches_search_oracle_d6",
            "tests/test_reports.py::TestComponents::test_fibers_match_straighten_d5",
        ],
    },
    {
        "id": "components-skip-semistandard",
        "lemma": "recursion",
        "file": "reports.py",
        "old": "bad = [fiber[i] for i, _, fiber in out if not fiber[i].is_semistandard()]",
        "new": "bad = []",
        "kills": [
            "tests/test_reports.py::TestComponents::test_bad_images_raise",
        ],
    },
    {
        "id": "components-s-first-of-fiber",
        "lemma": "relabelling",
        "file": "reports.py",
        "old": "out.append((fiber[i], dim, fiber))",
        "new": "out.append((fiber[0], dim, fiber))",
        "kills": [
            "tests/test_reports.py::TestComponents::test_fixed_point_anywhere_in_its_fiber",
        ],
    },
    {
        "id": "relabelling-identity-by-count",
        "lemma": "relabelling",
        "file": "tableaux.py",
        "old": "if mu.parts[: len(nonzero)] == nonzero:",
        "new": "if len(mu.parts[: len(nonzero)]) == len(nonzero):",
        "kills": [
            "tests/test_reports.py::TestSharedTableaux::test_padded_pairs_relabel_the_key",
            "tests/test_reports.py::TestSharedTableaux::test_shared_equals_cold_d5",
            "tests/test_pinned.py::test_outputs_pinned_d4",
        ],
    },
    {
        "id": "gale-ryser-keeps-taken-columns",
        "lemma": "gale-ryser",
        "file": "tableaux.py",
        "old": "conj[i] -= 1",
        "new": "conj[i] -= 0",
        "kills": [
            "tests/test_tableaux.py::TestCountCap::test_capped_count_matches_unpruned_oracle_d6",
        ],
    },
    {
        "id": "gale-ryser-ascending-prefixes",
        "lemma": "gale-ryser",
        "file": "tableaux.py",
        "old": "_slacks(reversed(state), conj)",
        "new": "_slacks(state, conj)",
        "kills": [
            "tests/test_tableaux.py::TestCountCap::test_capped_count_matches_unpruned_oracle_d6",
        ],
    },
    {
        "id": "lowerings-no-cap",
        "lemma": "lowering",
        "file": "tableaux.py",
        "old": "min(size, caps[h - 1] - taken)",
        "new": "min(size, k - taken)",
        "kills": [
            "tests/test_tableaux.py::TestKeyRecursion::test_lowerings_match_brute_force_d7",
        ],
    },
    {
        "id": "lowerings-cap-at-the-run-only",
        "lemma": "lowering",
        "file": "tableaux.py",
        "old": "caps[i] = min(caps[i], caps[i + 1])",
        "new": "caps[i] = min(caps[i], k)",
        "kills": [
            "tests/test_tableaux.py::TestKeyRecursion::test_lowerings_match_brute_force_d7",
        ],
    },
    {
        "id": "bijection-leaves-heights-unsorted",
        "lemma": "bijection",
        "file": "tableaux.py",
        "old": "live += [h] * (size - t) + [h - 1] * t",
        "new": "live += [h - 1] * t + [h] * (size - t)",
        "kills": [
            "tests/test_reports.py::TestBetti::test_matches_enumeration_d6",
            "tests/test_reports.py::TestBetti::test_matches_position_oracle_d7",
        ],
    },
    {
        "id": "run-shift-uses-s-minus-t",
        "lemma": "run",
        "file": "reports.py",
        "old": "shift += t * start + t * (t - 1) // 2",
        "new": "shift += t * start + (s - t) * (s - t - 1) // 2",
        "kills": [
            "tests/test_reports.py::TestBetti::test_matches_position_oracle_d7",
        ],
    },
    {
        "id": "run-offset-dropped",
        "lemma": "run",
        "file": "reports.py",
        "old": "shift += t * start + t * (t - 1) // 2",
        "new": "shift += t * (t - 1) // 2",
        "kills": [
            "tests/test_reports.py::TestBetti::test_matches_position_oracle_d7",
        ],
    },
    {
        "id": "e-unit-counts-zero-blocks",
        "lemma": "zero-block",
        "file": "presentation.py",
        "old": "lam.height() > len(mu._nonzero)",
        "new": "lam.height() > len(mu)",
        "kills": [
            "tests/test_pinned.py::test_outputs_pinned_d4",
        ],
    },
    {
        "id": "regular-pair-zero-free",
        "lemma": "zero-block",
        "file": "presentation.py",
        "old": "Composition((1,) * d + (0,))",
        "new": "Composition((1,) * d)",
        "kills": [
            "tests/test_presentation.py::TestTransfer::test_regular_core_built_once_per_lambda_d4",
            "tests/test_presentation.py::TestSharedCore::test_zero_free_pairs_store_nothing",
        ],
    },
    {
        "id": "range-h-ceiling-one-low",
        "lemma": "vanishing-range",
        "file": "presentation.py",
        "old": "ceiling, width = d - sum(inside), tails[size]",
        "new": "ceiling, width = d - sum(inside) - 1, tails[size] - 1",
        "kills": [
            "tests/test_presentation.py::TestGeneratorRange::"
            "test_build_classes_equal_nonzero_oracle_classes_d6",
        ],
    },
    {
        "id": "range-e-ceiling-one-low",
        "lemma": "vanishing-range",
        "file": "presentation.py",
        "old": "ceiling, width = sum(inside), tails[k - size + inside.count(0)]",
        "new": "ceiling, width = sum(inside) - 1, tails[k - size + inside.count(0)] - 1",
        "kills": [
            "tests/test_presentation.py::TestGeneratorRange::"
            "test_build_classes_equal_nonzero_oracle_classes_d6",
        ],
    },
    {
        "id": "range-h-sizes-one-short",
        "lemma": "vanishing-range",
        "file": "presentation.py",
        "old": "sizes = range(1, min(height, k + 1))",
        "new": "sizes = range(1, min(height - 1, k + 1))",
        "kills": [
            "tests/test_presentation.py::TestGeneratorRange::"
            "test_build_classes_equal_nonzero_oracle_classes_d6",
            "tests/test_presentation.py::TestGeneratorRange::test_build_forms_unions_only_for_ranges",
        ],
    },
    {
        "id": "range-e-sizes-one-short",
        "lemma": "vanishing-range",
        "file": "presentation.py",
        "old": "sizes = range(max(1, k - height + 1), k)",
        "new": "sizes = range(max(1, k - height + 2), k)",
        "kills": [
            "tests/test_presentation.py::TestGeneratorRange::"
            "test_build_classes_equal_nonzero_oracle_classes_d6",
            "tests/test_presentation.py::TestGeneratorRange::test_build_forms_unions_only_for_ranges",
        ],
    },
    {
        "id": "range-e-sizes-reach-full-set",
        "lemma": "vanishing-range",
        "file": "presentation.py",
        "old": "sizes = range(max(1, k - height + 1), k)",
        "new": "sizes = range(max(1, k - height + 1), k + 1)",
        "kills": [
            "tests/test_presentation.py::TestGeneratorRange::"
            "test_build_classes_equal_nonzero_oracle_classes_d6",
            "tests/test_presentation.py::TestGeneratorRange::test_build_forms_unions_only_for_ranges",
        ],
    },
    {
        "id": "prefix-walk-stops-early",
        "lemma": "prefix",
        "file": "tableaux.py",
        "old": "for p, q in zip(a.parts, b.parts):",
        "new": "for p, q in zip(a.parts[:-1], b.parts):",
        "kills": [
            "tests/test_tableaux.py::TestDominance::test_prefix_sum_oracle",
        ],
    },
    {
        "id": "equivalence-compares-degrees-only",
        "lemma": "order",
        "file": "presentation.py",
        "old": "return qh._ideal == qe._ideal",
        "new": "return qh._ideal.keys() == qe._ideal.keys()",
        "kills": [
            "tests/test_presentation.py::TestTwinBuild::test_divergent_families_equal_cold_builds",
        ],
    },
    {
        "id": "isotypic-no-shortcut",
        "lemma": "isotypic",
        "old": "",
        "reason": (
            "it says what rank psi measures and skips no computation; the "
            "check it explains has the mutant kernel-check-drops-psi-rank"
        ),
        "kills": [],
    },
]


def apply(mutant, src):
    """Write the mutant into the copy of src/ at src."""
    path = src / "spaltenstein" / mutant["file"]
    text = path.read_text()
    if text.count(mutant["old"]) != 1:
        raise ValueError(f"{mutant['id']}: old snippet does not occur exactly once")
    path.write_text(text.replace(mutant["old"], mutant["new"]))


def run(mutant):
    """(status, detail, seconds) of one mutant: killed, survived or error."""
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
        apply(mutant, src)
        (src / "mutant_profile.py").write_text(PROFILE)
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
             "-p", "mutant_profile", *mutant["kills"]],
            cwd=ROOT, env=env, capture_output=True, text=True,
        )
    seconds = time.perf_counter() - start
    if proc.returncode not in (0, 1):
        return "error", f"pytest exit code {proc.returncode}", seconds
    errors = re.findall(r"^ERROR (\S+)", proc.stdout, re.M)
    if errors:
        return "error", "errors: " + " ".join(errors), seconds
    failed = set(re.findall(r"^FAILED (\S+)", proc.stdout, re.M))
    passed = [node for node in mutant["kills"] if node not in failed]
    if proc.returncode == 1 and not passed:
        return "killed", f"{len(failed)} failed", seconds
    return "survived", "passed: " + " ".join(passed), seconds


def main(ids):
    known = {m["id"]: m for m in MUTANTS}
    unknown = [i for i in ids if i not in known]
    if unknown:
        print(f"unknown mutant ids: {' '.join(unknown)}", file=sys.stderr)
        return 2
    chosen = [known[i] for i in ids] if ids else MUTANTS
    bad = 0
    with ThreadPoolExecutor(JOBS) as pool:
        results = {m["id"]: pool.submit(run, m) for m in chosen if m["old"]}
        for mutant in chosen:
            if not mutant["old"]:
                print(f"{mutant['id']:32} gap      {mutant['lemma']} lemma: {mutant['reason']}")
                continue
            status, detail, seconds = results[mutant["id"]].result()
            bad += status != "killed"
            print(f"{mutant['id']:32} {status:8} {seconds:6.1f} s  {detail}", flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
