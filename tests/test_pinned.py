"""Outputs pinned by digest: a change to the internal row format must not
move any of them.  The digests were recorded from the dense-list
implementation; the structure constants are pinned separately in
test_presentation.py (test_tensors_pinned_d4)."""

import hashlib
import io
import json

from oracles import WideWindow
from spaltenstein.cli import main
from spaltenstein.presentation import anti_invariant_transfer, build_quotient, certify_basis
from spaltenstein.reports import components, poset_edges
from spaltenstein.tableaux import enumerate_column_strict, iter_pairs, straighten

# the README examples
README_COMMANDS = (
    ["enumerate", "--lambda", "2,1", "--mu", "1,1,1"],
    ["degree", "--lambda", "4,3,3,2", "--mu", "1,4,1,3,1,2", "--tableau", "2,1,2,2;3,2,4;4,4,6;6,5"],
    ["basis", "--lambda", "2,0", "--mu", "1,1"],
    ["present", "--lambda", "2,0", "--mu", "1,1", "--family", "H", "--format", "json"],
    ["hilbert", "--lambda", "3,2,1", "--mu", "2,2,2"],
    ["verify", "--lambda", "3,1", "--mu", "1,2,1"],
    ["components", "--lambda", "2,1", "--mu", "1,1,1", "--format", "dot"],
    ["transfer", "--lambda", "2,0", "--mu", "2"],
    ["sweep", "--d-max", "4"],
)


def _dump(value):
    return json.dumps(value, sort_keys=True).encode() + b"\n"


def test_outputs_pinned_d4():
    # per pair: the H certificate JSON, the transfer JSON, and the
    # canonical ideal rows of every degree of both families up to a window
    # as wide as the largest part of mu, where the digest was recorded (the
    # insertion oracle's above stop_x); then the exit code and stdout of
    # each README command
    digest = hashlib.sha256()
    pairs = 0
    for lam, mu in iter_pairs(4):
        qh, qe = build_quotient(lam, mu, "H"), build_quotient(lam, mu, "E")
        digest.update(_dump(certify_basis(lam, mu, quotient=qh).to_json()))
        digest.update(_dump(anti_invariant_transfer(lam, mu).to_json()))
        for q in (WideWindow(qh), WideWindow(qe)):
            for t in range(q.stop_x + 1):
                rows = q.ideal_space(t).pivot_rows
                digest.update(_dump(sorted((c, sorted(rows[c].items())) for c in rows)))
        pairs += 1
    assert pairs == 299
    for argv in README_COMMANDS:
        out = io.StringIO()
        code = main(list(argv), out=out)
        digest.update(_dump([code, out.getvalue()]))
    assert digest.hexdigest() == (
        "78c40293ed689a893df47738ca5c4141b2e37727b702388b0425e5fefa2a2994"
    )


def test_transfer_reports_pinned_d5():
    # the anti-invariant transfer report of every pair with d <= 5
    digest = hashlib.sha256()
    pairs = 0
    for lam, mu in iter_pairs(5):
        digest.update(_dump(anti_invariant_transfer(lam, mu).to_json()))
        pairs += 1
    assert pairs == 1641
    assert digest.hexdigest() == (
        "5de4fedcf9a054299cdd83e0bd45bcf32270daaee0f2836296e06cdb9713ff60"
    )


def test_tableau_layer_pinned_d5():
    # per pair with d <= 5: the components as the CLI prints them in JSON,
    # the straighten image of every column-strict tableau, and the Hasse
    # edges of the cell order; recorded from the recursive reduction step
    # that the one-pass reduction chain replaced
    digest = hashlib.sha256()
    pairs = 0
    for lam, mu in iter_pairs(5):
        digest.update(_dump([
            {"tableau": S.to_json(), "dimension": dim, "fiber": [T.to_json() for T in fiber]}
            for S, dim, fiber in components(lam, mu)
        ]))
        tabs = enumerate_column_strict(lam, mu)
        digest.update(_dump([straighten(T, mu).to_json() for T in tabs]))
        digest.update(_dump([[T.to_json(), U.to_json()] for T, U in poset_edges(lam, mu)]))
        pairs += 1
    assert pairs == 1641
    assert digest.hexdigest() == (
        "d1793ef2105326d5a2304451000adb126bb70969af46b956c4b5d201886a2281"
    )
