"""Batch command line interface with byte-deterministic output.

Partitions and compositions are comma-separated integers; tableaux are
semicolon-separated rows of comma-separated entries.  JSON output is
compact with sorted keys, so identical invocations produce identical
bytes.  Exit codes: 0 success, 1 failed mathematical verification
(witness printed as JSON), 2 usage error.  A command that needs the
coinvariant ring of d > MAX_D (8) exits 2, and sweep refuses --d-max > 8
before any output.  enumerate, basis and components exit 2 before any
output when their boxes exceed MAX_BOXES or their work MAX_WORK.
Without installing the package, run it as PYTHONPATH=src python -m
spaltenstein <command> ...
"""

import argparse
import json
import sys
from math import isqrt

from .coinvariant import MAX_D
from .presentation import (
    VerificationError,
    _h_of_chain,
    _h_term_count,
    _validate_pair,
    anti_invariant_transfer,
    build_quotient,
    certify_basis,
    rel_equivalence,
)
from .reports import betti, components, poset_dot
from .tableaux import (
    Composition,
    Partition,
    Tableau,
    _chain_degree,
    _key_chains,
    count_column_strict,
    enumerate_column_strict,
    enumerate_semistandard,
    iter_pairs,
    tableau_degree,
    zero_free_key,
)


# The most work a tableau command may do, with no override, like MAX_D:
# the number of fillings for enumerate and for components as JSON or a
# table, its square for components as DOT (poset_edges compares every
# pair of fillings), and the number of polynomial terms for basis, which
# its time and output follow.  enumerate as JSON peaked at 140 MB of RSS
# for the 113,400 fillings of (5,5)/(1^10), about 1.1 KB a filling.
MAX_WORK = 100_000

# The most boxes a tableau command may fill, with no override: counting
# the fillings walks the columns of lambda one at a time, so a huge part
# (--lambda 1000000 --mu 1000000) must be refused before the count.
MAX_BOXES = 100_000


def _check_work(work, what):
    if work > MAX_WORK:
        raise ValueError(f"{work} {what} exceed the limit of {MAX_WORK}")


def _check_fillings(lam, mu, pairs=False):
    """ValueError unless |lam| is within MAX_BOXES and the number of
    fillings (count_column_strict), or its square for pairs, within
    MAX_WORK.  The count stops at its cap, isqrt(MAX_WORK) for pairs, with
    a lower bound above it, so a huge count is refused after a few
    columns."""
    if lam.size() > MAX_BOXES:
        raise ValueError(f"{lam.size()} boxes exceed the limit of {MAX_BOXES}")
    cap = isqrt(MAX_WORK) if pairs else MAX_WORK
    count = count_column_strict(lam, mu, cap=cap)
    if count > cap:
        work, what = (count * count, "pairs of fillings") if pairs else (count, "fillings")
        raise ValueError(f"at least {work} {what} exceed the limit of {MAX_WORK}")


def _dump(data):
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def _parse_ints(text):
    text = text.strip()
    if not text:
        return ()
    return tuple(int(v) for v in text.split(","))


def parse_partition(text):
    try:
        return Partition(_parse_ints(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def parse_composition(text):
    try:
        return Composition(_parse_ints(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def parse_tableau(text):
    try:
        return Tableau(map(_parse_ints, text.split(";")))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _add_pair_args(sub):
    sub.add_argument("--lambda", dest="lam", type=parse_partition, required=True)
    sub.add_argument("--mu", type=parse_composition, required=True)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="spaltenstein",
        description="Exact presentations and tableau combinatorics for "
        "partial flag varieties annihilated by a nilpotent.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="list column-strict tableaux")
    _add_pair_args(p)
    p.add_argument("--semistandard", action="store_true")
    p.add_argument("--format", choices=("json", "table"), default="json")

    p = sub.add_parser("degree", help="degree of one tableau")
    _add_pair_args(p)
    p.add_argument("--tableau", type=parse_tableau, required=True)

    p = sub.add_parser("basis", help="tableau basis elements as polynomials")
    _add_pair_args(p)
    p.add_argument("--format", choices=("json", "table"), default="json")

    p = sub.add_parser("present", help="graded quotient presentation report")
    _add_pair_args(p)
    p.add_argument("--family", choices=("H", "E"), default="H")
    p.add_argument("--format", choices=("json", "table"), default="json")

    p = sub.add_parser("hilbert", help="Hilbert series of the quotient")
    _add_pair_args(p)
    p.add_argument("--family", choices=("H", "E"), default="H")

    p = sub.add_parser("verify", help="basis, family equivalence and Betti checks")
    _add_pair_args(p)

    p = sub.add_parser("components", help="irreducible components and fibers")
    _add_pair_args(p)
    p.add_argument("--format", choices=("json", "table", "dot"), default="json")

    p = sub.add_parser("transfer", help="anti-invariant transfer check")
    _add_pair_args(p)

    p = sub.add_parser("sweep", help="verify all pairs up to a size bound")
    p.add_argument("--d-max", type=int, required=True)
    p.add_argument("--n-max", type=int, default=None)
    p.add_argument("--family", choices=("H", "E"), default="H")
    return parser


def _cmd_enumerate(args, out):
    _check_fillings(args.lam, args.mu)
    tabs = (
        enumerate_semistandard(args.lam, args.mu)
        if args.semistandard
        else enumerate_column_strict(args.lam, args.mu)
    )
    if args.format == "json":
        out.write(_dump([T.to_json() for T in tabs]) + "\n")
    else:
        for T in tabs:
            out.write(";".join(",".join(map(str, row)) for row in T.rows) + "\n")
    return 0


def _cmd_degree(args, out):
    if args.tableau.shape != args.lam:
        raise ValueError(
            f"tableau shape {args.tableau.shape.to_json()} differs from "
            f"--lambda {args.lam.to_json()}"
        )
    out.write(str(tableau_degree(args.tableau, args.mu)) + "\n")
    return 0


def _cmd_basis(args, out):
    lam, mu = args.lam, args.mu
    _check_fillings(lam, mu)
    # the chains kept for the key, read with the parts of its zero-free mu
    key_mu = Composition(zero_free_key(lam, mu)[1])
    chains = _key_chains(lam, mu)
    _check_work(sum(_h_term_count(chain, key_mu) for chain in chains), "polynomial terms")
    items = [
        {
            "tableau": T.to_json(),
            "degree": 2 * _chain_degree(chain),
            "poly": _h_of_chain(chain, key_mu).to_json(),
        }
        for T, chain in zip(enumerate_column_strict(lam, mu), chains)
    ]
    if args.format == "json":
        out.write(_dump(items) + "\n")
    else:
        for item in items:
            word = ",".join(str(v) for row in item["tableau"]["rows"] for v in row)
            out.write(f"{word}\tdeg {item['degree']}\n")
    return 0


def _cmd_present(args, out):
    cert = certify_basis(args.lam, args.mu, args.family)
    data = cert.to_json()
    if args.format == "json":
        out.write(_dump(data) + "\n")
    else:
        out.write(f"lambda {list(args.lam.parts)} mu {list(args.mu.parts)}\n")
        out.write(f"hilbert {data['hilbert']}\n")
        out.write(f"dimension {sum(data['hilbert'])}\n")
    return 0


def _cmd_hilbert(args, out):
    q = build_quotient(args.lam, args.mu, args.family)
    out.write(_dump({"hilbert": q.hilbert.to_json()}) + "\n")
    return 0


def _cmd_verify(args, out):
    witness = {}
    cert = certify_basis(args.lam, args.mu, "H")
    hilbert = cert.quotient.hilbert
    if not rel_equivalence(args.lam, args.mu, qh=cert.quotient):
        witness = {
            "check": "family_equivalence",
            "lambda": args.lam.to_json(),
            "mu": args.mu.to_json(),
        }
    else:
        series = betti(args.lam, args.mu)
        if series != hilbert:
            witness = {
                "check": "betti",
                "betti": series.to_json(),
                "hilbert": hilbert.to_json(),
            }
    if witness:
        out.write(_dump(witness) + "\n")
        return 1
    record = {"certified": True, "dimension": cert.size(), "hilbert": hilbert.to_json()}
    out.write(_dump(record) + "\n")
    return 0


def _cmd_components(args, out):
    _check_fillings(args.lam, args.mu, pairs=args.format == "dot")
    if args.format == "dot":
        out.write(poset_dot(args.lam, args.mu) + "\n")
        return 0
    data = [
        {"tableau": S.to_json(), "dimension": dim, "fiber": [T.to_json() for T in fiber]}
        for S, dim, fiber in components(args.lam, args.mu)
    ]
    if args.format == "json":
        out.write(_dump(data) + "\n")
    else:
        for item in data:
            word = ",".join(str(v) for row in item["tableau"]["rows"] for v in row)
            out.write(f"{word}\tdim {item['dimension']}\tfiber {len(item['fiber'])}\n")
    return 0


def _cmd_transfer(args, out):
    report = anti_invariant_transfer(args.lam, args.mu)
    out.write(_dump(report.to_json()) + "\n")
    return 0


def _cmd_sweep(args, out):
    failures = 0
    for lam, mu in iter_pairs(args.d_max, args.n_max):
        record = {"lambda": lam.to_json(), "mu": mu.to_json()}
        try:
            cert = certify_basis(lam, mu, args.family)
            record["hilbert"] = cert.quotient.hilbert.to_json()
            record["dimension"] = cert.size()
            record["certified"] = True
        except VerificationError as exc:
            record["certified"] = False
            record["witness"] = exc.witness
            failures += 1
        out.write(_dump(record) + "\n")
    return 1 if failures else 0


_COMMANDS = {
    "enumerate": _cmd_enumerate,
    "degree": _cmd_degree,
    "basis": _cmd_basis,
    "present": _cmd_present,
    "hilbert": _cmd_hilbert,
    "verify": _cmd_verify,
    "components": _cmd_components,
    "transfer": _cmd_transfer,
    "sweep": _cmd_sweep,
}


def main(argv=None, out=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    out = out or sys.stdout
    if args.command == "sweep":
        if args.d_max < 0:
            parser.error(f"--d-max must be non-negative, got {args.d_max}")
        if args.d_max > MAX_D:
            parser.error(f"--d-max {args.d_max} exceeds the limit d <= {MAX_D}")
        if args.n_max is not None and args.n_max < 0:
            parser.error(f"--n-max must be non-negative, got {args.n_max}")
    try:
        if hasattr(args, "lam"):
            _validate_pair(args.lam, args.mu)
        return _COMMANDS[args.command](args, out)
    except VerificationError as exc:
        out.write(_dump({"error": str(exc), "witness": exc.witness}) + "\n")
        return 1
    except ValueError as exc:
        parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
