"""Workload definitions: the generated inputs, the timed operation of each
workload, and the digest and independent checks of every output.

Inputs are generated here, not taken from the library or the tests, so the
library receives only ``Partition`` and ``Composition`` values (or, for
``cli_cold``, command lines).  A workload's op list is fixed; the seed only
shuffles its order.
"""

import hashlib
import json
import os
import random

WORKLOADS = {
    "sweep_d5": "all 1641 pairs with d <= 5 through the acceptance pipeline; "
    "93% have a zero part in mu, so per-call overhead and repeated work dominate",
    "keys_d6": "every third of the 242 pairs with d = 6 and no zero part in mu; each is "
    "its own key, so a zero-block cache is bypassed and ideal propagation dominates",
    "transfer_d5": "every fourth of the 1641 pairs with d <= 5 through the anti-invariant "
    "transfer and structure constants; Fraction rows in linalg and mul_classes",
    "cli_cold": "the nine README CLI examples, one fresh interpreter each; "
    "interpreter start, import and cold caches dominate",
}

# keys_d6 and transfer_d5 take every STRIDE-th pair of their enumeration
# (ordered by d, number of parts, lam, mu), so a pass keeps the mix of the
# full set but takes under ten seconds: the full sets take about 22 s and
# 36 s.
STRIDE = {"keys_d6": 3, "transfer_d5": 4}

# The README examples, verbatim.
CLI_EXAMPLES = (
    ("enumerate", "--lambda", "2,1", "--mu", "1,1,1"),
    ("degree", "--lambda", "4,3,3,2", "--mu", "1,4,1,3,1,2",
     "--tableau", "2,1,2,2;3,2,4;4,4,6;6,5"),
    ("basis", "--lambda", "2,0", "--mu", "1,1"),
    ("present", "--lambda", "2,0", "--mu", "1,1", "--family", "H", "--format", "json"),
    ("hilbert", "--lambda", "3,2,1", "--mu", "2,2,2"),
    ("verify", "--lambda", "3,1", "--mu", "1,2,1"),
    ("components", "--lambda", "2,1", "--mu", "1,1,1", "--format", "dot"),
    ("transfer", "--lambda", "2,0", "--mu", "2"),
    ("sweep", "--d-max", "4"),
)


def _partitions(d, n, cap=None):
    """Partitions of d with at most n parts, as decreasing tuples."""
    cap = d if cap is None else cap
    if d == 0:
        yield ()
        return
    if n == 0:
        return
    for p in range(min(cap, d), 0, -1):
        for rest in _partitions(d - p, n - 1, p):
            yield (p,) + rest


def _compositions(d, n):
    """Compositions of d into exactly n non-negative parts."""
    if n == 0:
        if d == 0:
            yield ()
        return
    for first in range(d + 1):
        for rest in _compositions(d - first, n - 1):
            yield (first,) + rest


def pair_parts(d_min, d_max):
    """All (lam, mu) part tuples with d_min <= d <= d_max and len(mu) = n <= d."""
    for d in range(d_min, d_max + 1):
        for n in range(0 if d == 0 else 1, d + 1):
            for lam in _partitions(d, n):
                for mu in _compositions(d, n):
                    yield lam, mu


def pair_key(lam, mu):
    return ",".join(map(str, lam)) + "|" + ",".join(map(str, mu))


def op_keys(workload, tiny=False):
    """The workload's op keys in their fixed (unshuffled) order; ``tiny``
    keeps the first few (for sweep_d5 and transfer_d5, those with d <= 3)."""
    if workload in ("sweep_d5", "transfer_d5"):
        pairs = list(pair_parts(0, 5))
    elif workload == "keys_d6":
        pairs = [(lam, mu) for lam, mu in pair_parts(6, 6) if 0 not in mu]
    elif workload == "cli_cold":
        return [" ".join(argv) for argv in CLI_EXAMPLES]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    pairs = pairs[::STRIDE.get(workload, 1)]
    if tiny:
        pairs = pairs[:4] if workload == "keys_d6" else [p for p in pairs if sum(p[0]) <= 3]
    return [pair_key(lam, mu) for lam, mu in pairs]


def library_env(root):
    """The environment with ``<root>/src`` first on PYTHONPATH."""
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def shuffled(keys, seed, pass_index):
    out = list(keys)
    random.Random(f"{seed}:{pass_index}").shuffle(out)
    return out


def parse_pair(key):
    lam, mu = key.split("|")
    as_tuple = lambda text: tuple(int(v) for v in text.split(",")) if text else ()
    return as_tuple(lam), as_tuple(mu)


def input_properties(workload, keys):
    """Share of pairs with a zero part in mu, and the number of distinct
    zero-free keys (lam, mu with its zero parts removed)."""
    if workload == "cli_cold":
        pairs = []
        for argv in CLI_EXAMPLES:
            if "--mu" in argv:
                lam = tuple(int(v) for v in argv[argv.index("--lambda") + 1].split(","))
                mu = tuple(int(v) for v in argv[argv.index("--mu") + 1].split(","))
                pairs.append((lam, mu))
    else:
        pairs = [parse_pair(k) for k in keys]
    zero = sum(1 for _, mu in pairs if 0 in mu)
    distinct = {
        (tuple(p for p in lam if p), tuple(p for p in mu if p)) for lam, mu in pairs
    }
    return {
        "pairs": len(pairs),
        "zero_mu_share": zero / len(pairs) if pairs else 0.0,
        "zero_free_keys": len(distinct),
    }


def digest(record):
    text = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def pair_inputs(sp, key):
    lam, mu = parse_pair(key)
    return sp.Partition(lam), sp.Composition(mu)


def acceptance(sp, lam, mu):
    """One op of sweep_d5 and keys_d6: H, certify, E, equivalence, Betti,
    and components when dominated."""
    qh = sp.build_quotient(lam, mu, "H")
    cert = sp.certify_basis(lam, mu, quotient=qh)
    qe = sp.build_quotient(lam, mu, "E")
    equivalent = sp.rel_equivalence(lam, mu, qh=qh, qe=qe)
    betti = sp.betti(lam, mu)
    comps = sp.components(lam, mu) if sp.dominance_leq(mu.sorted(), lam) else None
    return qh, cert, qe, equivalent, betti, comps


def check_acceptance(sp, lam, mu, out):
    """Digest of an acceptance op's outputs and the independent checks that
    failed on them."""
    qh, cert, qe, equivalent, betti, comps = out
    count = sp.count_column_strict(lam, mu)
    bad = []
    if not equivalent:
        bad.append("H and E not equivalent")
    if betti != qh.hilbert:
        bad.append("Betti numbers differ from the Hilbert series")
    if qe.hilbert != qh.hilbert:
        bad.append("H and E Hilbert series differ")
    if not cert.size() == qh.hilbert.total() == count:
        bad.append("basis size differs from the column-strict count")
    fibers = None
    if comps is not None:
        fibers = sorted((dim, len(fiber)) for _, dim, fiber in comps)
        if sum(n for _, n in fibers) != count:
            bad.append("fibers do not partition the basis")
    record = {
        "hilbert": qh.hilbert.to_json(),
        "hilbert_e": qe.hilbert.to_json(),
        "size": cert.size(),
        "degrees": sorted(cert.degrees),
        "equivalent": bool(equivalent),
        "fibers": fibers,
    }
    return digest(record), bad


def transfer(sp, lam, mu):
    """One op of transfer_d5: the transfer check, and the structure
    constants when dominated."""
    report = sp.anti_invariant_transfer(lam, mu)
    constants = None
    if sp.dominance_leq(mu.sorted(), lam):
        constants = sp.structure_constants(lam, mu)
    return report, constants


def check_transfer(sp, lam, mu, out):
    """Digest of a transfer op's outputs and the independent checks that
    failed on them."""
    report, constants = out
    count = sp.count_column_strict(lam, mu)
    bad = []
    if tuple(report.anti_dims) != tuple(report.quotient_dims):
        bad.append("anti-invariant and quotient dimensions differ")
    if sum(report.quotient_dims) != count:
        bad.append("quotient dimension differs from the column-strict count")
    entries = None
    if constants is not None:
        tabs, tensor = constants
        if len(tabs) != count:
            bad.append("structure-constant basis differs from the count")
        entries = 0
        for (i, j), entry in tensor.items():
            if i <= j:
                entries += len(entry)
                if any(c.denominator != 1 for c in entry.values()):
                    bad.append(f"non-integral structure constant at {(i, j)}")
    record = {
        "shift": report.shift,
        "degrees": list(report.degrees),
        "anti_dims": list(report.anti_dims),
        "quotient_dims": list(report.quotient_dims),
        "constant_entries": entries,
    }
    return digest(record), bad


PAIR_OPS = {
    "sweep_d5": (acceptance, check_acceptance),
    "keys_d6": (acceptance, check_acceptance),
    "transfer_d5": (transfer, check_transfer),
}


def cli_digest(returncode, stdout):
    """Digest of one CLI invocation: its exit code and its stdout bytes."""
    return digest({"returncode": returncode, "stdout": hashlib.sha256(stdout).hexdigest()})
