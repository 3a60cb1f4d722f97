"""In-memory tracing of the library's public entry points, from outside it.

``install`` wraps each traced function where its callers look it up: on the
class for methods (``RowSpace.insert``), and in every ``spaltenstein``
module namespace that holds the function object, so names bound by
``from .x import f`` are wrapped too.  Every call updates a count, its
total time and its self time (total minus the time of traced calls made
inside it).  Calls of the coarse entry points (presentation, reports, the
tableau enumeration, the CLI) are also kept as spans (name, op, start, end,
parent); the high-frequency inner calls are aggregated only, which keeps
memory bounded.
"""

import json
import sys
from time import perf_counter

# (module, attribute, metric stem, keep spans); an attribute "Class.method"
# is wrapped on the class.
TARGETS = (
    ("tableaux", "enumerate_column_strict", "tableaux.enumerate", True),
    ("tableaux", "tableau_degree", "tableaux.degree", False),
    ("tableaux", "straighten", "tableaux.straighten", False),
    ("tableaux", "cell_order", "tableaux.cell_order", False),
    ("symring", "BlockStructure.union", "symring.union", False),
    ("symring", "Polynomial.__mul__", "symring.poly_mul", False),
    ("symring", "complete_block", "symring.block_family", False),
    ("symring", "elementary_block", "symring.block_family", False),
    ("linalg", "RowSpace.insert", "linalg.insert", False),
    ("linalg", "RowSpace.contains", "linalg.contains", False),
    ("linalg", "RowSpace.residual_fraction", "linalg.residual_fraction", False),
    ("linalg", "kernel_basis", "linalg.kernel_basis", False),
    ("coinvariant", "CoinvariantRing.__init__", "coinvariant.ring_init", True),
    ("coinvariant", "CoinvariantRing.apply_var", "coinvariant.apply_var", False),
    ("coinvariant", "CoinvariantRing.mul_classes", "coinvariant.mul_classes", False),
    ("coinvariant", "CoinvariantRing.mul_block_h", "coinvariant.mul_block_h", False),
    ("coinvariant", "CoinvariantRing.sym_classes", "coinvariant.sym_classes", False),
    ("coinvariant", "invariant_rows", "coinvariant.invariant_rows", True),
    ("presentation", "build_quotient", "presentation.build_quotient", True),
    ("presentation", "certify_basis", "presentation.certify_basis", True),
    ("presentation", "rel_equivalence", "presentation.rel_equivalence", True),
    ("presentation", "anti_invariant_transfer", "presentation.transfer", True),
    ("presentation", "structure_constants", "presentation.structure_constants", True),
    ("reports", "betti", "reports.betti", True),
    ("reports", "components", "reports.components", True),
    ("reports", "poset_edges", "reports.poset_edges", True),
    ("cli", "main", "cli.cmd", True),
)


class Tracer:
    """Counts, times and spans of wrapped calls, kept in memory."""

    def __init__(self):
        self.stats = {}  # name -> [calls, total_s, self_s]
        self.counters = {}
        self.spans = []  # (name, op, start, end, parent span index or -1)
        self.absent = []
        self.op = None
        self._stack = []  # frames [child_s, span index]

    def _stat(self, name):
        return self.stats.setdefault(name, [0, 0.0, 0.0])

    def add(self, name, value):
        self.counters[name] = self.counters.get(name, 0) + value

    def maximum(self, name, value):
        self.counters[name] = max(self.counters.get(name, value), value)

    def wrap(self, fn, name, keep_span, name_of=None, after=None):
        """A wrapper of fn that traces each call under ``name`` (or the name
        ``name_of(args, kwargs)`` gives); ``after(args, result)`` adds counts."""
        stack, spans, clock = self._stack, self.spans, perf_counter
        fixed = None if name_of else self._stat(name)

        def traced(*args, **kwargs):
            call = name_of(args, kwargs) if name_of else name
            stat = fixed or self._stat(call)
            parent = stack[-1][1] if stack else -1
            span = len(spans) if keep_span else parent
            if keep_span:
                spans.append(None)
            frame = [0.0, span]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                if keep_span:
                    spans[span] = (call, self.op, start, end, parent)
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every target in the imported ``spaltenstein`` modules."""
        modules = [
            m for n, m in sys.modules.items()
            if n == "spaltenstein" or n.startswith("spaltenstein.")
        ]
        hooks = {
            "tableaux.enumerate": (None, lambda a, r: self.add("tableaux.enumerate.tableaux_out", len(r))),
            "linalg.insert": (None, self._after_insert),
            "presentation.build_quotient": (_family_name, self._after_build),
            "cli.cmd": (_command_name, None),
        }
        for module_name, attr, name, keep_span in TARGETS:
            module = sys.modules.get("spaltenstein." + module_name)
            owner_name, _, method = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            fn = owner.__dict__.get(method) if owner is not None else None
            if fn is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            name_of, after = hooks.get(name, (None, None))
            wrapped = self.wrap(fn, name, keep_span, name_of, after)
            if owner_name:
                setattr(owner, method, wrapped)
                continue
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, key, wrapped)

    def _after_insert(self, args, grew):
        space = args[0]
        if grew:
            self.add("linalg.insert.gains", 1)
        self.maximum("linalg.insert.width_max", space.width)

    def _after_build(self, args, quotient):
        ranks = 0
        for t in range(quotient.stop_x + 1):
            space = quotient.ideal_space(t)
            ranks += space.rank if space is not None else 0
        self.add("presentation.ideal_rank.sum", ranks)

    def begin_op(self, op):
        self.op = op

    def dump(self):
        """Aggregates as plain data, for merging across processes."""
        return {
            "stats": self.stats,
            "counters": self.counters,
            "absent": self.absent,
            "spans": len(self.spans),
        }

    def write_spans(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                if span is not None:
                    fh.write(json.dumps(span) + "\n")


def _family_name(args, kwargs):
    family = kwargs.get("family", args[2] if len(args) > 2 else "H")
    return f"presentation.build_quotient.{family}"


def _command_name(args, kwargs):
    argv = kwargs.get("argv", args[0] if args else None) or sys.argv[1:]
    return f"cli.cmd.{argv[0]}" if argv else "cli.cmd"


def merge(dumps):
    """Sum the aggregates of several traced processes (one per CLI call)."""
    out = {"stats": {}, "counters": {}, "caches": {}, "caches_absent": [],
           "absent": [], "spans": 0, "import_s": []}
    for d in dumps:
        for name, value in d["caches"].items():
            out["caches"][name] = out["caches"].get(name, 0) + value
        out["caches_absent"] = sorted(set(out["caches_absent"]) | set(d["caches_absent"]))
        out["import_s"] += d["import_s"]
        for name, (calls, total, self_s) in d["stats"].items():
            s = out["stats"].setdefault(name, [0, 0.0, 0.0])
            s[0] += calls
            s[1] += total
            s[2] += self_s
        for name, value in d["counters"].items():
            if name.endswith("_max"):
                out["counters"][name] = max(out["counters"].get(name, value), value)
            else:
                out["counters"][name] = out["counters"].get(name, 0) + value
        out["absent"] = sorted(set(out["absent"]) | set(d["absent"]))
        out["spans"] += d["spans"]
    return out


def cache_sizes():
    """Sizes of the library's module-level caches, read after a run; a cache
    that no longer exists under its name is reported as absent."""
    sizes, absent = {}, []
    pres = sys.modules.get("spaltenstein.presentation")
    coin = sys.modules.get("spaltenstein.coinvariant")
    tab = sys.modules.get("spaltenstein.tableaux")
    for metric, owner, attr in (
        ("presentation.inv_cache.size", pres, "_INV_CACHE"),
        ("presentation.regular_cache.size", pres, "_REGULAR_CACHE"),
    ):
        cache = getattr(owner, attr, None)
        if isinstance(cache, dict):
            sizes[metric] = len(cache)
        else:
            absent.append(metric)
    rings = getattr(coin, "_RINGS", None)
    for metric, attr in (
        ("coinvariant.nf_memo.size", "_nf"),
        ("coinvariant.var_matrix.size", "_var_matrices"),
        ("coinvariant.sym_cache.size", "_sym_classes"),
    ):
        if isinstance(rings, dict) and all(hasattr(r, attr) for r in rings.values()):
            sizes[metric] = sum(len(getattr(r, attr)) for r in rings.values())
        else:
            absent.append(metric)
    info = getattr(getattr(tab, "_reduce_raw", None), "cache_info", None)
    if info is not None:
        ci = info()
        sizes["tableaux.reduce_cache.hits"] = ci.hits
        sizes["tableaux.reduce_cache.misses"] = ci.misses
        sizes["tableaux.reduce_cache.size"] = ci.currsize
    else:
        absent += [f"tableaux.reduce_cache.{k}" for k in ("hits", "misses", "size")]
    return sizes, absent
