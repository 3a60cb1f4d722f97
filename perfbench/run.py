"""Benchmark of the spaltenstein library and CLI.

One workload, ending with one JSON result line:

    python3 perfbench/run.py --workload sweep_d5 --seed 1 --seconds 20 --trace 0

All four workloads, one after another, with a table of every metric and a
result file (exits non-zero when any output differs from its reference):

    python3 perfbench/run.py --all [--trace 1] [--seed 1] [--out FILE]

Closed loop, one client: one op at a time, one child process at a time.
Every pass of a workload runs in a fresh interpreter (``worker.py``), so
the library's module-level caches start empty and each pass pays for
filling them.  A run makes as many passes as fill ``--seconds`` at the
workload's nominal pass time, at least one; every pass takes under
ten seconds at reference speed.  ``setup_s`` is the time from
starting a fresh interpreter to the library imported and the op list
generated, the median of several.  Every time is rescaled to a reference
machine speed by ``speed.py``; result files keep the measured times too.

With ``--trace 1`` the run makes half its passes untraced and then half
traced (at least one of each), and reports the per-layer counts and self
times of the traced ones and the tracing overhead (traced minus untraced
``wall_s``).  The last line of standard output is always one JSON
object with ``correct``, ``attempted``, ``failed`` and the metrics named
in ``BENCHMARK.json``.

Every op's output is checked against ``reference.json`` (digests recorded
from the seed code with ``--write-reference``) and by independent checks;
``selftest.py`` checks the benchmark itself on tiny inputs.
"""

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from speed import factor_now  # noqa: E402
from workloads import WORKLOADS, library_env  # noqa: E402

WORKER = os.path.join(HERE, "worker.py")
REFERENCE = os.path.join(HERE, "reference.json")
OUT_DIR = os.path.join(ROOT, ".bench_out")
SETUP_ONLY_SAMPLES = 11
MAX_PASSES = 40
# Untraced time of one pass at reference speed (see speed.py), 2 vCPU,
# Python 3.11.
NOMINAL_PASS_S = {"sweep_d5": 8.5, "keys_d6": 10.3, "transfer_d5": 8.7, "cli_cold": 1.6}
WORKER_TIMEOUT_S = 170
TAIL_PERCENTILES = (99.9, 99, 98, 95, 90, 80, 75, 50)
CLI_COMMANDS = (
    "enumerate", "degree", "basis", "present", "hilbert",
    "verify", "components", "transfer", "sweep",
)
LAYERS = ("tableaux", "symring", "linalg", "coinvariant", "presentation", "reports", "cli")


class BenchError(Exception):
    pass


def library_present():
    return os.path.isfile(os.path.join(ROOT, "src", "spaltenstein", "__init__.py"))


def spawn(workload, seed, pass_index=0, *, setup_only=False, trace_dir=None,
          tiny=False, reference=REFERENCE, record=False):
    """One worker process; returns its result with the measured setup_s."""
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
           "--pass-index", str(pass_index)]
    if reference and not record:
        cmd += ["--reference", reference]
    for flag, on in (("--setup-only", setup_only), ("--tiny", tiny), ("--record", record)):
        if on:
            cmd.append(flag)
    if trace_dir:
        cmd += ["--trace-dir", trace_dir]
    factor = factor_now(5)
    start = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=library_env(ROOT), stdout=subprocess.PIPE,
                            text=True)
    watchdog = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        setup_raw_s = perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if first.strip() != "ready" or code != 0:
        raise BenchError(f"worker for {workload} pass {pass_index} exited with code {code}")
    result = json.loads(rest.strip().splitlines()[-1]) if not setup_only else {}
    result["setup_s"] = setup_raw_s * factor
    result["setup_raw_s"] = setup_raw_s
    return result


def pass_count(workload, seconds, tiny):
    """Passes that fill ``seconds`` at the nominal pass time, at least one.

    The count depends on the budget only, not on measured times, so every
    run of a workload pools the same number of op samples and reads its
    tail at the same percentile."""
    return 1 if tiny else max(1, min(MAX_PASSES, round(seconds / NOMINAL_PASS_S[workload])))


def timed_passes(workload, seed, count, tiny, reference, trace_dir=None, first_index=0):
    """``count`` passes, each in a fresh interpreter."""
    return [spawn(workload, seed, first_index + i, trace_dir=trace_dir, tiny=tiny,
                  reference=reference) for i in range(count)]


def percentile(ordered, p, window=0.005):
    """Estimate of the p-th percentile of sorted samples, and the number of
    samples beyond its nearest rank.

    The estimate is the mean of the order statistics within
    ``window * n`` ranks of the nearest rank.  Neighbouring ops often cost
    nearly the same (the heaviest pairs of a workload come in clusters),
    so a single order statistic jumps with per-op noise; the mean over a
    narrow window does not, and equals the order statistic when the window
    is under one rank."""
    n = len(ordered)
    rank = max(1, math.ceil(n * p / 100))
    k = int(n * window)
    return statistics.fmean(ordered[max(0, rank - 1 - k):rank + k]), n - rank


def median_op(ordered):
    """The mean of the central fifth of the samples (ranks 40% to 60%).

    A workload's ops fall into classes of very different cost, with gaps
    between them; when the median rank sits at a gap, a single order
    statistic jumps across it as the shuffled order moves which ops pay
    for filling the caches.  The mean over the central fifth does not."""
    return percentile(ordered, 50, window=0.1)[0]


def tail(ordered):
    """Latency at the highest percentile with at least ten samples beyond it."""
    for p in TAIL_PERCENTILES:
        value, beyond = percentile(ordered, p)
        if beyond >= 10 or p == TAIL_PERCENTILES[-1]:
            return value, p, beyond


def summarize(setups, passes):
    """End-to-end metrics of a run from its set-up samples and passes."""
    latencies = sorted(x for r in passes for x in r["latencies_s"])
    raw_latencies = sorted(x for r in passes for x in r["raw_latencies_s"])
    attempted = sum(r["attempted"] for r in passes)
    failed = sum(r["failed"] for r in passes)
    tail_s, tail_p, beyond = tail(latencies)
    return {
        "end_to_end": {
            "setup_s": (statistics.median(r["setup_s"] for r in setups), "s"),
            "wall_s": (statistics.median(r["wall_s"] for r in passes), "s"),
            "op_p50_ms": (median_op(latencies) * 1e3, "ms"),
            "op_tail_ms": (tail_s * 1e3, "ms"),
            "peak_rss_mb": (statistics.median(r["rss_kb"] for r in passes) / 1024, "MB"),
            "failed_ratio": (failed / attempted, "1"),
        },
        "measured": {
            "setup_s": statistics.median(r["setup_raw_s"] for r in setups),
            "wall_s": statistics.median(sum(r["raw_latencies_s"]) for r in passes),
            "op_p50_ms": median_op(raw_latencies) * 1e3,
            "op_tail_ms": tail(raw_latencies)[0] * 1e3,
            "speed_factors": [r["wall_s"] / sum(r["raw_latencies_s"]) for r in passes],
        },
        "tail_percentile": tail_p,
        "tail_samples_beyond": beyond,
        "op_samples": len(latencies),
        "passes": len(passes),
        "setup_samples": len(setups),
        "attempted": attempted,
        "failed": failed,
        "failures": [f for r in passes for f in r["failures"]][:20],
        "input": passes[0]["input"],
    }


def run_untraced(workload, seed, seconds, tiny=False, reference=REFERENCE):
    setups = [spawn(workload, seed, setup_only=True, tiny=tiny)
              for _ in range(SETUP_ONLY_SAMPLES)]
    passes = timed_passes(workload, seed, pass_count(workload, seconds, tiny), tiny, reference)
    return summarize(setups + passes, passes)


def layer_metrics(trace, scale):
    """Per-layer metrics of one traced pass, as {name: (value, unit)}; times
    are multiplied by the pass's speed factor ``scale``."""
    stats, counters, caches = trace["stats"], trace["counters"], trace["caches"]

    def calls(name):
        return stats.get(name, (0, 0.0, 0.0))[0]

    def self_s(name):
        return stats.get(name, (0, 0.0, 0.0))[2] * scale

    m = {}
    for stem in ("tableaux.enumerate", "tableaux.cell_order", "symring.union",
                 "symring.poly_mul", "linalg.insert", "linalg.contains",
                 "linalg.residual_fraction", "linalg.kernel_basis",
                 "coinvariant.apply_var", "coinvariant.mul_classes",
                 "coinvariant.mul_block_h", "coinvariant.sym_classes",
                 "coinvariant.invariant_rows", "presentation.build_quotient.H",
                 "presentation.build_quotient.E"):
        m[stem + ".calls"] = (calls(stem), "count")
        m[stem + ".self_s"] = (self_s(stem), "s")
    for stem in ("tableaux.degree", "tableaux.straighten", "symring.block_family",
                 "coinvariant.ring_init", "presentation.certify_basis",
                 "presentation.rel_equivalence", "presentation.transfer",
                 "presentation.structure_constants", "reports.betti",
                 "reports.components", "reports.poset_edges"):
        m[stem + ".self_s"] = (self_s(stem), "s")
    m["tableaux.enumerate.tableaux_out"] = (counters.get("tableaux.enumerate.tableaux_out", 0), "count")
    gains = counters.get("linalg.insert.gains", 0)
    inserts = calls("linalg.insert")
    m["linalg.insert.gains"] = (gains, "count")
    m["linalg.insert.gain_ratio"] = (gains / inserts if inserts else 0.0, "1")
    m["linalg.insert.width_max"] = (counters.get("linalg.insert.width_max", 0), "count")
    m["presentation.ideal_rank.sum"] = (counters.get("presentation.ideal_rank.sum", 0), "count")
    for name in ("tableaux.reduce_cache.hits", "tableaux.reduce_cache.misses",
                 "tableaux.reduce_cache.size", "coinvariant.nf_memo.size",
                 "coinvariant.var_matrix.size", "coinvariant.sym_cache.size",
                 "presentation.inv_cache.size", "presentation.regular_cache.size"):
        m[name] = (caches.get(name, 0), "count")
    m["cli.import_s"] = (statistics.median(trace["import_s"]) * scale, "s")
    for cmd in CLI_COMMANDS:
        stat = stats.get("cli.cmd." + cmd, (0, 0.0, 0.0))
        m["cli.cmd_ms." + cmd] = (stat[1] * scale * 1e3, "ms")
    for layer in LAYERS:
        total = sum(s[2] for name, s in stats.items() if name.startswith(layer + "."))
        m[layer + ".self_s"] = (total * scale, "s")
    return m


def run_traced(workload, seed, seconds, tiny=False, reference=REFERENCE, untraced_wall=None):
    """Traced passes, with their per-layer metrics as medians over passes."""
    trace_dir = os.path.join(OUT_DIR, "trace", f"{workload}-seed{seed}")
    os.makedirs(trace_dir, exist_ok=True)
    count = -(-pass_count(workload, seconds, tiny) // 2)
    untraced = []
    if untraced_wall is None:
        untraced = timed_passes(workload, seed, count, tiny, reference)
        untraced_wall = statistics.median(r["wall_s"] for r in untraced)
    traced = timed_passes(workload, seed, count, tiny, reference,
                          trace_dir=trace_dir, first_index=len(untraced))
    per_pass = [layer_metrics(r["trace"], r["wall_s"] / sum(r["raw_latencies_s"]))
                for r in traced]
    metrics = {
        name: (statistics.median(p[name][0] for p in per_pass), unit)
        for name, (_, unit) in per_pass[0].items()
    }
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.untraced_wall_s"] = (untraced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    runs = untraced + traced
    absent = sorted({a for r in traced for a in r["trace"]["absent"] + r["trace"]["caches_absent"]})
    return {
        "per_layer": metrics,
        "absent": absent,
        "spans_kept": traced[0]["trace"]["spans"],
        "span_dir": os.path.relpath(trace_dir, ROOT),
        "traced_passes": len(traced),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "failures": [f for r in runs for f in r["failures"]][:20],
    }


def environment(seed):
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True,
            timeout=10, env={**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)},
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": commit,
        "seed": seed,
    }


def load_contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def as_json_metrics(metrics, names):
    return {n: {"value": metrics[n][0], "unit": metrics[n][1]} for n in names}


def print_metrics(workload, metrics, note=""):
    for name, (value, unit) in metrics.items():
        print(f"{workload:12s} {name:44s} {value:14.6g} {unit}{note}")


def write_result(path, data):
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


def serialise(summary, key):
    out = dict(summary)
    out[key] = {n: {"value": v, "unit": u} for n, (v, u) in summary[key].items()}
    return out


def run_one(args, contract):
    """One workload, with one JSON line as the last output."""
    if args.trace:
        summary = run_traced(args.workload, args.seed, args.seconds, args.tiny, args.reference)
        names = [m["name"] for m in contract["per_layer"]]
        metrics, key = summary["per_layer"], "per_layer"
    else:
        summary = run_untraced(args.workload, args.seed, args.seconds, args.tiny, args.reference)
        names = [m["name"] for m in contract["end_to_end"]]
        metrics, key = summary["end_to_end"], "end_to_end"
    print_metrics(args.workload, metrics)
    for f in summary["failures"]:
        print(f"FAILED {f['op']}: {f['error']}")
    label = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    write_result(args.out or os.path.join(OUT_DIR, f"BENCH_{label}.json"), {
        "environment": environment(args.seed),
        "workloads": {args.workload: serialise(summary, key)},
    })
    print(json.dumps({
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": as_json_metrics(metrics, names),
    }))
    return 0 if summary["failed"] == 0 else 1


def run_all(args):
    """Every workload in turn, untraced and (with --trace 1) traced."""
    results, failed = {}, 0
    for workload, why in WORKLOADS.items():
        summary = serialise(
            run_untraced(workload, args.seed, args.seconds, args.tiny, args.reference),
            "end_to_end")
        summary["why"] = why
        print_metrics(workload, {n: (v["value"], v["unit"]) for n, v in summary["end_to_end"].items()},
                      f"   (tail p{summary['tail_percentile']:g}, {summary['op_samples']} op samples)")
        failed += summary["failed"]
        if args.trace:
            traced = run_traced(workload, args.seed, args.seconds, args.tiny, args.reference,
                                untraced_wall=summary["end_to_end"]["wall_s"]["value"])
            print_metrics(workload, traced["per_layer"])
            traced = serialise(traced, "per_layer")
            for m in traced["per_layer"].values():
                m["workload"] = workload
            summary["traced"] = traced
            failed += traced["failed"]
        for f in summary["failures"] + summary.get("traced", {}).get("failures", []):
            print(f"FAILED {workload} {f['op']}: {f['error']}")
        results[workload] = summary
    path = args.out or os.path.join(OUT_DIR, "BENCH_all.json")
    write_result(path, {"environment": environment(args.seed), "seconds": args.seconds,
                        "workloads": results})
    print(f"wrote {os.path.relpath(path, ROOT)}; {failed} failed ops")
    return 0 if failed == 0 else 1


def write_reference(args):
    """Record the digests of every op of every workload from the current code."""
    reference = {}
    for workload in WORKLOADS:
        r = spawn(workload, 0, record=True)
        if r["failed"]:
            raise BenchError(f"{workload}: independent checks failed: {r['failures']}")
        reference[workload] = dict(sorted(r["digests"].items()))
        print(f"{workload}: {len(r['digests'])} ops recorded")
    write_result(args.reference, reference)
    return 0


def parse_args(argv=None):
    p = argparse.ArgumentParser(description="spaltenstein benchmark")
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--all", action="store_true", help="run every workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="result file (default .bench_out/BENCH_<run>.json)")
    p.add_argument("--reference", default=REFERENCE)
    p.add_argument("--write-reference", action="store_true")
    p.add_argument("--tiny", action="store_true", help="tiny inputs, for the self-test")
    args = p.parse_args(argv)
    if not (args.all or args.write_reference or args.workload):
        p.error("give --workload, --all or --write-reference")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not library_present():
        print("perfbench: src/spaltenstein not found next to perfbench/", file=sys.stderr)
        return 2
    contract = load_contract()
    if args.seconds is None:
        args.seconds = contract["run_seconds"]
    try:
        if args.write_reference:
            return write_reference(args)
        if args.all:
            return run_all(args)
        return run_one(args, contract)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
