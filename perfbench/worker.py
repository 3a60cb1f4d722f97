"""One pass of one workload in a fresh interpreter.

Imports the library, generates the pass's op list, prints ``ready`` (the
parent times set-up up to that line), runs every op once with its own
clock, checks each output against the reference digest and the
independent checks, and prints one JSON result as its last line.

    python3 perfbench/worker.py --workload sweep_d5 --seed 1 --pass-index 0 \\
        --reference perfbench/reference.json [--trace-dir DIR] [--tiny]
        [--setup-only] [--record]

``--record`` prints the digests instead of checking them; it is how
``reference.json`` was made from the seed code.
"""

import argparse
import json
import os
import resource
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from speed import SpeedMeter, factor_now  # noqa: E402
from workloads import (  # noqa: E402
    CLI_EXAMPLES,
    PAIR_OPS,
    cli_digest,
    input_properties,
    library_env,
    op_keys,
    pair_inputs,
    shuffled,
)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--pass-index", type=int, default=0)
    p.add_argument("--reference")
    p.add_argument("--trace-dir")
    p.add_argument("--tiny", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--record", action="store_true")
    return p.parse_args(argv)


def run_cli(key, trace_file):
    """One CLI invocation in a fresh interpreter; returns (exit code, stdout)."""
    argv = next(a for a in CLI_EXAMPLES if " ".join(a) == key)
    if trace_file:
        cmd = [sys.executable, os.path.join(HERE, "traced_cli.py"), trace_file, *argv]
    else:
        cmd = [sys.executable, "-m", "spaltenstein.cli", *argv]
    proc = subprocess.run(cmd, cwd=ROOT, env=library_env(ROOT), capture_output=True,
                          timeout=120)
    return proc.returncode, proc.stdout


def main(argv=None):
    args = parse_args(argv)
    factor = factor_now()
    t0 = perf_counter()
    import spaltenstein as sp
    import spaltenstein.cli  # noqa: F401  (the set-up imports what the CLI imports)
    import_raw_s = perf_counter() - t0
    keys = shuffled(op_keys(args.workload, args.tiny), args.seed, args.pass_index)
    expected = {}
    if args.reference and not args.record:
        with open(args.reference) as fh:
            expected = json.load(fh)[args.workload]
    print("ready", flush=True)
    if args.setup_only:
        return 0

    cli = args.workload == "cli_cold"
    tracer = None
    if args.trace_dir and not cli:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    run, check = PAIR_OPS.get(args.workload, (None, None))
    meter = SpeedMeter()
    intervals, digests, failures, cli_traces = [], {}, [], []
    for i, key in enumerate(keys):
        if tracer is not None:
            tracer.begin_op(i)
        trace_file = None
        if cli and args.trace_dir:
            trace_file = os.path.join(args.trace_dir, f"cli-{args.pass_index}-{i}.json")
        if not cli:
            lam, mu = pair_inputs(sp, key)
        meter.sample()
        start = perf_counter()
        try:
            out = run_cli(key, trace_file) if cli else run(sp, lam, mu)
        except Exception as exc:  # a raise, or a CLI timeout, is a failed op
            intervals.append((start, perf_counter()))
            failures.append({"op": key, "error": f"{type(exc).__name__}: {exc}"})
            continue
        intervals.append((start, perf_counter()))
        if cli:
            got, bad = cli_digest(*out), [] if out[0] == 0 else [f"exit code {out[0]}"]
            if trace_file:
                with open(trace_file) as fh:
                    cli_traces.append(json.load(fh))
        else:
            got, bad = check(sp, lam, mu, out)
        digests[key] = got
        if not args.record and expected.get(key) != got:
            bad.append("output differs from the reference")
        if bad:
            failures.append({"op": key, "error": "; ".join(bad)})
    meter.sample(force=True)

    latencies = [meter.scaled(start, end) for start, end in intervals]
    usage = resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF
    result = {
        "workload": args.workload,
        "pass_index": args.pass_index,
        "attempted": len(keys),
        "failed": len(failures),
        "failures": failures[:20],
        "latencies_s": latencies,
        "wall_s": sum(latencies),
        "raw_latencies_s": [end - start for start, end in intervals],
        "probes": len(meter.durations),
        "import_s": import_raw_s * factor,
        "rss_kb": resource.getrusage(usage).ru_maxrss,
        "input": input_properties(args.workload, keys),
    }
    if args.record:
        result["digests"] = digests
    if args.trace_dir:
        from tracing import cache_sizes, merge

        if cli:
            result["trace"] = merge(cli_traces)
        else:
            trace = result["trace"] = tracer.dump()
            trace["caches"], trace["caches_absent"] = cache_sizes()
            trace["import_s"] = [import_raw_s]
            tracer.write_spans(
                os.path.join(args.trace_dir, f"spans-{args.workload}-{args.pass_index}.jsonl")
            )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
