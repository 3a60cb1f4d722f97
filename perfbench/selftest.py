"""Fast self-test of the benchmark on tiny inputs (about a minute).

    python3 perfbench/selftest.py

Runs every workload untraced and traced on tiny inputs, checks that every
metric is present with its unit and that ``BENCHMARK.json`` names only
metrics the benchmark produces, checks that a corrupted reference makes
``failed_ratio`` non-zero on every workload and the exit code non-zero,
checks that a copy holding only ``BENCHMARK.json`` and ``perfbench/``
exits non-zero without printing a result, checks that every metric
``BENCHMARK.json`` names is non-zero in the recorded seed baseline, and
checks that the speed probe is not slowed by garbage collection.
"""

import json
import os
import shutil
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out", "selftest")
WORKLOAD_NAMES = ("sweep_d5", "keys_d6", "transfer_d5", "cli_cold")

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "op_tail_ms": "ms",
    "peak_rss_mb": "MB", "failed_ratio": "1",
}
PER_LAYER = {
    **{f"tableaux.{n}": u for n, u in (
        ("enumerate.calls", "count"), ("enumerate.self_s", "s"),
        ("enumerate.tableaux_out", "count"), ("degree.self_s", "s"),
        ("straighten.self_s", "s"), ("cell_order.calls", "count"),
        ("cell_order.self_s", "s"), ("reduce_cache.hits", "count"),
        ("reduce_cache.misses", "count"), ("reduce_cache.size", "count"))},
    **{f"symring.{n}": u for n, u in (
        ("union.calls", "count"), ("union.self_s", "s"), ("poly_mul.calls", "count"),
        ("poly_mul.self_s", "s"), ("block_family.self_s", "s"))},
    **{f"linalg.{n}": u for n, u in (
        ("insert.calls", "count"), ("insert.gains", "count"), ("insert.gain_ratio", "1"),
        ("insert.self_s", "s"), ("insert.width_max", "count"), ("contains.calls", "count"),
        ("contains.self_s", "s"), ("residual_fraction.calls", "count"),
        ("residual_fraction.self_s", "s"), ("kernel_basis.calls", "count"),
        ("kernel_basis.self_s", "s"))},
    **{f"coinvariant.{n}": u for n, u in (
        ("apply_var.calls", "count"), ("apply_var.self_s", "s"),
        ("mul_classes.calls", "count"), ("mul_classes.self_s", "s"),
        ("mul_block_h.calls", "count"), ("mul_block_h.self_s", "s"),
        ("sym_classes.calls", "count"), ("sym_classes.self_s", "s"),
        ("invariant_rows.calls", "count"), ("invariant_rows.self_s", "s"),
        ("ring_init.self_s", "s"), ("nf_memo.size", "count"),
        ("var_matrix.size", "count"), ("sym_cache.size", "count"))},
    **{f"presentation.{n}": u for n, u in (
        ("build_quotient.H.calls", "count"), ("build_quotient.H.self_s", "s"),
        ("build_quotient.E.calls", "count"), ("build_quotient.E.self_s", "s"),
        ("certify_basis.self_s", "s"), ("rel_equivalence.self_s", "s"),
        ("transfer.self_s", "s"), ("structure_constants.self_s", "s"),
        ("ideal_rank.sum", "count"), ("inv_cache.size", "count"),
        ("regular_cache.size", "count"))},
    "reports.betti.self_s": "s", "reports.components.self_s": "s",
    "reports.poset_edges.self_s": "s", "cli.import_s": "s",
    **{f"cli.cmd_ms.{c}": "ms" for c in (
        "enumerate", "degree", "basis", "present", "hilbert", "verify",
        "components", "transfer", "sweep")},
    **{f"{layer}.self_s": "s" for layer in (
        "tableaux", "symring", "linalg", "coinvariant", "presentation", "reports", "cli")},
    "trace.wall_s": "s", "trace.untraced_wall_s": "s", "trace.overhead_s": "s",
}


def run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=600)


def check_units(found, expected, where):
    for name, unit in expected.items():
        assert name in found, f"{where}: metric {name} missing"
        assert found[name]["unit"] == unit, f"{where}: {name} has unit {found[name]['unit']}"


def test_all_workloads_tiny():
    out = os.path.join(OUT, "BENCH_tiny.json")
    proc = run("perfbench/run.py", "--all", "--tiny", "--trace", "1", "--out", out)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    with open(out) as fh:
        result = json.load(fh)
    env = result["environment"]
    for key in ("python", "nproc", "cpu", "commit", "seed"):
        assert key in env, f"environment lacks {key}"
    assert set(result["workloads"]) == set(WORKLOAD_NAMES)
    for name, w in result["workloads"].items():
        check_units(w["end_to_end"], END_TO_END, name)
        assert w["end_to_end"]["failed_ratio"]["value"] == 0, w["failures"]
        assert w["op_samples"] >= 1 and w["tail_percentile"] > 0
        check_units(w["traced"]["per_layer"], PER_LAYER, name + " traced")
        assert all(m["workload"] == name for m in w["traced"]["per_layer"].values())
        assert set(w["input"]) >= {"zero_mu_share", "zero_free_keys"}
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        contract = json.load(fh)
    assert {w["name"] for w in contract["workloads"]} <= set(WORKLOAD_NAMES)
    check_units({m["name"]: m for m in contract["end_to_end"]},
                {m["name"]: END_TO_END[m["name"]] for m in contract["end_to_end"]}, "contract")
    check_units({m["name"]: m for m in contract["per_layer"]},
                {m["name"]: PER_LAYER[m["name"]] for m in contract["per_layer"]}, "contract")


def test_result_line():
    for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
        proc = run("perfbench/run.py", "--workload", "keys_d6", "--seed", "3",
                   "--seconds", "1", "--trace", trace, "--tiny")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        line = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            names = [m["name"] for m in json.load(fh)[section]]
        assert sorted(line["metrics"]) == sorted(names)


def test_corrupted_reference_fails():
    with open(os.path.join(HERE, "reference.json")) as fh:
        reference = json.load(fh)
    for ops in reference.values():
        for key in ops:
            ops[key] = "0" * 16
    corrupt = os.path.join(OUT, "reference-corrupt.json")
    with open(corrupt, "w") as fh:
        json.dump(reference, fh)
    out = os.path.join(OUT, "BENCH_corrupt.json")
    proc = run("perfbench/run.py", "--all", "--tiny", "--reference", corrupt, "--out", out)
    assert proc.returncode != 0
    with open(out) as fh:
        result = json.load(fh)
    for name, w in result["workloads"].items():
        assert w["end_to_end"]["failed_ratio"]["value"] > 0, name
    proc = run("perfbench/run.py", "--workload", "sweep_d5", "--seconds", "1", "--tiny",
               "--reference", corrupt)
    assert proc.returncode != 0
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert line["correct"] is False and line["failed"] == line["attempted"]


def test_without_program_fails():
    bare = os.path.join(OUT, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = run("perfbench/run.py", "--workload", "sweep_d5", "--seed", "1",
               "--seconds", "1", "--trace", "0", cwd=bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_contract_metrics_nonzero_in_baseline():
    """The driver refuses a metric whose value is 0, so every metric that
    ``BENCHMARK.json`` names must be non-zero on every full-size workload of
    the recorded seed baseline."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        contract = json.load(fh)
    with open(os.path.join(HERE, "baseline", "BENCH_seed.json")) as fh:
        baseline = json.load(fh)["workloads"]
    assert set(baseline) == {w["name"] for w in contract["workloads"]}
    for name, w in baseline.items():
        for section, found in (("end_to_end", w["end_to_end"]),
                               ("per_layer", w["traced"]["per_layer"])):
            for m in contract[section]:
                assert found[m["name"]]["value"] != 0, f"{name}: {m['name']} is 0"


def test_probe_isolated_from_heap():
    """The speed probe runs no garbage collection, however large the live
    heap and however low the collector's threshold, and takes as long
    beside a large heap as without it."""
    sys.path.insert(0, HERE)
    import gc
    from statistics import median

    from speed import SpeedMeter

    def probes():
        meter = SpeedMeter()
        for _ in range(300):
            meter.sample(force=True)
        return meter

    collected = []
    callback = lambda phase, info: collected.append(perf_counter())  # noqa: E731
    threshold = gc.get_threshold()
    before = median(probes().durations)
    heap = [(i, [i]) for i in range(1_000_000)]
    gc.set_threshold(1)
    gc.callbacks.append(callback)
    try:
        meter = probes()
    finally:
        gc.callbacks.remove(callback)
        gc.set_threshold(*threshold)
    del heap
    after = median(probes().durations)
    assert collected, "the low threshold ran no collection at all"
    inside = [t for t in collected
              if any(s <= t <= s + d for s, d in zip(meter.times, meter.durations))]
    assert not inside, f"{len(inside)} collection phases ran during probes"
    beside = median(meter.durations)
    assert beside < 1.3 * max(before, after), (before, beside, after)


def main():
    os.makedirs(OUT, exist_ok=True)
    tests = [test_contract_metrics_nonzero_in_baseline, test_probe_isolated_from_heap,
             test_all_workloads_tiny, test_result_line, test_corrupted_reference_fails,
             test_without_program_fails]
    for test in tests:
        test()
        print(f"ok {test.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
