"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload tree_lstm_infer --seed 0 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off. ``--trace
1`` runs one untraced repeat, then installs the span tracer and reports
the per-layer metrics. ``--workload all`` runs every workload, each in
its own process. The last line of standard output is one JSON object;
the lines before it are the same metrics as a table, with units and
sample counts. A full record (every metric, both kinds) is written to
``.bench_out/`` at the repository root. The exit code is 0 only when
every output was correct. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"

# One thread per workload process, fixed before NumPy loads its BLAS.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

WORKLOAD_NAMES = ("bert_compile", "tree_lstm_infer", "fleet_serve")
# Set-up runs at least SETUP_MIN times and until SETUP_MIN_S seconds
# have passed (cheap set-ups get more samples); setup_s is the median.
SETUP_MIN, SETUP_MAX, SETUP_MIN_S = 3, 25, 2.0
# Metrics that are pure functions of (code, seed): identical in every
# repeat, in every run, and with tracing on or off.
DETERMINISTIC = (
    "modeled_us_per_token", "modeled_p50_us", "modeled_p95_us",
    "modeled_goodput", "specialized_hit_rate", "warm_first_hit_us",
    "code_bytes", "error_rate",
)


def percentile(values, q: float) -> float:
    import numpy as np  # after the thread pinning above

    return float(np.percentile(values, q))


def end_to_end(setup_s, repeats, peak_rss_mb):
    """Every end-to-end metric as {name: (value, unit, samples)}."""
    from workloads import LATENCY_LIMIT_US

    first = repeats[0]
    infer_ms = [s * 1e3 for r in repeats for s in r.infer_s]
    sent = first.requests
    within = sum(1 for x in first.latencies_us if x <= LATENCY_LIMIT_US)
    n = len(repeats)
    return {
        "setup_s": (statistics.median(setup_s), "s", len(setup_s)),
        "run_s": (statistics.median(r.run_s for r in repeats), "s", n),
        "compile_s": (statistics.median(r.compile_s for r in repeats), "s", n),
        "infer_ms_p50": (percentile(infer_ms, 50), "ms", len(infer_ms)),
        "infer_ms_p95": (percentile(infer_ms, 95), "ms", len(infer_ms)),
        "sim_req_per_s": (
            sum(r.requests for r in repeats) / sum(r.serve_s for r in repeats),
            "req/s", sum(r.requests for r in repeats),
        ),
        "peak_rss_mb": (peak_rss_mb, "MB", 1),
        "modeled_us_per_token": (first.modeled_busy_us / first.tokens, "virtual_us", first.tokens),
        "modeled_p50_us": (percentile(first.latencies_us, 50), "virtual_us", len(first.latencies_us)),
        "modeled_p95_us": (percentile(first.latencies_us, 95), "virtual_us", len(first.latencies_us)),
        "modeled_goodput": (within / sent, "share", sent),
        "specialized_hit_rate": (first.specialized_hit_rate, "share", sent),
        "warm_first_hit_us": (first.warm_first_hit_us, "virtual_us", 1),
        "code_bytes": (float(first.code_bytes), "bytes", 1),
        "error_rate": ((first.refused + first.failed) / first.attempted, "share", first.attempted),
    }


def deterministic_view(repeat_metrics):
    return {k: repeat_metrics[k][0] for k in DETERMINISTIC}


def per_layer(tracer, repeats, untraced_run_s):
    """Every per-layer metric as {name: (value, unit, samples)} over the
    traced repeats; times and counts are per repeat."""
    n = len(repeats)
    calls, total, own, counts = tracer.calls, tracer.total_s, tracer.self_s, tracer.counts
    passes = {}
    for timings in [r.pass_timings for r in tracer.build_reports] + tracer.prefix_timings:
        for name, seconds in timings.items():
            passes[name] = passes.get(name, 0.0) + seconds
    memory = [r.memory for r in tracer.build_reports if r.memory is not None]
    layer = {}
    for r in repeats:
        for key, value in r.layer.items():
            layer.setdefault(key, value)

    def per(x):
        return x / n

    def ratio(a, b):
        return a / b if b else 0.0

    metrics = {}
    for name in ("InferType", "FoldConstant", "SimplifyExpressions", "ToANF",
                 "CommonSubexprElimination", "DeadCodeElimination",
                 "LambdaLift", "FuseOps"):
        metrics[f"passes.{name}_s"] = (per(passes.get(name, 0.0)), "s")
    metrics.update({
        "core.memory.MemoryPlan_s": (per(passes.get("MemoryPlan", 0.0)), "s"),
        "core.memory.ManifestAlloc_s": (per(passes.get("ManifestAlloc", 0.0)), "s"),
        "core.device.DevicePlace_s": (per(passes.get("DevicePlace", 0.0)), "s"),
        "core.memory.allocs_after": (per(sum(m.allocs_after for m in memory)), "count"),
        "core.memory.kills_inserted": (per(sum(m.kills_inserted for m in memory)), "count"),
        "vm.compiler.codegen_s": (per(own["vm.compiler.compile"]), "s"),
        "vm.schedule.schedule_s": (per(total["vm.schedule"]), "s"),
        "analysis.verify_s": (per(total["analysis.verify"]), "s"),
        "analysis.verify_calls": (per(calls["analysis.verify"]), "count"),
        "nimble.build_s": (per(total["nimble.build"]), "s"),
        "nimble.prefix_s": (per(total["nimble.prefix"]), "s"),
        "nimble.specialize_s": (per(total["nimble.specialize"]), "s"),
        "vm.run_calls": (per(calls["vm.run"]), "count"),
        "vm.instructions": (per(counts["vm.instructions"]), "count"),
        "vm.dispatch_self_s": (per(own["vm.run"]), "s"),
        "vm.ns_per_instruction": (
            ratio(own["vm.run"] * 1e9, counts["vm.instructions"]), "ns"),
        "codegen.invoke_cost_s": (per(total["codegen.invoke_cost"]), "s"),
        "codegen.invoke_cost_calls": (per(calls["codegen.invoke_cost"]), "count"),
        "codegen.invoke_cost_distinct_ratio": (
            ratio(counts["codegen.invoke_distinct"], calls["codegen.invoke_cost"]), "share"),
        "codegen.shape_func_s": (per(total["codegen.shape_func"]), "s"),
        "codegen.shape_func_calls": (per(calls["codegen.shape_func"]), "count"),
        "ops.kernel_run_s": (per(total["ops.kernel_run"]), "s"),
        "ops.kernel_run_calls": (per(calls["ops.kernel_run"]), "count"),
        "runtime.alloc_calls": (per(calls["runtime.alloc"]), "count"),
        "runtime.alloc_s": (per(total["runtime.alloc"] + total["runtime.free"]), "s"),
        "runtime.pool_hit_rate": (ratio(counts["runtime.pooled"], calls["runtime.alloc"]), "share"),
        "serve.run_batch_s": (per(total["serve.run_batch"]), "s"),
        "serve.batch_size_mean": (layer.get("serve.batch_size_mean", 0.0), "count"),
        "serve.queue_wait_us_p50": (layer.get("serve.queue_wait_us_p50", 0.0), "virtual_us"),
        "serve.worker_utilization": (layer.get("serve.worker_utilization", 0.0), "share"),
        "serve.specialization.compile_s": (per(counts["serve.compile_s"]), "s"),
    })
    for name, unit in (("compile_charge_us", "virtual_us"), ("fresh_compiles", "count"),
                       ("restored", "count"), ("evictions", "count"),
                       ("predictive_hits", "count"), ("useful_ratio", "share")):
        key = f"serve.specialization.{name}"
        metrics[key] = (layer.get(key, 0.0), unit)
    metrics.update({
        "store.put_s": (per(total["store.put"]), "s"),
        "store.put_calls": (per(calls["store.put"]), "count"),
        "store.get_s": (per(total["store.get"]), "s"),
        "store.get_calls": (per(calls["store.get"]), "count"),
        "store.get_hit_ratio": (ratio(counts["store.get_hits"], calls["store.get"]), "share"),
        "store.rejects": (layer.get("store.rejects", 0.0), "count"),
        "store.gc.collect_s": (per(total["store.gc.collect"]), "s"),
        "store.gc.pruned": (layer.get("store.gc.pruned", 0.0), "count"),
        "fleet.loop_self_s": (per(own["fleet.simulate"]), "s"),
        "fleet.admit_calls": (per(calls["fleet.admit"]), "count"),
        "fleet.affinity_rate": (layer.get("fleet.affinity_rate", 0.0), "share"),
        "fleet.admitted": (layer.get("fleet.admitted", 0.0), "count"),
        "fleet.rejected": (layer.get("fleet.rejected", 0.0), "count"),
        "trace_overhead_ratio": (
            statistics.median(r.run_s for r in repeats) / untraced_run_s, "ratio"),
    })
    return {k: (float(v), unit, n) for k, (v, unit) in metrics.items()}


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def print_table(title, metrics) -> None:
    print(f"== {title}")
    for name, (value, unit, samples) in metrics.items():
        print(f"  {name:<44} {value:>16.6g} {unit:<10} n={samples}")


def run_workload(args) -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import spans
        import workloads
    except ImportError as exc:
        print(f"cannot import the program from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    scratch = OUT / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    # Anything the program puts in a temp dir stays in the checkout.
    os.environ["TMPDIR"] = str(scratch)
    tempfile.tempdir = str(scratch)

    workload = workloads.make(args.workload, args.seed, scratch)
    setup_s = []
    while len(setup_s) < SETUP_MAX and (
        len(setup_s) < SETUP_MIN or sum(setup_s) < SETUP_MIN_S
    ):
        start = time.perf_counter()
        workload.setup()
        setup_s.append(time.perf_counter() - start)
    workload.prepare()

    stopwatch = spans.Stopwatch().install()
    tracer = None
    repeats = []
    untraced = []
    start = time.perf_counter()
    try:
        if args.trace:
            untraced.append(workload.repeat(stopwatch))
            tracer = spans.Tracer().install()
        while True:
            repeats.append(workload.repeat(stopwatch, tracer))
            if tracer is not None:
                tracer.end_repeat()
            if time.perf_counter() - start >= args.seconds:
                break
    finally:
        if tracer is not None:
            tracer.remove()
        stopwatch.remove()
    rss = peak_rss_mb()

    # Every repeat -- untraced or traced -- must reproduce the modeled
    # numbers of the first exactly.
    all_repeats = untraced + repeats
    views = [deterministic_view(end_to_end(setup_s, [r], rss)) for r in all_repeats]
    failures = [
        f"repeat {i} modeled metrics differ from repeat 0: {view} != {views[0]}"
        for i, view in enumerate(views) if view != views[0]
    ]
    failed = sum(r.failed for r in all_repeats) + len(failures)
    attempted = sum(r.attempted for r in all_repeats)
    for r in all_repeats:
        failures.extend(r.notes)

    e2e = end_to_end(setup_s, untraced or repeats, rss)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "repeats": len(repeats), "untraced_repeats": len(untraced),
        "end_to_end": {k: {"value": v, "unit": u, "samples": s} for k, (v, u, s) in e2e.items()},
        "failures": failures[:50],
    }
    if tracer is not None:
        layers = per_layer(tracer, repeats, untraced[0].run_s)
        for key in ("specialized_hit_rate", "warm_first_hit_us", "error_rate"):
            layers[key] = e2e[key]
        record["traced_end_to_end"] = {
            k: {"value": v, "unit": u, "samples": s}
            for k, (v, u, s) in end_to_end(setup_s, repeats, rss).items()
        }
        record["per_layer"] = {k: {"value": v, "unit": u, "samples": s} for k, (v, u, s) in layers.items()}
        trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.npz"
        record["spans"] = tracer.write(trace_file)
        record["span_file"] = str(trace_file.relative_to(ROOT))
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True)
    )

    print_table(f"{args.workload} seed={args.seed} end-to-end"
                + (" (untraced repeat)" if args.trace else ""), e2e)
    reported = e2e
    if tracer is not None:
        print_table(f"{args.workload} per-layer ({len(repeats)} traced repeats, "
                    f"{record['spans']} spans -> {record['span_file']})", layers)
        reported = layers
    for line in failures[:20]:
        print(f"FAILED: {line}")
    correct = failed == 0
    names = _metric_names("per_layer" if args.trace else "end_to_end")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": reported[k][0], "unit": reported[k][1]} for k in names},
    }))
    return 0 if correct else 1


def _metric_names(kind: str):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec[kind]]


def run_all(args) -> int:
    """Each workload in its own process; one summary line at the end."""
    status, attempted, failed, metrics = 0, 0, 0, {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        status = status or proc.returncode
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            print(lines[-1])
            return proc.returncode or 1
        attempted += result["attempted"]
        failed += result["failed"]
        for key, value in result["metrics"].items():
            metrics[f"{name}.{key}"] = value
    print(json.dumps({"correct": status == 0 and failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
