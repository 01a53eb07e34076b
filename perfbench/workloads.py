"""The three workloads. Each drives only the public API and checks every
output against an independent NumPy reference.

A workload object has three phases:

* ``setup()`` -- model and input construction (plus the startup build or
  router construction where the workload has one). ``run.py`` times it
  several times and reports the median as ``setup_s``.
* ``prepare()`` -- reference outputs, computed once and never timed.
* ``repeat(stopwatch, tracer)`` -- one measured repeat. It starts from
  no caches:
  the in-process prefix cache is cleared, every build gets a fresh
  ``KernelCache``, and ``fleet_serve`` gets a fresh artifact directory
  that is removed afterwards. It returns a :class:`Repeat`. The tracer,
  when given, is told which request the next spans belong to.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Sequence

import numpy as np

import repro.nimble as nimble
from repro.codegen.kernels import KernelCache
from repro.data.mrpc import mrpc_like_lengths
from repro.data.sst import sst_like_trees
from repro.data.vocab import embedding_table
from repro.fleet import FleetConfig, FleetRouter, TenantSpec
from repro.hardware import intel_cpu, nvidia_gpu
from repro.models.bert import BertConfig, BertWeights, bert_reference, build_bert_module
from repro.models.lstm import LSTMWeights, build_lstm_module, lstm_reference
from repro.models.tree_lstm import (
    TreeLSTMWeights,
    build_tree_lstm_module,
    tree_lstm_reference,
    tree_to_adt,
)
from repro.runtime.context import ExecutionContext
from repro.serve import ServeConfig, multi_tenant_traffic
from repro.serve.request import Request
from repro.vm.compiler import CompilerOptions
from repro.vm.interpreter import VirtualMachine

ATOL = 1e-4
# A request meets the latency limit when it finishes within this many
# virtual microseconds of its due time (modeled_goodput).
LATENCY_LIMIT_US = 5000.0


@dataclass
class Repeat:
    """What one measured repeat produced."""

    run_s: float = 0.0
    compile_s: float = 0.0
    # Wall seconds per VirtualMachine.run (per token in fleet_serve).
    infer_s: List[float] = field(default_factory=list)
    # Requests (or inferences) sent, and the wall seconds spent serving
    # them: sim_req_per_s = requests / serve_s.
    requests: int = 0
    serve_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    refused: int = 0
    # Modeled latency per request (virtual µs), tokens per request.
    latencies_us: List[float] = field(default_factory=list)
    tokens: int = 0
    modeled_busy_us: float = 0.0
    code_bytes: int = 0
    specialized_hit_rate: float = 0.0
    warm_first_hit_us: float = 0.0
    # Layer counters read from the program's own reports (modeled or
    # counted, so identical in every repeat).
    layer: Dict[str, float] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.failed += 1
            self.notes.append(what)


def _close(out: np.ndarray, ref: np.ndarray) -> bool:
    return out.shape == ref.shape and bool(np.allclose(out, ref, atol=ATOL))


def _stratified(pool: Sequence, n: int, size, seed: int) -> List:
    """The middle item of each of *n* equal strata of *pool* ranked by
    *size*, in a seed-shuffled order.

    Inputs are drawn this way so that every seed gets the same spread of
    input sizes, up to the pool's own sampling noise: a workload's
    percentiles then compare across seeds, while the structures and all
    values still vary with the seed."""
    ranked = sorted(pool, key=size)
    picks = [ranked[(2 * i + 1) * len(ranked) // (2 * n)] for i in range(n)]
    np.random.RandomState(seed + 11).shuffle(picks)
    return picks


class Workload:
    name = ""

    def __init__(self, seed: int, scratch: Path) -> None:
        self.seed = seed
        self.scratch = scratch


class BertCompile(Workload):
    """BERT-base on ``nvidia_gpu`` with four streams: one dynamic build,
    one ``compile_prefix``, staged ``specialize(prefix=...)`` for a few
    MRPC lengths, then full-numerics inferences."""

    name = "bert_compile"
    num_inferences = 8
    # Each sentence runs this many times, so the p95 of 24 samples is set
    # by the longest sentence's runs, not by one slow outlier.
    passes = 3
    num_variants = 3

    platform = nvidia_gpu()
    options = CompilerOptions(device_streams=4)

    def setup(self) -> None:
        # Drop the previous set-up's model first, so set-ups do not stack.
        self.weights = self.mod = self.inputs = None
        config = BertConfig()
        self.hidden = config.hidden
        self.weights = BertWeights.create(config, seed=self.seed)
        self.mod = build_bert_module(self.weights)
        rng = np.random.RandomState(self.seed + 7)
        self.inputs = [
            (rng.randn(length, config.hidden) * 0.1).astype(np.float32)
            for length in _stratified(
                mrpc_like_lengths(64 * self.num_inferences, self.seed),
                self.num_inferences, int, self.seed,
            )
        ]
        lengths = sorted({x.shape[0] for x in self.inputs})
        step = max(1, len(lengths) // (self.num_variants + 1))
        self.variant_lengths = lengths[step::step][: self.num_variants]

    def prepare(self) -> None:
        self.refs = [bert_reference(x, self.weights) for x in self.inputs]
        self.variant_inputs = {
            length: next(i for i, x in enumerate(self.inputs) if x.shape[0] == length)
            for length in self.variant_lengths
        }

    def repeat(self, stopwatch, tracer=None) -> Repeat:
        rep = Repeat()
        nimble.clear_prefix_cache()
        cache = KernelCache()
        stopwatch.take()
        start = time.perf_counter()
        exe, report = nimble.build(
            self.mod, self.platform, options=self.options, kernel_cache=cache
        )
        prefix, _ = nimble.compile_prefix(self.mod, self.platform)
        variants = {
            length: nimble.specialize(
                self.mod, self.platform, shapes=[(length, self.hidden)],
                options=self.options, kernel_cache=cache, prefix=prefix,
            )[0]
            for length in self.variant_lengths
        }
        rep.compile_s = sum(stopwatch.take()[0])
        rep.code_bytes = report.bytecode_bytes + report.kernel_code_bytes
        ctx = ExecutionContext(self.platform, numerics="full")
        vm = VirtualMachine(exe, ctx)
        # The first run of a fresh executable pays one-time lazy set-up;
        # it is checked but kept out of the per-inference samples.
        if tracer is not None:
            tracer.request = -1
        rep.check(_close(vm.run(self.inputs[0]).numpy(), self.refs[0]), "warm-up")
        rep.attempted += 1
        stopwatch.take()
        for _ in range(self.passes):
            for i, x in enumerate(self.inputs):
                if tracer is not None:
                    tracer.request = i
                before = ctx.elapsed_us
                out = vm.run(x)
                rep.latencies_us.append(ctx.elapsed_us - before)
                rep.tokens += x.shape[0]
                rep.attempted += 1
                rep.check(_close(out.numpy(), self.refs[i]), f"inference {i}")
        rep.infer_s = [wall for wall, _ in stopwatch.take()[1]]
        rep.requests, rep.serve_s = len(rep.infer_s), sum(rep.infer_s)
        for length, variant in variants.items():
            i = self.variant_inputs[length]
            if tracer is not None:
                tracer.request = i
            out = VirtualMachine(variant, ctx).run(self.inputs[i])
            rep.attempted += 1
            rep.check(_close(out.numpy(), self.refs[i]), f"variant {length}")
        stopwatch.take()
        rep.run_s = time.perf_counter() - start
        rep.check(ctx.allocator.live_bytes == 0, "allocator not drained")
        rep.modeled_busy_us = sum(rep.latencies_us)
        return rep


class TreeLSTMInfer(Workload):
    """Tree-LSTM (300 -> 150, paper Table 2) on ``intel_cpu``: SST-like
    trees through one dynamic VM with full numerics."""

    name = "tree_lstm_infer"
    # p95 over at least 200 trees leaves at least 10 samples beyond it.
    num_trees = 200

    platform = intel_cpu()

    def setup(self) -> None:
        self.weights = TreeLSTMWeights.create(300, 150, seed=self.seed)
        self.mod = build_tree_lstm_module(self.weights)
        self.trees = _stratified(
            sst_like_trees(16 * self.num_trees, seed=self.seed),
            self.num_trees, lambda t: t.num_leaves(), self.seed,
        )
        self.embeddings = embedding_table(dim=300, seed=self.seed)
        self.inputs = [tree_to_adt(t, self.embeddings) for t in self.trees]
        # The startup dynamic build a deployment pays before serving.
        nimble.build(self.mod, self.platform, kernel_cache=KernelCache())

    def prepare(self) -> None:
        self.refs = [
            tree_lstm_reference(t, self.embeddings, self.weights)[0]
            for t in self.trees
        ]

    def repeat(self, stopwatch, tracer=None) -> Repeat:
        rep = Repeat()
        nimble.clear_prefix_cache()
        stopwatch.take()
        start = time.perf_counter()
        exe, report = nimble.build(self.mod, self.platform, kernel_cache=KernelCache())
        rep.compile_s = sum(stopwatch.take()[0])
        rep.code_bytes = report.bytecode_bytes + report.kernel_code_bytes
        ctx = ExecutionContext(self.platform, numerics="full")
        vm = VirtualMachine(exe, ctx)
        for i, (tree, adt) in enumerate(zip(self.trees, self.inputs)):
            if tracer is not None:
                tracer.request = i
            before = ctx.elapsed_us
            out = vm.run(adt)
            rep.latencies_us.append(ctx.elapsed_us - before)
            rep.tokens += tree.num_leaves()
            rep.attempted += 1
            rep.check(_close(out.numpy(), self.refs[i]), f"tree {i}")
        rep.infer_s = [wall for wall, _ in stopwatch.take()[1]]
        rep.requests, rep.serve_s = len(rep.infer_s), sum(rep.infer_s)
        rep.run_s = time.perf_counter() - start
        rep.check(ctx.allocator.live_bytes == 0, "allocator not drained")
        rep.modeled_busy_us = sum(rep.latencies_us)
        return rep


# The fleet_study shape of traffic: four tenants, one token-bucket
# limited and bursty, four hot lengths against a two-slot cache.
TENANT_MIX = (("steady", 2), ("web", 2), ("batch", 2), ("bursty", 1))
HOT_LENGTHS = (9, 25, 41, 57)
HOT_FRACTION = 0.85
# multi_tenant_traffic's default tail range.
TAIL_MIN, TAIL_MAX = 4, 64


class FleetServe(Workload):
    """``multi_tenant_traffic`` through a 4-replica ``FleetRouter``: a cold
    phase on an empty artifact directory, then a warm phase on a new
    router over the same directory."""

    name = "fleet_serve"
    # Plus the bursty tenant's bursts: 496 sent. Twice fleet_study's 200,
    # at which the modeled p95 moved by 12% between seeds (4.5% at 400).
    num_requests = 400
    input_size = 16

    platform = intel_cpu()
    tenants = (
        TenantSpec("steady", deadline_us=60_000.0),
        TenantSpec("web"),
        TenantSpec("batch"),
        TenantSpec("bursty", deadline_us=60_000.0, rate_per_s=4000.0, burst=4),
    )
    fleet = FleetConfig(
        num_replicas=4,
        routing="affinity",
        gc_interval_us=20_000.0,
        gc_max_age_us=30_000.0,
    )

    def serve_config(self, artifact_dir: str) -> ServeConfig:
        return ServeConfig(
            max_batch_size=4,
            max_delay_us=1500.0,
            num_workers=2,
            numerics="full",
            specialize=True,
            specialize_threshold=4,
            specialize_max_executables=2,
            specialize_compile_lanes=1,
            specialize_compile_us=8000.0,
            specialize_batch=True,
            specialize_predictive=True,
            artifact_dir=artifact_dir,
        )

    def router(self, artifact_dir: str) -> FleetRouter:
        return FleetRouter(
            self.mod, self.platform, self.serve_config(artifact_dir),
            fleet=self.fleet, tenants=self.tenants, kernel_cache=KernelCache(),
        )

    def setup(self) -> None:
        self.weights = LSTMWeights.create(self.input_size, 16, num_layers=1, seed=self.seed)
        self.mod = build_lstm_module(self.weights)
        self.requests = self._stratified_shapes(multi_tenant_traffic(
            self.num_requests,
            input_size=self.input_size,
            mean_interarrival_us=300.0,
            tenant_mix=TENANT_MIX,
            hot_lengths=HOT_LENGTHS,
            hot_fraction=HOT_FRACTION,
            seed=self.seed,
        ))
        artifact_dir = tempfile.mkdtemp(dir=self.scratch)
        try:
            self.router(artifact_dir)
        finally:
            shutil.rmtree(artifact_dir)

    def _stratified_shapes(self, trace: List[Request]) -> List[Request]:
        """Keep the trace's arrival times, tenants and bursts; redraw
        which requests are hot and the tail lengths by stratification.

        Drawn independently per request, the tail lengths decide how
        many tail shapes happen to turn hot, and with them the number
        of compiles and the hit rate: across seeds that moved the wall
        metrics by 15-20%. Here every seed has exactly the hot share,
        and its tail lengths spread evenly over [TAIL_MIN, TAIL_MAX];
        which requests are tail, their order and all values still vary
        with the seed."""
        rng = np.random.RandomState(self.seed + 13)
        n = len(trace)
        n_tail = round((1.0 - HOT_FRACTION) * n)
        tail = set(rng.permutation(n)[:n_tail].tolist())
        span = TAIL_MAX - TAIL_MIN + 1
        tail_lengths = [TAIL_MIN + (2 * i + 1) * span // (2 * n_tail) for i in range(n_tail)]
        rng.shuffle(tail_lengths)
        hot = {name: HOT_LENGTHS[i % len(HOT_LENGTHS)] for i, (name, _) in enumerate(TENANT_MIX)}
        out = []
        for i, r in enumerate(trace):
            length = tail_lengths.pop() if i in tail else hot[r.tenant]
            payload = (rng.randn(length, self.input_size) * 0.1).astype(np.float32)
            out.append(Request(rid=r.rid, arrival_us=r.arrival_us, payload=payload, tenant=r.tenant))
        return out

    def prepare(self) -> None:
        self.refs = {
            r.rid: lstm_reference(r.payload, self.weights) for r in self.requests
        }
        self.lengths = {r.rid: r.payload.shape[0] for r in self.requests}

    def repeat(self, stopwatch, tracer=None) -> Repeat:
        rep = Repeat()
        nimble.clear_prefix_cache()
        stopwatch.take()
        artifact_dir = tempfile.mkdtemp(dir=self.scratch)
        start = time.perf_counter()
        try:
            phases = {}
            for phase in ("cold", "warm"):
                router = self.router(artifact_dir)
                if phase == "cold":
                    rep.code_bytes = (
                        router.replicas[0].build_report.bytecode_bytes
                        + router.replicas[0].build_report.kernel_code_bytes
                    )
                sim_start = time.perf_counter()
                report = router.simulate(self.requests)
                rep.serve_s += time.perf_counter() - sim_start
                phases[phase] = (router, report)
                self._check_phase(rep, phase, router, report)
        finally:
            shutil.rmtree(artifact_dir, ignore_errors=True)
        rep.run_s = time.perf_counter() - start
        compiles, runs = stopwatch.take()
        # Per compile call: how many lane compiles a repeat makes (8-14)
        # depends on the eviction race, and the total moved by 35%
        # between seeds; the time per call did not.
        rep.compile_s = sum(compiles) / len(compiles)
        # Per token: a serving VM run covers one to four requests of
        # 4-64 tokens on one of three tiers, so the per-run median falls
        # between the tiers' modes and moved by 25% between seeds.
        rep.infer_s = [wall / tokens for wall, tokens in runs]
        cold = {r.rid: r.output.numpy() for r in phases["cold"][1].responses}
        for r in phases["warm"][1].responses:
            rep.check(
                r.rid in cold and np.array_equal(cold[r.rid], r.output.numpy()),
                f"rid {r.rid}: warm output differs from cold",
            )
        warm_hits = [
            r.finish_us for r in phases["warm"][1].responses if r.tier != "dynamic"
        ]
        rep.warm_first_hit_us = min(warm_hits) if warm_hits else float("inf")
        reports = [report for _, report in phases.values()]
        served = sum(len(r.responses) for r in reports)
        rep.specialized_hit_rate = sum(r.specialized_hits for r in reports) / max(1, served)
        rep.layer = self._layer_counters(phases)
        return rep

    def _check_phase(self, rep: Repeat, phase: str, router, report) -> None:
        sent = len(self.requests)
        rep.requests += sent
        rep.attempted += sent
        rep.refused += report.rejected
        served = {r.rid for r in report.responses}
        rep.check(len(served) == len(report.responses), f"{phase}: duplicate responses")
        if len(served) != report.admitted:
            rep.failed += abs(report.admitted - len(served))
            rep.notes.append(f"{phase}: {report.admitted} admitted, {len(served)} served")
        for r in report.responses:
            rep.latencies_us.append(r.latency_us)
            rep.tokens += self.lengths[r.rid]
            rep.check(_close(r.output.numpy(), self.refs[r.rid]), f"{phase} rid {r.rid}")
        for replica_report in report.replica_reports:
            rep.modeled_busy_us += sum(replica_report.worker_busy_us)
        for replica in router.replicas:
            for worker in replica.workers:
                rep.check(
                    worker.ctx.allocator.live_bytes == 0,
                    f"{phase}: replica {replica.replica_id} allocator not drained",
                )

    def _layer_counters(self, phases) -> Dict[str, float]:
        reports = [report for _, report in phases.values()]
        replica_reports = [rr for r in reports for rr in r.replica_reports]
        responses = [resp for r in reports for resp in r.responses]
        batches = sum(rr.num_batches for rr in replica_reports)
        utilization = [u for rr in replica_reports for u in rr.worker_utilization]
        installed = useful = 0
        payloads = {r.rid: r.payload for r in self.requests}
        for router, report in phases.values():
            for replica, rr in zip(router.replicas, report.replica_reports):
                served = set()
                for resp in rr.responses:
                    if resp.tier != "dynamic":
                        key = replica.exact_key(payloads[resp.rid])
                        served.add((key, resp.tier == "batched"))
                for event in replica.specializer.events:
                    installed += 1
                    useful += (event.key, event.batch > 1) in served
        return {
            "serve.batch_size_mean": len(responses) / max(1, batches),
            "serve.queue_wait_us_p50": float(np.percentile([r.queue_us for r in responses], 50)),
            "serve.worker_utilization": float(np.mean(utilization)),
            "serve.specialization.compile_charge_us": sum(r.specialize_compile_us for r in reports),
            "serve.specialization.fresh_compiles": sum(rr.specialize_fresh_compiles for rr in replica_reports),
            "serve.specialization.restored": sum(rr.specialize_restored for rr in replica_reports),
            "serve.specialization.evictions": sum(rr.specialize_evictions for rr in replica_reports),
            "serve.specialization.predictive_hits": sum(rr.predictive_hits for rr in replica_reports),
            "serve.specialization.useful_ratio": useful / max(1, installed),
            "store.rejects": sum(r.store_rejects for r in reports),
            "store.gc.pruned": sum(r.gc_pruned for r in reports),
            "fleet.affinity_rate": sum(r.affinity_hits for r in reports) / max(1, sum(r.admitted for r in reports)),
            "fleet.admitted": sum(r.admitted for r in reports),
            "fleet.rejected": sum(r.rejected for r in reports),
        }


WORKLOADS = {
    BertCompile.name: BertCompile,
    TreeLSTMInfer.name: TreeLSTMInfer,
    FleetServe.name: FleetServe,
}


def make(name: str, seed: int, scratch: Path) -> Workload:
    return WORKLOADS[name](seed, scratch)
