"""The inference server: an event-driven simulation over virtual time.

``simulate`` replays a request trace against the batcher and worker pool.
The loop advances virtual time from event to event — the next arrival or
the next bucket deadline, whichever comes first — so the trace, the
batching decisions, and every latency number are a pure function of the
inputs. Two identical simulations are bit-identical.

Workers never block batch formation: a flushed batch is assigned to the
earliest-free worker (ties broken by worker id) and starts at
``max(flush time, worker free time)``.

With ``specialize=True`` the server runs tiered compilation: request
arrivals are counted per exact dynamic-dim shape, hot shapes get a
statically recompiled executable (``nimble.specialize``, sharing the
dynamic build's kernel cache), and a batch whose members all match a
specialized shape exactly is routed to the static tier — everything else
falls back to the dynamic executable, including the hot shape itself
while its compile sits in the compile-worker pool (the compile cost is
charged on the virtual clock as lane latency; ``specialize_compile_lanes``
sizes the pool and pending compiles queue by observed traffic). Once a
shape is hot it also gets its own exact bucket, so its batches form
shape-uniform. The specialized-executable cache evicts its coldest entry
under a decayed-hit-score policy when a new shape goes hot past
``specialize_max_executables``; evicted (or momentarily blocked) shapes
stay armed and recompile once a slot frees.

With ``artifact_dir`` set the server is additionally backed by a
persistent artifact store: the kernel cache warm-loads before the
dynamic build, every specialized compile persists its executable, and
hot triggers restore stored artifacts at the modeled deserialize cost
instead of recompiling — so a restarted server reaches its specialized
steady state for a fraction of the cold compile charge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

import repro.nimble as nimble
from repro.codegen.kernels import KernelCache
from repro.errors import VMError
from repro.hardware.platforms import Platform, intel_cpu
from repro.ir.module import IRModule
from repro.serve.batcher import Batch, Batcher, ShapeBucketer
from repro.serve.report import ServeReport, build_report
from repro.serve.request import Request, Response
from repro.serve.specialization import SpecializationManager
from repro.serve.worker import Worker


@dataclass(frozen=True)
class ServeConfig:
    max_batch_size: int = 8
    max_delay_us: float = 2000.0
    num_workers: int = 2
    bucket_granularity: int = 8
    numerics: str = "lite"
    entry: str = "main"
    # Tiered specialization: compile a static executable for a shape once
    # `specialize_threshold` requests with exactly that shape have been
    # observed. Compiles run on a pool of `specialize_compile_lanes`
    # virtual-clock lanes (pending compiles queue by observed traffic);
    # at most `specialize_max_executables` static builds stay resident,
    # with the coldest entry (hit score decayed on the
    # `specialize_decay_half_life_us` half-life) evicted when a
    # challenger more than `specialize_eviction_margin` times hotter
    # needs the slot (the margin prevents comparable-heat shapes from
    # thrashing the cache) — `specialize_eviction=False` restores the
    # hard cap. `specialize_compile_us` overrides the modeled compile
    # cost.
    specialize: bool = False
    specialize_threshold: int = 8
    specialize_max_executables: int = 4
    specialize_compile_us: Optional[float] = None
    specialize_compile_lanes: int = 1
    specialize_eviction: bool = True
    specialize_decay_half_life_us: float = 100_000.0
    specialize_eviction_margin: float = 2.0
    # Batch-granularity specialization: every hot shape additionally gets
    # an executable compiled at (batch cap × exact shape), and a *full*
    # exact bucket runs as one VM call on it (one batched GEMM per
    # member-wise GEMM site). Ragged tails fall back member-wise. The cap
    # defaults to max_batch_size and hot buckets are capped to it, so a
    # bucket can never outgrow the kernel compiled for it.
    specialize_batch: bool = False
    specialize_batch_cap: Optional[int] = None
    # Persistent artifact store: a directory where specialized
    # executables and the kernel cache survive the process. At startup
    # the kernel cache warm-loads from it and every hot trigger checks
    # it before compiling — a hit installs the stored artifact at the
    # modeled deserialize cost (`specialize_restore_us` overrides the
    # RESTORE_*_US calibration), so a restarted server re-reaches its
    # specialized steady state for <10% of the cold compile charge
    # (`harness.restart_study`). None (default) keeps everything
    # in-memory, exactly the pre-store behaviour.
    artifact_dir: Optional[str] = None
    specialize_restore_us: Optional[float] = None
    # Multi-stream scheduling: compile every executable (dynamic and
    # specialized) with this many device streams (repro.vm.schedule).
    # Clamped to the platform at compile time — CPU platforms always run
    # single-stream, bit-identically to device_streams=1 — and workers
    # rotate the static schedule across batch members so independent
    # members overlap on different streams. 1 (default) is the exact
    # pre-streams behaviour.
    device_streams: int = 1
    # Staged specialization: compile hot-shape variants through a shared
    # shape-independent prefix and split the modeled lane charge — the
    # prefix is charged once per simulation, each variant pays only the
    # shape-binding suffix (see docs/serving.md). With an artifact store
    # the prefix blob persists too, so a restart restores it at the
    # deserialize charge. Off by default: the monolithic charge model is
    # unchanged.
    specialize_staged: bool = False
    # Profile-guided predictive specialization: persist a shape profile
    # (exact-key hit histogram + decayed scores) into the
    # artifact store at every simulation end, and pre-arm the historical
    # top-K (default: specialize_max_executables; override with
    # specialize_predictive_top_k) at virtual time 0 of every
    # simulation, so a restarted server compiles/store-restores its hot
    # set before the first request lands (ServeReport.predictive_*;
    # harness.predictive_study measures the warm-up win). Requires
    # artifact_dir; a missing/rejected profile serves cold, counted.
    specialize_predictive: bool = False
    specialize_predictive_top_k: Optional[int] = None
    # Guarded partial specialization: when traffic agrees on some dims
    # but spreads a long tail over the others, synthesize one variant
    # binding only the stable dims (the rest stay Any) once it would
    # cover at least specialize_partial_min_shapes distinct exact
    # shapes. The variant's entry guard checks the bound dims per batch
    # member; mismatches transparently deopt to the dynamic tier
    # (ServeReport.guard_deopts — counted, never wrong).
    specialize_partial: bool = False
    specialize_partial_min_shapes: int = 3
    # Sampled static verification of serving compiles: every Nth fresh
    # specialized compile (starting with the first) runs the
    # repro.analysis checkers; 0 disables sampling. Store loads and the
    # startup dynamic build always verify regardless — this knob only
    # prices the hot compile lane. Failures on the lane raise (compiler
    # bug); failing store blobs are rejected-and-counted
    # (ServeReport.verify_rejects) and never executed.
    verify_sample: int = 4

    @property
    def batch_cap(self) -> int:
        """The compiled batch size of the batched tier (1 = tier off)."""
        if not (self.specialize and self.specialize_batch):
            return 1
        cap = (
            self.specialize_batch_cap
            if self.specialize_batch_cap is not None
            else self.max_batch_size
        )
        if cap < 1:
            raise ValueError(f"specialize_batch_cap must be >= 1, got {cap}")
        return min(cap, self.max_batch_size)

    @staticmethod
    def serial(**overrides) -> "ServeConfig":
        """One-request-at-a-time dispatch: the unbatched baseline. Other
        knobs (numerics, entry, ...) pass through so a serial baseline runs
        under the same conditions as the batched server it is compared to.
        Overrides win — including for the serial defaults themselves."""
        params = dict(max_batch_size=1, max_delay_us=0.0, num_workers=1)
        params.update(overrides)
        return ServeConfig(**params)


class InferenceServer:
    """Compile once, serve a stream of dynamically-shaped requests."""

    def __init__(
        self,
        mod: IRModule,
        platform: Optional[Platform] = None,
        config: Optional[ServeConfig] = None,
        kernel_cache: Optional[KernelCache] = None,
        replica_id: int = 0,
        store_view=None,
    ) -> None:
        # Fleet mode (repro.fleet): `replica_id` names this server inside
        # a FleetRouter's replica set and `store_view` is the fleet's
        # shared FleetStoreView over one artifact directory — it lets a
        # sibling's fresh compile restore here mid-simulation and lets
        # the fleet GC see which blobs this replica still references.
        # Standalone servers (the defaults) behave exactly as before.
        self.replica_id = replica_id
        self.store_view = store_view
        self.platform = platform or intel_cpu()
        self.config = config or ServeConfig()
        if self.config.num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        self.kernel_cache = (
            KernelCache() if kernel_cache is None else kernel_cache
        )
        self.store = None
        if self.config.artifact_dir is not None:
            from repro.store import ArtifactStore

            self.store = ArtifactStore(self.config.artifact_dir)
            # Warm the kernel cache before the dynamic build below, so
            # a restarted server reuses the previous process's compiled
            # kernels and tuned schedules, not just its specialized
            # executables. A rejected kernels.kc is recorded now and
            # folded into every report's store_rejects — it must be as
            # visible as a rejected executable blob.
            self.store.load_kernel_cache(self.kernel_cache)
        self._startup_store_rejects = (
            self.store.rejects if self.store is not None else 0
        )
        self._startup_verify_rejects = (
            self.store.verify_rejects if self.store is not None else 0
        )
        self.mod = mod
        self.exe, self.build_report = nimble.build(
            mod,
            self.platform,
            options=nimble.CompilerOptions(
                device_streams=self.config.device_streams
            ),
            kernel_cache=self.kernel_cache,
        )
        typed = self.build_report.typed_module
        if self.config.entry not in typed:
            raise VMError(f"module has no entry function {self.config.entry!r}")
        self.bucketer = ShapeBucketer(
            typed[self.config.entry], granularity=self.config.bucket_granularity
        )
        self.specializer: Optional[SpecializationManager] = None
        if self.config.specialize:
            self.specializer = SpecializationManager(
                mod,
                self.platform,
                self.bucketer,
                self.kernel_cache,
                threshold=self.config.specialize_threshold,
                max_executables=self.config.specialize_max_executables,
                compile_us=self.config.specialize_compile_us,
                entry=self.config.entry,
                compile_lanes=self.config.specialize_compile_lanes,
                eviction=self.config.specialize_eviction,
                decay_half_life_us=self.config.specialize_decay_half_life_us,
                eviction_margin=self.config.specialize_eviction_margin,
                batch_cap=self.config.batch_cap,
                store=self.store,
                restore_us=self.config.specialize_restore_us,
                staged=self.config.specialize_staged,
                device_streams=self.config.device_streams,
                verify_sample=self.config.verify_sample,
                predictive=self.config.specialize_predictive,
                predictive_top_k=self.config.specialize_predictive_top_k,
                partial=self.config.specialize_partial,
                partial_min_shapes=self.config.specialize_partial_min_shapes,
                replica_id=replica_id,
                store_view=store_view,
            )
        self.workers = [
            Worker(
                i, self.exe, self.platform,
                numerics=self.config.numerics, entry=self.config.entry,
            )
            for i in range(self.config.num_workers)
        ]

    # ------------------------------------------------------------- simulation
    #
    # The server exposes its event loop two ways. `simulate` replays a
    # whole trace (the standalone path). The incremental API — `begin`,
    # `ingest`, `flush_due`, `next_deadline`, `finish` — hands the SAME
    # steps to an external driver (repro.fleet.FleetRouter) one event at
    # a time, so N replicas can interleave on one merged timeline.
    # `simulate` is written *on top of* the incremental API: there is one
    # event loop, not two copies that can drift.

    def begin(self) -> None:
        """Start an independent replay: workers to cold start, hit
        counters restarted (compiled static executables are kept —
        compilation is deterministic, so replays stay bit-identical
        either way), and a fresh batcher."""
        for worker in self.workers:
            worker.reset()
        if self.specializer is not None:
            self.specializer.reset()
        self._batcher = Batcher(
            self.bucketer,
            max_batch_size=self.config.max_batch_size,
            max_delay_us=self.config.max_delay_us,
            key_fn=self._bucket_key if self.specializer is not None else None,
            cap_fn=self._bucket_cap if self.specializer is not None else None,
        )
        self._responses: List[Response] = []

    def ingest(self, request: Request, now_us: float) -> None:
        """One arrival at *now_us*: observe its shape (specialization
        heat) and enqueue it; a bucket filled to its cap dispatches
        immediately."""
        if self.specializer is not None:
            self.specializer.observe(
                self.bucketer.exact_key(request.payload), now_us
            )
        batch = self._batcher.add(request, now_us)
        if batch is not None:
            self._responses.extend(self._dispatch(batch))

    def next_deadline(self) -> Optional[float]:
        """The earliest bucket-delay deadline, or None with nothing queued."""
        return self._batcher.next_deadline()

    def flush_due(self, now_us: float) -> None:
        """Dispatch every bucket whose delay deadline has passed."""
        for batch in self._batcher.flush_due(now_us):
            self._responses.extend(self._dispatch(batch))

    @property
    def pending(self) -> int:
        """Requests currently queued in buckets (not yet dispatched)."""
        return self._batcher.pending

    def finish(self, now_us: float) -> ServeReport:
        """Shutdown drain at *now_us*: flush the leftover partial
        buckets, run the compile pool to completion, persist the kernel
        cache and shape profile, and build the report."""
        for batch in self._batcher.flush_all(now_us):
            self._responses.extend(self._dispatch(batch))
        if self.specializer is not None:
            # Arrivals are over but the compile pool keeps working: bind
            # every still-pending compile to a lane so queue-wait and
            # lane-utilization stats cover the whole triggered set.
            self.specializer.drain()
        if self.store is not None:
            # Persist the kernel cache (executables persist at compile
            # time, inside the manager) so the next process's dynamic
            # build starts warm too.
            self.store.save_kernel_cache(self.kernel_cache)
            if self.specializer is not None:
                # Snapshot this simulation's shape traffic (a profile) so
                # the NEXT process's predictive manager can pre-arm its
                # hot set. Written unconditionally — recording is cheap
                # and predictive consumption is opt-in — but never read
                # back by this manager (frozen at construction), so
                # replays stay bit-identical.
                self.store.put_profile(self.specializer.profile_snapshot())
                if self.store_view is not None:
                    self.store_view.record_put(
                        "profile",
                        self.specializer._profile_key,
                        now_us,
                        self.replica_id,
                    )
        return build_report(
            self._responses,
            self.workers,
            self.specializer,
            extra_store_rejects=self._startup_store_rejects,
            extra_verify_rejects=self._startup_verify_rejects,
            device_streams=self.exe.device_streams,
        )

    def simulate(self, requests: Sequence[Request]) -> ServeReport:
        """Serve the trace to completion; returns the aggregate report.

        Each call is an independent replay (see :meth:`begin`). The loop
        advances virtual time to the next arrival or the next bucket
        deadline, whichever is earlier (arrivals win ties), exactly as
        a FleetRouter drives the incremental API for one replica."""
        self.begin()
        trace = sorted(requests, key=lambda r: (r.arrival_us, r.rid))
        now = 0.0
        i, n = 0, len(trace)
        while i < n or self._batcher.pending:
            next_arrival = trace[i].arrival_us if i < n else math.inf
            deadline = self.next_deadline()
            next_deadline = deadline if deadline is not None else math.inf
            if next_arrival == math.inf and next_deadline == math.inf:
                # Arrivals exhausted and no finite deadline will ever fire
                # (max_delay_us=inf means flush-on-size-only): shutdown
                # drain of the leftover partial buckets at the last event.
                break
            if next_arrival <= next_deadline:
                now = next_arrival
                self.ingest(trace[i], now)
                i += 1
            else:
                now = next_deadline
                self.flush_due(now)
        return self.finish(now)

    # ------------------------------------------------------------ fleet hooks
    def exact_key(self, payload):
        """The payload's exact dynamic-dim key (affinity-routing input)."""
        return self.bucketer.exact_key(payload)

    def backlog_us(self, now_us: float) -> float:
        """Outstanding worker busy-time beyond *now_us*: the router's
        least-loaded signal. Zero when every worker is idle."""
        return sum(max(0.0, w.free_at_us - now_us) for w in self.workers)

    def specialization_state(self, exact, now_us: float) -> Optional[str]:
        """Delegate to the manager (None when specialization is off)."""
        if self.specializer is None:
            return None
        return self.specializer.specialization_state(exact, now_us)

    def referenced_store_keys(self):
        """Store entries a live snapshot of this replica still needs —
        the fleet GC's refcount guard (empty without a store)."""
        if self.specializer is None:
            return set()
        return self.specializer.referenced_store_keys()

    def restoring_store_keys(self, now_us: float):
        """Store entries with a restore in flight at *now_us* (see the
        manager — subset of :meth:`referenced_store_keys`)."""
        if self.specializer is None:
            return set()
        return self.specializer.restoring_store_keys(now_us)

    def _bucket_key(self, payload, now_us: float):
        """Bucket key under tiered specialization: a hot shape (some
        static executable — member-wise or batched — ready at *now_us*,
        the batcher's current virtual time) gets its own exact bucket so
        its batches form shape-uniform and can route to the static tiers;
        everything else keeps the bucketer's rounded key. The -1 marker
        keeps exact buckets disjoint from rounded ones (rounded key
        components are never negative)."""
        exact = self.bucketer.exact_key(payload)
        if self.specializer.is_hot_any(exact, now_us):
            return (-1,) + exact
        return self.bucketer.round_key(exact)

    def _bucket_cap(self, key):
        """Bucket flush size under tiered specialization: exact (hot)
        buckets align to the batched tier's compiled batch size, so a
        full bucket is exactly one batched-executable call; rounded
        buckets keep the configured max. When a shape turns out not to
        admit the batch rewrite, its hot buckets keep the full batch size
        — capping them would shrink member-tier batches for nothing."""
        if (
            key
            and key[0] == -1
            and self.specializer.batch_tier_active_for(tuple(key[1:]))
        ):
            return self.config.batch_cap
        return self.config.max_batch_size

    def _dispatch(self, batch: Batch) -> List[Response]:
        worker = min(self.workers, key=lambda w: (w.free_at_us, w.worker_id))
        start = max(batch.formed_us, worker.free_at_us)
        executable = None
        tier = "dynamic"
        hit_key = None
        if self.specializer is not None:
            # The exact static tiers only take exact-shape-uniform batches
            # whose executable is ready; mixed batches within a (rounded)
            # bucket and in-flight compiles fall through — first to a
            # guarded partial variant when one covers the members, else
            # dynamic. Exact buckets carry the -1 marker and are uniform
            # by construction; a rounded bucket may still happen to be
            # uniform (requests enqueued before the shape went hot), so
            # those are checked member-by-member.
            exact = None
            member_keys = None
            if batch.key and batch.key[0] == -1:
                exact = tuple(batch.key[1:])
            else:
                member_keys = [
                    self.bucketer.exact_key(r.payload) for r in batch.requests
                ]
                if len(set(member_keys)) == 1:
                    exact = member_keys[0]
            if exact is not None:
                # Routing ladder: a *full* bucket takes the batched tier
                # (one VM call for the whole bucket); ragged tails fall
                # back to member-wise static, then partial, then dynamic.
                if len(batch) == self.config.batch_cap > 1:
                    executable = self.specializer.batched_executable_for(
                        exact, start
                    )
                    if executable is not None:
                        tier = "batched"
                if executable is None:
                    executable = self.specializer.executable_for(exact, start)
                    if executable is not None:
                        tier = "specialized"
                if executable is not None:
                    hit_key = exact
            if executable is None:
                # Guarded partial tier: one variant with only the stable
                # dims bound can serve members of *different* exact
                # shapes; the worker guard-checks each member and deopts
                # mismatches to the dynamic VM (counted, never wrong).
                if member_keys is None:
                    member_keys = [exact] * len(batch)
                found = self.specializer.partial_executable_for(
                    member_keys, start
                )
                if found is not None:
                    executable, hit_key = found
                    tier = "partial"
        responses = worker.run_batch(
            batch, start, executable=executable, tier=tier
        )
        if (
            hit_key is not None
            and hit_key in self.specializer.predictive_keys
        ):
            # Static-tier hits served off a predictively pre-armed
            # variant (deopted members route dynamic and do not count).
            self.specializer.predictive_hits += sum(
                1 for r in responses if r.tier != "dynamic"
            )
        return responses
