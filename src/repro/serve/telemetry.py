"""Serving observability: per-job recordings and :class:`ServerStats`.

The server records one observation per finished job (completed, rejected,
expired or failed) plus per-tile service counters; :meth:`Telemetry.snapshot`
folds them, together with the scene store's counters, into a single
:class:`ServerStats` — the flat object `benchmarks/perf_serve.py` serialises
into ``BENCH_serve.json`` and operators would scrape in production.

Latency is split the way queueing systems are debugged: ``queue_wait`` (from
submission to the job's first tile being dispatched to the execution
backend; any bundle build a worker then pays is service time) and
``latency`` (submission to completion).  Beyond those two, every pipeline
*stage* keeps its own distribution — ``build`` (bundle construction),
``render`` (per-tile service), ``reassemble`` (tile recomposition + PSNR)
and ``deliver`` (completion to first result fetch) — so a slow p99 can be
attributed to a stage instead of guessed at.

All distributions are :class:`~repro.serve.metrics.StreamingHistogram`\\ s:
fixed log-spaced buckets plus a small reservoir, so memory stays **bounded
under sustained traffic** (the earlier revisions' unbounded per-job lists
grew forever) while percentiles over test-sized sample counts remain exact
(the reservoir holds every sample until it fills, and ``numpy.percentile``
over it is the very estimator the old lists used).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.nerf.renderer import RenderStats
from repro.serve.cache import TileCacheStats
from repro.serve.metrics import StreamingHistogram
from repro.serve.store import SceneStoreStats

__all__ = ["ServerStats", "Telemetry", "percentile", "STAGE_NAMES"]

#: The per-stage distributions ``Telemetry`` maintains, in pipeline order.
#: ``cache_hit`` times the scheduler serving a tile straight from the
#: :class:`~repro.serve.cache.TileCache` (lookup + apply, no backend).
STAGE_NAMES = (
    "queue_wait", "build", "render", "cache_hit", "reassemble", "deliver", "latency"
)


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile of ``values`` (``nan`` when empty)."""
    if not values:
        return float("nan")
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


@dataclass
class ServerStats:
    """One flat snapshot of a :class:`~repro.serve.server.RenderServer`.

    Counters cover the server's whole lifetime; queue depth and residency
    describe the instant the snapshot was taken.  ``backend``,
    ``num_workers`` and ``worker_utilization`` describe the execution
    backend: utilization is each worker's busy time (rendering + bundle
    builds) over the wall time since the server first dispatched, so a
    saturated 4-worker process pool reads ``[~1.0, ~1.0, ~1.0, ~1.0]`` and a
    pool starved by affinity skew shows it immediately.
    ``ooo_completions`` counts tiles that finished after a later-submitted
    tile of the same job — always 0 under the serial backend, and the
    direct measure of how much reordering the streaming delivery absorbs.

    Two throughput figures, deliberately distinct:

    * ``throughput_rays_per_s`` is **busy-time-normalized** — rays divided
      by the summed seconds workers actually spent rendering and building.
      It measures per-worker rendering efficiency, is independent of load
      and parallelism, and *cannot exceed one worker's speed* (a 4-worker
      pool at full tilt reports the same value as one busy worker).
    * ``throughput_rays_per_s_wall`` is **wall-clock-normalized** — rays
      divided by elapsed wall time since the first dispatch.  This is the
      serving capacity an operator provisions against: it scales with
      worker count and drops when the server idles between requests.

    The four elasticity counters come from the execution backend's
    supervisor and stay 0 everywhere but the process pool:
    ``worker_respawns`` (dead worker processes replaced from the store
    spec), ``redispatched_tiles`` (in-flight tiles re-sent after their
    worker died), ``hedged_tiles`` (speculative duplicate dispatches of
    slow tiles) and ``stolen_keys`` (``(scene, pipeline)`` affinity keys
    migrated off a hot shard).  Duplicate completions those mechanisms
    produce are dropped by the scheduler and counted in
    ``dropped_tile_results``.  The remote backend adds ``host_losses``,
    ``host_reconnects`` and ``local_fallback_tiles`` (and, like every
    backend, reports ``dropped_backend_events`` when its bounded event ring
    overflows undrained).

    ``stage_breakdown`` maps each pipeline stage (``queue_wait``, ``build``,
    ``render``, ``reassemble``, ``deliver``, ``latency``) to its bounded-
    histogram digest (count / total / mean / p50 / p95 / p99 seconds) — the
    per-stage answer to "where do slow jobs spend their time" without
    pulling a full trace.
    """

    submitted: int = 0
    completed: int = 0
    rejected: int = 0
    rejected_over_cost: int = 0
    demoted_over_cost: int = 0
    expired: int = 0
    failed: int = 0
    cancelled: int = 0
    queue_depth: int = 0
    pending_cost: float = 0.0
    tiles_rendered: int = 0
    ooo_completions: int = 0
    dropped_tile_results: int = 0
    worker_respawns: int = 0
    redispatched_tiles: int = 0
    hedged_tiles: int = 0
    stolen_keys: int = 0
    #: Remote-backend robustness counters (0 on in-process backends):
    #: hosts declared dead (EOF, torn frame, heartbeat deadline), host
    #: connections re-established after a loss, and tiles rendered on the
    #: local in-process fallback shard while every host was down.
    host_losses: int = 0
    host_reconnects: int = 0
    local_fallback_tiles: int = 0
    #: Backend elasticity events evicted from the bounded ring before the
    #: scheduler drained them (an undrained or overwhelmed tracer).
    dropped_backend_events: int = 0
    num_rays: int = 0
    num_culled_samples: int = 0
    num_skipped_rays: int = 0
    busy_s: float = 0.0
    throughput_rays_per_s: float = 0.0
    throughput_rays_per_s_wall: float = 0.0
    latency_p50_s: float = float("nan")
    latency_p95_s: float = float("nan")
    latency_p99_s: float = float("nan")
    queue_wait_p50_s: float = float("nan")
    queue_wait_p95_s: float = float("nan")
    queue_wait_p99_s: float = float("nan")
    stage_breakdown: Dict[str, Dict[str, float]] = field(default_factory=dict)
    vertex_reuse_ratio: float = 1.0
    backend: str = "serial"
    num_workers: int = 1
    worker_utilization: List[float] = field(default_factory=list)
    store_hits: int = 0
    store_misses: int = 0
    store_hit_rate: float = 1.0
    store_evictions: int = 0
    resident_bundles: int = 0
    resident_bytes: int = 0
    #: Tile-cache counters (all zero while the server runs with the cache
    #: off).  ``cache_hits`` are tiles served straight from the
    #: content-addressed cache without touching the backend;
    #: ``deduped_tiles`` are tiles that attached to an identical in-flight
    #: dispatch of another job instead of dispatching their own.  Cache-hit
    #: *latency* lives in ``stage_breakdown["cache_hit"]``.  ``cache_bytes``
    #: is what the packed tiles hold (the budget's measure) and
    #: ``cache_logical_bytes`` what they would take as raw arrays.
    cache_enabled: bool = False
    cache_hits: int = 0
    cache_misses: int = 0
    cache_hit_rate: float = 0.0
    cache_insertions: int = 0
    cache_evictions: int = 0
    cache_entries: int = 0
    cache_bytes: int = 0
    cache_logical_bytes: int = 0
    deduped_tiles: int = 0

    def as_dict(self) -> Dict[str, float]:
        """JSON-ready flat mapping (what ``BENCH_serve.json`` stores)."""
        return {name: getattr(self, name) for name in self.__dataclass_fields__}


def _stage_histograms() -> Dict[str, StreamingHistogram]:
    return {stage: StreamingHistogram() for stage in STAGE_NAMES}


@dataclass
class Telemetry:
    """Accumulates per-tile and per-job observations for :class:`ServerStats`.

    Distributions live in the bounded ``stages`` histograms (see the module
    docstring); everything else is a plain lifetime counter.
    """

    submitted: int = 0
    completed: int = 0
    rejected: int = 0
    rejected_over_cost: int = 0
    demoted_over_cost: int = 0
    expired: int = 0
    failed: int = 0
    cancelled: int = 0
    tiles_rendered: int = 0
    ooo_completions: int = 0
    dropped_tile_results: int = 0
    deduped_tiles: int = 0
    busy_s: float = 0.0
    render_stats: RenderStats = field(default_factory=RenderStats)
    stages: Dict[str, StreamingHistogram] = field(default_factory=_stage_histograms)
    worker_busy_s: Dict[int, float] = field(default_factory=dict)

    # ------------------------------------------------------------------
    def record_tile(self, stats: RenderStats, service_s: float, worker_id: int = 0) -> None:
        """Fold one rendered tile's counters and service time in."""
        self.tiles_rendered += 1
        self.busy_s += service_s
        self.render_stats.merge(stats)
        self.stages["render"].observe(service_s)
        self.worker_busy_s[worker_id] = self.worker_busy_s.get(worker_id, 0.0) + service_s

    def record_cache_hit(self, elapsed_s: float) -> None:
        """One tile served from the content-addressed cache (no backend).

        ``elapsed_s`` spans lookup to apply on the scheduler; it is *not*
        busy time (no worker rendered anything), so it feeds only the
        ``cache_hit`` stage histogram — throughput normalization and
        worker utilization stay untouched.
        """
        self.stages["cache_hit"].observe(elapsed_s)

    def record_build(self, build_s: float, worker_id: int = 0) -> None:
        """Bundle construction is service time too (it blocks its worker)."""
        self.busy_s += build_s
        self.stages["build"].observe(build_s)
        self.worker_busy_s[worker_id] = self.worker_busy_s.get(worker_id, 0.0) + build_s

    def record_completion(
        self, latency_s: float, queue_wait_s: float, reassemble_s: float = 0.0
    ) -> None:
        self.completed += 1
        self.stages["latency"].observe(latency_s)
        self.stages["queue_wait"].observe(queue_wait_s)
        if reassemble_s > 0.0:
            self.stages["reassemble"].observe(reassemble_s)

    def record_delivery(self, deliver_s: float) -> None:
        """Completion-to-first-fetch time of one delivered result."""
        self.stages["deliver"].observe(deliver_s)

    # ------------------------------------------------------------------
    def snapshot(
        self,
        queue_depth: int,
        store_stats: Optional[SceneStoreStats] = None,
        backend: str = "serial",
        num_workers: int = 1,
        wall_s: Optional[float] = None,
        pending_cost: float = 0.0,
        worker_respawns: int = 0,
        redispatched_tiles: int = 0,
        hedged_tiles: int = 0,
        stolen_keys: int = 0,
        host_losses: int = 0,
        host_reconnects: int = 0,
        local_fallback_tiles: int = 0,
        dropped_backend_events: int = 0,
        cache_stats: Optional[TileCacheStats] = None,
    ) -> ServerStats:
        """Aggregate everything recorded so far into one :class:`ServerStats`.

        ``wall_s`` is the elapsed wall time the per-worker utilizations and
        ``throughput_rays_per_s_wall`` are normalized by; ``None`` (or a
        zero wall) reports zero utilization rather than dividing by nothing.
        """
        utilization = [
            (self.worker_busy_s.get(worker, 0.0) / wall_s) if wall_s else 0.0
            for worker in range(num_workers)
        ]
        latency = self.stages["latency"]
        queue_wait = self.stages["queue_wait"]
        stats = ServerStats(
            submitted=self.submitted,
            completed=self.completed,
            rejected=self.rejected,
            rejected_over_cost=self.rejected_over_cost,
            demoted_over_cost=self.demoted_over_cost,
            expired=self.expired,
            failed=self.failed,
            cancelled=self.cancelled,
            queue_depth=queue_depth,
            pending_cost=pending_cost,
            tiles_rendered=self.tiles_rendered,
            ooo_completions=self.ooo_completions,
            dropped_tile_results=self.dropped_tile_results,
            deduped_tiles=self.deduped_tiles,
            worker_respawns=worker_respawns,
            redispatched_tiles=redispatched_tiles,
            hedged_tiles=hedged_tiles,
            stolen_keys=stolen_keys,
            host_losses=host_losses,
            host_reconnects=host_reconnects,
            local_fallback_tiles=local_fallback_tiles,
            dropped_backend_events=dropped_backend_events,
            num_rays=self.render_stats.num_rays,
            num_culled_samples=self.render_stats.num_culled_samples,
            num_skipped_rays=self.render_stats.num_skipped_rays,
            busy_s=self.busy_s,
            throughput_rays_per_s=(
                self.render_stats.num_rays / self.busy_s if self.busy_s > 0 else 0.0
            ),
            throughput_rays_per_s_wall=(
                self.render_stats.num_rays / wall_s if wall_s else 0.0
            ),
            latency_p50_s=latency.percentile(50),
            latency_p95_s=latency.percentile(95),
            latency_p99_s=latency.percentile(99),
            queue_wait_p50_s=queue_wait.percentile(50),
            queue_wait_p95_s=queue_wait.percentile(95),
            queue_wait_p99_s=queue_wait.percentile(99),
            stage_breakdown={
                stage: histogram.summary() for stage, histogram in self.stages.items()
            },
            vertex_reuse_ratio=self.render_stats.vertex_reuse_ratio,
            backend=backend,
            num_workers=num_workers,
            worker_utilization=utilization,
        )
        if store_stats is not None:
            stats.store_hits = store_stats.hits
            stats.store_misses = store_stats.misses
            stats.store_hit_rate = store_stats.hit_rate
            stats.store_evictions = store_stats.evictions
            stats.resident_bundles = store_stats.resident_entries
            stats.resident_bytes = store_stats.resident_bytes
        if cache_stats is not None:
            stats.cache_enabled = True
            stats.cache_hits = cache_stats.hits
            stats.cache_misses = cache_stats.misses
            stats.cache_hit_rate = cache_stats.hit_rate
            stats.cache_insertions = cache_stats.insertions
            stats.cache_evictions = cache_stats.evictions
            stats.cache_entries = cache_stats.entries
            stats.cache_bytes = cache_stats.resident_bytes
            stats.cache_logical_bytes = cache_stats.logical_bytes
        return stats
