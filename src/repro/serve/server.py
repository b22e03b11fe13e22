"""The :class:`RenderServer`: a pure tile scheduler over execution backends.

The server turns the single-request :class:`~repro.api.RenderEngine` into a
multi-tenant front end with submit/poll/result semantics:

* **Admission** — submissions beyond ``max_pending`` (a job count) or
  ``max_pending_cost`` (a work estimate from the hardware layer's
  :class:`~repro.hardware.workload.FrameWorkload`) are rejected immediately,
  or down-prioritized under the ``demote`` policy — the caller sees
  backpressure instead of unbounded queue growth.
* **Scheduling** — priority classes drained in order (HIGH before NORMAL
  before LOW); within a class, jobs advance one *tile* at a time in
  round-robin, so an 800x800 frame never head-of-line-blocks a thumbnail.
* **Execution** — the server renders nothing itself.  Tiles are submitted to
  an :class:`~repro.serve.backends.ExecutionBackend` (serial by default;
  thread and shared-nothing process pools for parallel serving) and
  completions are collected **in any order** — out-of-order tiles are
  reassembled per job, and partially rendered frames can be streamed to
  callers before the job finishes (``poll(..., include_tiles=True)``).
* **Deadlines** — a job whose ``deadline_s`` elapses before it finishes is
  expired at the next scheduling point; results of its in-flight tiles are
  dropped on arrival.
* **Residency** — the scheduler only ever touches *scenes* (camera geometry,
  tile planning, admission costs, reference images) through
  :meth:`SceneStore.get_scene`; fields and engines are resolved by the
  backend's workers, which is what lets a process pool own its bundles in
  shared-nothing store shards.

Determinism is preserved where the tests need it: under the default
:class:`~repro.serve.backends.SerialBackend`, :meth:`step` renders exactly
one tile in the same schedule earlier single-worker revisions produced, and
served frames are bit-identical to direct engine renders under *every*
backend (see :mod:`repro.serve.tiles`).
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from enum import Enum, IntEnum
from typing import Callable, Deque, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.hardware.workload import COST_METRICS, FrameWorkload, workload_from_scene
from repro.nerf.metrics import psnr as compute_psnr
from repro.nerf.renderer import RenderStats
from repro.serve.backends import ExecutionBackend, SerialBackend, TileResult, TileTask, make_backend
from repro.serve.cache import TileCache, make_cache, tile_fingerprint
from repro.serve.metrics import (
    prometheus_counter,
    prometheus_gauge,
    prometheus_histogram,
    render_prometheus,
)
from repro.serve.store import SceneStore
from repro.serve.telemetry import ServerStats, Telemetry
from repro.serve.tiles import Tile, assemble_tiles, plan_tiles
from repro.serve.tracing import TraceRecorder

__all__ = [
    "Priority",
    "JobState",
    "JobView",
    "TileUpdate",
    "ServeResult",
    "RenderServer",
    "UnknownJobError",
    "OVER_COST_POLICIES",
]


class UnknownJobError(KeyError):
    """A job id the server does not know (never submitted, or retired).

    Subclasses :class:`KeyError` for backward compatibility with callers that
    caught the bare ``KeyError`` earlier revisions raised; network front ends
    catch this precisely and map it to HTTP 404.
    """


class Priority(IntEnum):
    """Scheduling class, drained in declaration order (HIGH first).

    ``LOW`` is where the ``demote`` over-cost admission policy parks
    over-budget work: admitted, but only rendered when nothing more
    important wants the workers.
    """

    HIGH = 0
    NORMAL = 1
    LOW = 2


class JobState(str, Enum):
    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    REJECTED = "rejected"
    EXPIRED = "expired"
    FAILED = "failed"
    CANCELLED = "cancelled"


#: States in which a job still wants worker time.
_ACTIVE_STATES = (JobState.QUEUED, JobState.RUNNING)

#: What ``over_cost_policy`` accepts: reject over-budget work outright, or
#: admit it demoted to ``Priority.LOW``.
OVER_COST_POLICIES = ("reject", "demote")


@dataclass(eq=False)
class _Job:
    """Internal per-job bookkeeping (callers see :class:`JobView`)."""

    job_id: str
    scene: str
    pipeline: str
    camera_index: int
    priority: Priority
    deadline_s: Optional[float]
    tile_size: Optional[int]
    transmittance_threshold: Optional[float]
    compare_to_reference: bool
    submitted_at: float
    estimated_cost: Optional[float] = None
    state: JobState = JobState.QUEUED
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    bundle_cached: Optional[bool] = None
    memory_bytes: int = 0
    #: The shared, immutable plan of this job's geometry (see plan_tiles).
    tiles: Tuple[Tile, ...] = ()
    #: Per-tile content-address fingerprints, computed once at planning time
    #: and dropped at the terminal transition (``None`` while the server
    #: runs with the cache off).
    tile_keys: Optional[List[str]] = None
    #: ``(height, width)`` captured at planning time, so finalization never
    #: re-loads a scene the store may have dropped mid-job.
    frame_shape: Optional[Tuple[int, int]] = None
    tiles_dispatched: int = 0
    tiles_completed: int = 0
    #: When the finished frame was first fetched (closes the deliver span).
    delivered_at: Optional[float] = None
    #: Completed tile images keyed by tile index — a dict, not a list,
    #: because pool backends complete tiles out of order.
    tile_images: Dict[int, np.ndarray] = field(default_factory=dict)
    max_applied_tile: int = -1
    stats: RenderStats = field(default_factory=RenderStats)
    service_s: float = 0.0
    error: Optional[str] = None
    result: Optional["ServeResult"] = None


@dataclass(eq=False)
class TileUpdate:
    """One streamed tile of a partially rendered frame."""

    tile: Tile
    image: np.ndarray


@dataclass(eq=False)
class JobView:
    """What :meth:`RenderServer.poll` returns: a job's externally visible state."""

    job_id: str
    state: JobState
    scene: str
    pipeline: str
    camera_index: int
    priority: Priority
    tiles_total: int
    tiles_done: int
    age_s: float
    estimated_cost: Optional[float] = None
    error: Optional[str] = None
    #: Completed tiles so far, in frame order — populated only by
    #: ``poll(..., include_tiles=True)`` while the job is rendering; the
    #: streaming consumer pastes them into a canvas as they arrive.
    completed_tiles: Optional[Tuple[TileUpdate, ...]] = None

    @property
    def progress(self) -> float:
        """Fraction of tiles rendered (0.0 before the job is planned)."""
        return self.tiles_done / self.tiles_total if self.tiles_total else 0.0


@dataclass(eq=False)
class ServeResult:
    """A completed job's frame plus its serving-side accounting.

    ``queue_wait_s`` spans submission to the job's first tile being
    dispatched, ``service_s`` is the rendering + bundle-build time workers
    actually spent on the job (wall-parallel time under pool backends),
    ``latency_s`` spans submission to completion.
    """

    job_id: str
    scene: str
    pipeline: str
    camera_index: int
    image: np.ndarray
    psnr: Optional[float]
    stats: RenderStats
    num_tiles: int
    queue_wait_s: float
    service_s: float
    latency_s: float
    bundle_cached: bool
    memory_bytes: int


class RenderServer:
    """Serves render jobs for many scenes and pipelines from one store.

    Parameters
    ----------
    store:
        The :class:`SceneStore` providing scenes to the scheduler and (for
        in-process backends) bundles to the workers.
    backend:
        Where tiles execute: an :class:`~repro.serve.backends.ExecutionBackend`
        instance, one of the names ``"serial"`` / ``"thread"`` / ``"process"``,
        or ``None`` for the default deterministic serial backend.  The server
        owns the backend — :meth:`close` tears it down.
    max_pending:
        Admission limit on jobs that are queued or running; submissions over
        it are rejected (``None`` = unbounded).
    max_pending_cost:
        Cost-based admission budget: each submission is priced by the
        hardware layer's :func:`~repro.hardware.workload.workload_from_scene`
        estimate scaled to the requested camera's geometry, and work that
        would push the summed cost of admitted-unfinished jobs over this
        budget is rejected — or demoted to ``Priority.LOW`` under the
        ``demote`` policy.  Units are those of ``cost_metric``.
    cost_metric:
        The :meth:`FrameWorkload.cost` currency admission budgets in:
        ``"total_samples"`` (default) or ``"mlp_flops"``.
    over_cost_policy:
        ``"reject"`` (default) or ``"demote"`` — what happens to work that
        does not fit the cost budget.
    default_tile_size:
        Tile size when a submission does not pick one.  ``None`` falls back
        to the scene's configured ray chunk size, which keeps served frames
        bit-identical to the bundle engine's direct ``render_image``.
    max_finished_jobs:
        Retention bound on finished jobs (done, rejected, expired, failed):
        once exceeded, the oldest-finished jobs — frames included — are
        forgotten and their ids no longer poll (``None`` = keep forever).
    cache:
        The content-addressed tile cache (see :mod:`repro.serve.cache`):
        a ready-made :class:`~repro.serve.cache.TileCache`, ``"lru"`` for a
        byte-budgeted LRU cache, or ``"off"`` / ``None`` (the default — the
        scheduler behaves exactly as before).  With a cache, tiles whose
        fingerprint is resident skip the backend entirely, and identical
        tiles *in flight* across concurrent jobs collapse to one dispatch
        whose result fans out to every waiting job at apply time.  Served
        frames stay bit-identical either way — renders are deterministic,
        so a cached tile's bytes equal a fresh render's.
    cache_budget_bytes:
        LRU byte budget for ``cache="lru"``.  Refused (like any knob that
        cannot take effect) with the cache off or with a ready-made
        instance that owns its own budget.
    clock:
        Monotonic time source (injectable for deterministic deadline tests).
        Worker utilization always uses real wall time.
    trace_capacity:
        Finished job traces retained by the server's
        :class:`~repro.serve.tracing.TraceRecorder` ring (``0`` disables
        tracing entirely).  The tracer shares the server's clock, so span
        timestamps and the job bookkeeping agree exactly.
    """

    def __init__(
        self,
        store: SceneStore,
        backend: Union[ExecutionBackend, str, None] = None,
        max_pending: Optional[int] = None,
        max_pending_cost: Optional[float] = None,
        cost_metric: str = "total_samples",
        over_cost_policy: str = "reject",
        default_tile_size: Optional[int] = None,
        max_finished_jobs: Optional[int] = 1024,
        cache: Union[TileCache, str, None] = None,
        cache_budget_bytes: Optional[int] = None,
        clock: Callable[[], float] = time.perf_counter,
        trace_capacity: int = 256,
    ) -> None:
        if max_pending is not None and max_pending < 1:
            raise ValueError(f"max_pending must be at least 1, got {max_pending}")
        if max_pending_cost is not None and max_pending_cost <= 0:
            raise ValueError(f"max_pending_cost must be positive, got {max_pending_cost}")
        if cost_metric not in COST_METRICS:
            raise ValueError(
                f"unknown cost_metric {cost_metric!r}; choose from {', '.join(COST_METRICS)}"
            )
        if over_cost_policy not in OVER_COST_POLICIES:
            raise ValueError(
                f"unknown over_cost_policy {over_cost_policy!r}; "
                f"choose from {', '.join(OVER_COST_POLICIES)}"
            )
        if max_finished_jobs is not None and max_finished_jobs < 1:
            raise ValueError(f"max_finished_jobs must be at least 1, got {max_finished_jobs}")
        if default_tile_size is not None and default_tile_size < 1:
            raise ValueError(f"default_tile_size must be at least 1, got {default_tile_size}")
        self.store = store
        if backend is None:
            backend = SerialBackend()
        elif isinstance(backend, str):
            backend = make_backend(backend)
        self.backend = backend
        self.backend.start(store)
        self.max_pending = max_pending
        self.max_pending_cost = max_pending_cost
        self.cost_metric = cost_metric
        self.over_cost_policy = over_cost_policy
        self.default_tile_size = default_tile_size
        self.max_finished_jobs = max_finished_jobs
        self._clock = clock
        self.cache = make_cache(cache, cache_budget_bytes, clock=clock)
        #: In-flight dedupe: fingerprint -> ``[(job_id, tile_index), ...]``
        #: of every job waiting on that tile; the first entry owns the one
        #: real backend dispatch, the rest attached without dispatching.
        self._pending_keys: Dict[str, List[Tuple[str, int]]] = {}
        #: Reverse map of the origin dispatch: ``(job_id, tile_index)`` ->
        #: fingerprint, popped when the (first, non-duplicate) result lands.
        self._task_keys: Dict[Tuple[str, int], str] = {}
        self._jobs: Dict[str, _Job] = {}
        self._queues: Dict[Priority, Deque[str]] = {p: deque() for p in Priority}
        #: Ids still wanting worker time — submit/step touch this, never _jobs.
        self._active: set = set()
        #: Finished ids in completion order, oldest first (retention queue).
        self._finished: Deque[str] = deque()
        #: Summed estimated cost of admitted-unfinished jobs.
        self._pending_cost = 0.0
        #: Cached per-scene workload estimates for admission pricing.
        self._workloads: Dict[str, FrameWorkload] = {}
        #: Real wall clock of the first dispatch (utilization denominator).
        self._wall_start: Optional[float] = None
        self.telemetry = Telemetry()
        self.tracer = TraceRecorder(capacity=trace_capacity, clock=clock)
        self._seq = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Tear down the execution backend (idle workers, queues, processes)."""
        self.backend.close()

    def __enter__(self) -> "RenderServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Admission pricing
    # ------------------------------------------------------------------
    def estimate_cost(self, scene: str, camera_index: int = 0) -> float:
        """The admission cost of one frame of ``scene`` in ``cost_metric`` units.

        Prices via the hardware layer's analytic
        :func:`~repro.hardware.workload.workload_from_scene` (cached per
        scene) scaled to the requested camera's pixel geometry, closing the
        loop between the paper's workload model and the serving layer.
        """
        workload = self._workloads.get(scene)
        scene_obj = self.store.get_scene(scene)
        if workload is None:
            workload = workload_from_scene(scene_obj)
            self._workloads[scene] = workload
        camera = scene_obj.cameras[camera_index]
        return workload.scaled_to(camera.width, camera.height).cost(self.cost_metric)

    # ------------------------------------------------------------------
    # Submission / inspection
    # ------------------------------------------------------------------
    def submit(
        self,
        scene: str,
        pipeline: str = "spnerf",
        camera_index: int = 0,
        priority: Priority = Priority.NORMAL,
        deadline_s: Optional[float] = None,
        tile_size: Optional[int] = None,
        transmittance_threshold: Optional[float] = None,
        compare_to_reference: bool = False,
        trace_origin_s: Optional[float] = None,
    ) -> str:
        """Enqueue one frame job and return its id (admission may reject it).

        A rejected job is still registered — :meth:`poll` reports it as
        ``REJECTED`` — so callers observe backpressure instead of an
        exception mid-burst.

        ``trace_origin_s`` back-dates the job's trace to a moment *before*
        submission on the server's own clock (read it via :meth:`now`) — the
        HTTP edge passes its request-parse time here, so the trace's root
        covers edge overhead too.  It never affects scheduling or the
        latency accounting, which stay anchored at ``submitted_at``.
        """
        if tile_size is not None and tile_size < 1:
            raise ValueError(f"tile_size must be at least 1, got {tile_size}")
        self._seq += 1
        priority = Priority(priority)
        admitted = self.max_pending is None or self.pending_count() < self.max_pending
        over_cost = False
        cost: Optional[float] = None
        if self.max_pending_cost is not None:
            try:
                cost = self.estimate_cost(scene, camera_index)
            except Exception:  # noqa: BLE001 - unknown scene/camera: admit, let
                cost = None  # the render path fail the job with a real error
            # The cost branch only applies to submissions the count check
            # admitted: a count-rejected job must keep its requested priority
            # and must not record a demotion that never happened.
            if admitted and cost is not None and (
                self._pending_cost + cost > self.max_pending_cost
            ):
                if self.over_cost_policy == "reject":
                    admitted, over_cost = False, True
                elif priority is not Priority.LOW:
                    priority = Priority.LOW
                    self.telemetry.demoted_over_cost += 1
        job = _Job(
            job_id=f"job-{self._seq:05d}",
            scene=scene,
            pipeline=pipeline,
            camera_index=camera_index,
            priority=priority,
            deadline_s=deadline_s,
            tile_size=tile_size,
            transmittance_threshold=transmittance_threshold,
            compare_to_reference=compare_to_reference,
            submitted_at=self._clock(),
            estimated_cost=cost,
        )
        self._jobs[job.job_id] = job
        self.telemetry.submitted += 1
        self.tracer.start(
            job.job_id,
            origin_s=trace_origin_s if trace_origin_s is not None else job.submitted_at,
            scene=scene,
            pipeline=pipeline,
            camera_index=camera_index,
            priority=job.priority.name,
        )
        if admitted:
            self._active.add(job.job_id)
            self._queues[job.priority].append(job.job_id)
            if cost is not None:
                self._pending_cost += cost
            self.tracer.begin_span(job.job_id, "queue", start_s=job.submitted_at)
        else:
            job.state = JobState.REJECTED
            job.finished_at = job.submitted_at
            self.telemetry.rejected += 1
            if over_cost:
                self.telemetry.rejected_over_cost += 1
            self.tracer.add_event(
                job.job_id, "rejected", ts_s=job.submitted_at, over_cost=over_cost
            )
            self.tracer.finish(job.job_id, JobState.REJECTED.value, finished_s=job.finished_at)
            self._retire(job)
        return job.job_id

    def poll(self, job_id: str, include_tiles: bool = False) -> JobView:
        """The current externally visible state of one job.

        With ``include_tiles=True`` the view also carries every completed
        tile (:class:`TileUpdate`\\ s in frame order) — the streaming
        partial-result interface.  A still-rendering job exposes the shards
        applied so far; a ``DONE`` job exposes the full tile set, sliced
        back out of the assembled frame (tiles are contiguous spans of the
        flattened frame, so the slices are the exact rendered shards) — a
        streaming consumer that attached late never misses the final tile.
        """
        job = self._job(job_id)
        completed: Optional[Tuple[TileUpdate, ...]] = None
        if include_tiles:
            if job.state is JobState.DONE and job.result is not None:
                flat = job.result.image.reshape(-1, job.result.image.shape[-1])
                completed = tuple(
                    TileUpdate(tile=tile, image=flat[tile.start:tile.stop])
                    for tile in job.tiles
                )
            else:
                completed = tuple(
                    TileUpdate(tile=job.tiles[index], image=job.tile_images[index])
                    for index in sorted(job.tile_images)
                )
        return JobView(
            job_id=job.job_id,
            state=job.state,
            scene=job.scene,
            pipeline=job.pipeline,
            camera_index=job.camera_index,
            priority=job.priority,
            tiles_total=len(job.tiles),
            tiles_done=job.tiles_completed,
            age_s=(job.finished_at if job.finished_at is not None else self._clock())
            - job.submitted_at,
            estimated_cost=job.estimated_cost,
            error=job.error,
            completed_tiles=completed,
        )

    def now(self) -> float:
        """The server's monotonic clock (the timebase of traces and jobs).

        Thread-safe: front ends on other threads read it to timestamp a
        request-parse moment they later pass to :meth:`submit` as
        ``trace_origin_s``.
        """
        return self._clock()

    def result(self, job_id: str) -> ServeResult:
        """The finished frame of a ``DONE`` job (raises for any other state).

        The first fetch closes the job's ``deliver`` span — the gap between
        completion and the caller actually taking the frame.
        """
        job = self._job(job_id)
        if job.state is not JobState.DONE:
            detail = f": {job.error}" if job.error else ""
            raise RuntimeError(f"job {job_id} is {job.state.value}, not done{detail}")
        assert job.result is not None
        self.mark_delivered(job_id)
        return job.result

    def mark_delivered(self, job_id: str) -> None:
        """Record the first delivery of a ``DONE`` job's frame (idempotent).

        Closes the ``deliver`` span and feeds the delivery-lag histogram;
        called implicitly by :meth:`result`, and explicitly by streaming
        front ends that push the terminal frame without a fetch.  No-op for
        unknown ids and non-``DONE`` states, so front ends can call it
        unconditionally.
        """
        job = self._jobs.get(job_id)
        if job is None or job.state is not JobState.DONE or job.delivered_at is not None:
            return
        job.delivered_at = self._clock()
        self.tracer.end_span(job_id, "deliver", end_s=job.delivered_at)
        if job.finished_at is not None:
            self.telemetry.record_delivery(job.delivered_at - job.finished_at)

    def cancel(self, job_id: str) -> bool:
        """Cancel an active job; returns whether it transitioned to ``CANCELLED``.

        Undispatched tiles are dropped (queue entries purge lazily at the next
        scheduling point) and results of tiles already in flight are discarded
        on arrival, counted in ``dropped_tile_results`` — a tile mid-render is
        never aborted.  Cancelling a job that already reached a terminal state
        is a no-op returning ``False``, so a streaming front end can cancel on
        client disconnect without racing completion.  Unknown ids raise
        :class:`UnknownJobError`.
        """
        job = self._job(job_id)
        if job.state not in _ACTIVE_STATES:
            return False
        job.state = JobState.CANCELLED
        job.finished_at = self._clock()
        job.tile_images = {}  # partial shards are dead weight now
        self.telemetry.cancelled += 1
        self.tracer.add_event(job.job_id, "cancelled", ts_s=job.finished_at)
        self.tracer.finish(job.job_id, JobState.CANCELLED.value, finished_s=job.finished_at)
        self._retire(job)
        return True

    def pending_count(self) -> int:
        """Jobs currently queued or mid-render (the admission count)."""
        return len(self._active)

    def pending_cost(self) -> float:
        """Summed estimated cost of admitted-unfinished jobs."""
        return self._pending_cost

    def has_pending(self) -> bool:
        """Whether stepping can still make progress (jobs or in-flight tiles)."""
        return bool(self._active) or self.backend.in_flight > 0

    def stats(self) -> ServerStats:
        """One :class:`ServerStats` snapshot (telemetry + store + backend)."""
        wall = time.perf_counter() - self._wall_start if self._wall_start is not None else None
        return self.telemetry.snapshot(
            queue_depth=self.pending_count(),
            store_stats=self.store.stats(),
            backend=self.backend.name,
            num_workers=self.backend.num_workers,
            wall_s=wall,
            pending_cost=self._pending_cost,
            worker_respawns=self.backend.worker_respawns,
            redispatched_tiles=self.backend.redispatched_tiles,
            hedged_tiles=self.backend.hedged_tiles,
            stolen_keys=self.backend.stolen_keys,
            host_losses=self.backend.host_losses,
            host_reconnects=self.backend.host_reconnects,
            local_fallback_tiles=self.backend.local_fallback_tiles,
            dropped_backend_events=self.backend.dropped_events,
            cache_stats=self.cache.stats() if self.cache is not None else None,
        )

    def metrics_families(self) -> List[List[str]]:
        """The server's Prometheus families (the edge appends its own)."""
        stats = self.stats()
        counters = [
            ("jobs_submitted", "Jobs submitted over the server's lifetime.", stats.submitted),
            ("jobs_completed", "Jobs that finished with a frame.", stats.completed),
            ("jobs_rejected", "Jobs refused by admission control.", stats.rejected),
            ("jobs_expired", "Jobs whose deadline elapsed before completion.", stats.expired),
            ("jobs_failed", "Jobs that errored while rendering or finalizing.", stats.failed),
            ("jobs_cancelled", "Jobs cancelled by their caller.", stats.cancelled),
            ("tiles_rendered", "Tile renders applied (duplicates excluded).", stats.tiles_rendered),
            ("tile_results_dropped", "Tile completions dropped (late, duplicate).",
             stats.dropped_tile_results),
            ("worker_respawns", "Dead pool workers replaced by the supervisor.",
             stats.worker_respawns),
            ("tiles_redispatched", "In-flight tiles re-sent after a worker died.",
             stats.redispatched_tiles),
            ("tiles_hedged", "Speculative duplicate dispatches of slow tiles.",
             stats.hedged_tiles),
            ("keys_stolen", "Affinity keys migrated off a saturated worker.",
             stats.stolen_keys),
            ("host_losses", "Remote hosts declared dead (EOF, torn frame, heartbeat).",
             stats.host_losses),
            ("host_reconnects", "Remote host connections re-established after a loss.",
             stats.host_reconnects),
            ("tiles_local_fallback", "Tiles rendered on the local fallback shard.",
             stats.local_fallback_tiles),
            ("backend_events_dropped", "Elasticity events evicted from the bounded ring.",
             stats.dropped_backend_events),
            ("store_hits", "Bundle requests served from residency.", stats.store_hits),
            ("store_misses", "Bundle requests that forced a build.", stats.store_misses),
            ("store_evictions", "Bundles evicted by the store's LRU budget.",
             stats.store_evictions),
            ("cache_hits", "Tiles served from the content-addressed cache.",
             stats.cache_hits),
            ("cache_misses", "Tile cache lookups that went to the backend.",
             stats.cache_misses),
            ("cache_evictions", "Tiles evicted by the cache's LRU byte budget.",
             stats.cache_evictions),
            ("tiles_deduped", "Tiles attached to an identical in-flight dispatch.",
             stats.deduped_tiles),
            ("rays_rendered", "Rays rendered across all tiles.", stats.num_rays),
        ]
        families = [
            prometheus_counter(f"repro_serve_{name}_total", help_text, value)
            for name, help_text, value in counters
        ]
        families.append(prometheus_gauge(
            "repro_serve_queue_depth",
            "Jobs currently queued or mid-render.",
            [(None, stats.queue_depth)],
        ))
        families.append(prometheus_gauge(
            "repro_serve_pending_cost",
            "Summed admission-cost estimate of unfinished jobs.",
            [(None, stats.pending_cost)],
        ))
        families.append(prometheus_gauge(
            "repro_serve_resident_bundles",
            "Scene bundles currently resident in the store.",
            [(None, stats.resident_bundles)],
        ))
        families.append(prometheus_gauge(
            "repro_serve_resident_bytes",
            "Estimated bytes of resident scene bundles.",
            [(None, stats.resident_bytes)],
        ))
        families.append(prometheus_gauge(
            "repro_serve_cache_entries",
            "Tiles resident in the content-addressed cache.",
            [(None, stats.cache_entries)],
        ))
        families.append(prometheus_gauge(
            "repro_serve_cache_bytes",
            "Bytes held by resident cached tiles (packed rows plus bitmaps).",
            [(None, stats.cache_bytes)],
        ))
        families.append(prometheus_gauge(
            "repro_serve_cache_logical_bytes",
            "Bytes the resident cached tiles would take as raw arrays.",
            [(None, stats.cache_logical_bytes)],
        ))
        families.append(prometheus_gauge(
            "repro_serve_worker_utilization",
            "Per-worker busy fraction since the first dispatch.",
            [({"worker": str(worker)}, value)
             for worker, value in enumerate(stats.worker_utilization)],
        ))
        families.append(prometheus_gauge(
            "repro_serve_throughput_rays_per_s",
            "Busy-time-normalized ray throughput (per-worker efficiency).",
            [(None, stats.throughput_rays_per_s)],
        ))
        families.append(prometheus_gauge(
            "repro_serve_throughput_rays_per_s_wall",
            "Wall-clock-normalized ray throughput (serving capacity).",
            [(None, stats.throughput_rays_per_s_wall)],
        ))
        stage_help = {
            "queue_wait": "Submission-to-first-dispatch wait per job.",
            "build": "Bundle build time per cold tile batch.",
            "render": "Per-tile render service time.",
            "cache_hit": "Scheduler time serving a tile from the cache.",
            "reassemble": "Tile recomposition + reference compare per job.",
            "deliver": "Completion-to-first-fetch lag per delivered job.",
            "latency": "Submission-to-completion latency per job.",
        }
        for stage, histogram in self.telemetry.stages.items():
            families.append(prometheus_histogram(
                f"repro_serve_{stage}_seconds",
                stage_help.get(stage, f"{stage} stage duration."),
                histogram,
            ))
        return families

    def metrics_text(self) -> str:
        """The full ``GET /v1/metrics`` page (Prometheus text exposition)."""
        return render_prometheus(self.metrics_families())

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Advance the schedule: collect completions, dispatch runnable tiles.

        Under the serial backend this renders exactly one tile, preserving
        the deterministic cooperative loop; under pool backends it fills
        worker queues up to capacity and applies whatever completed, blocking
        briefly only when every runnable tile is already in flight.  Returns
        ``False`` when nothing is pending (the server is idle).  Deadline
        expiry happens here, at scheduling points — a tile already rendering
        is never aborted mid-flight; its result is dropped instead.

        Each step also runs the backend's :meth:`maintain` hook — the
        process pool's supervision sweep (respawn dead workers, re-dispatch
        their tiles), speculative hedging and work stealing — so a worker
        crash mid-job heals without the scheduler doing anything special:
        jobs complete, bit-identically, through the repair.
        """
        self._expire_overdue()
        self.backend.maintain()
        self._drain_backend_events()
        self._apply(self.backend.collect())
        progressed = self._dispatch()
        if progressed == 0 and self.backend.in_flight > 0:
            self._apply(self.backend.collect(block=True))
        else:
            self._apply(self.backend.collect())
        self._drain_backend_events()
        return self.has_pending()

    def run_until_idle(self, max_steps: Optional[int] = None) -> int:
        """Pump :meth:`step` until idle (or ``max_steps``); returns steps run."""
        steps = 0
        while (max_steps is None or steps < max_steps) and self.step():
            steps += 1
        return steps

    # ------------------------------------------------------------------
    def _job(self, job_id: str) -> _Job:
        try:
            return self._jobs[job_id]
        except KeyError:
            raise UnknownJobError(
                f"unknown job id {job_id!r} (never submitted, or retired "
                f"past the max_finished_jobs retention bound)"
            ) from None

    def _retire(self, job: _Job) -> None:
        """Record a terminal transition and trim retention of finished jobs.

        A finished job keeps no cache keys: dispatch was their last reader,
        and a server that retains every job would otherwise hold them all.
        """
        job.tile_keys = None
        self._active.discard(job.job_id)
        if job.estimated_cost is not None and job.state is not JobState.REJECTED:
            self._pending_cost = max(0.0, self._pending_cost - job.estimated_cost)
        self._finished.append(job.job_id)
        if self.max_finished_jobs is not None:
            while len(self._finished) > self.max_finished_jobs:
                self._jobs.pop(self._finished.popleft(), None)

    def _drain_backend_events(self) -> None:
        """Route the backend's elasticity events into traces.

        Stamped with the scheduler's clock at drain time — the one timebase
        rule again; the drain runs every step, so the skew is at most one
        scheduling interval.
        """
        if not self.tracer.enabled:
            return
        for event in self.backend.drain_events():
            self.tracer.add_event(event.job_id, event.name, **event.attrs)

    def _expire_overdue(self) -> None:
        now = self._clock()
        for job_id in list(self._active):
            job = self._jobs[job_id]
            if job.deadline_s is not None and now - job.submitted_at > job.deadline_s:
                job.state = JobState.EXPIRED
                job.finished_at = now
                job.tile_images = {}  # partial shards are dead weight now
                self.telemetry.expired += 1
                self.tracer.add_event(
                    job_id, "expired", ts_s=now, deadline_s=job.deadline_s
                )
                self.tracer.finish(job_id, JobState.EXPIRED.value, finished_s=now)
                self._retire(job)

    def _next_job(self) -> Optional[_Job]:
        """Round-robin pop of the next runnable job, HIGH queue first."""
        for priority in Priority:
            queue = self._queues[priority]
            while queue:
                job = self._jobs.get(queue.popleft())
                if job is not None and job.state in _ACTIVE_STATES:
                    return job
                # Expired/failed (possibly retention-dropped) entries are
                # purged lazily right here.
        return None

    def _dispatch(self) -> int:
        """Advance runnable tiles round-robin until the backend is full.

        A job whose ``(scene, pipeline)`` key the backend cannot accept
        right now (its sticky worker is at queue depth) is deferred to the
        next step rather than force-enqueued, keeping per-worker run-ahead
        bounded and leaving undispatched tiles cancellable by deadlines.

        With the cache on, each tile takes the cheapest of three paths, in
        order: a **cache hit** applies the stored pixels immediately (no
        backend, no capacity consumed), an identical tile already **in
        flight** for another job attaches to that dispatch's waiter list
        (fan-out happens when the result lands in :meth:`_apply`), and only
        a genuinely novel tile pays for a backend dispatch.  The returned
        count is total *progress* (dispatches + hits + attaches) — the step
        loop uses it to decide whether blocking on the backend is the only
        way forward.
        """
        progressed = 0
        deferred: List[_Job] = []
        while self.backend.has_capacity():
            job = self._next_job()
            if job is None:
                break
            if not self.backend.can_accept((job.scene, job.pipeline)):
                deferred.append(job)
                continue
            if job.state is JobState.QUEUED:
                try:
                    self._plan(job)
                except Exception as exc:  # noqa: BLE001 - a bad job must not
                    self._fail(job, f"{type(exc).__name__}: {exc}")  # kill the server
                    continue
            tile_index = job.tiles_dispatched
            tile = job.tiles[tile_index]
            key = job.tile_keys[tile_index] if job.tile_keys is not None else None
            job.tiles_dispatched += 1
            # Requeue BEFORE submitting/applying: a serial backend renders
            # inline, and a failure there must not lose the queue position.
            if job.tiles_dispatched < len(job.tiles):
                self._queues[job.priority].append(job.job_id)
            if key is not None:
                hit_start = self._clock()
                cached = self.cache.get(key)
                if cached is not None:
                    self._serve_cache_hit(job, tile_index, cached, hit_start)
                    progressed += 1
                    continue
                waiters = self._pending_keys.get(key)
                if waiters is not None:
                    origin_job, origin_tile = waiters[0]
                    waiters.append((job.job_id, tile_index))
                    self.telemetry.deduped_tiles += 1
                    self.tracer.add_event(
                        job.job_id,
                        "dedup-attach",
                        tile=tile_index,
                        origin_job=origin_job,
                        origin_tile=origin_tile,
                        link=f"{origin_job}/{origin_tile}",
                    )
                    progressed += 1
                    continue
                self._pending_keys[key] = [(job.job_id, tile_index)]
                self._task_keys[(job.job_id, tile_index)] = key
            task = TileTask(
                job_id=job.job_id,
                tile_index=tile_index,
                scene=job.scene,
                pipeline=job.pipeline,
                camera_index=tile.camera_index,
                start=tile.start,
                stop=tile.stop,
                transmittance_threshold=job.transmittance_threshold,
            )
            self.backend.submit(task)
            progressed += 1
        for job in deferred:
            self._queues[job.priority].append(job.job_id)
        return progressed

    def _plan(self, job: _Job) -> None:
        """First scheduling of a job: resolve geometry and plan its tiles.

        Deliberately scene-only — the field/engine bundle is the executing
        worker's concern, so planning stays cheap and process-pool servers
        never build bundles on the scheduler.
        """
        job.state = JobState.RUNNING
        scene = self.store.get_scene(job.scene)
        camera = scene.cameras[job.camera_index]
        tile_size = (
            job.tile_size
            or self.default_tile_size
            or scene.render_config.chunk_size
        )
        job.tiles = plan_tiles(camera.num_pixels, tile_size, camera_index=job.camera_index)
        job.frame_shape = (camera.height, camera.width)
        if self.cache is not None:
            # Content addresses are a pure function of immutable inputs, so
            # one computation at plan time covers the job's whole lifetime.
            # The key takes the threshold the render will use: None, 0 and
            # 0.0 on a scene configured with 0.0 are one render, one key.
            bundle = self.store.bundle_fingerprint(job.scene, job.pipeline)
            threshold = job.transmittance_threshold
            if threshold is None:
                threshold = scene.render_config.transmittance_threshold
            threshold = float(threshold)
            job.tile_keys = [
                tile_fingerprint(bundle, camera, tile.start, tile.stop, threshold)
                for tile in job.tiles
            ]
        job.started_at = self._clock()
        self.tracer.end_span(job.job_id, "queue", end_s=job.started_at)
        if self._wall_start is None:
            self._wall_start = time.perf_counter()

    def _apply(self, results: List[TileResult]) -> None:
        """Fold completed (possibly out-of-order) tiles back into their jobs.

        Each non-duplicate result resolves its pending-key entry: the tile
        is inserted into the cache and applied to *every* job that attached
        to the dispatch (the origin first), so cross-job dedupe costs one
        render however many jobs wanted the tile.  Only the origin absorbs
        the result's render stats and service time — the work happened
        once, and the aggregate telemetry must add up.
        """
        for result in results:
            if result.stats is not None:
                self.telemetry.record_tile(result.stats, result.service_s, result.worker_id)
            if result.build_s > 0.0:
                self.telemetry.record_build(result.build_s, result.worker_id)
            if result.duplicate:
                # A hedge loser or re-dispatch echo: byte-identical to the
                # copy already applied (renders are deterministic), so the
                # first completion won and this one is dropped — even when
                # the loser is an error, since the tile demonstrably
                # rendered fine once.  It must not resolve the pending-key
                # table either; the winner already did.
                self.telemetry.dropped_tile_results += 1
                continue
            key = self._task_keys.pop((result.job_id, result.tile_index), None)
            waiters = self._pending_keys.pop(key, None) if key is not None else None
            if waiters is None:
                waiters = [(result.job_id, result.tile_index)]
            if result.error is not None:
                # The render input is identical for every attached job, so
                # the failure is every waiter's failure (determinism cuts
                # both ways).  Nothing is cached.
                for job_id, _ in waiters:
                    job = self._jobs.get(job_id)
                    if job is None or job.state not in _ACTIVE_STATES:
                        self.telemetry.dropped_tile_results += 1
                        continue
                    self._fail(job, result.error)
                continue
            if key is not None:
                self.cache.put(key, result.image)
            link = f"{result.job_id}/{result.tile_index}" if len(waiters) > 1 else None
            for job_id, tile_index in waiters:
                job = self._jobs.get(job_id)
                if job is None or job.state not in _ACTIVE_STATES:
                    # Late arrival for an expired/failed/retired job: the
                    # work is counted (it did busy a worker) but the frame
                    # is gone.
                    self.telemetry.dropped_tile_results += 1
                    continue
                if tile_index in job.tile_images:
                    self.telemetry.dropped_tile_results += 1
                    continue
                if job_id == result.job_id and tile_index == result.tile_index:
                    self._trace_tile(job_id, result, link=link)
                    job.stats.merge(result.stats)
                    job.service_s += result.service_s + result.build_s
                    if job.bundle_cached is None:
                        job.bundle_cached = result.bundle_cached
                    job.memory_bytes = max(job.memory_bytes, result.memory_bytes)
                elif self.tracer.enabled:
                    now = self._clock()
                    self.tracer.add_span(
                        job_id, "render-tile", start_s=now, end_s=now,
                        tile=tile_index, origin="dedup",
                        origin_job=result.job_id, link=link,
                    )
                self._apply_tile(job, tile_index, result.image)

    def _serve_cache_hit(
        self, job: _Job, tile_index: int, image: np.ndarray, hit_start: float
    ) -> None:
        """Apply one cache-hit tile straight to its job (no backend round trip).

        The hit contributes no render stats, busy time or worker
        utilization — no worker rendered anything; the scheduler-side cost
        (lookup + apply) feeds the ``cache_hit`` stage histogram instead,
        which is the latency a hot-path frame actually pays per tile.
        """
        applied_at = self._clock()
        self.telemetry.record_cache_hit(applied_at - hit_start)
        if self.tracer.enabled:
            self.tracer.add_event(job.job_id, "cache-hit", ts_s=applied_at, tile=tile_index)
            self.tracer.add_span(
                job.job_id, "render-tile", start_s=hit_start, end_s=applied_at,
                tile=tile_index, origin="cache",
            )
        self._apply_tile(job, tile_index, image)

    def _apply_tile(self, job: _Job, tile_index: int, image: np.ndarray) -> None:
        """The common tail of every apply path: record the pixels, maybe finish."""
        if tile_index < job.max_applied_tile:
            self.telemetry.ooo_completions += 1
        job.max_applied_tile = max(job.max_applied_tile, tile_index)
        job.tile_images[tile_index] = image
        job.tiles_completed += 1
        if job.tiles_completed >= len(job.tiles):
            try:
                self._finalize(job)
            except Exception as exc:  # noqa: BLE001 - a job that cannot
                # finalize (reference render, assembly) fails alone; it
                # must not abort the scheduling loop mid-collection.
                self._fail(job, f"{type(exc).__name__}: {exc}")

    def _trace_tile(self, job_id: str, result: TileResult, link: Optional[str] = None) -> None:
        """Anchor one tile's worker-reported durations as scheduler-clock spans.

        Workers report ``build_s``/``service_s`` *durations* (never their own
        timestamps); the spans are laid out backwards from the moment this
        scheduler applied the result — build, then render, ending now.  The
        small right-shift (result-queue residency) is the price of keeping
        every span on one monotonic clock across the process boundary.

        ``link`` marks this render as the origin of a cross-job dedupe
        fan-out; the Chrome export draws a flow arrow from this span to
        every attached job's span carrying the same link.
        """
        if not self.tracer.enabled:
            return
        applied_at = self._clock()
        render_start = applied_at - max(result.service_s, 0.0)
        if result.build_s > 0.0:
            self.tracer.add_span(
                job_id,
                "build",
                start_s=render_start - result.build_s,
                end_s=render_start,
                worker=result.worker_id,
                tile=result.tile_index,
            )
        attrs = {"worker": result.worker_id, "tile": result.tile_index}
        if link is not None:
            attrs["link"] = link
        self.tracer.add_span(
            job_id,
            "render-tile",
            start_s=render_start,
            end_s=applied_at,
            **attrs,
        )

    def _finalize(self, job: _Job) -> None:
        assert job.frame_shape is not None
        reassemble_start = self._clock()
        images = [job.tile_images[index] for index in range(len(job.tiles))]
        image = assemble_tiles(job.tiles, images, job.frame_shape)
        quality = None
        if job.compare_to_reference:
            reference = self.store.get_scene(job.scene).reference_image(job.camera_index)
            quality = float(compute_psnr(image, reference))
        job.state = JobState.DONE
        job.finished_at = self._clock()
        started = job.started_at if job.started_at is not None else job.finished_at
        queue_wait = started - job.submitted_at
        latency = job.finished_at - job.submitted_at
        job.result = ServeResult(
            job_id=job.job_id,
            scene=job.scene,
            pipeline=job.pipeline,
            camera_index=job.camera_index,
            image=image,
            psnr=quality,
            stats=job.stats,
            num_tiles=len(job.tiles),
            queue_wait_s=queue_wait,
            service_s=job.service_s,
            latency_s=latency,
            bundle_cached=bool(job.bundle_cached),
            memory_bytes=job.memory_bytes,
        )
        job.tile_images = {}  # the assembled frame supersedes the shards
        self.telemetry.record_completion(
            latency, queue_wait, reassemble_s=job.finished_at - reassemble_start
        )
        self.tracer.add_span(
            job.job_id, "reassemble", start_s=reassemble_start, end_s=job.finished_at,
            num_tiles=len(job.tiles),
        )
        # The deliver span opens at completion and stays open until the first
        # result fetch (mark_delivered) — finish() leaves it alone.
        self.tracer.begin_span(job.job_id, "deliver", start_s=job.finished_at)
        self.tracer.finish(job.job_id, JobState.DONE.value, finished_s=job.finished_at)
        self._retire(job)

    def _fail(self, job: _Job, error: str) -> None:
        job.state = JobState.FAILED
        job.finished_at = self._clock()
        job.error = error
        job.tile_images = {}
        self.telemetry.failed += 1
        self.tracer.add_event(job.job_id, "failed", ts_s=job.finished_at, error=error)
        self.tracer.finish(job.job_id, JobState.FAILED.value, finished_s=job.finished_at)
        self._retire(job)
