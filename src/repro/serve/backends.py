"""Execution backends: where the server's tile jobs actually render.

The :class:`~repro.serve.server.RenderServer` is a pure scheduler — it plans
tiles, decides their order, and collects completions.  *Executing* a tile is
this module's job, behind one small contract (:class:`ExecutionBackend`):
``submit`` takes a picklable :class:`TileTask`, ``collect`` returns finished
:class:`TileResult`\\ s, possibly out of submission order.  Two backends
implement it in-process:

* :class:`SerialBackend` — renders on the scheduler's own thread at submit
  time.  One tile in flight, results in order: exactly the deterministic
  cooperative loop earlier revisions hard-wired into the server, and still
  the default.
* :class:`ProcessPoolBackend` — shared-nothing worker processes, each owning
  its *own* store shard built from the parent store's picklable
  :meth:`~repro.serve.store.SceneStore.spec` (bundles are rebuilt in the
  worker, never pickled — scene generation, compression and preprocessing
  are deterministic in the scene name and config, so a worker's bundle
  renders bit-identical frames).  This is the backend that parallelizes
  rendering on one host.

Neither touches the scheduler's store from a second thread, which is why
the store takes no locks (see :mod:`repro.serve.store`).

Tiles route to pool workers by ``(scene, pipeline)`` **affinity**: the first
tile of a key picks the least-loaded worker and every later tile follows it.
That keeps each bundle resident in exactly one shard (no duplicate builds,
per-shard memory budgets add up to the operator's budget).

Bit-identity holds across every backend because a tile renders as a
single contiguous ray batch (:func:`repro.api.render_tile`) regardless of
who executes it; see :mod:`repro.serve.tiles` for why batch geometry is the
only thing the bits depend on.

**Elasticity.**  Tile renders are deterministic in ``(scene, pipeline,
camera, span)``, so a duplicate completion of any tile is byte-identical to
the first and safely droppable — which makes every failure-tolerance
mechanism here safe by construction.  The process pool uses that freedom
three ways, all driven from a supervision sweep that runs on every
:meth:`~ExecutionBackend.collect` and once per server step via
:meth:`~ExecutionBackend.maintain`:

* **supervision + respawn** — a dead worker process is replaced by a fresh
  one rebuilt from the picklable :class:`~repro.serve.store.SceneStoreSpec`,
  and every tile that was resident on the dead shard is re-dispatched to the
  replacement (``worker_respawns`` / ``redispatched_tiles``);
* **speculative hedging** — a tile in flight longer than a configurable
  multiple of its key's observed p95 service time is duplicated onto the
  least-loaded other worker; the first completion wins and the loser is
  dropped by the scheduler (``hedged_tiles``);
* **work stealing** — when one shard is saturated while another sits idle,
  the hottest ``(scene, pipeline)`` key migrates its affinity to the idle
  worker, at a bounded rate so bundles don't thrash (``stolen_keys``).

Reproducible chaos is injected with a :class:`FaultPlan` (kill worker *N*
after *M* tiles, poison one bundle build, delay a worker, plus the network
faults only the remote backend can suffer), threaded through
:func:`make_backend` so tests and benchmarks can prove jobs survive.

A third backend crosses the host boundary:
:class:`~repro.serve.remote.RemoteBackend` (in :mod:`repro.serve.remote`)
speaks the same ``TileTask``/``TileResult`` contract to
:class:`~repro.serve.remote.RemoteHostAgent` processes over TCP, reusing
this module's affinity routing and outstanding-tile table — supervision and
re-dispatch transfer unchanged once a socket replaces the fork + queue pair.
"""

from __future__ import annotations

import multiprocessing
import os
import queue as queue_lib
import time
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Deque, Dict, List, Optional, Tuple

import numpy as np

from repro.api.engine import render_tile
from repro.nerf.renderer import RenderStats
from repro.serve.store import SceneStore

__all__ = [
    "TileTask",
    "TileResult",
    "FaultPlan",
    "BackendEvent",
    "ExecutionBackend",
    "SerialBackend",
    "ProcessPoolBackend",
    "BACKEND_NAMES",
    "make_backend",
]

#: Default seconds a blocking :meth:`ExecutionBackend.collect` waits for one
#: completion before returning empty-handed (keeping the scheduler's step
#: loop responsive to new arrivals and deadline expiry).
_COLLECT_BLOCK_S = 0.1


@dataclass(frozen=True)
class TileTask:
    """One tile render, described in plain picklable values.

    A task deliberately carries *names*, not objects: the executing worker
    resolves ``(scene, pipeline)`` against its own store, which is what lets
    a task cross a process boundary and still render the same bits.
    """

    job_id: str
    tile_index: int
    scene: str
    pipeline: str
    camera_index: int
    start: int
    stop: int
    transmittance_threshold: Optional[float] = None

    @property
    def key(self) -> Tuple[str, str]:
        """The ``(scene, pipeline)`` affinity key tiles route by."""
        return (self.scene, self.pipeline)


@dataclass(eq=False)
class TileResult:
    """One finished (or failed) tile, as reported back to the scheduler."""

    job_id: str
    tile_index: int
    worker_id: int
    image: Optional[np.ndarray] = None
    stats: Optional[RenderStats] = None
    service_s: float = 0.0
    build_s: float = 0.0
    bundle_cached: bool = True
    memory_bytes: int = 0
    error: Optional[str] = None
    #: Set by the *backend* (never a worker) when this completion resolves a
    #: tile that already completed — a hedge loser, or a re-dispatched copy
    #: whose original also made it back.  The scheduler drops it (the bytes
    #: are identical by construction) and counts ``dropped_tile_results``.
    duplicate: bool = False


@dataclass(frozen=True)
class FaultPlan:
    """A reproducible failure-injection recipe for the pool backends.

    Plans are plain picklable data threaded through :func:`make_backend`
    down into the workers, so chaos tests and ``perf_serve.py --chaos`` can
    stage the exact same disasters on every run:

    * ``kill_worker`` / ``kill_after_tiles`` — worker ``kill_worker``
      hard-exits (``os._exit``) the moment it picks up its
      ``kill_after_tiles``-th task, *without* answering it: the canonical
      crash mid-render.  Results it already reported are flushed first, so
      the parent sees a realistic partial history.  The respawned
      replacement does not inherit the kill (one crash per plan), which is
      what keeps re-dispatch a guarantee of progress.  Process backend only.
    * ``poison_key`` — the ``(scene, pipeline)`` whose bundle build raises
      :class:`~repro.serve.store.PoisonedBundleError` in every worker store:
      a corrupt checkpoint.  Jobs needing that bundle fail with the typed
      error; everything else keeps rendering.
    * ``delay_worker`` / ``delay_s`` — worker ``delay_worker`` sleeps
      ``delay_s`` before each tile: a degraded-but-alive shard, the case
      speculative hedging exists for.

    The **network faults** stage what only the remote backend can suffer
    (the in-process pools refuse plans that set them):

    * ``drop_host`` / ``drop_connection_after_tiles`` — host ``drop_host``
      tears its scheduler connection after serving that many tiles, mid
      result frame: the scheduler must detect the torn frame, discard the
      partial bytes, redispatch, and later reconnect.  Fires once per plan.
    * ``partition_host`` — that host goes silent on its next task without
      closing anything: no results, no pongs, socket open.  Only the
      heartbeat deadline can declare it dead.
    * ``delay_host`` / ``delay_host_s`` — that host sleeps *after*
      rendering, before replying: slow network rather than slow compute
      (``delay_worker`` models the latter).
    """

    kill_worker: Optional[int] = None
    kill_after_tiles: int = 1
    poison_key: Optional[Tuple[str, str]] = None
    delay_worker: Optional[int] = None
    delay_s: float = 0.0
    drop_host: Optional[int] = None
    drop_connection_after_tiles: int = 1
    partition_host: Optional[int] = None
    delay_host: Optional[int] = None
    delay_host_s: float = 0.0

    def __post_init__(self) -> None:
        if self.kill_after_tiles < 1:
            raise ValueError(f"kill_after_tiles must be at least 1, got {self.kill_after_tiles}")
        if self.delay_s < 0:
            raise ValueError(f"delay_s must be non-negative, got {self.delay_s}")
        if self.drop_connection_after_tiles < 1:
            raise ValueError(
                "drop_connection_after_tiles must be at least 1, "
                f"got {self.drop_connection_after_tiles}"
            )
        if self.delay_host_s < 0:
            raise ValueError(f"delay_host_s must be non-negative, got {self.delay_host_s}")

    def network_faults(self) -> Tuple[str, ...]:
        """The network-fault knobs this plan sets (remote backend only)."""
        faults = []
        if self.drop_host is not None:
            faults.append("drop_host")
        if self.partition_host is not None:
            faults.append("partition_host")
        if self.delay_host is not None:
            faults.append("delay_host")
        return tuple(faults)

    def without_kill(self) -> "FaultPlan":
        """The same plan minus the crash — what a respawned worker receives."""
        return replace(self, kill_worker=None)


@dataclass(eq=False)
class BackendEvent:
    """One elasticity action, reported upward for tracing.

    The counters (``worker_respawns`` & co.) answer *how often*; events
    answer *when and to whom*.  ``job_id`` is set for job-scoped actions
    (a re-dispatched or hedged tile) and ``None`` for pool-scoped ones (a
    respawn, a stolen affinity key) — the server routes the former into the
    job's trace and the latter onto the supervisor track.  Timestamps are
    deliberately absent: the scheduler stamps events on *its* clock when it
    drains them, keeping the whole trace on one timebase.
    """

    name: str
    job_id: Optional[str] = None
    attrs: Dict[str, object] = field(default_factory=dict)


@dataclass(eq=False)
class _Dispatch:
    """Routing state of one in-flight tile (pool backends only)."""

    task: TileTask
    worker: int
    dispatched_at: float
    hedge_worker: Optional[int] = None


def _execute_tile(store: SceneStore, task: TileTask, worker_id: int) -> TileResult:
    """Render one task against ``store``, never raising: failures become
    error results so a bad job cannot take a worker (or the server) down."""
    try:
        record, cached, build_s = store.get_accounted(task.scene, task.pipeline)
        start = time.perf_counter()
        rendered = render_tile(
            record.engine,
            task.camera_index,
            task.start,
            task.stop,
            transmittance_threshold=task.transmittance_threshold,
        )
        service_s = time.perf_counter() - start
        return TileResult(
            job_id=task.job_id,
            tile_index=task.tile_index,
            worker_id=worker_id,
            image=rendered.image,
            stats=rendered.stats,
            service_s=service_s,
            build_s=build_s,
            bundle_cached=cached,
            memory_bytes=record.memory_bytes,
        )
    except Exception as exc:  # noqa: BLE001 - must cross the worker boundary as data
        return TileResult(
            job_id=task.job_id,
            tile_index=task.tile_index,
            worker_id=worker_id,
            error=f"{type(exc).__name__}: {exc}",
        )


def _default_num_workers() -> int:
    """A small pool: enough to overlap scenes, not enough to thrash a laptop."""
    return max(2, min(4, os.cpu_count() or 2))


class ExecutionBackend:
    """The contract between the scheduling and execution layers.

    Lifecycle: the server calls :meth:`start` with its store once, then
    interleaves :meth:`submit` (while :meth:`has_capacity`) with
    :meth:`collect`, and finally :meth:`close`.  Completions may come back
    in any order; the scheduler owns reassembly.
    """

    #: Short name surfaced in :class:`~repro.serve.telemetry.ServerStats`.
    name: str = "?"
    #: Parallel workers this backend renders on.
    num_workers: int = 1
    #: Whether this backend honors :meth:`FaultPlan.network_faults` (only
    #: the remote backend does; the in-process pools refuse such plans).
    supports_network_faults: bool = False

    def __init__(self) -> None:
        self._in_flight = 0
        self._started = False
        #: Elasticity counters the server folds into :class:`ServerStats`.
        #: Only the pool/remote backends ever move them; they stay 0
        #: elsewhere.  The host_* and local_fallback counters belong to the
        #: remote backend (lost hosts, re-established connections, tiles
        #: rendered on the in-process fallback shard).
        self.worker_respawns = 0
        self.redispatched_tiles = 0
        self.hedged_tiles = 0
        self.stolen_keys = 0
        self.host_losses = 0
        self.host_reconnects = 0
        self.local_fallback_tiles = 0
        #: Events evicted from the bounded ring before anyone drained them —
        #: visible (via :class:`ServerStats`) instead of silently lost.
        self.dropped_events = 0
        #: Pending :class:`BackendEvent`\s, bounded so an undrained backend
        #: (no tracer attached) cannot grow without limit.
        self._events: Deque[BackendEvent] = deque(maxlen=4096)

    # -- lifecycle ------------------------------------------------------
    def start(self, store: SceneStore) -> None:
        """Bind to a store and spin up workers.  Idempotent per store."""
        if self._started:
            raise RuntimeError(
                f"{type(self).__name__} is already started; each RenderServer "
                "needs its own backend instance"
            )
        self._started = True
        self._start(store)

    def close(self) -> None:
        """Tear down workers.  In-flight results may be lost; close when idle."""
        if self._started:
            self._started = False
            self._close()

    # -- scheduling interface ------------------------------------------
    @property
    def in_flight(self) -> int:
        """Tasks submitted but not yet collected."""
        return self._in_flight

    def has_capacity(self) -> bool:
        """Whether the scheduler should dispatch another tile now."""
        return self._in_flight < self._max_in_flight()

    def can_accept(self, key: Tuple[str, str]) -> bool:
        """Whether a tile of this ``(scene, pipeline)`` key should dispatch now.

        Pool backends answer per worker: a key whose sticky worker is at
        queue depth is deferred even while other workers have headroom, so a
        hot key cannot pile unbounded run-ahead onto one queue (tiles left
        undispatched can still be cancelled by deadline expiry).
        """
        return self.has_capacity()

    def submit(self, task: TileTask) -> None:
        if not self._started:
            raise RuntimeError(f"{type(self).__name__} is not started")
        self._in_flight += 1
        self._submit(task)

    def collect(self, block: bool = False, timeout: Optional[float] = None) -> List[TileResult]:
        """Finished tiles since the last call (any order).

        Non-blocking by default; with ``block=True`` and tasks in flight,
        waits up to ``timeout`` (default ``_COLLECT_BLOCK_S``) for at least
        one completion, returning empty-handed on expiry so the scheduler
        stays responsive.  Dead workers never raise out of here: the pool
        backends run their supervision sweep first (respawn + re-dispatch)
        and the scheduler simply keeps collecting.  Results flagged
        ``duplicate`` resolve tiles already counted, so only first
        completions drain ``in_flight``.
        """
        results = self._collect(block=block and self._in_flight > 0, timeout=timeout)
        self._in_flight -= sum(1 for result in results if not result.duplicate)
        return results

    def maintain(self) -> None:
        """Periodic elasticity hook, called once per :meth:`RenderServer.step`.

        The base backends have nothing to do; the process pool supervises
        (respawn dead shards, re-dispatch their tiles), hedges stragglers and
        rebalances hot keys here — *between* collects, so a stalled worker is
        handled even while results from the others keep the queue full.
        """

    def drain_events(self) -> List[BackendEvent]:
        """Elasticity events since the last drain (oldest first)."""
        events = list(self._events)
        self._events.clear()
        return events

    def _emit(self, name: str, job_id: Optional[str] = None, **attrs) -> None:
        if self._events.maxlen is not None and len(self._events) == self._events.maxlen:
            self.dropped_events += 1  # the append below evicts the oldest
        self._events.append(BackendEvent(name=name, job_id=job_id, attrs=attrs))

    # -- subclass hooks -------------------------------------------------
    def _max_in_flight(self) -> int:
        raise NotImplementedError

    def _start(self, store: SceneStore) -> None:
        raise NotImplementedError

    def _submit(self, task: TileTask) -> None:
        raise NotImplementedError

    def _collect(self, block: bool, timeout: Optional[float]) -> List[TileResult]:
        raise NotImplementedError

    def _close(self) -> None:
        raise NotImplementedError


class SerialBackend(ExecutionBackend):
    """Render tiles inline on the scheduler's thread (the default).

    ``submit`` executes immediately and ``collect`` hands the single result
    back, so the server's step loop renders exactly one tile per step in
    deterministic order — the cooperative behaviour the traffic replayers
    and every pre-backend test were written against.
    """

    name = "serial"
    num_workers = 1

    def __init__(self) -> None:
        super().__init__()
        self._store: Optional[SceneStore] = None
        self._done: List[TileResult] = []

    def _max_in_flight(self) -> int:
        return 1

    def _start(self, store: SceneStore) -> None:
        self._store = store

    def _submit(self, task: TileTask) -> None:
        assert self._store is not None
        self._done.append(_execute_tile(self._store, task, worker_id=0))

    def _collect(self, block: bool, timeout: Optional[float]) -> List[TileResult]:
        done, self._done = self._done, []
        return done

    def _close(self) -> None:
        self._done = []


def _drain_queue(q) -> None:
    """Best-effort empty of a (possibly half-closed) queue, never blocking."""
    while True:
        try:
            q.get_nowait()
        except (queue_lib.Empty, OSError, ValueError, EOFError):
            return


class _PoolBackend(ExecutionBackend):
    """Shared plumbing of the worker-pool backends.

    Each worker owns an input queue; one output queue fans completions back
    in.  Routing is by sticky ``(scene, pipeline)`` affinity — first touch
    picks the worker with the fewest assigned keys — so bundles are resident
    exactly once across the pool and never rendered concurrently.

    Every in-flight tile is tracked in an ``_outstanding`` table keyed by
    ``(job_id, tile_index)``: the supervisor reads it to know which tiles
    were resident on a dead worker, and completions that resolve an
    already-resolved entry (hedge losers, re-dispatch echoes) are flagged
    ``duplicate`` so nothing is ever double-counted.
    """

    def __init__(
        self,
        num_workers: Optional[int] = None,
        queue_depth: int = 2,
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        super().__init__()
        if num_workers is not None and num_workers < 1:
            raise ValueError(f"num_workers must be at least 1, got {num_workers}")
        if queue_depth < 1:
            raise ValueError(f"queue_depth must be at least 1, got {queue_depth}")
        if fault_plan is not None and not self.supports_network_faults:
            refused = fault_plan.network_faults()
            if refused:
                raise ValueError(
                    f"network fault(s) {', '.join(refused)} require the remote "
                    "backend (in-process workers have no connections to drop)"
                )
        self.num_workers = num_workers if num_workers is not None else _default_num_workers()
        #: Submitted-not-collected tiles the scheduler may run ahead per
        #: worker; 2 keeps every worker busy while it renders.
        self.queue_depth = queue_depth
        self.fault_plan = fault_plan
        self._affinity: Dict[Tuple[str, str], int] = {}
        self._keys_per_worker = [0] * self.num_workers
        self._inflight_per_worker = [0] * self.num_workers
        #: Dispatches per key since its last migration (the steal heat signal).
        self._key_dispatches: Dict[Tuple[str, str], int] = {}
        #: In-flight tiles by ``(job_id, tile_index)``.
        self._outstanding: Dict[Tuple[str, int], _Dispatch] = {}
        self._task_queues: list = []
        self._result_queue = None

    def _start(self, store: SceneStore) -> None:
        self._affinity = {}
        self._keys_per_worker = [0] * self.num_workers
        self._inflight_per_worker = [0] * self.num_workers
        self._key_dispatches = {}
        self._outstanding = {}
        self._launch(store)

    def _launch(self, store: SceneStore) -> None:
        raise NotImplementedError

    def _max_in_flight(self) -> int:
        return self.num_workers * self.queue_depth

    def has_capacity(self) -> bool:
        """Dispatch while *some* worker has queue-depth headroom.

        Capacity is tracked per worker, not as one global cap: a hot
        ``(scene, pipeline)`` key backlogging its sticky worker must not
        block dispatch for jobs whose keys route to idle workers.  Which
        worker a specific tile may go to is :meth:`can_accept`'s per-key
        answer; this method only says whether dispatching is worth trying.
        """
        return any(count < self.queue_depth for count in self._inflight_per_worker)

    def can_accept(self, key: Tuple[str, str]) -> bool:
        return self._inflight_per_worker[self.worker_for(key)] < self.queue_depth

    def worker_for(self, key: Tuple[str, str]) -> int:
        """The sticky worker assignment of one ``(scene, pipeline)`` key."""
        worker = self._affinity.get(key)
        if worker is None:
            worker = min(range(self.num_workers), key=lambda i: self._keys_per_worker[i])
            self._affinity[key] = worker
            self._keys_per_worker[worker] += 1
        return worker

    def _submit(self, task: TileTask) -> None:
        worker = self.worker_for(task.key)
        self._key_dispatches[task.key] = self._key_dispatches.get(task.key, 0) + 1
        self._outstanding[(task.job_id, task.tile_index)] = _Dispatch(
            task=task, worker=worker, dispatched_at=time.monotonic()
        )
        self._inflight_per_worker[worker] += 1
        self._task_queues[worker].put(task)

    def _collect(self, block: bool, timeout: Optional[float]) -> List[TileResult]:
        assert self._result_queue is not None
        # Supervise on EVERY collect — a dead worker must not hide behind a
        # result queue kept full by the surviving workers.
        self._supervise()
        results = self._drain_results()
        if block and not results:
            try:
                first = self._result_queue.get(
                    timeout=timeout if timeout is not None else _COLLECT_BLOCK_S
                )
            except queue_lib.Empty:
                return results  # nothing finished in time; the caller re-steps
            results = self._ingest([first])
            results.extend(self._drain_results())  # whatever else finished meanwhile
        return results

    def _drain_results(self) -> List[TileResult]:
        raw: List[TileResult] = []
        while True:
            try:
                raw.append(self._result_queue.get_nowait())
            except queue_lib.Empty:
                break
        return self._ingest(raw)

    def _ingest(self, raw: List[TileResult]) -> List[TileResult]:
        """Resolve arrivals against the outstanding table (dedup + accounting)."""
        for result in raw:
            dispatch = self._outstanding.pop((result.job_id, result.tile_index), None)
            if dispatch is None:
                result.duplicate = True
            else:
                self._resolved(dispatch, result)
            if 0 <= result.worker_id < self.num_workers:
                if self._inflight_per_worker[result.worker_id] > 0:
                    self._inflight_per_worker[result.worker_id] -= 1
        return raw

    def _resolved(self, dispatch: _Dispatch, result: TileResult) -> None:
        """First completion of an outstanding tile (subclass hook)."""

    def _supervise(self) -> None:
        """Detect and repair dead workers (runs on every collect)."""
        raise NotImplementedError


def _process_worker(worker_id, spec, num_shards, task_queue, result_queue, fault_plan=None) -> None:
    """Entry point of one shared-nothing worker process.

    Builds this shard's own store from the spec (per-shard memory budget)
    and serves tasks until the ``None`` sentinel.  Runs until then; errors
    travel back as :class:`TileResult.error`, never as a dead process —
    except when a :class:`FaultPlan` deliberately crashes this worker, which
    is what the supervisor exists to survive.
    """
    store = SceneStore.from_spec(spec, shard_index=worker_id, num_shards=num_shards)
    if fault_plan is not None and fault_plan.poison_key is not None:
        store.poison(*fault_plan.poison_key)
    tiles_taken = 0
    while True:
        task = task_queue.get()
        if task is None:
            return
        tiles_taken += 1
        if (
            fault_plan is not None
            and fault_plan.kill_worker == worker_id
            and tiles_taken >= fault_plan.kill_after_tiles
        ):
            # Crash "mid-render": flush results already reported (a torn
            # pickle in the result pipe would fail the *parent*), then die
            # without answering this task — it must be re-dispatched.
            result_queue.close()
            result_queue.join_thread()
            os._exit(1)
        if (
            fault_plan is not None
            and fault_plan.delay_worker == worker_id
            and fault_plan.delay_s > 0
        ):
            time.sleep(fault_plan.delay_s)
        result_queue.put(_execute_tile(store, task, worker_id))


class ProcessPoolBackend(_PoolBackend):
    """Shared-nothing worker processes, each owning a store shard.

    Workers are forked where available (so closure loaders injected into the
    parent store keep working) and rebuild their bundles deterministically
    from the store spec; only :class:`TileTask`\\ s and :class:`TileResult`\\ s
    cross the process boundary, so per-tile Python overhead — sampling,
    masking, bookkeeping — runs in parallel outside the scheduler's GIL.

    Shared-nothing is also what makes this the *elastic* backend: a shard
    can be killed and rebuilt from the spec at any time, and a tile may
    safely render on two shards at once (each owns a private bundle), so
    supervision/respawn, speculative hedging and key stealing all live here.

    Parameters (beyond the pool's ``num_workers``/``queue_depth``/
    ``fault_plan``):

    hedge_multiplier:
        A tile in flight longer than ``hedge_multiplier`` x the p95 service
        time observed for its key (falling back to the pool-wide p95 until
        the key has ``hedge_min_samples`` of its own) is speculatively
        duplicated onto the least-loaded other worker.  ``None`` (default)
        disables hedging.
    hedge_min_samples:
        Completions needed before a p95 is trusted (default 8).
    hedge_budget:
        Maximum speculative duplicates in flight at once (default: one per
        worker) — hedging may never more than double the pool's load.
    steal_interval_s:
        Minimum seconds between affinity migrations.  When the hottest
        worker is saturated (at ``queue_depth``) while another sits idle,
        the hot worker's most-dispatched ``(scene, pipeline)`` key moves its
        affinity to the idle worker, which rebuilds the bundle
        deterministically on first touch.  ``None`` (default) disables
        stealing; the bound keeps bundles from thrashing between shards.
    """

    name = "process"

    def __init__(
        self,
        num_workers: Optional[int] = None,
        queue_depth: int = 2,
        fault_plan: Optional[FaultPlan] = None,
        hedge_multiplier: Optional[float] = None,
        hedge_min_samples: int = 8,
        hedge_budget: Optional[int] = None,
        steal_interval_s: Optional[float] = None,
    ) -> None:
        super().__init__(num_workers=num_workers, queue_depth=queue_depth, fault_plan=fault_plan)
        if hedge_multiplier is not None and hedge_multiplier <= 0:
            raise ValueError(f"hedge_multiplier must be positive, got {hedge_multiplier}")
        if hedge_min_samples < 1:
            raise ValueError(f"hedge_min_samples must be at least 1, got {hedge_min_samples}")
        if hedge_budget is not None and hedge_budget < 1:
            raise ValueError(f"hedge_budget must be at least 1, got {hedge_budget}")
        if steal_interval_s is not None and steal_interval_s < 0:
            raise ValueError(f"steal_interval_s must be non-negative, got {steal_interval_s}")
        self.hedge_multiplier = hedge_multiplier
        self.hedge_min_samples = hedge_min_samples
        self.hedge_budget = hedge_budget if hedge_budget is not None else self.num_workers
        self.steal_interval_s = steal_interval_s
        self._spec = None
        self._ctx = None
        self._processes: list = []
        self._hedges_in_flight = 0
        self._service_samples: Dict[Tuple[str, str], Deque[float]] = {}
        self._all_samples: Deque[float] = deque(maxlen=256)
        self._last_steal: Optional[float] = None

    # -- lifecycle ------------------------------------------------------
    def _launch(self, store: SceneStore) -> None:
        self._spec = store.spec()
        methods = multiprocessing.get_all_start_methods()
        self._ctx = multiprocessing.get_context("fork" if "fork" in methods else None)
        self._result_queue = self._ctx.Queue()
        self._task_queues = []
        self._processes = []
        self._hedges_in_flight = 0
        self._service_samples = {}
        self._all_samples = deque(maxlen=256)
        self._last_steal = None
        for worker_id in range(self.num_workers):
            task_queue, process = self._spawn_worker(worker_id, self.fault_plan)
            self._task_queues.append(task_queue)
            self._processes.append(process)

    def _spawn_worker(self, worker_id: int, fault_plan: Optional[FaultPlan]):
        task_queue = self._ctx.Queue()
        process = self._ctx.Process(
            target=_process_worker,
            args=(
                worker_id,
                self._spec,
                self.num_workers,
                task_queue,
                self._result_queue,
                fault_plan,
            ),
            name=f"serve-shard-{worker_id}",
            daemon=True,
        )
        process.start()
        return task_queue, process

    def _close(self) -> None:
        # Drop undispatched backlog, then sentinel every worker: a live
        # worker exits after at most its current tile; a dead worker's queue
        # must not wedge the feeder thread (drain + cancel_join_thread).
        for task_queue in self._task_queues:
            _drain_queue(task_queue)
            try:
                task_queue.put_nowait(None)
            except (OSError, ValueError, queue_lib.Full):
                pass
        for process in self._processes:
            process.join(timeout=5.0)
        for process in self._processes:
            if process.is_alive():
                process.terminate()
                process.join(timeout=1.0)
        for q in [*self._task_queues, self._result_queue]:
            if q is None:
                continue
            _drain_queue(q)
            try:
                q.close()
                q.cancel_join_thread()
            except (OSError, ValueError):
                pass
        self._outstanding.clear()
        self._hedges_in_flight = 0

    # -- elasticity -----------------------------------------------------
    def maintain(self) -> None:
        if not self._started:
            return
        self._supervise()
        self._hedge_stragglers()
        self._steal_hot_key()

    def _supervise(self) -> None:
        """Respawn dead workers and re-dispatch the tiles they stranded."""
        for worker_id, process in enumerate(self._processes):
            if process.exitcode is not None and not process.is_alive():
                self._respawn(worker_id)

    def _respawn(self, worker_id: int) -> None:
        self._processes[worker_id].join(timeout=1.0)  # reap the corpse
        old_queue = self._task_queues[worker_id]
        _drain_queue(old_queue)  # queued-but-unread tasks are re-dispatched below
        try:
            old_queue.close()
            old_queue.cancel_join_thread()
        except (OSError, ValueError):
            pass
        # One crash per plan: the replacement must make progress even under
        # kill_after_tiles=1, so it inherits poison/delay but never the kill.
        plan = self.fault_plan.without_kill() if self.fault_plan is not None else None
        task_queue, process = self._spawn_worker(worker_id, plan)
        self._task_queues[worker_id] = task_queue
        self._processes[worker_id] = process
        self.worker_respawns += 1
        self._emit("respawn", worker=worker_id)
        now = time.monotonic()
        for dispatch in self._outstanding.values():
            if dispatch.hedge_worker == worker_id:
                # The hedge copy died; the primary is still out there.
                dispatch.hedge_worker = None
                self._hedges_in_flight = max(0, self._hedges_in_flight - 1)
            if dispatch.worker == worker_id:
                if dispatch.hedge_worker is not None:
                    # A live hedge already covers this tile: promote it.
                    dispatch.worker = dispatch.hedge_worker
                    dispatch.hedge_worker = None
                    self._hedges_in_flight = max(0, self._hedges_in_flight - 1)
                else:
                    task_queue.put(dispatch.task)
                    dispatch.dispatched_at = now
                    self.redispatched_tiles += 1
                    self._emit(
                        "redispatched",
                        job_id=dispatch.task.job_id,
                        tile=dispatch.task.tile_index,
                        worker=worker_id,
                    )
        # Loads recomputed from the surviving routing table (results the dead
        # worker flushed before dying resolve their entries on arrival).
        loads = [0] * self.num_workers
        for dispatch in self._outstanding.values():
            loads[dispatch.worker] += 1
            if dispatch.hedge_worker is not None:
                loads[dispatch.hedge_worker] += 1
        self._inflight_per_worker = loads

    def _resolved(self, dispatch: _Dispatch, result: TileResult) -> None:
        if dispatch.hedge_worker is not None:
            # The losing copy still occupies its worker until its echo
            # arrives, but the *pair* is settled — free the hedge budget.
            self._hedges_in_flight = max(0, self._hedges_in_flight - 1)
        if result.error is None and result.service_s > 0:
            key = dispatch.task.key
            samples = self._service_samples.get(key)
            if samples is None:
                samples = self._service_samples[key] = deque(maxlen=64)
            samples.append(result.service_s)
            self._all_samples.append(result.service_s)

    def _hedge_stragglers(self) -> None:
        if self.hedge_multiplier is None or self.num_workers < 2 or not self._outstanding:
            return
        now = time.monotonic()
        for dispatch in self._outstanding.values():
            if self._hedges_in_flight >= self.hedge_budget:
                return
            if dispatch.hedge_worker is not None:
                continue
            p95 = self._service_p95(dispatch.task.key)
            if p95 is None or now - dispatch.dispatched_at <= self.hedge_multiplier * p95:
                continue
            target = min(
                (w for w in range(self.num_workers) if w != dispatch.worker),
                key=lambda w: self._inflight_per_worker[w],
            )
            dispatch.hedge_worker = target
            self._inflight_per_worker[target] += 1
            self._task_queues[target].put(dispatch.task)
            self._hedges_in_flight += 1
            self.hedged_tiles += 1
            self._emit(
                "hedged",
                job_id=dispatch.task.job_id,
                tile=dispatch.task.tile_index,
                worker=dispatch.worker,
                hedge_worker=target,
            )

    def _service_p95(self, key: Tuple[str, str]) -> Optional[float]:
        """The key's observed p95 service time (pool-wide until it has its
        own history; ``None`` while there is too little of either)."""
        samples = self._service_samples.get(key)
        pool = samples if samples and len(samples) >= self.hedge_min_samples else self._all_samples
        if len(pool) < self.hedge_min_samples:
            return None
        return float(np.percentile(np.asarray(pool, dtype=np.float64), 95))

    def _steal_hot_key(self) -> None:
        if self.steal_interval_s is None or self.num_workers < 2:
            return
        now = time.monotonic()
        if self._last_steal is not None and now - self._last_steal < self.steal_interval_s:
            return
        loads = self._inflight_per_worker
        hot = max(range(self.num_workers), key=lambda w: loads[w])
        cold = min(range(self.num_workers), key=lambda w: loads[w])
        if hot == cold or loads[hot] < self.queue_depth or loads[cold] > 0:
            return
        keys = [key for key, worker in self._affinity.items() if worker == hot]
        if not keys:
            return
        key = max(keys, key=lambda k: self._key_dispatches.get(k, 0))
        self._affinity[key] = cold
        self._keys_per_worker[hot] -= 1
        self._keys_per_worker[cold] += 1
        self._key_dispatches[key] = 0  # heat resets with the move
        self.stolen_keys += 1
        self._last_steal = now
        self._emit("stolen", scene=key[0], pipeline=key[1], src=hot, dst=cold)


#: Backend names :func:`make_backend` (and the benchmark CLI) accept.
BACKEND_NAMES = ("serial", "process", "remote")


def make_backend(
    name: str,
    num_workers: Optional[int] = None,
    queue_depth: Optional[int] = None,
    fault_plan: Optional[FaultPlan] = None,
    hedge_multiplier: Optional[float] = None,
    steal_interval_s: Optional[float] = None,
    hosts=None,
    heartbeat_interval_s: Optional[float] = None,
    heartbeat_timeout_s: Optional[float] = None,
    dispatch_timeout_s: Optional[float] = None,
    connect_timeout_s: Optional[float] = None,
    backoff_base_s: Optional[float] = None,
    backoff_max_s: Optional[float] = None,
    local_fallback: Optional[bool] = None,
) -> ExecutionBackend:
    """Construct a backend by name.

    ``num_workers`` and ``queue_depth`` configure the pool backends (each
    validates its own range); ``fault_plan`` injects reproducible failures
    into a pool (kill is process-only; network faults are remote-only);
    ``hedge_multiplier`` and ``steal_interval_s`` enable speculative
    re-dispatch and work stealing on the process pool.  ``hosts`` plus the
    heartbeat/backoff/timeout/fallback knobs configure the remote backend
    (see :class:`~repro.serve.remote.RemoteBackend`), which sizes itself
    from the host list.  Every backend refuses knobs it cannot honor —
    asking the serial backend for a fault plan, a pool for a heartbeat, or
    the remote backend for hedging is an error, not a silent no-op.
    """
    remote_only = {
        "hosts": hosts,
        "heartbeat_interval_s": heartbeat_interval_s,
        "heartbeat_timeout_s": heartbeat_timeout_s,
        "dispatch_timeout_s": dispatch_timeout_s,
        "connect_timeout_s": connect_timeout_s,
        "backoff_base_s": backoff_base_s,
        "backoff_max_s": backoff_max_s,
        "local_fallback": local_fallback,
    }
    if name in ("serial", "process"):
        refused = sorted(knob for knob, value in remote_only.items() if value is not None)
        if refused:
            raise ValueError(
                f"the {name} backend does not support the remote-only "
                f"knob(s): {', '.join(refused)}; use "
                "make_backend('remote', hosts=...)"
            )
    if name == "remote":
        if hedge_multiplier is not None or steal_interval_s is not None:
            raise ValueError(
                "hedging and work stealing are not supported on the remote "
                "backend (failover re-dispatch covers host loss)"
            )
        if num_workers is not None:
            raise ValueError(
                "the remote backend sizes itself from hosts=; "
                "num_workers is not accepted"
            )
        from repro.serve.remote import RemoteBackend  # lazy: avoids an import cycle

        remote_kwargs = {
            knob: value
            for knob, value in remote_only.items()
            if knob != "hosts" and value is not None
        }
        if queue_depth is not None:
            remote_kwargs["queue_depth"] = queue_depth
        return RemoteBackend(hosts=hosts, fault_plan=fault_plan, **remote_kwargs)
    if name == "serial":
        pool_only = {
            "queue_depth": queue_depth,
            "fault_plan": fault_plan,
            "hedge_multiplier": hedge_multiplier,
            "steal_interval_s": steal_interval_s,
        }
        refused = sorted(knob for knob, value in pool_only.items() if value is not None)
        if refused:
            raise ValueError(
                f"the serial backend does not support: {', '.join(refused)}"
            )
        return SerialBackend()
    pool_kwargs: dict = {"num_workers": num_workers, "fault_plan": fault_plan}
    if queue_depth is not None:
        pool_kwargs["queue_depth"] = queue_depth
    if name == "process":
        return ProcessPoolBackend(
            hedge_multiplier=hedge_multiplier,
            steal_interval_s=steal_interval_s,
            **pool_kwargs,
        )
    raise ValueError(f"unknown backend {name!r}; choose from {', '.join(BACKEND_NAMES)}")
