"""Multi-scene render serving on top of :mod:`repro.api`.

The serve subsystem turns the single-request :class:`~repro.api.RenderEngine`
into a multi-tenant server:

>>> from repro.serve import RenderServer, SceneStore
>>> store = SceneStore(memory_budget_bytes=256_000_000,
...                    scene_kwargs={"resolution": 64, "image_size": 64})
>>> server = RenderServer(store, backend="process", max_pending=32)
>>> job = server.submit("lego", "spnerf", priority=1)
>>> server.run_until_idle()
>>> server.result(job).image.shape
(64, 64, 3)

Seven layers, one module each:

* :mod:`~repro.serve.store` — :class:`SceneStore`: lazily built
  ``(scene, field, engine)`` bundles per ``(scene_name, pipeline)``, LRU
  eviction under a memory budget measured by the fields' own
  ``memory_report()``; picklable :class:`SceneStoreSpec` recipes so worker
  processes rebuild shard-local stores with per-shard budgets.
* :mod:`~repro.serve.tiles` — frame sharding into contiguous pixel tiles
  whose recomposition is bit-identical to a direct whole-frame render.
* :mod:`~repro.serve.cache` — :class:`TileCache`: finished tiles under an
  LRU byte budget, content-addressed by a canonical fingerprint of
  ``(bundle identity, camera pose + intrinsics, tile span, render knobs)``.
  Renders are deterministic, so cached tiles are *exact*; the scheduler
  serves hits without touching the backend and collapses identical
  in-flight tiles across concurrent jobs into one dispatch.
* :mod:`~repro.serve.backends` — where tiles execute:
  :class:`SerialBackend` (deterministic, default) and
  :class:`ProcessPoolBackend` (shared-nothing store shards, tiles routed by
  ``(scene, pipeline)`` affinity — true parallelism).  The process pool is
  self-healing and elastic: dead workers respawn from the store spec with
  their in-flight tiles re-dispatched, slow tiles are speculatively hedged,
  hot keys migrate to idle shards, and a :class:`FaultPlan` injects
  reproducible chaos (kill / poison / delay, plus remote-only network
  faults) for the failure tests.
* :mod:`~repro.serve.remote` — the same contract across the *host*
  boundary: :class:`RemoteBackend` schedules tiles over a stdlib-only TCP
  transport (length-prefixed, versioned frames; a schema skew fails with a
  typed :class:`WireVersionError`) to :class:`RemoteHostAgent` processes
  that rebuild their shard from the picklable store spec.  Heartbeats
  declare silent hosts dead, their in-flight tiles redispatch to survivors
  through the outstanding-tile table, reconnects back off exponentially
  with deterministic jitter, torn frames are detected and never parsed,
  and ``local_fallback=`` degrades to in-process rendering when every host
  is gone — frames stay bit-identical throughout.
  :class:`LocalHostCluster` forks loopback agents for tests and demos.
* :mod:`~repro.serve.server` — :class:`RenderServer`: a pure scheduler with
  submit/poll/result, priority + FIFO queues with per-tile round-robin,
  count- and cost-based admission (priced by the hardware layer's
  :class:`~repro.hardware.workload.FrameWorkload`), deadlines, out-of-order
  completion reassembly and streaming partial-frame delivery.
* :mod:`~repro.serve.telemetry` — :class:`ServerStats` snapshots (latency
  percentiles incl. p99, per-stage breakdowns, throughput, cache hit rates,
  per-worker utilization) backed by :mod:`~repro.serve.metrics` bounded
  streaming histograms, which also render the Prometheus text exposition of
  ``GET /v1/metrics``.
* :mod:`~repro.serve.tracing` — per-job traces of typed stage spans
  (``queue``/``build``/``render-tile``/``reassemble``/``deliver``) and
  elasticity point events, in a bounded ring; served as JSON
  (``GET /v1/trace/{id}``) and Chrome trace-event/Perfetto JSON
  (``GET /v1/traces/export``).
* :mod:`~repro.serve.traffic` — synthetic open-loop (Poisson) and
  closed-loop workloads plus replay harnesses; ``benchmarks/perf_serve.py``
  builds on them and writes ``BENCH_serve.json``.

The network edge lives in the :mod:`repro.serve.http` subpackage:
:class:`~repro.serve.http.HttpRenderFrontEnd` serves a :class:`RenderServer`
over HTTP/SSE with per-client rate limiting and weighted deficit-round-robin
fairness, and :class:`~repro.serve.http.RenderClient` consumes it.
"""

from repro.serve.backends import (
    BACKEND_NAMES,
    BackendEvent,
    ExecutionBackend,
    FaultPlan,
    ProcessPoolBackend,
    SerialBackend,
    TileResult,
    TileTask,
    make_backend,
)
from repro.serve.cache import (
    CACHE_MODES,
    DEFAULT_CACHE_BUDGET_BYTES,
    TileCache,
    TileCacheStats,
    make_cache,
    tile_fingerprint,
)
from repro.serve.metrics import (
    PROMETHEUS_CONTENT_TYPE,
    StreamingHistogram,
    render_prometheus,
)
from repro.serve.remote import (
    WIRE_VERSION,
    FrameDecoder,
    LocalHostCluster,
    RemoteBackend,
    RemoteHostAgent,
    TornFrameError,
    WireError,
    WireVersionError,
    encode_frame,
)
from repro.serve.server import (
    OVER_COST_POLICIES,
    JobState,
    JobView,
    Priority,
    RenderServer,
    ServeResult,
    TileUpdate,
    UnknownJobError,
)
from repro.serve.store import (
    PoisonedBundleError,
    SceneBundleRecord,
    SceneStore,
    SceneStoreSpec,
    SceneStoreStats,
)
from repro.serve.telemetry import STAGE_NAMES, ServerStats, Telemetry, percentile
from repro.serve.tiles import Tile, assemble_tiles, plan_tiles
from repro.serve.tracing import (
    EVENT_NAMES,
    SPAN_NAMES,
    JobTrace,
    Span,
    TraceEvent,
    TraceRecorder,
)
from repro.serve.traffic import (
    TrafficItem,
    closed_loop_workload,
    dolly_workload,
    http_open_loop,
    interpolated_walkthrough_workload,
    orbit_workload,
    poisson_workload,
    popular_scene_workload,
    replay_closed_loop,
    replay_open_loop,
    summarize_outcomes,
)

__all__ = [
    # store
    "SceneStore",
    "SceneStoreSpec",
    "SceneBundleRecord",
    "SceneStoreStats",
    "PoisonedBundleError",
    # tiles
    "Tile",
    "plan_tiles",
    "assemble_tiles",
    # cache
    "TileCache",
    "TileCacheStats",
    "tile_fingerprint",
    "make_cache",
    "CACHE_MODES",
    "DEFAULT_CACHE_BUDGET_BYTES",
    # backends
    "ExecutionBackend",
    "SerialBackend",
    "ProcessPoolBackend",
    "TileTask",
    "TileResult",
    "FaultPlan",
    "BackendEvent",
    "BACKEND_NAMES",
    "make_backend",
    # remote
    "RemoteBackend",
    "RemoteHostAgent",
    "LocalHostCluster",
    "WIRE_VERSION",
    "WireError",
    "WireVersionError",
    "TornFrameError",
    "encode_frame",
    "FrameDecoder",
    # server
    "RenderServer",
    "Priority",
    "JobState",
    "JobView",
    "TileUpdate",
    "ServeResult",
    "UnknownJobError",
    "OVER_COST_POLICIES",
    # telemetry
    "ServerStats",
    "Telemetry",
    "percentile",
    "STAGE_NAMES",
    # metrics
    "StreamingHistogram",
    "render_prometheus",
    "PROMETHEUS_CONTENT_TYPE",
    # tracing
    "TraceRecorder",
    "JobTrace",
    "Span",
    "TraceEvent",
    "SPAN_NAMES",
    "EVENT_NAMES",
    # traffic
    "TrafficItem",
    "poisson_workload",
    "closed_loop_workload",
    "orbit_workload",
    "dolly_workload",
    "interpolated_walkthrough_workload",
    "popular_scene_workload",
    "replay_open_loop",
    "replay_closed_loop",
    "http_open_loop",
    "summarize_outcomes",
]
