"""Turn a traced run's spans into per-layer metrics, a layer table and a trace.

**Attribution.**  Each frame's latency interval is partitioned among the
spans that worked for that frame (its own spans): at every instant the
deepest own span covering it gets the time, ties going to the later start.
A span's *self time* is what it receives.  For nested, non-overlapping spans
this is "the span minus its child spans"; overlapping siblings (two tiles of
one frame in flight at once) split the overlap instead of counting it twice,
so the layer self times of a frame always add up to its latency exactly.
The frame's root span keeps what no layer span covers: that is
``harness.unattributed_frac``.

Spans that serve no single frame (``RenderServer.step``, cache look-ups,
``collect``) are reported per call or per step rather than per frame.
"""

from __future__ import annotations

import bisect
import json
import statistics
from collections import defaultdict
from pathlib import Path
from typing import Dict, Iterable, List, Optional

from tracing import DEPTH, END, FRAME, NAME, PARENT, START, THREAD

#: Render layers: their per-frame medians skip frames that rendered nothing.
RENDER_LAYERS = (
    "nerf.rays", "nerf.occupancy", "core.decode", "grid.interp", "nerf.mlp",
    "nerf.encoding", "nerf.composite", "core.field", "api.engine",
    "serve.backend.service",
)
#: Per-frame self-time layers reported as ``<layer>.ms`` medians.
FRAME_LAYER_METRICS = {
    "nerf.rays.ms": "nerf.rays",
    "nerf.occupancy.ms": "nerf.occupancy",
    "core.decode.ms": "core.decode",
    "grid.interp.ms": "grid.interp",
    "nerf.mlp.ms": "nerf.mlp",
    "nerf.encoding.ms": "nerf.encoding",
    "nerf.composite.ms": "nerf.composite",
    "core.field.ms": "core.field",
    "api.engine.ms": "api.engine",
    "serve.server.sched_wait_ms": "serve.server.sched_wait",
}
#: ``metric -> (unit, better)`` of every per-layer metric, in report order.
PER_LAYER = {
    "datasets.load_scene_s": ("s", "lower"),
    "vqrf.compress_s": ("s", "lower"),
    "core.preprocess_s": ("s", "lower"),
    "nerf.occupancy.build_s": ("s", "lower"),
    "serve.backend.start_s": ("s", "lower"),
    "nerf.rays.ms": ("ms", "lower"),
    "nerf.occupancy.ms": ("ms", "lower"),
    "core.decode.ms": ("ms", "lower"),
    "grid.interp.ms": ("ms", "lower"),
    "nerf.mlp.ms": ("ms", "lower"),
    "nerf.encoding.ms": ("ms", "lower"),
    "nerf.composite.ms": ("ms", "lower"),
    "core.field.ms": ("ms", "lower"),
    "api.engine.ms": ("ms", "lower"),
    "nerf.occupancy.culled_frac": ("frac", "higher"),
    "nerf.occupancy.skipped_ray_frac": ("frac", "higher"),
    "nerf.mlp.rows_per_frame": ("count", "lower"),
    "nerf.mlp.active_frac": ("frac", "higher"),
    "core.decode.unique_per_frame": ("count", "lower"),
    "core.decode.reuse_ratio": ("ratio", "higher"),
    "serve.server.submit_ms": ("ms", "lower"),
    "serve.server.step_ms": ("ms", "lower"),
    "serve.server.idle_step_frac": ("frac", "lower"),
    "serve.server.queue_wait_ms": ("ms", "lower"),
    "serve.server.sched_wait_ms": ("ms", "lower"),
    "serve.tiles.per_frame": ("count", "lower"),
    "serve.tiles.assemble_ms": ("ms", "lower"),
    "serve.backend.submit_ms_per_tile": ("ms", "lower"),
    "serve.backend.collect_ms_per_tile": ("ms", "lower"),
    "serve.backend.blocked_ms": ("ms", "lower"),
    "serve.backend.transport_ms_per_tile": ("ms", "lower"),
    "serve.backend.service_ms_per_tile": ("ms", "lower"),
    "serve.backend.worker_busy_frac": ("frac", "higher"),
    "serve.cache.hit_rate": ("frac", "higher"),
    "serve.cache.dedup_frac": ("frac", "higher"),
    "serve.cache.evictions_per_frame": ("count", "lower"),
    "serve.cache.fingerprint_us": ("us", "lower"),
    "serve.cache.get_us": ("us", "lower"),
    "serve.cache.put_us": ("us", "lower"),
    "http.client.submit_ms": ("ms", "lower"),
    "http.client.result_ms": ("ms", "lower"),
    "http.client.requests_per_frame": ("count", "lower"),
    "http.edge.overhead_ms": ("ms", "lower"),
    "http.edge.refused_frac": ("frac", "lower"),
    "serve.store.resident_bytes": ("bytes", "lower"),
    "serve.cache.resident_bytes": ("bytes", "lower"),
    "harness.gen_late_p95_ms": ("ms", "lower"),
    "harness.trace_overhead_frac": ("frac", "lower"),
    "harness.unattributed_frac": ("frac", "lower"),
}
UNITS = {name: unit for name, (unit, _) in PER_LAYER.items()}
#: Depth offset of wrapped-call spans, below the frame/client/job/queue tiers.
_CALL_DEPTH = 4


def median(values: Iterable[float]) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def percentile(values: Iterable[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]); 0.0 for no values."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, -(-len(ordered) * q // 100))
    return float(ordered[int(rank) - 1])


def _depth(span: list) -> int:
    return span[DEPTH] + (_CALL_DEPTH if span[THREAD] is not None else 0)


def partition(own: List[list], start: float, end: float) -> Dict[str, float]:
    """Seconds of ``[start, end]`` each own span's name receives (see module doc)."""
    events = []
    for span in own:
        s, e = max(span[START], start), min(span[END], end)
        if e > s:
            key = (_depth(span), span[START])
            events.append((s, 1, key, span[NAME]))
            events.append((e, 0, key, span[NAME]))
    events.sort(key=lambda event: (event[0], event[1]))
    totals: Dict[str, float] = defaultdict(float)
    active: Dict[tuple, List[str]] = {}
    cursor = start
    for time_s, is_start, key, name in events:
        if active and time_s > cursor:
            top = max(active)
            totals[active[top][-1]] += time_s - cursor
        cursor = max(cursor, time_s)
        if is_start:
            active.setdefault(key, []).append(name)
        else:
            names = active[key]
            names.remove(name)
            if not names:
                del active[key]
    return totals


def self_times(spans: List[list]) -> List[float]:
    """Duration minus the summed durations of direct children, per span."""
    child = [0.0] * len(spans)
    for span in spans:
        parent = span[PARENT]
        if parent is not None and span[END] is not None:
            child[parent] += span[END] - span[START]
    return [
        (span[END] - span[START] - child[i]) if span[END] is not None else 0.0
        for i, span in enumerate(spans)
    ]


def tag_assembles(spans: List[list], reassembly: Dict[tuple, str]) -> None:
    """Give each ``serve.tiles.assemble`` span to the job whose reassembly holds it."""
    intervals = sorted(reassembly.items())
    starts = [start for (start, _), _ in intervals]
    for span in spans:
        if span[NAME] == "serve.tiles.assemble" and span[FRAME] is None:
            i = bisect.bisect_right(starts, span[START]) - 1
            if i >= 0 and intervals[i][0][1] >= span[END]:
                span[FRAME] = intervals[i][1]


def frame_layers(spans: List[list], frames: List[dict]) -> List[Dict[str, float]]:
    """Per-frame ``{layer: seconds}``; ``unattributed`` is the root's share."""
    by_frame: Dict[str, List[list]] = defaultdict(list)
    for span in spans:
        if span[FRAME] is not None and span[END] is not None:
            by_frame[span[FRAME]].append(span)
    out = []
    for frame in frames:
        totals = partition(by_frame.get(frame["id"], []), frame["t0"], frame["t1"])
        totals["unattributed"] = totals.pop("frame", 0.0)
        out.append(dict(totals))
    return out


def layer_metrics(tracer, frames: List[dict], per_frame: List[Dict[str, float]],
                  ctx: dict) -> Dict[str, float]:
    """Every per-layer metric of one traced phase.

    ``frames`` are the phase's completed frames (``id``, ``t0``, ``t1``,
    ``latency_s``, ``queue_wait_s``, ``num_tiles``, ``stats``) and
    ``per_frame`` their :func:`frame_layers`; ``ctx`` holds
    what the workload measured around the phase (cache and store deltas,
    HTTP records, set-up spans, the untraced frame rate).
    """
    spans = tracer.spans
    selfs = self_times(spans)
    latency = [frame["t1"] - frame["t0"] for frame in frames]
    n_frames = max(1, len(frames))
    m: Dict[str, float] = {}

    # Set-up layers: summed seconds of one set-up (workers included).
    setup = defaultdict(float)
    for span in ctx.get("setup_spans", []):
        setup[span["name"]] += span["end"] - span["start"]
    m["datasets.load_scene_s"] = setup["datasets.load_scene"]
    m["vqrf.compress_s"] = setup["vqrf.compress"]
    m["core.preprocess_s"] = setup["core.preprocess"]
    m["nerf.occupancy.build_s"] = setup["nerf.occupancy.build"]
    m["serve.backend.start_s"] = setup["serve.backend.start"]

    # Render and scheduling self times, medians per frame.  Render layers
    # take the median over frames that rendered something (a frame served
    # wholly from the cache has none).  Pool workers are not traced, so
    # there the render layers come from the traced direct renders of the
    # same frames made by the frame check.
    render_frames = ctx.get("render_frames")
    render_layers = [
        layers for layers in (frame_layers(spans, render_frames) if render_frames else per_frame)
        if any(layers.get(layer) for layer in RENDER_LAYERS)
    ]
    for metric, layer in FRAME_LAYER_METRICS.items():
        source = render_layers if layer in RENDER_LAYERS else per_frame
        m[metric] = 1e3 * median(layers.get(layer, 0.0) for layers in source)

    # Render counters from the frames' RenderStats (totals, so cache hits,
    # which render nothing, lower the per-frame means).
    samples = sum(f["stats"].num_samples for f in frames)
    culled = sum(f["stats"].num_culled_samples for f in frames)
    rays = sum(f["stats"].num_rays for f in frames)
    rows = sum(f["stats"].num_active_samples for f in frames)
    lookups = sum(f["stats"].num_vertex_lookups for f in frames)
    unique = sum(f["stats"].num_unique_vertex_fetches for f in frames)
    m["nerf.occupancy.culled_frac"] = culled / samples if samples else 0.0
    m["nerf.occupancy.skipped_ray_frac"] = (
        sum(f["stats"].num_skipped_rays for f in frames) / rays if rays else 0.0
    )
    m["nerf.mlp.rows_per_frame"] = rows / n_frames
    m["nerf.mlp.active_frac"] = rows / (samples - culled) if samples > culled else 0.0
    m["core.decode.unique_per_frame"] = unique / n_frames
    m["core.decode.reuse_ratio"] = lookups / unique if unique else 0.0

    # Serve layers, per call / per tile / per step.
    def durations(name: str, use_self: bool = False) -> List[float]:
        return [
            (selfs[i] if use_self else span[END] - span[START])
            for i, span in enumerate(spans)
            if span[NAME] == name and span[END] is not None
        ]

    tiles = sum(f["num_tiles"] for f in frames)
    steps = durations("serve.server.step", use_self=True)
    collect = durations("serve.backend.collect", True)
    m["serve.server.submit_ms"] = 1e3 * median(durations("serve.server.submit"))
    m["serve.server.step_ms"] = 1e3 * median(steps)
    m["serve.server.idle_step_frac"] = 1.0 - len(tracer.busy_steps) / len(steps) if steps else 0.0
    m["serve.server.queue_wait_ms"] = 1e3 * median(f["queue_wait_s"] for f in frames)
    m["serve.tiles.per_frame"] = median(f["num_tiles"] for f in frames)
    m["serve.tiles.assemble_ms"] = 1e3 * median(durations("serve.tiles.assemble"))
    m["serve.backend.submit_ms_per_tile"] = 1e3 * median(durations("serve.backend.submit", True))
    m["serve.backend.collect_ms_per_tile"] = 1e3 * sum(collect) / tiles if tiles else 0.0
    m["serve.backend.blocked_ms"] = 1e3 * sum(durations("serve.backend.collect_blocked")) / n_frames
    m["serve.backend.transport_ms_per_tile"] = 1e3 * median(tracer.transport_s)
    m["serve.backend.service_ms_per_tile"] = 1e3 * median(tracer.service_s)
    m["serve.backend.worker_busy_frac"] = (
        sum(tracer.service_s) / (ctx["num_workers"] * ctx["wall_s"])
    )

    # Cache layer.
    cache = ctx["cache"]
    gets = cache["hits"] + cache["misses"]
    m["serve.cache.hit_rate"] = cache["hits"] / gets if gets else 0.0
    m["serve.cache.dedup_frac"] = cache["deduped"] / tiles if tiles else 0.0
    m["serve.cache.evictions_per_frame"] = cache["evictions"] / n_frames
    m["serve.cache.fingerprint_us"] = 1e6 * median(durations("serve.cache.fingerprint"))
    m["serve.cache.get_us"] = 1e6 * median(durations("serve.cache.get"))
    m["serve.cache.put_us"] = 1e6 * median(durations("serve.cache.put"))

    # HTTP edge (zero for the in-process workloads).
    http = ctx.get("http")
    if http:
        m["http.client.submit_ms"] = 1e3 * median(http["submit_s"])
        m["http.client.result_ms"] = 1e3 * median(http["result_s"])
        m["http.client.requests_per_frame"] = http["requests"] / n_frames
        m["http.edge.overhead_ms"] = 1e3 * median(
            f["t1"] - f["sent"] - f["latency_s"] for f in frames)
        m["http.edge.refused_frac"] = http["refused"] / max(1, http["responses"])
    else:
        for name in ("http.client.submit_ms", "http.client.result_ms",
                     "http.client.requests_per_frame", "http.edge.overhead_ms",
                     "http.edge.refused_frac"):
            m[name] = 0.0

    m["serve.store.resident_bytes"] = float(ctx["store_bytes"])
    m["serve.cache.resident_bytes"] = float(cache["resident_bytes"])

    # Harness.
    m["harness.gen_late_p95_ms"] = 1e3 * percentile((f["sent"] - f["due"] for f in frames), 95)
    traced_fps = ctx["traced_fps"]
    m["harness.trace_overhead_frac"] = 1.0 - traced_fps / ctx["untraced_fps"]
    total = sum(latency) or 1.0
    m["harness.unattributed_frac"] = sum(f.get("unattributed", 0.0) for f in per_frame) / total
    return {name: m[name] for name in PER_LAYER}


def layer_table(workload: str, frames: List[dict], per_frame: List[Dict[str, float]]) -> str:
    """Mean self time per frame of every layer, with its share of latency."""
    n = max(1, len(frames))
    total = sum(frame["t1"] - frame["t0"] for frame in frames) or 1.0
    layers = sorted({layer for f in per_frame for layer in f},
                    key=lambda layer: -sum(f.get(layer, 0.0) for f in per_frame))
    lines = [f"# {workload}: {len(frames)} traced frames, "
             f"mean latency {1e3 * total / n:.3f} ms",
             f"{'layer':32s} {'mean ms':>10s} {'median ms':>10s} {'share':>8s}"]
    for layer in layers:
        values = [f.get(layer, 0.0) for f in per_frame]
        lines.append(f"{layer:32s} {1e3 * sum(values) / n:10.3f} "
                     f"{1e3 * median(values):10.3f} {sum(values) / total:8.1%}")
    lines.append(f"{'total':32s} {1e3 * total / n:10.3f} {'':>10s} {1.0:8.1%}")
    render = sum(f.get(layer, 0.0) for f in per_frame for layer in RENDER_LAYERS)
    serve = sum(seconds for f in per_frame for layer, seconds in f.items()
                if layer.startswith(("serve.", "http.")) and layer not in RENDER_LAYERS)
    lines.append(f"render layers {render / total:.1%}, serve and HTTP layers {serve / total:.1%}")
    return "\n".join(lines)


def chrome_trace(spans: List[list], path: Path) -> None:
    """Write the spans as Chrome trace-event JSON (open in Perfetto)."""
    threads: Dict[Optional[int], int] = {}
    events = []
    origin = min((span[START] for span in spans), default=0.0)
    for span in spans:
        if span[END] is None:
            continue
        tid = threads.setdefault(span[THREAD], len(threads))
        events.append({
            "name": span[NAME], "ph": "X", "pid": 1, "tid": tid,
            "ts": round((span[START] - origin) * 1e6, 3),
            "dur": round((span[END] - span[START]) * 1e6, 3),
            "args": {"frame": span[FRAME]},
        })
    path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))
