"""In-memory span recorder and the layer wrappers the traced run installs.

Spans are recorded from the benchmark's own files: :func:`install` replaces
public functions and methods of ``repro`` *where they are looked up* (for
example ``repro.nerf.renderer.composite_rays``, not
``repro.nerf.volume_rendering.composite_rays``) with thin timing wrappers,
and :func:`uninstall` puts the originals back.  ``src/`` is never edited.

A span is ``[name, start, end, parent, frame, thread, depth]`` on the
``time.perf_counter`` clock, which is also the clock ``RenderServer`` stamps
its jobs with.  ``frame`` is the job id the span worked for; it is set by the
wrappers that know it (``ExecutionBackend.submit`` gets the task,
``RenderServer.submit`` returns the id) and inherited by nested spans.

Worker processes forked while the wrappers are installed inherit them.  In a
worker only the set-up layers are recorded, and each such span is appended
to a per-process JSON-lines file at once, because a forked worker has no
"end of run" to write from; render layers pass straight through there.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

#: Span list indices.
NAME, START, END, PARENT, FRAME, THREAD, DEPTH = range(7)

#: Set-up layers: recorded in forked workers too (see the module docstring).
SETUP_SPANS = (
    "datasets.load_scene",
    "vqrf.compress",
    "core.preprocess",
    "nerf.occupancy.build",
    "serve.backend.start",
)


class Tracer:
    """Keeps spans in memory; nesting is tracked per thread."""

    def __init__(self, worker_dir: Path) -> None:
        self.spans: List[list] = []
        self.pid = os.getpid()
        self.worker_dir = worker_dir
        self._local = threading.local()
        self._lock = threading.Lock()
        #: Indices of ``serve.server.step`` spans that dispatched, applied or
        #: served a tile (the rest are idle steps).
        self.busy_steps: set = set()
        #: ``TileResult.service_s`` of every collected tile.
        self.service_s: List[float] = []
        #: Dispatch-to-collect round trip minus ``service_s``, per tile.
        self.transport_s: List[float] = []
        #: ``(job_id, tile_index) -> dispatch time`` of in-flight pool tiles.
        self.dispatched: Dict[tuple, float] = {}
        #: ``(start, end) -> job_id`` of each job's reassembly, from the
        #: server's own job traces (tags ``serve.tiles.assemble`` spans).
        self.reassembly: Dict[tuple, str] = {}

    def reset(self) -> None:
        """Forget every span and counter (the wrappers stay bound to this tracer)."""
        self.spans.clear()
        self.busy_steps.clear()
        self.service_s.clear()
        self.transport_s.clear()
        self.dispatched.clear()
        self.reassembly.clear()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, frame: Optional[str] = None) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if frame is None and parent is not None:
            frame = self.spans[parent][FRAME]
        depth = self.spans[parent][DEPTH] + 1 if parent is not None else 0
        span = [name, time.perf_counter(), None, parent, frame, threading.get_ident(), depth]
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter()
        self._stack().pop()

    def add(self, name: str, start: float, end: float, frame: Optional[str],
            depth: int, parent: Optional[int] = None) -> int:
        """Record a span built from timestamps (not from a wrapped call)."""
        with self._lock:
            self.spans.append([name, start, end, parent, frame, None, depth])
            return len(self.spans) - 1

    def mark_step_busy(self) -> None:
        """Flag the innermost open ``serve.server.step`` span as busy."""
        for index in reversed(self._stack()):
            if self.spans[index][NAME] == "serve.server.step":
                self.busy_steps.add(index)
                return

    def in_worker(self) -> bool:
        return os.getpid() != self.pid

    def worker_span(self, name: str, start: float, end: float) -> None:
        """Append one set-up span of a forked worker to its own file."""
        path = self.worker_dir / f"worker-{os.getpid()}.jsonl"
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps({"name": name, "start": start, "end": end}) + "\n")

    def read_worker_spans(self) -> List[dict]:
        spans = []
        for path in sorted(self.worker_dir.glob("worker-*.jsonl")):
            with open(path, encoding="utf-8") as handle:
                spans.extend(json.loads(line) for line in handle if line.strip())
        return spans


def _wrap(tracer: Tracer, fn: Callable, name: str,
          frame_of: Optional[Callable] = None, after: Optional[Callable] = None) -> Callable:
    setup = name in SETUP_SPANS

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if tracer.in_worker():
            if not setup:
                return fn(*args, **kwargs)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.worker_span(name, start, time.perf_counter())
        index = tracer.open(name, frame_of(args) if frame_of is not None else None)
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            tracer.close(index)
            if after is not None:
                after(tracer, index, args, kwargs, result)

    return wrapper


# -- per-wrapper hooks ---------------------------------------------------

def _after_server_submit(tracer, index, args, kwargs, job_id) -> None:
    tracer.spans[index][FRAME] = job_id


def _after_backend_submit(tracer, index, args, kwargs, result) -> None:
    task = args[1]
    tracer.mark_step_busy()
    tracer.dispatched[(task.job_id, task.tile_index)] = tracer.spans[index][START]


def _after_collect(tracer, index, args, kwargs, results) -> None:
    span = tracer.spans[index]
    if kwargs.get("block") or (len(args) > 1 and args[1]):
        span[NAME] = "serve.backend.collect_blocked"
    if not results:
        return
    tracer.mark_step_busy()
    serial = args[0].name == "serial"
    end = span[END]
    for result in results:
        sent = tracer.dispatched.pop((result.job_id, result.tile_index), None)
        if sent is None or result.duplicate or result.error is not None:
            continue
        tracer.service_s.append(result.service_s)
        tracer.transport_s.append(end - sent - result.service_s)
        trip = tracer.add("serve.backend.transport", sent, end, result.job_id, depth=4)
        if not serial:
            # A pool worker rendered the tile somewhere inside the round trip;
            # it is placed at the end.  The serial backend renders inside
            # ``submit``, whose own spans already sit in the round trip.
            tracer.add("serve.backend.service", max(sent, end - result.service_s), end,
                       result.job_id, depth=5, parent=trip)


def _after_cache_get(tracer, index, args, kwargs, image) -> None:
    if image is not None:
        tracer.mark_step_busy()


#: ``(module, attribute path, span name, frame_of, after)`` of every wrapper.
#: Functions are patched in the module that *calls* them.
WRAPPERS = (
    ("repro.serve.store", "load_scene", "datasets.load_scene", None, None),
    ("repro.api.registry", "compress_scene", "vqrf.compress", None, None),
    ("repro.core.pipeline", "preprocess", "core.preprocess", None, None),
    ("repro.serve.store", "build_occupancy_index", "nerf.occupancy.build", None, None),
    ("repro.serve.backends", "ExecutionBackend.start", "serve.backend.start", None, None),
    ("repro.nerf.renderer", "generate_rays", "nerf.rays", None, None),
    ("repro.nerf.renderer", "ray_aabb_intersect", "nerf.rays", None, None),
    ("repro.nerf.renderer", "sample_along_rays", "nerf.rays", None, None),
    ("repro.nerf.occupancy", "OccupancyIndex.clip_rays", "nerf.occupancy", None, None),
    ("repro.nerf.occupancy", "OccupancyIndex.point_mask", "nerf.occupancy", None, None),
    ("repro.nerf.occupancy", "OccupancyIndex.cell_mask", "nerf.occupancy", None, None),
    ("repro.core.decoding", "OnlineDecoder.decode_vertices", "core.decode", None, None),
    ("repro.core.pipeline", "trilinear_interpolate_multi", "grid.interp", None, None),
    ("repro.nerf.mlp", "MLP.forward", "nerf.mlp", None, None),
    ("repro.nerf.renderer", "positional_encoding", "nerf.encoding", None, None),
    ("repro.core.pipeline", "positional_encoding", "nerf.encoding", None, None),
    ("repro.nerf.renderer", "composite_rays", "nerf.composite", None, None),
    ("repro.core.pipeline", "SpNeRFField.query", "core.field", None, None),
    ("repro.api.engine", "RenderEngine.render", "api.engine", None, None),
    ("repro.serve.backends", "render_tile", "api.engine", None, None),
    ("repro.serve.server", "RenderServer.submit", "serve.server.submit", None,
     _after_server_submit),
    ("repro.serve.server", "RenderServer.step", "serve.server.step", None, None),
    ("repro.serve.backends", "ExecutionBackend.submit", "serve.backend.submit",
     lambda args: args[1].job_id, _after_backend_submit),
    ("repro.serve.backends", "ExecutionBackend.collect", "serve.backend.collect", None,
     _after_collect),
    ("repro.serve.server", "tile_fingerprint", "serve.cache.fingerprint", None, None),
    ("repro.serve.cache", "TileCache.get", "serve.cache.get", None, _after_cache_get),
    ("repro.serve.cache", "TileCache.put", "serve.cache.put", None, None),
    ("repro.serve.server", "assemble_tiles", "serve.tiles.assemble", None, None),
)


def install(tracer: Tracer) -> List[tuple]:
    """Install every wrapper; returns what :func:`uninstall` needs."""
    saved = []
    for module_name, path, name, frame_of, after in WRAPPERS:
        owner = importlib.import_module(module_name)
        *owner_path, attr = path.split(".")
        for part in owner_path:
            owner = getattr(owner, part)
        original = owner.__dict__[attr]
        setattr(owner, attr, _wrap(tracer, original, name, frame_of, after))
        saved.append((owner, attr, original))
    return saved


def uninstall(saved: List[tuple]) -> None:
    for owner, attr, original in reversed(saved):
        setattr(owner, attr, original)
