"""The benchmark's three workloads: set-up, timed phase and frame checks.

Every load parameter here is a constant: rates, latency limits, frame and
tile sizes, cache budgets.  Nothing is calibrated from a measurement at run
time, so a parent commit and a change get exactly the same load.  The seed
only picks where on the camera rig each client starts and, for the open
loop, the arrival jitter and the frame mix.

* ``orbit-spnerf`` — one closed-loop client orbiting ``lego`` with full
  SpNeRF frames on the serial backend, cache off.  The decode path (hash
  lookup, bitmap mask, interpolation, MLP) does nearly all the work, so
  render-kernel changes move it about 1:1 and serving changes do not.
* ``edge-tiled`` — an open loop over the HTTP edge at a constant rate, about
  a quarter of what the set-up sustains.  Small frames cut into many small tiles
  on the process backend, 2 scenes x {spnerf, dense}, cache off.  Per-tile
  serving costs (admission, scheduling, pickled transport, reassembly, HTTP)
  dominate, and queueing amplifies scheduler savings into the tail.
* ``popular-cached`` — several closed-loop clients in one process on the
  serial backend with the LRU tile cache on, its budget below the working
  set: two in-phase clients on a popular scene, one on another scene and a
  walkthrough with revisits.  Hits sit beside inserts and evictions here.
  The serial backend renders and caches each tile before it dispatches the
  next, so the in-phase client's identical tile always hits the cache and
  never attaches to an in-flight one: in-flight dedupe cannot happen here,
  and ``serve.cache.dedup_frac`` reads 0 on every workload.
"""

from __future__ import annotations

import asyncio
import gc
import itertools
import multiprocessing
import os
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.api import render_tile
from repro.nerf.metrics import psnr
from repro.serve import (
    JobState,
    RenderServer,
    SceneStore,
    TrafficItem,
    interpolated_walkthrough_workload,
    make_backend,
    plan_tiles,
    popular_scene_workload,
)
from repro.serve.http import HttpRenderFrontEnd, RenderClient

_ACTIVE = (JobState.QUEUED, JobState.RUNNING)
_TERMINAL_EVENTS = ("done", "failed", "expired", "cancelled", "shutdown")
#: Safety net on top of ``--seconds`` for draining in-flight frames.
_DRAIN_TIMEOUT_S = 60.0


@dataclass(frozen=True)
class Spec:
    """The constant load of one workload."""

    name: str
    scenes: Tuple[str, ...]
    pipelines: Tuple[str, ...]
    resolution: int
    image_size: int
    num_views: int
    num_samples: int
    tile_size: int
    #: Latency limit of ``slo_met_frac``: about 1.25x the p90 measured on a
    #: 2-vCPU Xeon guest, so a tail that grows by a quarter misses it.
    slo_ms: float
    backend: str = "serial"
    cache_budget_bytes: Optional[int] = None
    rate_hz: float = 0.0

    @property
    def scene_kwargs(self) -> Dict[str, int]:
        return {
            "resolution": self.resolution,
            "image_size": self.image_size,
            "num_views": self.num_views,
            "num_samples": self.num_samples,
        }


SPECS = {
    "orbit-spnerf": Spec(
        name="orbit-spnerf", scenes=("lego",), pipelines=("spnerf",),
        resolution=64, image_size=48, num_views=24, num_samples=64,
        tile_size=48 * 48, slo_ms=95.0,
    ),
    "edge-tiled": Spec(
        name="edge-tiled", scenes=("lego", "ship"), pipelines=("spnerf", "dense"),
        # 12 px frames: 144 pixels in five tiles of at most 32.
        resolution=48, image_size=12, num_views=16, num_samples=64,
        # 25 frames/s is about a quarter of what this set-up sustains with two
        # lanes (~100/s): at half load, a burst of host CPU steal (a third of
        # both vCPUs for tens of seconds, measured) once dropped capacity
        # below the rate and one run's p50 went from 30 ms to 209 ms.
        tile_size=32, slo_ms=30.0, backend="process", rate_hz=25.0,
    ),
    "popular-cached": Spec(
        name="popular-cached", scenes=("lego", "chair"), pipelines=("spnerf",),
        # Four tiles of 576 pixels per 48 px frame.  With 256-pixel tiles
        # the interpreter's share of a tile was larger, and interleaved runs
        # drifted nearly twice as much with the host's speed (frame rate spread
        # 0.20 against 0.12 over eight seeds).
        resolution=48, image_size=48, num_views=16, num_samples=64,
        tile_size=576, slo_ms=185.0,
        # Twelve frames' worth of float64 tiles: below the ~32-frame working
        # set of the two orbited scenes, so the LRU evicts.
        cache_budget_bytes=12 * 48 * 48 * 3 * 8,
    ),
}

#: Walkthrough waypoints, as rig offsets from the seeded phase: five views
#: forward, three back over the same arc (revisits), around the whole rig.
_WALK_OFFSETS = (0, 5, 2, 7, 4, 9, 6, 11, 8, 13, 10, 15, 12, 17, 14, 19, 16)
#: Resident-set samples are taken every this many finished frames.
_RSS_EVERY = 8
#: Open-loop arrival ``k`` is due at ``(k + jitter * U[0, 1)) / rate``: gaps
#: stay within 20 % of the period, so two frames rarely overlap and p90 does
#: not straddle the overlap mode.
_ARRIVAL_JITTER = 0.2


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _pss_kb(pid: str = "self") -> int:
    """Proportional resident set (``Pss``) of one process, in kB.

    A forked worker shares the scheduler's pages; its plain RSS counts them
    again (and swung by 80 MB between identical runs), its PSS does not, so
    PSS summed over the process tree is the tree's resident memory.
    """
    try:
        with open(f"/proc/{pid}/smaps_rollup", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("Pss:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class Workload:
    """Set-up, drive and check one workload; subclasses supply the loop."""

    def __init__(self, spec: Spec, seed: int) -> None:
        self.spec = spec
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.phase = int(self.rng.integers(spec.num_views))
        self.server: Optional[RenderServer] = None
        #: ``RenderStats`` of each checked ``(scene, pipeline, camera)`` frame.
        self.direct_stats: Dict[tuple, object] = {}
        #: Peak resident set of the timed phases, sampled (see sample_rss).
        self.peak_rss_mb = 0.0

    # -- set-up ------------------------------------------------------------
    def setup(self) -> float:
        """Cold store -> warm server; returns the wall seconds it took."""
        self.close()
        gc.collect()
        start = time.perf_counter()
        store = SceneStore(scene_kwargs=self.spec.scene_kwargs)
        self.server = RenderServer(
            store,
            backend=self._backend(),
            cache="lru" if self.spec.cache_budget_bytes else None,
            cache_budget_bytes=self.spec.cache_budget_bytes,
            max_finished_jobs=None,
        )
        self._start_edge()
        for scene, pipeline in itertools.product(self.spec.scenes, self.spec.pipelines):
            self._warm(scene, pipeline)
        return time.perf_counter() - start

    def _backend(self):
        if self.spec.backend == "process":
            return make_backend("process", num_workers=max(1, nproc() - 1))
        return None

    def _start_edge(self) -> None:
        pass

    def _warm(self, scene: str, pipeline: str) -> None:
        job = self.server.submit(scene, pipeline, camera_index=0, tile_size=self.spec.tile_size)
        self.server.run_until_idle()
        if self.server.poll(job).state is not JobState.DONE:
            raise RuntimeError(f"warm-up frame {scene}/{pipeline} failed: {self.server.poll(job)}")

    def close(self) -> None:
        if self.server is not None:
            self.server.close()
            self.server = None

    # -- timed phase ---------------------------------------------------------
    def run(self, seconds: float, tracer=None) -> dict:
        """Drive the load for ``seconds``; returns frames and counters."""
        raise NotImplementedError

    def cache_counters(self) -> dict:
        cache = self.server.cache
        stats = cache.stats() if cache is not None else None
        return {
            "hits": stats.hits if stats else 0,
            "misses": stats.misses if stats else 0,
            "evictions": stats.evictions if stats else 0,
            "deduped": self.server.telemetry.deduped_tiles,
            "resident_bytes": stats.resident_bytes if stats else 0,
        }

    def store_bytes(self) -> int:
        return self.server.store.resident_bytes()

    def sample_rss(self, frames: List[dict]) -> None:
        """Every ``_RSS_EVERY`` frames, fold the resident set of this process
        plus its workers into :attr:`peak_rss_mb` (the timed phase's peak;
        set-up transients such as k-means buffers are not serving memory).

        The served images kept for the frame check are not counted: a faster
        program serves, and so keeps, more of them.
        """
        if len(frames) % _RSS_EVERY == 0:
            kb = _pss_kb() + sum(
                _pss_kb(str(p.pid)) for p in multiprocessing.active_children())
            kept = sum(frame["image"].nbytes for frame in frames)
            self.peak_rss_mb = max(self.peak_rss_mb, (kb * 1024 - kept) / 2**20)

    # -- checks ---------------------------------------------------------------
    def direct_frame(self, scene: str, pipeline: str, camera: int,
                     tracer=None) -> Tuple[np.ndarray, object]:
        """The frame rendered directly by a ``RenderEngine``, tile span by tile span.

        With a ``tracer`` the render runs under a root span of its own, which
        lends its frame id to the layer spans inside it.
        """
        record = self.server.store.get(scene, pipeline)
        if tracer is None:
            return self._direct_frame(record, camera)
        root = tracer.open("frame", frame=f"direct:{scene}/{pipeline}/{camera}")
        try:
            return self._direct_frame(record, camera)
        finally:
            tracer.close(root)

    def _direct_frame(self, record, camera: int) -> Tuple[np.ndarray, object]:
        cam = record.scene.cameras[camera]
        parts, stats = [], None
        for tile in plan_tiles(cam.num_pixels, self.spec.tile_size, camera_index=camera):
            rendered = render_tile(record.engine, camera, tile.start, tile.stop)
            parts.append(rendered.image)
            if stats is None:
                stats = rendered.stats
            else:
                stats.merge(rendered.stats)
        image = np.concatenate(parts, axis=0).reshape(cam.height, cam.width, 3)
        return image, stats

    def model_bytes(self) -> int:
        """Summed ``memory_report()["total"]`` of the workload's SpNeRF bundles."""
        return sum(
            int(self.server.store.get(scene, "spnerf").field.memory_report()["total"])
            for scene in self.spec.scenes
            if "spnerf" in self.spec.pipelines
        )


def verify(workload: Workload, frames: List[dict],
           direct: Optional[Callable] = None) -> Tuple[List[str], Dict[tuple, float]]:
    """Compare every served frame byte-for-byte with a direct render.

    Returns the mismatch descriptions (one per bad frame, naming workload
    and frame) and the PSNR against the dense reference of every distinct
    ``spnerf`` view served, each counted once: quality is a property of the
    model, not of how often the traffic asked for a view.  Direct renders
    and references are computed once per ``(scene, pipeline, camera)``:
    renders are deterministic.
    """
    direct = direct or workload.direct_frame
    expected: Dict[tuple, np.ndarray] = {}
    references: Dict[tuple, float] = {}
    mismatches = []
    for frame in frames:
        key = (frame["scene"], frame["pipeline"], frame["camera"])
        if key not in expected:
            expected[key], frame_stats = direct(*key)
            workload.direct_stats[key] = frame_stats
        want, got = expected[key], frame["image"]
        if got.dtype != want.dtype or got.shape != want.shape or got.tobytes() != want.tobytes():
            mismatches.append(
                f"{workload.spec.name}: frame {frame['id']} ({'/'.join(map(str, key))}) "
                "differs from the direct RenderEngine render"
            )
            frame["ok"] = False
            continue
        if frame["pipeline"] == "spnerf" and key not in references:
            scene = workload.server.store.get_scene(frame["scene"])
            references[key] = float(psnr(want, scene.reference_image(frame["camera"])))
    return mismatches, references


# ----------------------------------------------------------------------------
# In-process closed loops
# ----------------------------------------------------------------------------

class _ClosedLoop(Workload):
    """Closed-loop logical clients pumping the server's ``step`` loop."""

    def __init__(self, spec: Spec, seed: int) -> None:
        super().__init__(spec, seed)
        self._clients = self._make_clients()

    def _make_clients(self) -> List[Iterator[TrafficItem]]:
        raise NotImplementedError

    def run(self, seconds: float, tracer=None) -> dict:
        server = self.server
        frames: List[dict] = []
        failed = 0
        active: Dict[str, tuple] = {}

        def submit(client: int, due: float) -> None:
            item = next(self._clients[client])
            t0 = time.perf_counter()
            job = server.submit(item.scene, item.pipeline, camera_index=item.camera_index,
                                tile_size=self.spec.tile_size)
            active[job] = (client, due, t0, item)

        start = time.perf_counter()
        stop = start + seconds
        for client in range(len(self._clients)):
            submit(client, start)
        while active:
            server.step()
            for job in [job for job in active if server.poll(job).state not in _ACTIVE]:
                t1 = time.perf_counter()
                client, due, t0, item = active.pop(job)
                if server.poll(job).state is JobState.DONE:
                    frame = self._record(job, t0, t1, item, tracer)
                    frame["due"] = due
                    frames.append(frame)
                    self.sample_rss(frames)
                else:
                    failed += 1
                if t1 < stop:
                    # A closed-loop client's next frame is due the moment it
                    # sees the previous one finish.
                    submit(client, t1)
            if time.perf_counter() > stop + _DRAIN_TIMEOUT_S:
                raise RuntimeError(f"{self.spec.name}: frames did not drain")
        end = max((frame["t1"] for frame in frames), default=time.perf_counter())
        return {"frames": frames, "failed": failed, "wall_s": end - start}

    def _record(self, job: str, t0: float, t1: float, item: TrafficItem, tracer) -> dict:
        result = self.server.result(job)
        frame = {
            "id": job, "t0": t0, "t1": t1, "sent": t0,
            "scene": item.scene, "pipeline": item.pipeline, "camera": item.camera_index,
            "image": result.image, "ok": True,
            "latency_s": result.latency_s, "queue_wait_s": result.queue_wait_s,
            "num_tiles": result.num_tiles, "stats": result.stats,
        }
        if tracer is not None:
            # Read the server's own job trace now: its ring forgets old jobs.
            _add_job_spans(tracer, self.server, frame)
        return frame


def _add_job_spans(tracer, server: RenderServer, frame: dict) -> None:
    """Root, job and queue spans of one finished frame, built from timestamps.

    The job's end and its reassembly interval come from the server's own
    job trace (same clock); the reassembly interval identifies which
    ``serve.tiles.assemble`` call worked for this frame.
    """
    job = frame["id"]
    tracer.add("frame", frame["t0"], frame["t1"], job, depth=0)
    trace = server.tracer.get(job)
    if trace is None or trace.finished_s is None:
        return
    begin = trace.finished_s - frame["latency_s"]
    tracer.add("serve.server.sched_wait", begin, trace.finished_s, job, depth=2)
    tracer.add("serve.server.queue", begin, begin + frame["queue_wait_s"], job, depth=3)
    for span in trace.spans:
        if span.name == "reassemble" and span.end_s is not None:
            tracer.reassembly[(span.start_s, span.end_s)] = job


class OrbitSpnerf(_ClosedLoop):
    def _make_clients(self) -> List[Iterator[TrafficItem]]:
        spec = self.spec
        return [(
            TrafficItem(0.0, spec.scenes[0], "spnerf",
                        camera_index=(self.phase + step) % spec.num_views)
            for step in itertools.count()
        )]


class PopularCached(_ClosedLoop):
    def _make_clients(self) -> List[Iterator[TrafficItem]]:
        spec = self.spec
        views = spec.num_views
        popular, background = spec.scenes
        # One orbit period of the popular-scene mix: two in-phase clients on
        # the popular scene, one on the background scene at a seeded phase.
        mix = popular_scene_workload(
            [popular, background], "spnerf", num_clients=3, num_cameras=views,
            num_frames=views, frame_interval_s=0.0, popular_fraction=2 / 3, seed=self.seed,
        )
        per_client: Dict[str, List[TrafficItem]] = {}
        for item in mix:
            per_client.setdefault(item.client, []).append(item)
        walk = interpolated_walkthrough_workload(
            popular, "spnerf", views, waypoints=[offset % views for offset in _WALK_OFFSETS],
        )
        clients = [*per_client.values(), walk]

        def rotated(items: List[TrafficItem]) -> Iterator[TrafficItem]:
            # The seed rotates the popular scene's rig: every seed sees the
            # same traffic shape (and so the same hit pattern) from new views.
            for item in itertools.cycle(items):
                shift = self.phase if item.scene == popular else 0
                yield TrafficItem(0.0, item.scene, item.pipeline,
                                  camera_index=(item.camera_index + shift) % views,
                                  client=item.client)

        return [rotated(items) for items in clients]


# ----------------------------------------------------------------------------
# Open loop over the HTTP edge
# ----------------------------------------------------------------------------

class EdgeTiled(Workload):
    """Open-loop arrivals over ``HttpRenderFrontEnd``, at most ``nproc`` lanes."""

    def __init__(self, spec: Spec, seed: int) -> None:
        super().__init__(spec, seed)
        self.edge: Optional[HttpRenderFrontEnd] = None
        self.address: Optional[Tuple[str, int]] = None
        self._memory: Dict[tuple, int] = {}

    def _start_edge(self) -> None:
        self.edge = HttpRenderFrontEnd(self.server, max_in_flight_per_client=nproc())
        self.address = self.edge.run_in_thread()

    def _warm(self, scene: str, pipeline: str) -> None:
        item = TrafficItem(0.0, scene, pipeline, camera_index=0)
        result = asyncio.run(self._lanes([item], tracer=None))
        if result["failed"]:
            raise RuntimeError(f"warm-up frame {scene}/{pipeline} failed over HTTP")

    def close(self) -> None:
        if self.edge is not None:
            self.edge.shutdown()
            self.edge = None
        super().close()

    def schedule(self, seconds: float) -> List[TrafficItem]:
        """Constant-rate arrivals with seeded jitter and a seeded, balanced mix.

        Frames are dealt from seeded shuffles of every ``(scene, pipeline,
        camera)``, so each run sends the same share of each bundle and covers
        the rigs evenly; only the order and the jitter vary by seed.
        """
        spec = self.spec
        period = 1.0 / spec.rate_hz
        count = int(seconds * spec.rate_hz)
        deck = list(itertools.product(spec.scenes, spec.pipelines, range(spec.num_views)))
        return [
            TrafficItem(
                arrival_s=(k + _ARRIVAL_JITTER * float(self.rng.random())) * period,
                scene=scene, pipeline=pipeline, camera_index=camera,
            )
            for k, (scene, pipeline, camera) in enumerate(_dealt(self.rng, deck, count))
        ]

    def run(self, seconds: float, tracer=None) -> dict:
        return asyncio.run(self._lanes(self.schedule(seconds), tracer))

    async def _lanes(self, items: List[TrafficItem], tracer) -> dict:
        host, port = self.address
        queue: asyncio.Queue = asyncio.Queue()
        frames: List[dict] = []
        http = {"submit_s": [], "result_s": [], "requests": 0, "responses": 0, "refused": 0}
        failed = 0
        lanes = nproc()
        start = time.perf_counter()

        async def generate() -> None:
            for item in items:
                delay = start + item.arrival_s - time.perf_counter()
                if delay > 0:
                    await asyncio.sleep(delay)
                queue.put_nowait(item)
            for _ in range(lanes):
                queue.put_nowait(None)

        async def lane() -> None:
            nonlocal failed
            async with RenderClient(host, port, timeout_s=_DRAIN_TIMEOUT_S) as client:
                while True:
                    item = await queue.get()
                    if item is None:
                        return
                    frame = await self._one_frame(client, item, start, http)
                    if frame is None:
                        failed += 1
                        continue
                    frames.append(frame)
                    self.sample_rss(frames)
                    if tracer is not None:
                        # Read the server's job trace while its ring still
                        # holds it (a dict look-up, safe from this thread).
                        _add_edge_spans(tracer, self.server, frame)

        await asyncio.wait_for(
            asyncio.gather(generate(), *(lane() for _ in range(lanes))),
            timeout=(items[-1].arrival_s if items else 0.0) + _DRAIN_TIMEOUT_S,
        )
        end = max((frame["t1"] for frame in frames), default=time.perf_counter())
        return {"frames": frames, "failed": failed, "wall_s": end - start, "http": http}

    async def _one_frame(self, client: RenderClient, item: TrafficItem, start: float,
                         http: dict) -> Optional[dict]:
        due = start + item.arrival_s
        body = {"scene": item.scene, "pipeline": item.pipeline,
                "camera_index": item.camera_index, "tile_size": self.spec.tile_size}
        sent = time.perf_counter()
        accepted = done = None
        job = state = None
        http["requests"] += 1
        stream = client.stream(submit=body)
        try:
            async for event, payload in stream:
                if event == "accepted":
                    accepted, job = time.perf_counter(), payload["job_id"]
                    http["submit_s"].append(accepted - sent)
                elif event in _TERMINAL_EVENTS:
                    done, state = time.perf_counter(), event
                    break
        except Exception as exc:  # noqa: BLE001 - any refused or broken stream is a failed frame
            http["responses"] += 1
            if any(code in str(exc) for code in ("429", "503")):
                http["refused"] += 1
            return None
        finally:
            await stream.aclose()
        http["responses"] += 1
        if state != "done":
            return None
        http["requests"] += 1
        response = await client.result(job)
        http["responses"] += 1
        t1 = time.perf_counter()
        if response.status != 200:
            http["refused"] += response.status in (429, 503)
            return None
        http["result_s"].append(t1 - done)
        meta = response.meta()
        self._memory[(item.scene, item.pipeline)] = int(meta["memory_bytes"])
        return {
            "id": job, "t0": due, "due": due, "t1": t1,
            "sent": sent, "accepted": accepted, "done": done,
            "scene": item.scene, "pipeline": item.pipeline, "camera": item.camera_index,
            "image": response.frame(), "ok": True, "latency_s": meta["latency_s"],
            "queue_wait_s": meta["queue_wait_s"], "num_tiles": meta["num_tiles"],
        }

    def store_bytes(self) -> int:
        """Resident bytes of the worker shards' bundles, as the workers report them."""
        return sum(self._memory.values())


def _dealt(rng: np.random.Generator, values: list, count: int) -> list:
    """``count`` values dealt from successive seeded shuffles of ``values``."""
    dealt: list = []
    while len(dealt) < count:
        dealt.extend(values[i] for i in rng.permutation(len(values)))
    return dealt[:count]


def _add_edge_spans(tracer, server: RenderServer, frame: dict) -> None:
    """Client-side spans of one frame, plus its server-side job and queue spans."""
    job = frame["id"]
    tracer.add("harness.client_wait", frame["t0"], frame["sent"], job, depth=1)
    tracer.add("http.client.submit", frame["sent"], frame["accepted"], job, depth=1)
    tracer.add("http.client.wait", frame["accepted"], frame["done"], job, depth=1)
    tracer.add("http.client.result", frame["done"], frame["t1"], job, depth=1)
    _add_job_spans(tracer, server, frame)


WORKLOADS = {
    "orbit-spnerf": OrbitSpnerf,
    "edge-tiled": EdgeTiled,
    "popular-cached": PopularCached,
}


def make(name: str, seed: int) -> Workload:
    return WORKLOADS[name](SPECS[name], seed)
