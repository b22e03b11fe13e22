"""Load benchmark of the repro.serve subsystem (stdlib CLI, no pytest).

Drives a :class:`repro.serve.RenderServer` over several scenes and pipelines
with the two canonical load shapes and writes ``BENCH_serve.json`` at the
repo root, next to ``BENCH_render.json``:

* **closed loop** — a fixed client pool keeps requests in flight; measures
  sustainable throughput (rays/s) and per-``scene/pipeline`` p50/p95 latency;
* **open loop** — Poisson arrivals at a fixed rate; measures queueing
  latency and queue-wait percentiles under uncoordinated traffic.

Both loops run on the execution backend picked by ``--backend`` (serial,
process or remote — see :mod:`repro.serve.backends`), and a **backend
comparison** section replays the same closed-loop workload under the serial
and process-pool backends on warmed stores, reporting the wall-clock
throughput of each and the pool's speedup (guarded by
``--min-pool-speedup``).

Before any timing, one frame is rendered through the server (tile-sharded,
scheduled) under *every* backend and compared bitwise against the same frame
rendered directly by the bundle's :class:`~repro.api.RenderEngine` — the
serve layer must be a scheduler, not a new renderer, and a process worker's
rebuilt bundle must render the very same bits.  A mismatch fails the run.

With ``--http`` the run also stands up the :mod:`repro.serve.http` front end
and replays a multi-client orbit workload over real sockets (one asyncio
client per identity, open loop), reporting per-client latency percentiles,
aggregate HTTP throughput and the edge's own telemetry — and guarding that a
frame fetched through ``GET /v1/jobs/{id}/result`` is bit-identical to the
direct engine render.

With ``--cache`` the run adds a tile-cache section: a content-addressed
:class:`~repro.serve.TileCache` is armed and one full camera orbit of the
hottest scene is replayed **cold** (empty cache — every tile renders) and
then **warm** (every tile's fingerprint is resident — the backend is never
touched).  The section records the warm hit rate, the cold-vs-warm wall and
latency deltas, and two hard guards: every warm frame must be bit-identical
to a direct engine render (cached tiles are exact or they are a bug), and
the warm replay must beat cold by ``--min-cache-speedup``.

With ``--chaos`` the run adds a fault-injection section: the same closed-loop
workload replayed on a process pool whose :class:`~repro.serve.FaultPlan`
kills one worker mid-job and poisons one bundle build, with hedging and work
stealing armed.  The section records how many jobs completed under fault,
the respawn/redispatch/hedge/steal counters, and guards that every admitted
job finished bit-identically — only the deliberately poisoned job may fail,
and it must fail with the typed error.

Usage::

    python benchmarks/perf_serve.py --quick          # CI-sized smoke profile
    python benchmarks/perf_serve.py                  # full-sized run
    python benchmarks/perf_serve.py --quick --backend process --workers 4
    python benchmarks/perf_serve.py --quick --min-pool-speedup 1.5
    python benchmarks/perf_serve.py --quick --http   # + HTTP edge section
    python benchmarks/perf_serve.py --quick --chaos  # + fault-injection section
    python benchmarks/perf_serve.py --quick --cache  # + cold-vs-warm tile cache
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys
import time
from pathlib import Path
from typing import Dict, List

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.api import PipelineConfig, SpNeRFConfig  # noqa: E402  (path bootstrap above)
from repro.serve import (  # noqa: E402
    BACKEND_NAMES,
    DEFAULT_CACHE_BUDGET_BYTES,
    FaultPlan,
    JobState,
    LocalHostCluster,
    ProcessPoolBackend,
    RenderServer,
    SceneStore,
    ServeResult,
    closed_loop_workload,
    make_backend,
    orbit_workload,
    percentile,
    poisson_workload,
    replay_closed_loop,
    replay_open_loop,
    summarize_outcomes,
)

DEFAULT_OUTPUT = REPO_ROOT / "BENCH_serve.json"


def json_safe(payload):
    """Non-finite floats become ``None`` so the report is strictly valid JSON
    (percentiles are NaN until their stage has observations)."""
    if isinstance(payload, float) and not np.isfinite(payload):
        return None
    if isinstance(payload, dict):
        return {key: json_safe(value) for key, value in payload.items()}
    if isinstance(payload, (list, tuple)):
        return [json_safe(value) for value in payload]
    return payload


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scenes", default="lego,ficus", help="comma-separated scene names")
    parser.add_argument(
        "--pipelines", default="dense,spnerf", help="comma-separated pipeline names"
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI-sized profile (smaller scenes, fewer requests)",
    )
    parser.add_argument("--resolution", type=int, default=None, help="grid resolution override")
    parser.add_argument("--image-size", type=int, default=None, help="frame side override")
    parser.add_argument("--num-samples", type=int, default=None, help="samples per ray override")
    parser.add_argument("--requests", type=int, default=None, help="closed-loop request count")
    parser.add_argument("--concurrency", type=int, default=4, help="closed-loop clients")
    parser.add_argument("--rate", type=float, default=None, help="open-loop arrival rate (Hz)")
    parser.add_argument("--duration", type=float, default=None, help="open-loop trace length (s)")
    parser.add_argument("--tile-size", type=int, default=None, help="server tile size override")
    parser.add_argument(
        "--backend",
        choices=BACKEND_NAMES,
        default="serial",
        help="execution backend for the closed/open-loop sections",
    )
    parser.add_argument(
        "--workers", type=int, default=None, help="pool-backend worker count (default: auto)"
    )
    parser.add_argument(
        "--queue-depth",
        type=int,
        default=None,
        help="tiles the scheduler may run ahead per pool worker (default: backend's)",
    )
    parser.add_argument(
        "--num-hosts",
        type=int,
        default=3,
        help="loopback host agents to fork for --backend remote",
    )
    parser.add_argument(
        "--chaos",
        action="store_true",
        help="add a fault-injection section (worker kill + poisoned build on a process pool)",
    )
    parser.add_argument(
        "--cache",
        action="store_true",
        help="add a tile-cache section (cold-vs-warm orbit replay on a cache-armed server)",
    )
    parser.add_argument(
        "--cache-budget",
        type=float,
        default=None,
        metavar="MB",
        help="tile-cache byte budget for the --cache section (MB, default: cache's own)",
    )
    parser.add_argument(
        "--min-cache-hit-rate",
        type=float,
        default=None,
        metavar="RATE",
        help="fail when the warm replay's tile-cache hit rate falls below RATE",
    )
    parser.add_argument(
        "--min-cache-speedup",
        type=float,
        default=1.2,
        metavar="X",
        help="fail when the warm orbit replay is not X times faster than cold "
        "(default: %(default)s; the warm pass renders nothing, so this is lax)",
    )
    parser.add_argument(
        "--skip-backend-comparison",
        action="store_true",
        help="skip the serial-vs-process closed-loop comparison section",
    )
    parser.add_argument(
        "--min-pool-speedup",
        type=float,
        default=None,
        metavar="X",
        help="fail when the process pool's closed-loop throughput is below X times serial",
    )
    parser.add_argument(
        "--http",
        action="store_true",
        help="also benchmark the HTTP/SSE front end (multi-client open loop)",
    )
    parser.add_argument(
        "--http-clients", type=int, default=3, help="concurrent HTTP client identities"
    )
    parser.add_argument(
        "--memory-budget-mb", type=float, default=None, help="scene-store budget (MB)"
    )
    parser.add_argument("--seed", type=int, default=0, help="traffic seed")
    parser.add_argument(
        "--output", type=Path, default=DEFAULT_OUTPUT, help="where to write the JSON report"
    )
    parser.add_argument(
        "--min-store-hit-rate",
        type=float,
        default=None,
        metavar="RATE",
        help="fail when the final scene-store hit rate falls below RATE",
    )
    return parser.parse_args(argv)


def resolve_config(args: argparse.Namespace) -> dict:
    if args.quick:
        config = {
            "resolution": 40, "image_size": 48, "num_samples": 48,
            "requests": 8, "rate_hz": 4.0, "duration_s": 2.0,
        }
    else:
        config = {
            "resolution": 64, "image_size": 80, "num_samples": 64,
            "requests": 16, "rate_hz": 2.0, "duration_s": 6.0,
        }
    overrides = {
        "resolution": args.resolution, "image_size": args.image_size,
        "num_samples": args.num_samples, "requests": args.requests,
        "rate_hz": args.rate, "duration_s": args.duration,
    }
    config.update({k: v for k, v in overrides.items() if v is not None})
    config["scenes"] = [name.strip() for name in args.scenes.split(",") if name.strip()]
    config["pipelines"] = [name.strip() for name in args.pipelines.split(",") if name.strip()]
    config["concurrency"] = args.concurrency
    config["tile_size"] = args.tile_size
    config["backend"] = args.backend
    config["workers"] = args.workers
    config["queue_depth"] = args.queue_depth
    config["num_hosts"] = args.num_hosts
    config["http_clients"] = args.http_clients
    config["seed"] = args.seed
    config["quick"] = bool(args.quick)
    # Pool speedups are bounded by the cores this process may actually use
    # (affinity/cgroup masks included, so a quota-limited CI container counts
    # as what it is): record them so a ~1x comparison on a 1-CPU host reads
    # as physics, not as a regression.
    try:
        config["host_cpus"] = len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without sched_getaffinity
        config["host_cpus"] = os.cpu_count()
    return config


def make_store(config: dict, args: argparse.Namespace, num_views: int = 1) -> SceneStore:
    budget = (
        int(args.memory_budget_mb * 1e6) if args.memory_budget_mb is not None else None
    )
    pipeline_config = PipelineConfig(
        spnerf=SpNeRFConfig(num_subgrids=16, hash_table_size=4096, codebook_size=64),
        kmeans_iterations=3,
    )
    return SceneStore(
        memory_budget_bytes=budget,
        config=pipeline_config,
        scene_kwargs={
            "resolution": config["resolution"],
            "image_size": config["image_size"],
            "num_views": num_views,
            "num_samples": config["num_samples"],
        },
    )


#: Heartbeat/backoff knobs for loopback benchmark clusters: fast enough
#: that a killed host is declared dead in benchmark time, with a timeout
#: that still dwarfs any quick-config tile render.
REMOTE_KNOBS = {
    "heartbeat_interval_s": 0.2,
    "heartbeat_timeout_s": 5.0,
    "backoff_base_s": 0.05,
}


def scheduling_backend(
    name: str,
    workers: int = None,
    queue_depth: int = None,
    cluster: LocalHostCluster = None,
    fault_plan: FaultPlan = None,
):
    """Build the backend for a benchmark section.

    Only the process backend takes a worker count and queue depth (the
    serial backend refuses both); the remote backend sizes itself from the
    loopback cluster's addresses instead (``workers`` is ignored there —
    host count is ``--num-hosts``).
    """
    if name == "remote":
        if cluster is None:
            raise ValueError("--backend remote needs a loopback host cluster")
        kwargs = dict(REMOTE_KNOBS)
        if queue_depth is not None:
            kwargs["queue_depth"] = queue_depth
        return make_backend(
            "remote", hosts=cluster.addresses, fault_plan=fault_plan, **kwargs
        )
    if name == "process":
        return make_backend(name, workers, queue_depth=queue_depth, fault_plan=fault_plan)
    return make_backend(name, fault_plan=fault_plan)  # serial takes no worker count or queue


def check_bit_identity(
    store: SceneStore,
    config: dict,
    workers: int = None,
    queue_depth: int = None,
    cluster: LocalHostCluster = None,
) -> Dict[str, bool]:
    """A tile-sharded, scheduled frame must equal the direct engine render —
    under every execution backend, including process workers that rebuild
    their bundles from scratch.

    Uses a deliberately odd tile size so the final partial tile is exercised;
    the direct render chunks its rays at the same size, which is the
    partition on which renders are bitwise reproducible.
    """
    scene = config["scenes"][0]
    pipeline = config["pipelines"][-1]
    tile_size = 193
    direct = store.get(scene, pipeline).engine.render(
        camera_indices=(0,), chunk_size=tile_size
    ).image
    identity = {}
    for backend_name in BACKEND_NAMES:
        if backend_name == "remote" and cluster is None:
            continue  # no loopback hosts to dial in this run
        # The serial backend takes no queue, so the knob only reaches pools.
        with RenderServer(
            store,
            backend=scheduling_backend(
                backend_name, workers, queue_depth=queue_depth, cluster=cluster
            ),
        ) as server:
            job = server.submit(scene, pipeline, tile_size=tile_size)
            server.run_until_idle()
            served = server.result(job).image
        identity[backend_name] = bool(np.array_equal(served, direct))
    return identity


def run_backend_comparison(
    store: SceneStore, config: dict, workers: int = None, queue_depth: int = None
) -> dict:
    """Replay one closed-loop workload under serial and process backends.

    Both runs use warmed stores (one untimed job per scene x pipeline pair
    first, which builds every worker shard's bundles), so the timed phase
    compares steady-state rendering throughput, not build amortization.
    Throughput is wall-clock rays/s — the number that actually improves when
    workers render in parallel (the serial ``throughput_rays_per_s`` in
    ``ServerStats`` is per *busy* second and cannot exceed one worker's).
    """
    scenes, pipelines = config["scenes"], config["pipelines"]
    items = closed_loop_workload(scenes, pipelines, config["requests"], seed=config["seed"])
    comparison = {}
    for backend_name in ("serial", "process"):
        backend = scheduling_backend(backend_name, workers, queue_depth=queue_depth)
        concurrency = max(config["concurrency"], 2 * backend.num_workers)
        with RenderServer(
            store, backend=backend, default_tile_size=config["tile_size"]
        ) as server:
            warmup = [server.submit(s, p) for s in scenes for p in pipelines]
            server.run_until_idle()
            assert all(server.poll(j).state.value == "done" for j in warmup)
            start = time.perf_counter()
            job_ids = replay_closed_loop(server, items, concurrency)
            wall = time.perf_counter() - start
            results = completed_results(server, job_ids)
            rays = sum(r.stats.num_rays for r in results)
            stats = server.stats()
        comparison[backend_name] = {
            "workers": backend.num_workers,
            "concurrency": concurrency,
            "wall_s": wall,
            "completed": len(results),
            "rays_per_wall_s": rays / wall if wall > 0 else 0.0,
            "worker_utilization": stats.worker_utilization,
            "ooo_completions": stats.ooo_completions,
        }
    serial_tput = comparison["serial"]["rays_per_wall_s"]
    pool_tput = comparison["process"]["rays_per_wall_s"]
    comparison["process_vs_serial_speedup"] = (
        pool_tput / serial_tput if serial_tput > 0 else 0.0
    )
    return comparison


def run_http_section(
    store: SceneStore, config: dict, workers: int = None, queue_depth: int = None,
    cluster: LocalHostCluster = None,
) -> dict:
    """Benchmark the HTTP/SSE edge with real sockets and concurrent clients.

    One front end over one server (the ``--backend`` choice); each client
    identity replays an orbit trace open loop — arrivals never wait for
    completions, so the measured latencies include queueing exactly as a
    network client would see it.  The section also re-checks bit-identity
    through the full HTTP path: submit → poll → ``GET /result`` bytes.
    """
    from repro.serve.http import HttpRenderFrontEnd, RenderClient
    from repro.serve.traffic import http_open_loop, orbit_workload

    scenes, pipelines = config["scenes"], config["pipelines"]
    server = RenderServer(
        store,
        backend=scheduling_backend(
            config["backend"], workers, queue_depth=queue_depth, cluster=cluster
        ),
        default_tile_size=config["tile_size"],
    )
    edge = HttpRenderFrontEnd(server)
    host, port = edge.run_in_thread()
    section: dict = {"address": f"{host}:{port}"}
    try:
        # Bit-identity through the full network path, odd tile size on purpose.
        scene, pipeline = scenes[0], pipelines[-1]
        tile_size = 193
        direct = store.get(scene, pipeline).engine.render(
            camera_indices=(0,), chunk_size=tile_size
        ).image

        async def fetch():
            async with RenderClient(host, port, api_key="identity") as client:
                return await client.render(scene=scene, pipeline=pipeline, tile_size=tile_size)

        frame, _meta = asyncio.run(fetch())
        section["bit_identical_over_http"] = bool(np.array_equal(frame, direct))

        # Multi-client open loop: one orbit trace per client identity.
        interval = 1.0 / config["rate_hz"]
        items = []
        for index in range(config["http_clients"]):
            items.extend(
                orbit_workload(
                    scenes[index % len(scenes)],
                    pipelines[index % len(pipelines)],
                    num_cameras=1,
                    num_frames=config["requests"],
                    frame_interval_s=interval,
                    client=f"client-{index}",
                )
            )
        start = time.perf_counter()
        records = http_open_loop(host, port, items, fetch_results=True)
        wall = time.perf_counter() - start

        async def scrape():
            async with RenderClient(host, port, api_key="scrape") as client:
                return await client.stats()

        stats = asyncio.run(scrape())
        per_client = {}
        for record in records:
            per_client.setdefault(record["client"], []).append(record)
        section["per_client"] = {
            client: {
                "requests": len(group),
                "completed": sum(1 for r in group if r["state"] == "done"),
                "rejected_429": sum(1 for r in group if r["status"] == 429),
                "latency_p50_s": percentile(
                    [r["latency_s"] for r in group if r["latency_s"] is not None], 50
                ),
                "latency_p95_s": percentile(
                    [r["latency_s"] for r in group if r["latency_s"] is not None], 95
                ),
                "submit_p95_s": percentile(
                    [r["submit_s"] for r in group if r["submit_s"] is not None], 95
                ),
                "result_megabytes": sum(r["result_bytes"] for r in group) / 1e6,
            }
            for client, group in sorted(per_client.items())
        }
        completed = sum(1 for r in records if r["state"] == "done")
        section["wall_s"] = wall
        section["requests"] = len(records)
        section["completed"] = completed
        section["throughput_jobs_per_s"] = completed / wall if wall > 0 else 0.0
        section["server"] = stats["server"]
        section["edge"] = stats["edge"]
    finally:
        edge.shutdown()
        server.close()
    return section


def run_remote_chaos_section(config: dict, args: argparse.Namespace) -> dict:
    """The ISSUE 10 acceptance scenario: a loopback host fleet under fire.

    Three (``--num-hosts``) host agents serve the closed-loop workload while
    the :class:`FaultPlan` kills one host outright after a few tiles, tears
    another's connection mid-result-frame (half a frame, then a slammed
    socket), and poisons one bundle build.  The killed host never comes
    back — the cluster does not respawn agents, so completion proves
    heartbeat/connection-loss failover onto the survivors, not respawn.
    Every non-poisoned job must complete bit-identical to a direct render
    with ``host_losses >= 1`` and ``redispatched_tiles >= 1``.
    """
    scenes, pipelines = config["scenes"], config["pipelines"]
    store = make_store(config, args)
    tile_size = config["tile_size"] or 401
    workload_pipeline = pipelines[0]
    poison_key = (scenes[0], pipelines[-1]) if len(pipelines) > 1 else None
    num_hosts = max(3, config["num_hosts"])  # kill + drop still leaves a survivor
    plan = FaultPlan(
        kill_worker=0, kill_after_tiles=3,
        drop_host=1, drop_connection_after_tiles=2,
        poison_key=poison_key,
    )
    direct = {
        (scene, workload_pipeline): store.get(scene, workload_pipeline)
        .engine.render(camera_indices=(0,), chunk_size=tile_size)
        .image
        for scene in scenes
    }
    items = closed_loop_workload(
        scenes, [workload_pipeline], config["requests"], seed=config["seed"]
    )
    with LocalHostCluster(num_hosts) as cluster:
        backend = scheduling_backend(
            "remote", queue_depth=config["queue_depth"], cluster=cluster,
            fault_plan=plan,
        )
        with RenderServer(store, backend=backend, default_tile_size=tile_size) as server:
            start = time.perf_counter()
            job_ids = replay_closed_loop(server, items, config["concurrency"])
            poisoned_id = (
                server.submit(*poison_key, tile_size=tile_size) if poison_key else None
            )
            server.run_until_idle()
            wall = time.perf_counter() - start
            outcomes = summarize_outcomes(server, job_ids)
            identical = all(
                np.array_equal(
                    server.result(job_id).image,
                    direct[(server.result(job_id).scene, server.result(job_id).pipeline)],
                )
                for job_id in job_ids
                if server.poll(job_id).state is JobState.DONE
            )
            poisoned_view = server.poll(poisoned_id) if poisoned_id else None
            stats = server.stats()
    return {
        "mode": "remote",
        "fault_plan": {
            "kill_worker": plan.kill_worker,
            "kill_after_tiles": plan.kill_after_tiles,
            "drop_host": plan.drop_host,
            "drop_connection_after_tiles": plan.drop_connection_after_tiles,
            "poison_key": list(poison_key) if poison_key else None,
        },
        "num_hosts": num_hosts,
        "queue_depth": backend.queue_depth,
        "wall_s": wall,
        "requests": len(job_ids),
        "completed_under_fault": outcomes.get("done", 0),
        "outcomes": outcomes,
        "bit_identical_under_fault": bool(identical),
        "poisoned_job": (
            {
                "state": poisoned_view.state.value,
                "typed_error": "PoisonedBundleError" in (poisoned_view.error or ""),
            }
            if poisoned_view is not None
            else None
        ),
        "host_losses": stats.host_losses,
        "host_reconnects": stats.host_reconnects,
        "redispatched_tiles": stats.redispatched_tiles,
        "local_fallback_tiles": stats.local_fallback_tiles,
    }


def run_chaos_section(config: dict, args: argparse.Namespace) -> dict:
    """Replay the closed-loop workload on a process pool under injected fault.

    The :class:`FaultPlan` kills worker 0 after a few tiles and poisons the
    bundle build of one key the workload does not use; hedging and work
    stealing are armed.  One extra job for the poisoned key is submitted on
    top of the workload.  The section records terminal-state counts, the
    elasticity counters, and whether every completed frame stayed
    bit-identical to a direct engine render — the serve layer's promise that
    under worker death the scheduler heals instead of failing jobs.

    Runs on its own store: the workload must pay shard rebuild costs the
    fault actually causes, not inherit warmth from the earlier sections.
    """
    scenes, pipelines = config["scenes"], config["pipelines"]
    store = make_store(config, args)
    # An odd tile size that shards a frame into several tiles, so a kill
    # lands mid-job and the final partial tile is exercised.
    tile_size = config["tile_size"] or 401
    workload_pipeline = pipelines[0]
    poison_key = (scenes[0], pipelines[-1]) if len(pipelines) > 1 else None
    plan = FaultPlan(kill_worker=0, kill_after_tiles=3, poison_key=poison_key)
    backend = ProcessPoolBackend(
        num_workers=args.workers or 2,
        queue_depth=args.queue_depth if args.queue_depth is not None else 2,
        fault_plan=plan,
        hedge_multiplier=4.0,
        steal_interval_s=0.25,
    )
    direct = {
        (scene, workload_pipeline): store.get(scene, workload_pipeline)
        .engine.render(camera_indices=(0,), chunk_size=tile_size)
        .image
        for scene in scenes
    }
    items = closed_loop_workload(
        scenes, [workload_pipeline], config["requests"], seed=config["seed"]
    )
    with RenderServer(store, backend=backend, default_tile_size=tile_size) as server:
        start = time.perf_counter()
        job_ids = replay_closed_loop(server, items, config["concurrency"])
        poisoned_id = (
            server.submit(*poison_key, tile_size=tile_size) if poison_key else None
        )
        server.run_until_idle()
        wall = time.perf_counter() - start
        outcomes = summarize_outcomes(server, job_ids)
        identical = all(
            np.array_equal(
                server.result(job_id).image,
                direct[(server.result(job_id).scene, server.result(job_id).pipeline)],
            )
            for job_id in job_ids
            if server.poll(job_id).state is JobState.DONE
        )
        poisoned_view = server.poll(poisoned_id) if poisoned_id else None
        stats = server.stats()
    section = {
        "fault_plan": {
            "kill_worker": plan.kill_worker,
            "kill_after_tiles": plan.kill_after_tiles,
            "poison_key": list(poison_key) if poison_key else None,
        },
        "workers": backend.num_workers,
        "queue_depth": backend.queue_depth,
        "wall_s": wall,
        "requests": len(job_ids),
        "completed_under_fault": outcomes.get("done", 0),
        "outcomes": outcomes,
        "bit_identical_under_fault": bool(identical),
        "poisoned_job": (
            {
                "state": poisoned_view.state.value,
                "typed_error": "PoisonedBundleError" in (poisoned_view.error or ""),
            }
            if poisoned_view is not None
            else None
        ),
        "worker_respawns": stats.worker_respawns,
        "redispatched_tiles": stats.redispatched_tiles,
        "hedged_tiles": stats.hedged_tiles,
        "stolen_keys": stats.stolen_keys,
    }
    return section


def chaos_guard_failures(section: dict) -> List[str]:
    """The chaos section's promises, as guard failures when broken."""
    failures = []
    if section["completed_under_fault"] < section["requests"]:
        failures.append(
            f"chaos: only {section['completed_under_fault']}/{section['requests']} "
            f"workload jobs completed under fault (outcomes {section['outcomes']})"
        )
    if not section["bit_identical_under_fault"]:
        failures.append(
            "chaos: a frame completed under fault differs from the direct engine render"
        )
    if section.get("mode") == "remote":
        # No respawn exists across hosts: the healing that must have run is
        # loss detection (heartbeat/close/torn frame) plus redispatch.
        if section["host_losses"] < 1:
            failures.append("chaos: no host was ever declared lost")
        if section["redispatched_tiles"] < 1:
            failures.append("chaos: no in-flight tile was re-dispatched after a host loss")
    else:
        if section["worker_respawns"] < 1:
            failures.append("chaos: the killed worker was never respawned")
        if section["redispatched_tiles"] < 1:
            failures.append("chaos: no in-flight tile was re-dispatched after the kill")
    poisoned = section["poisoned_job"]
    if poisoned is not None and (
        poisoned["state"] != "failed" or not poisoned["typed_error"]
    ):
        failures.append(
            f"chaos: poisoned job ended {poisoned['state']} "
            f"(typed error: {poisoned['typed_error']}), expected a typed failure"
        )
    return failures


def run_cache_section(
    config: dict, args: argparse.Namespace, cluster: LocalHostCluster = None
) -> dict:
    """Replay one camera orbit cold and then warm on a cache-armed server.

    A rig of distinct cameras is swept once with an empty tile cache (every
    tile renders, every lookup misses) and then swept again with every tile's
    fingerprint resident (the backend is never touched).  The delta between
    the two passes is exactly what the cache buys on temporally coherent
    traffic.  Every frame of *both* passes is compared bitwise against the
    direct engine render: a cached tile is a contiguous span of the same
    deterministic ray stream, so any deviation is a bug, not a quality
    trade-off.

    Runs on its own store with one rig camera per orbit frame, so the cold
    pass is all compulsory misses and the warm hit rate is a pure measure of
    the keying scheme (no accidental intra-pass reuse).
    """
    scenes, pipelines = config["scenes"], config["pipelines"]
    scene, pipeline = scenes[0], pipelines[-1]
    num_cameras = 4 if config["quick"] else 6
    tile_size = config["tile_size"] or 193
    budget = (
        int(args.cache_budget * 1e6)
        if args.cache_budget is not None
        else DEFAULT_CACHE_BUDGET_BYTES
    )
    store = make_store(config, args, num_views=num_cameras)
    # Direct renders per camera, chunked at the tile size (the partition on
    # which renders are bitwise reproducible) — and the bundle is now warm,
    # so neither timed pass pays the build.
    engine = store.get(scene, pipeline).engine
    direct = {
        camera: engine.render(camera_indices=(camera,), chunk_size=tile_size).image
        for camera in range(num_cameras)
    }
    items = orbit_workload(
        scene, pipeline, num_cameras=num_cameras, num_frames=num_cameras,
        frame_interval_s=0.0,
    )

    def replay_pass(server: RenderServer) -> dict:
        before = server.cache.stats()
        start = time.perf_counter()
        job_ids = replay_closed_loop(server, items, config["concurrency"])
        wall = time.perf_counter() - start
        after = server.cache.stats()
        latencies = [r.latency_s for r in completed_results(server, job_ids)]
        hits = after.hits - before.hits
        lookups = (after.hits + after.misses) - (before.hits + before.misses)
        identical = all(
            server.poll(job_id).state is JobState.DONE
            and np.array_equal(server.result(job_id).image, direct[item.camera_index])
            for job_id, item in zip(job_ids, items)
        )
        return {
            "wall_s": wall,
            "completed": len(latencies),
            "requests": len(job_ids),
            "latency_p50_s": percentile(latencies, 50),
            "latency_p95_s": percentile(latencies, 95),
            "cache_hits": hits,
            "cache_lookups": lookups,
            "hit_rate": hits / lookups if lookups else 0.0,
            "bit_identical": bool(identical),
        }

    with RenderServer(
        store,
        backend=scheduling_backend(
            config["backend"], args.workers, queue_depth=args.queue_depth,
            cluster=cluster,
        ),
        default_tile_size=tile_size,
        cache="lru",
        cache_budget_bytes=budget,
    ) as server:
        cold = replay_pass(server)
        warm = replay_pass(server)
        cache_stats = server.cache.stats()
        stats = server.stats()
    section = {
        "scene": f"{scene}/{pipeline}",
        "backend": config["backend"],
        "num_cameras": num_cameras,
        "frames_per_pass": len(items),
        "tile_size": tile_size,
        "budget_bytes": budget,
        "cold": cold,
        "warm": warm,
        "warm_speedup": cold["wall_s"] / warm["wall_s"] if warm["wall_s"] > 0 else 0.0,
        "deduped_tiles": stats.deduped_tiles,
        "cache": {
            "hits": cache_stats.hits,
            "misses": cache_stats.misses,
            "hit_rate": cache_stats.hit_rate,
            "insertions": cache_stats.insertions,
            "evictions": cache_stats.evictions,
            "entries": cache_stats.entries,
            "resident_bytes": cache_stats.resident_bytes,
        },
        "cache_hit_stage": stats.stage_breakdown.get("cache_hit"),
    }
    return section


def cache_guard_failures(section: dict, args: argparse.Namespace) -> List[str]:
    """The cache section's promises, as guard failures when broken."""
    failures = []
    for label in ("cold", "warm"):
        leg = section[label]
        if not leg["bit_identical"]:
            failures.append(
                f"cache: a {label}-pass frame differs from the direct engine render"
            )
        if leg["completed"] < leg["requests"]:
            failures.append(
                f"cache: {label} pass completed {leg['completed']}/{leg['requests']} jobs"
            )
    if args.min_cache_hit_rate is not None:
        hit_rate = section["warm"]["hit_rate"]
        if hit_rate < args.min_cache_hit_rate:
            failures.append(
                f"cache: warm hit rate {hit_rate:.2f} below required "
                f"{args.min_cache_hit_rate:.2f}"
            )
    if args.min_cache_speedup is not None:
        speedup = section["warm_speedup"]
        if speedup < args.min_cache_speedup:
            failures.append(
                f"cache: warm replay speedup {speedup:.2f}x below required "
                f"{args.min_cache_speedup:.2f}x"
            )
    return failures


def group_results(results: List[ServeResult]) -> Dict[str, dict]:
    """Per-``scene/pipeline`` throughput and latency percentiles."""
    groups: Dict[str, List[ServeResult]] = {}
    for result in results:
        groups.setdefault(f"{result.scene}/{result.pipeline}", []).append(result)
    summary = {}
    for key, members in sorted(groups.items()):
        latencies = [m.latency_s for m in members]
        service = sum(m.service_s for m in members)
        rays = sum(m.stats.num_rays for m in members)
        summary[key] = {
            "num_jobs": len(members),
            "throughput_rays_per_s": rays / service if service > 0 else 0.0,
            "latency_p50_s": percentile(latencies, 50),
            "latency_p95_s": percentile(latencies, 95),
            "mean_service_s": service / len(members),
        }
    return summary


def completed_results(server: RenderServer, job_ids: List[str]) -> List[ServeResult]:
    return [
        server.result(job_id)
        for job_id in job_ids
        if server.poll(job_id).state.value == "done"
    ]


def run(args: argparse.Namespace) -> int:
    # The loopback host fleet outlives every section that dials it; the
    # chaos section forks its own (it permanently kills an agent).
    cluster = LocalHostCluster(args.num_hosts) if args.backend == "remote" else None
    try:
        return _run(args, cluster)
    finally:
        if cluster is not None:
            cluster.close()


def _run(args: argparse.Namespace, cluster: LocalHostCluster = None) -> int:
    config = resolve_config(args)
    scenes, pipelines = config["scenes"], config["pipelines"]
    print(f"# perf_serve: scenes={scenes} pipelines={pipelines} "
          f"resolution={config['resolution']} image={config['image_size']}px"
          + (f" hosts={cluster.num_hosts}" if cluster is not None else ""))

    store = make_store(config, args)
    report = {
        "config": config,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }

    identity = check_bit_identity(
        store, config, workers=args.workers, queue_depth=args.queue_depth,
        cluster=cluster,
    )
    report["bit_identical_to_direct_render"] = identity
    identical = all(identity.values())
    print(f"bit-identity vs direct engine render: {identity}")

    # Closed loop: fixed client pool, sustainable throughput.
    closed_server = RenderServer(
        store,
        backend=scheduling_backend(
            config["backend"], args.workers, queue_depth=args.queue_depth,
            cluster=cluster,
        ),
        default_tile_size=config["tile_size"],
    )
    closed_items = closed_loop_workload(
        scenes, pipelines, config["requests"], seed=config["seed"]
    )
    start = time.perf_counter()
    closed_ids = replay_closed_loop(closed_server, closed_items, config["concurrency"])
    closed_wall = time.perf_counter() - start
    closed_stats = closed_server.stats()
    closed_server.close()
    closed = {
        "wall_s": closed_wall,
        "per_pipeline": group_results(completed_results(closed_server, closed_ids)),
        "server": closed_stats.as_dict(),
        "stage_breakdown": closed_stats.stage_breakdown,
    }
    report["closed_loop"] = closed
    print(f"closed loop [{closed_stats.backend} x{closed_stats.num_workers}]: "
          f"{closed_stats.completed}/{len(closed_ids)} jobs in "
          f"{closed_wall:.2f}s  {closed_stats.throughput_rays_per_s:,.0f} rays/busy-s  "
          f"p50 {closed_stats.latency_p50_s:.3f}s  p95 {closed_stats.latency_p95_s:.3f}s")
    stage_parts = []
    for stage, summary in closed_stats.stage_breakdown.items():
        if stage != "latency" and summary["count"]:
            stage_parts.append(f"{stage} p95 {summary['p95_s'] * 1e3:.1f}ms")
    if stage_parts:
        print(f"  stages: {'  '.join(stage_parts)}")

    # Open loop: Poisson arrivals against the (now warm) store.
    open_server = RenderServer(
        store,
        backend=scheduling_backend(
            config["backend"], args.workers, queue_depth=args.queue_depth,
            cluster=cluster,
        ),
        default_tile_size=config["tile_size"],
    )
    open_items = poisson_workload(
        scenes, pipelines, rate_hz=config["rate_hz"], duration_s=config["duration_s"],
        seed=config["seed"], high_priority_fraction=0.25,
    )
    open_ids = replay_open_loop(open_server, open_items)
    open_stats = open_server.stats()
    open_server.close()
    report["open_loop"] = {
        "num_arrivals": len(open_items),
        "per_pipeline": group_results(completed_results(open_server, open_ids)),
        "server": open_stats.as_dict(),
    }
    print(f"open loop [{open_stats.backend} x{open_stats.num_workers}]: "
          f"{open_stats.completed}/{len(open_items)} jobs at "
          f"{config['rate_hz']:.1f} Hz  p50 {open_stats.latency_p50_s:.3f}s  "
          f"p95 {open_stats.latency_p95_s:.3f}s  "
          f"queue-wait p95 {open_stats.queue_wait_p95_s:.3f}s")

    # Backend comparison: the same closed-loop workload, serial vs process.
    speedup = None
    if not args.skip_backend_comparison:
        comparison = run_backend_comparison(
            store, config, workers=args.workers, queue_depth=args.queue_depth
        )
        report["backend_comparison"] = comparison
        speedup = comparison["process_vs_serial_speedup"]
        serial_part, pool_part = comparison["serial"], comparison["process"]
        print(f"backend comparison: serial {serial_part['rays_per_wall_s']:,.0f} rays/s "
              f"vs process[x{pool_part['workers']}] "
              f"{pool_part['rays_per_wall_s']:,.0f} rays/s  "
              f"speedup {speedup:.2f}x")

    # HTTP edge: multi-client open loop over real sockets.
    http_section = None
    if args.http:
        http_section = run_http_section(
            store, config, workers=args.workers, queue_depth=args.queue_depth,
            cluster=cluster,
        )
        report["http"] = http_section
        print(f"http [{config['http_clients']} clients @ {config['rate_hz']:.1f} Hz each]: "
              f"{http_section['completed']}/{http_section['requests']} jobs in "
              f"{http_section['wall_s']:.2f}s  "
              f"{http_section['throughput_jobs_per_s']:.2f} jobs/s  "
              f"request p95 {http_section['edge']['request_latency_p95_s'] * 1e3:.1f}ms  "
              f"bit-identical {http_section['bit_identical_over_http']}")

    # Chaos: the closed-loop workload again, now with a worker kill and a
    # poisoned build injected — completion counts prove the pool heals.
    chaos_section = None
    if args.chaos:
        if config["backend"] == "remote":
            chaos_section = run_remote_chaos_section(config, args)
            report["chaos"] = chaos_section
            print(f"chaos [remote x{chaos_section['num_hosts']} hosts, kill host "
                  f"{chaos_section['fault_plan']['kill_worker']} + drop host "
                  f"{chaos_section['fault_plan']['drop_host']}]: "
                  f"{chaos_section['completed_under_fault']}/{chaos_section['requests']} "
                  f"jobs completed in {chaos_section['wall_s']:.2f}s  "
                  f"host losses {chaos_section['host_losses']}  "
                  f"reconnects {chaos_section['host_reconnects']}  "
                  f"redispatched {chaos_section['redispatched_tiles']}  "
                  f"bit-identical {chaos_section['bit_identical_under_fault']}")
        else:
            chaos_section = run_chaos_section(config, args)
            report["chaos"] = chaos_section
            print(f"chaos [process x{chaos_section['workers']}, kill worker "
                  f"{chaos_section['fault_plan']['kill_worker']} after "
                  f"{chaos_section['fault_plan']['kill_after_tiles']} tiles]: "
                  f"{chaos_section['completed_under_fault']}/{chaos_section['requests']} "
                  f"jobs completed in {chaos_section['wall_s']:.2f}s  "
                  f"respawns {chaos_section['worker_respawns']}  "
                  f"redispatched {chaos_section['redispatched_tiles']}  "
                  f"hedged {chaos_section['hedged_tiles']}  "
                  f"stolen {chaos_section['stolen_keys']}  "
                  f"bit-identical {chaos_section['bit_identical_under_fault']}")

    # Cache: one orbit replayed cold then warm on a cache-armed server —
    # the warm pass should serve every tile without touching the backend.
    cache_section = None
    if args.cache:
        cache_section = run_cache_section(config, args, cluster=cluster)
        report["cache"] = cache_section
        print(f"cache [{cache_section['backend']}, "
              f"{cache_section['num_cameras']}-camera orbit x2, "
              f"budget {cache_section['budget_bytes'] / 1e6:.0f} MB]: "
              f"cold {cache_section['cold']['wall_s']:.2f}s -> "
              f"warm {cache_section['warm']['wall_s']:.2f}s  "
              f"speedup {cache_section['warm_speedup']:.1f}x  "
              f"warm hit rate {cache_section['warm']['hit_rate']:.2f}  "
              f"bit-identical {cache_section['warm']['bit_identical']}")

    store_stats = store.stats()
    report["store"] = {
        "hits": store_stats.hits,
        "misses": store_stats.misses,
        "hit_rate": store_stats.hit_rate,
        "evictions": store_stats.evictions,
        "resident_entries": store_stats.resident_entries,
        "resident_bytes": store_stats.resident_bytes,
        "build_time_s": store_stats.build_time_s,
    }
    print(f"store: hit rate {store_stats.hit_rate:.2f}  "
          f"evictions {store_stats.evictions}  "
          f"resident {store_stats.resident_bytes / 1e6:.1f} MB")

    failures = []
    if not identical:
        broken = sorted(name for name, ok in identity.items() if not ok)
        failures.append(
            "server-rendered frame is not bit-identical to the direct engine "
            f"render under backend(s): {', '.join(broken)}"
        )
    expected_pairs = len(scenes) * len(pipelines)
    covered = len(report["closed_loop"]["per_pipeline"])
    if covered < expected_pairs:
        failures.append(
            f"closed loop covered {covered}/{expected_pairs} scene x pipeline pairs"
        )
    if http_section is not None:
        if not http_section["bit_identical_over_http"]:
            failures.append(
                "HTTP-fetched frame is not bit-identical to the direct engine render"
            )
        if http_section["completed"] < http_section["requests"]:
            failures.append(
                f"HTTP open loop completed {http_section['completed']}"
                f"/{http_section['requests']} requests"
            )
    if chaos_section is not None:
        failures.extend(chaos_guard_failures(chaos_section))
    if cache_section is not None:
        failures.extend(cache_guard_failures(cache_section, args))
    if args.min_store_hit_rate is not None and store_stats.hit_rate < args.min_store_hit_rate:
        failures.append(
            f"store hit rate {store_stats.hit_rate:.2f} below required "
            f"{args.min_store_hit_rate:.2f}"
        )
    if args.min_pool_speedup is not None:
        if speedup is None:
            failures.append(
                "--min-pool-speedup was given but the backend comparison was skipped"
            )
        elif (config["host_cpus"] or 1) < 2:
            # One core cannot express parallelism: a guarded ~1x here would
            # flag physics, not a regression.  The measurement is still
            # recorded; the guard just does not fire.
            print(f"# min-pool-speedup guard skipped: host has "
                  f"{config['host_cpus']} CPU (speedup {speedup:.2f}x recorded)")
        elif speedup < args.min_pool_speedup:
            failures.append(
                f"process-pool speedup {speedup:.2f}x below required "
                f"{args.min_pool_speedup:.2f}x"
            )
    report["guards"] = {
        "min_store_hit_rate": args.min_store_hit_rate,
        "min_pool_speedup": args.min_pool_speedup,
        "min_cache_hit_rate": args.min_cache_hit_rate,
        "min_cache_speedup": args.min_cache_speedup if args.cache else None,
        "failures": failures,
    }

    args.output.write_text(
        json.dumps(json_safe(report), indent=2, allow_nan=False) + "\n"
    )
    print(f"# wrote {args.output}")
    for failure in failures:
        print(f"GUARD FAILED: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(run(parse_args()))
