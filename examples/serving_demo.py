#!/usr/bin/env python
"""Serving demo: many scenes, many requests, one RenderServer.

Shows the :mod:`repro.serve` subsystem end to end:

1. build a :class:`~repro.serve.SceneStore` with a memory budget — bundles
   are built lazily through the ``repro.api`` registry and evicted LRU,
2. submit a mixed batch of jobs: full frames across scenes and pipelines, a
   high-priority request that overtakes the queue, and a request with a
   deadline too tight to meet,
3. pump the scheduler over the chosen execution backend (``--backend
   serial|process``), streaming one job's tiles as they complete,
   then read frames, PSNR and latency off the results and print the
   server's telemetry snapshot (per-worker utilization included).

Takes well under a minute on a laptop at the default sizes.
"""

from __future__ import annotations

import argparse

from repro.api import PipelineConfig, SpNeRFConfig
from repro.serve import BACKEND_NAMES, JobState, Priority, RenderServer, SceneStore, make_backend


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--resolution", type=int, default=48, help="voxel grid resolution")
    parser.add_argument("--image-size", type=int, default=56, help="rendered image side (pixels)")
    parser.add_argument("--budget-mb", type=float, default=24.0, help="scene-store budget (MB)")
    parser.add_argument("--tile-size", type=int, default=512, help="pixels per tile job")
    parser.add_argument(
        "--backend", choices=BACKEND_NAMES, default="serial", help="execution backend"
    )
    parser.add_argument("--workers", type=int, default=None, help="pool worker count")
    args = parser.parse_args()

    store = SceneStore(
        memory_budget_bytes=int(args.budget_mb * 1e6),
        config=PipelineConfig(
            spnerf=SpNeRFConfig(num_subgrids=16, hash_table_size=4096), kmeans_iterations=3
        ),
        scene_kwargs={
            "resolution": args.resolution, "image_size": args.image_size,
            "num_views": 1, "num_samples": 64,
        },
    )
    server = RenderServer(
        store,
        backend=make_backend(args.backend, args.workers),
        max_pending=16,
        default_tile_size=args.tile_size,
    )

    print(f"Submitting a mixed batch (budget {args.budget_mb:.0f} MB, "
          f"tile {args.tile_size}px) ...")
    jobs = [
        server.submit("lego", "spnerf", compare_to_reference=True),
        server.submit("ficus", "spnerf", compare_to_reference=True),
        server.submit("chair", "dense"),
        server.submit("lego", "dense"),
        # Arrives last but overtakes everything still queued:
        server.submit("lego", "spnerf", priority=Priority.HIGH),
        # 0 ms to live: expired at the first scheduling point.
        server.submit("drums", "spnerf", deadline_s=0.0),
    ]

    # Stream the first job: watch its tiles land (possibly out of order
    # under a pool backend) before the frame is whole.
    streamed = jobs[0]
    seen = set()
    steps = 0
    while server.poll(streamed).state in (JobState.QUEUED, JobState.RUNNING):
        server.step()
        steps += 1
        view = server.poll(streamed, include_tiles=True)
        # Track by tile start: under pool backends completions arrive out of
        # order, so a positional slice would miss or repeat tiles.
        for update in view.completed_tiles or ():
            if update.tile.start not in seen:
                seen.add(update.tile.start)
                print(f"  stream {streamed}: "
                      f"tile [{update.tile.start:5d}:{update.tile.stop:5d}) "
                      f"({view.tiles_done}/{view.tiles_total} done)")

    steps += server.run_until_idle()
    print(f"drained in {steps} scheduler steps\n")

    print(f"{'job':10s} {'scene':8s} {'pipeline':8s} {'state':8s} "
          f"{'psnr':>6s} {'tiles':>5s} {'wait ms':>8s} {'latency ms':>10s}")
    for job_id in jobs:
        view = server.poll(job_id)
        if view.state.value == "done":
            result = server.result(job_id)
            quality = f"{result.psnr:6.2f}" if result.psnr is not None else "     -"
            print(f"{job_id:10s} {view.scene:8s} {view.pipeline:8s} {view.state.value:8s} "
                  f"{quality} {result.num_tiles:5d} {result.queue_wait_s * 1e3:8.1f} "
                  f"{result.latency_s * 1e3:10.1f}")
        else:
            print(f"{job_id:10s} {view.scene:8s} {view.pipeline:8s} {view.state.value:8s}")

    stats = server.stats()
    print("\n=== ServerStats ===")
    print(f"  completed/expired/rejected: {stats.completed}/{stats.expired}/{stats.rejected}")
    print(f"  tiles rendered:             {stats.tiles_rendered}")
    print(f"  throughput:                 {stats.throughput_rays_per_s:,.0f} rays/s")
    print(f"  latency p50 / p95:          {stats.latency_p50_s * 1e3:.1f} / "
          f"{stats.latency_p95_s * 1e3:.1f} ms")
    print(f"  store hit rate:             {stats.store_hit_rate:.2f} "
          f"({stats.store_evictions} evictions)")
    print(f"  resident:                   {stats.resident_bundles} bundles, "
          f"{stats.resident_bytes / 1e6:.1f} MB")
    print(f"  vertex reuse:               {stats.vertex_reuse_ratio:.2f}x")
    utilization = ", ".join(f"{u:.0%}" for u in stats.worker_utilization)
    print(f"  backend:                    {stats.backend} x{stats.num_workers} "
          f"(utilization {utilization}; {stats.ooo_completions} out-of-order tiles)")
    server.close()


if __name__ == "__main__":
    main()
