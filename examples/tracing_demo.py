#!/usr/bin/env python
"""Tracing demo: reconstruct where each job spent its time, then export.

Shows the observability layer end to end:

1. render a handful of jobs through a :class:`~repro.serve.RenderServer`
   (``--backend process`` to watch cross-process duration anchoring: workers
   report build/render durations, the scheduler pins them to its own clock),
2. print each job's trace — the typed stage spans (``queue`` → ``build`` →
   ``render-tile`` → ``reassemble`` → ``deliver``) and any elasticity
   events — and how much of the measured latency the spans account for,
3. print the aggregate per-stage breakdown from the bounded streaming
   histograms, and
4. write the whole trace ring as Chrome trace-event JSON — drop the file
   into https://ui.perfetto.dev (or chrome://tracing) for a flamegraph.

Takes a few seconds at the default sizes.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from repro.api import PipelineConfig, SpNeRFConfig
from repro.serve import BACKEND_NAMES, RenderServer, SceneStore, make_backend


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--resolution", type=int, default=32, help="voxel grid resolution")
    parser.add_argument("--image-size", type=int, default=40, help="rendered image side (pixels)")
    parser.add_argument(
        "--backend", choices=BACKEND_NAMES, default="serial", help="execution backend"
    )
    parser.add_argument(
        "--workers", type=int, default=None, help="process-pool worker count (default: auto)"
    )
    parser.add_argument("--jobs", type=int, default=4, help="jobs to render and trace")
    parser.add_argument(
        "--output", type=Path, default=Path("trace.json"),
        help="where to write the Chrome trace-event export",
    )
    args = parser.parse_args()

    store = SceneStore(
        config=PipelineConfig(
            spnerf=SpNeRFConfig(num_subgrids=8, hash_table_size=1024, codebook_size=32),
            kmeans_iterations=2,
        ),
        scene_kwargs={
            "resolution": args.resolution, "image_size": args.image_size,
            "num_views": 1, "num_samples": 32,
        },
    )
    server = RenderServer(
        store,
        backend=make_backend(args.backend, args.workers),
        default_tile_size=512,
    )

    scenes = ("lego", "ficus", "chair", "drums")
    pipelines = ("dense", "spnerf")
    jobs = [
        server.submit(scenes[i % len(scenes)], pipelines[i % len(pipelines)])
        for i in range(args.jobs)
    ]
    server.run_until_idle()

    print(f"=== {len(jobs)} jobs on the {args.backend} backend ===")
    for job_id in jobs:
        result = server.result(job_id)  # first fetch closes the deliver span
        trace = server.tracer.get(job_id)
        totals = trace.stage_totals()
        accounted = sum(v for stage, v in totals.items() if stage != "deliver")
        print(f"\n{job_id}  {result.scene}/{result.pipeline}  "
              f"latency {result.latency_s * 1e3:.1f} ms  "
              f"({accounted / result.latency_s:.0%} accounted for by spans)")
        for stage in ("queue", "build", "render-tile", "reassemble", "deliver"):
            if stage in totals:
                count = sum(1 for span in trace.spans if span.name == stage)
                print(f"  {stage:12s} {totals[stage] * 1e3:8.2f} ms  ({count} span"
                      f"{'s' if count != 1 else ''})")
        for event in trace.events:
            print(f"  ! {event.name} {event.attrs}")

    stats = server.stats()
    print("\n=== aggregate stage breakdown (bounded histograms) ===")
    print(f"{'stage':12s} {'count':>5s} {'mean ms':>9s} {'p50 ms':>9s} {'p95 ms':>9s}")
    for stage, digest in stats.stage_breakdown.items():
        if digest["count"]:
            print(f"{stage:12s} {digest['count']:5d} {digest['mean_s'] * 1e3:9.2f} "
                  f"{digest['p50_s'] * 1e3:9.2f} {digest['p95_s'] * 1e3:9.2f}")
    print(f"\nthroughput: {stats.throughput_rays_per_s:,.0f} rays/busy-s, "
          f"{stats.throughput_rays_per_s_wall:,.0f} rays/wall-s")

    export = server.tracer.export_chrome()
    args.output.write_text(json.dumps(export, indent=2, allow_nan=False) + "\n")
    print(f"wrote {args.output} ({len(export['traceEvents'])} events) — "
          f"open it at https://ui.perfetto.dev")
    server.close()


if __name__ == "__main__":
    main()
