"""Wall-clock benchmark of the render hot path (stdlib CLI, no pytest).

Times the dense / vqrf / spnerf pipelines through the public
:class:`repro.api.RenderEngine` and writes ``BENCH_render.json`` at the repo
root so the perf trajectory is tracked across PRs.  Every pipeline is timed
in three variants:

* ``baseline`` — the unguided exhaustive path: occupancy guidance off (and,
  for spnerf, additionally the pre-optimisation path: vertex-reuse decode
  cache off, empty-cell cull off, per-sample view-direction encoding);
* ``optimized`` — the default render (occupancy-guided ray skipping +
  empty-sample culling, decode cache, fused interpolation, per-ray/per-frame
  encoding); bit-identical images to ``baseline``;
* ``fast`` — the optimized path plus early ray termination
  (:meth:`RenderConfig.fast`), which trades <=threshold of pixel energy for
  time.

Usage::

    python benchmarks/perf_render.py --quick            # CI-sized run
    python benchmarks/perf_render.py                    # full-sized run
    python benchmarks/perf_render.py --quick \
        --max-spnerf-vs-dense 2.0 --min-dense-speedup 1.5 --min-vqrf-speedup 1.5

The guards exit non-zero on regression: ``--max-spnerf-vs-dense`` bounds the
optimized spnerf render against the dense reference, ``--min-speedup`` bounds
spnerf against its pre-optimisation baseline, and ``--min-dense-speedup`` /
``--min-vqrf-speedup`` bound the occupancy-guided dense/vqrf renders against
their unguided baselines (>=1.5x in CI, >=2x the local target).  Bit-identity
of every pipeline's guided image is always enforced.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.api import (  # noqa: E402  (path bootstrap above)
    RenderEngine,
    RenderRequest,
    build_bundle,
    build_field,
    field_from_bundle,
)
from repro.datasets.synthetic import load_scene  # noqa: E402

DEFAULT_OUTPUT = REPO_ROOT / "BENCH_render.json"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scene", default="lego", help="synthetic scene name")
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI-sized configuration (smaller grid/frame, fewer repeats)",
    )
    parser.add_argument("--resolution", type=int, default=None, help="grid resolution override")
    parser.add_argument("--image-size", type=int, default=None, help="frame side override")
    parser.add_argument("--num-samples", type=int, default=None, help="samples per ray override")
    parser.add_argument("--repeats", type=int, default=None, help="timing repeats (best-of)")
    parser.add_argument(
        "--output", type=Path, default=DEFAULT_OUTPUT, help="where to write the JSON report"
    )
    parser.add_argument(
        "--max-spnerf-vs-dense",
        type=float,
        default=None,
        metavar="RATIO",
        help="fail when optimized spnerf render time exceeds RATIO x dense render time",
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=None,
        metavar="RATIO",
        help="fail when the optimized spnerf speedup over the pre-optimisation "
        "baseline falls below RATIO",
    )
    parser.add_argument(
        "--min-dense-speedup",
        type=float,
        default=None,
        metavar="RATIO",
        help="fail when the occupancy-guided dense render's speedup over the "
        "unguided dense render falls below RATIO",
    )
    parser.add_argument(
        "--min-vqrf-speedup",
        type=float,
        default=None,
        metavar="RATIO",
        help="fail when the occupancy-guided vqrf render's speedup over the "
        "unguided vqrf render falls below RATIO",
    )
    return parser.parse_args(argv)


def resolve_config(args: argparse.Namespace) -> dict:
    if args.quick:
        config = {"resolution": 64, "image_size": 80, "num_samples": 64, "repeats": 2}
    else:
        config = {"resolution": 96, "image_size": 160, "num_samples": 96, "repeats": 3}
    for key in ("resolution", "image_size", "num_samples", "repeats"):
        override = getattr(args, key)
        if override is not None:
            config[key] = override
    config["scene"] = args.scene
    config["quick"] = bool(args.quick)
    return config


def time_render(field, scene, repeats: int, **request_kwargs):
    """Best-of-``repeats`` wall-clock seconds for one full-frame render."""
    engine = RenderEngine(field, scene)
    request = RenderRequest(camera_indices=(0,), **request_kwargs)
    result = engine.render(request)  # warm-up (fills lazy tables, page cache)
    best = float("inf")
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        result = engine.render(request)
        best = min(best, time.perf_counter() - start)
    return best, result


def make_baseline_spnerf(bundle):
    """The pre-optimisation spnerf field: every hot-path switch off."""
    return field_from_bundle(
        bundle, "spnerf", dedup_vertices=False, cull_empty_samples=False, occupancy=False
    )


def occupancy_stats(result):
    """The occupancy counters a report entry records for one render."""
    stats = result.stats
    return {
        "num_culled_samples": stats.num_culled_samples,
        "num_skipped_rays": stats.num_skipped_rays,
        "culled_fraction": (
            stats.num_culled_samples / stats.num_samples if stats.num_samples else 0.0
        ),
        "skipped_ray_fraction": (
            stats.num_skipped_rays / stats.num_rays if stats.num_rays else 0.0
        ),
    }


def run(args: argparse.Namespace) -> int:
    config = resolve_config(args)
    repeats = config["repeats"]
    print(f"# perf_render: scene={config['scene']} resolution={config['resolution']} "
          f"image={config['image_size']}px samples={config['num_samples']} repeats={repeats}")

    scene = load_scene(
        config["scene"],
        resolution=config["resolution"],
        image_size=config["image_size"],
        num_views=1,
        num_samples=config["num_samples"],
    )
    bundle = build_bundle(scene)

    report = {"config": config, "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"), "pipelines": {}}

    # Reference pipelines: unguided baseline vs occupancy-guided default
    # (bit-identity enforced) plus the fast profile and PSNR.
    for pipeline in ("dense", "vqrf"):
        field = build_field(pipeline, scene)
        baseline_s, baseline_result = time_render(
            field, scene, repeats, compare_to_reference=True, use_occupancy=False
        )
        seconds, result = time_render(field, scene, repeats, compare_to_reference=True)
        fast_seconds, _ = time_render(
            field, scene, repeats, transmittance_threshold=1e-3
        )
        identical = bool(np.array_equal(baseline_result.image, result.image))
        report["pipelines"][pipeline] = {
            "baseline_render_s": baseline_s,
            "render_s": seconds,
            "fast_render_s": fast_seconds,
            "speedup_vs_baseline": baseline_s / seconds,
            "images_bit_identical_to_baseline": identical,
            "psnr": result.psnr[0],
            **occupancy_stats(result),
        }
        print(f"{pipeline:14s} baseline {baseline_s:7.3f}s  occupancy {seconds:7.3f}s "
              f"({baseline_s / seconds:4.2f}x)  fast {fast_seconds:7.3f}s  "
              f"bit-identical={identical}  psnr {result.psnr[0]:5.2f}")

    # SpNeRF: pre-optimisation baseline vs optimized vs fast profile.
    baseline_field = make_baseline_spnerf(bundle)
    optimized_field = field_from_bundle(bundle, "spnerf")
    baseline_s, baseline_result = time_render(
        baseline_field, scene, repeats, compare_to_reference=True
    )
    optimized_s, optimized_result = time_render(
        optimized_field, scene, repeats, compare_to_reference=True
    )
    fast_s, fast_result = time_render(
        optimized_field, scene, repeats,
        compare_to_reference=True, transmittance_threshold=1e-3,
    )
    identical = bool(np.array_equal(baseline_result.image, optimized_result.image))
    stats = optimized_result.stats
    report["pipelines"]["spnerf"] = {
        "baseline_render_s": baseline_s,
        "render_s": optimized_s,
        "fast_render_s": fast_s,
        "speedup_vs_baseline": baseline_s / optimized_s,
        "fast_speedup_vs_baseline": baseline_s / fast_s,
        "images_bit_identical_to_baseline": identical,
        "psnr": optimized_result.psnr[0],
        "fast_psnr": fast_result.psnr[0],
        "num_vertex_lookups": stats.num_vertex_lookups,
        "num_unique_vertex_fetches": stats.num_unique_vertex_fetches,
        "vertex_reuse_ratio": stats.vertex_reuse_ratio,
        **occupancy_stats(optimized_result),
    }
    print(f"{'spnerf':14s} baseline {baseline_s:7.3f}s  optimized {optimized_s:7.3f}s "
          f"({baseline_s / optimized_s:4.2f}x)  fast {fast_s:7.3f}s "
          f"({baseline_s / fast_s:4.2f}x)")
    print(f"{'':14s} bit-identical={identical}  "
          f"reuse={stats.vertex_reuse_ratio:.1f}x  psnr {optimized_result.psnr[0]:5.2f} "
          f"(fast {fast_result.psnr[0]:5.2f})")

    failures = []
    if not identical:
        failures.append("optimized spnerf image is not bit-identical to the baseline path")
    for pipeline in ("dense", "vqrf"):
        if not report["pipelines"][pipeline]["images_bit_identical_to_baseline"]:
            failures.append(
                f"occupancy-guided {pipeline} image is not bit-identical to the unguided path"
            )
    dense_s = report["pipelines"]["dense"]["render_s"]
    if args.max_spnerf_vs_dense is not None and optimized_s > args.max_spnerf_vs_dense * dense_s:
        failures.append(
            f"spnerf render {optimized_s:.3f}s exceeds "
            f"{args.max_spnerf_vs_dense:.2f}x dense render {dense_s:.3f}s"
        )
    if args.min_speedup is not None and baseline_s / optimized_s < args.min_speedup:
        failures.append(
            f"spnerf speedup {baseline_s / optimized_s:.2f}x below required "
            f"{args.min_speedup:.2f}x"
        )
    for pipeline, required in (
        ("dense", args.min_dense_speedup),
        ("vqrf", args.min_vqrf_speedup),
    ):
        achieved = report["pipelines"][pipeline]["speedup_vs_baseline"]
        if required is not None and achieved < required:
            failures.append(
                f"{pipeline} occupancy speedup {achieved:.2f}x below required {required:.2f}x"
            )
    report["guards"] = {
        "max_spnerf_vs_dense": args.max_spnerf_vs_dense,
        "min_speedup": args.min_speedup,
        "min_dense_speedup": args.min_dense_speedup,
        "min_vqrf_speedup": args.min_vqrf_speedup,
        "failures": failures,
    }

    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"# wrote {args.output}")
    for failure in failures:
        print(f"GUARD FAILED: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(run(parse_args()))
