"""The repository benchmark: one workload, one seed, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload orbit-spnerf --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` installs the layer wrappers (see ``tracing.py``), runs the
timed phase once untraced and once traced, and reports the per-layer
metrics; it also writes a layer table and a Chrome trace under
``perfbench/out/``.  Either way every served frame is checked byte-for-byte
against a direct ``RenderEngine`` render, outside the timed window.

The last line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
"""

import os

# Pin BLAS/OpenMP to one thread before numpy is imported: here and, through
# the inherited environment, in every forked worker.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import functools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import report  # noqa: E402  (no numpy: safe before the program is found)
import tracing  # noqa: E402
OUT = HERE / "out"
#: Set-ups per untraced run; ``setup_s`` is their median.  A traced run
#: sets up once, traced, for the set-up layers.
SETUP_REPEATS = 3
#: Fewest timed frames behind a latency percentile: at least 10 lie beyond p90.
MIN_FRAMES = 100
#: Units of the end-to-end metrics (also listed in BENCHMARK.json).
E2E_UNITS = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "frames_per_s": "1/s",
    "success_rate": "frac",
    "slo_met_frac": "frac",
    "psnr_db": "dB",
    "model_bytes": "bytes",
    "peak_rss_mb": "MB",
}


def git_commit() -> str:
    """The checked-out commit (``unknown`` outside a git checkout)."""
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30)
            if out.returncode == 0:
                return out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return "unknown"


def host_fingerprint(args, nproc: int) -> dict:
    import numpy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # noqa: BLE001 - older numpy has no dict mode
        blas = "unknown"
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": nproc, "cpu": cpu,
        "python": platform.python_version(), "numpy": numpy.__version__, "blas": blas,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "commit": git_commit(),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("orbit-spnerf", "edge-tiled", "popular-cached"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def end_to_end(workload, out: dict, setups, psnrs: dict) -> dict:
    frames = out["frames"]
    attempted = len(frames) + out["failed"]
    ok = [frame for frame in frames if frame["ok"]]
    slo_ms = workload.spec.slo_ms
    latency = [1e3 * (f["t1"] - f["t0"]) for f in frames]
    return {
        "setup_s": statistics.median(setups),
        "latency_p50_ms": report.percentile(latency, 50),
        "latency_p90_ms": report.percentile(latency, 90),
        "frames_per_s": len(frames) / out["wall_s"],
        "success_rate": len(ok) / attempted,
        "slo_met_frac": sum(1e3 * (f["t1"] - f["t0"]) <= slo_ms for f in ok) / attempted,
        "psnr_db": statistics.fmean(psnrs.values()) if psnrs else 0.0,
        "model_bytes": float(workload.model_bytes()),
        "peak_rss_mb": workload.peak_rss_mb,
    }


def check_frames(workload, phases, tracer=None):
    """Byte-compare every phase's frames; returns ``(mismatches, psnr by view)``.

    Pool workers are not traced, so with a ``tracer`` the direct renders of
    the last (traced) phase are traced instead: they give that workload its
    render-layer self times.
    """
    import workloads

    mismatches, psnrs = [], {}
    for phase in phases:
        saved = direct = None
        if tracer is not None and phase is phases[-1]:
            saved = tracing.install(tracer)
            direct = functools.partial(workload.direct_frame, tracer=tracer)
        try:
            bad, values = workloads.verify(workload, phase["frames"], direct)
        finally:
            if saved is not None:
                tracing.uninstall(saved)
        mismatches += bad
        psnrs.update(values)
    return mismatches, psnrs


def untraced_run(workload, seconds: float):
    """Three set-ups, one timed phase: the end-to-end metrics."""
    setups = [workload.setup() for _ in range(SETUP_REPEATS)]
    print("setup_s " + " ".join(f"{s:.4f}" for s in setups))
    out = workload.run(seconds)
    mismatches, psnrs = check_frames(workload, [out])
    metrics = end_to_end(workload, out, setups, psnrs)
    return [out], mismatches, {name: {"value": value, "unit": E2E_UNITS[name]}
                               for name, value in metrics.items()}


def traced_run(workload, seconds: float, run_dir: Path):
    """One traced set-up, an untraced and a traced timed phase: per-layer metrics."""
    tracer = tracing.Tracer(worker_dir=run_dir)
    saved = tracing.install(tracer)
    try:
        print(f"setup_s {workload.setup():.4f}")
    finally:
        tracing.uninstall(saved)
    setup_spans = [
        {"name": s[tracing.NAME], "start": s[tracing.START], "end": s[tracing.END]}
        for s in tracer.spans if s[tracing.NAME] in tracing.SETUP_SPANS
    ] + tracer.read_worker_spans()
    tracer.reset()

    untraced = workload.run(seconds)
    before = workload.cache_counters()
    saved = tracing.install(tracer)
    try:
        traced = workload.run(seconds, tracer)
    finally:
        tracing.uninstall(saved)
    after = workload.cache_counters()
    pool = workload.server.backend.name != "serial"
    mismatches, _ = check_frames(workload, [untraced, traced], tracer if pool else None)

    frames = traced["frames"]
    for frame in frames:  # edge frames carry no stats: use the direct render's
        key = (frame["scene"], frame["pipeline"], frame["camera"])
        frame.setdefault("stats", workload.direct_stats[key])
    report.tag_assembles(tracer.spans, tracer.reassembly)
    cache = {key: after[key] - before[key] for key in ("hits", "misses", "evictions", "deduped")}
    cache["resident_bytes"] = after["resident_bytes"]
    ctx = {
        "setup_spans": setup_spans, "cache": cache, "http": traced.get("http"),
        "store_bytes": workload.store_bytes(),
        "num_workers": workload.server.backend.num_workers,
        "wall_s": traced["wall_s"],
        "untraced_fps": len(untraced["frames"]) / untraced["wall_s"],
        "traced_fps": len(frames) / traced["wall_s"],
        "render_frames": [
            {"id": s[tracing.FRAME], "t0": s[tracing.START], "t1": s[tracing.END]}
            for s in tracer.spans
            if s[tracing.NAME] == "frame" and s[tracing.THREAD] is not None
        ] if pool else None,
    }
    per_frame = report.frame_layers(tracer.spans, frames)
    metrics = report.layer_metrics(tracer, frames, per_frame, ctx)
    table = report.layer_table(workload.spec.name, frames, per_frame)
    print(table)
    (run_dir / "layers.txt").write_text(table + "\n")
    report.chrome_trace(tracer.spans, run_dir / "trace.json")
    return [untraced, traced], mismatches, {
        name: {"value": value, "unit": report.UNITS[name]} for name, value in metrics.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    try:
        import repro.serve
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if ROOT / "src" not in Path(repro.serve.__file__).resolve().parents:
        # Measure the checkout's own source, never an installed copy.
        print(f"perfbench: imported repro from {repro.serve.__file__}, not {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    import workloads

    fingerprint = host_fingerprint(args, workloads.nproc())
    print("host " + json.dumps(fingerprint))
    workload = workloads.make(args.workload, args.seed)
    try:
        if args.trace:
            run_dir = OUT / f"{args.workload}-seed{args.seed}"
            shutil.rmtree(run_dir, ignore_errors=True)
            run_dir.mkdir(parents=True)
            phases, mismatches, metrics = traced_run(workload, args.seconds, run_dir)
        else:
            phases, mismatches, metrics = untraced_run(workload, args.seconds)
    finally:
        workload.close()

    for line in mismatches:
        print("MISMATCH " + line)
    frames = [frame for phase in phases for frame in phase["frames"]]
    attempted = len(frames) + sum(phase["failed"] for phase in phases)
    verified = sum(frame["ok"] for frame in frames)
    timed = len(phases[0]["frames"])
    print(f"frames {timed} timed, {attempted} attempted in all phases, "
          f"{verified} verified, {len(mismatches)} mismatched")
    if timed < MIN_FRAMES:
        print(f"WARNING: latency percentiles rest on {timed} timed frames, "
              f"fewer than {MIN_FRAMES}: fewer than 10 lie beyond p90")
    result = {
        "correct": not mismatches and verified > 0,
        "attempted": attempted,
        "failed": attempted - verified,
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"host": fingerprint, **result}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
