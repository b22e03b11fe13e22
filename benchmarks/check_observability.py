"""Observability conformance check for the serving edge (stdlib CLI, no pytest).

Stands up a real :class:`~repro.serve.http.HttpRenderFrontEnd` over a small
:class:`~repro.serve.RenderServer`, renders a handful of jobs through the
network path, then validates every observability surface the edge exposes:

* ``GET /v1/metrics`` — parsed line-by-line against the Prometheus text
  exposition format 0.0.4 (HELP/TYPE grammar, metric/label name charsets,
  metadata-before-samples ordering, no interleaved families) with the extra
  histogram invariants: cumulative non-decreasing ``le`` buckets ending in
  ``+Inf``, and ``_count`` equal to the ``+Inf`` bucket.
* ``GET /v1/traces/export`` — structural schema check of the Chrome
  trace-event document (``traceEvents`` list; every event carries
  ``ph``/``pid``/``tid``/``name``; ``ph:"X"`` spans carry numeric
  ``ts``/``dur``; instants carry a valid scope).
* ``GET /v1/trace/{job_id}`` — each rendered job must be reconstructable as
  a trace whose stage spans are closed, typed, and sum to no more than the
  job's wall time.
* Every JSON body (`/v1/stats` included, scraped *before* the first
  completion while percentiles are still undefined) must survive a strict
  NaN-rejecting parser — bare ``NaN``/``Infinity`` tokens fail the run.

The exported trace is also written to an artifact file (``--artifact``) so
CI can upload a sample that humans can drop into https://ui.perfetto.dev.

Usage::

    python benchmarks/check_observability.py
    python benchmarks/check_observability.py --backend process --workers 2
    python benchmarks/check_observability.py --artifact /tmp/trace_sample.json
"""

from __future__ import annotations

import argparse
import asyncio
import json
import re
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.api import PipelineConfig, SpNeRFConfig  # noqa: E402  (path bootstrap above)
from repro.serve import (  # noqa: E402
    BACKEND_NAMES,
    PROMETHEUS_CONTENT_TYPE,
    SPAN_NAMES,
    RenderServer,
    SceneStore,
    make_backend,
)
from repro.serve.http import HttpRenderFrontEnd, RenderClient  # noqa: E402

DEFAULT_ARTIFACT = REPO_ROOT / "trace_sample.json"

#: Families the server/edge must always expose, whatever the traffic was.
REQUIRED_FAMILIES = (
    "repro_serve_jobs_submitted_total",
    "repro_serve_jobs_completed_total",
    "repro_serve_queue_depth",
    "repro_serve_latency_seconds",
    "repro_serve_render_seconds",
    "repro_serve_cache_hits_total",
    "repro_serve_tiles_deduped_total",
    "repro_serve_cache_bytes",
    "repro_serve_cache_logical_bytes",
    "repro_serve_cache_hit_seconds",
    "repro_edge_requests_total",
    "repro_edge_request_seconds",
)

METRIC_NAME = r"[a-zA-Z_:][a-zA-Z0-9_:]*"
HELP_RE = re.compile(rf"^# HELP ({METRIC_NAME}) (.*)$")
TYPE_RE = re.compile(rf"^# TYPE ({METRIC_NAME}) (counter|gauge|histogram|summary|untyped)$")
SAMPLE_RE = re.compile(rf"^({METRIC_NAME})(?:\{{(.*)\}})? (\S+)(?: (-?\d+))?$")
LABEL_RE = re.compile(r'^([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\["\\n])*)"$')


def strict_json_loads(text: str):
    """``json.loads`` that rejects the bare ``NaN``/``Infinity`` tokens
    Python's encoder happily emits but the JSON grammar forbids."""

    def reject(token: str):
        raise ValueError(f"non-JSON constant in document: {token}")

    return json.loads(text, parse_constant=reject)


def parse_sample_value(token: str) -> Optional[float]:
    if token in ("+Inf", "-Inf", "Inf"):
        return float(token.replace("Inf", "inf"))
    if token == "NaN":
        return float("nan")
    try:
        return float(token)
    except ValueError:
        return None


def base_family(name: str) -> str:
    """Strip the histogram/summary sample suffixes off a sample name."""
    for suffix in ("_bucket", "_sum", "_count"):
        if name.endswith(suffix):
            return name[: -len(suffix)]
    return name


def split_labels(raw: str) -> Optional[Dict[str, str]]:
    """Parse ``a="x",b="y"`` label bodies; ``None`` on any grammar violation."""
    labels: Dict[str, str] = {}
    if not raw:
        return labels
    for part in raw.split(","):
        match = LABEL_RE.match(part)
        if match is None:
            return None
        labels[match.group(1)] = match.group(2)
    return labels


def validate_prometheus(text: str) -> List[str]:
    """Every way ``text`` violates the exposition format, as messages."""
    problems: List[str] = []
    if not text.endswith("\n"):
        problems.append("exposition must end with a newline")

    helped: Dict[str, str] = {}
    typed: Dict[str, str] = {}
    family_order: List[str] = []  # families in first-appearance order
    samples: Dict[str, List[Tuple[str, Dict[str, str], float]]] = {}

    def touch_family(family: str, line_no: int) -> None:
        if family in family_order:
            if family_order[-1] != family:
                problems.append(
                    f"line {line_no}: family {family} reappears after another family "
                    "(samples of one family must be grouped)"
                )
                family_order.append(family)
        else:
            family_order.append(family)

    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line:
            problems.append(f"line {line_no}: blank line inside exposition")
            continue
        if line.startswith("#"):
            help_match = HELP_RE.match(line)
            type_match = TYPE_RE.match(line)
            if help_match:
                family = help_match.group(1)
                if family in helped:
                    problems.append(f"line {line_no}: duplicate HELP for {family}")
                if samples.get(family):
                    problems.append(f"line {line_no}: HELP for {family} after its samples")
                helped[family] = help_match.group(2)
                touch_family(family, line_no)
            elif type_match:
                family = type_match.group(1)
                if family in typed:
                    problems.append(f"line {line_no}: duplicate TYPE for {family}")
                if samples.get(family):
                    problems.append(f"line {line_no}: TYPE for {family} after its samples")
                typed[family] = type_match.group(2)
                touch_family(family, line_no)
            elif not line.startswith("# "):
                problems.append(f"line {line_no}: malformed comment {line!r}")
            continue
        sample_match = SAMPLE_RE.match(line)
        if sample_match is None:
            problems.append(f"line {line_no}: unparseable sample line {line!r}")
            continue
        name, raw_labels, raw_value = sample_match.group(1, 2, 3)
        labels = split_labels(raw_labels or "")
        if labels is None:
            problems.append(f"line {line_no}: malformed labels in {line!r}")
            continue
        value = parse_sample_value(raw_value)
        if value is None:
            problems.append(f"line {line_no}: unparseable value {raw_value!r}")
            continue
        family = base_family(name)
        if typed.get(family) not in ("histogram", "summary"):
            family = name  # _sum/_count suffixes only alias for those types
        touch_family(family, line_no)
        samples.setdefault(family, []).append((name, labels, value))

    for family, kind in typed.items():
        if family not in helped:
            problems.append(f"family {family} has TYPE but no HELP")
        family_samples = samples.get(family, [])
        if not family_samples:
            continue
        if kind == "counter":
            for name, _labels, value in family_samples:
                if value < 0:
                    problems.append(f"counter {name} has negative value {value}")
        elif kind == "histogram":
            problems.extend(validate_histogram_family(family, family_samples))
    for family in samples:
        if family not in typed:
            problems.append(f"family {family} has samples but no TYPE")
    return problems


def validate_histogram_family(
    family: str, family_samples: List[Tuple[str, Dict[str, str], float]]
) -> List[str]:
    """Cumulative buckets ending at +Inf, with consistent _sum/_count."""
    problems: List[str] = []
    # One histogram per distinct non-``le`` label set within the family.
    series: Dict[Tuple[Tuple[str, str], ...], Dict[str, object]] = {}
    for name, labels, value in family_samples:
        key = tuple(sorted((k, v) for k, v in labels.items() if k != "le"))
        entry = series.setdefault(key, {"buckets": [], "sum": None, "count": None})
        if name == f"{family}_bucket":
            if "le" not in labels:
                problems.append(f"{family}_bucket sample missing le label")
                continue
            bound = parse_sample_value(labels["le"])
            if bound is None:
                problems.append(f"{family}_bucket has unparseable le={labels['le']!r}")
                continue
            entry["buckets"].append((bound, value))
        elif name == f"{family}_sum":
            entry["sum"] = value
        elif name == f"{family}_count":
            entry["count"] = value
        else:
            problems.append(f"unexpected sample {name} in histogram family {family}")
    for key, entry in series.items():
        buckets = entry["buckets"]
        if not buckets:
            problems.append(f"histogram {family}{dict(key) or ''} has no buckets")
            continue
        bounds = [bound for bound, _count in buckets]
        counts = [count for _bound, count in buckets]
        if bounds != sorted(bounds):
            problems.append(f"histogram {family} le bounds not ascending: {bounds}")
        if bounds[-1] != float("inf"):
            problems.append(f"histogram {family} last bucket must be le=+Inf")
        if any(b > a for a, b in zip(counts[1:], counts)):
            problems.append(f"histogram {family} bucket counts not cumulative: {counts}")
        if entry["sum"] is None:
            problems.append(f"histogram {family} missing _sum")
        if entry["count"] is None:
            problems.append(f"histogram {family} missing _count")
        elif entry["count"] != counts[-1]:
            problems.append(
                f"histogram {family} _count {entry['count']} != +Inf bucket {counts[-1]}"
            )
    return problems


def validate_chrome_trace(doc: object) -> List[str]:
    """Structural schema of the Chrome trace-event export document."""
    problems: List[str] = []
    if not isinstance(doc, dict):
        return [f"export must be a JSON object, got {type(doc).__name__}"]
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return ["export must carry a traceEvents list"]
    if doc.get("displayTimeUnit") not in ("ms", "ns"):
        problems.append(f"displayTimeUnit must be ms|ns, got {doc.get('displayTimeUnit')!r}")
    span_names = set()
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        for required in ("ph", "pid", "tid", "name"):
            if required not in event:
                problems.append(f"{where}: missing {required!r}")
        phase = event.get("ph")
        if phase == "X":
            for numeric in ("ts", "dur"):
                if not isinstance(event.get(numeric), (int, float)):
                    problems.append(f"{where}: complete event needs numeric {numeric}")
                elif event[numeric] < 0:
                    problems.append(f"{where}: negative {numeric}")
            span_names.add(event.get("name"))
        elif phase == "i":
            if not isinstance(event.get("ts"), (int, float)):
                problems.append(f"{where}: instant needs numeric ts")
            if event.get("s") not in ("t", "p", "g"):
                problems.append(f"{where}: instant scope must be t|p|g")
        elif phase == "M":
            if not isinstance(event.get("args"), dict):
                problems.append(f"{where}: metadata event needs args object")
        else:
            problems.append(f"{where}: unsupported phase {phase!r}")
    unknown = span_names - set(SPAN_NAMES)
    if unknown:
        problems.append(f"unknown span names in export: {sorted(unknown)}")
    return problems


def validate_job_trace(doc: dict, job_id: str) -> List[str]:
    """One ``/v1/trace/{id}`` document for a job known to have completed."""
    problems: List[str] = []
    if doc.get("job_id") != job_id:
        problems.append(f"trace job_id {doc.get('job_id')!r} != requested {job_id!r}")
    if doc.get("state") != "done":
        problems.append(f"trace state {doc.get('state')!r}, expected 'done'")
    spans = doc.get("spans", [])
    if not spans:
        problems.append("trace has no spans")
    for span in spans:
        if span.get("name") not in SPAN_NAMES:
            problems.append(f"span has unknown name {span.get('name')!r}")
        if span.get("end_s") is None and span.get("name") != "deliver":
            problems.append(f"non-deliver span {span.get('name')!r} left open")
    totals = doc.get("stage_totals_s", {})
    for stage in ("queue", "render-tile", "reassemble"):
        if stage not in totals:
            problems.append(f"stage_totals_s missing {stage!r}")
    wall = (doc.get("finished_s") or 0.0) - (doc.get("origin_s") or 0.0)
    accounted = sum(
        duration for stage, duration in totals.items() if stage != "deliver"
    )
    if accounted < 0:
        problems.append(f"negative accounted stage time {accounted}")
    if wall > 0 and accounted > wall * 1.05 + 0.01:
        problems.append(
            f"stage spans claim {accounted:.4f}s but the job's wall time was {wall:.4f}s"
        )
    return problems


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--backend", default="serial", choices=sorted(BACKEND_NAMES))
    parser.add_argument(
        "--workers", type=int, default=None, help="process-pool worker count (default: auto)"
    )
    parser.add_argument("--jobs", type=int, default=4, help="render jobs to trace")
    parser.add_argument(
        "--artifact", type=Path, default=DEFAULT_ARTIFACT,
        help="where to write the sample Chrome trace (CI uploads this)",
    )
    return parser.parse_args(argv)


def run(args: argparse.Namespace) -> int:
    failures: List[str] = []
    store = SceneStore(
        config=PipelineConfig(
            spnerf=SpNeRFConfig(num_subgrids=4, hash_table_size=512, codebook_size=16),
            kmeans_iterations=2,
        ),
        scene_kwargs={
            "resolution": 24, "image_size": 32, "num_views": 1, "num_samples": 24,
        },
    )
    server = RenderServer(
        store,
        backend=make_backend(args.backend, args.workers),
        default_tile_size=192,
    )
    edge = HttpRenderFrontEnd(server)
    host, port = edge.run_in_thread()
    print(f"# check_observability: backend={args.backend} edge={host}:{port}")

    async def drive() -> Dict[str, object]:
        async with RenderClient(host, port, api_key="observability") as client:
            # Strict-parse /v1/stats *before* any job exists: percentiles are
            # undefined and must arrive as null, not bare NaN tokens.
            early = await client.request("GET", "/v1/stats")
            strict_json_loads(early.body.decode("utf-8"))

            job_ids: List[str] = []
            scenes = ("lego", "ficus")
            pipelines = ("dense", "spnerf")
            for index in range(args.jobs):
                await client.render(
                    scene=scenes[index % len(scenes)],
                    pipeline=pipelines[index % len(pipelines)],
                )
                # render() fetched /result, so the deliver span is closed.
            stats = await client.request("GET", "/v1/stats")
            stats_doc = strict_json_loads(stats.body.decode("utf-8"))
            # The server's job counter names completed jobs; traces carry ids.
            export = await client.request("GET", "/v1/traces/export")
            export_doc = strict_json_loads(export.body.decode("utf-8"))
            for event in export_doc.get("traceEvents", []):
                if event.get("ph") == "X":
                    job_id = event.get("args", {}).get("job_id")
                    if job_id and job_id not in job_ids:
                        job_ids.append(job_id)
            traces = {}
            for job_id in job_ids:
                response = await client.request("GET", f"/v1/trace/{job_id}")
                traces[job_id] = (
                    response.status,
                    strict_json_loads(response.body.decode("utf-8")),
                )
            missing = await client.request("GET", "/v1/trace/no-such-job")
            metrics = await client.request("GET", "/v1/metrics")
            return {
                "stats": stats_doc,
                "export": export_doc,
                "traces": traces,
                "missing_status": missing.status,
                "metrics_status": metrics.status,
                "metrics_type": metrics.headers.get("content-type", ""),
                "metrics_text": metrics.body.decode("utf-8"),
            }

    try:
        observed = asyncio.run(drive())
    finally:
        edge.shutdown()
        server.close()

    # ---- /v1/metrics -------------------------------------------------
    if observed["metrics_status"] != 200:
        failures.append(f"/v1/metrics answered {observed['metrics_status']}")
    if observed["metrics_type"] != PROMETHEUS_CONTENT_TYPE:
        failures.append(
            f"/v1/metrics content type {observed['metrics_type']!r} "
            f"!= {PROMETHEUS_CONTENT_TYPE!r}"
        )
    text = observed["metrics_text"]
    failures.extend(f"/v1/metrics: {p}" for p in validate_prometheus(text))
    exposed = {line.split()[2] for line in text.splitlines() if line.startswith("# TYPE ")}
    for family in REQUIRED_FAMILIES:
        if family not in exposed:
            failures.append(f"/v1/metrics missing required family {family}")
    completed_line = next(
        (line for line in text.splitlines()
         if line.startswith("repro_serve_jobs_completed_total ")), ""
    )
    if completed_line and float(completed_line.split()[1]) < args.jobs:
        failures.append(f"jobs_completed_total below {args.jobs}: {completed_line!r}")
    print(f"/v1/metrics: {len(text.splitlines())} lines, {len(exposed)} families")

    # ---- /v1/traces/export ------------------------------------------
    export_doc = observed["export"]
    failures.extend(f"/v1/traces/export: {p}" for p in validate_chrome_trace(export_doc))
    print(f"/v1/traces/export: {len(export_doc.get('traceEvents', []))} events")

    # ---- /v1/trace/{id} ---------------------------------------------
    traces: Dict[str, Tuple[int, dict]] = observed["traces"]
    if len(traces) < args.jobs:
        failures.append(f"only {len(traces)} traced jobs found, expected {args.jobs}")
    for job_id, (status, doc) in traces.items():
        if status != 200:
            failures.append(f"/v1/trace/{job_id} answered {status}")
            continue
        failures.extend(f"/v1/trace/{job_id}: {p}" for p in validate_job_trace(doc, job_id))
    if observed["missing_status"] != 404:
        failures.append(f"unknown trace answered {observed['missing_status']}, expected 404")
    print(f"/v1/trace: {len(traces)} job traces validated")

    args.artifact.write_text(json.dumps(export_doc, indent=2, allow_nan=False) + "\n")
    print(f"# wrote {args.artifact}")

    for failure in failures:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    if not failures:
        print("observability checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(run(parse_args()))
