"""Tests for the :mod:`repro.serve.http` serving edge.

Covers the edge's four layers plus this PR's acceptance invariants:

* fairness — token-bucket refill/limiting and weighted deficit-round-robin
  release, both under injected clocks (no sleeps, fully deterministic);
* wire — malformed requests are answered ``400`` and close the connection;
* frontend — submit/poll/result/cancel/stats round trips, every documented
  failure path (bad JSON → 400, unknown scene/pipeline/job → 404, admission
  reject and rate limiting → 429 with ``Retry-After``), SSE streams with
  partial tiles, mid-render failures, disconnect cancellation and a clean
  shutdown drain;
* acceptance — an HTTP-fetched frame is bit-identical to a direct
  :class:`RenderEngine` render (dense and spnerf, serial and process
  backends), an SSE client sees partial tiles before ``done``, and a slow
  client's p95 stays within a constant factor of its solo p95 while a 10x
  greedier client floods the edge.

Scenes are the same tiny 16^3/24px ones as ``test_serve.py`` so the module
stays fast; one store is shared across every front end to reuse bundles.
"""

from __future__ import annotations

import asyncio
import base64
import contextlib
import inspect
import threading

import numpy as np
import pytest

from repro.api import PipelineConfig, SpNeRFConfig, register_pipeline, unregister_pipeline
from repro.nerf.renderer import DenseGridField
from repro.serve import Priority, RenderServer, SceneStore, orbit_workload
from repro.serve.backends import ProcessPoolBackend
from repro.serve.cache import TileCache
from repro.serve.http import (
    DeficitRoundRobin,
    HttpRenderFrontEnd,
    RateLimiter,
    RenderClient,
    TokenBucket,
)
from repro.serve.traffic import http_open_loop

SERVE_CONFIG = PipelineConfig(
    spnerf=SpNeRFConfig(num_subgrids=4, hash_table_size=256, codebook_size=16),
    kmeans_iterations=2,
)
SCENE_KWARGS = {"resolution": 16, "image_size": 24, "num_views": 1, "num_samples": 16}


@pytest.fixture(scope="module")
def store() -> SceneStore:
    return SceneStore(config=SERVE_CONFIG, scene_kwargs=dict(SCENE_KWARGS))


@contextlib.contextmanager
def frontend(store, *, server_kwargs=None, **edge_kwargs):
    """A running front end over a fresh server on the shared store."""
    server = RenderServer(store, **(server_kwargs or {}))
    edge = HttpRenderFrontEnd(server, **edge_kwargs)
    host, port = edge.run_in_thread()
    try:
        yield edge, host, port
    finally:
        edge.shutdown()
        server.close()


@pytest.fixture(scope="module")
def live_edge(store):
    """One shared front end for the read-mostly happy-path tests."""
    with frontend(store, server_kwargs={"default_tile_size": 144}) as running:
        yield running


def run(coro):
    return asyncio.run(coro)


async def raw_exchange(host: str, port: int, payload: bytes) -> bytes:
    """Send raw bytes, return everything the server answers before closing."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(payload)
        await writer.drain()
        return await asyncio.wait_for(reader.read(), timeout=10.0)
    finally:
        writer.close()
        with contextlib.suppress(ConnectionResetError, BrokenPipeError):
            await writer.wait_closed()


# ----------------------------------------------------------------------
# Fairness primitives (deterministic, no server)
# ----------------------------------------------------------------------

def test_token_bucket_burst_then_sustained_rate():
    bucket = TokenBucket(rate_hz=2.0, capacity=3.0, now=0.0)
    assert [bucket.try_acquire(0.0) for _ in range(4)] == [True, True, True, False]
    assert bucket.retry_after_s(0.0) == pytest.approx(0.5)
    assert not bucket.try_acquire(0.4)
    assert bucket.try_acquire(0.5)  # one token accrued at 2 Hz
    assert bucket.try_acquire(10.0) and bucket.tokens == pytest.approx(2.0)  # capped


def test_rate_limiter_disabled_none_and_per_client_isolation():
    clock = {"now": 0.0}
    limiter = RateLimiter(None)
    assert limiter.check("anyone") == (True, 0.0)
    limiter = RateLimiter(1.0, burst=1.0, clock=lambda: clock["now"])
    assert limiter.check("a")[0] and not limiter.check("a")[0]
    assert limiter.check("b")[0]  # a's empty bucket does not starve b
    admitted, retry = limiter.check("a")
    assert not admitted and retry == pytest.approx(1.0)
    clock["now"] = 1.0
    assert limiter.check("a")[0]


def test_rate_limiter_bounded_client_tracking():
    limiter = RateLimiter(1.0, burst=1.0, max_clients=2, clock=lambda: 0.0)
    assert limiter.check("a")[0] and limiter.check("b")[0]
    assert limiter.check("c")[0]  # evicts "a", the least recently seen
    assert limiter.check("a")[0]  # forgotten => fresh (full) bucket


def test_drr_round_robin_is_fair_across_unequal_backlogs():
    drr = DeficitRoundRobin(quantum=1.0)
    for i in range(10):
        drr.push("greedy", f"g{i}")
    drr.push("polite", "p0")
    released = drr.release(lambda client: True)
    # One round: each client's head fits one quantum => both release exactly one.
    assert ("polite", "p0") in released
    assert sum(1 for client, _ in released if client == "greedy") == 1
    assert drr.queued("greedy") == 9 and drr.queued("polite") == 0


def test_drr_weights_scale_release_share():
    drr = DeficitRoundRobin(quantum=1.0, weights={"vip": 3.0})
    for i in range(6):
        drr.push("vip", f"v{i}")
        drr.push("std", f"s{i}")
    released = drr.release(lambda client: True)
    by_client = {"vip": 0, "std": 0}
    for client, _ in released:
        by_client[client] += 1
    assert by_client == {"vip": 3, "std": 1}


def test_drr_expensive_item_consumes_proportional_turns():
    drr = DeficitRoundRobin(quantum=1.0)
    drr.push("heavy", "big", cost=3.0)
    drr.push("light", "small", cost=1.0)
    first = drr.release(lambda client: True)
    assert ("light", "small") in first and ("heavy", "big") not in first
    # The capped deficit admits the expensive head after bounded extra rounds.
    rounds = 1
    while drr.queued("heavy"):
        drr.release(lambda client: True)
        rounds += 1
        assert rounds < 10
    assert rounds <= 4


def test_drr_gate_blocks_one_client_without_stalling_others():
    drr = DeficitRoundRobin()
    drr.push("blocked", "b0")
    drr.push("free", "f0")
    released = drr.release(lambda client: client != "blocked")
    assert released == [("free", "f0")]
    assert drr.queued("blocked") == 1
    assert drr.release(lambda client: True) == [("blocked", "b0")]


# ----------------------------------------------------------------------
# Wire-level failure paths
# ----------------------------------------------------------------------

def test_malformed_request_line_answers_400(live_edge):
    _, host, port = live_edge
    answer = run(raw_exchange(host, port, b"this is not http\r\n\r\n"))
    assert answer.startswith(b"HTTP/1.1 400 ")


def test_malformed_json_body_answers_400(live_edge):
    _, host, port = live_edge
    body = b"{not json"
    request = (
        b"POST /v1/jobs HTTP/1.1\r\nHost: t\r\nConnection: close\r\n"
        + b"Content-Length: " + str(len(body)).encode() + b"\r\n\r\n" + body
    )
    answer = run(raw_exchange(host, port, request))
    assert answer.startswith(b"HTTP/1.1 400 ")
    assert b"bad_json" in answer


# ----------------------------------------------------------------------
# Frontend round trips and HTTP failure paths
# ----------------------------------------------------------------------

@pytest.mark.parametrize("pipeline", ["dense", "spnerf"])
def test_http_frame_bit_identical_to_direct_render(live_edge, store, pipeline):
    _, host, port = live_edge

    async def fetch():
        async with RenderClient(host, port) as client:
            return await client.render(scene="lego", pipeline=pipeline)

    frame, meta = run(fetch())
    direct = store.get("lego", pipeline).engine.render(camera_indices=(0,), chunk_size=144)
    assert np.array_equal(frame, direct.image)
    assert meta["scene"] == "lego" and meta["pipeline"] == pipeline
    assert meta["num_tiles"] == 4


def test_http_poll_reports_view_fields(live_edge):
    _, host, port = live_edge

    async def scenario():
        async with RenderClient(host, port) as client:
            submitted = await client.submit(scene="lego", pipeline="dense", priority="high")
            assert submitted.status == 202
            job_id = submitted.json()["job_id"]
            view = await client.wait(job_id)
            assert view["state"] == "done"
            assert view["priority"] == int(Priority.HIGH)
            assert view["tiles_done"] == view["tiles_total"] == 4
            assert view["progress"] == 1.0
            stats = await client.stats()
        return stats

    stats = run(scenario())
    assert stats["server"]["completed"] >= 1
    assert stats["edge"]["jobs_submitted"] >= 1
    assert stats["edge"]["responses_by_status"].get("202", 0) >= 1
    assert np.isfinite(stats["edge"]["request_latency_p50_s"])


def test_http_unknown_scene_pipeline_and_job_answer_404(live_edge):
    _, host, port = live_edge

    async def scenario():
        async with RenderClient(host, port) as client:
            missing_scene = await client.submit(scene="atlantis")
            missing_pipeline = await client.submit(scene="lego", pipeline="voxelfm")
            missing_job = await client.poll("job-424242")
            missing_result = await client.result("job-424242")
            missing_route = await client.request("GET", "/v2/jobs")
            bad_method = await client.request("PUT", "/v1/jobs/job-1")
        return missing_scene, missing_pipeline, missing_job, missing_result, missing_route, bad_method

    scene, pipeline, job, result, route, method = run(scenario())
    assert (scene.status, scene.json()["error"]) == (404, "unknown_scene")
    assert (pipeline.status, pipeline.json()["error"]) == (404, "unknown_pipeline")
    assert job.status == 404 and "job-424242" in job.json()["message"]
    assert result.status == 404
    assert route.status == 404
    assert method.status == 405


def test_http_submission_field_validation_answers_400(live_edge):
    _, host, port = live_edge

    async def scenario():
        async with RenderClient(host, port) as client:
            return (
                await client.submit(pipeline="dense"),            # no scene
                await client.submit(scene="lego", camera_index=-1),
                await client.submit(scene="lego", camera_index=99),
                await client.submit(scene="lego", priority="urgent"),
                await client.submit(scene="lego", tile_size=0),
                await client.submit(scene="lego", deadline_s="soon"),
            )

    for response in run(scenario()):
        assert response.status == 400, response.body
        assert response.json()["error"] in ("bad_request", "bad_json")


def test_http_rate_limit_answers_429_with_retry_after(store):
    with frontend(store, rate_limit_hz=0.01, rate_limit_burst=1.0) as (edge, host, port):

        async def scenario():
            async with RenderClient(host, port, api_key="hasty") as client:
                first = await client.submit(scene="lego", pipeline="dense")
                second = await client.submit(scene="lego", pipeline="dense")
            async with RenderClient(host, port, api_key="other") as client:
                other = await client.submit(scene="lego", pipeline="dense")
            return first, second, other

        first, second, other = run(scenario())
        assert first.status == 202
        assert second.status == 429
        assert second.json()["error"] == "rate_limited"
        assert second.json()["retry_after_s"] > 0
        assert int(second.headers["retry-after"]) >= 1
        assert other.status == 202  # rate limits are per client identity
        assert edge.telemetry.rate_limited_429 == 1


def test_http_admission_reject_answers_429_with_retry_after(store):
    server_kwargs = {"max_pending_cost": 0.5, "over_cost_policy": "reject"}
    with frontend(store, server_kwargs=server_kwargs) as (edge, host, port):

        async def scenario():
            async with RenderClient(host, port) as client:
                rejected = await client.submit(scene="lego", pipeline="dense")
                view = await client.poll(rejected.json()["job_id"])
            return rejected, view

        rejected, view = run(scenario())
        assert rejected.status == 429
        assert rejected.json()["error"] == "admission_rejected"
        assert rejected.json()["state"] == "rejected"
        assert int(rejected.headers["retry-after"]) >= 1
        assert view.json()["state"] == "rejected"  # the job is still pollable
        assert edge.telemetry.admission_429 == 1


def test_http_queue_depth_cap_answers_429(store):
    edge_kwargs = {"max_in_flight_per_client": 1, "max_queue_per_client": 1}
    server_kwargs = {"default_tile_size": 2}  # 288 tiles: keeps the first job busy
    with frontend(store, server_kwargs=server_kwargs, **edge_kwargs) as (edge, host, port):

        async def scenario():
            first_client = RenderClient(host, port, api_key="one")
            first = await first_client.submit(scene="lego", pipeline="dense")
            assert first.status == 202  # admitted: now holds the in-flight slot
            # The next submission parks in the DRR queue; issue it in the
            # background so the depth cap is occupied when the third arrives.
            second_client = RenderClient(host, port, api_key="one")
            second_task = asyncio.create_task(
                second_client.submit(scene="lego", pipeline="dense")
            )
            await asyncio.sleep(0.1)
            assert not second_task.done()
            async with RenderClient(host, port, api_key="one") as client:
                third = await client.submit(scene="lego", pipeline="dense")
            second = await second_task
            await first_client.close()
            await second_client.close()
            return first, second, third

        first, second, third = run(scenario())
        assert third.status == 429
        assert third.json()["error"] == "queue_full"
        assert second.status == 202  # the queued one is eventually admitted
        assert edge.telemetry.queue_full_429 == 1


def test_http_cancel_endpoint_cancels_running_job(store):
    with frontend(store, server_kwargs={"default_tile_size": 8}) as (edge, host, port):

        async def scenario():
            async with RenderClient(host, port) as client:
                submitted = await client.submit(scene="lego", pipeline="dense")
                job_id = submitted.json()["job_id"]
                cancelled = await client.cancel(job_id)
                view = await client.wait(job_id)
                conflict = await client.result(job_id)
                again = await client.cancel(job_id)
            return cancelled, view, conflict, again

        cancelled, view, conflict, again = run(scenario())
        assert cancelled.status == 200 and cancelled.json()["cancelled"] is True
        assert view["state"] == "cancelled"
        assert conflict.status == 409
        assert conflict.json()["error"] == "job_not_done"
        assert again.json()["cancelled"] is False  # already terminal
        assert edge.server.stats().cancelled == 1


# ----------------------------------------------------------------------
# Server-sent events
# ----------------------------------------------------------------------

def test_sse_stream_observes_partial_tiles_before_done(live_edge):
    _, host, port = live_edge

    async def scenario():
        events = []
        async with RenderClient(host, port) as client:
            async for event, payload in client.stream(
                submit={"scene": "lego", "pipeline": "dense"}
            ):
                events.append((event, payload))
        return events

    events = run(scenario())
    names = [event for event, _ in events]
    assert names[0] == "accepted"
    assert names[-1] == "done"
    tile_events = [payload for event, payload in events if event == "tile"]
    assert len(tile_events) == 4  # every partial tile, in completion order
    assert [t["tiles_done"] for t in tile_events] == [1, 2, 3, 4]
    spans = {(t["start"], t["stop"]) for t in tile_events}
    assert len(spans) == 4


def test_sse_attach_to_existing_job_streams_remaining_tiles(store):
    with frontend(store, server_kwargs={"default_tile_size": 8}) as (_, host, port):

        async def scenario():
            async with RenderClient(host, port) as client:
                submitted = await client.submit(scene="lego", pipeline="dense")
                job_id = submitted.json()["job_id"]
                events = []
                async for event, payload in client.stream(job_id=job_id):
                    events.append((event, payload))
                missing = None
                try:
                    async for _ in client.stream(job_id="job-777777"):
                        pass
                except Exception as exc:  # noqa: BLE001 - asserting on the message
                    missing = str(exc)
            return events, missing

        events, missing = run(scenario())
        assert events[-1][0] == "done"
        assert any(event == "tile" for event, _ in events)
        assert missing is not None and "404" in missing


def test_sse_stream_data_payload_carries_tile_pixels(live_edge):
    _, host, port = live_edge

    async def scenario():
        async with RenderClient(host, port) as client:
            async for event, payload in client.stream(
                submit={"scene": "lego", "pipeline": "dense"}, include_data=True
            ):
                if event == "tile":
                    return payload
        return None

    payload = run(scenario())
    assert payload is not None
    pixels = np.frombuffer(
        base64.b64decode(payload["data_b64"]), dtype=np.dtype(payload["dtype"])
    )
    assert pixels.size == (payload["stop"] - payload["start"]) * 3
    assert np.isfinite(pixels).all()


def test_sse_mid_render_failure_emits_terminal_failed_event(store):
    calls = {"n": 0}

    @register_pipeline("brittle", description="fails on the second tile")
    def _build_brittle(scene, config):
        inner = DenseGridField(scene.grid, scene.mlp)

        class BrittleField:
            accepts_encoded_dirs = inner.accepts_encoded_dirs
            num_view_frequencies = inner.num_view_frequencies

            def query(self, *args, **kwargs):
                calls["n"] += 1
                if calls["n"] > 1:
                    raise RuntimeError("voxel grid corrupted mid-render")
                return inner.query(*args, **kwargs)

        return BrittleField()

    try:
        with frontend(store, server_kwargs={"default_tile_size": 144}) as (_, host, port):

            async def scenario():
                events = []
                async with RenderClient(host, port) as client:
                    async for event, payload in client.stream(
                        submit={"scene": "lego", "pipeline": "brittle"}
                    ):
                        events.append((event, payload))
                return events

            events = run(scenario())
    finally:
        unregister_pipeline("brittle")
    names = [event for event, _ in events]
    assert names[0] == "accepted"
    assert names.count("tile") == 1  # the first tile rendered fine
    assert names[-1] == "failed"
    assert "corrupted mid-render" in events[-1][1]["error"]


def test_sse_disconnect_mid_stream_cancels_job(store):
    with frontend(store, server_kwargs={"default_tile_size": 4}) as (edge, host, port):

        async def scenario():
            client = RenderClient(host, port)
            stream = client.stream(submit={"scene": "lego", "pipeline": "dense"})
            job_id = None
            async for event, payload in stream:
                if event == "accepted":
                    job_id = payload["job_id"]
                if event == "tile":
                    break
            await stream.aclose()  # hang up mid-render
            view = await client.wait(job_id, timeout_s=30.0)
            stats = await client.stats()
            await client.close()
            return view, stats

        view, stats = run(scenario())
        assert view["state"] == "cancelled"
        assert stats["edge"]["jobs_cancelled_by_disconnect"] == 1
        assert stats["server"]["cancelled"] == 1


def test_shutdown_with_open_streams_drains_cleanly(store):
    server = RenderServer(store, default_tile_size=8)
    edge = HttpRenderFrontEnd(server)
    host, port = edge.run_in_thread()
    try:

        async def scenario():
            events = []
            async with RenderClient(host, port) as client:
                stream = client.stream(submit={"scene": "lego", "pipeline": "dense"})
                async for event, payload in stream:
                    events.append(event)
                    if event == "tile":
                        # Stop the edge from another thread while streaming.
                        stopper = asyncio.create_task(asyncio.to_thread(edge.shutdown))
                        async for later, _ in stream:
                            events.append(later)
                        await stopper
                        break
            return events

        events = run(scenario())
        assert events[-1] == "shutdown"  # terminal event, then a clean close
        with pytest.raises(OSError):
            run(raw_exchange(host, port, b"GET /v1/stats HTTP/1.1\r\n\r\n"))
    finally:
        edge.shutdown()
        server.close()


# ----------------------------------------------------------------------
# Ownership: one thread touches the store and the cache
# ----------------------------------------------------------------------

def _record_calling_threads(monkeypatch, cls, owner, calls):
    """Wrap every public method (and property) of ``cls`` so a call on
    ``owner`` appends ``(name, threading.get_ident())`` to ``calls``."""

    def wrap(name, fn):
        def recorded(self, *args, **kwargs):
            if self is owner:
                calls.append((name, threading.get_ident()))
            return fn(self, *args, **kwargs)

        return recorded

    for name, attr in vars(cls).items():
        if name.startswith("_") and name not in ("__len__", "__contains__"):
            continue
        if isinstance(attr, property):
            monkeypatch.setattr(cls, name, property(wrap(name, attr.fget)))
        elif inspect.isfunction(attr):
            monkeypatch.setattr(cls, name, wrap(name, attr))


def test_store_and_cache_are_touched_only_by_the_driver_thread(monkeypatch):
    """SceneStore and TileCache take no locks: every call on them, from
    submit, SSE streaming, polling, results, /v1/stats and /v1/metrics,
    must come from the edge's one driver thread."""
    fresh = SceneStore(config=SERVE_CONFIG, scene_kwargs=dict(SCENE_KWARGS))
    server = RenderServer(fresh, cache="lru", default_tile_size=144)
    edge = HttpRenderFrontEnd(server)
    host, port = edge.run_in_thread()
    calls = []
    _record_calling_threads(monkeypatch, SceneStore, fresh, calls)
    _record_calling_threads(monkeypatch, TileCache, server.cache, calls)
    try:

        async def scenario():
            async with RenderClient(host, port) as client:
                async for event, _ in client.stream(
                    submit={"scene": "lego", "pipeline": "dense"}
                ):
                    pass
                assert event == "done"
                submitted = await client.submit(scene="lego", pipeline="dense")
                job_id = submitted.json()["job_id"]
                assert (await client.wait(job_id))["state"] == "done"
                assert (await client.poll(job_id)).status == 200
                assert (await client.result(job_id)).status == 200
                stats = await client.stats()
                metrics = await client.request("GET", "/v1/metrics")
                assert metrics.status == 200
            return stats

        stats = run(scenario())
        driver = edge._driver.submit(threading.get_ident).result()
    finally:
        edge.shutdown()
        server.close()
    assert stats["server"]["cache_hits"] > 0  # the second frame hit the cache
    names = {name for name, _ in calls}
    assert {"get_scene", "bundle_fingerprint", "get", "put", "stats"} <= names
    assert {ident for _, ident in calls} == {driver}
    assert driver != threading.get_ident()


# ----------------------------------------------------------------------
# Acceptance: process backend bit-identity, fairness under flood
# ----------------------------------------------------------------------

def test_http_frame_bit_identical_over_process_backend(store):
    fresh = SceneStore(config=SERVE_CONFIG, scene_kwargs=dict(SCENE_KWARGS))
    server_kwargs = {"default_tile_size": 97}
    server = RenderServer(
        fresh, backend=ProcessPoolBackend(num_workers=2), **server_kwargs
    )
    edge = HttpRenderFrontEnd(server)
    host, port = edge.run_in_thread()
    try:

        async def fetch():
            async with RenderClient(host, port) as client:
                dense, _ = await client.render(scene="lego", pipeline="dense")
                spnerf, _ = await client.render(scene="lego", pipeline="spnerf")
            return dense, spnerf

        dense, spnerf = run(fetch())
    finally:
        edge.shutdown()
        server.close()
    direct = store.get("lego", "dense").engine.render(camera_indices=(0,), chunk_size=97)
    assert np.array_equal(dense, direct.image)
    direct = store.get("lego", "spnerf").engine.render(camera_indices=(0,), chunk_size=97)
    assert np.array_equal(spnerf, direct.image)


def test_fairness_slow_client_p95_bounded_under_greedy_flood(store):
    server_kwargs = {"default_tile_size": 144}
    edge_kwargs = {"max_in_flight_per_client": 1}
    slow_trace = orbit_workload(
        "lego", "dense", num_cameras=1, num_frames=5,
        frame_interval_s=0.25, client="slow",
    )
    with frontend(store, server_kwargs=server_kwargs, **edge_kwargs) as (_, host, port):
        solo = http_open_loop(host, port, slow_trace, fetch_results=False)
    greedy_trace = orbit_workload(
        "lego", "dense", num_cameras=1, num_frames=50,
        frame_interval_s=0.025, client="greedy",
    )
    with frontend(store, server_kwargs=server_kwargs, **edge_kwargs) as (_, host, port):
        mixed = http_open_loop(host, port, slow_trace + greedy_trace, fetch_results=False)

    def p95(records, client):
        latencies = [
            r["latency_s"] for r in records if r["client"] == client and r["latency_s"]
        ]
        assert latencies, f"no completed requests for {client}"
        return float(np.percentile(latencies, 95))

    solo_p95 = p95(solo, "slow")
    mixed_p95 = p95(mixed, "slow")
    assert all(r["state"] == "done" for r in solo)
    assert all(r["state"] == "done" for r in mixed if r["client"] == "slow")
    # The greedy client floods 10x faster, yet per-client fairness keeps the
    # slow client's tail bounded by a constant factor of its solo latency
    # (generous slack absorbs CI-machine timing noise).
    assert mixed_p95 <= 10.0 * solo_p95 + 0.75, (solo_p95, mixed_p95)
