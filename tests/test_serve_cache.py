"""Tests for the content-addressed tile cache and temporal-coherence workloads.

The tile-caching contract (ISSUE 9 / ROADMAP "Tile caching + temporal
coherence"): renders are deterministic and bit-identical, so a tile keyed by
everything that determines its bytes — bundle identity, camera pose and
intrinsics, tile span, render knobs — can be replayed forever, *exactly*.
This suite proves:

* **TileCache** — LRU byte-budget accounting: hit/miss/insertion/eviction
  counters, recency-ordered eviction, oversize rejection, read-only served
  arrays, and ``make_cache`` refusing contradictory knobs loudly;
* **packed storage** — a tile round-trips through the change bitmap with its
  exact bytes (NaN payloads, signed zeros, infinities, subnormals), and the
  budget counts the packed bytes held;
* **fingerprints** — tile keys react to every render input (bundle, pose,
  intrinsics, span, knobs) and to nothing else; differently configured
  stores never share bundle fingerprints;
* **scheduler integration** — cache hits skip the backend and stay
  bit-identical to direct renders under serial, thread *and* process
  backends; identical in-flight tiles across concurrent jobs collapse into
  one dispatch; the cache knobs validate like the backend knobs;
* **telemetry + tracing** — hit/dedupe counters flow through
  ``ServerStats``, cache hits appear as ``render-tile`` spans of cache
  origin, and deduped jobs carry Chrome-export flow links to the origin;
* **workloads** — the dolly / interpolated-walkthrough generators are
  deterministic in their seeds, never jump more than one rig step between
  consecutive frames (bounded pose delta), and an orbit replayed on a warm
  cache actually hits.

Scenes are the same tiny 16^3/24px ones as the other serve test modules.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import PipelineConfig, SpNeRFConfig, render_tile
from repro.serve import (
    DEFAULT_CACHE_BUDGET_BYTES,
    JobState,
    RenderServer,
    SceneStore,
    TileCache,
    dolly_workload,
    interpolated_walkthrough_workload,
    make_cache,
    orbit_workload,
    popular_scene_workload,
    replay_closed_loop,
    tile_fingerprint,
)

SERVE_CONFIG = PipelineConfig(
    spnerf=SpNeRFConfig(num_subgrids=4, hash_table_size=256, codebook_size=16),
    kmeans_iterations=2,
)
SCENE_KWARGS = {"resolution": 16, "image_size": 24, "num_views": 1, "num_samples": 16}

#: 576px frames at this tile size shard into 8 tiles — enough structure for
#: dedupe and partial-tile caching to be exercised.
TILE = 77


def make_store(**kwargs) -> SceneStore:
    kwargs.setdefault("config", SERVE_CONFIG)
    kwargs.setdefault("scene_kwargs", dict(SCENE_KWARGS))
    return SceneStore(**kwargs)


class FakeClock:
    """A manually advanced clock for deterministic metadata stamps."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def tile_image(value: float, pixels: int = 4) -> np.ndarray:
    return np.full((pixels, 3), value, dtype=np.float64)


def distinct_tile(value: float, pixels: int = 4) -> np.ndarray:
    """A tile whose every row differs from the previous one: nothing packs."""
    return value + np.arange(pixels * 3, dtype=np.float64).reshape(pixels, 3)


def packed_bytes(pixels: int = 4) -> int:
    """Bytes a :func:`distinct_tile` holds: every row plus the bitmap."""
    return pixels * 3 * 8 + (pixels + 7) // 8


# ----------------------------------------------------------------------
# TileCache unit behaviour
# ----------------------------------------------------------------------

def test_cache_counts_hits_misses_and_insertions():
    cache = TileCache(budget_bytes=None, clock=FakeClock())
    assert cache.get("a") is None
    assert cache.put("a", distinct_tile(1.0))
    np.testing.assert_array_equal(cache.get("a"), distinct_tile(1.0))
    stats = cache.stats()
    assert (stats.hits, stats.misses, stats.insertions) == (1, 1, 1)
    assert stats.hit_rate == 0.5
    assert stats.entries == 1
    assert stats.resident_bytes == packed_bytes()
    assert "a" in cache and "b" not in cache
    assert len(cache) == 1


def test_cache_evicts_lru_under_byte_budget():
    one_tile = packed_bytes()
    cache = TileCache(budget_bytes=3 * one_tile, clock=FakeClock())
    for index, key in enumerate("abc"):
        cache.put(key, distinct_tile(float(index)))
    # Touch the cold end so recency, not insertion order, decides eviction.
    assert cache.get("a") is not None
    cache.put("d", distinct_tile(3.0))
    assert "b" not in cache  # the true LRU went, not the refreshed "a"
    assert all(key in cache for key in "acd")
    stats = cache.stats()
    assert stats.evictions == 1
    assert stats.resident_bytes == 3 * one_tile


def test_cache_rejects_entries_larger_than_budget():
    cache = TileCache(budget_bytes=packed_bytes(), clock=FakeClock())
    assert not cache.put("huge", distinct_tile(1.0, pixels=64))
    assert len(cache) == 0
    assert cache.stats().rejected_oversize == 1
    # A budget-sized entry is still admitted.
    assert cache.put("fits", distinct_tile(1.0))


def test_cache_serves_read_only_isolated_copies():
    cache = TileCache(budget_bytes=None)
    source = tile_image(1.0)
    cache.put("a", source)
    source[:] = 99.0  # producer scribbles after insert: cache is unaffected
    served = cache.get("a")
    np.testing.assert_array_equal(served, tile_image(1.0))
    assert not served.flags.writeable
    with pytest.raises(ValueError):
        served[0, 0] = 2.0


def test_cache_reinsert_refreshes_instead_of_duplicating():
    one_tile = packed_bytes()
    cache = TileCache(budget_bytes=2 * one_tile, clock=FakeClock())
    cache.put("a", distinct_tile(1.0))
    cache.put("b", distinct_tile(2.0))
    cache.put("a", distinct_tile(1.0))  # refresh, not duplicate
    assert cache.stats().insertions == 2
    cache.put("c", distinct_tile(3.0))
    assert "b" not in cache and "a" in cache  # "a" was refreshed to the hot end


def test_cache_clear_counts_evictions():
    cache = TileCache(budget_bytes=None)
    cache.put("a", tile_image(1.0))
    cache.put("b", tile_image(2.0))
    cache.clear()
    assert len(cache) == 0
    assert cache.stats().evictions == 2
    assert cache.stats().resident_bytes == 0


#: Bit patterns the packed format must round-trip exactly, per dtype: a small
#: palette, NaNs with several payloads and signs, both zeros, both
#: infinities and subnormals.
_PALETTE_VALUES = [0.0, -0.0, 0.25, 1.0, -3.5, np.inf, -np.inf]
_BIT_PALETTES = {
    "float64": np.concatenate([
        np.array(_PALETTE_VALUES + [5e-324, -5e-324, 2.2e-310]).view(np.uint64),
        np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000000001,
                  0x7FF0000000000001, 0xFFFFFFFFFFFFFFFF], dtype=np.uint64),
    ]),
    "float32": np.concatenate([
        np.array(_PALETTE_VALUES + [1e-45, -1e-45, 1e-39], dtype=np.float32).view(np.uint32),
        np.array([0x7FC00000, 0xFFC00000, 0x7FC00001, 0x7F800001, 0xFFFFFFFF],
                 dtype=np.uint32),
    ]),
}


def _runs_tile(num_rows: int, mode: str, seed: int, dtype: str) -> np.ndarray:
    rng = np.random.default_rng(seed)
    palette = _BIT_PALETTES[dtype]
    if mode == "one-run":
        rows = np.broadcast_to(rng.choice(palette, 3), (num_rows, 3))
    elif mode == "no-runs":
        # Column 0 alternates between two distinct patterns: every row differs.
        first, second = rng.choice(palette, 2, replace=False)
        rows = rng.choice(palette, (num_rows, 3))
        rows[:, 0] = np.where(np.arange(num_rows) % 2, first, second)
    else:
        row_palette = rng.choice(palette, (int(rng.integers(1, 6)), 3))
        picks = np.repeat(rng.integers(len(row_palette), size=num_rows),
                          rng.integers(1, 40, size=num_rows))[:num_rows]
        rows = row_palette[picks]
    return np.ascontiguousarray(rows).view(dtype)


@settings(max_examples=80, deadline=None)
@given(
    num_rows=st.integers(1, 600),
    mode=st.sampled_from(["one-run", "no-runs", "mixed"]),
    seed=st.integers(0, 2**32 - 1),
    dtype=st.sampled_from(["float64", "float32"]),
)
def test_packed_tiles_round_trip_exact_bytes(num_rows, mode, seed, dtype):
    image = _runs_tile(num_rows, mode, seed, dtype)
    cache = TileCache(budget_bytes=None)
    cache.put("k", image)
    served = cache.get("k")
    assert served.shape == image.shape and served.dtype == image.dtype
    assert served.tobytes() == image.tobytes()
    assert not served.flags.writeable
    raw = [row.tobytes() for row in image]
    held = sum(1 for i, row in enumerate(raw) if i == 0 or row != raw[i - 1])
    if mode == "one-run":
        assert held == 1
    if mode == "no-runs":
        assert held == num_rows
    stats = cache.stats()
    assert stats.resident_bytes == held * image[0].nbytes + (num_rows + 7) // 8
    assert stats.logical_bytes == image.nbytes


def test_rendered_tile_is_held_in_at_most_half_its_raw_bytes():
    store = make_store()
    record = store.get("lego", "spnerf")
    assert record.scene.cameras[0].num_pixels == 576
    image = render_tile(record.engine, 0, 0, 576).image
    cache = TileCache(budget_bytes=None)
    cache.put("lego", image)
    stats = cache.stats()
    assert stats.logical_bytes == image.nbytes == 576 * 3 * 8
    assert stats.resident_bytes <= image.nbytes // 2
    assert cache.get("lego").tobytes() == image.tobytes()


def test_cache_validates_budget():
    with pytest.raises(ValueError, match="budget_bytes"):
        TileCache(budget_bytes=0)


def test_make_cache_resolves_and_refuses_contradictions():
    assert make_cache("off") is None
    assert make_cache(None) is None
    lru = make_cache("lru")
    assert isinstance(lru, TileCache)
    assert lru.budget_bytes == DEFAULT_CACHE_BUDGET_BYTES
    assert make_cache("lru", budget_bytes=1234).budget_bytes == 1234
    ready = TileCache(budget_bytes=99)
    assert make_cache(ready) is ready
    with pytest.raises(ValueError, match="already owns its budget"):
        make_cache(ready, budget_bytes=50)
    with pytest.raises(ValueError, match="cache='lru'"):
        make_cache("off", budget_bytes=50)
    with pytest.raises(ValueError, match="unknown cache mode"):
        make_cache("bogus")


# ----------------------------------------------------------------------
# Fingerprints
# ----------------------------------------------------------------------

def test_tile_fingerprint_reacts_to_every_render_input():
    store = make_store()
    bundle = store.bundle_fingerprint("lego", "dense")
    cameras = store.get("lego", "dense").scene.cameras
    base = tile_fingerprint(bundle, cameras[0], 0, 77)
    assert tile_fingerprint(bundle, cameras[0], 0, 77) == base  # pure
    assert tile_fingerprint(bundle, cameras[0], 77, 154) != base  # span
    assert tile_fingerprint(bundle, cameras[0], 0, 78) != base  # tile size
    assert tile_fingerprint(bundle, cameras[0], 0, 77, 0.5) != base  # knobs
    other_bundle = store.bundle_fingerprint("lego", "spnerf")
    assert tile_fingerprint(other_bundle, cameras[0], 0, 77) != base  # pipeline


def test_bundle_fingerprint_distinguishes_store_configuration():
    store = make_store()
    assert store.bundle_fingerprint("lego", "dense") == store.bundle_fingerprint(
        "lego", "dense"
    )  # memoized and stable
    assert store.bundle_fingerprint("lego", "dense") != store.bundle_fingerprint(
        "ficus", "dense"
    )
    bigger = make_store(
        scene_kwargs={**SCENE_KWARGS, "num_samples": 32}
    )
    assert bigger.bundle_fingerprint("lego", "dense") != store.bundle_fingerprint(
        "lego", "dense"
    )


# ----------------------------------------------------------------------
# Scheduler integration: hits, dedupe, knobs
# ----------------------------------------------------------------------

@pytest.mark.parametrize("backend", ["serial", "thread", "process"])
def test_cache_hits_are_bit_identical_under_every_backend(backend):
    """A frame served from the cache must be the exact bytes the backend
    would have produced — under every backend, including process workers."""
    store = make_store()
    direct = store.get("lego", "dense").engine.render(
        camera_indices=(0,), chunk_size=TILE
    ).image
    with RenderServer(
        store, backend=backend, default_tile_size=TILE, cache="lru"
    ) as server:
        first = server.submit("lego", "dense")
        server.run_until_idle()
        cold = server.cache.stats()
        assert cold.insertions > 0 and cold.hits == 0
        second = server.submit("lego", "dense")
        server.run_until_idle()
        warm = server.cache.stats()
        assert warm.hits == cold.insertions  # every tile of the rerun hit
        assert np.array_equal(server.result(first).image, direct)
        assert np.array_equal(server.result(second).image, direct)
        stats = server.stats()
        assert stats.cache_enabled
        assert stats.cache_hits == warm.hits
        assert 0.0 < stats.cache_hit_rate < 1.0
        assert stats.cache_bytes == warm.resident_bytes > 0


def test_cache_disabled_by_default():
    store = make_store()
    with RenderServer(store, default_tile_size=TILE) as server:
        job = server.submit("lego", "dense")
        server.run_until_idle()
        assert server.cache is None
        assert server.poll(job).state is JobState.DONE
        stats = server.stats()
        assert not stats.cache_enabled
        assert stats.cache_hits == 0 and stats.cache_bytes == 0


def test_server_cache_knobs_validate_like_backend_knobs():
    store = make_store()
    with pytest.raises(ValueError, match="cache='lru'"):
        RenderServer(store, cache_budget_bytes=1_000)
    with pytest.raises(ValueError, match="unknown cache mode"):
        RenderServer(store, cache="bogus")
    ready = TileCache(budget_bytes=1_000)
    with pytest.raises(ValueError, match="already owns its budget"):
        RenderServer(store, cache=ready, cache_budget_bytes=2_000)
    with RenderServer(store, cache=ready) as server:
        assert server.cache is ready


def test_identical_inflight_tiles_dedupe_across_jobs():
    """Two concurrent jobs for the same frame: one renders, the other
    attaches to the in-flight tiles — no second dispatch, same bits."""
    store = make_store()
    direct = store.get("lego", "dense").engine.render(
        camera_indices=(0,), chunk_size=TILE
    ).image
    with RenderServer(
        store, backend="thread", default_tile_size=TILE, cache="lru"
    ) as server:
        jobs = [server.submit("lego", "dense") for _ in range(2)]
        server.run_until_idle()
        stats = server.stats()
        assert stats.deduped_tiles > 0
        for job in jobs:
            assert server.poll(job).state is JobState.DONE
            assert np.array_equal(server.result(job).image, direct)
        # Dedupe means one render: busy time was paid once per tile.
        cache = server.cache.stats()
        assert cache.insertions + stats.deduped_tiles + cache.hits == 16


def test_warm_orbit_replay_hits_the_cache():
    """Satellite (d): replaying an orbit against a warm cache actually hits —
    the second revolution re-requests the first revolution's exact poses."""
    store = make_store(scene_kwargs={**SCENE_KWARGS, "num_views": 3})
    items = orbit_workload(
        "lego", "dense", num_cameras=3, num_frames=9, frame_interval_s=0.0
    )
    with RenderServer(
        store, default_tile_size=TILE, cache="lru"
    ) as server:
        job_ids = replay_closed_loop(server, items, concurrency=2)
        assert all(server.poll(j).state is JobState.DONE for j in job_ids)
        stats = server.stats()
        assert stats.cache_hit_rate > 0.0
        cache = server.cache.stats()
        # Revolutions 2 and 3 are all hits; only revolution 1 rendered.
        assert cache.hits == 2 * cache.insertions > 0
        # A revisited pose serves the first revolution's exact bytes.
        assert np.array_equal(
            server.result(job_ids[0]).image, server.result(job_ids[3]).image
        )


def test_threshold_spellings_of_one_render_share_cache_keys():
    """None, 0 and 0.0 on a scene configured with 0.0 are one render: the
    first job misses every tile and the other two hit every tile."""
    store = make_store()
    assert store.get_scene("lego").render_config.transmittance_threshold == 0.0
    with RenderServer(store, default_tile_size=TILE, cache="lru") as server:
        jobs = []
        for threshold in (None, 0, 0.0):
            jobs.append(server.submit("lego", "dense", transmittance_threshold=threshold))
            server.run_until_idle()
        cache = server.cache.stats()
        assert (cache.misses, cache.hits, cache.insertions) == (8, 16, 8)
        first = server.result(jobs[0]).image
        assert all(np.array_equal(server.result(job).image, first) for job in jobs)
        # A threshold that changes the render still gets keys of its own.
        server.submit("lego", "dense", transmittance_threshold=0.5)
        server.run_until_idle()
        assert server.cache.stats().misses == 16


def test_finished_jobs_drop_their_cache_keys():
    """Keys live from planning to the terminal transition, whichever it is."""
    store = make_store()
    clock = FakeClock()
    with RenderServer(store, default_tile_size=TILE, cache="lru", clock=clock) as server:
        cancelled = server.submit("lego", "dense")
        server.step()
        assert len(server._jobs[cancelled].tile_keys) == 8
        assert server.cancel(cancelled)
        expired = server.submit("ficus", "dense", deadline_s=0.5)
        server.step()
        assert len(server._jobs[expired].tile_keys) == 8
        clock.advance(1.0)
        done = server.submit("lego", "dense")
        failed = server.submit("lego", "no-such-pipeline")
        server.run_until_idle()
        for job, state in ((done, JobState.DONE), (failed, JobState.FAILED),
                           (cancelled, JobState.CANCELLED), (expired, JobState.EXPIRED)):
            assert server.poll(job).state is state
            assert server._jobs[job].tile_keys is None


def test_cache_eviction_under_tiny_budget_keeps_serving():
    """A budget too small for one frame degrades to misses, never to errors."""
    store = make_store()
    with RenderServer(
        store, default_tile_size=TILE, cache="lru", cache_budget_bytes=2_000
    ) as server:
        jobs = [server.submit("lego", "dense") for _ in range(2)]
        server.run_until_idle()
        assert all(server.poll(j).state is JobState.DONE for j in jobs)
        cache = server.cache.stats()
        assert cache.evictions > 0
        assert cache.resident_bytes <= 2_000


# ----------------------------------------------------------------------
# Tracing: cache-hit spans, dedupe flow links
# ----------------------------------------------------------------------

def test_cache_hit_traces_record_origin_and_events():
    store = make_store()
    with RenderServer(
        store, default_tile_size=TILE, cache="lru"
    ) as server:
        server.submit("lego", "dense")
        server.run_until_idle()
        warm_job = server.submit("lego", "dense")
        server.run_until_idle()
        trace = server.tracer.get(warm_job)
        hit_spans = [
            s for s in trace.spans
            if s.name == "render-tile" and s.attrs.get("origin") == "cache"
        ]
        assert len(hit_spans) == 8  # every tile of the warm frame
        assert sum(1 for e in trace.events if e.name == "cache-hit") == 8
        # Cache hits are scheduler work, not render work.
        breakdown = server.stats().stage_breakdown
        assert breakdown["cache_hit"]["count"] == 8


def test_deduped_jobs_carry_flow_links_in_chrome_export():
    store = make_store()
    with RenderServer(
        store, backend="thread", default_tile_size=TILE, cache="lru"
    ) as server:
        jobs = [server.submit("lego", "dense") for _ in range(2)]
        server.run_until_idle()
        deduped = server.stats().deduped_tiles
        assert deduped > 0
        traces = {job: server.tracer.get(job) for job in jobs}
    attach_events = [
        e for t in traces.values() for e in t.events if e.name == "dedup-attach"
    ]
    assert len(attach_events) == deduped
    export = server.tracer.export_chrome()
    flows = [e for e in export["traceEvents"] if e.get("cat") == "flow"]
    starts = [e for e in flows if e["ph"] == "s"]
    finishes = [e for e in flows if e["ph"] == "f"]
    assert len(finishes) == deduped
    assert {e["id"] for e in finishes} <= {e["id"] for e in starts}
    assert all(e["bp"] == "e" for e in finishes)


# ----------------------------------------------------------------------
# Temporal-coherence workload generators
# ----------------------------------------------------------------------

def test_dolly_workload_ping_pongs_one_step_at_a_time():
    items = dolly_workload(
        "lego", "dense", num_cameras=4, num_frames=10, frame_interval_s=0.5
    )
    assert [i.camera_index for i in items] == [0, 1, 2, 3, 2, 1, 0, 1, 2, 3]
    assert [i.arrival_s for i in items] == [0.5 * f for f in range(10)]
    # Deterministic: no randomness at all.
    assert items == dolly_workload(
        "lego", "dense", num_cameras=4, num_frames=10, frame_interval_s=0.5
    )
    narrow = dolly_workload(
        "lego", "dense", num_cameras=6, num_frames=6, frame_interval_s=0.0, sweep=2
    )
    assert [i.camera_index for i in narrow] == [0, 1, 2, 1, 0, 1]
    with pytest.raises(ValueError, match="sweep"):
        dolly_workload("lego", "dense", num_cameras=4, num_frames=4,
                       frame_interval_s=0.0, sweep=9)
    with pytest.raises(ValueError, match="num_frames"):
        dolly_workload("lego", "dense", num_cameras=4, num_frames=0,
                       frame_interval_s=0.0)


def test_walkthrough_is_seed_deterministic_and_continuous():
    kwargs = dict(num_cameras=8, num_waypoints=5, frame_interval_s=0.1)
    first = interpolated_walkthrough_workload("lego", "dense", seed=7, **kwargs)
    again = interpolated_walkthrough_workload("lego", "dense", seed=7, **kwargs)
    assert first == again
    other = interpolated_walkthrough_workload("lego", "dense", seed=8, **kwargs)
    assert [i.camera_index for i in first] != [i.camera_index for i in other]
    # Consecutive frames never jump more than one rig step (ring distance).
    for trace in (first, other):
        for prev, item in zip(trace, trace[1:]):
            ahead = (item.camera_index - prev.camera_index) % 8
            behind = (prev.camera_index - item.camera_index) % 8
            assert min(ahead, behind) <= 1


def test_walkthrough_explicit_waypoints_take_shorter_arc():
    items = interpolated_walkthrough_workload(
        "lego", "dense", num_cameras=8, waypoints=[6, 1, 3]
    )
    # 6 -> 1 wraps through 7/0 (3 steps) instead of 5 steps backward.
    assert [i.camera_index for i in items] == [6, 7, 0, 1, 2, 3]
    with pytest.raises(ValueError, match="out of range"):
        interpolated_walkthrough_workload(
            "lego", "dense", num_cameras=4, waypoints=[0, 9]
        )
    with pytest.raises(ValueError, match="at least 2"):
        interpolated_walkthrough_workload(
            "lego", "dense", num_cameras=4, waypoints=[1]
        )


def test_walkthrough_pose_delta_is_bounded_on_the_real_rig():
    """The continuity promise in pose space: consecutive frames move the
    camera no farther than one rig step does anywhere on the ring."""
    store = make_store(scene_kwargs={**SCENE_KWARGS, "num_views": 8})
    cameras = store.get("lego", "dense").scene.cameras
    positions = [np.asarray(c.camera_to_world)[:3, 3] for c in cameras]
    rig_step = max(
        float(np.linalg.norm(positions[(i + 1) % 8] - positions[i]))
        for i in range(8)
    )
    items = interpolated_walkthrough_workload(
        "lego", "dense", num_cameras=8, num_waypoints=6, seed=3
    )
    for prev, item in zip(items, items[1:]):
        delta = float(np.linalg.norm(
            positions[item.camera_index] - positions[prev.camera_index]
        ))
        assert delta <= rig_step + 1e-9


def test_popular_scene_workload_concentrates_in_phase():
    items = popular_scene_workload(
        ["lego", "ficus"], "dense", num_clients=4, num_cameras=3,
        num_frames=6, frame_interval_s=0.25, popular_fraction=0.5, seed=1,
    )
    assert len(items) == 24
    assert items == sorted(items, key=lambda i: (i.arrival_s, i.client))
    by_client = {}
    for item in items:
        by_client.setdefault(item.client, []).append(item)
    assert set(by_client) == {f"client-{i:03d}" for i in range(4)}
    popular = [c for c, group in by_client.items()
               if all(i.scene == "lego" for i in group)]
    assert len(popular) >= 2
    # Popular clients orbit in phase: same camera at the same arrival time —
    # the concurrent-identical-tile shape the dedupe machinery exists for.
    first, second = (by_client[c] for c in sorted(popular)[:2])
    assert [(i.arrival_s, i.camera_index) for i in first] == [
        (i.arrival_s, i.camera_index) for i in second
    ]
    background = [c for c in by_client if c not in popular]
    assert all(
        item.scene == "ficus" for c in background for item in by_client[c]
    )
    # Deterministic in seed.
    assert items == popular_scene_workload(
        ["lego", "ficus"], "dense", num_clients=4, num_cameras=3,
        num_frames=6, frame_interval_s=0.25, popular_fraction=0.5, seed=1,
    )
