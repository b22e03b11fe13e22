"""Tests for the :mod:`repro.serve` subsystem.

Covers the five serving layers plus the PR's acceptance invariant:

* tiles — partitions cover every pixel exactly once, and a tile-sharded
  frame is *bit-identical* to a whole-frame render chunked at the tile size;
* store — hit/miss/eviction accounting, LRU order, memory-budget eviction,
  and scene teardown when the last resident pipeline goes;
* server — submit/poll/result lifecycle, priority overtaking, per-tile
  round-robin interleaving, deadlines, admission control, failure isolation;
* telemetry — snapshots aggregate job and store counters coherently;
* traffic — deterministic workload generation and both replay harnesses.

All scenes here are deliberately tiny (16^3 grids, 24px frames) so the whole
module runs in seconds; the paper-scale behaviour is exercised by
``benchmarks/perf_serve.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import PipelineConfig, SpNeRFConfig
from repro.serve import (
    JobState,
    Priority,
    RenderServer,
    SceneStore,
    Tile,
    UnknownJobError,
    assemble_tiles,
    closed_loop_workload,
    orbit_workload,
    plan_tiles,
    poisson_workload,
    replay_closed_loop,
    replay_open_loop,
)

#: Small-but-real pipeline configuration shared by every store in this module.
SERVE_CONFIG = PipelineConfig(
    spnerf=SpNeRFConfig(num_subgrids=4, hash_table_size=256, codebook_size=16),
    kmeans_iterations=2,
)
SCENE_KWARGS = {"resolution": 16, "image_size": 24, "num_views": 1, "num_samples": 16}


def make_store(**kwargs) -> SceneStore:
    kwargs.setdefault("config", SERVE_CONFIG)
    kwargs.setdefault("scene_kwargs", dict(SCENE_KWARGS))
    return SceneStore(**kwargs)


@pytest.fixture(scope="module")
def warm_store() -> SceneStore:
    """One unbounded store shared by read-only server tests."""
    return make_store()


class FakeClock:
    """A manually advanced clock for deterministic deadline tests."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# ----------------------------------------------------------------------
# Tiles
# ----------------------------------------------------------------------

def test_plan_tiles_partitions_exactly():
    tiles = plan_tiles(100, 32, camera_index=3)
    assert [t.num_pixels for t in tiles] == [32, 32, 32, 4]
    assert tiles[0].camera_index == 3
    joined = np.concatenate([t.pixel_indices() for t in tiles])
    np.testing.assert_array_equal(joined, np.arange(100))


def test_plan_tiles_rejects_bad_sizes():
    with pytest.raises(ValueError):
        plan_tiles(0, 8)
    with pytest.raises(ValueError):
        plan_tiles(100, 0)


def test_plan_tiles_shares_one_immutable_plan_per_geometry(warm_store):
    plan = plan_tiles(100, 32, camera_index=1)
    assert isinstance(plan, tuple)
    assert plan_tiles(100, 32, camera_index=1) is plan
    assert plan_tiles(100, 32, camera_index=2) is not plan
    # The memo never answers for arguments that fail validation.
    with pytest.raises(TypeError, match="num_pixels"):
        plan_tiles(100.0, 32, camera_index=1)
    server = RenderServer(warm_store, default_tile_size=64)
    first = server.submit("lego", "dense")
    second = server.submit("lego", "dense")
    server.run_until_idle()
    assert server._jobs[first].tiles is server._jobs[second].tiles


def test_assemble_rejects_incomplete_cover():
    tiles = [Tile(0, 0, 8)]
    with pytest.raises(ValueError, match="frame incomplete"):
        assemble_tiles(tiles, [np.zeros((8, 3))], (4, 4))
    with pytest.raises(ValueError, match="expects"):
        assemble_tiles(tiles, [np.zeros((5, 3))], (2, 4))


@pytest.mark.parametrize("pipeline", ["dense", "spnerf"])
def test_tiled_frame_bit_identical_to_chunked_whole_frame(warm_store, pipeline):
    """The acceptance invariant: contiguous tiles of size T recompose to the
    exact bits of a whole-frame render with chunk_size=T (same ray batches)."""
    record = warm_store.get("lego", pipeline)
    tile_size = 77  # odd, non-divisor: exercises the remainder tile
    camera = record.scene.cameras[0]
    tiles = plan_tiles(camera.num_pixels, tile_size)
    tile_images = [
        record.engine.render(camera_indices=(0,), pixel_indices=t.pixel_indices()).image
        for t in tiles
    ]
    assembled = assemble_tiles(tiles, tile_images, (camera.height, camera.width))
    direct = record.engine.render(camera_indices=(0,), chunk_size=tile_size).image
    assert np.array_equal(assembled, direct)


# ----------------------------------------------------------------------
# SceneStore
# ----------------------------------------------------------------------

def test_store_hits_and_misses():
    store = make_store()
    first = store.get("lego", "dense")
    again = store.get("lego", "dense")
    assert again is first
    stats = store.stats()
    assert (stats.hits, stats.misses, stats.evictions) == (1, 1, 0)
    assert stats.resident_entries == 1
    assert stats.resident_bytes == first.memory_bytes > 0
    assert stats.hit_rate == 0.5


def test_store_scene_shared_across_pipelines():
    store = make_store()
    dense = store.get("lego", "dense")
    spnerf = store.get("lego", "spnerf")
    assert dense.scene is spnerf.scene


def test_store_lru_eviction_by_entries():
    store = make_store(max_entries=2)
    store.get("lego", "dense")
    store.get("ficus", "dense")
    store.get("lego", "dense")  # refresh: lego is now most recent
    store.get("chair", "dense")  # evicts ficus, the LRU entry
    assert store.resident_keys() == (("lego", "dense"), ("chair", "dense"))
    assert store.stats().evictions == 1


def test_store_memory_budget_eviction_drops_scene():
    probe = make_store()
    bytes_per_bundle = probe.get("lego", "dense").memory_bytes
    store = make_store(memory_budget_bytes=int(1.5 * bytes_per_bundle))
    store.get("lego", "dense")
    store.get("ficus", "dense")  # over budget: lego evicted, its scene dropped
    assert store.resident_keys() == (("ficus", "dense"),)
    assert not store.contains("lego", "dense")
    rebuilt = store.get("lego", "dense")  # a fresh scene object, rebuilt
    assert rebuilt.scene is not probe.get("lego", "dense").scene
    assert store.stats().evictions >= 1


def test_store_never_evicts_newest_even_over_budget():
    store = make_store(memory_budget_bytes=1)  # nothing fits, but serve anyway
    record = store.get("lego", "dense")
    assert record.memory_bytes > 1
    assert store.resident_keys() == (("lego", "dense"),)


def test_store_failed_build_does_not_pin_scene(small_scene):
    loads = []

    def loader(name):
        loads.append(name)
        return small_scene

    store = SceneStore(config=SERVE_CONFIG, loader=loader)
    with pytest.raises(Exception, match="no-such-pipeline"):
        store.get("lego", "no-such-pipeline")
    store.get("lego", "dense")
    assert loads == ["lego", "lego"]  # the failed build released the scene

    # ... but a scene owned by a resident entry survives a failed build.
    with pytest.raises(Exception, match="no-such-pipeline"):
        store.get("lego", "no-such-pipeline")
    store.get("lego", "spnerf")
    assert loads == ["lego", "lego"]


def test_store_custom_loader_and_validation(small_scene):
    store = SceneStore(config=SERVE_CONFIG, loader=lambda name: small_scene)
    assert store.get("anything", "dense").scene is small_scene
    with pytest.raises(ValueError):
        SceneStore(memory_budget_bytes=0)
    with pytest.raises(ValueError):
        SceneStore(max_entries=0)


# ----------------------------------------------------------------------
# RenderServer
# ----------------------------------------------------------------------

def test_server_lifecycle_and_result(warm_store):
    server = RenderServer(warm_store, default_tile_size=100)
    job = server.submit("lego", "dense", compare_to_reference=True)
    view = server.poll(job)
    assert view.state is JobState.QUEUED and view.progress == 0.0
    with pytest.raises(RuntimeError, match="queued"):
        server.result(job)

    assert server.step()  # first tile: bundle acquired, tiles planned
    view = server.poll(job)
    assert view.state is JobState.RUNNING
    assert (view.tiles_done, view.tiles_total) == (1, 6)  # 576 px / 100

    server.run_until_idle()
    result = server.result(job)
    assert server.poll(job).state is JobState.DONE
    assert result.image.shape == (24, 24, 3)
    assert result.num_tiles == 6
    assert result.psnr == float("inf")  # dense == the reference field
    assert result.latency_s >= result.queue_wait_s >= 0.0
    assert not server.has_pending()


def test_server_frame_bit_identical_to_direct_engine(warm_store):
    server = RenderServer(warm_store)
    job = server.submit("lego", "spnerf", tile_size=77)
    server.run_until_idle()
    served = server.result(job).image
    direct = warm_store.get("lego", "spnerf").engine.render(
        camera_indices=(0,), chunk_size=77
    ).image
    assert np.array_equal(served, direct)


def test_server_interleaves_small_past_large(warm_store):
    """Per-tile round-robin: a 1-tile job overtakes a many-tile job mid-render."""
    server = RenderServer(warm_store)
    big = server.submit("lego", "dense", tile_size=32)  # 18 tiles
    small = server.submit("ficus", "dense", tile_size=1024)  # 1 tile
    steps = 0
    while server.poll(small).state is not JobState.DONE:
        assert server.step()
        steps += 1
    assert steps <= 3  # the small job waited at most one big tile, not 18
    assert server.poll(big).state is JobState.RUNNING
    server.run_until_idle()
    assert server.poll(big).state is JobState.DONE


def test_server_priority_overtakes_fifo(warm_store):
    server = RenderServer(warm_store)
    normal = server.submit("lego", "dense")
    high = server.submit("ficus", "dense", priority=Priority.HIGH)
    server.step()  # must pick the HIGH job despite its later submission
    assert server.poll(high).state in (JobState.RUNNING, JobState.DONE)
    assert server.poll(normal).state is JobState.QUEUED
    server.run_until_idle()
    assert server.poll(normal).state is JobState.DONE


def test_server_deadline_expires_job(warm_store):
    clock = FakeClock()
    server = RenderServer(warm_store, clock=clock)
    urgent = server.submit("lego", "dense", deadline_s=0.5, tile_size=64)
    relaxed = server.submit("lego", "dense", tile_size=64)
    server.step()  # urgent starts rendering
    clock.advance(1.0)  # ... and its deadline passes mid-flight
    server.run_until_idle()
    assert server.poll(urgent).state is JobState.EXPIRED
    assert server.poll(relaxed).state is JobState.DONE
    assert server.stats().expired == 1
    with pytest.raises(RuntimeError, match="expired"):
        server.result(urgent)


def test_server_queue_wait_correct_at_time_zero(warm_store):
    """A job started at clock 0.0 must not report its whole latency as wait."""
    clock = FakeClock()
    server = RenderServer(warm_store, clock=clock)
    job = server.submit("lego", "dense", tile_size=64)  # 9 tiles
    server.step()  # starts at t=0.0 (falsy, but set)
    clock.advance(5.0)
    server.run_until_idle()
    result = server.result(job)
    assert result.queue_wait_s == 0.0
    assert result.latency_s == 5.0


def test_server_admission_rejects_over_max_pending(warm_store):
    server = RenderServer(warm_store, max_pending=1)
    admitted = server.submit("lego", "dense")
    rejected = server.submit("ficus", "dense")
    assert server.poll(rejected).state is JobState.REJECTED
    server.run_until_idle()
    assert server.poll(admitted).state is JobState.DONE
    # Capacity freed: the next submission is admitted again.
    retried = server.submit("ficus", "dense")
    server.run_until_idle()
    assert server.poll(retried).state is JobState.DONE
    assert server.stats().rejected == 1


def test_server_failure_is_isolated(warm_store):
    server = RenderServer(warm_store)
    bad = server.submit("lego", "no-such-pipeline")
    good = server.submit("lego", "dense")
    server.run_until_idle()
    view = server.poll(bad)
    assert view.state is JobState.FAILED
    assert "no-such-pipeline" in view.error
    assert server.poll(good).state is JobState.DONE
    with pytest.raises(RuntimeError, match="no-such-pipeline"):
        server.result(bad)


def test_server_unknown_job_id(warm_store):
    server = RenderServer(warm_store)
    with pytest.raises(KeyError, match="job-99999"):
        server.poll("job-99999")


def test_server_releases_bundle_and_validates_tile_size(warm_store):
    server = RenderServer(warm_store)
    job = server.submit("lego", "dense")
    server.run_until_idle()
    # A finished job must not pin per-tile shards (nor any bundle state —
    # the scheduler never holds bundles at all, only the backend's workers
    # do): the store's eviction would otherwise be defeated for retained
    # jobs.
    assert server._jobs[job].tile_images == {}
    assert server.result(job).memory_bytes > 0  # accounting was copied out
    with pytest.raises(ValueError, match="tile_size"):
        server.submit("lego", "dense", tile_size=0)
    with pytest.raises(ValueError, match="default_tile_size"):
        RenderServer(warm_store, default_tile_size=0)


def test_server_retention_forgets_oldest_finished(warm_store):
    """Long-running servers must not pin every frame ever rendered."""
    server = RenderServer(warm_store, max_finished_jobs=2)
    jobs = [server.submit("lego", "dense") for _ in range(3)]
    server.run_until_idle()
    with pytest.raises(KeyError, match="retention"):
        server.poll(jobs[0])  # oldest finished job was retired
    assert all(server.poll(j).state is JobState.DONE for j in jobs[1:])
    assert server.stats().completed == 3  # telemetry outlives retention
    with pytest.raises(ValueError):
        RenderServer(warm_store, max_finished_jobs=0)


def test_server_stats_snapshot_coherent(warm_store):
    server = RenderServer(warm_store)
    for _ in range(2):
        server.submit("lego", "spnerf", tile_size=200)
    server.run_until_idle()
    stats = server.stats()
    assert stats.submitted == stats.completed == 2
    assert stats.queue_depth == 0
    assert stats.tiles_rendered == 2 * 3  # 576 px / 200 -> 3 tiles each
    assert stats.num_rays == 2 * 576
    assert stats.throughput_rays_per_s > 0
    assert stats.latency_p95_s >= stats.latency_p50_s > 0
    assert stats.vertex_reuse_ratio > 1.0  # spnerf dedups vertex fetches
    assert stats.resident_bundles == len(warm_store.resident_keys())
    assert set(stats.as_dict()) == set(stats.__dataclass_fields__)


# ----------------------------------------------------------------------
# Traffic
# ----------------------------------------------------------------------

def test_poisson_workload_deterministic_and_shaped():
    items = poisson_workload(
        ["lego", "ficus"], ["dense", "spnerf"], rate_hz=50.0, duration_s=2.0,
        seed=7, high_priority_fraction=0.5,
    )
    assert items == poisson_workload(
        ["lego", "ficus"], ["dense", "spnerf"], rate_hz=50.0, duration_s=2.0,
        seed=7, high_priority_fraction=0.5,
    )
    assert 50 <= len(items) <= 150  # ~100 expected arrivals
    arrivals = [item.arrival_s for item in items]
    assert arrivals == sorted(arrivals) and all(0 < a < 2.0 for a in arrivals)
    priorities = {item.priority for item in items}
    assert priorities == {Priority.HIGH, Priority.NORMAL}


def test_closed_loop_workload_covers_mix():
    items = closed_loop_workload(["lego", "ficus"], ["dense", "spnerf"], 6, seed=3)
    assert len(items) == 6
    pairs = {(item.scene, item.pipeline) for item in items[:4]}
    assert len(pairs) == 4  # one full shuffled cycle covers the cross product


def test_replay_closed_loop_completes_everything(warm_store):
    server = RenderServer(warm_store)
    items = closed_loop_workload(["lego", "ficus"], ["dense"], 4, seed=0)
    job_ids = replay_closed_loop(server, items, concurrency=2)
    assert len(job_ids) == 4
    assert all(server.poll(job_id).state is JobState.DONE for job_id in job_ids)


def test_replay_open_loop_completes_everything(warm_store):
    server = RenderServer(warm_store)
    items = poisson_workload(["lego"], ["dense"], rate_hz=200.0, duration_s=0.05, seed=1)
    job_ids = replay_open_loop(server, items)
    assert len(job_ids) == len(items) > 0
    assert all(server.poll(job_id).state is JobState.DONE for job_id in job_ids)


def test_orbit_workload_wraps_cameras_at_fixed_cadence():
    items = orbit_workload(
        "lego", "dense", num_cameras=3, num_frames=7, frame_interval_s=0.5,
        client="viewer", start_s=1.0,
    )
    assert [item.camera_index for item in items] == [0, 1, 2, 0, 1, 2, 0]
    assert [item.arrival_s for item in items] == [1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0]
    assert all(item.client == "viewer" for item in items)
    assert items == orbit_workload(  # no randomness at all
        "lego", "dense", num_cameras=3, num_frames=7, frame_interval_s=0.5,
        client="viewer", start_s=1.0,
    )
    with pytest.raises(ValueError, match="num_cameras"):
        orbit_workload("lego", "dense", num_cameras=0, num_frames=1, frame_interval_s=0.1)


# ----------------------------------------------------------------------
# Cancellation
# ----------------------------------------------------------------------

def test_server_cancel_mid_render_stops_the_job(warm_store):
    server = RenderServer(warm_store, default_tile_size=97)
    job = server.submit("lego", "dense")
    server.step()  # first tile rendered, job mid-flight
    assert server.poll(job).state is JobState.RUNNING
    assert server.cancel(job) is True
    view = server.poll(job)
    assert view.state is JobState.CANCELLED
    with pytest.raises(RuntimeError, match="cancelled"):
        server.result(job)
    assert server.cancel(job) is False  # already terminal: no double counting
    assert server.stats().cancelled == 1
    assert not server.has_pending()  # the remaining tiles were dropped


def test_server_cancel_queued_job_before_any_tile(warm_store):
    server = RenderServer(warm_store)
    first = server.submit("lego", "dense")
    second = server.submit("lego", "dense")
    assert server.cancel(second) is True
    server.run_until_idle()
    assert server.poll(first).state is JobState.DONE
    assert server.poll(second).state is JobState.CANCELLED
    assert server.stats().completed == 1


def test_server_unknown_job_raises_typed_error(warm_store):
    server = RenderServer(warm_store)
    with pytest.raises(UnknownJobError):
        server.poll("job-31337")
    # Backward compatible: the typed error is still a KeyError.
    assert issubclass(UnknownJobError, KeyError)
    with pytest.raises(KeyError):
        server.cancel("job-31337")
