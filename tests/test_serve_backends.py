"""Tests for the execution-backend layer of :mod:`repro.serve`.

Covers what the backend refactor added on top of the scheduler tests in
``test_serve.py``:

* backends — the Serial/ProcessPool contract: lifecycle,
  capacity, sticky ``(scene, pipeline)`` affinity, task picklability;
* cross-backend bit-identity — the acceptance invariant: the same frame,
  served under every backend, is byte-equal for every built-in pipeline;
* out-of-order completion — tiles applied in arbitrary order still
  reassemble the exact frame, and the reordering is counted;
* streaming — ``poll(include_tiles=True)`` exposes completed tiles of a
  running job incrementally;
* cost-aware admission — `max_pending_cost` budgets priced by the hardware
  layer's workload model, with reject and demote policies;
* store sharding — picklable :class:`SceneStoreSpec` recipes and per-shard
  memory budgets;
* telemetry — backend name, worker count, per-worker utilization and
  out-of-order counters surface in :class:`ServerStats`.

Scenes are deliberately tiny (16^3 grids, 24px frames); the process-pool
tests fork workers that rebuild them in well under a second.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.api import PipelineConfig, SpNeRFConfig, available_pipelines
from repro.serve import (
    JobState,
    Priority,
    ProcessPoolBackend,
    RenderServer,
    SceneStore,
    SceneStoreSpec,
    SerialBackend,
    TileResult,
    TileTask,
    make_backend,
    plan_tiles,
)
from repro.serve.backends import ExecutionBackend, _execute_tile

#: Small-but-real pipeline configuration shared by every store in this module.
SERVE_CONFIG = PipelineConfig(
    spnerf=SpNeRFConfig(num_subgrids=4, hash_table_size=256, codebook_size=16),
    kmeans_iterations=2,
)
SCENE_KWARGS = {"resolution": 16, "image_size": 24, "num_views": 1, "num_samples": 16}

#: An odd, non-divisor tile size: exercises the remainder tile everywhere.
TILE = 77


def make_store(**kwargs) -> SceneStore:
    kwargs.setdefault("config", SERVE_CONFIG)
    kwargs.setdefault("scene_kwargs", dict(SCENE_KWARGS))
    return SceneStore(**kwargs)


@pytest.fixture(scope="module")
def warm_store() -> SceneStore:
    """One unbounded store shared by read-only scheduler-side tests."""
    return make_store()


@pytest.fixture(scope="module")
def direct_frames(warm_store):
    """Per-pipeline direct engine renders of lego's first view at TILE chunks."""
    return {
        pipeline: warm_store.get("lego", pipeline)
        .engine.render(camera_indices=(0,), chunk_size=TILE)
        .image
        for pipeline in available_pipelines()
    }


# ----------------------------------------------------------------------
# plan_tiles hardening
# ----------------------------------------------------------------------

def test_plan_tiles_single_tile_when_tile_size_covers_frame():
    for tile_size in (100, 101, 10_000):
        tiles = plan_tiles(100, tile_size, camera_index=2)
        assert len(tiles) == 1
        assert (tiles[0].start, tiles[0].stop, tiles[0].camera_index) == (0, 100, 2)


def test_plan_tiles_non_divisible_remainder_is_last_tile():
    tiles = plan_tiles(100, 33)
    assert [t.num_pixels for t in tiles] == [33, 33, 33, 1]
    assert tiles[-1].stop == 100


def test_plan_tiles_exact_division_has_no_remainder_tile():
    tiles = plan_tiles(96, 32)
    assert [t.num_pixels for t in tiles] == [32, 32, 32]


def test_plan_tiles_zero_pixel_frames_error_is_explicit():
    with pytest.raises(ValueError, match="zero-pixel"):
        plan_tiles(0, 8)
    with pytest.raises(ValueError, match="zero-pixel"):
        plan_tiles(-5, 8)


def test_plan_tiles_rejects_non_integer_inputs():
    with pytest.raises(TypeError, match="num_pixels"):
        plan_tiles(100.0, 8)
    with pytest.raises(TypeError, match="tile_size"):
        plan_tiles(100, 8.5)
    with pytest.raises(TypeError, match="tile_size"):
        plan_tiles(100, True)
    # numpy integers are integers, not errors:
    assert len(plan_tiles(np.int64(100), np.int32(50))) == 2


# ----------------------------------------------------------------------
# Backend contract
# ----------------------------------------------------------------------

def test_make_backend_names_and_validation():
    assert isinstance(make_backend("serial"), SerialBackend)
    assert isinstance(make_backend("process", num_workers=2), ProcessPoolBackend)
    with pytest.raises(ValueError, match="unknown backend"):
        make_backend("gpu-cluster")
    with pytest.raises(ValueError, match="unknown backend"):
        make_backend("thread")
    with pytest.raises(ValueError, match="num_workers"):
        ProcessPoolBackend(num_workers=0)
    with pytest.raises(ValueError, match="queue_depth"):
        ProcessPoolBackend(num_workers=1, queue_depth=0)


def test_backend_lifecycle_is_guarded(warm_store):
    backend = SerialBackend()
    with pytest.raises(RuntimeError, match="not started"):
        backend.submit(TileTask("j", 0, "lego", "dense", 0, 0, 8))
    backend.start(warm_store)
    with pytest.raises(RuntimeError, match="already started"):
        backend.start(warm_store)
    backend.close()
    backend.start(warm_store)  # restart after close is allowed
    backend.close()


def test_tile_task_and_result_are_picklable():
    task = TileTask("job-1", 3, "lego", "spnerf", 0, 77, 154, transmittance_threshold=1e-3)
    clone = pickle.loads(pickle.dumps(task))
    assert clone == task and clone.key == ("lego", "spnerf")
    result = TileResult(job_id="job-1", tile_index=3, worker_id=1, image=np.ones((4, 3)))
    clone = pickle.loads(pickle.dumps(result))
    assert clone.job_id == "job-1" and np.array_equal(clone.image, result.image)


def test_pool_affinity_is_sticky_and_balanced():
    backend = ProcessPoolBackend(num_workers=3)  # routing needs no started workers
    keys = [(f"scene-{i}", pipe) for i in range(3) for pipe in ("dense", "spnerf")]
    first = {key: backend.worker_for(key) for key in keys}
    # Sticky: repeated lookups never move a key.
    assert all(backend.worker_for(key) == first[key] for key in keys)
    # Balanced: 6 keys over 3 workers land 2 apiece.
    counts = [list(first.values()).count(w) for w in range(3)]
    assert counts == [2, 2, 2]


def test_pool_capacity_is_tracked_per_worker():
    """A hot key backlogging its sticky worker must not stop dispatch for
    keys routed to idle workers."""
    backend = ProcessPoolBackend(num_workers=2, queue_depth=2)
    backend._inflight_per_worker = [2, 0]  # worker 0 saturated, worker 1 idle
    assert backend.has_capacity()
    backend._inflight_per_worker = [2, 2]
    assert not backend.has_capacity()


def test_pool_can_accept_is_per_key():
    """A key whose sticky worker is at depth defers; other keys still go."""
    backend = ProcessPoolBackend(num_workers=2, queue_depth=1)
    hot, cold = ("hot-scene", "dense"), ("cold-scene", "dense")
    backend._inflight_per_worker[backend.worker_for(hot)] = 1
    assert not backend.can_accept(hot)
    assert backend.can_accept(cold)  # affinity routes it to the idle worker
    assert backend.worker_for(cold) != backend.worker_for(hot)


def test_execute_tile_reports_errors_as_results(warm_store):
    bad = TileTask("job-9", 0, "lego", "no-such-pipeline", 0, 0, 8)
    result = _execute_tile(warm_store, bad, worker_id=5)
    assert result.error is not None and "no-such-pipeline" in result.error
    assert result.worker_id == 5 and result.image is None


# ----------------------------------------------------------------------
# Cross-backend bit-identity (the acceptance invariant)
# ----------------------------------------------------------------------

@pytest.mark.parametrize("backend_name", ["serial", "process"])
def test_served_frames_bit_identical_across_backends(backend_name, direct_frames):
    """Every built-in pipeline, served under every backend, must produce a
    frame byte-equal to the direct RenderEngine render.  Process workers
    rebuild their bundles from scratch, so this also proves the whole
    scene -> compression -> preprocessing path is deterministic."""
    store = make_store()
    with RenderServer(store, backend=make_backend(backend_name, num_workers=2)) as server:
        jobs = {
            pipeline: server.submit("lego", pipeline, tile_size=TILE)
            for pipeline in available_pipelines()
        }
        server.run_until_idle()
        for pipeline, job_id in jobs.items():
            assert server.poll(job_id).state is JobState.DONE, server.poll(job_id).error
            served = server.result(job_id).image
            assert served.tobytes() == direct_frames[pipeline].tobytes(), (
                f"{pipeline} served under {backend_name} diverged from direct render"
            )


@pytest.mark.parametrize("backend_name", ["process"])
def test_pool_backends_full_lifecycle(backend_name):
    """Priorities, failure isolation and telemetry under a real pool."""
    store = make_store()
    with RenderServer(store, backend=make_backend(backend_name, num_workers=2)) as server:
        good = [server.submit(scene, "dense", tile_size=200) for scene in ("lego", "ficus")]
        bad = server.submit("lego", "no-such-pipeline")
        high = server.submit("lego", "dense", priority=Priority.HIGH)
        server.run_until_idle()
        assert all(server.poll(j).state is JobState.DONE for j in good)
        assert server.poll(high).state is JobState.DONE
        view = server.poll(bad)
        assert view.state is JobState.FAILED and "no-such-pipeline" in view.error
        stats = server.stats()
        assert stats.backend == backend_name
        assert stats.num_workers == 2
        assert len(stats.worker_utilization) == 2
        assert stats.completed == 3 and stats.failed == 1
        # 576px / 200 -> 3 tiles per good job, plus the high job's single
        # default-chunk tile; the failed job renders nothing countable.
        assert stats.tiles_rendered == 2 * 3 + 1


def test_process_workers_shard_the_store():
    """Each worker owns its own store shard; the scheduler's store never
    builds a field (it only loads scenes for planning)."""
    store = make_store()
    with RenderServer(store, backend=ProcessPoolBackend(num_workers=2)) as server:
        jobs = [server.submit(s, p) for s in ("lego", "ficus") for p in ("dense", "spnerf")]
        server.run_until_idle()
        assert all(server.poll(j).state is JobState.DONE for j in jobs)
    assert store.resident_keys() == ()  # no bundle ever built scheduler-side
    assert store.stats().misses == 0


# ----------------------------------------------------------------------
# Out-of-order completion and streaming
# ----------------------------------------------------------------------

class ReversingBackend(ExecutionBackend):
    """Renders inline but releases completions newest-first — a worst-case
    reordering no real pool would sustain, applied deterministically."""

    name = "reversing"
    num_workers = 1

    def __init__(self, batch: int = 4) -> None:
        super().__init__()
        self._batch = batch
        self._store = None
        self._done = []
        #: While True, completions stay buffered (simulates slow workers).
        self.hold = False

    def _max_in_flight(self):
        return self._batch

    def _start(self, store):
        self._store = store

    def _submit(self, task):
        self._done.append(_execute_tile(self._store, task, worker_id=0))

    def _collect(self, block, timeout):
        if self.hold:
            return []
        done, self._done = self._done[::-1], []
        return done

    def _close(self):
        self._done = []


def test_out_of_order_tiles_reassemble_bit_identically(warm_store, direct_frames):
    server = RenderServer(warm_store, backend=ReversingBackend(batch=4))
    job = server.submit("lego", "spnerf", tile_size=TILE)
    server.run_until_idle()
    assert server.poll(job).state is JobState.DONE
    assert np.array_equal(server.result(job).image, direct_frames["spnerf"])
    stats = server.stats()
    assert stats.ooo_completions > 0  # the reordering actually happened
    assert stats.backend == "reversing"


def test_streaming_partial_results_expose_completed_tiles(warm_store):
    server = RenderServer(warm_store)  # serial: one tile per step
    job = server.submit("lego", "dense", tile_size=100)  # 576px -> 6 tiles
    server.step()
    server.step()
    view = server.poll(job, include_tiles=True)
    assert view.state is JobState.RUNNING
    assert view.tiles_done == 2 and len(view.completed_tiles) == 2
    # Streamed tiles are the exact pixels of the final frame.
    record = warm_store.get("lego", "dense")
    flat_direct = record.engine.render(
        camera_indices=(0,), chunk_size=100
    ).image.reshape(-1, 3)
    for update in view.completed_tiles:
        assert np.array_equal(update.image, flat_direct[update.tile.start:update.tile.stop])
    # Plain polls stay lightweight.
    assert server.poll(job).completed_tiles is None
    server.run_until_idle()
    # A DONE job exposes its full tile set, sliced back out of the assembled
    # frame, so late-attaching streaming consumers never miss the final tile.
    final = server.poll(job, include_tiles=True).completed_tiles
    assert len(final) == 6
    for update in final:
        assert np.array_equal(update.image, flat_direct[update.tile.start:update.tile.stop])


def test_late_results_for_expired_jobs_are_dropped(warm_store):
    """A job expiring with tiles in flight must not resurrect on completion."""

    class FakeClock:
        now = 0.0

        def __call__(self):
            return self.now

    clock = FakeClock()
    backend = ReversingBackend(batch=2)
    server = RenderServer(warm_store, backend=backend, clock=clock)
    job = server.submit("lego", "dense", deadline_s=0.5, tile_size=64)
    backend.hold = True
    server.step()  # dispatches 2 tiles; their results stay in the backend
    assert backend.in_flight == 2
    clock.now = 1.0  # deadline passes with those tiles in flight
    backend.hold = False
    server.run_until_idle()  # expiry first, then the late results arrive
    assert server.poll(job).state is JobState.EXPIRED
    stats = server.stats()
    assert stats.expired == 1
    assert stats.dropped_tile_results == 2
    assert stats.tiles_rendered == 2  # the work still counts as worker time


# ----------------------------------------------------------------------
# Cost-aware admission
# ----------------------------------------------------------------------

def test_estimate_cost_scales_with_camera_geometry(warm_store):
    server = RenderServer(warm_store, max_pending_cost=1e18)
    cost = server.estimate_cost("lego")
    # 24x24 frame, 192 samples/ray under the default workload model.
    assert cost == pytest.approx(24 * 24 * 192)
    server_flops = RenderServer(warm_store, max_pending_cost=1e18, cost_metric="mlp_flops")
    assert server_flops.estimate_cost("lego") > 0


def test_cost_admission_rejects_over_budget(warm_store):
    per_frame = RenderServer(warm_store, max_pending_cost=1e18).estimate_cost("lego")
    server = RenderServer(warm_store, max_pending_cost=1.5 * per_frame)
    first = server.submit("lego", "dense")
    second = server.submit("lego", "dense")  # would exceed 1.5 frames of budget
    assert server.poll(first).state is JobState.QUEUED
    assert server.poll(first).estimated_cost == pytest.approx(per_frame)
    assert server.poll(second).state is JobState.REJECTED
    assert server.pending_cost() == pytest.approx(per_frame)
    stats = server.stats()
    assert stats.rejected == stats.rejected_over_cost == 1
    assert stats.pending_cost == pytest.approx(per_frame)
    server.run_until_idle()
    assert server.pending_cost() == 0.0  # budget released on completion
    third = server.submit("lego", "dense")
    server.run_until_idle()
    assert server.poll(third).state is JobState.DONE


def test_cost_admission_demote_policy(warm_store):
    per_frame = RenderServer(warm_store, max_pending_cost=1e18).estimate_cost("lego")
    server = RenderServer(
        warm_store, max_pending_cost=1.5 * per_frame, over_cost_policy="demote"
    )
    fits = server.submit("lego", "dense")
    demoted = server.submit("lego", "dense")  # would exceed 1.5 frames of budget
    assert server.poll(fits).priority is Priority.NORMAL
    view = server.poll(demoted)
    assert view.state is JobState.QUEUED and view.priority is Priority.LOW
    stats = server.stats()
    assert stats.demoted_over_cost == 1 and stats.rejected == 0
    server.run_until_idle()  # demoted work is still served, just last
    assert server.poll(demoted).state is JobState.DONE


def test_low_priority_class_drains_after_normal(warm_store):
    server = RenderServer(warm_store)
    low = server.submit("lego", "dense", priority=Priority.LOW)
    normal = server.submit("ficus", "dense")
    server.step()  # must pick the NORMAL job despite LOW's earlier submission
    assert server.poll(normal).state in (JobState.RUNNING, JobState.DONE)
    assert server.poll(low).state is JobState.QUEUED
    server.run_until_idle()
    assert server.poll(low).state is JobState.DONE


def test_count_rejection_keeps_requested_priority_and_no_demotion(warm_store):
    """A count-rejected submission must not also be demoted by the cost check."""
    per_frame = RenderServer(warm_store, max_pending_cost=1e18).estimate_cost("lego")
    server = RenderServer(
        warm_store,
        max_pending=1,
        max_pending_cost=1.2 * per_frame,
        over_cost_policy="demote",
    )
    server.submit("lego", "dense")
    rejected = server.submit("lego", "dense", priority=Priority.HIGH)
    view = server.poll(rejected)
    assert view.state is JobState.REJECTED
    assert view.priority is Priority.HIGH  # the caller's priority, untouched
    assert server.stats().demoted_over_cost == 0


def test_cost_admission_unknown_scene_falls_through_to_render_failure(warm_store):
    server = RenderServer(warm_store, max_pending_cost=1e18)
    job = server.submit("no-such-scene", "dense")
    assert server.poll(job).state is JobState.QUEUED  # admitted, not mispriced
    assert server.poll(job).estimated_cost is None
    server.run_until_idle()
    assert server.poll(job).state is JobState.FAILED


def test_server_validates_cost_knobs(warm_store):
    with pytest.raises(ValueError, match="max_pending_cost"):
        RenderServer(warm_store, max_pending_cost=0)
    with pytest.raises(ValueError, match="cost_metric"):
        RenderServer(warm_store, cost_metric="joules")
    with pytest.raises(ValueError, match="over_cost_policy"):
        RenderServer(warm_store, over_cost_policy="shed")


# ----------------------------------------------------------------------
# Store sharding
# ----------------------------------------------------------------------

def test_store_spec_roundtrips_through_pickle():
    store = make_store(memory_budget_bytes=1000, max_entries=7)
    spec = pickle.loads(pickle.dumps(store.spec()))
    clone = SceneStore.from_spec(spec)
    assert clone.memory_budget_bytes == 1000
    assert clone.max_entries == 7
    assert clone.config == store.config
    assert (clone.shard_index, clone.num_shards) == (0, 1)


def test_store_from_spec_divides_budget_across_shards():
    spec = SceneStoreSpec(memory_budget_bytes=1001, scene_kwargs=dict(SCENE_KWARGS))
    shards = [SceneStore.from_spec(spec, shard_index=i, num_shards=4) for i in range(4)]
    assert all(s.memory_budget_bytes == 251 for s in shards)  # ceil(1001/4)
    assert [s.shard_index for s in shards] == [0, 1, 2, 3]
    assert all(s.num_shards == 4 for s in shards)
    # An unbudgeted spec stays unbudgeted.
    free = SceneStore.from_spec(SceneStoreSpec(), shard_index=1, num_shards=2)
    assert free.memory_budget_bytes is None
    with pytest.raises(ValueError, match="shard_index"):
        SceneStore.from_spec(spec, shard_index=4, num_shards=4)
    with pytest.raises(ValueError, match="num_shards"):
        SceneStore.from_spec(spec, shard_index=0, num_shards=0)


def test_get_scene_loads_once_and_shares_with_bundles():
    loads = []
    store = make_store()
    original = store._load_scene

    def counting_loader(name):
        loads.append(name)
        return original(name)

    store._load_scene = counting_loader
    scene = store.get_scene("lego")
    assert store.get_scene("lego") is scene
    assert store.get("lego", "dense").scene is scene  # bundle reuses it
    assert loads == ["lego"]
