"""Failure-injection tests: the serve layer must survive its workers.

The elastic-execution contract (ISSUE 7 / ROADMAP "Elastic, failure-tolerant
execution"): tile renders are deterministic, so duplicate completions are
droppable — which makes respawn, speculative re-dispatch and work stealing
safe by construction.  This suite stages reproducible disasters with
:class:`FaultPlan` and proves the guarantees hold:

* **supervision + respawn** — a process worker killed mid-job is replaced
  from the picklable store spec, its in-flight tiles re-dispatched, and
  every job still reaches DONE with frames bit-identical to direct renders;
* **poisoned builds** — a bundle build that deterministically fails takes
  down only the jobs that need it, with a typed error, while the worker and
  every other job keep serving;
* **hedging** — tiles stuck on a delayed worker are speculatively duplicated
  onto a healthy one; first completion wins, the loser is dropped;
* **work stealing** — a hot key migrates off a saturated shard to an idle
  one, at a bounded rate;
* **teardown** — close() with work in flight never hangs on a dead
  worker's queue;
* **telemetry** — the respawn/redispatch/hedge/steal counters flow through
  ``ServerStats.as_dict()`` and ``GET /v1/stats``, and stay zero on the
  serial backend.

Scenes are the same tiny 16^3/24px ones as the other serve test modules.
"""

from __future__ import annotations

import pickle
import time

import pytest

from repro.api import PipelineConfig, SpNeRFConfig
from repro.serve import (
    FaultPlan,
    JobState,
    PoisonedBundleError,
    ProcessPoolBackend,
    RenderServer,
    SceneStore,
    TileTask,
    closed_loop_workload,
    make_backend,
    replay_closed_loop,
    summarize_outcomes,
)

SERVE_CONFIG = PipelineConfig(
    spnerf=SpNeRFConfig(num_subgrids=4, hash_table_size=256, codebook_size=16),
    kmeans_iterations=2,
)
SCENE_KWARGS = {"resolution": 16, "image_size": 24, "num_views": 1, "num_samples": 16}

#: 576px frames at this tile size shard into 8 tiles — enough in-flight
#: structure for kills and hedges to land mid-job.
TILE = 77


def make_store(**kwargs) -> SceneStore:
    kwargs.setdefault("config", SERVE_CONFIG)
    kwargs.setdefault("scene_kwargs", dict(SCENE_KWARGS))
    return SceneStore(**kwargs)


@pytest.fixture(scope="module")
def direct_frames():
    """Direct engine renders to compare served frames against, bit for bit."""
    store = make_store()
    return {
        (scene, "dense"): store.get(scene, "dense")
        .engine.render(camera_indices=(0,), chunk_size=TILE)
        .image
        for scene in ("lego", "ficus")
    }


# ----------------------------------------------------------------------
# FaultPlan and knob plumbing
# ----------------------------------------------------------------------

def test_fault_plan_validates_and_pickles():
    plan = FaultPlan(kill_worker=1, kill_after_tiles=3, poison_key=("lego", "vqrf"))
    clone = pickle.loads(pickle.dumps(plan))
    assert clone == plan
    stripped = plan.without_kill()
    assert stripped.kill_worker is None
    assert stripped.poison_key == ("lego", "vqrf")  # poison/delay survive respawn
    with pytest.raises(ValueError, match="kill_after_tiles"):
        FaultPlan(kill_worker=0, kill_after_tiles=0)
    with pytest.raises(ValueError, match="delay_s"):
        FaultPlan(delay_worker=0, delay_s=-1.0)


def test_make_backend_passes_through_elasticity_knobs():
    backend = make_backend("process", num_workers=2, queue_depth=5,
                           hedge_multiplier=3.0, steal_interval_s=0.5)
    assert isinstance(backend, ProcessPoolBackend)
    assert backend.queue_depth == 5
    assert backend.hedge_multiplier == 3.0
    assert backend.steal_interval_s == 0.5
    # queue_depth is validated wherever it enters.
    with pytest.raises(ValueError, match="queue_depth"):
        make_backend("process", num_workers=2, queue_depth=0)


def test_make_backend_refuses_unsupported_knobs():
    with pytest.raises(ValueError, match="serial"):
        make_backend("serial", queue_depth=4)
    with pytest.raises(ValueError, match="serial"):
        make_backend("serial", fault_plan=FaultPlan(delay_worker=0, delay_s=0.1))
    with pytest.raises(ValueError, match="hedge_multiplier"):
        ProcessPoolBackend(num_workers=2, hedge_multiplier=0.0)
    with pytest.raises(ValueError, match="steal_interval_s"):
        ProcessPoolBackend(num_workers=2, steal_interval_s=-1.0)


def test_store_poison_is_a_typed_build_failure():
    store = make_store()
    resident = store.get("lego", "dense")
    assert resident is not None
    store.poison("lego", "dense")
    assert not store.contains("lego", "dense")  # poison evicts residency
    with pytest.raises(PoisonedBundleError, match="poisoned"):
        store.get("lego", "dense")
    # Scene-level planning reads still work: only the bundle is poisoned.
    assert store.get_scene("lego") is not None
    assert store.get("lego", "spnerf") is not None


# ----------------------------------------------------------------------
# Supervision + respawn (the tentpole invariant)
# ----------------------------------------------------------------------

def test_worker_kill_mid_job_heals_and_stays_bit_identical(direct_frames):
    """Kill a process worker mid-job: the shard respawns from the spec, its
    in-flight tiles are re-dispatched, and every job completes with frames
    byte-equal to direct renders — the scheduler never sees an exception."""
    store = make_store()
    backend = ProcessPoolBackend(
        num_workers=2, fault_plan=FaultPlan(kill_worker=0, kill_after_tiles=2)
    )
    with RenderServer(store, backend=backend) as server:
        # First key touched routes to worker 0 (the doomed one).
        lego = server.submit("lego", "dense", tile_size=TILE)
        ficus = server.submit("ficus", "dense", tile_size=TILE)
        server.run_until_idle()
        for job, key in ((lego, ("lego", "dense")), (ficus, ("ficus", "dense"))):
            view = server.poll(job)
            assert view.state is JobState.DONE, view.error
            assert server.result(job).image.tobytes() == direct_frames[key].tobytes()
        stats = server.stats()
    assert stats.worker_respawns >= 1
    assert stats.redispatched_tiles >= 1
    assert stats.failed == 0
    assert stats.completed == 2
    # The counters ride along in the JSON-ready snapshot.
    as_dict = stats.as_dict()
    assert as_dict["worker_respawns"] == stats.worker_respawns
    assert as_dict["redispatched_tiles"] == stats.redispatched_tiles


def test_cross_job_dedupe_survives_a_worker_kill(direct_frames):
    """Concurrent identical jobs collapse onto one dispatch (ISSUE 9's
    in-flight dedupe) even while the fault plan kills the worker rendering
    the shared tiles: the respawned shard's re-dispatched tiles feed every
    attached job, and all of them complete bit-identically."""
    store = make_store()
    backend = ProcessPoolBackend(
        num_workers=2, fault_plan=FaultPlan(kill_worker=0, kill_after_tiles=2)
    )
    with RenderServer(store, backend=backend, cache="lru") as server:
        jobs = [server.submit("lego", "dense", tile_size=TILE) for _ in range(3)]
        server.run_until_idle()
        stats = server.stats()
        for job in jobs:
            view = server.poll(job)
            assert view.state is JobState.DONE, view.error
            assert (
                server.result(job).image.tobytes()
                == direct_frames[("lego", "dense")].tobytes()
            )
    assert stats.worker_respawns >= 1
    assert stats.deduped_tiles > 0
    assert stats.failed == 0
    assert stats.completed == 3


def test_dead_worker_is_detected_behind_a_full_result_queue():
    """Supervision runs on every collect — a dead worker must not hide while
    the surviving workers keep the result queue stocked (the old health
    check only fired on an empty blocking collect)."""
    store = make_store()
    backend = ProcessPoolBackend(
        num_workers=2, fault_plan=FaultPlan(kill_worker=0, kill_after_tiles=1)
    )
    backend.start(store)
    try:
        tiles = [(i * 96, (i + 1) * 96) for i in range(6)]
        for index, (start, stop) in enumerate(tiles):
            backend.submit(TileTask("job-a", index, "lego", "dense", 0, start, stop))
        for index, (start, stop) in enumerate(tiles):
            backend.submit(TileTask("job-b", index, "ficus", "dense", 0, start, stop))
        seen = {}
        deadline = time.monotonic() + 60.0
        while backend.in_flight > 0 and time.monotonic() < deadline:
            # Strictly non-blocking collects: the supervision sweep is the
            # only thing that can notice the corpse here.
            for result in backend.collect(block=False):
                if not result.duplicate:
                    seen[(result.job_id, result.tile_index)] = result
            time.sleep(0.01)
        assert backend.in_flight == 0
        assert len(seen) == 12
        assert all(r.error is None for r in seen.values())
        assert backend.worker_respawns >= 1
        assert backend.redispatched_tiles >= 1
    finally:
        backend.close()


def test_partitioned_host_is_declared_dead_behind_a_busy_scheduler():
    """The remote-backend twin of the test above (ISSUE 10): a *partitioned*
    host keeps its socket open but goes silent, so neither a connection
    close nor a torn frame will ever fire — only the heartbeat deadline can
    declare it dead.  The scheduler is kept busy with strictly non-blocking
    collects while the survivor streams results, the silent host is
    condemned mid-job, its in-flight tiles redispatch, and every unique
    tile completes bit-identically with zero errors."""
    from repro.serve import LocalHostCluster

    store = make_store()
    with LocalHostCluster(2) as cluster:
        backend = make_backend(
            "remote", hosts=cluster.addresses,
            heartbeat_interval_s=0.1, heartbeat_timeout_s=1.0,
            backoff_base_s=0.05,
            fault_plan=FaultPlan(partition_host=0),
        )
        backend.start(store)
        try:
            tiles = [(i * 96, (i + 1) * 96) for i in range(6)]
            for index, (start, stop) in enumerate(tiles):
                backend.submit(TileTask("job-a", index, "lego", "dense", 0, start, stop))
            for index, (start, stop) in enumerate(tiles):
                backend.submit(TileTask("job-b", index, "ficus", "dense", 0, start, stop))
            seen = {}
            deadline = time.monotonic() + 90.0
            while backend.in_flight > 0 and time.monotonic() < deadline:
                # Strictly non-blocking collects: heartbeat supervision is
                # the only thing that can notice the silent host here.
                for result in backend.collect(block=False):
                    if not result.duplicate:
                        seen[(result.job_id, result.tile_index)] = result
                time.sleep(0.01)
            assert backend.in_flight == 0
            assert len(seen) == 12
            assert all(r.error is None for r in seen.values())
            assert backend.host_losses >= 1
            assert backend.redispatched_tiles >= 1
            # Redispatched tiles still match a direct render sharded the
            # same way, byte for byte (tile images are flat (P, 3) runs,
            # and bit-identity is per chunk partition — so chunk at 96).
            flat = {
                job_id: store.get(scene, "dense")
                .engine.render(camera_indices=(0,), chunk_size=96)
                .image.reshape(-1, 3)
                for job_id, scene in (("job-a", "lego"), ("job-b", "ficus"))
            }
            for (job_id, index), result in seen.items():
                start, stop = tiles[index]
                assert result.image.tobytes() == flat[job_id][start:stop].tobytes()
        finally:
            backend.close()


# ----------------------------------------------------------------------
# Poison + kill under a multi-job closed-loop workload (acceptance)
# ----------------------------------------------------------------------

def test_chaos_closed_loop_acceptance(direct_frames):
    """The ISSUE's acceptance scenario: kill a worker mid-job AND poison one
    bundle build under a multi-job closed-loop workload.  Every admitted job
    reaches DONE bit-identically except the poisoned ones, which fail with
    the typed error; respawn/redispatch counters prove the healing ran."""
    store = make_store()
    plan = FaultPlan(kill_worker=0, kill_after_tiles=3, poison_key=("lego", "spnerf"))
    backend = ProcessPoolBackend(num_workers=2, fault_plan=plan)
    with RenderServer(store, backend=backend, default_tile_size=TILE) as server:
        items = closed_loop_workload(["lego", "ficus"], ["dense"], num_requests=6, seed=3)
        job_ids = replay_closed_loop(server, items, concurrency=3)
        poisoned = server.submit("lego", "spnerf", tile_size=TILE)
        server.run_until_idle()
        outcomes = summarize_outcomes(server, job_ids)
        assert outcomes == {"done": 6}, outcomes  # zero infrastructure failures
        for job_id in job_ids:
            result = server.result(job_id)
            key = (result.scene, result.pipeline)
            assert result.image.tobytes() == direct_frames[key].tobytes(), (
                f"{key} diverged from the direct render under chaos"
            )
        view = server.poll(poisoned)
        assert view.state is JobState.FAILED
        assert "PoisonedBundleError" in view.error  # typed, not an infra crash
        stats = server.stats()
    assert stats.worker_respawns >= 1
    assert stats.redispatched_tiles >= 1
    assert stats.failed == 1  # the poisoned job and nothing else
    assert stats.completed == 6


# ----------------------------------------------------------------------
# Speculative hedging
# ----------------------------------------------------------------------

def test_hedging_rescues_tiles_from_a_slow_worker(direct_frames):
    """A worker delayed per tile makes its key's tiles exceed the hedge
    threshold; duplicates dispatch to the healthy worker and the first
    completion wins, bit-identically."""
    store = make_store()
    backend = ProcessPoolBackend(
        num_workers=2,
        fault_plan=FaultPlan(delay_worker=1, delay_s=0.25),
        hedge_multiplier=2.0,
        hedge_min_samples=3,
    )
    with RenderServer(store, backend=backend) as server:
        # lego/dense routes to (fast) worker 0 and seeds the p95 samples;
        # ficus/dense routes to worker 1, which crawls.
        fast = server.submit("lego", "dense", tile_size=TILE)
        slow = server.submit("ficus", "dense", tile_size=TILE)
        server.run_until_idle()
        for job, key in ((fast, ("lego", "dense")), (slow, ("ficus", "dense"))):
            view = server.poll(job)
            assert view.state is JobState.DONE, view.error
            assert server.result(job).image.tobytes() == direct_frames[key].tobytes()
        stats = server.stats()
    assert stats.hedged_tiles >= 1
    assert stats.worker_respawns == 0  # slow is not dead
    assert stats.failed == 0


def test_hedge_budget_bounds_duplicates():
    backend = ProcessPoolBackend(num_workers=2, hedge_multiplier=2.0, hedge_budget=1)
    assert backend.hedge_budget == 1
    default = ProcessPoolBackend(num_workers=3, hedge_multiplier=2.0)
    assert default.hedge_budget == 3  # one speculative copy per worker


# ----------------------------------------------------------------------
# Work stealing
# ----------------------------------------------------------------------

def test_work_stealing_migrates_a_hot_key(direct_frames):
    """One hot key saturates its sticky worker while the other sits idle:
    the affinity migrates (bounded by steal_interval_s) and jobs complete
    bit-identically on the new shard's rebuilt bundle."""
    store = make_store()
    backend = ProcessPoolBackend(num_workers=2, steal_interval_s=0.05)
    with RenderServer(store, backend=backend) as server:
        jobs = [server.submit("lego", "dense", tile_size=TILE) for _ in range(3)]
        server.run_until_idle()
        for job in jobs:
            assert server.poll(job).state is JobState.DONE
            assert (
                server.result(job).image.tobytes()
                == direct_frames[("lego", "dense")].tobytes()
            )
        stats = server.stats()
    assert stats.stolen_keys >= 1
    assert stats.failed == 0


def test_stealing_disabled_by_default():
    store = make_store()
    backend = ProcessPoolBackend(num_workers=2)
    with RenderServer(store, backend=backend) as server:
        jobs = [server.submit("lego", "dense", tile_size=TILE) for _ in range(3)]
        server.run_until_idle()
        assert all(server.poll(j).state is JobState.DONE for j in jobs)
        stats = server.stats()
    assert stats.stolen_keys == 0
    assert stats.hedged_tiles == 0
    assert stats.worker_respawns == 0


# ----------------------------------------------------------------------
# Teardown under fire (satellite: close() drains, never hangs, no leaks)
# ----------------------------------------------------------------------

def test_process_backend_close_with_dead_worker_does_not_hang():
    """A worker that died with backlog in its queue must not wedge close()
    on the queue's feeder thread."""
    store = make_store()
    backend = ProcessPoolBackend(
        num_workers=2, fault_plan=FaultPlan(kill_worker=0, kill_after_tiles=1)
    )
    backend.start(store)
    for index in range(6):
        backend.submit(TileTask("job-y", index, "lego", "dense", 0, index * 96, (index + 1) * 96))
    # Give the doomed worker time to pick up its first task and die.
    deadline = time.monotonic() + 30.0
    while backend._processes[0].is_alive() and time.monotonic() < deadline:
        time.sleep(0.01)
    start = time.monotonic()
    backend.close()
    assert time.monotonic() - start < 10.0
    assert all(not process.is_alive() for process in backend._processes)


# ----------------------------------------------------------------------
# Telemetry plumbing (satellite)
# ----------------------------------------------------------------------

ELASTICITY_COUNTERS = ("worker_respawns", "redispatched_tiles", "hedged_tiles", "stolen_keys")


def test_elasticity_counters_zero_on_serial_backend():
    store = make_store()
    with RenderServer(store) as server:
        job = server.submit("lego", "dense", tile_size=TILE)
        server.run_until_idle()
        assert server.poll(job).state is JobState.DONE
        stats = server.stats()
    as_dict = stats.as_dict()
    for counter in ELASTICITY_COUNTERS:
        assert as_dict[counter] == 0, counter
    assert as_dict["backend"] == "serial"


def test_elasticity_counters_flow_through_http_stats():
    import asyncio

    from repro.serve.http import HttpRenderFrontEnd, RenderClient

    store = make_store()
    server = RenderServer(store, default_tile_size=TILE)
    edge = HttpRenderFrontEnd(server)
    host, port = edge.run_in_thread()
    try:
        async def exercise():
            async with RenderClient(host, port, api_key="chaos") as client:
                await client.render(scene="lego", pipeline="dense")
                return await client.stats()

        stats = asyncio.run(exercise())
    finally:
        edge.shutdown()
        server.close()
    for counter in ELASTICITY_COUNTERS:
        assert stats["server"][counter] == 0, counter
    assert stats["server"]["completed"] == 1
