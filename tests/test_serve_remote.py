"""Multi-host remote backend: wire format, validation, and failover.

The distributed-execution contract (ISSUE 10 / ROADMAP "multi-host render
farm"): tiles cross a host boundary over a stdlib TCP transport, and every
guarantee the in-process pools made survives the network being a network:

* **wire format** — length-prefixed, versioned frames round-trip
  ``TileTask``/``TileResult`` exactly; a partial read buffers and never
  yields a corrupt object; a schema-version skew fails with a typed
  :class:`WireVersionError` naming both versions; garbage framing is a
  :class:`TornFrameError`, not an unpickle crash;
* **validation** — remote-only knobs are refused loudly on the in-process
  backends, network faults are refused on pools with no connections to
  drop, and unknown backend names list every valid name;
* **failover** — a killed host, a torn connection, and a silent partition
  are all detected (connection close / torn frame / heartbeat deadline),
  in-flight tiles redispatch to survivors, and frames stay bit-identical
  to direct renders with zero failed jobs;
* **degradation** — with every host gone, ``local_fallback=True`` renders
  stranded tiles in-process rather than stalling;
* **telemetry** — host_losses / host_reconnects / local_fallback_tiles /
  dropped_backend_events flow through ``ServerStats.as_dict()`` and stay
  zero on the serial backend.

Scenes are the same tiny 16^3/24px ones as the other serve test modules.
Every cluster here is loopback (``LocalHostCluster``) — real sockets, real
process boundaries, no real network needed.
"""

from __future__ import annotations

import pickle
import time

import numpy as np
import pytest

from repro.api import PipelineConfig, SpNeRFConfig
from repro.serve import (
    FaultPlan,
    FrameDecoder,
    JobState,
    LocalHostCluster,
    ProcessPoolBackend,
    RemoteBackend,
    RenderServer,
    SceneStore,
    TileResult,
    TileTask,
    TornFrameError,
    WireVersionError,
    encode_frame,
    make_backend,
)
from repro.serve.backends import SerialBackend
from repro.serve.remote import MSG_RESULT, MSG_TASK, WIRE_VERSION

SERVE_CONFIG = PipelineConfig(
    spnerf=SpNeRFConfig(num_subgrids=4, hash_table_size=256, codebook_size=16),
    kmeans_iterations=2,
)
SCENE_KWARGS = {"resolution": 16, "image_size": 24, "num_views": 1, "num_samples": 16}

#: 576px frames at this tile size shard into 8 tiles — enough in-flight
#: structure for a mid-job host loss to strand work worth redispatching.
TILE = 77

#: Fast heartbeats so dead-host detection fits in test time; the timeout
#: still dwarfs a tiny-scene tile render, so no false positives.
FAST_BEAT = {"heartbeat_interval_s": 0.1, "heartbeat_timeout_s": 2.0}


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
# Wire format (satellite: versioned frames, round-trip, torn frames)
# ----------------------------------------------------------------------

def test_frame_round_trip_for_task_and_result():
    task = TileTask("job-1", 3, "lego", "dense", 0, 77, 154)
    image = np.arange(77 * 24 * 3, dtype=np.float32).reshape(77, 24, 3)
    result = TileResult(
        job_id="job-1", tile_index=3, worker_id=1, image=image, service_s=0.25,
    )
    decoder = FrameDecoder()
    decoder.feed(encode_frame(MSG_TASK, task))
    decoder.feed(encode_frame(MSG_RESULT, result))
    frames = list(decoder.frames())
    assert [msg_type for msg_type, _ in frames] == [MSG_TASK, MSG_RESULT]
    assert frames[0][1] == task
    round_tripped = frames[1][1]
    assert round_tripped.job_id == result.job_id
    assert round_tripped.tile_index == result.tile_index
    assert round_tripped.image.tobytes() == image.tobytes()  # bit-exact payload
    assert decoder.pending_bytes == 0


def test_partial_frame_buffers_and_never_yields():
    """A torn read keeps the tail buffered: the decoder yields nothing
    until the frame is whole, and the completed frame is exact."""
    task = TileTask("job-1", 0, "lego", "dense", 0, 0, 77)
    frame = encode_frame(MSG_TASK, task)
    decoder = FrameDecoder()
    for cut in (1, 7, 8, 9, len(frame) - 1):
        decoder.feed(frame[:cut])
        assert list(decoder.frames()) == []
        assert decoder.pending_bytes == cut
        decoder.feed(frame[cut:])
        assert list(decoder.frames()) == [(MSG_TASK, task)]
        assert decoder.pending_bytes == 0


def test_version_mismatch_is_typed_and_names_both_versions():
    frame = bytearray(encode_frame(MSG_TASK, TileTask("j", 0, "lego", "dense", 0, 0, 77)))
    frame[1] = WIRE_VERSION + 6  # doctor the schema-version byte
    decoder = FrameDecoder()
    decoder.feed(bytes(frame))
    with pytest.raises(WireVersionError) as excinfo:
        list(decoder.frames())
    assert excinfo.value.local_version == WIRE_VERSION
    assert excinfo.value.peer_version == WIRE_VERSION + 6
    message = str(excinfo.value)
    assert str(WIRE_VERSION) in message and str(WIRE_VERSION + 6) in message
    assert "same release" in message  # tells the operator what to do


def test_garbage_framing_is_a_torn_frame_not_an_unpickle():
    decoder = FrameDecoder()
    decoder.feed(b"\x00" * 32)  # wrong magic byte
    with pytest.raises(TornFrameError, match="frame alignment"):
        list(decoder.frames())


# ----------------------------------------------------------------------
# make_backend validation (satellite: remote-only knobs refused loudly)
# ----------------------------------------------------------------------

def test_remote_knobs_are_refused_on_in_process_backends():
    for name in ("serial", "process"):
        with pytest.raises(ValueError, match=rf"{name} backend does not support"):
            make_backend(name, hosts=["127.0.0.1:7000"])
        with pytest.raises(ValueError, match="heartbeat_interval_s"):
            make_backend(name, heartbeat_interval_s=0.5)
        with pytest.raises(ValueError, match="local_fallback"):
            make_backend(name, local_fallback=True)


def test_unknown_backend_error_lists_remote():
    with pytest.raises(ValueError, match="remote"):
        make_backend("quantum")


def test_remote_backend_validates_its_own_knobs():
    with pytest.raises(ValueError, match="at least one host"):
        make_backend("remote")
    with pytest.raises(ValueError, match="at least one host"):
        RemoteBackend(hosts=[])
    with pytest.raises(ValueError, match="host:port"):
        RemoteBackend(hosts=["no-port-here"])
    with pytest.raises(ValueError, match="heartbeat_timeout_s"):
        RemoteBackend(hosts=["h:1"], heartbeat_interval_s=1.0, heartbeat_timeout_s=0.5)
    with pytest.raises(ValueError, match="backoff_max_s"):
        RemoteBackend(hosts=["h:1"], backoff_base_s=1.0, backoff_max_s=0.1)
    # Hedging/stealing and num_workers are pool-only vocabulary here.
    with pytest.raises(ValueError, match="not supported on the remote backend"):
        make_backend("remote", hosts=["h:1"], hedge_multiplier=2.0)
    with pytest.raises(ValueError, match="not supported on the remote backend"):
        make_backend("remote", hosts=["h:1"], steal_interval_s=0.5)
    with pytest.raises(ValueError, match="num_workers"):
        make_backend("remote", hosts=["h:1"], num_workers=4)


def test_network_faults_are_refused_on_in_process_pools():
    plan = FaultPlan(drop_host=0)
    with pytest.raises(ValueError, match="remote backend"):
        ProcessPoolBackend(num_workers=2, fault_plan=plan)
    with pytest.raises(ValueError, match="remote backend"):
        make_backend("process", num_workers=2,
                     fault_plan=FaultPlan(delay_host=0, delay_host_s=0.1))
    assert plan.network_faults() == ("drop_host",)
    assert FaultPlan(kill_worker=0).network_faults() == ()


def test_network_fault_plan_validates_and_pickles():
    plan = FaultPlan(drop_host=1, drop_connection_after_tiles=2,
                     partition_host=0, delay_host=2, delay_host_s=0.05)
    assert pickle.loads(pickle.dumps(plan)) == plan
    assert set(plan.network_faults()) == {"drop_host", "partition_host", "delay_host"}
    with pytest.raises(ValueError, match="drop_connection_after_tiles"):
        FaultPlan(drop_host=0, drop_connection_after_tiles=0)
    with pytest.raises(ValueError, match="delay_host_s"):
        FaultPlan(delay_host=0, delay_host_s=-0.5)


def test_unpicklable_store_spec_fails_before_any_socket():
    store = SceneStore(
        scene_kwargs=dict(SCENE_KWARGS), config=SERVE_CONFIG,
        loader=lambda name, pipeline: None,  # closures cannot cross a socket
    )
    backend = RemoteBackend(hosts=["127.0.0.1:7999"])
    with pytest.raises(TypeError, match="picklable"):
        backend.start(store)


# ----------------------------------------------------------------------
# Event-ring overflow accounting (satellite: dropped_events)
# ----------------------------------------------------------------------

def test_event_ring_overflow_is_counted_not_silent():
    backend = SerialBackend()
    capacity = backend._events.maxlen
    for index in range(capacity + 250):
        backend._emit("redispatch", worker=0, note=index)
    assert backend.dropped_events == 250
    assert len(backend.drain_events()) == capacity
    # Draining frees the ring: new events no longer count as dropped.
    backend._emit("redispatch", worker=0)
    assert backend.dropped_events == 250


def test_dropped_events_flow_through_server_stats():
    store = make_store()
    with RenderServer(store) as server:
        job = server.submit("lego", "dense", tile_size=TILE)
        server.run_until_idle()
        assert server.poll(job).state is JobState.DONE
        server.backend.dropped_events = 7  # simulate a storm the deque ate
        stats = server.stats()
    assert stats.dropped_backend_events == 7
    assert stats.as_dict()["dropped_backend_events"] == 7


REMOTE_COUNTERS = ("host_losses", "host_reconnects", "local_fallback_tiles",
                   "dropped_backend_events")


def test_remote_counters_zero_on_serial_backend():
    store = make_store()
    with RenderServer(store) as server:
        server.submit("lego", "dense", tile_size=TILE)
        server.run_until_idle()
        as_dict = server.stats().as_dict()
    for counter in REMOTE_COUNTERS:
        assert as_dict[counter] == 0, counter


# ----------------------------------------------------------------------
# End-to-end over loopback hosts
# ----------------------------------------------------------------------

def test_two_hosts_serve_bit_identical_frames(direct_frames):
    """The happy path: two loopback agents rebuild their shards from the
    spec and serve frames byte-equal to direct renders, with sticky
    affinity keeping each key on one host."""
    with LocalHostCluster(2) as cluster:
        backend = make_backend("remote", hosts=cluster.addresses)
        with RenderServer(make_store(), backend=backend, default_tile_size=TILE) as server:
            jobs = {}
            for scene in ("lego", "ficus"):
                for _ in range(2):
                    jobs[server.submit(scene, "dense", tile_size=TILE)] = (scene, "dense")
            server.run_until_idle()
            for job, key in jobs.items():
                view = server.poll(job)
                assert view.state is JobState.DONE, view.error
                assert server.result(job).image.tobytes() == direct_frames[key].tobytes()
            stats = server.stats()
    assert stats.completed == 4
    assert stats.failed == 0
    assert stats.host_losses == 0
    assert stats.backend == "remote"


def test_host_kill_mid_job_fails_over_bit_identically(direct_frames):
    """Kill a host agent mid-job: the closed connection condemns the host,
    its in-flight tiles redispatch to the survivor, and every job completes
    byte-equal to direct renders — the scheduler never sees an exception."""
    with LocalHostCluster(2) as cluster:
        backend = make_backend(
            "remote", hosts=cluster.addresses, **FAST_BEAT,
            fault_plan=FaultPlan(kill_worker=0, kill_after_tiles=2),
        )
        with RenderServer(make_store(), backend=backend, default_tile_size=TILE) as server:
            jobs = {}
            for scene in ("lego", "ficus"):
                for _ in range(2):
                    jobs[server.submit(scene, "dense", tile_size=TILE)] = (scene, "dense")
            server.run_until_idle()
            for job, key in jobs.items():
                view = server.poll(job)
                assert view.state is JobState.DONE, view.error
                assert server.result(job).image.tobytes() == direct_frames[key].tobytes()
            stats = server.stats()
    assert stats.host_losses >= 1
    assert stats.redispatched_tiles >= 1
    assert stats.failed == 0
    assert stats.completed == 4
    as_dict = stats.as_dict()
    assert as_dict["host_losses"] == stats.host_losses
    assert as_dict["redispatched_tiles"] == stats.redispatched_tiles


def test_torn_connection_reconnects_with_backoff(direct_frames):
    """The drop fault sends *half* a result frame and slams the connection:
    the scheduler must detect the torn frame (never parsing it), fail the
    tiles over, then reconnect to the still-running agent and count it."""
    with LocalHostCluster(2) as cluster:
        backend = make_backend(
            "remote", hosts=cluster.addresses, **FAST_BEAT, backoff_base_s=0.05,
            fault_plan=FaultPlan(drop_host=0, drop_connection_after_tiles=2),
        )
        with RenderServer(make_store(), backend=backend, default_tile_size=TILE) as server:
            jobs = {}
            for scene in ("lego", "ficus"):
                for _ in range(2):
                    jobs[server.submit(scene, "dense", tile_size=TILE)] = (scene, "dense")
            server.run_until_idle()
            for job, key in jobs.items():
                view = server.poll(job)
                assert view.state is JobState.DONE, view.error
                assert server.result(job).image.tobytes() == direct_frames[key].tobytes()
            # The surviving host can finish every job before the torn host's
            # reconnect backoff ends.  Keep stepping the idle server, which
            # runs the backend's supervision, until the reconnect lands.
            deadline = time.monotonic() + 10.0
            while server.stats().host_reconnects < 1 and time.monotonic() < deadline:
                server.step()
                time.sleep(0.01)
            stats = server.stats()
    assert stats.host_losses >= 1
    assert stats.host_reconnects >= 1
    assert stats.redispatched_tiles >= 1
    assert stats.failed == 0
    assert stats.completed == 4


def test_local_fallback_degrades_gracefully_when_all_hosts_die():
    """One host, killed after its first tile, no replacement: with
    ``local_fallback=True`` the stranded tiles render on an in-process
    shard instead of waiting out the backoff forever."""
    with LocalHostCluster(1) as cluster:
        backend = make_backend(
            "remote", hosts=cluster.addresses, local_fallback=True,
            heartbeat_interval_s=0.1, heartbeat_timeout_s=1.5,
            fault_plan=FaultPlan(kill_worker=0, kill_after_tiles=1),
        )
        with RenderServer(make_store(), backend=backend, default_tile_size=TILE) as server:
            job = server.submit("lego", "dense", tile_size=TILE)
            server.run_until_idle()
            view = server.poll(job)
            assert view.state is JobState.DONE, view.error
            stats = server.stats()
    assert stats.host_losses >= 1
    assert stats.local_fallback_tiles >= 1
    assert stats.failed == 0
    assert stats.completed == 1


def test_remote_close_with_hosts_already_dead_does_not_hang():
    """close() with a killed cluster must not block on dead sockets."""
    cluster = LocalHostCluster(2)
    try:
        backend = make_backend("remote", hosts=cluster.addresses, **FAST_BEAT)
        backend.start(make_store())
        backend.submit(TileTask("job-z", 0, "lego", "dense", 0, 0, TILE))
        cluster.kill(0)
        cluster.kill(1)
        start = time.monotonic()
        backend.close()
        assert time.monotonic() - start < 10.0
    finally:
        cluster.close()
