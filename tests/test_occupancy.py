"""Tests for occupancy-guided rendering (:mod:`repro.nerf.occupancy`).

Three layers of guarantees:

* **Conservativeness** — property tests over random grids, coarsening factors
  and dilations: wherever the index reports "empty", the field provably
  decodes exactly zero (the precondition for every skip being bit-safe).
* **Bit-identity** — every built-in pipeline renders the exact same image
  with occupancy guidance on and off, including through the serving layer
  under the serial and process-pool backends.
* **Bookkeeping** — the new ``num_culled_samples`` / ``num_skipped_rays``
  counters flow through ``RenderResult.as_dict()``, ``ServerStats`` and
  ``workload_from_render``; the scene store accounts the index's memory; and
  ``reset_stats()`` fixes the stale-stats accumulation of direct
  ``render_rays`` callers.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import (
    PipelineConfig,
    RenderEngine,
    RenderRequest,
    SpNeRFConfig,
    available_pipelines,
    build_field,
)
from repro.datasets.synthetic import load_scene
from repro.grid.voxel_grid import GridSpec, VoxelGrid
from repro.nerf.mlp import build_decoder_mlp
from repro.nerf.occupancy import OccupancyIndex, build_occupancy_index
from repro.nerf.rays import Camera, RayBatch, look_at_pose, ray_aabb_intersect
from repro.nerf.renderer import DenseGridField, VolumetricRenderer
from repro.serve import RenderServer, SceneStore, make_backend

#: Small-but-real configuration for the engine/serving bit-identity tests.
OCC_CONFIG = PipelineConfig(
    spnerf=SpNeRFConfig(num_subgrids=4, hash_table_size=256, codebook_size=16),
    kmeans_iterations=2,
)
SCENE_KWARGS = {"resolution": 16, "image_size": 24, "num_views": 1, "num_samples": 16}


@pytest.fixture(scope="module")
def occ_scene():
    return load_scene("lego", **SCENE_KWARGS)


def random_grid(rng: np.random.Generator, resolution: int, feature_dim: int = 4) -> VoxelGrid:
    """A random sparse non-negative grid (the repo's density convention)."""
    spec = GridSpec(resolution=resolution, feature_dim=feature_dim)
    grid = VoxelGrid(spec)
    num = int(rng.integers(1, max(2, resolution**3 // 20)))
    pos = rng.integers(0, resolution, size=(num, 3))
    grid.density[pos[:, 0], pos[:, 1], pos[:, 2]] = rng.uniform(0.5, 10.0, size=num)
    # A few feature-only vertices: occupancy must treat them as occupied too.
    fpos = rng.integers(0, resolution, size=(max(1, num // 4), 3))
    grid.features[fpos[:, 0], fpos[:, 1], fpos[:, 2]] = rng.uniform(
        -1.0, 1.0, size=(fpos.shape[0], feature_dim)
    )
    return grid


# ----------------------------------------------------------------------
# Conservativeness properties
# ----------------------------------------------------------------------

class TestOccupancyIndexProperties:
    @pytest.mark.parametrize("seed", range(6))
    def test_empty_verdicts_decode_to_exactly_zero(self, seed):
        """Index says empty => the field returns exactly zero density/color."""
        rng = np.random.default_rng(seed)
        resolution = int(rng.integers(6, 24))
        coarsen = int(rng.integers(1, 5))
        dilation = int(rng.integers(0, 3))
        grid = random_grid(rng, resolution)
        index = OccupancyIndex.from_grid(grid, coarsen=coarsen, dilation=dilation)

        field = DenseGridField(grid, build_decoder_mlp(feature_dim=grid.feature_dim))
        points = rng.uniform(-1.4, 1.4, size=(512, 3))  # inside and outside
        dirs = np.tile([[0.0, 0.0, 1.0]], (512, 1))
        density, rgb = field.query(points, dirs)
        mask = index.point_mask(points)

        empty = ~mask
        assert np.all(density[empty] == 0.0)
        assert np.all(rgb[empty] == 0.0)
        # Superset direction: everything non-zero is marked occupied.
        assert np.all(mask[density > 0.0])
        assert np.all(mask[np.any(rgb != 0.0, axis=-1)])

    @pytest.mark.parametrize("coarsen,dilation", [(1, 0), (2, 0), (3, 1), (1, 2)])
    def test_coarsening_and_dilation_only_grow_the_mask(self, coarsen, dilation):
        rng = np.random.default_rng(99)
        grid = random_grid(rng, 12)
        fine = OccupancyIndex.from_grid(grid)
        other = OccupancyIndex.from_grid(grid, coarsen=coarsen, dilation=dilation)
        points = rng.uniform(-1.1, 1.1, size=(400, 3))
        fine_mask = fine.point_mask(points)
        other_mask = other.point_mask(points)
        assert np.all(other_mask[fine_mask])  # never loses an occupied verdict

    def test_clip_rays_interval_covers_every_occupied_sample(self):
        rng = np.random.default_rng(7)
        grid = random_grid(rng, 14)
        index = OccupancyIndex.from_grid(grid, coarsen=2)
        n, s = 128, 48
        origins = rng.uniform(-4.0, 4.0, size=(n, 3))
        dirs = rng.normal(size=(n, 3))
        dirs /= np.linalg.norm(dirs, axis=-1, keepdims=True)
        near = np.zeros(n)
        far = np.full(n, 10.0)
        t = np.linspace(0.0, 10.0, s)[None, :].repeat(n, axis=0)
        points = origins[:, None, :] + t[..., None] * dirs[:, None, :]

        clip_near, clip_far, hit = index.clip_rays(origins, dirs, near, far)
        mask = index.point_mask(points.reshape(-1, 3)).reshape(n, s)
        occupied_rows, occupied_cols = np.nonzero(mask)
        # Every occupied sample lies on a hit ray, inside the clamped interval.
        assert np.all(hit[occupied_rows])
        assert np.all(t[occupied_rows, occupied_cols] >= clip_near[occupied_rows])
        assert np.all(t[occupied_rows, occupied_cols] <= clip_far[occupied_rows])

    def test_empty_grid_yields_all_misses(self):
        spec = GridSpec(resolution=8, feature_dim=2)
        index = OccupancyIndex.from_grid(VoxelGrid(spec))
        assert index.num_occupied_cells == 0
        assert not index.point_mask(np.zeros((5, 3))).any()
        _, _, hit = index.clip_rays(
            np.zeros((4, 3)), np.tile([[0.0, 0.0, 1.0]], (4, 1)), np.zeros(4), np.full(4, 5.0)
        )
        assert not hit.any()

    def test_cell_mask_matches_interpolation_base_convention(self):
        """Boundary samples use clip(floor, 0, R-2), exactly like Eq. 2."""
        spec = GridSpec(resolution=4, feature_dim=1)
        grid = VoxelGrid(spec)
        grid.density[3, 3, 3] = 1.0  # occupies only the last cell (2,2,2)
        index = OccupancyIndex.from_grid(grid)
        # The grid-coordinate corner (3,3,3) floors to 3, clips to cell 2.
        assert index.cell_mask(np.array([[3.0, 3.0, 3.0]]))[0]
        assert index.cell_mask(np.array([[2.1, 2.1, 2.1]]))[0]
        assert not index.cell_mask(np.array([[1.9, 1.9, 1.9]]))[0]

    def test_memory_and_fraction_reporting(self):
        rng = np.random.default_rng(3)
        grid = random_grid(rng, 10)
        index = OccupancyIndex.from_grid(grid)
        assert index.memory_bytes == index.cells.nbytes > 0
        assert 0.0 < index.occupancy_fraction <= 1.0


# ----------------------------------------------------------------------
# build_occupancy_index dispatch and caching
# ----------------------------------------------------------------------

class TestBuildOccupancyIndex:
    def test_cached_once_per_field(self, occ_scene):
        field = build_field("dense", occ_scene, OCC_CONFIG)
        first = build_occupancy_index(field)
        assert first is not None
        assert build_occupancy_index(field) is first

    def test_spnerf_shares_one_index_with_its_internal_cull(self, occ_scene):
        field = build_field("spnerf", occ_scene, OCC_CONFIG)
        assert field.occupancy_index() is build_occupancy_index(field)

    def test_nomask_spnerf_has_no_sound_occupancy(self, occ_scene):
        field = build_field("spnerf-nomask", occ_scene, OCC_CONFIG)
        assert build_occupancy_index(field) is None

    def test_fields_without_occupancy_grid_render_unguided(self, occ_scene):
        class BareField:
            def query(self, points, view_dirs):
                n = points.shape[0]
                return np.zeros(n), np.zeros((n, 3))

        assert build_occupancy_index(BareField()) is None

    def test_pipeline_config_occupancy_knob_disables_guidance(self, occ_scene):
        field = build_field("dense", occ_scene, OCC_CONFIG.with_updates(occupancy=False))
        assert field.use_occupancy is False
        renderer = VolumetricRenderer(field, occ_scene.render_config)
        assert renderer.occupancy is None


# ----------------------------------------------------------------------
# Bit-identity
# ----------------------------------------------------------------------

class TestBitIdentity:
    @pytest.fixture(scope="class")
    def engines(self, occ_scene):
        return {
            pipeline: RenderEngine(build_field(pipeline, occ_scene, OCC_CONFIG), occ_scene)
            for pipeline in available_pipelines()
        }

    @pytest.mark.parametrize("pipeline", ["dense", "vqrf", "spnerf", "spnerf-nomask"])
    def test_occupancy_on_off_images_are_bit_identical(self, engines, pipeline):
        engine = engines[pipeline]
        off = engine.render(RenderRequest(camera_indices=(0,), use_occupancy=False))
        on = engine.render(RenderRequest(camera_indices=(0,)))
        assert on.image.tobytes() == off.image.tobytes()

    def test_guided_render_actually_skips_work(self, engines):
        on = engines["dense"].render(RenderRequest(camera_indices=(0,)))
        off = engines["dense"].render(RenderRequest(camera_indices=(0,), use_occupancy=False))
        assert on.stats.num_culled_samples > 0
        assert on.stats.num_skipped_rays > 0
        assert off.stats.num_culled_samples == 0
        assert off.stats.num_skipped_rays == 0
        assert on.stats.num_samples == off.stats.num_samples  # logical count
        assert on.stats.num_vertex_lookups < off.stats.num_vertex_lookups
        assert on.stats.num_active_samples == off.stats.num_active_samples

    def test_fast_profile_composes_with_occupancy(self, engines):
        """Early termination + occupancy still matches plain early termination
        within the termination threshold's error bound."""
        on = engines["dense"].render(
            RenderRequest(camera_indices=(0,), transmittance_threshold=1e-3)
        )
        off = engines["dense"].render(
            RenderRequest(
                camera_indices=(0,), transmittance_threshold=1e-3, use_occupancy=False
            )
        )
        assert np.allclose(on.image, off.image, atol=1e-2)
        assert on.stats.num_culled_samples > 0

    def test_active_mask_query_is_bit_identical(self, occ_scene, rng):
        field = build_field("dense", occ_scene, OCC_CONFIG)
        index = build_occupancy_index(field)
        points = rng.uniform(-1.2, 1.2, size=(256, 3))
        dirs = np.tile([[0.0, 0.0, 1.0]], (256, 1))
        d_full, rgb_full = field.query(points, dirs)
        full_lookups = field.last_stats.num_vertex_lookups
        d_masked, rgb_masked = field.query(points, dirs, active_mask=index.point_mask(points))
        assert d_masked.tobytes() == d_full.tobytes()
        assert rgb_masked.tobytes() == rgb_full.tobytes()
        assert field.last_stats.num_vertex_lookups <= full_lookups

    def test_stats_surface_through_as_dict(self, engines):
        summary = engines["vqrf"].render(RenderRequest(camera_indices=(0,))).as_dict()
        assert summary["num_culled_samples"] > 0
        assert summary["num_skipped_rays"] > 0


# ----------------------------------------------------------------------
# Renderer bookkeeping: reset_stats
# ----------------------------------------------------------------------

class TestResetStats:
    def test_render_rays_accumulates_until_reset(self, occ_scene):
        renderer = VolumetricRenderer(
            build_field("dense", occ_scene, OCC_CONFIG), occ_scene.render_config
        )
        n = 8
        rays = RayBatch(
            origins=np.tile(occ_scene.cameras[0].position, (n, 1)),
            directions=np.tile([[0.0, 0.0, -1.0]], (n, 1)),
            near=np.zeros(n),
            far=np.full(n, 6.0),
        )
        renderer.render_rays(rays)
        renderer.render_rays(rays)
        assert renderer.last_stats.num_rays == 2 * n  # documented accumulation
        renderer.reset_stats()
        assert renderer.last_stats.num_rays == 0
        renderer.render_rays(rays)
        assert renderer.last_stats.num_rays == n

    def test_render_image_resets_between_frames(self, occ_scene):
        renderer = VolumetricRenderer(
            build_field("dense", occ_scene, OCC_CONFIG), occ_scene.render_config
        )
        camera = occ_scene.cameras[0]
        renderer.render_image(camera, occ_scene.bbox_min, occ_scene.bbox_max)
        first = renderer.last_stats.num_rays
        renderer.render_image(camera, occ_scene.bbox_min, occ_scene.bbox_max)
        assert renderer.last_stats.num_rays == first  # not 2x: reset happened


# ----------------------------------------------------------------------
# Serving: store accounting and served-tile bit-identity
# ----------------------------------------------------------------------

class TestServingWithOccupancy:
    def make_store(self) -> SceneStore:
        return SceneStore(config=OCC_CONFIG, scene_kwargs=dict(SCENE_KWARGS))

    def test_store_accounts_index_memory_with_the_bundle(self):
        store = self.make_store()
        record = store.get("lego", "dense")
        index = build_occupancy_index(record.field)
        assert index is not None  # built eagerly with the bundle
        assert record.memory_bytes == (
            record.field.memory_report()["total"] + index.memory_bytes
        )

    @pytest.mark.parametrize("backend_name", ["serial", "process"])
    def test_served_frames_bit_identical_with_occupancy(self, backend_name):
        store = self.make_store()
        direct = {
            pipeline: store.get("lego", pipeline)
            .engine.render(camera_indices=(0,), chunk_size=77)
            .image
            for pipeline in ("dense", "spnerf")
        }
        with RenderServer(store, backend=make_backend(backend_name, num_workers=2)) as server:
            jobs = {
                pipeline: server.submit("lego", pipeline, tile_size=77)
                for pipeline in direct
            }
            server.run_until_idle()
            for pipeline, job_id in jobs.items():
                served = server.result(job_id).image
                assert served.tobytes() == direct[pipeline].tobytes(), (
                    f"{pipeline} served under {backend_name} with occupancy "
                    "diverged from the direct render"
                )
            stats = server.stats()
            assert stats.num_culled_samples > 0
            assert stats.num_skipped_rays > 0


# ----------------------------------------------------------------------
# Hardware workload surfacing
# ----------------------------------------------------------------------

class TestWorkloadOccupancy:
    def test_workload_from_render_measures_the_cull(self, spnerf_bundle):
        from repro.hardware.workload import workload_from_render

        workload = workload_from_render(spnerf_bundle, probe_resolution=16)
        assert 0.0 < workload.occupancy_culled_samples_per_ray
        assert workload.occupancy_culled_samples_per_ray <= workload.processed_samples_per_ray
        assert 0.0 <= workload.occupancy_skipped_ray_fraction < 1.0
        assert workload.occupancy_processed_samples < workload.processed_samples
        assert workload.num_culled_samples == int(
            round(workload.occupancy_culled_samples_per_ray * workload.num_rays)
        )

    def test_analytic_workload_defaults_to_no_cull(self, small_scene):
        from repro.hardware.workload import workload_from_scene

        workload = workload_from_scene(small_scene)
        assert workload.occupancy_culled_samples_per_ray == 0.0
        assert workload.num_skipped_rays == 0
        assert workload.occupancy_processed_samples == workload.processed_samples


# ----------------------------------------------------------------------
# Ray-first rendering: generated cameras, spans and rays
# ----------------------------------------------------------------------

#: Counters of a direct render of ``occ_scene`` camera 0 per pipeline:
#: (culled samples, skipped rays, active samples, vertex lookups, unique
#: vertex fetches), guided and unguided.  perfbench's count metrics are
#: ratios of these, so their meaning must not drift with the render path.
PINNED_COUNTERS = {
    ("dense", True): (7318, 350, 1898, 15184, 15184),
    ("dense", False): (0, 0, 1898, 60416, 60416),
    ("vqrf", True): (7422, 358, 1794, 14352, 14352),
    ("vqrf", False): (0, 0, 1794, 60416, 60416),
    ("spnerf", True): (7422, 358, 1794, 14352, 1756),
    ("spnerf", False): (0, 0, 1794, 60416, 1756),
    ("spnerf-nomask", True): (0, 0, 6119, 60416, 4086),
    ("spnerf-nomask", False): (0, 0, 6119, 60416, 4086),
}


@pytest.fixture(scope="module")
def occ_fields(occ_scene):
    return {
        pipeline: build_field(pipeline, occ_scene, OCC_CONFIG)
        for pipeline in ("dense", "vqrf", "spnerf", "spnerf-nomask")
    }


@pytest.mark.parametrize("pipeline,guided", sorted(PINNED_COUNTERS))
def test_render_counters_are_pinned(occ_scene, occ_fields, pipeline, guided):
    stats = (
        RenderEngine(occ_fields[pipeline], occ_scene)
        .render(RenderRequest(camera_indices=(0,), use_occupancy=guided))
        .stats
    )
    counters = (
        stats.num_culled_samples,
        stats.num_skipped_rays,
        stats.num_active_samples,
        stats.num_vertex_lookups,
        stats.num_unique_vertex_fetches,
    )
    assert counters == PINNED_COUNTERS[(pipeline, guided)]


def _render_both(field, scene, render, **config):
    """``render(renderer)`` guided and unguided: (images, stats) pairs."""
    out = []
    for guided in (True, False):
        cfg = replace(scene.render_config, use_occupancy=guided, **config)
        renderer = VolumetricRenderer(field, cfg)
        out.append((render(renderer), renderer.last_stats))
    return out


def _assert_guided_matches_unguided(results, pipeline):
    (guided, guided_stats), (unguided, unguided_stats) = results
    assert guided.tobytes() == unguided.tobytes(), pipeline
    assert guided_stats.num_active_samples == unguided_stats.num_active_samples, pipeline


_unit = st.floats(-1.0, 1.0)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    azimuth=st.floats(0.0, 2.0 * np.pi),
    elevation=st.floats(-1.5, 1.5),
    distance=st.one_of(st.floats(0.05, 0.9), st.floats(1.5, 4.0)),
    target=st.tuples(_unit, _unit, _unit),
    axis=st.sampled_from([None, 0, 1, 2]),
    size=st.integers(1, 9),
    span=st.tuples(st.integers(0, 80), st.integers(1, 81)),
    chunk_size=st.integers(1, 50),
    threshold=st.sampled_from([0.0, 1e-3]),
)
def test_guided_render_is_bit_identical_for_generated_cameras(
    occ_scene, occ_fields, azimuth, elevation, distance, target, axis, size, span,
    chunk_size, threshold,
):
    """Poses inside and outside the bbox, axis-parallel views, any tile span
    and chunk size: guided rendering reproduces unguided rendering exactly."""
    target = 0.6 * np.asarray(target)
    if axis is None:
        offset = np.array(
            [
                np.cos(elevation) * np.cos(azimuth),
                np.cos(elevation) * np.sin(azimuth),
                np.sin(elevation),
            ]
        )
    else:
        # An odd-sized image's centre ray is then exactly axis-parallel.
        offset = np.eye(3)[axis]
    eye = target + distance * offset
    camera = Camera(size, size, focal=1.2 * size, camera_to_world=look_at_pose(eye, target))
    start = min(span[0], camera.num_pixels - 1)
    stop = min(max(span[1], start + 1), camera.num_pixels)
    pixels = np.arange(start, stop)
    lo, hi = occ_scene.bbox_min, occ_scene.bbox_max
    for pipeline, field in occ_fields.items():
        _assert_guided_matches_unguided(
            _render_both(
                field,
                occ_scene,
                lambda r: r.render_image(camera, lo, hi),
                chunk_size=chunk_size,
                transmittance_threshold=threshold,
            ),
            pipeline,
        )
        _assert_guided_matches_unguided(
            _render_both(field, occ_scene, lambda r: r.render_pixels(camera, pixels, lo, hi)),
            pipeline,
        )


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    axis=st.integers(0, 2),
    face=st.integers(0, 1),
    ulps=st.integers(-2, 2),
    along=st.floats(0.0, 1.0),
    backwards=st.booleans(),
)
def test_rays_grazing_the_occupied_region_render_bit_identically(
    occ_scene, occ_fields, axis, face, ulps, along, backwards
):
    """Axis-parallel rays running on (or a few ulps off) a face of the padded
    occupied AABB that the ray clamp uses (``along`` 0 or 1: an edge)."""
    for pipeline, field in occ_fields.items():
        index = build_occupancy_index(field)
        if index is None:
            continue
        lo, hi = index._aabb  # the padded box clip_rays clamps against
        plane_axis = (axis + 1) % 3
        origin = lo + along * (hi - lo)
        plane = (lo, hi)[face][plane_axis]
        origin[plane_axis] = plane + ulps * np.spacing(plane)
        origin[axis] = 3.0 if backwards else -3.0
        direction = np.zeros(3)
        direction[axis] = -1.0 if backwards else 1.0
        rays = ray_aabb_intersect(
            RayBatch(origin[None, :], direction[None, :], np.zeros(1), np.full(1, 6.0)),
            occ_scene.bbox_min,
            occ_scene.bbox_max,
        )
        _assert_guided_matches_unguided(
            _render_both(field, occ_scene, lambda r: r.render_rays(rays)), pipeline
        )
