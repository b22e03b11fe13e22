"""Render hot-path optimisations: decode cache, cull, early termination.

The contract under test: the vertex-reuse decode cache and the empty-cell
cull are pure optimisations — images must be *bit-identical* with them on or
off — while early ray termination is an opt-in approximation bounded by its
transmittance threshold.
"""

import numpy as np
import pytest

from repro.api import (
    PipelineConfig,
    RenderEngine,
    RenderRequest,
    SpNeRFConfig,
    build_field,
    field_from_bundle,
)
from repro.core.decoding import OnlineDecoder, pack_vertex_keys
from repro.nerf.renderer import RenderConfig, RenderStats

#: Mirrors tests/conftest.py's TEST_CONFIG (import-free so the module works
#: under any pytest rootdir layout).
API_CONFIG = PipelineConfig(
    spnerf=SpNeRFConfig(num_subgrids=8, hash_table_size=1024, codebook_size=64)
)

ALL_PIPELINES = ("dense", "vqrf", "spnerf", "spnerf-nomask")


def _render_image(field, scene, **kwargs):
    return RenderEngine(field, scene).render(RenderRequest(camera_indices=(0,), **kwargs))


class TestDecodeCacheEquivalence:
    @pytest.mark.parametrize("pipeline", ALL_PIPELINES)
    def test_dedup_images_bit_identical(self, small_scene, pipeline):
        on = build_field(pipeline, small_scene, API_CONFIG)
        off = build_field(
            pipeline, small_scene, API_CONFIG.with_updates(dedup_vertices=False)
        )
        img_on = _render_image(on, small_scene).image
        img_off = _render_image(off, small_scene).image
        assert img_on.dtype == img_off.dtype
        assert np.array_equal(img_on, img_off)

    @pytest.mark.parametrize("pipeline", ("spnerf", "spnerf-nomask"))
    def test_cull_images_bit_identical(self, spnerf_bundle, small_scene, pipeline):
        culled = field_from_bundle(spnerf_bundle, pipeline, cull_empty_samples=True)
        exhaustive = field_from_bundle(spnerf_bundle, pipeline, cull_empty_samples=False)
        img_culled = _render_image(culled, small_scene).image
        img_full = _render_image(exhaustive, small_scene).image
        assert np.array_equal(img_culled, img_full)

    def test_full_pre_pr_path_bit_identical(self, spnerf_bundle, small_scene):
        """All optimisations off at once reproduces the optimised image."""
        baseline = field_from_bundle(
            spnerf_bundle, "spnerf", dedup_vertices=False, cull_empty_samples=False
        )
        optimised = field_from_bundle(spnerf_bundle, "spnerf")
        assert np.array_equal(
            _render_image(baseline, small_scene).image,
            _render_image(optimised, small_scene).image,
        )

    def test_decoder_output_and_logical_stats_identical(self, spnerf_bundle, rng):
        positions = spnerf_bundle.vqrf_model.positions[:64].astype(np.int64)
        repeated = positions[rng.integers(0, positions.shape[0], size=600)]
        deduped = OnlineDecoder(spnerf_bundle.spnerf_model, deduplicate=True)
        exhaustive = OnlineDecoder(spnerf_bundle.spnerf_model, deduplicate=False)
        d_a, f_a = deduped.decode_vertices(repeated)
        d_b, f_b = exhaustive.decode_vertices(repeated)
        assert np.array_equal(d_a, d_b)
        assert np.array_equal(f_a, f_b)
        # Every logical counter matches; only the physical count differs.
        for name in (
            "num_lookups",
            "num_empty_slots",
            "num_masked_by_bitmap",
            "num_codebook_hits",
            "num_true_grid_hits",
        ):
            assert getattr(deduped.stats, name) == getattr(exhaustive.stats, name)
        assert deduped.stats.num_unique_lookups <= positions.shape[0]
        assert exhaustive.stats.num_unique_lookups == repeated.shape[0]


class TestReuseCounters:
    def test_unique_fetches_bounded_and_reuse_sane(self, spnerf_bundle, small_scene):
        # Cull off isolates the decode cache: the reuse ratio is then exactly
        # "corner lookups per unique vertex", which adjacent samples push
        # well above 1 on any structured scene.
        field = field_from_bundle(spnerf_bundle, "spnerf", cull_empty_samples=False)
        result = _render_image(field, small_scene)
        stats = result.stats
        assert 0 < stats.num_unique_vertex_fetches <= stats.num_vertex_lookups
        assert 2.0 <= stats.vertex_reuse_ratio <= 8.0 * small_scene.render_config.num_samples

    def test_reuse_counters_in_summary(self, spnerf_bundle, small_scene):
        field = field_from_bundle(spnerf_bundle, "spnerf")
        summary = _render_image(field, small_scene).as_dict()
        assert summary["num_unique_vertex_fetches"] <= summary["num_vertex_lookups"]
        assert summary["vertex_reuse_ratio"] >= 1.0

    def test_dense_field_reports_no_reuse(self, small_scene):
        field = build_field("dense", small_scene, API_CONFIG)
        stats = _render_image(field, small_scene).stats
        assert stats.num_unique_vertex_fetches == stats.num_vertex_lookups
        assert stats.vertex_reuse_ratio == 1.0

    def test_stats_merge_and_default_ratio(self):
        total = RenderStats()
        total.merge(RenderStats(num_vertex_lookups=80, num_unique_vertex_fetches=20))
        total.merge(RenderStats(num_vertex_lookups=20, num_unique_vertex_fetches=5))
        assert total.num_unique_vertex_fetches == 25
        assert total.vertex_reuse_ratio == pytest.approx(4.0)
        assert RenderStats().vertex_reuse_ratio == 1.0

    def test_pack_vertex_keys_unique_and_range_guard(self, rng):
        positions = rng.integers(-50, 50, size=(500, 3)).astype(np.int64)
        keys = pack_vertex_keys(positions)
        unique_rows = np.unique(positions, axis=0).shape[0]
        assert np.unique(keys).shape[0] == unique_rows
        assert pack_vertex_keys(np.array([[0, 0, 1 << 21]], dtype=np.int64)) is None


class TestEarlyTermination:
    def test_threshold_zero_is_exhaustive_default(self):
        config = RenderConfig()
        assert config.transmittance_threshold == 0.0
        fast = config.fast()
        assert fast.transmittance_threshold > 0.0
        assert fast.num_samples == config.num_samples
        assert config.fast(transmittance_threshold=1e-2).transmittance_threshold == 1e-2

    def test_terminated_render_close_and_cheaper(self, spnerf_bundle, small_scene):
        field = field_from_bundle(spnerf_bundle, "spnerf")
        full = _render_image(field, small_scene, compare_to_reference=True)
        fast = _render_image(
            field,
            small_scene,
            compare_to_reference=True,
            transmittance_threshold=1e-3,
        )
        # The skipped tail carries at most `threshold` of the pixel energy.
        assert np.allclose(fast.image, full.image, atol=5e-3)
        assert fast.psnr[0] == pytest.approx(full.psnr[0], abs=0.5)
        assert fast.stats.num_vertex_lookups <= full.stats.num_vertex_lookups
        assert fast.stats.num_samples == full.stats.num_samples  # logical count

    def test_termination_on_dense_reference(self, small_scene):
        field = build_field("dense", small_scene, API_CONFIG)
        full = _render_image(field, small_scene)
        fast = _render_image(field, small_scene, transmittance_threshold=1e-3)
        assert np.allclose(fast.image, full.image, atol=5e-3)
