"""Render hot-path optimisations: decode cache, cull, id-space decode, early termination.

The contract under test: the vertex-reuse decode cache, the empty-cell cull
and the linear-vertex-id decode are pure optimisations — images must be
*bit-identical* with them on or off, and the id-space decoder must equal a
literal per-vertex decode — while early ray termination is an opt-in
approximation bounded by its transmittance threshold.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.api import (
    PipelineConfig,
    RenderEngine,
    RenderRequest,
    SpNeRFConfig,
    build_field,
    field_from_bundle,
)
from repro.core import decoding
from repro.core.addressing import EMPTY_ENTRY
from repro.core.decoding import DecodeStats, OnlineDecoder
from repro.core.hash_mapping import assign_subgrids, spatial_hash
from repro.grid.interpolation import linear_vertex_ids, trilinear_vertices_and_weights
from repro.nerf.renderer import RenderConfig, RenderStats, shade_grid_samples

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


def _reference_decode(model, positions, masking):
    """Literal per-vertex decode: Eq. (1) hash -> table -> bitmap -> address decode."""
    cfg, r = model.config, model.spec.resolution
    m = positions.shape[0]
    density = np.zeros(m, dtype=np.float32)
    features = np.zeros((m, model.feature_dim), dtype=np.float32)
    stats = DecodeStats(num_lookups=m)
    occupancy = model.bitmap.to_dense()
    for i, p in enumerate(positions[:, None, :]):
        subgrid = assign_subgrids(p, r, cfg.num_subgrids)
        slot = spatial_hash(p, cfg.hash_table_size)
        index, entry_density = model.hash_tables.lookup(subgrid, slot)
        # The public reads agree with plain 2-D / 3-D indexing of the tables.
        assert index[0] == model.hash_tables.indices[subgrid[0], slot[0]]
        occupied = model.bitmap.lookup(p)[0]
        assert occupied == occupancy[tuple(p[0])]
        if index[0] == EMPTY_ENTRY:
            stats.num_empty_slots += 1
            continue
        if masking and not occupied:
            stats.num_masked_by_bitmap += 1
            continue
        is_codebook, local = model.address_space.decode(index)
        if is_codebook[0]:
            stats.num_codebook_hits += 1
            features[i] = model.codebook[local[0]]
        else:
            stats.num_true_grid_hits += 1
            row = model.true_features.values[local[0]].astype(np.float32)
            features[i] = row * np.float32(model.true_features.scale)
        density[i] = entry_density[0]
    return density, features, stats


def _grid_vertices(resolution, stored):
    """Vertices anywhere in the grid, on its faces and corners, or stored ones."""
    coord = st.integers(0, resolution - 1)
    edge = st.sampled_from([0, resolution - 1])
    face = st.tuples(edge, coord, coord).flatmap(st.permutations).map(tuple)
    return st.one_of(
        st.tuples(coord, coord, coord),
        face,
        st.tuples(edge, edge, edge),
        st.sampled_from(stored),
    )


class TestVertexIdDecode:
    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        masking=st.booleans(),
        dedup=st.booleans(),
        sort_fallback=st.booleans(),
        as_ids=st.booleans(),
    )
    def test_decode_matches_per_vertex_reference(
        self, spnerf_bundle, data, masking, dedup, sort_fallback, as_ids
    ):
        model = spnerf_bundle.spnerf_model
        r = model.spec.resolution
        stored = [tuple(p) for p in spnerf_bundle.vqrf_model.positions[:256].tolist()]
        distinct = data.draw(st.lists(_grid_vertices(r, stored), min_size=1, max_size=40))
        picks = data.draw(
            st.lists(st.integers(0, len(distinct) - 1), min_size=1, max_size=120)
        )
        positions = np.array([distinct[i] for i in picks], dtype=np.int64)
        decoder = OnlineDecoder(model, use_bitmap_masking=masking, deduplicate=dedup)
        limit = 0 if sort_fallback else decoding._DENSE_DEDUP_LIMIT
        with mock.patch.object(decoding, "_DENSE_DEDUP_LIMIT", limit):
            density, features = decoder.decode_vertices(
                linear_vertex_ids(positions, r) if as_ids else positions
            )
        ref_density, ref_features, ref_stats = _reference_decode(model, positions, masking)
        ref_stats.num_unique_lookups = (
            np.unique(positions, axis=0).shape[0] if dedup else positions.shape[0]
        )
        assert density.dtype == np.float32 and features.dtype == np.float32
        assert density.tobytes() == ref_density.tobytes()
        assert features.tobytes() == ref_features.tobytes()
        assert decoder.stats == ref_stats

    @settings(max_examples=40, deadline=None)
    @given(
        resolution=st.integers(2, 24),
        coords=arrays(
            np.float64,
            st.tuples(st.integers(1, 40), st.just(3)),
            elements=st.one_of(
                st.floats(0.0, 23.0, allow_nan=False), st.integers(0, 23).map(float)
            ),
        ),
    )
    def test_kernel_corner_ids_are_the_linearised_lattice(
        self, small_scene, resolution, coords
    ):
        coords = np.minimum(coords, resolution - 1.0)
        fetched = []

        def fetch(ids):
            fetched.append(ids)
            return np.zeros(ids.size, np.float32), np.zeros((ids.size, 12), np.float32)

        encoded = np.zeros((coords.shape[0], 27))
        shade_grid_samples(coords, fetch, resolution, small_scene.mlp, encoded)
        vertices, _ = trilinear_vertices_and_weights(coords, resolution)
        assert np.array_equal(fetched[0], linear_vertex_ids(vertices, resolution).reshape(-1))

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_out_of_grid_positions_raise(self, spnerf_bundle, data):
        r = spnerf_bundle.spnerf_model.spec.resolution
        coord = st.integers(0, r - 1)
        good = data.draw(st.lists(st.tuples(coord, coord, coord), max_size=20))
        bad = list(data.draw(st.tuples(coord, coord, coord)))
        bad[data.draw(st.integers(0, 2))] = data.draw(
            st.one_of(st.integers(-(1 << 20), -1), st.integers(r, 1 << 20))
        )
        positions = np.array(good + [tuple(bad)], dtype=np.int64)
        positions = positions[data.draw(st.permutations(range(positions.shape[0])))]
        decoder = OnlineDecoder(spnerf_bundle.spnerf_model)
        with pytest.raises(ValueError, match="outside"):
            decoder.decode_vertices(positions)
        with pytest.raises(ValueError, match="outside"):
            decoder.decode_vertices(np.array([-1, r**3]))
        assert decoder.stats == DecodeStats()


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
