"""Tests for the procedural Synthetic-NeRF-analog dataset."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.datasets.scenes as scenes
from repro.datasets.cameras import camera_rig, synthetic_nerf_camera
from repro.datasets.scenes import SCENE_NAMES, build_scene_grid, scene_spec
from repro.datasets.synthetic import load_all_scenes, load_scene


class TestSceneSpecs:
    def test_all_eight_scenes_present(self):
        assert len(SCENE_NAMES) == 8
        assert set(SCENE_NAMES) == {
            "chair", "drums", "ficus", "hotdog", "lego", "materials", "mic", "ship",
        }

    def test_targets_follow_paper_range(self):
        # Fig. 2(b): non-zero fraction between 2.01 % and 6.48 %.
        for name in SCENE_NAMES:
            spec = scene_spec(name)
            assert 0.02 <= spec.target_occupancy <= 0.065

    def test_unknown_scene_rejected(self):
        with pytest.raises(KeyError):
            scene_spec("bulldozer")


class TestSceneGrids:
    @pytest.mark.parametrize("name", ["lego", "ficus", "ship"])
    def test_grid_occupancy_is_sparse(self, name):
        grid = build_scene_grid(name, resolution=48)
        occupancy = grid.occupancy_fraction()
        assert 0.005 < occupancy < 0.20

    def test_occupancy_approaches_target_at_higher_resolution(self):
        grid = build_scene_grid("hotdog", resolution=64)
        target = scene_spec("hotdog").target_occupancy
        assert grid.occupancy_fraction() <= target * 1.3

    def test_features_store_logit_albedo(self):
        grid = build_scene_grid("chair", resolution=32)
        occupied = grid.occupancy_mask()
        features = grid.features[occupied]
        albedo = 1.0 / (1.0 + np.exp(-features[:, :3]))
        assert np.all(albedo > 0.0)
        assert np.all(albedo < 1.0)

    def test_density_constant_inside_object(self):
        grid = build_scene_grid("mic", resolution=32)
        occupied = grid.occupancy_mask()
        assert np.all(grid.density[occupied] > 0.0)
        assert np.all(grid.density[~occupied] == 0.0)

    def test_deterministic_given_seed(self):
        a = build_scene_grid("drums", resolution=24, seed=3)
        b = build_scene_grid("drums", resolution=24, seed=3)
        assert np.array_equal(a.density, b.density)
        assert np.array_equal(a.features, b.features)

    def test_different_scenes_differ(self):
        a = build_scene_grid("lego", resolution=24)
        b = build_scene_grid("ship", resolution=24)
        assert not np.array_equal(a.density, b.density)

    @pytest.mark.parametrize("feature_dim", [1, 2])
    def test_build_scene_grid_rejects_feature_dim_below_three(self, feature_dim):
        with pytest.raises(ValueError, match="feature_dim"):
            build_scene_grid("lego", resolution=16, feature_dim=feature_dim)

    @pytest.mark.parametrize("feature_dim", [1, 2])
    def test_load_scene_rejects_feature_dim_below_three(self, feature_dim):
        # Lego has no occupied voxel at resolution 2, which once let this pass.
        for resolution in (2, 16):
            with pytest.raises(ValueError, match="feature_dim"):
                load_scene("lego", resolution=resolution, feature_dim=feature_dim)


def _sha256(array):
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


# sha256 of (density, features) of each scene grid, recorded before the
# narrow-band voxelisation: it must reproduce the full-grid evaluation's bits.
_SCENE_DIGESTS = {
    ("chair", 48): ("8675705f3c389d80709ec58e10be188d274afe59692886344528dabbaf291f58",
                    "84ad4ced4d5033372496f24e15489d7c3d9f81b97a16345ff94fe1c38f3d2f90"),
    ("drums", 48): ("8478ddcc3fd4a56f1d55fbb1945721ac134af99dd688d180a3bf8b4fd30cf134",
                    "e4250a346839d6f50c92c9cbb48e5f88d4a889faf88e019ebb6d9d7669c03366"),
    ("ficus", 48): ("ca2b37e1eb1a5d526c2a8c36759368aa1aa82eff1af3e719ce2f66a5c22a0827",
                    "a0552df2b00e0340384e362b36be27b359fe2e6782c268e4984f3b746a12402c"),
    ("hotdog", 48): ("face5739ba1c6e0cafa1516d8868aae6c97d015f4d2d4df486db4bda6b9836a0",
                     "f7cfcd45b1fa963c0c5ee13c150d2172755ba1b4ba5e4295b650a21a186d119f"),
    ("lego", 48): ("3d51feb6e1237f14ff479d17cb14e0ff6d203af9a5af75a5ab78e0d44a03f676",
                   "2aca6b995674d8449e71dce9a80cd5d7163a543302b2bd1f06d3e7d6174736c6"),
    ("materials", 48): ("5aa7ab223f36537c01691d6f6fbf5d364f3916dc74df7bc0008350be247b3164",
                        "6fa3a9f1e3a53538a14cea52e218d7c5c9b478c14571b78f9df034e30a5ccf5a"),
    ("mic", 48): ("064b3a0a3a64826883f46303f9fe89a92b9144f94e3e8e5655a2e13cb5511fce",
                  "f9e31fe485bec87b4c670b424da301467f682decbe635344b5fdbcc346d6b1d8"),
    ("ship", 48): ("ad335ff63526bb77f329bfec97a383d4a350d8c4ccd931296fcd183aded9c163",
                   "985c75f09b12fddd10040437ad8af63187373b697177c9d89f7580b900490c52"),
    ("chair", 64): ("8b032f5b51ab041838dc869c192ce06bb004e64b99cb2cdf74b548c51e985ff9",
                    "6d052cffc61405cad261ffb9ccd7ef1a20b5c83d07f72f47d89af801c6f8d2e0"),
    ("drums", 64): ("e8aa0ea061f5b0592ae5e6f001eb4dc72eeb9e4a99d2aab656c09bb965661c17",
                    "49fa4b8d600355cc9b293ccb95c6eb6e42e48ed214e24f2ac38142925d6d7bdf"),
    ("ficus", 64): ("d359e7e58aa4025ca72b1e07667f39d53b3e1477615f80a640ee9dc59126ff70",
                    "9ee76daf1ba881cf9c7b48ef6830d4b182f82d5959aeb631c7de8573621c5c1f"),
    ("hotdog", 64): ("6365550fa8fd859af959dec259db8596a3161ec6b9c36594f6119233a489c637",
                     "89b9b0305e328b3281adefb3589b40f2a0b11d47f9821b0b7b8cc3b02bd5562b"),
    ("lego", 64): ("cc1558a145792c90917edb6fa4edb00d9ee08e62fb32cc00e4ad9ad3d1e9b711",
                   "656330265b3a2979c7079afd5b5df74f3ea541ec10f9392ff8586273f465e472"),
    ("materials", 64): ("a2ee290a57f240d20069b050025f843e2fb72b897f26c7a8b0b0a337bf0aca49",
                        "d637c7548adf256589b8975c1b3779eb0a32779ccdebe48074bf09792fcf295c"),
    ("mic", 64): ("ae10a3e0e89c5721e67a9852dae776d18f50eb670de673f552be7dce98891a93",
                  "06443747c79f4e2406b9273981874efb9327d2226cd4eceda516facd7fdc200e"),
    ("ship", 64): ("68bd4c6298451cfa3942ae3d6871f86d469dda418a530711cc29b3b4f7ce04b2",
                   "67c00dbed997d249359c7e3b3ec80f5970bb0032a43c34279aa9532f18e505f1"),
    ("lego", 160): ("2f9a57ab48d0665703bcc6b4c1907fdf324fd232501e6acc25eb5bbeeac1b172",
                    "e89a11e8d4bb71bb35871f5662306362252684f5496238f38d55cb41828448ad"),
}


@pytest.mark.parametrize(
    "name, resolution", list(_SCENE_DIGESTS), ids=[f"{n}{r}" for n, r in _SCENE_DIGESTS]
)
def test_scene_grid_bits_are_pinned(name, resolution):
    grid = load_scene(name, resolution=resolution, image_size=8, num_views=1).grid
    assert (_sha256(grid.density), _sha256(grid.features)) == _SCENE_DIGESTS[name, resolution]


def _full_grid_occupancy(name, resolution):
    """The occupancy test on every grid vertex, as the band must reproduce it."""
    axis = np.linspace(-1.0, 1.0, resolution)
    xs, ys, zs = np.meshgrid(axis, axis, axis, indexing="ij")
    points = np.stack([xs, ys, zs], axis=-1).reshape(-1, 3)
    distance = scenes._GEOMETRIES[name](points / scene_spec(name).geometry_scale)
    voxel = 2.0 / (resolution - 1)
    return (distance < 0.5 * voxel).reshape(resolution, resolution, resolution)


@pytest.mark.parametrize("name", SCENE_NAMES)
@settings(max_examples=25, deadline=None)
@given(resolution=st.integers(2, 40), block=st.integers(1, 8))
def test_narrow_band_matches_full_grid_evaluation(name, resolution, block):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scenes, "_BAND_BLOCK", block)
        band = scenes._occupied_vertices(
            scenes._GEOMETRIES[name], resolution, scene_spec(name).geometry_scale
        )
    np.testing.assert_array_equal(band, _full_grid_occupancy(name, resolution))


class TestCameras:
    def test_full_resolution_matches_synthetic_nerf(self):
        camera = synthetic_nerf_camera(azimuth_deg=30.0)
        assert camera.width == 800
        assert camera.height == 800
        assert camera.focal == pytest.approx(1111.111)

    def test_scaled_resolution_preserves_fov(self):
        full = synthetic_nerf_camera(0.0)
        small = synthetic_nerf_camera(0.0, width=100, height=100)
        assert small.focal / small.width == pytest.approx(full.focal / full.width)

    def test_rig_spacing(self):
        rig = camera_rig(num_views=8, width=64, height=64)
        assert len(rig) == 8
        positions = np.array([c.position for c in rig])
        radii = np.linalg.norm(positions, axis=1)
        assert np.allclose(radii, radii[0])

    def test_rig_rejects_zero_views(self):
        with pytest.raises(ValueError):
            camera_rig(num_views=0)


class TestSyntheticScene:
    def test_load_scene_bundles_everything(self, small_scene):
        assert small_scene.name == "lego"
        assert len(small_scene.cameras) == 2
        assert small_scene.mlp.spec.input_dim == 39

    def test_sparse_grid_cached(self, small_scene):
        assert small_scene.sparse_grid is small_scene.sparse_grid

    def test_reference_image_cached(self, small_scene):
        first = small_scene.reference_image(0)
        second = small_scene.reference_image(0)
        assert first is second

    def test_workload_summary_consistent(self, small_scene):
        summary = small_scene.workload_summary()
        assert summary["num_nonzero"] == small_scene.sparse_grid.num_points
        assert summary["occupancy"] == pytest.approx(small_scene.occupancy_fraction())

    def test_load_all_scenes_names(self):
        scenes = load_all_scenes(resolution=16, image_size=20, num_views=1, num_samples=8)
        assert [s.name for s in scenes] == list(SCENE_NAMES)

    def test_invalid_scene_name(self):
        with pytest.raises(KeyError):
            load_scene("castle", resolution=16)
