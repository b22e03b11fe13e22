"""The k-means codebook: pinned bits, the shared distance kernel, argument checks."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.api import PipelineConfig, compress_with_cache, load_scene
from repro.core.config import SpNeRFConfig
from repro.core.preprocessing import preprocess
from repro.grid.voxel_grid import GridSpec, SparseVoxelGrid
from repro.vqrf.model import compress_scene
from repro.vqrf.vector_quantization import _BLOCK_ROWS, _nearest_centroids, build_codebook


def _sha256(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


# ----------------------------------------------------------------------
# Pinned codebook bits
# ----------------------------------------------------------------------
# Render guards compare spnerf with spnerf on the same codebook, so only these
# digests notice a k-means change that moves a centroid by one ulp.
def test_small_scene_codebook_bits_are_pinned(vqrf_model):
    assert _sha256(vqrf_model.quantizer.codebook) == (
        "5c4b23d194afefba34631e8358d7d16fe166f943c297b871023cf6cdd72fa81c"
    )
    assert _sha256(vqrf_model.codebook_indices) == (
        "19d48752d8b9532c4d1e6294c868aabdbb4d43083594f837568bdad537190c8b"
    )


def test_lego64_default_config_codebook_bits_are_pinned():
    scene = load_scene("lego", resolution=64, image_size=8, num_views=1)
    model = compress_with_cache(scene, PipelineConfig())
    assert model.quantizer.codebook.shape == (4096, 12)
    assert _sha256(model.quantizer.codebook) == (
        "56112ec3d7da204eb15a6de99155f3b69653cfeac08bca4362f5f30b0c231ba6"
    )
    assert _sha256(model.codebook_indices) == (
        "16638036508149ab89905a1a1e76730ef6e631bb56ceff508a76bcd20b8466b5"
    )


# ----------------------------------------------------------------------
# The blocked kernel against the literal unblocked expression
# ----------------------------------------------------------------------
def _unblocked_reference(vectors, centroids):
    dists = (
        np.sum(vectors ** 2, axis=1)[:, None]
        - 2.0 * vectors @ centroids.T
        + np.sum(centroids ** 2, axis=1)[None, :]
    )
    return np.argmin(dists, axis=1), dists.min(axis=1)


@st.composite
def _kernel_cases(draw):
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    rows = draw(
        st.sampled_from([0, 1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 3 * _BLOCK_ROWS + 5])
    )
    dim = draw(st.integers(1, 12))
    values = st.floats(-4.0, 4.0, width=32)
    vectors = draw(arrays(dtype, (rows, dim), elements=values))
    distinct = draw(arrays(dtype, (draw(st.integers(1, 24)), dim), elements=values))
    # Rows drawn with repeats: duplicate centroids tie exactly.
    picks = draw(st.lists(st.integers(0, len(distinct) - 1), min_size=1, max_size=40))
    return vectors, distinct[picks]


@settings(max_examples=60, deadline=None)
@given(case=_kernel_cases())
def test_kernel_matches_unblocked_expression(case):
    vectors, centroids = case
    index, dist = _nearest_centroids(vectors, centroids)
    ref_index, ref_dist = _unblocked_reference(vectors, centroids)
    assert dist.dtype == vectors.dtype
    np.testing.assert_array_equal(index, ref_index)
    assert dist.tobytes() == ref_dist.tobytes()
    # The lowest of several identical centroids wins the tie.
    _, first, group = np.unique(centroids, axis=0, return_index=True, return_inverse=True)
    np.testing.assert_array_equal(index, first[group][index])


def test_kernel_matches_unblocked_expression_at_codebook_width():
    rng = np.random.default_rng(7)
    vectors = rng.normal(size=(3 * _BLOCK_ROWS + 5, 12))
    centroids = rng.normal(size=(4096, 12))
    for dtype in (np.float32, np.float64):
        x, c = vectors.astype(dtype), centroids.astype(dtype)
        index, dist = _nearest_centroids(x, c)
        ref_index, ref_dist = _unblocked_reference(x, c)
        np.testing.assert_array_equal(index, ref_index)
        assert dist.tobytes() == ref_dist.tobytes()


# ----------------------------------------------------------------------
# Argument checks
# ----------------------------------------------------------------------
_VECTORS = np.random.default_rng(0).normal(size=(40, 4))


@pytest.mark.parametrize(
    "kwargs, name",
    [
        ({"num_entries": 0}, "num_entries"),
        ({"num_entries": -3}, "num_entries"),
        ({"sample_limit": 0}, "sample_limit"),
        ({"num_iterations": -1}, "num_iterations"),
    ],
)
def test_build_codebook_rejects_bad_argument(kwargs, name):
    with pytest.raises(ValueError, match=name):
        build_codebook(_VECTORS, **kwargs)


def test_encode_rejects_column_mismatch():
    quantizer = build_codebook(_VECTORS, num_entries=8, num_iterations=1)
    with pytest.raises(ValueError, match="vectors"):
        quantizer.encode(np.zeros((3, 5)))


# ----------------------------------------------------------------------
# Empty scenes
# ----------------------------------------------------------------------
def test_empty_training_set_pads_to_num_entries():
    quantizer = build_codebook(np.zeros((0, 12)), num_entries=64)
    assert quantizer.codebook.shape == (64, 12)


def test_empty_scene_compresses_and_preprocesses():
    spec = GridSpec(resolution=16, feature_dim=12)
    empty = SparseVoxelGrid(spec, np.zeros((0, 3)), np.zeros(0), np.zeros((0, 12)))
    model = compress_scene(empty, codebook_size=64)
    assert model.quantizer.num_entries == 64
    spnerf = preprocess(model, SpNeRFConfig(codebook_size=64, num_subgrids=8, hash_table_size=256))
    assert spnerf.codebook.shape == (64, 12)
    assert spnerf.bitmap.num_occupied == 0
