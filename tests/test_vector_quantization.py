"""The k-means codebook: pinned bits, the shared distance kernel, exact incremental
Lloyd iterations against plain ones, argument checks."""

import hashlib
import multiprocessing
import threading

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
import repro.vqrf.vector_quantization as vq
from repro.vqrf.vector_quantization import (
    _BLOCK_ROWS,
    _SCRATCH_BYTES,
    _nearest_centroids,
    build_codebook,
)


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


# The codebooks the benchmark workloads serve; lego 64³ at 20 iterations
# reaches its exact fixed point after 7, so the loop stops early there.
@pytest.mark.parametrize(
    "name, resolution, iterations, codebook_sha, indices_sha",
    [
        pytest.param(
            "lego", 48, 6,
            "28f240d2021963e6ec5475e57e712b8c6f21645912cd4a6b291c345a2c9871b1",
            "f2763ec726878d001c3b1ed1ac7a59e4da4690b676c85d375c0c73d948956804",
            id="lego48",
        ),
        pytest.param(
            "chair", 48, 6,
            "e82b2e349391ad3376d3a51f5ccb78eac799eeb6c667d49f8329f0e31a311283",
            "9f85b56fadc72c99f40b5797d38c7a266a8c6e6c3d697ca9b64257c2f168b0eb",
            id="chair48",
        ),
        pytest.param(
            "ship", 48, 6,
            "40ebd7d4d4378296f14f02e25c657da43e4e611997bbfdfd9063f631d40d539d",
            "08d05f7eacf535a92856ffdd29b11d7997be8644821eba76483ba1df4dc55039",
            id="ship48",
        ),
        pytest.param(
            "lego", 64, 20,
            "56112ec3d7da204eb15a6de99155f3b69653cfeac08bca4362f5f30b0c231ba6",
            "16638036508149ab89905a1a1e76730ef6e631bb56ceff508a76bcd20b8466b5",
            id="lego64-20-iterations",
        ),
    ],
)
def test_benchmark_scene_codebook_bits_are_pinned(
    name, resolution, iterations, codebook_sha, indices_sha
):
    assert PipelineConfig().kmeans_iterations == 6
    scene = load_scene(name, resolution=resolution, image_size=8, num_views=1)
    model = compress_with_cache(scene, PipelineConfig(kmeans_iterations=iterations))
    assert _sha256(model.quantizer.codebook) == codebook_sha
    assert _sha256(model.codebook_indices) == indices_sha


# ----------------------------------------------------------------------
# The blocked kernel against the literal unblocked expression
# ----------------------------------------------------------------------
def _unblocked_distances(vectors, centroids):
    return (
        np.sum(vectors ** 2, axis=1)[:, None]
        - 2.0 * vectors @ centroids.T
        + np.sum(centroids ** 2, axis=1)[None, :]
    )


def _unblocked_reference(vectors, centroids):
    dists = _unblocked_distances(vectors, centroids)
    return np.argmin(dists, axis=1), dists.min(axis=1)


# The same expression on each 32-row unit from row 0, the shape of the
# kernel's BLAS calls.  It is the reference where the whole-array expression
# is not one: on OpenBLAS a 1-row tail (n % 32 == 1) or a single centroid
# goes through gemv or dot instead of gemm and rounds differently from the
# whole-array call (about one draw in 150 of this strategy).
def _unit_distances(vectors, centroids):
    units = np.split(vectors, np.arange(_BLOCK_ROWS, len(vectors), _BLOCK_ROWS))
    return np.concatenate([_unblocked_distances(unit, centroids) for unit in units])


@st.composite
def _kernel_cases(draw):
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    dim = draw(st.integers(1, 12))
    values = st.floats(-4.0, 4.0, width=32)
    distinct = draw(arrays(dtype, (draw(st.integers(1, 24)), dim), elements=values))
    # Rows drawn with repeats: duplicate centroids tie exactly.  [0] is K = 1.
    repeats = st.lists(st.integers(0, len(distinct) - 1), min_size=1, max_size=40)
    picks = draw(st.one_of(st.just([0]), repeats))
    centroids = distinct[picks]
    # Rows around the 32-row unit and around the batch of units that share
    # one matmul call, which depends on the centroid count.
    units = max(1, _SCRATCH_BYTES // (_BLOCK_ROWS * len(centroids) * np.dtype(dtype).itemsize))
    batch = units * _BLOCK_ROWS
    rows = draw(
        st.sampled_from(
            [0, 1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 3 * _BLOCK_ROWS + 5,
             batch - 1, batch, batch + 1, batch + _BLOCK_ROWS + 1]
        )
    )
    if rows <= 3 * _BLOCK_ROWS + 5:
        vectors = draw(arrays(dtype, (rows, dim), elements=values))
    else:
        base = draw(arrays(dtype, (draw(st.integers(1, 40)), dim), elements=values))
        vectors = base[(np.arange(rows) * 7919) % len(base)]
    return vectors, centroids


@settings(max_examples=60, deadline=None)
@given(case=_kernel_cases())
def test_kernel_matches_unblocked_expression(case):
    vectors, centroids = case
    index, dist = _nearest_centroids(vectors, centroids)
    gemv_tail = len(vectors) % _BLOCK_ROWS == 1
    if gemv_tail or len(centroids) == 1:
        dists = _unit_distances(vectors, centroids)
        ref_index, ref_dist = np.argmin(dists, axis=1), dists.min(axis=1)
    else:
        dists = _unblocked_distances(vectors, centroids)
        ref_index, ref_dist = _unblocked_reference(vectors, centroids)
    assert dist.dtype == vectors.dtype
    np.testing.assert_array_equal(index, ref_index)
    assert dist.tobytes() == ref_dist.tobytes()
    # The lowest of several identical centroids wins the tie.  Not in a 1-row
    # tail: gemv rounds identical columns differently by their position.
    checked = index[: len(vectors) - gemv_tail]
    _, first, group = np.unique(centroids, axis=0, return_index=True, return_inverse=True)
    np.testing.assert_array_equal(checked, first[group][checked])
    # The runner-up is the second-smallest entry of the row (inf with K = 1).
    _, _, second = _nearest_centroids(vectors, centroids, runner_up=True)
    if len(centroids) == 1:
        assert np.all(second == np.inf)
    else:
        assert second.tobytes() == np.partition(dists, 1, axis=1)[:, 1].tobytes()


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
# build_codebook against plain Lloyd iterations
# ----------------------------------------------------------------------
# A literal copy of the kernel, seeding and Lloyd loop that evaluate every row
# against every centroid on every iteration.  The incremental loop must
# return the same bits, not merely a close codebook.
_PLAIN_BLOCK_ROWS = 32


def _plain_nearest_centroids(vectors, centroids):
    n = vectors.shape[0]
    index = np.empty(n, dtype=np.int64)
    dist = np.empty(n, dtype=vectors.dtype)
    x_sq = np.sum(vectors ** 2, axis=1)
    c_sq = np.sum(centroids ** 2, axis=1)
    twice_t = (2 * centroids).T
    scratch = np.empty((min(_PLAIN_BLOCK_ROWS, n), centroids.shape[0]), dtype=vectors.dtype)
    rows = np.arange(scratch.shape[0])
    for start in range(0, n, _PLAIN_BLOCK_ROWS):
        stop = min(start + _PLAIN_BLOCK_ROWS, n)
        block = scratch[: stop - start]
        np.matmul(vectors[start:stop], twice_t, out=block)
        np.subtract(x_sq[start:stop, None], block, out=block)
        block += c_sq
        block.argmin(axis=1, out=index[start:stop])
        dist[start:stop] = block[rows[: stop - start], index[start:stop]]
    return index, dist


def _plain_kmeans_plus_plus_init(vectors, num_clusters, rng):
    n = vectors.shape[0]
    centroids = np.empty((num_clusters, vectors.shape[1]), dtype=np.float64)
    first = rng.integers(0, n)
    centroids[0] = vectors[first]
    closest_sq = np.sum((vectors - centroids[0]) ** 2, axis=1)
    seeded = 1
    group = max(1, num_clusters // 32)
    while seeded < num_clusters:
        count = min(group, num_clusters - seeded)
        total = closest_sq.sum()
        if total <= 0.0:
            centroids[seeded:] = vectors[rng.integers(0, n, size=num_clusters - seeded)]
            seeded = num_clusters
            break
        probs = closest_sq / total
        choices = rng.choice(n, size=count, p=probs, replace=True)
        new_centroids = vectors[choices]
        centroids[seeded : seeded + count] = new_centroids
        dist = _plain_nearest_centroids(vectors, new_centroids)[1]
        closest_sq = np.minimum(closest_sq, np.maximum(dist, 0.0))
        seeded += count
    return centroids


def _plain_lloyd(train, centroids, num_iterations):
    k = centroids.shape[0]
    for _ in range(num_iterations):
        assignment = _plain_nearest_centroids(train, centroids)[0]
        counts = np.bincount(assignment, minlength=k).astype(np.float64)
        sums = np.zeros((k, train.shape[1]), dtype=np.float64)
        np.add.at(sums, assignment, train)
        nonempty = counts > 0
        centroids[nonempty] = sums[nonempty] / counts[nonempty, None]
    return centroids


def _plain_build_codebook(vectors, num_entries, num_iterations, seed, sample_limit):
    rng = np.random.default_rng(seed)
    n = vectors.shape[0]
    if n == 0:
        return np.zeros((num_entries, vectors.shape[1]), dtype=np.float32)
    train = vectors
    if n > sample_limit:
        train = vectors[rng.choice(n, size=sample_limit, replace=False)]
    k = int(min(num_entries, train.shape[0]))
    centroids = _plain_lloyd(train, _plain_kmeans_plus_plus_init(train, k, rng), num_iterations)
    if k < num_entries:
        pad = centroids[rng.integers(0, k, size=num_entries - k)]
        centroids = np.vstack([centroids, pad])
    return centroids.astype(np.float32)


def _assert_matches_plain(vectors, num_entries, num_iterations, seed=0, sample_limit=50000):
    quantizer = build_codebook(
        vectors, num_entries=num_entries, num_iterations=num_iterations, seed=seed,
        sample_limit=sample_limit,
    )
    codebook = _plain_build_codebook(
        np.ascontiguousarray(vectors), num_entries, num_iterations, seed, sample_limit
    )
    assert quantizer.codebook.tobytes() == codebook.tobytes()
    queries = np.ascontiguousarray(vectors, dtype=np.float32)
    np.testing.assert_array_equal(
        quantizer.encode(queries), _plain_nearest_centroids(queries, codebook)[0]
    )


@st.composite
def _training_sets(draw):
    dim = draw(st.integers(1, 12))
    # n % 32 in {0, 1, 31}: whole units only, a 1-row gemv tail, a 31-row tail.
    rows = _BLOCK_ROWS * draw(st.integers(0, 6)) + draw(st.sampled_from([0, 1, 31]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    # Full-mantissa float64 values around a few centres, so the Lloyd loop
    # settles and only some centroids move late on.
    centres = rng.normal(scale=4.0, size=(draw(st.integers(1, 8)), dim))
    vectors = centres[rng.integers(0, len(centres), rows)] + rng.normal(size=(rows, dim))
    if rows and draw(st.booleans()):
        # Duplicate rows seed duplicate centroids, which tie.
        vectors = vectors[rng.integers(0, draw(st.integers(1, rows)), rows)]
    # K = 1; K < 64 (one column per seeding call); N >> K, N ~ K and N < K.
    num_entries = draw(
        st.one_of(
            st.just(1),
            st.integers(2, 63),
            st.integers(64, max(64, rows // 2)),
            st.integers(max(1, rows - 3), rows + 3),
            st.integers(rows + 4, rows + 100),
        )
    )
    if draw(st.booleans()):
        vectors = np.asfortranarray(vectors)  # the codebook ignores memory layout
    return vectors, num_entries


@settings(max_examples=150, deadline=None)
@given(
    case=_training_sets(),
    num_iterations=st.integers(0, 12),
    seed=st.integers(0, 2 ** 16),
    subsample=st.booleans(),
)
def test_build_codebook_matches_plain_lloyd(case, num_iterations, seed, subsample):
    vectors, num_entries = case
    sample_limit = max(1, len(vectors) // 2) if subsample else 50000
    _assert_matches_plain(vectors, num_entries, num_iterations, seed, sample_limit)


def _clustered(seed, rows, dim, centres):
    rng = np.random.default_rng(seed)
    means = rng.normal(scale=4.0, size=(centres, dim))
    return means[rng.integers(0, centres, rows)] + rng.normal(size=(rows, dim))


def _duplicated(seed, rows, dim, distinct):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(distinct, dim))[rng.integers(0, distinct, rows)]


@pytest.mark.parametrize(
    "vectors, num_entries, path",
    [
        pytest.param(_clustered(0, 2000, 12, 20), 256, "incremental", id="incremental"),
        pytest.param(_clustered(1, 500, 6, 500), 64, "fallback", id="full-pass-fallback"),
        pytest.param(_duplicated(0, 300, 5, 60), 200, "near_tie", id="near-tie-recompute"),
    ],
)
def test_each_lloyd_path_matches_plain_lloyd(monkeypatch, vectors, num_entries, path):
    taken = {"incremental": 0, "full": 0, "near_tie": 0}
    kernel, reassign = vq._nearest_centroids, vq._reassign

    def spy_kernel(rows, centroids, runner_up=False):
        if rows is vectors and len(centroids) == num_entries:
            taken["full"] += 1
        elif rows.base is vectors and not runner_up:
            taken["near_tie"] += 1  # a 32-row unit sliced from the training set
        return kernel(rows, centroids, runner_up)

    def spy_reassign(*args):
        taken["incremental"] += 1
        return reassign(*args)

    monkeypatch.setattr(vq, "_nearest_centroids", spy_kernel)
    monkeypatch.setattr(vq, "_reassign", spy_reassign)
    _assert_matches_plain(vectors, num_entries, num_iterations=12)
    assert taken["incremental"] >= 1
    if path == "fallback":
        assert taken["full"] >= 2  # the first pass, then at least one more
    if path == "near_tie":
        assert taken["near_tie"] >= 1


def _gemv_tail_tie():
    """Lloyd data on which only the margin keeps a 1-row gemv tail from a wrong tie.

    Centroids 0 and 4 coincide; centroid 1 owns 32 rows near 4 e0 and the row
    r = 1.1 e0 (row 32), and is the only centroid the first update moves.  In
    the second iteration its 33 rows are re-evaluated in one call, whose last
    row is a 1-row unit.  For r, centroids 0 and 4 are now nearest and tie
    exactly in a full pass, which picks 0.  On this draw OpenBLAS's gemv
    rounds r's distance to centroid 4, the column it handles apart from the
    first four, lower by an ulp; a margin of zero, or of 1e-5 of the proven
    one, keeps centroid 4 and the codebooks part.
    """
    dim = 8
    rng = np.random.default_rng(110)
    e = np.eye(dim)
    p = rng.normal(scale=0.3, size=dim)
    s = 4.0 * e[0] + rng.normal(scale=0.3, size=(32, dim))
    r = 1.1 * e[0] + rng.normal(scale=0.1, size=dim)
    f = 8.0 * e[1:3] + rng.normal(scale=0.3, size=(2, dim))
    centroids = np.vstack([p, 2.0 * e[0] + rng.normal(scale=0.1, size=dim), f, p])
    return np.vstack([s, r, p, f]), centroids


def test_margin_settles_a_gemv_tail_tie_like_plain_lloyd():
    train, centroids = _gemv_tail_tie()
    expected = _plain_lloyd(train, centroids.copy(), 3)
    assert vq._lloyd(train, centroids, 3).tobytes() == expected.tobytes()


def _moved_centroid_near_tie():
    """Lloyd data on which a margin 1e-4 times the proven one keeps a wrong row.

    Row r and its mirror 2a - r (whose mean is a bit for bit on this draw)
    keep centroid a in place; row s pulls centroid b onto itself, and b
    is the only centroid that moves.  s = r + Q (a - r) for a rotation Q, so r
    is as far from s as from a up to rounding: in the second iteration's full
    pass s wins by one ulp of the ``|x|^2`` terms (128 ulps of the distance),
    not by an exact tie.  The incremental pass checks r against the moved
    centroid alone, a 1-column gemv that rounds r's distance to s three such
    ulps above its distance to a.  The proven margin sends r to a full row; on
    OpenBLAS's Haswell kernels a margin 1e-4 or 3e-4 times as large does not,
    and r stays with a.
    """
    dim = 8
    rng = np.random.default_rng(2884)
    a = rng.uniform(4.0, 6.0, size=dim)
    r = a + rng.normal(scale=0.3, size=dim)
    rotation, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    s = r + rotation @ (a - r)
    b = s + 0.05 * (s - r) / np.linalg.norm(s - r)
    # Six far centroids, each owning one row equal to it, so none moves.
    far = a + 10.0 * np.eye(dim)[:6] * np.sign(rng.normal(size=(6, 1)))
    return np.vstack([r, 2 * a - r, s, far]), np.vstack([a, b, far])


def test_margin_size_settles_a_few_ulp_near_tie_like_plain_lloyd():
    train, centroids = _moved_centroid_near_tie()
    assert np.array_equal((train[0] + train[1]) / 2, centroids[0])  # a stays put
    expected = _plain_lloyd(train, centroids.copy(), 3)
    assert vq._lloyd(train, centroids, 3).tobytes() == expected.tobytes()


# ----------------------------------------------------------------------
# No thread outlives a build
# ----------------------------------------------------------------------
def _build_bytes():
    return build_codebook(_clustered(0, 2000, 12, 20), num_entries=256).codebook.tobytes()


def test_build_codebook_leaves_no_thread_behind():
    before = threading.active_count()
    _build_bytes()
    assert threading.active_count() == before


def _build_in_child(conn):
    conn.send(_build_bytes())
    conn.close()


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="needs the fork start method"
)
def test_codebook_builds_in_a_forked_child():
    # The process and remote backends fork workers from a process that has
    # built codebooks; a helper thread or pool outliving a call would hang them.
    expected = _build_bytes()
    ctx = multiprocessing.get_context("fork")
    receiver, sender = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_build_in_child, args=(sender,))
    child.start()
    sender.close()
    try:
        assert receiver.poll(60), "the forked child did not finish its codebook"
        assert receiver.recv() == expected
    finally:
        child.join(10)
        if child.is_alive():
            child.kill()
            child.join()
    assert child.exitcode == 0


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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_build_codebook_rejects_non_finite_vectors(bad):
    vectors = _VECTORS.copy()
    vectors[17, 2] = bad
    with pytest.raises(ValueError, match="vectors"):
        build_codebook(vectors, num_entries=8)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_encode_rejects_non_finite_vectors(bad):
    quantizer = build_codebook(_VECTORS, num_entries=8, num_iterations=1)
    vectors = _VECTORS.copy()
    vectors[3, 0] = bad
    with pytest.raises(ValueError, match="vectors"):
        quantizer.encode(vectors)


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
