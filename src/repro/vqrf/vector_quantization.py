"""K-means vector quantization of color features.

VQRF compresses the mid-importance voxels' 12-channel color features into a
4096-entry codebook; each voxel then stores only a codebook index.  The
quantizer here is a deterministic Lloyd's-algorithm k-means (k-means++ style
seeding via distance-weighted sampling) built on numpy, so it runs identically
everywhere without external dependencies.

Seeding, every Lloyd assignment and :meth:`VectorQuantizer.encode` all go
through one distance kernel, :func:`_nearest_centroids`.  It evaluates the
quadratic expansion ``|x|^2 - 2 x.c + |c|^2`` in blocks of
:data:`_BLOCK_ROWS` rows written into one preallocated scratch.  The block is
small on purpose: a 32 x 4096 float64 scratch is 1 MB and stays in cache, so
the k-means spends its time computing instead of faulting in fresh pages and
streaming multi-hundred-megabyte temporaries through DRAM.  Larger scratches
are slower, and from a few MB on they can also raise the process's peak RSS:
glibc's dynamic mmap threshold then keeps freed blocks of that size resident
in the heap.  The kernel reproduces the bits of the unblocked expression
exactly, so codebooks do not depend on the block.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

__all__ = ["VectorQuantizer", "build_codebook"]

DEFAULT_CODEBOOK_SIZE = 4096

#: Rows per distance block: 32 x 4096 centroids x 8 bytes = a 1 MB scratch.
_BLOCK_ROWS = 32


def _nearest_centroids(
    vectors: np.ndarray, centroids: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Index of and squared distance to each vector's nearest centroid.

    Both inputs must share one float dtype; the arithmetic runs in it.  The
    distance is the quadratic expansion ``|x|^2 - (2x).c + |c|^2``, bit for
    bit: scaling by two is exact, so it is folded into the centroids once.
    Ties go to the lowest centroid index.  Returns ``(int64 indices,
    distances)``, each of length ``N``.
    """
    n = vectors.shape[0]
    index = np.empty(n, dtype=np.int64)
    dist = np.empty(n, dtype=vectors.dtype)
    x_sq = np.sum(vectors ** 2, axis=1)
    c_sq = np.sum(centroids ** 2, axis=1)
    twice_t = (2 * centroids).T
    scratch = np.empty((min(_BLOCK_ROWS, n), centroids.shape[0]), dtype=vectors.dtype)
    rows = np.arange(scratch.shape[0])
    for start in range(0, n, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, n)
        block = scratch[: stop - start]
        np.matmul(vectors[start:stop], twice_t, out=block)
        np.subtract(x_sq[start:stop, None], block, out=block)
        block += c_sq
        block.argmin(axis=1, out=index[start:stop])
        dist[start:stop] = block[rows[: stop - start], index[start:stop]]
    return index, dist


@dataclass
class VectorQuantizer:
    """A trained codebook with encode/decode helpers.

    Attributes
    ----------
    codebook:
        ``(K, D)`` float32 centroids.
    """

    codebook: np.ndarray

    def __post_init__(self) -> None:
        self.codebook = np.asarray(self.codebook, dtype=np.float32)
        if self.codebook.ndim != 2:
            raise ValueError("codebook must be 2-D (K, D)")

    @property
    def num_entries(self) -> int:
        return int(self.codebook.shape[0])

    @property
    def dim(self) -> int:
        return int(self.codebook.shape[1])

    def encode(self, vectors: np.ndarray) -> np.ndarray:
        """Map each vector to the index of its nearest centroid."""
        vectors = np.asarray(vectors, dtype=np.float32)
        if vectors.ndim != 2 or vectors.shape[1] != self.dim:
            raise ValueError(
                f"vectors must have shape (N, {self.dim}) to match the codebook, "
                f"got {vectors.shape}"
            )
        return _nearest_centroids(vectors, self.codebook)[0].astype(np.int32)

    def decode(self, indices: np.ndarray) -> np.ndarray:
        """Recover the centroid vector for each index."""
        indices = np.asarray(indices, dtype=np.int64)
        if indices.size and (indices.min() < 0 or indices.max() >= self.num_entries):
            raise IndexError("codebook index out of range")
        return self.codebook[indices]

    def quantization_error(self, vectors: np.ndarray) -> float:
        """Mean squared reconstruction error over a set of vectors."""
        vectors = np.asarray(vectors, dtype=np.float32)
        if vectors.size == 0:
            return 0.0
        reconstructed = self.decode(self.encode(vectors))
        return float(np.mean((vectors - reconstructed) ** 2))

    def memory_bytes(self, dtype_bytes: int = 2) -> int:
        """Codebook storage (FP16 on-chip in the paper's accelerator)."""
        return self.num_entries * self.dim * dtype_bytes


def _kmeans_plus_plus_init(
    vectors: np.ndarray, num_clusters: int, rng: np.random.Generator
) -> np.ndarray:
    """Distance-weighted centroid seeding.

    Full k-means++ seeds one centroid at a time, which is O(K * N); for the
    4096-entry codebooks used here a batched variant (seed in groups, update
    the distance field once per group) gives indistinguishable codebooks at a
    fraction of the cost.
    """
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
            # All remaining points coincide with a centroid; fill with copies.
            centroids[seeded:] = vectors[rng.integers(0, n, size=num_clusters - seeded)]
            seeded = num_clusters
            break
        probs = closest_sq / total
        choices = rng.choice(n, size=count, p=probs, replace=True)
        new_centroids = vectors[choices]
        centroids[seeded : seeded + count] = new_centroids
        # The quadratic expansion can go slightly negative through rounding;
        # clamp so the sampling probabilities stay valid.
        dist = _nearest_centroids(vectors, new_centroids)[1]
        closest_sq = np.minimum(closest_sq, np.maximum(dist, 0.0))
        seeded += count
    return centroids


def build_codebook(
    vectors: np.ndarray,
    num_entries: int = DEFAULT_CODEBOOK_SIZE,
    num_iterations: int = 10,
    seed: int = 0,
    sample_limit: int = 50000,
) -> VectorQuantizer:
    """Train a k-means codebook on feature vectors.

    Parameters
    ----------
    vectors:
        ``(N, D)`` training vectors (the mid-importance voxel features).
    num_entries:
        Codebook size ``K`` (4096 in the paper), at least 1.  With fewer
        than ``K`` training vectors the k-means runs on that many clusters
        and the codebook is padded to ``K`` rows (all zeros when there are
        no vectors at all).
    num_iterations:
        Lloyd iterations after seeding (0 keeps the seeded centroids).
    seed:
        Seed for deterministic seeding/assignment.
    sample_limit:
        Training subsample cap, keeping codebook construction fast on large
        scenes while assignments still use the full data.
    """
    vectors = np.asarray(vectors, dtype=np.float64)
    if vectors.ndim != 2:
        raise ValueError("vectors must be (N, D)")
    if num_entries < 1:
        raise ValueError(f"num_entries must be >= 1, got {num_entries}")
    if num_iterations < 0:
        raise ValueError(f"num_iterations must be >= 0, got {num_iterations}")
    if sample_limit < 1:
        raise ValueError(f"sample_limit must be >= 1, got {sample_limit}")
    rng = np.random.default_rng(seed)

    n = vectors.shape[0]
    if n == 0:
        return VectorQuantizer(np.zeros((num_entries, vectors.shape[1]), dtype=np.float32))

    train = vectors
    if n > sample_limit:
        train = vectors[rng.choice(n, size=sample_limit, replace=False)]

    k = int(min(num_entries, train.shape[0]))
    centroids = _kmeans_plus_plus_init(train, k, rng)

    for _ in range(num_iterations):
        assignment = _nearest_centroids(train, centroids)[0]
        counts = np.bincount(assignment, minlength=k).astype(np.float64)
        sums = np.zeros((k, train.shape[1]), dtype=np.float64)
        np.add.at(sums, assignment, train)
        nonempty = counts > 0
        centroids[nonempty] = sums[nonempty] / counts[nonempty, None]

    # Pad with copies if the data had fewer distinct vectors than requested so
    # downstream index arithmetic (18-bit addressing regions) stays uniform.
    if k < num_entries:
        pad = centroids[rng.integers(0, k, size=num_entries - k)]
        centroids = np.vstack([centroids, pad])
    return VectorQuantizer(codebook=centroids.astype(np.float32))
