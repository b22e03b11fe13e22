"""Frame sharding: pixel tiles that recompose bit-identically.

Large frames must not head-of-line-block small requests, so the server never
renders a frame in one engine call: it shards each view into contiguous
pixel-tile jobs and interleaves tiles from different requests.

The tile geometry is chosen for *bit-identity*, not locality.  The renderer's
float32 MLP hits different BLAS kernels at different batch sizes, so an image
is bitwise reproducible only when the per-call ray batches are identical.
:meth:`VolumetricRenderer.render_image` partitions a frame's rays into
contiguous ``chunk_size`` runs, and ``render_pixels`` evaluates a requested
pixel subset as a single batch — therefore contiguous tiles of size ``T``
produce exactly the ray batches of a whole-frame render with
``chunk_size=T``, and the assembled frame is bit-identical to it.  2-D
rectangular tiles would *not* be (they regroup the batches), which is why the
planner shards in flat row-major runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence, Tuple

import numpy as np

__all__ = ["Tile", "plan_tiles", "assemble_tiles"]


@dataclass(frozen=True)
class Tile:
    """One contiguous run of flat (row-major) pixel indices of one view."""

    camera_index: int
    start: int
    stop: int

    @property
    def num_pixels(self) -> int:
        return self.stop - self.start

    @property
    def span(self) -> Tuple[int, int]:
        """The flat ``[start, stop)`` pixel run — the tile-geometry component
        of a :func:`~repro.serve.cache.tile_fingerprint` cache key.  Two
        tiles with equal spans of the same camera render equal bytes; the
        camera index is deliberately not part of the span (pose identity
        lives in the fingerprint's camera component instead)."""
        return (self.start, self.stop)

    def pixel_indices(self) -> np.ndarray:
        """The flat pixel indices this tile renders."""
        return np.arange(self.start, self.stop, dtype=np.int64)


#: Distinct ``(num_pixels, tile_size, camera_index)`` plans kept shared: a
#: server's traffic repeats a few frame geometries, so every job of one
#: holds the same immutable plan instead of a fresh list of tiles.
_PLAN_MEMO_SIZE = 256


def _check_count(name: str, value) -> int:
    """Validate one integral planner argument, rejecting floats and bools."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, got {type(value).__name__} {value!r}")
    return int(value)


def plan_tiles(num_pixels: int, tile_size: int, camera_index: int = 0) -> Tuple[Tile, ...]:
    """Partition a view's ``num_pixels`` into contiguous tiles of ``tile_size``.

    The partition is exactly the ray-chunk partition of a whole-frame render
    with ``chunk_size=tile_size`` (the last tile holds the remainder), which
    is what makes tile-sharded serving bit-identical to direct rendering —
    see the module docstring.

    Every edge case is an explicit branch rather than a property of slicing:
    a zero-pixel frame is an error (there is nothing to schedule, and a
    silent empty plan would finalize a job with no image), a ``tile_size``
    at or above ``num_pixels`` is exactly one full-frame tile, and a
    non-divisible ``tile_size`` puts the remainder in the final tile.

    The plan is an immutable tuple shared by every call with the same
    geometry (a bounded memo).  The arguments are type-checked first:
    ``100.0`` hashes like ``100`` and would otherwise find a memoised plan.
    """
    return _plan(
        _check_count("num_pixels", num_pixels),
        _check_count("tile_size", tile_size),
        _check_count("camera_index", camera_index),
    )


@lru_cache(maxsize=_PLAN_MEMO_SIZE)
def _plan(num_pixels: int, tile_size: int, camera_index: int) -> Tuple[Tile, ...]:
    if num_pixels <= 0:
        raise ValueError(
            f"num_pixels must be positive, got {num_pixels} (a zero-pixel frame "
            "cannot be planned — check the camera geometry)"
        )
    if tile_size <= 0:
        raise ValueError(f"tile_size must be positive, got {tile_size}")
    if tile_size >= num_pixels:
        # One tile covering the whole frame; the schedule degenerates to a
        # single engine call, still bit-identical to the direct render.
        return (Tile(camera_index=camera_index, start=0, stop=num_pixels),)
    num_full, remainder = divmod(num_pixels, tile_size)
    tiles = [
        Tile(camera_index=camera_index, start=i * tile_size, stop=(i + 1) * tile_size)
        for i in range(num_full)
    ]
    if remainder:
        tiles.append(
            Tile(camera_index=camera_index, start=num_full * tile_size, stop=num_pixels)
        )
    assert tiles[0].start == 0 and tiles[-1].stop == num_pixels
    return tuple(tiles)


def assemble_tiles(
    tiles: Sequence[Tile],
    tile_images: Sequence[np.ndarray],
    image_shape: Tuple[int, int],
) -> np.ndarray:
    """Recompose per-tile ``(P, 3)`` colors into one ``(H, W, 3)`` frame.

    The tiles must cover every pixel of the frame exactly once (the planner
    guarantees this; partial covers raise so a lost tile job cannot silently
    produce a frame with black holes).
    """
    height, width = image_shape
    total = height * width
    flat = np.empty((total, 3), dtype=np.float64)
    covered = np.zeros(total, dtype=bool)
    for tile, image in zip(tiles, tile_images):
        image = np.asarray(image)
        if image.shape != (tile.num_pixels, 3):
            raise ValueError(
                f"tile [{tile.start}:{tile.stop}) expects a ({tile.num_pixels}, 3) "
                f"image, got {image.shape}"
            )
        flat[tile.start:tile.stop] = image
        covered[tile.start:tile.stop] = True
    if not covered.all():
        missing = int((~covered).sum())
        raise ValueError(f"tiles cover {total - missing}/{total} pixels; frame incomplete")
    return flat.reshape(height, width, 3)
