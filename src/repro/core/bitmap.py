"""The occupancy bitmap used for collision masking.

One bit per voxel-grid vertex, 1 meaning "non-zero".  During online decoding
every fetched value is ANDed with this bit, which zeroes out the (dominant)
class of hash errors: an empty vertex whose hash happens to land on a slot
written by some non-zero voxel.  The bitmap is stored bit-packed, exactly as
the Bitmap Lookup Unit keeps it in contiguous SRAM, so the memory accounting
is byte-accurate.
"""

from __future__ import annotations

import numpy as np

from repro.grid.interpolation import linear_vertex_ids

__all__ = ["OccupancyBitmap"]

#: Mask of bit ``i`` (MSB first, as ``np.packbits`` stores it) within a byte.
_BIT_MASKS = np.array([128, 64, 32, 16, 8, 4, 2, 1], dtype=np.uint8)


class OccupancyBitmap:
    """Bit-packed per-vertex occupancy mask for one scene.

    Parameters
    ----------
    resolution:
        Grid resolution ``R``; the bitmap covers ``R^3`` vertices.
    positions:
        ``(N, 3)`` integer coordinates of the non-zero vertices.
    """

    def __init__(self, resolution: int, positions: np.ndarray) -> None:
        if resolution < 1:
            raise ValueError("resolution must be positive")
        self.resolution = int(resolution)
        positions = np.asarray(positions, dtype=np.int64)
        if positions.size and (
            positions.min() < 0 or positions.max() >= resolution
        ):
            raise ValueError("positions out of grid range")
        self._num_bits = self.resolution ** 3
        flat = np.zeros(self._num_bits, dtype=bool)
        if positions.size:
            flat[linear_vertex_ids(positions, self.resolution)] = True
        self._packed = np.packbits(flat)
        self._num_set = int(flat.sum())

    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return self._num_bits

    @property
    def num_occupied(self) -> int:
        return self._num_set

    @property
    def memory_bytes(self) -> int:
        """Bit-packed storage size (1 bit per vertex, rounded up to bytes)."""
        return int(self._packed.size)

    # ------------------------------------------------------------------
    def lookup(self, positions: np.ndarray) -> np.ndarray:
        """Boolean occupancy of integer vertex positions.

        Positions outside the grid return False (treated as empty space).
        """
        p = np.asarray(positions, dtype=np.int64)
        in_range = np.all((p >= 0) & (p < self.resolution), axis=-1)
        result = np.zeros(p.shape[:-1], dtype=bool)
        if np.any(in_range):
            result[in_range] = self.lookup_ids(linear_vertex_ids(p[in_range], self.resolution))
        return result

    def lookup_ids(self, ids: np.ndarray) -> np.ndarray:
        """Boolean occupancy of in-range linear vertex ids ``(x * R + y) * R + z``."""
        ids = np.asarray(ids, dtype=np.int64)
        return (np.take(self._packed, ids >> 3) & np.take(_BIT_MASKS, ids & 7)) != 0

    def to_dense(self) -> np.ndarray:
        """Unpack to a boolean ``(R, R, R)`` array (tests / visualisation)."""
        flat = np.unpackbits(self._packed)[: self._num_bits].astype(bool)
        r = self.resolution
        return flat.reshape(r, r, r)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"OccupancyBitmap(resolution={self.resolution}, "
            f"occupied={self.num_occupied}, bytes={self.memory_bytes})"
        )
