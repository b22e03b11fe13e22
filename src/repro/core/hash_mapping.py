"""Spatial hashing, subgrid partitioning and hash-table construction.

Equation (1) of the paper — the Instant-NGP spatial hash —

    h(p) = (x * pi_1  XOR  y * pi_2  XOR  z * pi_3)  mod  T

with ``pi_1 = 1``, ``pi_2 = 2654435761`` and ``pi_3 = 805459861``.  During
preprocessing the non-zero voxels are split into ``K`` subgrids by x
coordinate (``S_k = { p : floor(x / w) = k }``) and each subgrid gets its own
``T``-entry hash table whose entries store the unified 18-bit storage index
and the voxel density.  Collisions are resolved "last writer wins" (no
chaining, exactly like the hardware); the bitmap repairs the resulting errors
for empty vertices at decode time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.core.addressing import EMPTY_ENTRY

__all__ = [
    "HASH_PRIMES",
    "spatial_hash",
    "hash_coordinates",
    "subgrid_width",
    "assign_subgrids",
    "subgrid_of_x",
    "SubgridHashTables",
    "build_hash_tables",
]

#: The three hash primes of Eq. (1) (pi_1, pi_2, pi_3).
HASH_PRIMES: Tuple[int, int, int] = (1, 2654435761, 805459861)


def spatial_hash(positions: np.ndarray, table_size: int) -> np.ndarray:
    """Hash integer vertex positions with Eq. (1).

    Parameters
    ----------
    positions:
        ``(N, 3)`` integer vertex coordinates.
    table_size:
        Number of entries ``T`` per hash table.

    Returns
    -------
    ``(N,)`` uint64 hash indices in ``[0, table_size)``.
    """
    if table_size < 1:
        raise ValueError("table_size must be positive")
    pos = np.asarray(positions, dtype=np.uint64)
    if pos.ndim != 2 or pos.shape[1] != 3:
        raise ValueError("positions must have shape (N, 3)")
    return hash_coordinates(pos[:, 0], pos[:, 1], pos[:, 2], table_size)


def hash_coordinates(
    x: np.ndarray, y: np.ndarray, z: np.ndarray, table_size: int
) -> np.ndarray:
    """Eq. (1) on ``(N,)`` uint64 coordinate columns: uint64 hashes in ``[0, T)``."""
    pi1, pi2, pi3 = (np.uint64(p) for p in HASH_PRIMES)
    mixed = x * pi1
    mixed ^= y * pi2
    mixed ^= z * pi3
    mixed %= np.uint64(table_size)
    return mixed


def subgrid_width(resolution: int, num_subgrids: int) -> int:
    """Width ``w`` (in vertices along x) of each subgrid.

    The last subgrid absorbs any remainder when the resolution does not divide
    evenly, matching ``floor(x / w)`` never exceeding ``K - 1`` for valid x.
    """
    if num_subgrids < 1:
        raise ValueError("num_subgrids must be positive")
    return max(1, int(np.ceil(resolution / num_subgrids)))


def assign_subgrids(
    positions: np.ndarray, resolution: int, num_subgrids: int
) -> np.ndarray:
    """Subgrid id ``floor(x / w)`` for each position, clipped to ``K - 1``."""
    return subgrid_of_x(np.asarray(positions)[..., 0], resolution, num_subgrids)


def subgrid_of_x(x: np.ndarray, resolution: int, num_subgrids: int) -> np.ndarray:
    """Subgrid id ``floor(x / w)`` of x coordinates, clipped to ``K - 1`` (int64)."""
    width = subgrid_width(resolution, num_subgrids)
    return np.clip(x // width, 0, num_subgrids - 1).astype(np.int64)


@dataclass
class SubgridHashTables:
    """All per-subgrid hash tables of one scene.

    Attributes
    ----------
    indices:
        ``(K, T)`` int32 — the unified 18-bit storage index per entry, or
        :data:`~repro.core.addressing.EMPTY_ENTRY` for never-written slots.
    densities:
        ``(K, T)`` float32 — the voxel density stored alongside each index
        (the hardware's Index and Density Buffer holds both).
    num_collisions:
        Number of insertions that overwrote an already-occupied slot.
    num_inserted:
        Total insertions attempted (== number of non-zero voxels).
    """

    indices: np.ndarray
    densities: np.ndarray
    num_collisions: int
    num_inserted: int

    def __post_init__(self) -> None:
        self.indices = np.asarray(self.indices, dtype=np.int32)
        self.densities = np.asarray(self.densities, dtype=np.float32)
        if self.indices.shape != self.densities.shape:
            raise ValueError("indices and densities must have the same shape")
        if self.indices.ndim != 2:
            raise ValueError("hash tables must be 2-D (num_subgrids, table_size)")

    @property
    def num_subgrids(self) -> int:
        return int(self.indices.shape[0])

    @property
    def table_size(self) -> int:
        return int(self.indices.shape[1])

    @property
    def occupancy(self) -> float:
        """Fraction of slots holding a valid entry."""
        return float(np.count_nonzero(self.indices != EMPTY_ENTRY)) / self.indices.size

    @property
    def collision_rate(self) -> float:
        """Fraction of insertions that displaced an earlier entry."""
        if self.num_inserted == 0:
            return 0.0
        return self.num_collisions / self.num_inserted

    def memory_bytes(self, entry_bytes: int = 4) -> int:
        """Total Index-and-Density-Buffer storage across all subgrids."""
        return self.indices.size * entry_bytes

    def lookup(self, subgrid_ids: np.ndarray, hash_indices: np.ndarray):
        """Fetch (storage index, density) for hashed vertex queries."""
        sub = np.asarray(subgrid_ids, dtype=np.int64)
        hsh = np.asarray(hash_indices, dtype=np.int64)
        if hsh.size and (hsh.min() < 0 or hsh.max() >= self.table_size):
            raise ValueError("hash index outside the table")
        return self.read(sub * self.table_size + hsh)

    def read(self, slots: np.ndarray):
        """(storage index, density) at flat slots ``subgrid * T + hash``."""
        return (
            np.take(self.indices.reshape(-1), slots),
            np.take(self.densities.reshape(-1), slots),
        )


def build_hash_tables(
    positions: np.ndarray,
    storage_indices: np.ndarray,
    densities: np.ndarray,
    resolution: int,
    num_subgrids: int,
    table_size: int,
) -> SubgridHashTables:
    """Insert every non-zero voxel into its subgrid's hash table.

    Parameters
    ----------
    positions:
        ``(N, 3)`` integer vertex coordinates of non-zero voxels.
    storage_indices:
        ``(N,)`` unified 18-bit index of each voxel's payload.
    densities:
        ``(N,)`` voxel densities stored alongside the index.
    resolution, num_subgrids, table_size:
        Partitioning and table geometry.

    Notes
    -----
    Insertion order is the input order; a later voxel hashing to an occupied
    slot overwrites it (counted in ``num_collisions``).  This mirrors the
    preprocessing software writing the table once, with the bitmap as the
    error-recovery mechanism.
    """
    positions = np.asarray(positions)
    storage_indices = np.asarray(storage_indices, dtype=np.int32)
    densities = np.asarray(densities, dtype=np.float32)
    n = positions.shape[0]
    if storage_indices.shape != (n,) or densities.shape != (n,):
        raise ValueError("storage_indices and densities must match positions")

    tables = np.full((num_subgrids, table_size), EMPTY_ENTRY, dtype=np.int32)
    table_density = np.zeros((num_subgrids, table_size), dtype=np.float32)

    if n:
        subgrids = assign_subgrids(positions, resolution, num_subgrids)
        hashes = spatial_hash(positions, table_size).astype(np.int64)
        occupied_before = tables[subgrids, hashes] != EMPTY_ENTRY
        # Count a collision each time a write lands on a slot that already has
        # data; with numpy fancy assignment the last write wins, matching the
        # sequential last-writer-wins policy.
        num_collisions = int(np.count_nonzero(occupied_before))
        # A slot hit twice within this batch also collides even if it was
        # empty before the batch; account for duplicates explicitly.
        flat_slots = subgrids * table_size + hashes
        unique_slots = np.unique(flat_slots)
        duplicate_writes = n - unique_slots.size
        num_collisions = max(num_collisions, duplicate_writes)
        tables[subgrids, hashes] = storage_indices
        table_density[subgrids, hashes] = densities
    else:
        num_collisions = 0

    return SubgridHashTables(
        indices=tables,
        densities=table_density,
        num_collisions=num_collisions,
        num_inserted=n,
    )
