"""Dense and sparse voxel grids.

A :class:`VoxelGrid` stores, for every vertex of a regular ``(R, R, R)`` grid
spanning an axis-aligned bounding box, a scalar raw density (pre-activation)
and a ``feature_dim``-dimensional color feature vector.  This mirrors the
representation used by DVGO / VQRF that SpNeRF accelerates: 12-dimensional
color features which, together with an encoded view direction, feed a small
MLP that produces RGB.

:class:`SparseVoxelGrid` is the non-zero-only view of a grid.  A vertex is
*occupied* when its density exceeds a threshold or any feature channel is
non-zero; only occupied vertices carry data.  SpNeRF's preprocessing operates
on this object.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

__all__ = ["GridSpec", "VoxelGrid", "SparseVoxelGrid"]


@dataclass(frozen=True)
class GridSpec:
    """Geometric description of a voxel grid.

    Parameters
    ----------
    resolution:
        Number of vertices per axis (the grid is ``resolution**3`` vertices).
    bbox_min, bbox_max:
        World-space axis-aligned bounding box covered by the grid.
    feature_dim:
        Number of color-feature channels stored per vertex (12 in VQRF).
    """

    resolution: int
    bbox_min: Tuple[float, float, float] = (-1.0, -1.0, -1.0)
    bbox_max: Tuple[float, float, float] = (1.0, 1.0, 1.0)
    feature_dim: int = 12

    def __post_init__(self) -> None:
        if self.resolution < 2:
            raise ValueError("resolution must be at least 2")
        if self.feature_dim < 1:
            raise ValueError("feature_dim must be positive")
        lo = np.asarray(self.bbox_min, dtype=np.float64)
        hi = np.asarray(self.bbox_max, dtype=np.float64)
        if not np.all(hi > lo):
            raise ValueError("bbox_max must be strictly greater than bbox_min")

    @property
    def num_vertices(self) -> int:
        """Total number of grid vertices."""
        return int(self.resolution) ** 3

    @property
    def voxel_size(self) -> np.ndarray:
        """World-space edge length of one voxel per axis."""
        lo = np.asarray(self.bbox_min, dtype=np.float64)
        hi = np.asarray(self.bbox_max, dtype=np.float64)
        return (hi - lo) / (self.resolution - 1)

    def world_to_grid(self, points: np.ndarray) -> np.ndarray:
        """Map world-space points to continuous grid coordinates.

        Grid coordinates run from ``0`` to ``resolution - 1`` along each axis.
        Points outside the bounding box map outside that range; callers clip
        or discard them as appropriate.
        """
        pts = np.asarray(points, dtype=np.float64)
        voxel = self.voxel_size
        # Axis by axis: the same (p - lo) / voxel per element as broadcasting
        # against (3,), at a fraction of the cost for long (N, 3) inputs.
        out = np.empty_like(pts)
        for axis in range(3):
            np.subtract(pts[..., axis], self.bbox_min[axis], out=out[..., axis])
            out[..., axis] /= voxel[axis]
        return out

    def grid_to_world(self, coords: np.ndarray) -> np.ndarray:
        """Map continuous grid coordinates back to world space."""
        c = np.asarray(coords, dtype=np.float64)
        lo = np.asarray(self.bbox_min, dtype=np.float64)
        return c * self.voxel_size + lo

    def cell_indices(self, grid_coords: np.ndarray) -> np.ndarray:
        """Interpolation cell (base vertex) of continuous grid coordinates.

        ``clip(floor(coords), 0, resolution - 2)`` — exactly the base-vertex
        convention of
        :func:`~repro.grid.interpolation.trilinear_vertices_and_weights`, so a
        sample's cell names precisely the eight vertices its interpolation
        reads.  Shared by the occupancy index and the SpNeRF empty-cell cull
        so "this cell is empty" always means "all eight corners are zero".
        """
        coords = np.asarray(grid_coords, dtype=np.float64)
        return np.clip(np.floor(coords).astype(np.int64), 0, self.resolution - 2)

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Boolean mask of world-space points inside the bounding box."""
        pts = np.asarray(points, dtype=np.float64)
        lo, hi = self.bbox_min, self.bbox_max
        inside = (pts[..., 0] >= lo[0]) & (pts[..., 0] <= hi[0])
        for axis in (1, 2):
            inside &= (pts[..., axis] >= lo[axis]) & (pts[..., axis] <= hi[axis])
        return inside


class VoxelGrid:
    """Dense density + color-feature voxel grid.

    Parameters
    ----------
    spec:
        Geometry and feature width of the grid.
    density:
        ``(R, R, R)`` array of raw (pre-activation) densities.  Created
        zero-filled when omitted.
    features:
        ``(R, R, R, feature_dim)`` array of color features.  Created
        zero-filled when omitted.
    """

    def __init__(
        self,
        spec: GridSpec,
        density: Optional[np.ndarray] = None,
        features: Optional[np.ndarray] = None,
    ) -> None:
        self.spec = spec
        r = spec.resolution
        if density is None:
            density = np.zeros((r, r, r), dtype=np.float32)
        if features is None:
            features = np.zeros((r, r, r, spec.feature_dim), dtype=np.float32)
        density = np.asarray(density, dtype=np.float32)
        features = np.asarray(features, dtype=np.float32)
        if density.shape != (r, r, r):
            raise ValueError(
                f"density shape {density.shape} does not match resolution {r}"
            )
        if features.shape != (r, r, r, spec.feature_dim):
            raise ValueError(
                f"features shape {features.shape} does not match "
                f"({r}, {r}, {r}, {spec.feature_dim})"
            )
        self.density = density
        self.features = features

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def resolution(self) -> int:
        return self.spec.resolution

    @property
    def feature_dim(self) -> int:
        return self.spec.feature_dim

    def occupancy_mask(self, density_threshold: float = 0.0) -> np.ndarray:
        """Boolean ``(R, R, R)`` mask of occupied (non-zero) vertices.

        A vertex is occupied when its density exceeds ``density_threshold``
        or any feature channel is non-zero.
        """
        dense = self.density > density_threshold
        feat = np.any(self.features != 0.0, axis=-1)
        return dense | feat

    def sparsity(self, density_threshold: float = 0.0) -> float:
        """Fraction of vertices that are *empty* (the paper reports ~93.5–98 %)."""
        occ = self.occupancy_mask(density_threshold)
        return 1.0 - float(occ.sum()) / occ.size

    def occupancy_fraction(self, density_threshold: float = 0.0) -> float:
        """Fraction of vertices that are occupied (paper: 2.01–6.48 %)."""
        return 1.0 - self.sparsity(density_threshold)

    def memory_bytes(self, dtype_bytes: int = 4) -> int:
        """Size of the dense grid in bytes at ``dtype_bytes`` per scalar."""
        per_vertex = (1 + self.feature_dim) * dtype_bytes
        return self.spec.num_vertices * per_vertex

    # ------------------------------------------------------------------
    # Vertex access
    # ------------------------------------------------------------------
    def vertex_values(self, coords: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Fetch density and features at integer vertex coordinates.

        Parameters
        ----------
        coords:
            ``(N, 3)`` integer array of vertex indices; values are clipped to
            the valid range so callers may pass the ``ceil`` of boundary
            samples without special-casing.

        Returns
        -------
        (density, features):
            ``(N,)`` densities and ``(N, feature_dim)`` features.
        """
        idx = np.clip(np.asarray(coords, dtype=np.int64), 0, self.resolution - 1)
        x, y, z = idx[:, 0], idx[:, 1], idx[:, 2]
        return self.density[x, y, z], self.features[x, y, z]

    def to_sparse(self, density_threshold: float = 0.0) -> "SparseVoxelGrid":
        """Extract the occupied vertices into a :class:`SparseVoxelGrid`."""
        occ = self.occupancy_mask(density_threshold)
        coords = np.argwhere(occ).astype(np.int32)
        x, y, z = coords[:, 0], coords[:, 1], coords[:, 2]
        return SparseVoxelGrid(
            spec=self.spec,
            positions=coords,
            density=self.density[x, y, z].copy(),
            features=self.features[x, y, z].copy(),
        )

    def copy(self) -> "VoxelGrid":
        return VoxelGrid(self.spec, self.density.copy(), self.features.copy())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"VoxelGrid(resolution={self.resolution}, "
            f"feature_dim={self.feature_dim}, "
            f"occupied={self.occupancy_fraction():.4f})"
        )


@dataclass
class SparseVoxelGrid:
    """Non-zero-only view of a voxel grid.

    Attributes
    ----------
    spec:
        The originating grid geometry.
    positions:
        ``(N, 3)`` int32 vertex coordinates of occupied vertices.
    density:
        ``(N,)`` raw densities of those vertices.
    features:
        ``(N, feature_dim)`` color features of those vertices.
    """

    spec: GridSpec
    positions: np.ndarray
    density: np.ndarray
    features: np.ndarray
    _index_map: Optional[dict] = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.positions = np.asarray(self.positions, dtype=np.int32)
        self.density = np.asarray(self.density, dtype=np.float32)
        self.features = np.asarray(self.features, dtype=np.float32)
        n = self.positions.shape[0]
        if self.positions.ndim != 2 or self.positions.shape[1] != 3:
            raise ValueError("positions must have shape (N, 3)")
        if self.density.shape != (n,):
            raise ValueError("density must have shape (N,)")
        if self.features.shape != (n, self.spec.feature_dim):
            raise ValueError("features must have shape (N, feature_dim)")

    # ------------------------------------------------------------------
    @property
    def num_points(self) -> int:
        """Number of occupied vertices ``N``."""
        return int(self.positions.shape[0])

    def occupancy_fraction(self) -> float:
        """Occupied fraction of the full grid."""
        return self.num_points / self.spec.num_vertices

    def linear_indices(self) -> np.ndarray:
        """Row-major linear index of each occupied vertex."""
        r = self.spec.resolution
        p = self.positions.astype(np.int64)
        return (p[:, 0] * r + p[:, 1]) * r + p[:, 2]

    def dense_memory_bytes(self, dtype_bytes: int = 4) -> int:
        """Memory of the *restored* dense grid (the VQRF rendering cost)."""
        return self.spec.num_vertices * (1 + self.spec.feature_dim) * dtype_bytes

    def payload_memory_bytes(self, dtype_bytes: int = 4) -> int:
        """Memory of only the non-zero payload (density + features)."""
        return self.num_points * (1 + self.spec.feature_dim) * dtype_bytes

    # ------------------------------------------------------------------
    def occupancy_bitmap(self) -> np.ndarray:
        """Dense boolean ``(R, R, R)`` occupancy bitmap (1 bit per vertex)."""
        r = self.spec.resolution
        bitmap = np.zeros((r, r, r), dtype=bool)
        p = self.positions
        bitmap[p[:, 0], p[:, 1], p[:, 2]] = True
        return bitmap

    def to_dense(self) -> VoxelGrid:
        """Restore the full dense grid (the step SpNeRF eliminates)."""
        grid = VoxelGrid(self.spec)
        p = self.positions
        grid.density[p[:, 0], p[:, 1], p[:, 2]] = self.density
        grid.features[p[:, 0], p[:, 1], p[:, 2]] = self.features
        return grid

    def lookup(self, coords: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Exact (collision-free) lookup of vertex coordinates.

        Used as the ground-truth reference when measuring the error introduced
        by SpNeRF's hash-based decoding.  Missing vertices return zeros.
        """
        if self._index_map is None:
            keys = map(tuple, self.positions.tolist())
            self._index_map = {k: i for i, k in enumerate(keys)}
        coords = np.asarray(coords, dtype=np.int64)
        n = coords.shape[0]
        density = np.zeros(n, dtype=np.float32)
        features = np.zeros((n, self.spec.feature_dim), dtype=np.float32)
        for row, key in enumerate(map(tuple, coords.tolist())):
            idx = self._index_map.get(key)
            if idx is not None:
                density[row] = self.density[idx]
                features[row] = self.features[idx]
        return density, features

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"SparseVoxelGrid(points={self.num_points}, "
            f"resolution={self.spec.resolution}, "
            f"occupied={self.occupancy_fraction():.4f})"
        )
