"""Trilinear interpolation.

Both the GPU baselines and the SpNeRF accelerator interpolate the eight voxel
vertices surrounding a ray sample.  The paper's Grid ID Unit computes, per
sample and vertex,

    w = (1 - |x_p - x_g|) * (1 - |y_p - y_g|) * (1 - |z_p - z_g|)     (Eq. 2)

with ``(x_p, y_p, z_p)`` the sample position and ``(x_g, y_g, z_g)`` the vertex
position, both in grid coordinates.  The helpers here expose exactly that
decomposition so the algorithmic model and the hardware model share one
reference implementation.

A vertex is named either by its coordinates ``(x, y, z)`` or by its linear
id ``(x * R + y) * R + z`` (:func:`linear_vertex_ids`).  The eight corners of
the cell with base id ``b`` are ``b + [0, 1, R, R + 1, R^2, ...]``, so the
render kernel (:func:`trilinear_interpolate_ids`) names them by id without
ever building an ``(N, 8, 3)`` coordinate lattice; the SpNeRF decoder keys
its dedupe, hash and bitmap on that same id.

:func:`trilinear_interpolate` interpolates a single per-vertex quantity;
:func:`trilinear_interpolate_multi` is the fused single-pass variant that
computes vertices and weights once and interpolates several quantities
(density + features) from one fetch — the software analogue of the hardware
pipeline, where the Grid ID Unit runs once per sample regardless of how many
channels are decoded.  Both take a coordinate fetch; all entry points share
one cell-and-weights computation.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = [
    "corner_offsets",
    "linear_vertex_ids",
    "trilinear_vertices_and_weights",
    "trilinear_interpolate",
    "trilinear_interpolate_multi",
    "trilinear_interpolate_ids",
]

#: The eight (dx, dy, dz) corner offsets of a unit voxel, z fastest (the
#: hardware's vertex issue order).  Allocated once and frozen; every caller
#: shares this array.
_CORNER_OFFSETS = np.array(
    [
        [0, 0, 0],
        [0, 0, 1],
        [0, 1, 0],
        [0, 1, 1],
        [1, 0, 0],
        [1, 0, 1],
        [1, 1, 0],
        [1, 1, 1],
    ],
    dtype=np.int64,
)
_CORNER_OFFSETS.setflags(write=False)


def corner_offsets() -> np.ndarray:
    """The eight ``(dx, dy, dz)`` corner offsets of a unit voxel.

    Ordered with z fastest, matching the hardware's vertex issue order.
    Returns a shared read-only array; copy before mutating.
    """
    return _CORNER_OFFSETS


def linear_vertex_ids(positions: np.ndarray, resolution: int) -> np.ndarray:
    """Linear id ``(x * R + y) * R + z`` of ``(..., 3)`` integer vertex positions."""
    p = np.asarray(positions, dtype=np.int64)
    return (p[..., 0] * resolution + p[..., 1]) * resolution + p[..., 2]


def _cells_and_weights(
    grid_coords: np.ndarray, resolution: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Base vertex ``(N, 3)`` of each sample's cell and its ``(N, 8)`` Eq. 2 weights."""
    coords = np.asarray(grid_coords, dtype=np.float64)
    if coords.ndim != 2 or coords.shape[1] != 3:
        raise ValueError("grid_coords must have shape (N, 3)")
    # Keep the cell fully inside the grid so base + 1 is a valid vertex: every
    # corner is then in range without a second clip.
    base = np.clip(np.floor(coords).astype(np.int64), 0, resolution - 2)

    # Eq. 2 of the paper: per-axis weight is 1 - |p - g|.  Each axis only has
    # two distinct vertex coordinates (base and base + 1), so the per-axis
    # factors are computed once per axis as a (lo, hi) pair and combined per
    # corner — the same elementwise operations and multiply order,
    # (w_x * w_y) * w_z, as evaluating Eq. 2 on the full (N, 8, 3) lattice, at
    # a quarter of the floating-point work.  The weights are laid out
    # corner-major in memory (an (8, N) array, transposed): the interpolation
    # sums' rounding follows the layout, and the frames are pinned to it.
    base_f = base.astype(np.float64)
    lo = np.clip(1.0 - np.abs(coords - base_f), 0.0, 1.0).T  # (3, N)
    hi = np.clip(1.0 - np.abs(coords - (base_f + 1.0)), 0.0, 1.0).T
    wx, wy, wz = (np.stack([lo[axis], hi[axis]]) for axis in range(3))  # (2, N)
    weights = (wx[:, None, None] * wy[None, :, None]) * wz[None, None, :]  # (dx, dy, dz, N)
    return base, weights.reshape(8, -1).T


def trilinear_vertices_and_weights(
    grid_coords: np.ndarray, resolution: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Compute the 8 surrounding vertices and their weights for each sample.

    Parameters
    ----------
    grid_coords:
        ``(N, 3)`` continuous grid coordinates of sample points.
    resolution:
        Grid resolution; the cell is clipped so all eight vertices lie in
        ``[0, resolution - 1]`` and samples on the boundary interpolate
        correctly.

    Returns
    -------
    (vertices, weights):
        ``(N, 8, 3)`` int64 vertex coordinates and ``(N, 8)`` float weights.
        Weights of the 8 corners sum to 1 for every sample.
    """
    base, weights = _cells_and_weights(grid_coords, resolution)
    return base[:, None, :] + _CORNER_OFFSETS[None, :, :], weights


def _weighted_sums(weights: np.ndarray, fetched) -> Tuple[np.ndarray, ...]:
    """Accumulate each ``(N*8,)`` or ``(N*8, C)`` fetched array with Eq. 2 weights."""
    if not isinstance(fetched, tuple):
        raise TypeError("vertex_fetch must return a tuple of value arrays")
    n = weights.shape[0]
    sums = []
    for values in fetched:
        values = np.asarray(values)
        if values.ndim == 1:
            sums.append(np.einsum("nk,nk->n", weights, values.reshape(n, 8)))
        else:
            sums.append(np.einsum("nk,nkc->nc", weights, values.reshape(n, 8, -1)))
    return tuple(sums)


def trilinear_interpolate_ids(
    grid_coords: np.ndarray,
    vertex_fetch,
    resolution: int,
) -> Tuple[np.ndarray, ...]:
    """Fused interpolation with the corners named by linear vertex id.

    The render kernel's form of :func:`trilinear_interpolate_multi`:
    ``vertex_fetch`` maps an ``(N * 8,)`` int64 array of linear vertex ids
    (sample-major, corners in :func:`corner_offsets` order) to a *tuple* of
    value arrays, each ``(N * 8,)`` or ``(N * 8, C)``.  Returns one
    interpolated ``(N,)`` or ``(N, C)`` array per fetched quantity.
    """
    base, weights = _cells_and_weights(grid_coords, resolution)
    r = resolution
    corner_ids = linear_vertex_ids(_CORNER_OFFSETS, r)
    ids = linear_vertex_ids(base, r)[:, None] + corner_ids[None, :]
    return _weighted_sums(weights, vertex_fetch(ids.reshape(-1)))


def trilinear_interpolate(
    grid_coords: np.ndarray,
    vertex_fetch,
    resolution: int,
) -> np.ndarray:
    """Trilinearly interpolate per-vertex values at continuous coordinates.

    Parameters
    ----------
    grid_coords:
        ``(N, 3)`` continuous grid coordinates.
    vertex_fetch:
        Callable mapping an ``(M, 3)`` int64 array of vertex coordinates to an
        ``(M, C)`` (or ``(M,)``) array of values.  This indirection lets the
        same routine interpolate a dense grid, the VQRF-restored grid or
        SpNeRF's hash-decoded values.
    resolution:
        Grid resolution.

    Returns
    -------
    ``(N, C)`` (or ``(N,)``) interpolated values.
    """
    (values,) = trilinear_interpolate_multi(
        grid_coords, lambda vertices: (vertex_fetch(vertices),), resolution
    )
    return values


def trilinear_interpolate_multi(
    grid_coords: np.ndarray,
    vertex_fetch,
    resolution: int,
) -> Tuple[np.ndarray, ...]:
    """Fused interpolation of several per-vertex quantities in one pass.

    The corner lattice and Eq. 2 weights are computed once and
    ``vertex_fetch`` is called once, so a field that needs both density and
    features pays the Grid ID work a single time instead of once per
    quantity.

    Parameters
    ----------
    grid_coords:
        ``(N, 3)`` continuous grid coordinates.
    vertex_fetch:
        Callable mapping an ``(M, 3)`` int64 vertex array to a *tuple* of
        value arrays, each ``(M,)`` or ``(M, C)``.
    resolution:
        Grid resolution.

    Returns
    -------
    Tuple of interpolated arrays, one per fetched quantity, each ``(N,)`` or
    ``(N, C)`` matching the fetch's shapes.
    """
    vertices, weights = trilinear_vertices_and_weights(grid_coords, resolution)
    return _weighted_sums(weights, vertex_fetch(vertices.reshape(-1, 3)))
