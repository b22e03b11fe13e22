"""Voxel-grid substrate.

The volumetric NeRF variants the paper builds on (DVGO / Plenoxels / VQRF)
represent a scene as a dense voxel grid holding a scalar *density* and a
low-dimensional *color feature* per vertex.  This subpackage provides:

* :class:`~repro.grid.voxel_grid.VoxelGrid` — the dense density + feature grid
  with world-coordinate handling.
* :class:`~repro.grid.voxel_grid.SparseVoxelGrid` — the non-zero-only view of a
  grid (positions + values), the object SpNeRF's preprocessing consumes.
* :mod:`~repro.grid.sparse_formats` — classic COO/CSR/CSC encodings with exact
  byte-level memory accounting (Section II-B of the paper).
* :mod:`~repro.grid.interpolation` — trilinear interpolation used by every
  renderer in the repository.
* :mod:`~repro.grid.quantization` — symmetric INT8 quantization used for the
  "true voxel grid" stored in off-chip memory.
"""

from repro.grid.interpolation import (
    corner_offsets,
    linear_vertex_ids,
    trilinear_interpolate,
    trilinear_interpolate_ids,
    trilinear_interpolate_multi,
    trilinear_vertices_and_weights,
)
from repro.grid.quantization import (
    QuantizedTensor,
    dequantize_int8,
    quantize_int8,
)
from repro.grid.sparse_formats import (
    COOGrid,
    CSCGrid,
    CSRGrid,
    SparseEncodingReport,
    encode_coo,
    encode_csc,
    encode_csr,
    sparse_encoding_report,
)
from repro.grid.voxel_grid import (
    GridSpec,
    SparseVoxelGrid,
    VoxelGrid,
)

__all__ = [
    "GridSpec",
    "VoxelGrid",
    "SparseVoxelGrid",
    "COOGrid",
    "CSRGrid",
    "CSCGrid",
    "SparseEncodingReport",
    "encode_coo",
    "encode_csr",
    "encode_csc",
    "sparse_encoding_report",
    "corner_offsets",
    "linear_vertex_ids",
    "trilinear_interpolate",
    "trilinear_interpolate_ids",
    "trilinear_interpolate_multi",
    "trilinear_vertices_and_weights",
    "QuantizedTensor",
    "quantize_int8",
    "dequantize_int8",
]
