"""The end-to-end SpNeRF rendering pipeline.

:class:`SpNeRFField` is the SpNeRF counterpart of the dense reference field
and the VQRF restore field: ray samples are mapped to grid coordinates, the
eight surrounding vertices are decoded **online** through the hash tables and
bitmap (no dense grid ever exists), trilinearly interpolated (Eq. 2 weights),
and pushed through the 39-wide decoder MLP.  Volume rendering is shared with
the other pipelines via :class:`~repro.nerf.renderer.VolumetricRenderer`.

:func:`build_spnerf_from_scene` is the underlying builder: scene -> VQRF
compression -> SpNeRF preprocessing -> renderable field.  New code should go
through the :mod:`repro.api` facade instead (``build_field("spnerf", scene)``
or :func:`repro.api.build_bundle`), which adds pipeline registration and
VQRF-model caching on top of this function.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.config import SpNeRFConfig
from repro.core.decoding import OnlineDecoder
from repro.core.preprocessing import SpNeRFModel, preprocess
from repro.datasets.synthetic import SyntheticScene
from repro.grid.voxel_grid import GridSpec
from repro.nerf.mlp import MLP
from repro.nerf.occupancy import build_occupancy_index
from repro.nerf.renderer import GridField
from repro.vqrf.model import VQRFModel, compress_scene

# perfbench/tracing.py wraps these names in this module.  The shared kernel in
# repro.nerf.renderer does the interpolation and encoding, so the spans
# wrapped here stay empty.
from repro.grid.interpolation import trilinear_interpolate_multi  # noqa: F401
from repro.nerf.encoding import positional_encoding  # noqa: F401

__all__ = ["SpNeRFField", "SpNeRFBundle", "build_spnerf_from_scene"]


class SpNeRFField(GridField):
    """Radiance field backed by SpNeRF online decoding.

    The shared grid-field kernel runs with the online decoder as its vertex
    fetch: each corner is decoded through the hash tables and bitmap, and no
    dense grid ever exists.

    Parameters
    ----------
    model, mlp, num_view_frequencies, use_bitmap_masking:
        The preprocessed scene, decoder MLP and decoding switches.
    dedup_vertices:
        Enable the vertex-reuse decode cache: adjacent samples share most of
        their eight corners, so each unique vertex is decoded once and the
        result scattered.  Output-identical either way (decoding is a pure
        per-vertex function); off only for benchmarking the un-cached path.
    cull_empty_samples:
        Skip the whole 8-corner lattice/decode/interpolation for samples
        whose voxel cell is entirely unoccupied — one gather into the
        shared :class:`~repro.nerf.occupancy.OccupancyIndex` built from the
        bitmap (the same index the renderer's occupancy guidance uses, so
        there is exactly one cull implementation).  The renderer culls once
        itself when occupancy guidance is on; this field-level cull serves
        unguided renders and direct :meth:`query` calls.  Output-identical
        when bitmap masking is enabled, because masking decodes every
        unoccupied vertex to exactly zero; it is automatically disabled when
        masking is off, where hash collisions make empty cells decode
        non-zero.  Note that culled cells never reach the decoder, so
        :class:`DecodeStats` no longer counts their empty-slot/masking
        diagnostics; pass ``cull_empty_samples=False`` to recover the
        exhaustive counters.
    """

    def __init__(
        self,
        model: SpNeRFModel,
        mlp: MLP,
        num_view_frequencies: int = 4,
        use_bitmap_masking: Optional[bool] = None,
        dedup_vertices: bool = True,
        cull_empty_samples: bool = True,
    ) -> None:
        super().__init__(mlp, num_view_frequencies)
        self.model = model
        self.decoder = OnlineDecoder(
            model, use_bitmap_masking=use_bitmap_masking, deduplicate=dedup_vertices
        )
        self.cull_empty_samples = cull_empty_samples

    @property
    def spec(self) -> GridSpec:
        return self.model.spec

    def fetch_vertices(self, vertices: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        return self.decoder.decode_vertices(vertices)

    def cull_index(self):
        """The shared occupancy index while the empty-cell cull is sound and on."""
        if self.cull_empty_samples and self.decoder.masking_enabled:
            return self.occupancy_index()
        return None

    def unique_fetches(self) -> int:
        return self.decoder.stats.num_unique_lookups

    # Bound in this class's own namespace so per-class profilers (see
    # perfbench/tracing.py) can wrap SpNeRFField.query.
    query = GridField.query

    # ------------------------------------------------------------------
    def occupancy_grid(self):
        """``(spec, vertex_mask)`` from the bitmap, or ``None`` without masking.

        With bitmap masking on, every vertex the bitmap marks empty decodes
        to exactly zero, so the bitmap is a sound occupancy source for both
        the renderer's occupancy guidance and this field's own empty-cell
        cull.  Without masking, hash collisions make empty cells decode
        non-zero, so no occupancy index can be built.
        """
        if not self.decoder.masking_enabled:
            return None
        return self.model.spec, self.model.bitmap.to_dense()

    def occupancy_index(self):
        """The field's shared (cached) occupancy index, or ``None``."""
        return build_occupancy_index(self)

    def memory_report(self) -> Dict[str, int]:
        """Rendering-time memory: hash tables + bitmap + codebook + true grid."""
        return self.model.memory_breakdown()


@dataclass
class SpNeRFBundle:
    """Everything produced when SpNeRF is applied to one scene."""

    scene: SyntheticScene
    vqrf_model: VQRFModel
    spnerf_model: SpNeRFModel
    field: SpNeRFField


def build_spnerf_from_scene(
    scene: SyntheticScene,
    config: Optional[SpNeRFConfig] = None,
    prune_fraction: float = 0.05,
    keep_fraction: float = 0.30,
    kmeans_iterations: int = 6,
    seed: int = 0,
    use_bitmap_masking: Optional[bool] = None,
    vqrf_model: Optional[VQRFModel] = None,
    dedup_vertices: bool = True,
    cull_empty_samples: bool = True,
) -> SpNeRFBundle:
    """Compress a scene with VQRF and preprocess it for SpNeRF.

    Parameters
    ----------
    scene:
        A loaded :class:`~repro.datasets.synthetic.SyntheticScene`.
    config:
        SpNeRF hyper-parameters (subgrid count, table size, ...); ``None``
        means the paper defaults (a fresh :class:`SpNeRFConfig`).
    prune_fraction, keep_fraction, kmeans_iterations, seed:
        Forwarded to VQRF compression (ignored when ``vqrf_model`` is given).
    use_bitmap_masking:
        Optional override for the decoder's masking switch.
    vqrf_model:
        Reuse an already-compressed model (avoids re-running k-means in
        sweeps that only vary SpNeRF parameters).
    dedup_vertices, cull_empty_samples:
        Hot-path switches forwarded to :class:`SpNeRFField` (vertex-reuse
        decode cache and bitmap-based empty-sample cull).
    """
    if config is None:
        config = SpNeRFConfig()
    if vqrf_model is None:
        vqrf_model = compress_scene(
            scene.sparse_grid,
            codebook_size=config.codebook_size,
            prune_fraction=prune_fraction,
            keep_fraction=keep_fraction,
            kmeans_iterations=kmeans_iterations,
            seed=seed,
        )
    spnerf_model = preprocess(vqrf_model, config)
    field = SpNeRFField(
        spnerf_model,
        scene.mlp,
        num_view_frequencies=scene.render_config.num_view_frequencies,
        use_bitmap_masking=use_bitmap_masking,
        dedup_vertices=dedup_vertices,
        cull_empty_samples=cull_empty_samples,
    )
    return SpNeRFBundle(
        scene=scene, vqrf_model=vqrf_model, spnerf_model=spnerf_model, field=field
    )
