"""The volumetric renderer and the voxel-grid radiance fields.

:class:`VolumetricRenderer` walks rays through the scene bounding box,
queries a :class:`RadianceField` for per-sample density and RGB, and
composites them into an image.  The field abstraction is what lets the
reference pipeline, the VQRF restore-based pipeline and the SpNeRF online
decoding pipeline be compared with identical cameras, sampling and
compositing.

Rendering is ray-first: only the occupied part of each ray is sampled,
culled and composited, once.

1. Each ray's interval is clamped to the occupied region of the field's
   :class:`~repro.nerf.occupancy.OccupancyIndex` (``RenderConfig.use_occupancy``,
   on by default).  This touches only the rays.
2. The unchanged t-grid is computed only for the rays that hit the region,
   and world points only for the samples inside each clamped interval.
3. Those points are culled once against the index's cell grid; the grid
   coordinates the cull computes are kept.
4. The survivors go, in ray-major order, to :func:`shade_grid_samples`, the
   one kernel every :class:`GridField` shares (interpolate -> active -> MLP,
   parameterised by the field's vertex fetch).  Fields that are not grid
   fields get the survivors' world points through ``query``.
5. Only rays with at least one surviving sample are composited.  Every other
   pixel is exactly the background: its alphas are 0, so all its weights are.

Unguided rendering (``use_occupancy=False``, or a field without an index) is
the same path with every sample selected.  The result is bit-identical
either way: a culled sample would have decoded to exactly zero density and
colour, and the MLP sees the same survivors in the same order.

The view direction of a ray is identical for all of its samples, so its
positional encoding is computed once per ray (once per frame in
:meth:`VolumetricRenderer.render_image`, sliced per chunk).

Opt-in early ray termination (``RenderConfig.transmittance_threshold``) shades
the surviving samples in depth blocks and stops shading rays whose
transmittance has fallen below the threshold.  Off by default so the default
render stays bit-exact; :meth:`RenderConfig.fast` turns it on.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, Optional, Protocol, Tuple

import numpy as np

from repro.grid.interpolation import trilinear_interpolate_multi
from repro.grid.voxel_grid import GridSpec, VoxelGrid
from repro.nerf.encoding import positional_encoding
from repro.nerf.occupancy import OccupancyIndex, build_occupancy_index
from repro.nerf.mlp import MLP
from repro.nerf.rays import Camera, RayBatch, generate_rays, ray_aabb_intersect, sample_along_rays
from repro.nerf.volume_rendering import composite_rays, density_to_alpha, segment_lengths

__all__ = [
    "RadianceField",
    "GridField",
    "DenseGridField",
    "RenderConfig",
    "VolumetricRenderer",
    "RenderStats",
    "shade_grid_samples",
]

#: Maps ``(M, 3)`` int64 vertex coordinates to ``(density (M,), features (M, C))``.
VertexFetch = Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray]]


class RadianceField(Protocol):
    """Anything that can be volume-rendered.

    ``query`` receives world-space sample points and matching unit view
    directions and returns per-sample raw density ``(N,)`` and RGB ``(N, 3)``.

    This is the minimal contract the low-level renderer needs; the public API
    (:class:`repro.api.RadianceField`) extends it with ``stats`` and
    ``memory_report`` for workload and memory introspection.  Fields may
    additionally set ``accepts_encoded_dirs = True`` and take an
    ``encoded_dirs`` keyword to receive the view-direction encoding
    precomputed once per ray.
    """

    def query(self, points: np.ndarray, view_dirs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        ...  # pragma: no cover - protocol definition


@dataclass
class RenderConfig:
    """Sampling and compositing parameters shared by all pipelines.

    ``transmittance_threshold`` enables early ray termination: once a ray's
    accumulated transmittance drops below it, the remaining samples are not
    queried.  The default of 0.0 keeps rendering bit-exact (every sample is
    queried); the :meth:`fast` profile enables it.  ``termination_block_size``
    is the number of depth samples queried between transmittance checks.
    """

    num_samples: int = 64
    near: float = 0.05
    far: float = 12.0
    background: Tuple[float, float, float] = (1.0, 1.0, 1.0)
    chunk_size: int = 8192
    stratified: bool = False
    num_view_frequencies: int = 4
    transmittance_threshold: float = 0.0
    termination_block_size: int = 16
    #: Consult the field's occupancy index (when it has one) to skip empty
    #: rays and cull empty-cell samples.  Bit-identical images either way;
    #: off only for benchmarking the exhaustive path.
    use_occupancy: bool = True

    def fast(self, **overrides) -> "RenderConfig":
        """The fast-render profile: early ray termination enabled.

        The 1e-3 threshold drops contributions bounded by 0.1% of pixel
        intensity — invisible at 8-bit precision but enough to stop rays as
        soon as they hit an opaque surface.
        """
        defaults = {"transmittance_threshold": 1e-3}
        defaults.update(overrides)
        return replace(self, **defaults)


@dataclass
class RenderStats:
    """Workload counters produced while rendering one image.

    These are the quantities the hardware models consume: how many rays were
    traced, how many samples were taken, how many of those landed in occupied
    space (and therefore trigger grid lookups and an MLP evaluation).
    ``num_vertex_lookups`` stays *logical* (8 per queried in-bounds sample);
    ``num_unique_vertex_fetches`` counts the physical fetches after the
    vertex-reuse decode cache, so their ratio is the reuse factor the
    accelerator's double-buffered decode exploits.

    ``num_samples`` is always the logical count (rays x samples-per-ray);
    ``num_culled_samples`` of those were skipped by the occupancy index
    before ever reaching the field, and ``num_skipped_rays`` counts rays
    answered as background without a single field query.  Both read 0 when
    occupancy guidance is off or the field has no index.
    """

    num_rays: int = 0
    num_samples: int = 0
    num_active_samples: int = 0
    num_vertex_lookups: int = 0
    num_unique_vertex_fetches: int = 0
    num_culled_samples: int = 0
    num_skipped_rays: int = 0

    @property
    def vertex_reuse_ratio(self) -> float:
        """Logical vertex lookups per physical fetch (1.0 = no reuse)."""
        if self.num_unique_vertex_fetches <= 0:
            return 1.0
        return self.num_vertex_lookups / self.num_unique_vertex_fetches

    def merge(self, other: "RenderStats") -> None:
        self.num_rays += other.num_rays
        self.num_samples += other.num_samples
        self.num_active_samples += other.num_active_samples
        self.num_vertex_lookups += other.num_vertex_lookups
        self.num_unique_vertex_fetches += other.num_unique_vertex_fetches
        self.num_culled_samples += other.num_culled_samples
        self.num_skipped_rays += other.num_skipped_rays


def shade_grid_samples(
    grid_coords: np.ndarray,
    fetch: VertexFetch,
    resolution: int,
    mlp: MLP,
    encoded: np.ndarray,
    rows: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray, int]:
    """The grid-field kernel: interpolate -> active -> MLP.

    ``grid_coords`` are ``(K, 3)`` continuous grid coordinates the caller
    has already bounds-checked (and, if it culls, culled).  The eight corners
    of each sample come from ``fetch`` and are interpolated in one fused
    pass.  Samples whose density and features are all zero skip the MLP —
    the sparsity every voxel NeRF renderer, and the accelerator, exploits.
    ``encoded`` holds view-direction encodings; sample ``i`` uses row
    ``rows[i]`` (row ``i`` when ``rows`` is omitted).

    Returns raw density ``(K,)``, RGB ``(K, 3)`` and the active-sample count.
    """
    k = grid_coords.shape[0]
    rgb = np.zeros((k, 3), dtype=np.float64)
    if k == 0:
        return np.zeros(0, dtype=np.float64), rgb, 0
    density, features = trilinear_interpolate_multi(grid_coords, fetch, resolution)
    active = np.flatnonzero((density > 0.0) | np.any(features != 0.0, axis=-1))
    if active.size:
        view = np.take(encoded, active if rows is None else rows[active], axis=0)
        features = np.take(features, active, axis=0)
        rgb[active] = mlp.forward(np.concatenate([features, view], axis=-1))
    return density, rgb, int(active.size)


class GridField:
    """Shared body of the voxel-grid fields (dense, VQRF-restored, SpNeRF).

    Subclasses provide ``spec`` (the grid geometry) and
    :meth:`fetch_vertices`; they may add their own empty-cell cull
    (:meth:`cull_index`) and a physical-fetch counter
    (:meth:`unique_fetches`).  :meth:`shade` runs :func:`shade_grid_samples`
    on grid coordinates, which is what the renderer calls; :meth:`query` is
    the world-space wrapper for protocol callers.
    """

    accepts_encoded_dirs = True
    spec: GridSpec

    def __init__(self, mlp: MLP, num_view_frequencies: int = 4) -> None:
        self.mlp = mlp
        self.num_view_frequencies = num_view_frequencies
        self.last_stats = RenderStats()

    def fetch_vertices(self, vertices: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Density and features of ``(M, 3)`` int64 grid vertices."""
        raise NotImplementedError

    def cull_index(self) -> Optional[OccupancyIndex]:
        """Index of the field's own empty-cell cull, or ``None`` for none."""
        return None

    def unique_fetches(self) -> Optional[int]:
        """Running count of physical vertex fetches (``None``: all are physical)."""
        return None

    # ------------------------------------------------------------------
    def shade(
        self,
        grid_coords: np.ndarray,
        encoded: np.ndarray,
        rows: Optional[np.ndarray] = None,
        cull: bool = True,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-sample raw density and RGB of in-bounds grid coordinates.

        ``encoded``/``rows`` are as in :func:`shade_grid_samples`.  With
        ``cull`` the field's own empty-cell cull (if any) skips samples in
        empty cells, which decode to exactly zero; callers that already
        culled against the same index pass ``cull=False``.  Counters land in
        :attr:`last_stats`: 8 logical vertex lookups per given sample.
        """
        k = grid_coords.shape[0]
        index = self.cull_index() if cull else None
        keep = None if index is None else np.flatnonzero(index.cell_mask(grid_coords))
        before = self.unique_fetches()
        args = (self.fetch_vertices, self.spec.resolution, self.mlp, encoded)
        if keep is None or keep.size == k:
            density, rgb, active = shade_grid_samples(grid_coords, *args, rows)
        else:
            density = np.zeros(k, dtype=np.float64)
            rgb = np.zeros((k, 3), dtype=np.float64)
            density[keep], rgb[keep], active = shade_grid_samples(
                np.take(grid_coords, keep, axis=0), *args, keep if rows is None else rows[keep]
            )
        lookups = 8 * k
        self.last_stats = RenderStats(
            num_samples=k,
            num_active_samples=active,
            num_vertex_lookups=lookups,
            num_unique_vertex_fetches=(
                lookups if before is None else self.unique_fetches() - before
            ),
        )
        return density, rgb

    def query(
        self,
        points: np.ndarray,
        view_dirs: np.ndarray,
        encoded_dirs: Optional[np.ndarray] = None,
        active_mask: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-sample raw density and RGB of world-space points.

        Points outside the grid's bounding box are exactly zero.
        ``active_mask`` is an optional precomputed ``(N,)`` occupancy verdict
        (typically from an :class:`~repro.nerf.occupancy.OccupancyIndex`):
        samples marked ``False`` are guaranteed empty by the caller and
        return exactly zero without being shaded.
        """
        points = np.asarray(points, dtype=np.float64)
        n = points.shape[0]
        inside = self.spec.contains(points)
        if active_mask is not None:
            inside &= np.asarray(active_mask, dtype=bool)
        inside = np.flatnonzero(inside)
        if encoded_dirs is None:
            encoded = positional_encoding(
                np.asarray(view_dirs, dtype=np.float64)[inside], self.num_view_frequencies
            )
            rows = None
        else:
            encoded, rows = encoded_dirs, inside
        d, c = self.shade(self.spec.world_to_grid(points[inside]), encoded, rows)
        density = np.zeros(n, dtype=np.float64)
        rgb = np.zeros((n, 3), dtype=np.float64)
        density[inside] = d
        rgb[inside] = c
        self.last_stats.num_samples = n
        return density, rgb

    @property
    def stats(self) -> RenderStats:
        """Workload counters from the most recent :meth:`query` or :meth:`shade`."""
        return self.last_stats


class DenseGridField(GridField):
    """Reference radiance field: dense voxel grid + MLP decoder.

    Density is trilinearly interpolated from the grid's density channel; color
    comes from the MLP applied to the interpolated 12-channel feature and the
    encoded view direction.  This is the "ground truth" field the synthetic
    dataset's images are rendered from, and also what VQRF reconstructs after
    its restore step.  The vertex fetch is a direct gather from the host
    arrays, so every lookup is a physical fetch (reuse ratio 1.0).
    """

    def __init__(self, grid: VoxelGrid, mlp: MLP, num_view_frequencies: int = 4) -> None:
        super().__init__(mlp, num_view_frequencies)
        self.grid = grid

    @property
    def spec(self) -> GridSpec:
        return self.grid.spec

    def fetch_vertices(self, vertices: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        x, y, z = vertices[:, 0], vertices[:, 1], vertices[:, 2]
        return self.grid.density[x, y, z], self.grid.features[x, y, z]

    # ------------------------------------------------------------------
    def occupancy_grid(self):
        """``(spec, vertex_mask)`` describing which vertices are non-zero.

        Consumed by :func:`~repro.nerf.occupancy.build_occupancy_index`; the
        mask is exact (a vertex is occupied iff its density or any feature
        channel is non-zero), so cells it reports empty interpolate to
        exactly zero.
        """
        return self.grid.spec, self.grid.occupancy_mask()

    def memory_report(self) -> Dict[str, int]:
        """Rendering-time memory: the full dense density and feature grids."""
        sizes = {
            "density_grid": int(self.grid.density.nbytes),
            "feature_grid": int(self.grid.features.nbytes),
        }
        sizes["total"] = sum(sizes.values())
        return sizes


class VolumetricRenderer:
    """Renders images (or pixel subsets) of any :class:`RadianceField`.

    Parameters
    ----------
    field, config:
        The radiance field and sampling/compositing parameters.
    occupancy:
        Optional explicit :class:`~repro.nerf.occupancy.OccupancyIndex` over
        the field's own grid.  When omitted and ``config.use_occupancy`` is
        on, the field's own cached index is used (built once per bundle by
        :func:`~repro.nerf.occupancy.build_occupancy_index`); fields may opt
        out wholesale with a ``use_occupancy = False`` attribute (set by
        ``PipelineConfig(occupancy=False)``).
    """

    def __init__(
        self,
        field: RadianceField,
        config: Optional[RenderConfig] = None,
        occupancy=None,
    ) -> None:
        self.field = field
        self.config = config or RenderConfig()
        self.last_stats = RenderStats()
        self.occupancy = None
        if self.config.use_occupancy and getattr(field, "use_occupancy", True):
            if occupancy is None:
                occupancy = build_occupancy_index(field)
            self.occupancy = occupancy
        self._grid = isinstance(field, GridField)
        if self._grid and self.occupancy is not None and self.occupancy.spec != field.spec:
            raise ValueError("the occupancy index must cover the field's own grid")

    # ------------------------------------------------------------------
    def reset_stats(self) -> None:
        """Start a fresh :attr:`last_stats` accumulation window.

        :meth:`render_rays` deliberately *merges* into ``last_stats`` so a
        chunked frame accumulates one set of counters — which means direct
        ``render_rays`` callers rendering multiple frames must call this
        between frames (as :meth:`render_image`, :meth:`render_pixels`, the
        engine and the serving paths do) or the counters keep growing.
        """
        self.last_stats = RenderStats()

    # ------------------------------------------------------------------
    def _encode_ray_dirs(self, directions: np.ndarray) -> Optional[np.ndarray]:
        """Per-ray view-direction encoding, if the field takes one.

        Grid fields always do (the kernel gathers per-ray rows); any other
        field opts in with ``accepts_encoded_dirs``.
        """
        if not (self._grid or getattr(self.field, "accepts_encoded_dirs", False)):
            return None
        frequencies = getattr(
            self.field, "num_view_frequencies", self.config.num_view_frequencies
        )
        return positional_encoding(directions, frequencies)

    def _shade(
        self,
        samples: np.ndarray,
        sample_rays: np.ndarray,
        directions: np.ndarray,
        encoded: Optional[np.ndarray],
        batch_stats: RenderStats,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Density and RGB of selected samples, counters folded into ``batch_stats``.

        ``samples`` are grid coordinates for a grid field and world points
        otherwise; ``sample_rays`` names each sample's ray.
        """
        field = self.field
        if self._grid:
            density, rgb = field.shade(
                samples, encoded, sample_rays, cull=self.occupancy is None
            )
        elif encoded is not None:
            density, rgb = field.query(
                samples, directions[sample_rays], encoded_dirs=encoded[sample_rays]
            )
        else:
            density, rgb = field.query(samples, directions[sample_rays])
        stats = getattr(field, "last_stats", None)
        if stats is not None:
            batch_stats.num_active_samples += stats.num_active_samples
            batch_stats.num_vertex_lookups += stats.num_vertex_lookups
            batch_stats.num_unique_vertex_fetches += getattr(
                stats, "num_unique_vertex_fetches", 0
            )
        return density, rgb

    # ------------------------------------------------------------------
    def _select_samples(
        self, rays: RayBatch, rng: Optional[np.random.Generator]
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Sample and cull: steps 1-3 of the module docstring.

        Returns ``(rows, t_values, ids, samples)``: the sampled rays, their
        ``(R, S)`` t-grid, the flat ``(R, S)`` indices of the selected samples
        in ray-major order, and those samples as grid coordinates (grid
        fields) or world points.  Unguided, every sample is selected; a grid
        field still drops the ones outside its bounding box, which it would
        return as exact zeros.
        """
        cfg = self.config
        occ = self.occupancy
        s = cfg.num_samples
        if occ is None:
            rows = np.arange(rays.num_rays)
            points, t_values = sample_along_rays(rays, s, cfg.stratified, rng)
            points = points.reshape(-1, 3)
            ids = np.arange(points.shape[0])
            if not self._grid:
                return rows, t_values, ids, points
            spec = self.field.spec
        else:
            near, far, hit = occ.clip_rays(rays.origins, rays.directions, rays.near, rays.far)
            rows = np.flatnonzero(hit)
            points, t_values, ids = sample_along_rays(
                rays, s, cfg.stratified, rng, rows=rows, bounds=(near[rows], far[rows])
            )
            spec = occ.spec
        inside = np.flatnonzero(spec.contains(points))
        coords = spec.world_to_grid(np.take(points, inside, axis=0))
        if occ is not None:
            keep = np.flatnonzero(occ.cell_mask(coords))
            inside, coords = inside[keep], np.take(coords, keep, axis=0)
        if not self._grid:
            coords = np.take(points, inside, axis=0)
        return rows, t_values, ids[inside], coords

    def render_rays(
        self,
        rays: RayBatch,
        rng: Optional[np.random.Generator] = None,
        encoded_dirs: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Render a batch of rays to ``(N, 3)`` pixel colors.

        ``encoded_dirs`` optionally supplies the per-ray view-direction
        encodings (one row per ray); :meth:`render_image` computes them once
        per frame and passes the chunk's slice here.  Stats are *merged* into
        :attr:`last_stats` — see :meth:`reset_stats`.
        """
        cfg = self.config
        n, s = rays.num_rays, cfg.num_samples
        guided = self.occupancy is not None
        encoded = (
            encoded_dirs if encoded_dirs is not None else self._encode_ray_dirs(rays.directions)
        )
        batch_stats = RenderStats(num_rays=n, num_samples=n * s)
        rows, t_values, ids, samples = self._select_samples(rays, rng)

        # Compact the rays with at least one selected sample ("live" rays):
        # ``slot`` is each sample's flat index into the (live, S) arrays.
        ray = ids // s
        first = np.ones(ray.size, dtype=bool)
        first[1:] = ray[1:] != ray[:-1]
        live = ray[first]
        slot = (np.cumsum(first) - 1) * s + (ids - ray * s)
        sample_rays = rows[ray]
        if guided:
            batch_stats.num_skipped_rays += n - live.size

        t_live = t_values[live]
        if cfg.transmittance_threshold > 0.0 and s > 1:
            density, rgb = self._shade_with_termination(
                samples, slot, sample_rays, t_live, rays.directions, encoded, batch_stats
            )
            if guided:
                batch_stats.num_culled_samples += (n - live.size) * s
        else:
            density = np.zeros((live.size, s), dtype=np.float64)
            rgb = np.zeros((live.size, s, 3), dtype=np.float64)
            density.reshape(-1)[slot], rgb.reshape(-1, 3)[slot] = self._shade(
                samples, sample_rays, rays.directions, encoded, batch_stats
            )
            if guided:
                batch_stats.num_culled_samples += n * s - ids.size

        background = np.asarray(cfg.background, dtype=np.float64)
        pixels = np.tile(background, (n, 1))
        if live.size:
            pixels[rows[live]] = composite_rays(density, rgb, t_live, background=background)[0]
        self.last_stats.merge(batch_stats)
        return pixels

    # ------------------------------------------------------------------
    def _shade_with_termination(
        self,
        samples: np.ndarray,
        slot: np.ndarray,
        sample_rays: np.ndarray,
        t_live: np.ndarray,
        directions: np.ndarray,
        encoded: Optional[np.ndarray],
        batch_stats: RenderStats,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Shade the selected samples in depth blocks, dropping rays that went opaque.

        Samples never shaded keep zero density, so they contribute nothing
        when the arrays are composited; the image differs from an exhaustive
        render only by contributions bounded by the threshold.  Under
        occupancy guidance, the samples of live rays that a block does not
        shade count as culled.
        """
        cfg = self.config
        num_live, s = t_live.shape
        block = max(1, int(cfg.termination_block_size))
        deltas = segment_lengths(t_live)
        row, col = np.divmod(slot, s)

        density = np.zeros((num_live, s), dtype=np.float64)
        rgb = np.zeros((num_live, s, 3), dtype=np.float64)
        transmittance = np.ones(num_live, dtype=np.float64)
        alive = np.ones(num_live, dtype=bool)
        for start in range(0, s, block):
            alive_rows = np.flatnonzero(alive)
            if alive_rows.size == 0:
                break
            end = min(start + block, s)
            pick = np.flatnonzero((col >= start) & (col < end) & alive[row])
            if self.occupancy is not None:
                batch_stats.num_culled_samples += alive_rows.size * (end - start) - pick.size
            if pick.size == 0:
                # No ray still alive has a selected sample in this block: zero
                # densities leave the (1 + 1e-10)-guarded transmittance product
                # a no-op within the threshold's tolerance, so skip it outright.
                continue
            density[row[pick], col[pick]], rgb[row[pick], col[pick]] = self._shade(
                samples[pick], sample_rays[pick], directions, encoded, batch_stats
            )
            # Same (1 - alpha + 1e-10) product as compute_weights, so the
            # termination decision is consistent with the compositor.
            alphas = density_to_alpha(
                density[alive_rows, start:end], deltas[alive_rows, start:end]
            )
            transmittance[alive_rows] *= np.prod(1.0 - alphas + 1e-10, axis=-1)
            alive[alive_rows] = transmittance[alive_rows] > cfg.transmittance_threshold
        return density, rgb

    # ------------------------------------------------------------------
    def render_image(
        self,
        camera: Camera,
        bbox_min: Tuple[float, float, float],
        bbox_max: Tuple[float, float, float],
        rng: Optional[np.random.Generator] = None,
    ) -> np.ndarray:
        """Render a full image from ``camera``, returning ``(H, W, 3)`` in [0, 1]."""
        cfg = self.config
        self.reset_stats()
        rays = generate_rays(camera, near=cfg.near, far=cfg.far)
        rays = ray_aabb_intersect(rays, bbox_min, bbox_max)
        # One view-direction encoding per frame, sliced per chunk below —
        # re-encoding the same directions for every chunk was pure waste.
        encoded = self._encode_ray_dirs(rays.directions)

        pixels = np.zeros((rays.num_rays, 3), dtype=np.float64)
        for start in range(0, rays.num_rays, cfg.chunk_size):
            end = min(start + cfg.chunk_size, rays.num_rays)
            chunk = RayBatch(
                rays.origins[start:end],
                rays.directions[start:end],
                rays.near[start:end],
                rays.far[start:end],
            )
            pixels[start:end] = self.render_rays(
                chunk, rng=rng, encoded_dirs=None if encoded is None else encoded[start:end]
            )
        return np.clip(pixels.reshape(camera.height, camera.width, 3), 0.0, 1.0)

    # ------------------------------------------------------------------
    def render_pixels(
        self,
        camera: Camera,
        pixel_indices: np.ndarray,
        bbox_min: Tuple[float, float, float],
        bbox_max: Tuple[float, float, float],
    ) -> np.ndarray:
        """Render only selected pixels (used by the fast PSNR sweeps)."""
        cfg = self.config
        self.reset_stats()
        rays = generate_rays(camera, near=cfg.near, far=cfg.far, pixel_indices=pixel_indices)
        rays = ray_aabb_intersect(rays, bbox_min, bbox_max)
        return np.clip(self.render_rays(rays), 0.0, 1.0)
