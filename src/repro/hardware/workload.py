"""Per-frame workload descriptions.

The hardware models do not re-run the renderer; they consume a
:class:`FrameWorkload` summarising what rendering one frame of a scene
requires: how many rays, how many samples per ray, what fraction of samples
fall inside the scene box, how many samples actually touch occupied voxels
(and therefore need grid decoding and an MLP evaluation once early ray
termination is accounted for), and how large the scene's memory objects are.

Two constructors are provided:

* :func:`workload_from_render` — measures the fractions by tracing a reduced
  set of rays through the actual SpNeRF field (including early-termination
  accounting), then scales the ray count to the paper's 800x800 frames.  This
  is the default used by the evaluation.
* :func:`workload_from_scene` — a purely analytic estimate from the scene
  occupancy, used by property tests and quick sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.core.pipeline import SpNeRFBundle
from repro.datasets.synthetic import SyntheticScene
from repro.nerf.encoding import positional_encoding
from repro.nerf.mlp import MLPSpec
from repro.nerf.occupancy import build_occupancy_index
from repro.nerf.rays import generate_rays, ray_aabb_intersect, sample_along_rays
from repro.nerf.volume_rendering import compute_weights, density_to_alpha

__all__ = ["FrameWorkload", "COST_METRICS", "workload_from_scene", "workload_from_render"]

#: Frame geometry of the paper's evaluation (Synthetic-NeRF test images).
PAPER_IMAGE_WIDTH = 800
PAPER_IMAGE_HEIGHT = 800

#: Samples per ray used by the workload model (VQRF-style uniform marching).
DEFAULT_SAMPLES_PER_RAY = 192

#: Transmittance threshold below which a ray terminates early.
EARLY_TERMINATION_THRESHOLD = 1e-2

#: Cost metrics :meth:`FrameWorkload.cost` understands (what the serving
#: layer's cost-aware admission budgets in).
COST_METRICS = ("total_samples", "mlp_flops")


@dataclass
class FrameWorkload:
    """Everything the hardware models need to know about one rendered frame."""

    scene_name: str
    image_width: int = PAPER_IMAGE_WIDTH
    image_height: int = PAPER_IMAGE_HEIGHT
    samples_per_ray: int = DEFAULT_SAMPLES_PER_RAY
    inside_fraction: float = 0.45
    active_samples_per_ray: float = 4.0
    processed_samples_per_ray: float = 16.0
    occupancy: float = 0.04
    grid_resolution: int = 160
    feature_dim: int = 12
    num_nonzero_voxels: int = 150_000
    #: Logical vertex lookups per physical decode after vertex reuse
    #: (adjacent samples share corners; the double-buffered on-chip decode
    #: serves repeats from SRAM).  1.0 = no reuse measured.
    vertex_reuse: float = 1.0
    #: Occupancy-guided rendering: per-ray samples the occupancy index culls
    #: out of the processed set before any decode, and the fraction of rays
    #: it answers as background without a single query.  Zero when the field
    #: has no index; ``processed_samples_per_ray`` keeps its exhaustive
    #: meaning (what a renderer without occupancy guidance processes) so the
    #: calibrated accelerator/GPU comparisons are unchanged — consumers that
    #: model the occupancy-guided software path subtract
    #: ``occupancy_culled_samples_per_ray`` from it.
    occupancy_culled_samples_per_ray: float = 0.0
    occupancy_skipped_ray_fraction: float = 0.0
    spnerf_memory: Dict[str, int] = field(default_factory=dict)
    vqrf_restored_bytes: int = 0
    vqrf_compressed_bytes: int = 0
    mlp_spec: MLPSpec = field(default_factory=MLPSpec)

    # ------------------------------------------------------------------
    @property
    def num_rays(self) -> int:
        return self.image_width * self.image_height

    @property
    def total_samples(self) -> int:
        """All samples drawn along all rays (before any culling)."""
        return self.num_rays * self.samples_per_ray

    @property
    def processed_samples(self) -> int:
        """Samples that survive AABB clipping and early ray termination."""
        return int(round(self.num_rays * self.processed_samples_per_ray))

    @property
    def active_samples(self) -> int:
        """Samples touching occupied voxels (these run the MLP)."""
        return int(round(self.num_rays * self.active_samples_per_ray))

    @property
    def num_culled_samples(self) -> int:
        """Frame-total samples the occupancy index culls before any decode."""
        return int(round(self.num_rays * self.occupancy_culled_samples_per_ray))

    @property
    def num_skipped_rays(self) -> int:
        """Frame-total rays answered as background without a field query."""
        return int(round(self.num_rays * self.occupancy_skipped_ray_fraction))

    @property
    def occupancy_processed_samples(self) -> int:
        """Samples an occupancy-guided renderer actually processes."""
        return max(0, self.processed_samples - self.num_culled_samples)

    @property
    def vertex_lookups(self) -> int:
        """Voxel-vertex decodes (8 per processed sample)."""
        return self.processed_samples * 8

    @property
    def unique_vertex_fetches(self) -> int:
        """Physical vertex decodes after on-chip vertex reuse.

        ``vertex_lookups`` stays the logical count (what the decode units
        issue); this is the number that actually misses the reuse buffer and
        touches the hash-table / codebook SRAMs.
        """
        return int(round(self.vertex_lookups / max(self.vertex_reuse, 1.0)))

    @property
    def mlp_macs(self) -> int:
        """Multiply-accumulates the MLP unit performs for one frame."""
        return self.active_samples * self.mlp_spec.macs_per_sample

    @property
    def mlp_flops(self) -> int:
        return 2 * self.mlp_macs

    @property
    def spnerf_model_bytes(self) -> int:
        return int(self.spnerf_memory.get("total", 0))

    # ------------------------------------------------------------------
    def cost(self, metric: str = "total_samples") -> float:
        """One scalar cost of rendering this frame, in the chosen currency.

        ``"total_samples"`` (all samples drawn, before culling) tracks the
        sampling/decoding work a frame demands and is resolution x depth
        linear — the right admission currency when the bottleneck is the
        render loop.  ``"mlp_flops"`` weighs frames by their MLP evaluations
        instead, which is what saturates first on MLP-bound deployments.
        This is the estimate the serving layer budgets admission with.
        """
        if metric not in COST_METRICS:
            raise ValueError(
                f"unknown cost metric {metric!r}; choose from {', '.join(COST_METRICS)}"
            )
        return float(getattr(self, metric))

    # ------------------------------------------------------------------
    def scaled_to(self, width: int, height: int) -> "FrameWorkload":
        """The same per-ray statistics at a different image resolution."""
        from dataclasses import replace

        return replace(self, image_width=width, image_height=height)


def _estimate_inside_fraction(scene: SyntheticScene, probe_resolution: int = 64) -> float:
    """Fraction of drawn samples that land inside the scene bounding box."""
    camera = scene.cameras[0].scaled(probe_resolution / scene.cameras[0].width)
    rays = generate_rays(camera, near=scene.render_config.near, far=scene.render_config.far)
    rays = ray_aabb_intersect(rays, scene.bbox_min, scene.bbox_max)
    span = np.maximum(rays.far - rays.near, 0.0)
    full_span = scene.render_config.far - scene.render_config.near
    return float(np.mean(span / full_span))


def workload_from_scene(
    scene: SyntheticScene,
    spnerf_memory: Optional[Dict[str, int]] = None,
    samples_per_ray: int = DEFAULT_SAMPLES_PER_RAY,
    image_width: int = PAPER_IMAGE_WIDTH,
    image_height: int = PAPER_IMAGE_HEIGHT,
) -> FrameWorkload:
    """Analytic workload estimate from the scene's occupancy statistics.

    Active samples are estimated as: samples inside the box, times the
    probability of touching an occupied cell (occupancy with a surface
    clustering factor), capped by an early-termination budget of a few
    surface hits per ray.
    """
    occupancy = scene.occupancy_fraction()
    inside_fraction = _estimate_inside_fraction(scene)
    inside_per_ray = inside_fraction * samples_per_ray

    clustering = 3.0  # occupied voxels form surfaces, so hits cluster
    hit_probability = min(1.0, occupancy * clustering)
    active_before_termination = inside_per_ray * hit_probability
    # Early termination: an opaque surface saturates a ray after a handful of
    # occupied samples, so the per-ray active count is capped.
    termination_cap = 2.0 + 60.0 * occupancy
    active_per_ray = min(active_before_termination, termination_cap)
    # Rays terminate once opaque, so empty samples behind the surface are
    # never processed either.
    processed_per_ray = inside_per_ray * 0.6 + active_per_ray

    spec = scene.grid.spec
    return FrameWorkload(
        scene_name=scene.name,
        image_width=image_width,
        image_height=image_height,
        samples_per_ray=samples_per_ray,
        inside_fraction=inside_fraction,
        active_samples_per_ray=active_per_ray,
        processed_samples_per_ray=min(processed_per_ray, inside_per_ray),
        occupancy=occupancy,
        grid_resolution=spec.resolution,
        feature_dim=spec.feature_dim,
        num_nonzero_voxels=scene.sparse_grid.num_points,
        spnerf_memory=dict(spnerf_memory or {}),
        vqrf_restored_bytes=spec.num_vertices * (1 + spec.feature_dim) * 4,
        vqrf_compressed_bytes=0,
    )


def workload_from_render(
    bundle: SpNeRFBundle,
    probe_resolution: int = 64,
    samples_per_ray: int = DEFAULT_SAMPLES_PER_RAY,
    image_width: int = PAPER_IMAGE_WIDTH,
    image_height: int = PAPER_IMAGE_HEIGHT,
    rng_seed: int = 0,
) -> FrameWorkload:
    """Measure the per-ray workload by tracing probe rays through SpNeRF.

    A ``probe_resolution`` x ``probe_resolution`` ray grid is traced with the
    scene's first camera; per-ray statistics (samples inside the box, active
    samples before early termination, processed samples) are averaged and then
    applied to the paper's 800x800 frame geometry.
    """
    scene = bundle.scene
    field_obj = bundle.field
    camera = scene.cameras[0].scaled(probe_resolution / scene.cameras[0].width)
    rays = generate_rays(camera, near=scene.render_config.near, far=scene.render_config.far)
    rays = ray_aabb_intersect(rays, scene.bbox_min, scene.bbox_max)
    points, t_values = sample_along_rays(rays, samples_per_ray)

    n, s, _ = points.shape
    flat_points = points.reshape(-1, 3)
    spec = field_obj.spec
    inside_ids = np.flatnonzero(spec.contains(flat_points))
    # Shade every in-bounds sample with the field's empty-cell cull bypassed:
    # culled samples never reach the decoder, which would fold bitmap-cull
    # skips into the measured vertex reuse — the ratio must capture corner
    # *sharing* only.  The field itself is not modified.
    in_density, _ = field_obj.shade(
        spec.world_to_grid(flat_points[inside_ids]),
        positional_encoding(rays.directions, field_obj.num_view_frequencies),
        inside_ids // s,
        cull=False,
    )
    density = np.zeros(n * s, dtype=np.float64)
    density[inside_ids] = in_density
    density = density.reshape(n, s)

    inside = scene.grid.spec.contains(flat_points).reshape(n, s)
    active = density > 0.0

    # Early ray termination: find, per ray, the sample index where accumulated
    # transmittance drops below the threshold; samples after it are skipped.
    deltas = np.diff(t_values, axis=-1)
    last = deltas[..., -1:] if deltas.shape[-1] else np.ones_like(t_values[..., :1])
    deltas = np.concatenate([deltas, last], axis=-1)
    alphas = density_to_alpha(density, np.maximum(deltas, 1e-10))
    weights = compute_weights(alphas)
    transmittance = 1.0 - np.cumsum(weights, axis=-1)
    alive = transmittance > EARLY_TERMINATION_THRESHOLD
    # A sample is processed if the ray was still alive when reaching it.
    processed_mask = np.concatenate([np.ones_like(alive[:, :1]), alive[:, :-1]], axis=-1)

    processed = inside & processed_mask
    active_processed = active & processed_mask

    inside_fraction = float(np.mean(inside))
    processed_per_ray = float(np.mean(processed.sum(axis=-1)))
    active_per_ray = float(np.mean(active_processed.sum(axis=-1)))

    # Occupancy-guided rendering: measure, with the field's shared index,
    # how much of the processed set the renderer's occupancy cull removes
    # and how many rays it skips outright — the workload the software render
    # path actually performs.  (``processed_per_ray`` itself deliberately
    # keeps its exhaustive meaning; see :class:`FrameWorkload`.)
    occupancy_culled_per_ray = 0.0
    occupancy_skipped_fraction = 0.0
    occ_index = build_occupancy_index(field_obj)
    if occ_index is not None:
        occ_mask = occ_index.point_mask(flat_points).reshape(n, s)
        occupancy_culled_per_ray = float(np.mean((processed & ~occ_mask).sum(axis=-1)))
        occupancy_skipped_fraction = float(np.mean(~occ_mask.any(axis=-1)))

    # Vertex reuse measured by the probe render itself: the field's decode
    # cache reports how many of the 8-per-sample lookups were physical.
    vertex_reuse = 1.0
    probe_stats = getattr(field_obj, "last_stats", None)
    if probe_stats is not None and getattr(probe_stats, "num_unique_vertex_fetches", 0) > 0:
        vertex_reuse = max(
            1.0, probe_stats.num_vertex_lookups / probe_stats.num_unique_vertex_fetches
        )

    spec = scene.grid.spec
    return FrameWorkload(
        scene_name=scene.name,
        image_width=image_width,
        image_height=image_height,
        samples_per_ray=samples_per_ray,
        inside_fraction=inside_fraction,
        active_samples_per_ray=active_per_ray,
        processed_samples_per_ray=processed_per_ray,
        occupancy=scene.occupancy_fraction(),
        grid_resolution=spec.resolution,
        feature_dim=spec.feature_dim,
        num_nonzero_voxels=scene.sparse_grid.num_points,
        vertex_reuse=vertex_reuse,
        occupancy_culled_samples_per_ray=occupancy_culled_per_ray,
        occupancy_skipped_ray_fraction=occupancy_skipped_fraction,
        spnerf_memory=bundle.spnerf_model.memory_breakdown(),
        vqrf_restored_bytes=bundle.vqrf_model.restored_size_bytes(),
        vqrf_compressed_bytes=bundle.vqrf_model.compressed_size_bytes()["total"],
    )
