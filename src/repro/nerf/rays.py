"""Cameras, ray generation and ray sampling.

The Synthetic-NeRF dataset uses pinhole cameras on a sphere looking at the
origin, rendering 800x800 images.  This module reproduces that geometry:
:class:`Camera` holds intrinsics and a camera-to-world pose,
:func:`generate_rays` produces one ray per pixel, :func:`ray_aabb_intersect`
clips rays against the scene bounding box and :func:`sample_along_rays` draws
the per-ray sample points that the voxel grid is interrogated at.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

__all__ = [
    "Camera",
    "RayBatch",
    "look_at_pose",
    "generate_rays",
    "ray_aabb_interval",
    "ray_aabb_intersect",
    "sample_along_rays",
]


@dataclass(frozen=True)
class Camera:
    """Pinhole camera with a camera-to-world pose.

    Parameters
    ----------
    width, height:
        Image size in pixels.
    focal:
        Focal length in pixels (same for x and y, as in Synthetic-NeRF).
    camera_to_world:
        ``(4, 4)`` pose matrix; the camera looks down its local -z axis.
    """

    width: int
    height: int
    focal: float
    camera_to_world: np.ndarray

    def __post_init__(self) -> None:
        pose = np.asarray(self.camera_to_world, dtype=np.float64)
        if pose.shape != (4, 4):
            raise ValueError("camera_to_world must be a 4x4 matrix")
        object.__setattr__(self, "camera_to_world", pose)
        if self.width < 1 or self.height < 1:
            raise ValueError("image dimensions must be positive")
        if self.focal <= 0:
            raise ValueError("focal length must be positive")

    @property
    def num_pixels(self) -> int:
        return self.width * self.height

    @property
    def position(self) -> np.ndarray:
        """Camera origin in world space."""
        return self.camera_to_world[:3, 3].copy()

    def scaled(self, factor: float) -> "Camera":
        """Return a camera rendering at ``factor`` times the resolution."""
        return Camera(
            width=max(1, int(round(self.width * factor))),
            height=max(1, int(round(self.height * factor))),
            focal=self.focal * factor,
            camera_to_world=self.camera_to_world.copy(),
        )


@dataclass
class RayBatch:
    """A batch of rays: origins, unit directions and integration bounds."""

    origins: np.ndarray  # (N, 3)
    directions: np.ndarray  # (N, 3), unit length
    near: np.ndarray  # (N,)
    far: np.ndarray  # (N,)

    def __post_init__(self) -> None:
        self.origins = np.asarray(self.origins, dtype=np.float64)
        self.directions = np.asarray(self.directions, dtype=np.float64)
        self.near = np.asarray(self.near, dtype=np.float64)
        self.far = np.asarray(self.far, dtype=np.float64)

    @property
    def num_rays(self) -> int:
        return int(self.origins.shape[0])

    def valid_mask(self) -> np.ndarray:
        """Rays that actually intersect the scene (far > near)."""
        return self.far > self.near


def look_at_pose(
    eye: np.ndarray, target: np.ndarray = (0.0, 0.0, 0.0), up: np.ndarray = (0.0, 0.0, 1.0)
) -> np.ndarray:
    """Build a camera-to-world matrix for a camera at ``eye`` looking at ``target``.

    Uses the OpenGL/NeRF convention: the camera looks along its local -z axis,
    +x is right and +y is up in the image plane.
    """
    eye = np.asarray(eye, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    up = np.asarray(up, dtype=np.float64)

    forward = eye - target
    norm = np.linalg.norm(forward)
    if norm < 1e-12:
        raise ValueError("eye and target coincide")
    forward = forward / norm

    right = np.cross(up, forward)
    right_norm = np.linalg.norm(right)
    if right_norm < 1e-12:
        # Up is parallel to the view direction; pick an arbitrary orthogonal up.
        up = np.array([0.0, 1.0, 0.0])
        right = np.cross(up, forward)
        right_norm = np.linalg.norm(right)
    right = right / right_norm
    true_up = np.cross(forward, right)

    pose = np.eye(4)
    pose[:3, 0] = right
    pose[:3, 1] = true_up
    pose[:3, 2] = forward
    pose[:3, 3] = eye
    return pose


def generate_rays(
    camera: Camera,
    near: float = 0.1,
    far: float = 10.0,
    pixel_indices: Optional[np.ndarray] = None,
) -> RayBatch:
    """Generate one ray per pixel (or per selected pixel) of a camera.

    Parameters
    ----------
    camera:
        The camera to trace from.
    near, far:
        Default integration bounds (later tightened by the scene AABB).
    pixel_indices:
        Optional ``(K,)`` array of flat pixel indices (row-major) to generate
        rays for; all pixels when omitted.
    """
    h, w = camera.height, camera.width
    if pixel_indices is None:
        jj, ii = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
        rows = jj.reshape(-1)
        cols = ii.reshape(-1)
    else:
        pixel_indices = np.asarray(pixel_indices, dtype=np.int64)
        rows = pixel_indices // w
        cols = pixel_indices % w

    # Pixel centers -> camera-space directions (camera looks down -z).
    x = (cols + 0.5 - w * 0.5) / camera.focal
    y = -(rows + 0.5 - h * 0.5) / camera.focal
    z = -np.ones_like(x)
    dirs_cam = np.stack([x, y, z], axis=-1)

    rotation = camera.camera_to_world[:3, :3]
    dirs_world = dirs_cam @ rotation.T
    dirs_world = dirs_world / np.linalg.norm(dirs_world, axis=-1, keepdims=True)

    origins = np.broadcast_to(camera.position, dirs_world.shape).copy()
    n = dirs_world.shape[0]
    return RayBatch(
        origins=origins,
        directions=dirs_world,
        near=np.full(n, near, dtype=np.float64),
        far=np.full(n, far, dtype=np.float64),
    )


def ray_aabb_interval(
    origins: np.ndarray,
    directions: np.ndarray,
    bbox_min,
    bbox_max,
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-ray entry/exit parameters against an axis-aligned bounding box.

    The standard slab method on bare arrays: returns ``(t_near, t_far)`` with
    ``t_far < t_near`` for rays missing the box.  Shared by the scene-bbox
    clip below and the occupancy index's occupied-region ray clamp.
    """
    origins = np.asarray(origins, dtype=np.float64)
    directions = np.asarray(directions, dtype=np.float64)
    lo = np.asarray(bbox_min, dtype=np.float64)
    hi = np.asarray(bbox_max, dtype=np.float64)

    with np.errstate(divide="ignore", invalid="ignore"):
        inv_dir = np.where(
            np.abs(directions) > 1e-12,
            1.0 / directions,
            np.sign(directions) * 1e12 + (directions == 0) * 1e12,
        )
    t0 = (lo - origins) * inv_dir
    t1 = (hi - origins) * inv_dir
    t_near = np.max(np.minimum(t0, t1), axis=-1)
    t_far = np.min(np.maximum(t0, t1), axis=-1)
    return t_near, t_far


def ray_aabb_intersect(
    rays: RayBatch,
    bbox_min: Tuple[float, float, float],
    bbox_max: Tuple[float, float, float],
) -> RayBatch:
    """Clip ray integration bounds against an axis-aligned bounding box.

    Rays that miss the box get ``far <= near`` so they composite to the
    background only.
    """
    t_near, t_far = ray_aabb_interval(rays.origins, rays.directions, bbox_min, bbox_max)

    near = np.maximum(rays.near, t_near)
    far = np.minimum(rays.far, t_far)
    missed = far <= near
    far = np.where(missed, near, far)
    return RayBatch(rays.origins, rays.directions, near, far)


def sample_along_rays(
    rays: RayBatch,
    num_samples: int,
    stratified: bool = False,
    rng: Optional[np.random.Generator] = None,
    rows: Optional[np.ndarray] = None,
    bounds: Optional[Tuple[np.ndarray, np.ndarray]] = None,
):
    """Draw sample points along each ray.

    Parameters
    ----------
    rays:
        Rays with per-ray ``near``/``far`` bounds (already AABB-clipped).
    num_samples:
        Number of samples per ray.
    stratified:
        When true, jitter each sample within its uniform bin (training-style
        sampling); deterministic midpoints otherwise (rendering-style).
    rng:
        Random generator used for stratified jitter.
    rows:
        Optional indices of the rays to sample; the outputs then have one row
        per index.  Stratified jitter is still drawn for every ray of
        ``rays``, so a ray's samples do not depend on which rays are sampled.
    bounds:
        Optional per-row ``(near, far)`` sub-interval, e.g. the occupied
        interval from :meth:`~repro.nerf.occupancy.OccupancyIndex.clip_rays`.
        The t-grid still spans each ray's own ``[near, far]``; world points
        are formed only for the samples whose ``t`` lies inside ``bounds``.

    Returns
    -------
    (points, t_values):
        ``(N, S, 3)`` world-space sample points and ``(N, S)`` ray parameters.
    (points, t_values, ids):
        With ``bounds``: ``(K, 3)`` points of the ``K`` samples inside the
        bounds, ``(N, S)`` ray parameters and the samples' flat indices into
        the ``(N, S)`` grid, in ray-major order.
    """
    if num_samples < 1:
        raise ValueError("num_samples must be positive")
    n = rays.num_rays
    edges = np.linspace(0.0, 1.0, num_samples + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    fractions = np.broadcast_to(mids, (n, num_samples))
    if stratified:
        rng = rng or np.random.default_rng(0)
        half_bin = 0.5 / num_samples
        jitter = rng.uniform(-half_bin, half_bin, size=(n, num_samples))
        fractions = np.clip(fractions + jitter, 0.0, 1.0)

    near, far, origins, directions = rays.near, rays.far, rays.origins, rays.directions
    if rows is not None:
        near, far, origins, directions = near[rows], far[rows], origins[rows], directions[rows]
        fractions = fractions[rows] if stratified else fractions[: len(rows)]
    t_values = near[:, None] + fractions * (far - near)[:, None]
    if bounds is None:
        points = origins[:, None, :] + t_values[..., None] * directions[:, None, :]
        return points, t_values
    within = (t_values >= bounds[0][:, None]) & (t_values <= bounds[1][:, None])
    ids = np.flatnonzero(within)
    ray_ids = ids // num_samples
    # np.take: row gathers much cheaper than fancy indexing for (N, 3) arrays.
    points = np.take(directions, ray_ids, axis=0)
    points *= t_values.reshape(-1)[ids][:, None]
    points += np.take(origins, ray_ids, axis=0)
    return points, t_values, ids
