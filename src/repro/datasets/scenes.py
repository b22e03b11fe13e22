"""Procedural scene generators.

Each Synthetic-NeRF scene is replaced by a procedural object built from
signed-distance primitives (spheres, boxes, torus shells, cylinders), chosen
so that the voxelised occupancy falls in the 2–6.5 % range the paper measures
(Fig. 2(b)).  The per-scene target occupancy below follows the ordering in
that figure: foliage-like scenes (ficus, mic) are the sparsest, bulky scenes
(hotdog, ship) the densest.

The generated grid stores:

* raw density: a fixed positive value inside the object (so the softplus
  density saturates to an opaque surface), zero elsewhere;
* feature channels 0–2: the logit of the local albedo color (the decoder MLP
  passes these straight through to the RGB logits);
* feature channels 3+: low-amplitude procedural texture, so that every
  channel participates in quantization and compression.

A vertex is occupied when the scene's signed distance there is below half a
voxel.  Only vertices near that level set are evaluated (a *narrow band*),
and the mask is still bit-identical to evaluating every vertex, because each
scene's SDF is 1-Lipschitz: it changes by at most the distance moved (the
bound sphere tracing relies on; Hart, *Sphere Tracing*, 1996).  The sphere,
box, cylinder and torus primitives are exact SDFs, and shells (``|d| - t``),
unions (``min``), axis permutations and translations keep the property;
evaluating at ``p / geometry_scale`` divides the bound by the scale.  So a
small block of vertices whose centre distance is at least the threshold plus
the block's reach (half-diagonal / ``geometry_scale``, with a relative safety
factor) holds no occupied vertex, and one whose centre distance plus its
reach is below the threshold is occupied throughout.  Only the vertices of
the remaining blocks are evaluated, with the same per-point arithmetic as a
full-grid evaluation.  A new primitive or combinator must be 1-Lipschitz
too; ``tests/test_datasets.py`` compares the band with a full-grid
evaluation on every scene and would catch one that is not.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Callable, Dict, Sequence, Tuple

import numpy as np

from scipy.ndimage import binary_erosion

from repro.grid.voxel_grid import GridSpec, VoxelGrid

__all__ = ["SCENE_NAMES", "SceneSpec", "scene_spec", "build_scene_grid"]

SCENE_NAMES: Tuple[str, ...] = (
    "chair",
    "drums",
    "ficus",
    "hotdog",
    "lego",
    "materials",
    "mic",
    "ship",
)

# Target occupied fraction per scene (paper range: 2.01 % – 6.48 %).
_TARGET_OCCUPANCY: Dict[str, float] = {
    "chair": 0.035,
    "drums": 0.042,
    "ficus": 0.0201,
    "hotdog": 0.0648,
    "lego": 0.055,
    "materials": 0.048,
    "mic": 0.025,
    "ship": 0.060,
}

# Base albedo per scene (used for feature channels 0-2).
_BASE_ALBEDO: Dict[str, Tuple[float, float, float]] = {
    "chair": (0.72, 0.52, 0.30),
    "drums": (0.55, 0.20, 0.25),
    "ficus": (0.20, 0.55, 0.22),
    "hotdog": (0.80, 0.55, 0.25),
    "lego": (0.85, 0.70, 0.15),
    "materials": (0.40, 0.45, 0.60),
    "mic": (0.60, 0.60, 0.65),
    "ship": (0.45, 0.35, 0.28),
}


@dataclass(frozen=True)
class SceneSpec:
    """Static description of a procedural scene."""

    name: str
    target_occupancy: float
    base_albedo: Tuple[float, float, float]
    density_value: float = 150.0
    #: The SDF primitives are authored in a compact canonical frame; the scene
    #: is evaluated at ``points / geometry_scale`` so objects fill the frame
    #: the way the Blender scenes do.
    geometry_scale: float = 1.45

    def __post_init__(self) -> None:
        if not 0.0 < self.target_occupancy < 1.0:
            raise ValueError("target_occupancy must be in (0, 1)")


def scene_spec(name: str) -> SceneSpec:
    """Look up the :class:`SceneSpec` for a scene name."""
    if name not in _TARGET_OCCUPANCY:
        raise KeyError(f"unknown scene '{name}'; valid scenes: {SCENE_NAMES}")
    return SceneSpec(
        name=name,
        target_occupancy=_TARGET_OCCUPANCY[name],
        base_albedo=_BASE_ALBEDO[name],
    )


# ----------------------------------------------------------------------
# Signed distance primitives (all operate on (N, 3) world-space points in
# the [-1, 1]^3 scene box and return signed distances, negative inside).
# ----------------------------------------------------------------------
def _sd_sphere(points: np.ndarray, center: Sequence[float], radius: float) -> np.ndarray:
    return np.linalg.norm(points - np.asarray(center), axis=-1) - radius


def _sd_box(points: np.ndarray, center: Sequence[float], half_sizes: Sequence[float]) -> np.ndarray:
    q = np.abs(points - np.asarray(center)) - np.asarray(half_sizes)
    outside = np.linalg.norm(np.maximum(q, 0.0), axis=-1)
    inside = np.minimum(np.max(q, axis=-1), 0.0)
    return outside + inside


def _sd_torus(
    points: np.ndarray, center: Sequence[float], major_radius: float, minor_radius: float
) -> np.ndarray:
    p = points - np.asarray(center)
    ring = np.sqrt(p[:, 0] ** 2 + p[:, 1] ** 2) - major_radius
    return np.sqrt(ring ** 2 + p[:, 2] ** 2) - minor_radius


def _sd_cylinder(
    points: np.ndarray, center: Sequence[float], radius: float, half_height: float
) -> np.ndarray:
    p = points - np.asarray(center)
    radial = np.sqrt(p[:, 0] ** 2 + p[:, 1] ** 2) - radius
    axial = np.abs(p[:, 2]) - half_height
    outside = np.sqrt(np.maximum(radial, 0.0) ** 2 + np.maximum(axial, 0.0) ** 2)
    inside = np.minimum(np.maximum(radial, axial), 0.0)
    return outside + inside


def _shell(distance: np.ndarray, thickness: float) -> np.ndarray:
    """Turn a solid SDF into a hollow shell of the given thickness."""
    return np.abs(distance) - thickness


# ----------------------------------------------------------------------
# Per-scene geometry: each entry returns a signed distance field (negative
# inside the object) for (N, 3) points.
# ----------------------------------------------------------------------
def _geometry_chair(points: np.ndarray) -> np.ndarray:
    seat = _sd_box(points, (0.0, 0.0, -0.1), (0.45, 0.45, 0.05))
    back = _sd_box(points, (0.0, -0.42, 0.35), (0.45, 0.05, 0.45))
    legs = [
        _sd_cylinder(points, (sx * 0.38, sy * 0.38, -0.45), 0.05, 0.35)
        for sx in (-1, 1)
        for sy in (-1, 1)
    ]
    return np.minimum.reduce([seat, back] + legs)


def _geometry_drums(points: np.ndarray) -> np.ndarray:
    drum1 = _shell(_sd_cylinder(points, (-0.35, 0.0, -0.2), 0.3, 0.2), 0.03)
    drum2 = _shell(_sd_cylinder(points, (0.35, 0.0, -0.2), 0.3, 0.2), 0.03)
    drum3 = _shell(_sd_cylinder(points, (0.0, 0.4, 0.1), 0.22, 0.15), 0.03)
    cymbal = _sd_cylinder(points, (0.0, -0.45, 0.45), 0.3, 0.015)
    return np.minimum.reduce([drum1, drum2, drum3, cymbal])


def _geometry_ficus(points: np.ndarray) -> np.ndarray:
    trunk = _sd_cylinder(points, (0.0, 0.0, -0.3), 0.05, 0.45)
    pot = _shell(_sd_cylinder(points, (0.0, 0.0, -0.75), 0.25, 0.12), 0.03)
    leaves = [
        _shell(_sd_sphere(points, (0.3 * np.cos(a), 0.3 * np.sin(a), 0.25 + 0.12 * np.sin(3 * a)), 0.18), 0.02)
        for a in np.linspace(0.0, 2 * np.pi, 6, endpoint=False)
    ]
    crown = _shell(_sd_sphere(points, (0.0, 0.0, 0.45), 0.28), 0.02)
    return np.minimum.reduce([trunk, pot, crown] + leaves)


def _geometry_hotdog(points: np.ndarray) -> np.ndarray:
    plate = _sd_cylinder(points, (0.0, 0.0, -0.5), 0.75, 0.04)
    bun1 = _sd_box(points, (0.0, -0.16, -0.3), (0.55, 0.13, 0.11))
    bun2 = _sd_box(points, (0.0, 0.16, -0.3), (0.55, 0.13, 0.11))
    sausage = _sd_cylinder(
        np.stack([points[:, 2] + 0.15, points[:, 1], points[:, 0]], axis=-1),
        (0.0, 0.0, 0.0),
        0.1,
        0.55,
    )
    return np.minimum.reduce([plate, bun1, bun2, sausage])


def _geometry_lego(points: np.ndarray) -> np.ndarray:
    base = _sd_box(points, (0.0, 0.0, -0.45), (0.6, 0.35, 0.08))
    arm = _sd_box(points, (0.1, 0.0, 0.0), (0.45, 0.12, 0.08))
    bucket = _shell(_sd_box(points, (0.55, 0.0, 0.15), (0.15, 0.2, 0.15)), 0.03)
    cab = _sd_box(points, (-0.35, 0.0, -0.15), (0.2, 0.22, 0.22))
    treads = [
        _shell(_sd_cylinder(
            np.stack([points[:, 2] + 0.45, points[:, 0] - dx, points[:, 1] - dy], axis=-1),
            (0.0, 0.0, 0.0), 0.12, 0.3), 0.025)
        for dx in (-0.4, 0.4)
        for dy in (-0.3, 0.3)
    ]
    return np.minimum.reduce([base, arm, bucket, cab] + treads)


def _geometry_materials(points: np.ndarray) -> np.ndarray:
    spheres = [
        _sd_sphere(points, (x, y, -0.35), 0.16)
        for x in (-0.6, -0.2, 0.2, 0.6)
        for y in (-0.3, 0.3)
    ]
    tray = _sd_box(points, (0.0, 0.0, -0.55), (0.8, 0.5, 0.03))
    return np.minimum.reduce(spheres + [tray])


def _geometry_mic(points: np.ndarray) -> np.ndarray:
    head = _shell(_sd_sphere(points, (0.0, 0.0, 0.4), 0.25), 0.025)
    handle = _sd_cylinder(points, (0.0, 0.0, -0.1), 0.07, 0.35)
    stand = _sd_cylinder(points, (0.0, 0.0, -0.6), 0.035, 0.25)
    base = _sd_cylinder(points, (0.0, 0.0, -0.85), 0.3, 0.03)
    return np.minimum.reduce([head, handle, stand, base])


def _geometry_ship(points: np.ndarray) -> np.ndarray:
    hull = _shell(_sd_box(points, (0.0, 0.0, -0.35), (0.7, 0.28, 0.18)), 0.04)
    deck = _sd_box(points, (0.0, 0.0, -0.18), (0.68, 0.26, 0.02))
    cabin = _sd_box(points, (-0.15, 0.0, 0.0), (0.2, 0.18, 0.12))
    mast = _sd_cylinder(points, (0.2, 0.0, 0.25), 0.03, 0.4)
    water = _sd_box(points, (0.0, 0.0, -0.62), (0.85, 0.85, 0.05))
    ring = _sd_torus(points, (0.0, 0.0, -0.55), 0.75, 0.04)
    return np.minimum.reduce([hull, deck, cabin, mast, water, ring])


_GEOMETRIES: Dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "chair": _geometry_chair,
    "drums": _geometry_drums,
    "ficus": _geometry_ficus,
    "hotdog": _geometry_hotdog,
    "lego": _geometry_lego,
    "materials": _geometry_materials,
    "mic": _geometry_mic,
    "ship": _geometry_ship,
}


#: Vertices per edge of the blocks :func:`_occupied_vertices` classifies.
_BAND_BLOCK = 4
#: Relative safety factor on a block's reach, far above the few ulps by which
#: two evaluations of one distance can differ.
_REACH_SLACK = 1e-6


def _logit(x: np.ndarray, eps: float = 1e-4) -> np.ndarray:
    x = np.clip(x, eps, 1.0 - eps)
    return np.log(x / (1.0 - x))


def _calibrate_occupancy(
    occupied: np.ndarray, target_fraction: float, rng: np.random.Generator
) -> np.ndarray:
    """Thin a solid occupancy mask down to the target fraction, surfaces intact.

    The SDF voxelisation produces solid objects whose occupied fraction
    depends on the grid resolution; the published per-scene occupancy
    (Fig. 2(b), 2.01–6.48 %) is what the hash tables, bitmap and memory
    accounting depend on, so the mask is calibrated to it.  Crucially the
    thinning only removes *interior* voxels: the one-voxel surface shell is
    always kept so rays still hit watertight surfaces and early ray
    termination behaves like it does on the real scenes (interiors of real
    VQRF grids are likewise pruned away during training).
    """
    total = occupied.size
    target_count = int(round(target_fraction * total))
    current = int(np.count_nonzero(occupied))
    if current <= target_count:
        return occupied

    # Prefer a two-voxel-deep shell: this is what survives VQRF's importance
    # pruning on real scenes (surfaces plus the voxels right behind them) and
    # it keeps surfaces opaque enough for early ray termination.  If even the
    # shell exceeds the target (very sparse scenes like ficus/mic, whose real
    # counterparts are foliage and thin structures), fall back to a one-voxel
    # shell and finally to thinning the shell itself.
    for erosion_depth in (2, 1):
        surface = occupied & ~binary_erosion(occupied, iterations=erosion_depth)
        surface_count = int(np.count_nonzero(surface))
        if surface_count <= target_count:
            break

    thinned = surface.reshape(-1).copy()
    if surface_count > target_count:
        # Thin the shell: keep a random subset (porous foliage-like geometry).
        surface_idx = np.flatnonzero(thinned)
        keep = rng.choice(surface_idx, size=target_count, replace=False)
        thinned[:] = False
        thinned[keep] = True
        return thinned.reshape(occupied.shape)

    interior_idx = np.flatnonzero((occupied & ~surface).reshape(-1))
    keep_interior = max(0, target_count - surface_count)
    if keep_interior > 0 and interior_idx.size > 0:
        keep_interior = min(keep_interior, interior_idx.size)
        chosen = rng.choice(interior_idx, size=keep_interior, replace=False)
        thinned[chosen] = True
    return thinned.reshape(occupied.shape)


def _occupied_vertices(
    geometry: Callable[[np.ndarray], np.ndarray], resolution: int, geometry_scale: float
) -> np.ndarray:
    """``geometry(p / geometry_scale) < voxel / 2`` on every grid vertex ``p``.

    Bit for bit what evaluating every vertex gives, but only the narrow band
    around that level set is evaluated (see the module docstring).  Blocks
    of :data:`_BAND_BLOCK` vertices per edge are classified by the distance
    at their centres; each vertex of an undecided block gets exactly the
    full grid's per-point arithmetic.
    """
    axis = np.linspace(-1.0, 1.0, resolution)
    threshold = 0.5 * (2.0 / (resolution - 1))
    # Each axis's blocks as inclusive (first, last) vertex ids; the last may be short.
    first = np.arange(0, resolution, _BAND_BLOCK)
    last = np.minimum(first + _BAND_BLOCK - 1, resolution - 1)
    centre = (axis[first] + axis[last]) / 2
    half = (axis[last] - axis[first]) / 2
    cx, cy, cz = np.meshgrid(centre, centre, centre, indexing="ij")
    hx, hy, hz = np.meshgrid(half, half, half, indexing="ij")
    distance = geometry(np.stack([cx, cy, cz], axis=-1).reshape(-1, 3) / geometry_scale)
    # A 1-Lipschitz SDF moves by at most |p - q| / geometry_scale.
    reach = (1.0 + _REACH_SLACK) * np.sqrt(hx**2 + hy**2 + hz**2).ravel() / geometry_scale
    inside = distance + reach < threshold
    band = ~inside & (distance - reach < threshold)

    # Spread the per-block decisions over the vertices, then evaluate the band.
    blocks = (len(first),) * 3
    block_of = np.arange(resolution) // _BAND_BLOCK
    vertex_blocks = np.ix_(block_of, block_of, block_of)
    occupied = inside.reshape(blocks)[vertex_blocks]
    ids = np.flatnonzero(band.reshape(blocks)[vertex_blocks])
    i, j, k = np.unravel_index(ids, occupied.shape)
    points = np.stack([axis[i], axis[j], axis[k]], axis=-1)
    occupied.reshape(-1)[ids] = geometry(points / geometry_scale) < threshold
    return occupied


def build_scene_grid(
    name: str,
    resolution: int = 128,
    feature_dim: int = 12,
    seed: int = 0,
) -> VoxelGrid:
    """Voxelise one procedural scene into a :class:`VoxelGrid`.

    Parameters
    ----------
    name:
        One of :data:`SCENE_NAMES`.
    resolution:
        Grid vertices per axis (the paper's VQRF grids are ~160^3; tests use
        much smaller grids).
    feature_dim:
        Color-feature channels (12 in VQRF), at least 3: channels 0-2 hold
        the albedo logits.
    seed:
        Seed for occupancy thinning and procedural texture.
    """
    spec_info = scene_spec(name)
    if feature_dim < 3:
        raise ValueError(
            f"feature_dim must be >= 3 (channels 0-2 hold the albedo logits), got {feature_dim}"
        )
    geometry = _GEOMETRIES[name]
    # zlib.crc32 is stable across processes (unlike the salted built-in hash),
    # so a given (name, seed) pair always produces the same grid.
    rng = np.random.default_rng(seed + zlib.crc32(name.encode("utf-8")) % (2 ** 16))

    grid_spec = GridSpec(resolution=resolution, feature_dim=feature_dim)
    grid = VoxelGrid(grid_spec)

    occupied = _occupied_vertices(geometry, resolution, spec_info.geometry_scale)
    occupied = _calibrate_occupancy(occupied, spec_info.target_occupancy, rng)

    # Density: constant inside the object (an opaque surface once softplus'd).
    grid.density[occupied] = spec_info.density_value

    # Albedo: base color modulated by smooth spatial variation.
    coords = np.argwhere(occupied)
    if coords.size:
        normalized = coords / max(resolution - 1, 1)
        base = np.asarray(spec_info.base_albedo)
        modulation = 0.25 * np.stack(
            [
                np.sin(2 * np.pi * normalized[:, 0] * 2.0),
                np.sin(2 * np.pi * normalized[:, 1] * 3.0),
                np.sin(2 * np.pi * normalized[:, 2] * 2.5),
            ],
            axis=-1,
        )
        albedo = np.clip(base[None, :] + modulation, 0.05, 0.95)
        features = np.zeros((coords.shape[0], feature_dim), dtype=np.float32)
        features[:, :3] = _logit(albedo)
        if feature_dim > 3:
            texture = 0.2 * rng.standard_normal((coords.shape[0], feature_dim - 3))
            features[:, 3:] = texture.astype(np.float32)
        grid.features[coords[:, 0], coords[:, 1], coords[:, 2]] = features

    return grid
