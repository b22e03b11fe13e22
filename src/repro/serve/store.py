"""Multi-scene residency: the :class:`SceneStore`.

A server answering requests for many scenes cannot afford to rebuild a
pipeline per request (scene generation, VQRF k-means and SpNeRF preprocessing
dominate any single frame), nor to keep every pipeline of every scene resident
(a dense reference grid alone is tens of MB).  The store resolves the tension
with a classic cache: each ``(scene_name, pipeline)`` key maps to a fully
built :class:`SceneBundleRecord` — scene, radiance field and ready-to-use
:class:`~repro.api.RenderEngine` — built lazily through the registry
(:func:`repro.api.build_field`) and evicted least-recently-used when the sum
of the fields' ``memory_report()["total"]`` exceeds a configurable budget.

Scenes themselves are shared across the pipelines rendering them, so the
``spnerf`` and ``vqrf`` entries of one scene reuse a single scene object (and
with it the per-scene VQRF-model cache: one k-means run feeds both).  When
the last resident pipeline of a scene is evicted, the scene — and every
compressed model cached on it — is dropped too.

**One owner.**  A store is owned by exactly one thread and takes no locks:
the scheduler's store by the thread that drives its
:class:`~repro.serve.server.RenderServer` (the caller's thread, or the HTTP
edge's driver thread), and each worker shard by its worker process or host
agent.  No backend shares a store between threads.
"""

from __future__ import annotations

import hashlib
import pickle
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple, Union

from repro.api import PipelineConfig, RenderEngine, build_field
from repro.core.config import SpNeRFConfig
from repro.datasets.synthetic import SyntheticScene, load_scene
from repro.nerf.occupancy import build_occupancy_index

__all__ = [
    "SceneBundleRecord",
    "SceneStoreStats",
    "SceneStoreSpec",
    "SceneStore",
    "PoisonedBundleError",
]

#: A ``(scene_name, pipeline)`` residency key.
StoreKey = Tuple[str, str]


class PoisonedBundleError(RuntimeError):
    """A bundle build that was marked to fail by fault injection.

    Raised from :meth:`SceneStore.get` for keys registered via
    :meth:`SceneStore.poison` — the chaos suite's stand-in for a corrupt
    checkpoint or a build that deterministically crashes.  It is a *typed*
    job failure: the job that needed the bundle fails with this error in its
    view, while the worker (and every other job) keeps serving.
    """


@dataclass(eq=False)
class SceneBundleRecord:
    """One resident ``(scene, field, engine)`` bundle plus its accounting."""

    key: StoreKey
    scene: SyntheticScene
    field: object
    engine: RenderEngine
    memory_bytes: int
    build_time_s: float
    uses: int = 0

    @property
    def scene_name(self) -> str:
        return self.key[0]

    @property
    def pipeline(self) -> str:
        return self.key[1]


@dataclass
class SceneStoreStats:
    """Counters the telemetry layer folds into :class:`ServerStats`."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    build_time_s: float = 0.0
    resident_entries: int = 0
    resident_bytes: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from residency (1.0 when no lookups)."""
        total = self.hits + self.misses
        return self.hits / total if total else 1.0


@dataclass(frozen=True)
class SceneStoreSpec:
    """Everything needed to rebuild a :class:`SceneStore` in another process.

    Worker backends ship this (not the store itself) to shard stores across
    shared-nothing processes: bundles are *rebuilt* in each worker, never
    pickled.  The spec is picklable as long as the loader is (a module-level
    function, or ``None`` for the default :func:`repro.api.load_scene`);
    stores created with an unpicklable closure loader still spec fine under
    the fork start method, which inherits the closure instead of pickling it.

    The remote backend has no fork to hide behind — the spec crosses a
    *socket* to the host agents — so it calls :meth:`ensure_picklable` up
    front to turn the eventual obscure pickling error into a typed one.
    """

    memory_budget_bytes: Optional[int] = None
    max_entries: Optional[int] = None
    config: Optional[PipelineConfig] = None
    scene_kwargs: Optional[Dict[str, object]] = None
    loader: Optional[Callable[[str], SyntheticScene]] = None

    def ensure_picklable(self) -> None:
        """Raise a legible ``TypeError`` if this spec cannot cross a socket.

        Remote host agents rebuild their shard from the spec sent over the
        wire; a closure loader (fine under fork) cannot make that trip.
        """
        try:
            pickle.dumps(self)
        except Exception as exc:
            raise TypeError(
                "SceneStoreSpec is not picklable, so it cannot be shipped to "
                "remote host agents: the loader must be a module-level "
                f"function (or None for the default), not {self.loader!r}"
            ) from exc


class SceneStore:
    """LRU cache of built ``(scene, field, engine)`` bundles under a budget.

    Parameters
    ----------
    memory_budget_bytes:
        Upper bound on the summed ``memory_report()["total"]`` of resident
        fields.  ``None`` disables byte-based eviction.  The most recently
        requested bundle is never evicted, so a single bundle larger than the
        budget is still served (the store then holds exactly that one).
    max_entries:
        Upper bound on the number of resident bundles (``None`` = unbounded).
    config:
        :class:`PipelineConfig` (or bare :class:`SpNeRFConfig`) every bundle
        is built with — the store serves one uniform configuration.
    loader:
        ``scene_name -> SyntheticScene`` used on scene misses.  Defaults to
        :func:`repro.api.load_scene` with ``scene_kwargs``; tests and
        benchmarks inject cheap prebuilt scenes here.
    scene_kwargs:
        Keyword arguments for the default loader (resolution, image_size,
        num_views, num_samples, ...).
    shard_index, num_shards:
        Which shard of a worker-pool deployment this store is.  Purely
        descriptive for a standalone store (``0`` of ``1``); worker backends
        build one store per process via :meth:`from_spec`, which also divides
        the memory budget so the *pool's* total residency stays within the
        operator's budget.
    """

    def __init__(
        self,
        memory_budget_bytes: Optional[int] = None,
        max_entries: Optional[int] = None,
        config: Union[PipelineConfig, SpNeRFConfig, None] = None,
        loader: Optional[Callable[[str], SyntheticScene]] = None,
        scene_kwargs: Optional[Dict[str, object]] = None,
        shard_index: int = 0,
        num_shards: int = 1,
    ) -> None:
        if memory_budget_bytes is not None and memory_budget_bytes <= 0:
            raise ValueError(f"memory_budget_bytes must be positive, got {memory_budget_bytes}")
        if max_entries is not None and max_entries < 1:
            raise ValueError(f"max_entries must be at least 1, got {max_entries}")
        if num_shards < 1:
            raise ValueError(f"num_shards must be at least 1, got {num_shards}")
        if not 0 <= shard_index < num_shards:
            raise ValueError(f"shard_index must be in [0, {num_shards}), got {shard_index}")
        self.memory_budget_bytes = memory_budget_bytes
        self.max_entries = max_entries
        self.config = PipelineConfig.coerce(config)
        self.shard_index = shard_index
        self.num_shards = num_shards
        self._scene_kwargs = dict(scene_kwargs or {})
        self._loader = loader
        self._entries: "OrderedDict[StoreKey, SceneBundleRecord]" = OrderedDict()
        self._scenes: Dict[str, SyntheticScene] = {}
        self._stats = SceneStoreStats()
        #: Keys whose builds fail with :class:`PoisonedBundleError` (chaos).
        self._poisoned: set = set()
        #: Memoized bundle fingerprints (pure functions of immutable config).
        self._fingerprints: Dict[StoreKey, str] = {}

    # ------------------------------------------------------------------
    def spec(self) -> SceneStoreSpec:
        """The picklable construction recipe of this store (see the spec)."""
        return SceneStoreSpec(
            memory_budget_bytes=self.memory_budget_bytes,
            max_entries=self.max_entries,
            config=self.config,
            scene_kwargs=dict(self._scene_kwargs),
            loader=self._loader,
        )

    @classmethod
    def from_spec(
        cls, spec: SceneStoreSpec, shard_index: int = 0, num_shards: int = 1
    ) -> "SceneStore":
        """Build one shard's store from a spec.

        The memory budget is divided evenly across shards (ceiling division,
        so ``num_shards`` small shards still admit the bundle a single-shard
        budget would); ``max_entries`` is per shard as-is, since entries
        route to shards by ``(scene, pipeline)`` affinity and never repeat.
        """
        budget = spec.memory_budget_bytes
        if budget is not None and num_shards > 1:
            budget = -(-budget // num_shards)
        return cls(
            memory_budget_bytes=budget,
            max_entries=spec.max_entries,
            config=spec.config,
            loader=spec.loader,
            scene_kwargs=spec.scene_kwargs,
            shard_index=shard_index,
            num_shards=num_shards,
        )

    # ------------------------------------------------------------------
    def bundle_fingerprint(self, scene_name: str, pipeline: str) -> str:
        """The canonical content identity of one ``(scene, pipeline)`` bundle.

        A hex digest of everything that determines the *bytes* the bundle
        renders: the key itself plus the store's uniform
        :class:`PipelineConfig` (a frozen dataclass — its repr is its
        canonical form), the scene-loader identity, and the loader kwargs.
        This is exactly the identity :meth:`spec` ships to worker shards —
        two stores whose specs differ produce different fingerprints, two
        stores (or shards) with the same spec produce the same ones, which
        is what makes the fingerprint safe to use as the bundle component
        of :func:`~repro.serve.cache.tile_fingerprint` cache keys.

        Sharding geometry and residency budgets are deliberately excluded:
        they decide *where and whether* a bundle is resident, never what it
        renders.
        """
        key = (scene_name, pipeline)
        cached = self._fingerprints.get(key)
        if cached is not None:
            return cached
        loader = self._loader
        loader_id = (
            "default"
            if loader is None
            else f"{getattr(loader, '__module__', '?')}.{getattr(loader, '__qualname__', loader)}"
        )
        digest = hashlib.sha256()
        for part in (
            scene_name,
            pipeline,
            repr(self.config),
            loader_id,
            repr(sorted(self._scene_kwargs.items())),
        ):
            digest.update(part.encode("utf-8"))
            digest.update(b"\x00")
        fingerprint = digest.hexdigest()
        self._fingerprints[key] = fingerprint
        return fingerprint

    # ------------------------------------------------------------------
    def get(self, scene_name: str, pipeline: str) -> SceneBundleRecord:
        """The resident bundle for ``(scene_name, pipeline)``, built on miss.

        A hit refreshes the entry's LRU position; a miss loads the scene (or
        reuses the one already resident for another pipeline), builds the
        field through the registry, wraps it in an engine, and evicts
        least-recently-used bundles until budget and entry limits hold again.
        """
        key = (scene_name, pipeline)
        if key in self._poisoned:
            raise PoisonedBundleError(
                f"bundle build for {key} is poisoned (fault injection)"
            )
        record = self._entries.get(key)
        if record is not None:
            self._entries.move_to_end(key)
            self._stats.hits += 1
            record.uses += 1
            return record

        self._stats.misses += 1
        start = time.perf_counter()
        scene = self.get_scene(scene_name)
        try:
            built = build_field(pipeline, scene, self.config)
        except Exception:
            # A failed build must not pin the scene: without a resident entry
            # owning it, nothing would ever evict it (it is invisible to the
            # memory budget, which only sums entries).
            if not any(k[0] == scene_name for k in self._entries):
                self._scenes.pop(scene_name, None)
            raise
        engine = RenderEngine(built, scene)
        # Build the occupancy index with the bundle (eagerly, so the first
        # tile never pays for it) and count it against the memory budget
        # alongside the field it accelerates.
        index = build_occupancy_index(built)
        elapsed = time.perf_counter() - start
        memory = built.memory_report().get("total", 0) if hasattr(built, "memory_report") else 0
        if index is not None:
            memory += index.memory_bytes
        record = SceneBundleRecord(
            key=key,
            scene=scene,
            field=built,
            engine=engine,
            memory_bytes=int(memory),
            build_time_s=elapsed,
            uses=1,
        )
        self._entries[key] = record
        self._stats.build_time_s += elapsed
        self._evict_to_fit()
        return record

    def get_accounted(
        self, scene_name: str, pipeline: str
    ) -> Tuple[SceneBundleRecord, bool, float]:
        """:meth:`get` plus the accounting execution backends report per tile:
        ``(record, was_resident, build_seconds)``."""
        misses_before = self._stats.misses
        start = time.perf_counter()
        record = self.get(scene_name, pipeline)
        elapsed = time.perf_counter() - start
        cached = self._stats.misses == misses_before
        return record, cached, (0.0 if cached else elapsed)

    def poison(self, scene_name: str, pipeline: str) -> None:
        """Mark one bundle key as failing to build (reproducible chaos).

        Every subsequent :meth:`get` of the key raises
        :class:`PoisonedBundleError` — exactly where a real corrupt
        checkpoint or crashing preprocessing step would surface.  An already
        resident bundle is evicted first, so the poison takes effect
        immediately rather than hiding behind residency.
        """
        key = (scene_name, pipeline)
        self.evict(key)
        self._poisoned.add(key)

    # ------------------------------------------------------------------
    def get_scene(self, scene_name: str) -> SyntheticScene:
        """The scene object alone, loaded (and cached) without building a field.

        The scheduler uses this for planning — camera geometry, tile counts,
        admission-cost estimates, reference images — which must not pay for a
        field build the execution backend will do (possibly in another
        process) anyway.  The cached scene is shared with any bundle later
        built for it and is dropped with the scene's last resident bundle;
        a scene that never gets a bundle on *this* store (the process-pool
        scheduler's case — bundles live in the worker shards) stays cached
        for the store's lifetime, so planners serving an unbounded scene
        catalog should expect residency to track the catalog, not the
        bundle budget.
        """
        scene = self._scenes.get(scene_name)
        if scene is None:
            scene = self._load_scene(scene_name)
            self._scenes[scene_name] = scene
        return scene

    # ------------------------------------------------------------------
    def _load_scene(self, scene_name: str) -> SyntheticScene:
        if self._loader is not None:
            return self._loader(scene_name)
        return load_scene(scene_name, **self._scene_kwargs)

    def _evict_to_fit(self) -> None:
        """Evict LRU entries until both limits hold (never the newest one)."""
        while len(self._entries) > 1 and (
            (self.max_entries is not None and len(self._entries) > self.max_entries)
            or (
                self.memory_budget_bytes is not None
                and self.resident_bytes() > self.memory_budget_bytes
            )
        ):
            key, _ = next(iter(self._entries.items()))
            self.evict(key)

    # ------------------------------------------------------------------
    def evict(self, key: StoreKey) -> bool:
        """Drop one bundle (and its scene, when no other pipeline uses it)."""
        record = self._entries.pop(key, None)
        if record is None:
            return False
        self._stats.evictions += 1
        scene_name = key[0]
        if not any(k[0] == scene_name for k in self._entries):
            self._scenes.pop(scene_name, None)
        return True

    def clear(self) -> None:
        """Drop every resident bundle and scene (counted as evictions)."""
        for key in list(self._entries):
            self.evict(key)

    # ------------------------------------------------------------------
    def contains(self, scene_name: str, pipeline: str) -> bool:
        return (scene_name, pipeline) in self._entries

    def resident_keys(self) -> Tuple[StoreKey, ...]:
        """Resident keys in LRU order (least recently used first)."""
        return tuple(self._entries)

    def resident_bytes(self) -> int:
        return sum(record.memory_bytes for record in self._entries.values())

    def stats(self) -> SceneStoreStats:
        """A snapshot of the store counters (copy — safe to keep)."""
        snapshot = SceneStoreStats(**{
            f: getattr(self._stats, f)
            for f in ("hits", "misses", "evictions", "build_time_s")
        })
        snapshot.resident_entries = len(self._entries)
        snapshot.resident_bytes = self.resident_bytes()
        return snapshot
