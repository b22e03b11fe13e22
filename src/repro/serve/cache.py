"""Content-addressed tile caching: the :class:`TileCache`.

Every render in this system is deterministic and bit-identical (the property
PRs 2-7 guard at every layer), which turns caching from a quality trade-off
into pure bookkeeping: a finished tile keyed by *everything that determines
its bytes* can be replayed forever, exactly.  Real traffic makes that key
collide constantly — users orbit a few popular scenes along similar camera
paths, so consecutive frames and concurrent clients re-request the same
tiles — and the scheduler can skip the backend entirely for a hit.

The key is a canonical fingerprint of the full render input:

* **bundle fingerprint** — the ``(scene, pipeline)`` identity *plus* the
  store's uniform :class:`~repro.api.PipelineConfig`, scene-loader identity
  and loader kwargs (everything :class:`~repro.serve.store.SceneStore`
  already canonicalizes in its picklable spec).  Two stores configured
  differently never share fingerprints even for the same scene name.
* **camera pose + intrinsics** — the raw ``camera_to_world`` float64 bytes,
  width, height and focal.  Keying on the *pose* rather than the camera
  index means identical viewpoints hit regardless of which rig slot (or
  client) asked for them.
* **tile span** — the flat ``[start, stop)`` pixel run.  Tile geometry is
  part of the batch partition and therefore of the bytes (see
  :mod:`repro.serve.tiles`), so differently-sized tiles are distinct entries.
* **render knobs** — the effective ``transmittance_threshold``: the job's
  override as a float, else the scene's configured value (the only per-task
  knob in :class:`~repro.serve.backends.TileTask`).  The scheduler resolves
  it before hashing, so ``None``, ``0`` and ``0.0`` on a scene configured
  with 0.0 — one render — share one key.

Entries are finished ``(P, 3)`` tile pixel arrays under an **LRU byte
budget**: the most recently *inserted or hit* entries survive, eviction
walks from the cold end, and an entry larger than the whole budget is never
admitted (it would evict everything for one tenant).

**Storage format.** A cached tile is held the way SpNeRF holds a sparse
grid: a bitmap of where the data is, plus only those entries, packed.  Most
of a rendered frame is the exact background colour, so consecutive pixels
repeat.  :meth:`TileCache.put` marks every row (pixel) whose bytes differ
from the row before it — row 0 is always marked — keeps the marked rows in
order, and packs the marks with :func:`numpy.packbits`.  :meth:`TileCache.get`
rebuilds the tile by forward fill: the running count of marks up to row
``i``, minus one, is the packed row that row ``i`` repeats.  Rows are
compared through a byte view, never as floats, so the round trip is exact
for every value: NaN payloads, ``-0.0`` against
``0.0``, infinities and subnormals all come back with their bits.  On the
benchmark's traffic a tile packs 2.1–2.7× smaller than its raw float64
array (lego and chair spnerf frames, 576-pixel tiles).

The budget, :attr:`TileCache.resident_bytes` and the oversize check count
the bytes actually held — packed rows plus bitmap — so a budget holds more
tiles the more repetitive they are.  ``TileCacheStats.logical_bytes`` keeps
the raw size the held tiles would take, which makes the compaction visible.
Each hit returns a fresh read-only array, so a caller scribbling on a
streamed tile can never corrupt a future hit.

The clock is injectable (tests drive it deterministically); it only stamps
entry metadata — LRU order, not timestamps, decides eviction.
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Optional, Tuple, Union

import numpy as np

__all__ = [
    "CACHE_MODES",
    "DEFAULT_CACHE_BUDGET_BYTES",
    "TileCache",
    "TileCacheStats",
    "make_cache",
    "tile_fingerprint",
]

#: What ``RenderServer(cache=...)`` accepts by name: an LRU byte-budget
#: cache, or no cache at all.
CACHE_MODES = ("lru", "off")

#: Default LRU byte budget when ``cache="lru"`` does not pick one.
DEFAULT_CACHE_BUDGET_BYTES = 256_000_000


def tile_fingerprint(
    bundle_fingerprint: str,
    camera,
    start: int,
    stop: int,
    transmittance_threshold: Optional[float] = None,
) -> str:
    """The canonical content address of one rendered tile.

    Hashes the bundle fingerprint, the camera's pose matrix and intrinsics,
    the flat pixel span and the effective render knobs into one hex digest —
    every input that the deterministic render pipeline maps to the tile's
    bytes, and nothing else (scheduling order, backend, worker identity and
    camera *index* are all absent on purpose).
    """
    digest = hashlib.sha256()
    digest.update(bundle_fingerprint.encode("utf-8"))
    digest.update(np.ascontiguousarray(camera.camera_to_world, dtype=np.float64).tobytes())
    digest.update(np.asarray(
        [float(camera.width), float(camera.height), float(camera.focal)],
        dtype=np.float64,
    ).tobytes())
    digest.update(np.asarray([start, stop], dtype=np.int64).tobytes())
    digest.update(repr(transmittance_threshold).encode("utf-8"))
    return digest.hexdigest()


@dataclass
class TileCacheStats:
    """One snapshot of the cache counters (copy — safe to keep)."""

    hits: int = 0
    misses: int = 0
    insertions: int = 0
    evictions: int = 0
    rejected_oversize: int = 0
    entries: int = 0
    #: Bytes actually held (packed rows plus bitmaps): what the budget counts.
    resident_bytes: int = 0
    #: Bytes the held tiles would take as raw arrays.
    logical_bytes: int = 0
    budget_bytes: Optional[int] = None

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when no lookups)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


@dataclass(eq=False)
class _CacheEntry:
    #: The rows that differ bitwise from their predecessor, in order.
    rows: np.ndarray
    #: ``np.packbits`` of the per-row change marks.
    marks: np.ndarray
    shape: Tuple[int, ...]
    nbytes: int
    logical_bytes: int
    inserted_s: float
    last_used_s: float
    uses: int = 0


def _pack(image: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Split ``image`` into (changed rows, packed change bitmap).

    A row is marked when its bytes differ from the previous row's; row 0 is
    always marked.  The comparison runs on a byte view, so values that
    compare equal as floats but differ in bits (``0.0`` and ``-0.0``) stay
    apart, and NaNs with equal bits merge.
    """
    num_rows = image.shape[0] if image.ndim else 1
    # An empty array cannot infer a -1 row length; its rows are empty.
    flat = np.ascontiguousarray(image).reshape(num_rows, -1 if image.size else 0)
    row_bytes = flat.view(np.uint8)
    changed = np.empty(num_rows, dtype=bool)
    changed[:1] = True
    np.any(row_bytes[1:] != row_bytes[:-1], axis=1, out=changed[1:])
    return flat[changed], np.packbits(changed)


def _unpack(entry: _CacheEntry) -> np.ndarray:
    """Rebuild an entry's tile by forward fill, as a fresh read-only array."""
    num_rows = entry.shape[0] if entry.shape else 1
    changed = np.unpackbits(entry.marks, count=num_rows)
    image = entry.rows.take(np.cumsum(changed, dtype=np.intp) - 1, axis=0).reshape(entry.shape)
    image.setflags(write=False)
    return image


class TileCache:
    """An LRU byte-budget cache of finished tile pixel arrays, held packed.

    Parameters
    ----------
    budget_bytes:
        Upper bound on the summed bytes held: each tile's packed rows plus
        its change bitmap (see the module docstring).  ``None``
        disables byte-based eviction (tests only — production callers should
        always bound the cache).  An entry larger than the budget by itself
        is rejected rather than admitted (it would evict the whole cache).
    clock:
        Monotonic time source stamping entry metadata, injectable for
        deterministic tests.  Eviction is pure LRU order; the clock never
        decides anything.

    Thread-safe: the scheduler is the only writer today, but the HTTP edge
    snapshots :meth:`stats` from other threads, so every entry point locks.
    """

    def __init__(
        self,
        budget_bytes: Optional[int] = DEFAULT_CACHE_BUDGET_BYTES,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        if budget_bytes is not None and budget_bytes <= 0:
            raise ValueError(f"budget_bytes must be positive, got {budget_bytes}")
        self.budget_bytes = budget_bytes
        self._clock = clock
        self._entries: "OrderedDict[str, _CacheEntry]" = OrderedDict()
        self._resident_bytes = 0
        self._logical_bytes = 0
        self._stats = TileCacheStats(budget_bytes=budget_bytes)
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def get(self, key: str) -> Optional[np.ndarray]:
        """The cached tile for ``key`` (refreshing its LRU position), or None.

        A hit is a fresh read-only array with the inserted tile's exact bytes,
        shape and dtype.  Entries are immutable, so it is rebuilt outside the
        lock.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._stats.misses += 1
                return None
            self._entries.move_to_end(key)
            self._stats.hits += 1
            entry.uses += 1
            entry.last_used_s = self._clock()
        return _unpack(entry)

    def put(self, key: str, image: np.ndarray) -> bool:
        """Insert one finished tile; returns whether it was admitted.

        The tile is packed into rows the cache owns (see the module
        docstring), so neither the producer mutating its buffer later nor a
        consumer scribbling on a served hit can corrupt subsequent hits —
        corruption would be *silent* bit-identity loss, the one failure mode
        this system never tolerates.  Re-inserting an existing key only
        refreshes its LRU position (renders are deterministic, the bytes
        cannot differ).  An entry whose packed size exceeds the whole budget
        is rejected.
        """
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                return True
            image = np.asarray(image)
            rows, marks = _pack(image)
            nbytes = int(rows.nbytes + marks.nbytes)
            if self.budget_bytes is not None and nbytes > self.budget_bytes:
                self._stats.rejected_oversize += 1
                return False
            now = self._clock()
            self._entries[key] = _CacheEntry(
                rows=rows, marks=marks, shape=image.shape, nbytes=nbytes,
                logical_bytes=int(image.nbytes), inserted_s=now, last_used_s=now,
            )
            self._resident_bytes += nbytes
            self._logical_bytes += int(image.nbytes)
            self._stats.insertions += 1
            while (
                self.budget_bytes is not None
                and self._resident_bytes > self.budget_bytes
            ):
                _, evicted = self._entries.popitem(last=False)
                self._resident_bytes -= evicted.nbytes
                self._logical_bytes -= evicted.logical_bytes
                self._stats.evictions += 1
            return True

    def clear(self) -> None:
        """Drop every entry (counted as evictions)."""
        with self._lock:
            self._stats.evictions += len(self._entries)
            self._entries.clear()
            self._resident_bytes = 0
            self._logical_bytes = 0

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    @property
    def resident_bytes(self) -> int:
        with self._lock:
            return self._resident_bytes

    def stats(self) -> TileCacheStats:
        """A snapshot of the cache counters (copy — safe to keep)."""
        with self._lock:
            snapshot = TileCacheStats(**{
                f: getattr(self._stats, f)
                for f in ("hits", "misses", "insertions", "evictions", "rejected_oversize")
            })
            snapshot.entries = len(self._entries)
            snapshot.resident_bytes = self._resident_bytes
            snapshot.logical_bytes = self._logical_bytes
            snapshot.budget_bytes = self.budget_bytes
            return snapshot


def make_cache(
    cache: Union[TileCache, str, None] = "off",
    budget_bytes: Optional[int] = None,
    clock: Callable[[], float] = time.perf_counter,
) -> Optional[TileCache]:
    """Resolve the server's cache knobs, refusing contradictions loudly.

    Mirrors :func:`~repro.serve.backends.make_backend`: a knob that cannot
    take effect is an operator error to surface at construction time, not a
    silently ignored setting.  ``cache`` is a :class:`TileCache` instance,
    ``"lru"`` (budgeted LRU, ``budget_bytes`` or the default), ``"off"`` /
    ``None`` (no caching — and then a ``budget_bytes`` is refused), and a
    ready-made instance refuses a conflicting ``budget_bytes`` too (the
    instance already owns one).
    """
    if isinstance(cache, TileCache):
        if budget_bytes is not None:
            raise ValueError(
                "cache_budget_bytes conflicts with a ready-made TileCache "
                "instance (it already owns its budget); pass one or the other"
            )
        return cache
    if cache is None or cache == "off":
        if budget_bytes is not None:
            raise ValueError(
                f"cache_budget_bytes={budget_bytes} requires cache='lru'; "
                "it cannot take effect with the cache off"
            )
        return None
    if cache == "lru":
        return TileCache(
            budget_bytes=budget_bytes if budget_bytes is not None else DEFAULT_CACHE_BUDGET_BYTES,
            clock=clock,
        )
    raise ValueError(
        f"unknown cache mode {cache!r}; choose from {', '.join(CACHE_MODES)} "
        "or pass a TileCache instance"
    )
