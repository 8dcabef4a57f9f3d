"""Content-addressed on-disk result cache for campaign work units.

Keys are SHA-256 hashes over the unit's coordinates (kind + params +
study seed) and a fingerprint of the ``repro`` package source, so

* the same operating point always lands on the same object file, from
  any process on any machine, and
* any change to the model code invalidates the whole cache at once —
  there is no staleness to reason about, only misses.

Values are stored as JSON (floats round-trip exactly through Python's
``json``), one object file per unit under ``<root>/objects/<k[:2]>/``,
written atomically via rename.  Hits and misses are counted on the
cache object and, when the observability layer is recording, bumped
onto the active :class:`~repro.obs.recorder.TraceRecorder` as the
``cache.hit`` / ``cache.miss`` totals (evictions as ``cache.evict``).

The store is size-capped: once the object files exceed ``max_bytes``
(default :data:`DEFAULT_MAX_BYTES` = 256 MiB; ``0`` = unlimited) a
``put`` prunes oldest-mtime-first until back under the cap, so a
long-lived serving process cannot grow the cache without bound.
Reads refresh the object file's mtime (touch-on-read), so
oldest-mtime-first is genuine LRU: under size pressure the coldest
keys pay, never the hottest.
Objects written since the previous eviction round are exempt for one
round: with several writers on one directory (the serving front end's
probe/batch handles, the job tier), eviction pressure from one writer
must not be able to unlink an object another writer committed
microseconds ago — the job tier's resume contract treats a completed
unit's cache entry as its checkpoint.  Corrupt or alien object files
are treated as misses *and unlinked* — leaving the corpse on disk made
every subsequent ``get`` re-read and re-fail on it.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import threading
from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Any, Callable

from repro.obs.recorder import current as _obs_current

SCHEMA_VERSION = 1

#: Default cache location, relative to the working directory.
DEFAULT_CACHE_DIR = Path(".repro-cache")

#: Default size cap for the object store (``0`` = unlimited).  256 MiB
#: holds hundreds of thousands of campaign unit values — far beyond a
#: full campaign — while bounding a serving process's disk footprint.
DEFAULT_MAX_BYTES = 256 * 1024 * 1024

#: Sentinel returned by :meth:`ResultCache.get` on a miss (``None`` is a
#: legitimate cached value).
MISS = object()

#: Process-wide registry of object paths written since the last eviction
#: round, shared by every :class:`ResultCache` handle on this process —
#: an eviction round (any handle's) skips them and then retires them, so
#: a just-written object survives at least one round of concurrent
#: ``max_bytes`` pressure.  Bounded; entries beyond the bound lose their
#: exemption oldest-first.
_FRESH_LIMIT = 4096
_fresh_paths: OrderedDict[str, None] = OrderedDict()
_fresh_lock = threading.Lock()


def _mark_fresh(path: Path) -> None:
    with _fresh_lock:
        _fresh_paths[str(path)] = None
        _fresh_paths.move_to_end(str(path))
        while len(_fresh_paths) > _FRESH_LIMIT:
            _fresh_paths.popitem(last=False)


@lru_cache(maxsize=1)
def code_fingerprint() -> str:
    """SHA-256 over every ``.py`` file of the installed ``repro``
    package (paths and contents) — the code half of every cache key."""
    import repro

    root = Path(repro.__file__).resolve().parent
    h = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(b"\0")
        h.update(path.read_bytes())
        h.update(b"\0")
    return h.hexdigest()


def unit_key(
    kind: str,
    params: dict[str, Any],
    seed: int = 0,
    fingerprint: str | None = None,
) -> str:
    """The content address of one work unit's result."""
    material = json.dumps(
        {
            "schema": SCHEMA_VERSION,
            "kind": kind,
            "params": params,
            "seed": seed,
            "code": fingerprint if fingerprint is not None else code_fingerprint(),
        },
        sort_keys=True,
    )
    return hashlib.sha256(material.encode()).hexdigest()


@dataclass
class CacheStats:
    """Hit/miss/eviction counters for one cache object's lifetime."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def total(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.total if self.total else 0.0

    def __add__(self, other: CacheStats) -> CacheStats:
        return CacheStats(
            self.hits + other.hits,
            self.misses + other.misses,
            self.evictions + other.evictions,
        )

    def describe(self) -> str:
        text = (
            f"{self.hits} hits / {self.misses} misses "
            f"({self.hit_rate:.0%} hit rate)"
        )
        if self.evictions:
            text += f", {self.evictions} evicted"
        return text


class ResultCache:
    """The on-disk store.  Corrupt or alien object files are treated as
    misses and unlinked, so the next ``get`` does not re-read them.

    :param root: cache directory (created on first ``put``).
    :param max_bytes: size cap for the object store; ``put`` prunes
        oldest-mtime-first once the total exceeds it.  ``0`` disables
        the cap.  Default: :data:`DEFAULT_MAX_BYTES`.
    """

    def __init__(
        self,
        root: str | Path = DEFAULT_CACHE_DIR,
        max_bytes: int = DEFAULT_MAX_BYTES,
    ) -> None:
        if max_bytes < 0:
            raise ValueError("max_bytes must be non-negative (0 = unlimited)")
        self.root = Path(root)
        self.max_bytes = max_bytes
        self.stats = CacheStats()
        self._total_bytes: int | None = None  # lazy; None = not yet scanned

    def _path(self, key: str) -> Path:
        return self.root / "objects" / key[:2] / f"{key}.json"

    def _count(self, hit: bool) -> None:
        if hit:
            self.stats.hits += 1
        else:
            self.stats.misses += 1
        rec = _obs_current()
        if rec is not None:
            rec.bump("cache.hit" if hit else "cache.miss")

    def _object_files(self) -> list[Path]:
        objects = self.root / "objects"
        if not objects.is_dir():
            return []
        return [p for p in objects.glob("*/*.json") if p.is_file()]

    def _discard(self, path: Path) -> None:
        """Unlink a corrupt/alien object file (racing removal is fine)."""
        try:
            size = path.stat().st_size
            path.unlink()
        except OSError:
            return
        if self._total_bytes is not None:
            self._total_bytes = max(0, self._total_bytes - size)

    def _load(
        self, key: str, valid: Callable[[Any], bool] | None = None
    ) -> Any:
        """Uncounted read: the value for ``key`` or :data:`MISS`.  A
        value that fails ``valid`` is alien, like an unparsable file."""
        path = self._path(key)
        try:
            text = path.read_text()
        except OSError:
            return MISS
        try:
            doc = json.loads(text)
        except json.JSONDecodeError:
            doc = None
        if not isinstance(doc, dict) or doc.get("schema") != SCHEMA_VERSION \
                or "value" not in doc \
                or (valid is not None and not valid(doc["value"])):
            # Corrupt or alien: a miss — and the corpse must go, or
            # every later get would re-read and re-fail on it.
            self._discard(path)
            return MISS
        try:
            # Touch-on-read: eviction is oldest-mtime-first, so without
            # this a hot key kept its write-time mtime and size pressure
            # evicted the most-requested objects first (FIFO masquerading
            # as LRU).  A concurrent unlink (another handle's eviction or
            # corrupt-object discard) between the read and the touch is
            # fine — the value was already parsed.
            os.utime(path)
        except OSError:
            pass
        return doc["value"]

    def get(
        self, key: str, valid: Callable[[Any], bool] | None = None
    ) -> Any:
        """The cached value for ``key``, or the :data:`MISS` sentinel.
        A value that fails ``valid`` (when given) counts as a miss and
        is unlinked, as a corrupt file is."""
        value = self._load(key, valid)
        self._count(hit=value is not MISS)
        return value

    def get_many(self, keys: list[str]) -> list[Any]:
        """Batched probe: the value (or :data:`MISS`) for every key.

        One pass, one stats/obs update per outcome class instead of one
        per key — the campaign runner and the job tier's resume probe
        touch hundreds of keys back to back, and per-key counter bumps
        were a measurable fraction of an all-hits probe.
        """
        values = [self._load(key) for key in keys]
        hits = sum(1 for v in values if v is not MISS)
        misses = len(values) - hits
        self.stats.hits += hits
        self.stats.misses += misses
        rec = _obs_current()
        if rec is not None:
            if hits:
                rec.bump("cache.hit", hits)
            if misses:
                rec.bump("cache.miss", misses)
        return values

    def put(self, key: str, value: Any, kind: str = "") -> None:
        """Store ``value`` (must be JSON-serialisable) atomically, then
        prune oldest-mtime-first if the store exceeds ``max_bytes``."""
        path = self._path(key)
        data = json.dumps(
            {"schema": SCHEMA_VERSION, "kind": kind, "value": value},
            sort_keys=True,
        ).encode()
        try:
            fd, tmp = tempfile.mkstemp(
                dir=path.parent, prefix=path.name, suffix=".tmp"
            )
        except FileNotFoundError:
            # A shard directory not created yet, or removed underneath
            # (the cache root was deleted): create it and retry once.
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                dir=path.parent, prefix=path.name, suffix=".tmp"
            )
        try:
            try:
                view = memoryview(data)
                while view:
                    view = view[os.write(fd, view):]
            finally:
                os.close(fd)
            try:
                old_size = path.stat().st_size
            except OSError:
                old_size = 0
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        _mark_fresh(path)
        if self.max_bytes:
            if self._total_bytes is None:
                self._total_bytes = sum(
                    p.stat().st_size for p in self._object_files()
                )
            else:
                self._total_bytes += len(data) - old_size
            if self._total_bytes > self.max_bytes:
                self._evict()

    def _evict(self) -> None:
        """Prune object files oldest-mtime-first until under the cap.

        Ties (same mtime at filesystem granularity) break by path, so
        eviction order is deterministic.  Objects written (by any
        handle in this process) since the previous eviction round are
        exempt for this round: mtime order alone let one writer's
        pressure unlink an object another writer had committed
        microseconds earlier — the concurrent-writer race the serving
        layers hit once probe, batch and job caches shared a directory.
        An all-fresh store may therefore stay over the cap for a round;
        the next round (when those objects have aged out of the
        registry) collects them.
        """
        rec = _obs_current()
        with _fresh_lock:
            fresh = set(_fresh_paths)
        aged = sorted(
            ((p.stat().st_mtime_ns, p) for p in self._object_files()),
            key=lambda pair: (pair[0], str(pair[1])),
        )
        total = sum(p.stat().st_size for _, p in aged)
        for _, victim in aged:
            if total <= self.max_bytes:
                break
            if str(victim) in fresh:
                continue  # exempt for this round
            try:
                size = victim.stat().st_size
                victim.unlink()
            except OSError:
                continue  # raced with another process; nothing to count
            total -= size
            self.stats.evictions += 1
            if rec is not None:
                rec.bump("cache.evict")
        self._total_bytes = total
        # Retire this round's exemptions: each object is "new" for
        # exactly one eviction round.
        with _fresh_lock:
            for path in fresh:
                _fresh_paths.pop(path, None)
