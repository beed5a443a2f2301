"""Content-addressed schedule cache (in-process memo + optional disk).

Scheduling and context generation are pure functions of (kernel CDFG,
composition, scheduler flags) — see :mod:`repro.perf.fingerprint` for
the content address.  The cache memoises their result (the generated
:class:`~repro.context.words.ContextProgram`) so repeated evaluations,
ablation benchmarks and hill-climbing restarts that revisit a genome
skip scheduling entirely.

Two layers:

* an in-process dict (always on) — hits are reference-shared, so the
  stored program must be treated as immutable (every consumer in this
  codebase only reads it);
* an optional on-disk directory (``cache_dir``) of pickled programs,
  one ``<sha256>.pkl`` file per key, written atomically (tmp + rename)
  so concurrent pool workers never observe torn files.  Disk entries
  survive across processes and are how ``--jobs N`` workers share warm
  state.

The disk layer doubles as the *shared artifact store* of the
scheduling service (:mod:`repro.serve`): ``max_bytes`` bounds its
size with least-recently-used eviction (recency is the entry file's
mtime, refreshed on every disk hit), so a long-lived server's cache
directory cannot grow without bound.  The in-process memo is not
evicted — it only ever holds what this process actually touched.

Hit/miss/evict counters are kept per instance *and* mirrored into the
``repro.obs`` metrics registry (``perf.cache.hits`` /
``perf.cache.misses`` / ``perf.cache.evict`` /
``perf.cache.corrupt``) whenever an enabled registry is installed.
Pool workers ship the counters of their :func:`shared_cache`
instances back to the parent (:func:`shared_cache_counts`,
:func:`shared_cache_deltas`, :func:`add_shared_cache_counts`; see
:mod:`repro.perf.parallel`).

**Integrity.**  Disk entries are checksummed: each file carries a
header (magic + SHA-256 of the pickled payload), verified on every
disk read.  A mismatch — a silently bit-flipped pickle that would
still unpickle — is *quarantined*: the file is renamed to
``<key>.pkl.corrupt`` (out of the key namespace, kept as evidence),
counted in ``perf.cache.corrupt`` and served as a miss, so the entry
is recomputed rather than trusted.  Torn/unpicklable files get the
same treatment, and so do files without the magic header: nothing
is unpickled unchecked.  The ``cache.write`` fault-injection site
(:mod:`repro.faults`) can tear or corrupt writes on purpose; the read
path must catch every one.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
from typing import Any, Callable, Dict, Optional, Tuple

from repro import faults
from repro.arch.composition import Composition
from repro.ir.cdfg import Kernel
from repro.obs import get_metrics
from repro.perf.fingerprint import schedule_cache_key

__all__ = [
    "ScheduleCache",
    "shared_cache",
    "shared_cache_counts",
    "shared_cache_deltas",
    "add_shared_cache_counts",
]

#: per-instance counters a pool worker reports back to its parent
_COUNTERS = ("hits", "misses", "evictions", "corrupt")

#: disk-entry header: magic + raw SHA-256 of the pickled payload
_MAGIC = b"RSC1"
_DIGEST_BYTES = 32


class ScheduleCache:
    """Memoises schedule/context-generation results by content address."""

    def __init__(
        self,
        cache_dir: Optional[str] = None,
        *,
        max_bytes: Optional[int] = None,
    ) -> None:
        self.cache_dir = cache_dir
        #: on-disk size budget; ``None`` = unbounded (the historical
        #: behaviour), otherwise least-recently-used entries are
        #: evicted after every put until the directory fits
        self.max_bytes = max_bytes
        self._memory: Dict[str, Any] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        #: disk entries rejected by the integrity check and quarantined
        self.corrupt = 0
        if cache_dir is not None:
            os.makedirs(cache_dir, exist_ok=True)

    # -- keys -----------------------------------------------------------

    def key_for(
        self, kernel: Kernel, comp: Composition, **flags: Any
    ) -> str:
        return schedule_cache_key(kernel, comp, **flags)

    # -- raw get/put ----------------------------------------------------

    def _disk_path(self, key: str) -> Optional[str]:
        if self.cache_dir is None:
            return None
        return os.path.join(self.cache_dir, f"{key}.pkl")

    def _quarantine(self, path: str, reason: str) -> None:
        """Move a failed entry out of the key namespace, keep evidence."""
        try:
            os.replace(path, path + ".corrupt")
        except OSError:
            try:
                os.unlink(path)
            except OSError:
                pass
        self.corrupt += 1
        metrics = get_metrics()
        if metrics.enabled:
            metrics.inc("perf.cache.corrupt", reason=reason)

    def _load_disk(self, path: str) -> Optional[Any]:
        """Verified payload from one disk entry, or ``None`` (+quarantine).

        Entries are rejected on a missing ``_MAGIC`` header or a digest
        mismatch *before* anything is unpickled; torn or unpicklable
        files are rejected the same way.
        """
        try:
            with open(path, "rb") as fh:
                blob = fh.read()
        except OSError:
            return None  # concurrently evicted: a plain miss, no counter
        if blob[: len(_MAGIC)] != _MAGIC:
            self._quarantine(path, "header")
            return None
        digest = blob[len(_MAGIC): len(_MAGIC) + _DIGEST_BYTES]
        body = blob[len(_MAGIC) + _DIGEST_BYTES:]
        if hashlib.sha256(body).digest() != digest:
            self._quarantine(path, "checksum")
            return None
        try:
            return pickle.loads(body)
        except (pickle.UnpicklingError, EOFError, ValueError,
                IndexError, ImportError, AttributeError, MemoryError):
            self._quarantine(path, "unpicklable")
            return None

    def get(self, key: str) -> Optional[Any]:
        """Cached payload for ``key``, or ``None``.  Counts hit/miss."""
        payload = self._memory.get(key)
        if payload is None:
            path = self._disk_path(key)
            if path is not None and os.path.exists(path):
                payload = self._load_disk(path)
                if payload is not None:
                    self._memory[key] = payload
                    try:
                        # refresh recency so LRU eviction spares hot
                        # entries other processes keep reading
                        os.utime(path)
                    except OSError:
                        pass
        metrics = get_metrics()
        if payload is None:
            self.misses += 1
            if metrics.enabled:
                metrics.inc("perf.cache.misses")
            return None
        self.hits += 1
        if metrics.enabled:
            metrics.inc("perf.cache.hits")
        return payload

    def put(self, key: str, payload: Any) -> None:
        self._memory[key] = payload
        path = self._disk_path(key)
        if path is None:
            return
        body = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        blob = _MAGIC + hashlib.sha256(body).digest() + body
        action = faults.decide("cache.write")
        if action is not None:
            if action.kind == "torn":
                # a publish that died mid-write: header intact, body cut
                blob = blob[: len(blob) // 2]
            elif action.kind == "corrupt":
                # a silent bit flip deep in the pickled body
                flip = len(_MAGIC) + _DIGEST_BYTES + len(body) // 2
                mutated = bytearray(blob)
                mutated[flip] ^= 0x40
                blob = bytes(mutated)
        # atomic publish: a concurrent reader sees the old state or the
        # complete new file, never a partial write
        fd, tmp = tempfile.mkstemp(
            dir=self.cache_dir, prefix=".tmp-", suffix=".pkl"
        )
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(blob)
            os.replace(tmp, path)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            return
        self._evict_lru(protect=path)

    # -- size-bounded LRU eviction ---------------------------------------

    def disk_bytes(self) -> int:
        """Total size of the on-disk entries (0 without a ``cache_dir``)."""
        return sum(size for _, _, size in self._disk_entries())

    def _disk_entries(self):
        """``(mtime, path, size)`` per on-disk entry, oldest first."""
        if self.cache_dir is None:
            return []
        entries = []
        try:
            names = os.listdir(self.cache_dir)
        except OSError:
            return []
        for name in names:
            if not name.endswith(".pkl") or name.startswith(".tmp-"):
                continue
            path = os.path.join(self.cache_dir, name)
            try:
                st = os.stat(path)
            except OSError:
                continue  # concurrently evicted by another process
            entries.append((st.st_mtime_ns, path, st.st_size))
        entries.sort()
        return entries

    def _evict_lru(self, protect: Optional[str] = None) -> None:
        """Drop least-recently-used disk entries until under budget.

        ``protect`` (the entry just written) is never evicted, so a
        single oversized payload still lands.  Eviction only trims the
        disk layer; the in-process memo keeps what this process read.
        """
        if self.max_bytes is None or self.cache_dir is None:
            return
        entries = self._disk_entries()
        total = sum(size for _, _, size in entries)
        evicted = 0
        for _, path, size in entries:
            if total <= self.max_bytes:
                break
            if path == protect:
                continue
            try:
                os.unlink(path)
            except OSError:
                continue  # lost a race with a concurrent evictor
            total -= size
            evicted += 1
        if evicted:
            self.evictions += evicted
            metrics = get_metrics()
            if metrics.enabled:
                metrics.inc("perf.cache.evict", evicted)

    # -- the memoised pipeline stage -------------------------------------

    def get_or_compute(
        self,
        kernel: Kernel,
        comp: Composition,
        compute: Callable[[], Any],
        **flags: Any,
    ) -> Tuple[Any, bool]:
        """``(payload, was_hit)`` — computes and stores on miss."""
        key = self.key_for(kernel, comp, **flags)
        payload = self.get(key)
        if payload is not None:
            return payload, True
        payload = compute()
        self.put(key, payload)
        return payload, False

    # -- stats ----------------------------------------------------------

    def stats(self) -> Dict[str, int]:
        """Counters plus the entry count: on-disk entries for a cache
        with a directory (pool workers fill the store, never this
        process's memory layer), the memory layer otherwise."""
        out = {
            "hits": self.hits,
            "misses": self.misses,
            "entries": len(self._memory),
            "evictions": self.evictions,
            "corrupt": self.corrupt,
        }
        if self.cache_dir is not None:
            disk = self._disk_entries()
            out["entries"] = len(disk)
            out["disk_bytes"] = sum(size for _, _, size in disk)
        return out

    def clear(self) -> None:
        self._memory.clear()


#: process-global instances, one per cache directory (None = memory-only);
#: pool workers forked from a warm parent inherit the memory layer
_SHARED: Dict[Optional[str], ScheduleCache] = {}


def shared_cache(
    cache_dir: Optional[str] = None,
    *,
    max_bytes: Optional[int] = None,
) -> ScheduleCache:
    """The process-wide cache for ``cache_dir`` (created on first use).

    ``max_bytes`` installs (or updates) the disk-size budget on the
    shared instance; ``None`` leaves any previously-set budget alone.
    """
    key = os.path.abspath(cache_dir) if cache_dir is not None else None
    cache = _SHARED.get(key)
    if cache is None:
        cache = _SHARED[key] = ScheduleCache(cache_dir, max_bytes=max_bytes)
    elif max_bytes is not None:
        cache.max_bytes = max_bytes
    return cache


def shared_cache_counts() -> Dict[Optional[str], Tuple[int, ...]]:
    """Counters of every process-wide cache, keyed by its directory.

    Values follow ``_COUNTERS`` (hits, misses, evictions, corrupt).  A
    pool worker snapshots them before a task and ships
    :func:`shared_cache_deltas` back; the parent adds those with
    :func:`add_shared_cache_counts`.
    """
    return {
        key: tuple(getattr(cache, name) for name in _COUNTERS)
        for key, cache in _SHARED.items()
    }


def shared_cache_deltas(
    before: Dict[Optional[str], Tuple[int, ...]]
) -> Dict[Optional[str], Tuple[int, ...]]:
    """Counter changes since the ``before`` snapshot (unchanged caches
    are left out)."""
    deltas = {}
    for key, counts in shared_cache_counts().items():
        base = before.get(key, (0,) * len(_COUNTERS))
        delta = tuple(now - then for now, then in zip(counts, base))
        if any(delta):
            deltas[key] = delta
    return deltas


def add_shared_cache_counts(
    deltas: Dict[Optional[str], Tuple[int, ...]]
) -> None:
    """Add a worker's counter deltas to this process's shared caches."""
    for key, delta in deltas.items():
        cache = shared_cache(key)
        for name, value in zip(_COUNTERS, delta):
            setattr(cache, name, getattr(cache, name) + value)
