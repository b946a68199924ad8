"""Persistent, content-addressed artifact store.

Entries live one-per-file under ``<root>/objects/<aa>/<hash>.json`` (two
hex characters of sharding keeps directories small at repository scale).
The store is deliberately boring and failure-proof:

* **Atomic writes** — payloads are written to a temp file in the target
  directory and ``os.replace``d into place, so readers never observe a
  half-written entry, including concurrent writers across processes (the
  last writer wins with an identical payload: entries are content-
  addressed, so two writers of one key are writing the same bytes). Temp
  names embed the writer's pid plus a per-process counter, so concurrent
  writers — including forked children racing their parent — can never
  collide on the scratch file itself.
* **Optionally durable** — ``durable=True`` fsyncs the temp file before
  the rename and the directory after it, so a machine crash immediately
  after :meth:`put` returns cannot leave a hole or a garbage entry where
  the rename landed. The default stays non-durable: the store is a
  cache, and a lost entry is just a future miss.
* **Versioned** — every payload embeds :data:`STORE_VERSION`; an
  unknown version reads as a miss, so format changes never need a
  migration tool. Version 2 added the per-entry ``meta`` record (payload
  byte size + last-access stamp); version-1 entries stay readable and
  are migrated in place the first time they are touched.
* **Corruption-tolerant** — unreadable, unparsable or mis-shaped entries
  (truncated JSON, zero-byte files, wrong version, non-dict payloads)
  are misses, never errors; the offending file is unlinked best-effort.
  A cache must not be able to take the service down.
* **Budget-governed** — ``budget_bytes`` caps the store's on-disk
  footprint. Every :meth:`put` enforces the cap before returning by
  evicting entries (``eviction="lru"``: least-recently-accessed first;
  ``"generational"``: entries never read since they were written go
  first, then LRU among the survivors — the nursery/tenured split that
  fits one-shot traffic). An evicted entry is indistinguishable from
  one that was never written: the next :meth:`get` is a clean miss and
  the producer simply re-solves. Last-access is tracked in an in-memory
  index (rebuilt lazily from file ``mtime``, which :meth:`get` bumps
  via ``os.utime``), so ordering survives process restarts.

Both endpoints are fault-injection seams (``store.read`` /
``store.write``, see :mod:`repro.reliability.faults`); the ``torn`` kind
is implemented here by deliberately writing a truncated payload to the
final path — simulating the non-atomic writer this store refuses to be —
which the next :meth:`get` must classify as a corrupt miss.

The store knows nothing about detection; payload schemas live with their
producers (:mod:`repro.cache.detection`).
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from dataclasses import dataclass, field

from ..reliability import faults

#: Bump on any payload schema change; old entries become misses.
STORE_VERSION = 2

#: Versions :meth:`ArtifactStore.get` still accepts. Version 1 predates
#: the ``meta`` size/atime record; such entries are served as hits and
#: rewritten with a stamped meta the first time they are touched.
COMPATIBLE_VERSIONS = frozenset({1, STORE_VERSION})

#: Eviction policies ``ArtifactStore(eviction=...)`` understands.
EVICTION_POLICIES = ("lru", "generational")

_HEX = set("0123456789abcdef")

#: Per-process temp-name counter. Combined with the pid at use time (not
#: import time — a fork after import must not clone the discriminator),
#: it makes every writer's scratch file unique without consulting the
#: filesystem.
_TMP_COUNTER = itertools.count()


@dataclass
class StoreStats:
    """Hit/miss accounting for one store instance (observability and the
    bench's only-mutated-functions-resolved assertions)."""

    hits: int = 0
    misses: int = 0
    writes: int = 0
    corrupt: int = 0
    write_errors: int = 0
    #: Current on-disk footprint in bytes (a gauge, refreshed by the
    #: store whenever its entry index changes) and the number of entries
    #: the byte budget has evicted (a counter).
    bytes_stored: int = 0
    evictions: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
            "corrupt": self.corrupt,
            "write_errors": self.write_errors,
            "bytes_stored": self.bytes_stored,
            "evictions": self.evictions,
        }

    def reset(self) -> None:
        self.hits = self.misses = self.writes = 0
        self.corrupt = self.write_errors = self.evictions = 0
        self.bytes_stored = 0


@dataclass
class _Entry:
    """In-memory index record for one on-disk entry."""

    size: int
    atime: float
    #: True once the entry has been read after its write (the
    #: generational policy's tenure bit; per-process — a rescan starts
    #: everything back in the nursery).
    touched: bool = False


@dataclass
class ArtifactStore:
    """Content-addressed JSON store rooted at ``root``."""

    root: str
    stats: StoreStats = field(default_factory=StoreStats)
    #: fsync temp file + directory around the rename (crash durability).
    durable: bool = False
    #: On-disk byte cap; None disables eviction. Enforced before every
    #: :meth:`put` returns — the store's footprint never exceeds it.
    budget_bytes: int | None = None
    #: "lru" (least-recently-accessed first) or "generational"
    #: (never-read entries first, then LRU among read ones).
    eviction: str = "lru"
    #: Serializes stats and index updates — lookups run from concurrent
    #: service dispatcher threads, and unsynchronized ``+=`` would lose
    #: counts.
    _lock: threading.Lock = field(default_factory=threading.Lock,
                                  repr=False, compare=False)
    #: key -> _Entry, built lazily by scanning the objects tree (stat
    #: only — sizes from st_size, last-access seeded from st_mtime).
    _index: dict | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.eviction not in EVICTION_POLICIES:
            raise ValueError(
                f"unknown eviction policy {self.eviction!r} "
                f"(choose from {', '.join(EVICTION_POLICIES)})")

    def _path(self, key: str) -> str:
        if len(key) < 3 or not set(key) <= _HEX:
            raise ValueError(f"malformed artifact key {key!r}")
        return os.path.join(self.root, "objects", key[:2], f"{key}.json")

    # -- entry index (per-entry byte size + last access) -----------------------
    def _ensure_index(self) -> dict:
        """The key -> :class:`_Entry` map (call under ``_lock``).

        Built on first use by a stat-only walk of the objects tree:
        sizes from ``st_size``, last-access seeded from ``st_mtime``
        (which :meth:`get` keeps bumped via ``os.utime``), so LRU
        ordering carries across process restarts."""
        if self._index is None:
            index: dict[str, _Entry] = {}
            objects = os.path.join(self.root, "objects")
            for dirpath, _, files in os.walk(objects):
                for fname in files:
                    if not fname.endswith(".json"):
                        continue
                    try:
                        st = os.stat(os.path.join(dirpath, fname))
                    except OSError:
                        continue
                    index[fname[:-5]] = _Entry(st.st_size, st.st_mtime)
            self._index = index
            self.stats.bytes_stored = sum(e.size for e in index.values())
        return self._index

    def _note_write(self, key: str, size: int) -> None:
        index = self._ensure_index()
        old = index.get(key)
        if old is not None:
            self.stats.bytes_stored -= old.size
        index[key] = _Entry(size, time.time())
        self.stats.bytes_stored += size

    def _note_access(self, key: str, path: str) -> None:
        index = self._ensure_index()
        entry = index.get(key)
        if entry is None:
            # Written by another process since the scan: adopt it.
            try:
                size = os.stat(path).st_size
            except OSError:
                return
            entry = index[key] = _Entry(size, 0.0)
            self.stats.bytes_stored += size
        entry.atime = time.time()
        entry.touched = True

    def _forget(self, key: str) -> None:
        if self._index is None:
            return
        entry = self._index.pop(key, None)
        if entry is not None:
            self.stats.bytes_stored -= entry.size

    def _enforce_budget(self) -> None:
        """Evict (call under ``_lock``) until the footprint fits the
        budget. LRU ranks by last access alone; generational sends
        entries never read since their write first (the nursery), then
        the least-recently-read survivors."""
        if self.budget_bytes is None:
            return
        index = self._ensure_index()
        if self.stats.bytes_stored <= self.budget_bytes:
            return
        if self.eviction == "generational":
            def rank(item):
                return (item[1].touched, item[1].atime)
        else:
            def rank(item):
                return item[1].atime
        for key, entry in sorted(index.items(), key=rank):
            if self.stats.bytes_stored <= self.budget_bytes:
                break
            self._unlink(self._path(key))
            index.pop(key, None)
            self.stats.bytes_stored -= entry.size
            self.stats.evictions += 1

    def total_bytes(self) -> int:
        """Current on-disk footprint per the entry index."""
        with self._lock:
            self._ensure_index()
            return self.stats.bytes_stored

    def entry_info(self, key: str) -> tuple[int, float] | None:
        """(byte size, last-access time) of one entry, or None."""
        with self._lock:
            entry = self._ensure_index().get(key)
            return None if entry is None else (entry.size, entry.atime)

    # -- reads ----------------------------------------------------------------
    def get(self, key: str) -> dict | None:
        """The payload stored under ``key``, or None (miss).

        Every failure mode — absent file, I/O error, invalid JSON,
        non-dict payload, version mismatch — is a miss. Files whose
        *content* is provably invalid are removed so they are not
        re-parsed on every lookup; a transient I/O error (fd exhaustion,
        a briefly unreadable shared mount) says nothing about the
        content, so the file is left alone. Version-1 entries (pre-meta)
        are hits, migrated in place on this touch."""
        path = self._path(key)
        try:
            faults.maybe_fire("store.read", key)
            with open(path, "rb") as fh:
                payload = json.load(fh)
        except FileNotFoundError:
            with self._lock:
                self.stats.misses += 1
                self._forget(key)
            return None
        except (OSError, faults.InjectedFault):
            # An injected read fault is exactly a transient I/O error:
            # a miss that leaves the file alone.
            with self._lock:
                self.stats.misses += 1
            return None
        except ValueError:
            with self._lock:
                self.stats.corrupt += 1
                self.stats.misses += 1
                self._forget(key)
            self._unlink(path)
            return None
        if not isinstance(payload, dict) or \
                payload.get("version") not in COMPATIBLE_VERSIONS:
            with self._lock:
                self.stats.corrupt += 1
                self.stats.misses += 1
                self._forget(key)
            self._unlink(path)
            return None
        if payload.get("version") != STORE_VERSION:
            payload = self._migrate(path, payload)
        self._touch(path)
        with self._lock:
            self.stats.hits += 1
            self._note_access(key, path)
        return payload

    # -- writes ---------------------------------------------------------------
    def put(self, key: str, payload: dict) -> bool:
        """Atomically persist ``payload`` under ``key``.

        The version and ``meta`` (payload byte size + stamp time) fields
        are stamped here so producers cannot forget them. Write failures
        (full disk, read-only mount, permissions) are swallowed: a store
        that cannot persist degrades to a cold run, it does not break
        detection. The byte budget, when set, is enforced before
        returning — the store's footprint never exceeds it. Returns
        whether the write landed (a write evicted to fit a tiny budget
        still returns True; the next get is simply a miss)."""
        path = self._path(key)
        payload = self._stamp(payload)
        data = json.dumps(payload, separators=(",", ":"))
        try:
            directive = faults.maybe_fire("store.write", key)
            if directive is not None and \
                    getattr(directive, "kind", None) == "torn":
                # Simulate the non-atomic writer dying mid-write: half
                # the bytes land at the *final* path. Readers must see a
                # corrupt miss, never an error or a partial payload.
                torn = data[:max(1, len(data) // 2)]
                self._write_file(path, torn)
                with self._lock:
                    self.stats.write_errors += 1
                    self._note_write(key, len(torn))
                return False
            self._replace(path, data)
        except (OSError, faults.InjectedFault):
            with self._lock:
                self.stats.write_errors += 1
            return False
        with self._lock:
            self.stats.writes += 1
            # JSON with the default ensure_ascii stays pure ASCII, so
            # len(data) is the file's byte size.
            self._note_write(key, len(data))
            self._enforce_budget()
        return True

    def _stamp(self, payload: dict) -> dict:
        """Stamp version + the meta record. ``meta.bytes`` measures the
        producer payload itself (version included, meta excluded), so
        consumers can account entry sizes without a stat; ``meta.atime``
        is the stamp instant, refreshed when a v1 entry migrates."""
        body = dict(payload, version=STORE_VERSION)
        body.pop("meta", None)
        size = len(json.dumps(body, separators=(",", ":")))
        return dict(body, meta={"bytes": size, "atime": int(time.time())})

    def _migrate(self, path: str, payload: dict) -> dict:
        """Rewrite an old-version entry in the current format (meta
        stamped) the first time it is touched. Best-effort and invisible
        to stats and fault seams: a failed migration just leaves the old
        entry readable for next time."""
        payload = self._stamp(payload)
        try:
            self._replace(path, json.dumps(payload, separators=(",", ":")))
        except OSError:
            pass
        return payload

    def _replace(self, path: str, data: str) -> None:
        """Atomic write: unique temp name, optional fsync, rename."""
        directory = os.path.dirname(path)
        os.makedirs(directory, exist_ok=True)
        tmp = os.path.join(
            directory,
            f".{os.path.basename(path)}.{os.getpid()}."
            f"{next(_TMP_COUNTER)}.tmp")
        try:
            with open(tmp, "w") as fh:
                fh.write(data)
                if self.durable:
                    fh.flush()
                    os.fsync(fh.fileno())
            os.replace(tmp, path)
            if self.durable:
                self._sync_dir(directory)
        except BaseException:
            self._unlink(tmp)
            raise

    @staticmethod
    def _write_file(path: str, data: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            fh.write(data)

    @staticmethod
    def _touch(path: str) -> None:
        """Bump mtime so LRU ordering survives into fresh index scans."""
        try:
            os.utime(path)
        except OSError:
            pass

    @staticmethod
    def _sync_dir(directory: str) -> None:
        """fsync the directory so the rename itself is on stable storage
        (best-effort: not every filesystem allows O_RDONLY dir fds)."""
        try:
            fd = os.open(directory, os.O_RDONLY)
        except OSError:  # pragma: no cover - platform-dependent
            return
        try:
            os.fsync(fd)
        except OSError:  # pragma: no cover - platform-dependent
            pass
        finally:
            os.close(fd)

    # -- maintenance -----------------------------------------------------------
    def invalidate(self, key: str) -> None:
        """Drop an entry whose *payload* a consumer found undecodable
        (it was already counted as a hit by :meth:`get`): reclassify the
        lookup as a corrupt miss and remove the file so it is not
        re-parsed on every lookup."""
        with self._lock:
            self.stats.hits -= 1
            self.stats.misses += 1
            self.stats.corrupt += 1
            self._forget(key)
        self._unlink(self._path(key))

    @staticmethod
    def _unlink(path: str) -> None:
        try:
            os.unlink(path)
        except OSError:
            pass

    def entry_count(self) -> int:
        """Number of entries on disk (walks the tree; diagnostics only)."""
        objects = os.path.join(self.root, "objects")
        count = 0
        for _, _, files in os.walk(objects):
            count += sum(1 for f in files if f.endswith(".json"))
        return count
