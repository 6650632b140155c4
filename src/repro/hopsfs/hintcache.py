"""The inode hint cache (paper §5.1).

Each namenode caches only the *primary keys* of inodes:
``(parent_id, name) → (inode_id, part_key, is_dir)``. Given a path whose
components all hit the cache, the namenode can issue a **single batched
primary-key read** for every component instead of N sequential round
trips. Entries go stale only when a move changes an inode's primary key
(< 2 % of typical workloads, Table 1); a stale entry makes the batched
read miss, path resolution falls back to the recursive method and repairs
the cache.

The cache is a bounded LRU; thread safe. :meth:`InodeHintCache.walk`
probes a whole path under one hold of its mutex — what :meth:`get`
would do per component, hits, misses and LRU order included.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Iterable, Optional

from repro.faults import active, fault_point


class InodeHint:
    """Cached primary-key information for one inode.

    ``children_random`` mirrors the inode's persistent child-partitioning
    rule so the partition key of a yet-uncached child can be computed
    without a database read. ``is_dir`` and ``children_random`` are
    immutable per inode id (a move re-inserts the row with both
    unchanged), so a hint whose ``inode_id`` validates against the row
    read proves them too — which is what lets the resolver ship the
    scans keyed by the hinted id in the same batch as the path read.
    """

    __slots__ = ("inode_id", "part_key", "is_dir", "children_random")

    def __init__(self, inode_id: int, part_key: int, is_dir: bool,
                 children_random: bool) -> None:
        self.inode_id = inode_id
        self.part_key = part_key
        self.is_dir = is_dir
        self.children_random = children_random


class InodeHintCache:
    def __init__(self, capacity: int = 200_000) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self._capacity = capacity
        self._entries: OrderedDict[tuple[int, str], InodeHint] = OrderedDict()  # guarded_by: _mutex
        self._mutex = threading.Lock()
        self._hits = 0  # guarded_by: _mutex
        self._misses = 0  # guarded_by: _mutex
        self._invalidations = 0  # guarded_by: _mutex
        self._evictions = 0  # guarded_by: _mutex

    def get(self, parent_id: int, name: str) -> Optional[InodeHint]:
        key = (parent_id, name)
        # chaos: a veto here simulates hint-cache staleness — the lookup
        # counts as a miss and resolution falls back to the recursive
        # path, exactly as after a primary-key-changing move (§5.1)
        stale = fault_point("hopsfs.hintcache.get", parent_id=parent_id,
                            name=name)
        with self._mutex:
            hint = None if stale else self._entries.get(key)
            if hint is None:
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            return hint

    def walk(self, parent_id: int, names: list[str],
             ) -> tuple[list[tuple], list[Optional[InodeHint]]]:
        """:meth:`get` each of ``names`` in turn, the first under
        ``parent_id`` and each next one under the inode the previous one
        names, under one hold of the mutex; the walk stops at the first
        miss. Returns the primary keys ``(part_key, parent_id, name)``
        and the hints of the hits.

        The ``hopsfs.hintcache.get`` site fires once per probed name,
        with the mutex held: a ``call`` fault there must not use this
        cache. The walk reads the installed injector once; with none it
        calls no ``fault_point``.
        """
        keys: list[tuple] = []
        hints: list[Optional[InodeHint]] = []
        faulty = active() is not None
        with self._mutex:
            entries = self._entries
            for name in names:
                key = (parent_id, name)
                stale = faulty and fault_point(
                    "hopsfs.hintcache.get", parent_id=parent_id, name=name)
                hint = None if stale else entries.get(key)
                if hint is None:
                    self._misses += 1
                    break
                entries.move_to_end(key)
                self._hits += 1
                keys.append((hint.part_key, parent_id, name))
                hints.append(hint)
                parent_id = hint.inode_id
        return keys, hints

    def put(self, parent_id: int, name: str, inode_id: int, part_key: int,
            is_dir: bool, children_random: bool = False) -> None:
        key = (parent_id, name)
        with self._mutex:
            self._entries[key] = InodeHint(inode_id, part_key, is_dir,
                                           children_random)
            self._entries.move_to_end(key)
            while len(self._entries) > self._capacity:
                self._entries.popitem(last=False)
                self._evictions += 1

    def invalidate(self, parent_id: int, name: str) -> None:
        with self._mutex:
            if self._entries.pop((parent_id, name), None) is not None:
                self._invalidations += 1

    def invalidate_many(self, keys: Iterable[tuple[int, str]]) -> None:
        """:meth:`invalidate` each ``(parent_id, name)`` of ``keys``
        under one hold of the mutex."""
        with self._mutex:
            pop = self._entries.pop
            for key in keys:
                if pop(key, None) is not None:
                    self._invalidations += 1

    def clear(self) -> None:
        """Drop every entry *and* reset the counters — after a clear the
        hit rate describes the cache's new life, not the old one."""
        with self._mutex:
            self._entries.clear()
            self._hits = 0
            self._misses = 0
            self._invalidations = 0
            self._evictions = 0

    def __len__(self) -> int:
        with self._mutex:
            return len(self._entries)

    # counter reads take the mutex so they never observe a torn
    # hits/misses pair from a concurrent get()
    @property
    def hits(self) -> int:
        with self._mutex:
            return self._hits

    @property
    def misses(self) -> int:
        with self._mutex:
            return self._misses

    @property
    def invalidations(self) -> int:
        with self._mutex:
            return self._invalidations

    @property
    def evictions(self) -> int:
        with self._mutex:
            return self._evictions

    @property
    def hit_rate(self) -> float:
        with self._mutex:
            total = self._hits + self._misses
            return self._hits / total if total else 0.0

    def snapshot(self) -> dict[str, float]:
        """One consistent view of all counters (the metrics bridge input)."""
        with self._mutex:
            total = self._hits + self._misses
            return {
                "size": len(self._entries),
                "capacity": self._capacity,
                "hits": self._hits,
                "misses": self._misses,
                "invalidations": self._invalidations,
                "evictions": self._evictions,
                "hit_rate": self._hits / total if total else 0.0,
            }
