"""Runtime lock-order witness — a lockdep-lite for the repro tree.

The paper's §3.4 claim is that HopsFS transactions never deadlock because
every lock is taken in one global total order at the strongest level
needed up front. This module is the one check of that claim, and it
checks it three ways:

* **rank** — every row lock a transaction requests must rank above the
  ones it requested before, in the order
  :func:`repro.hopsfs.schema.lock_rank` writes down (inodes by depth and
  pk, then every other table). The rank is derived where the lock is
  taken, from the rows the transaction sees, so a sort by the wrong key
  or a loop in the wrong order shows on any run of its path, whatever
  the other tests do. Like kernel lockdep's lock classes, it needs no
  second party;
* **cycles** — across the whole run, a cycle in the
  lock-acquisition-order graph: orders that each transaction keeps but
  two of them take both ways;
* **upgrades** — a SHARED→EXCLUSIVE (or read→write) request on a held
  lock, however it was taken (through the resolver's ``lock_last=``, a
  helper or inline).

When installed (``REPRO_LOCK_WITNESS=1`` plus the pytest plugin in
``tests/conftest.py``), hooks inside
:class:`repro.ndb.locks.LockManager` and
:class:`repro.util.rwlock.ReadWriteLock` (which includes the cluster's
structure gate) report every acquisition, and the witness accumulates the
**lock-acquisition-order graph** across the whole test suite:

* a node is one lock — ``(manager, (table, pk))`` for row locks,
  the lock instance for readers-writer locks;
* an edge A→B means some thread acquired (or requested) B while
  holding A. Edges are recorded at *request* time: a dependency that only
  resolved because a retry broke the deadlock still counts, exactly like
  kernel lockdep's "this would have deadlocked under other timing";
* a cycle in the graph is a potential deadlock even if no run ever hit
  it; an observed SHARED→EXCLUSIVE (or read→write) upgrade on a held
  lock violates the strongest-lock-up-front discipline directly;
* a request ranked below one its transaction made before is a rank
  fault (a reentrant request is not a new one). The rank is computed
  before the witness's own mutex is taken, and
  :meth:`repro.ndb.locks.LockManager.acquire_many` reports its grants
  after it leaves the lock table's mutex, since ranking an inode lock
  reads inode rows.

Row locks are held by transaction objects (which may be aborted from
another thread), readers-writer locks by threads; the witness bridges the
two domains by remembering which transaction each thread last acquired
rows for, so commit's row-locks→structure-gate ordering shows up as real
edges. Scope tokens keep graphs of distinct lock managers (one per test
cluster) disjoint, so only ordering conflicts *within* one cluster can
form cycles.

The recorder is deliberately simple: one mutex, dict-of-dict edges, and
cycle detection (Tarjan SCC) deferred to :meth:`LockWitness.report` at
session end. Tests that provoke deadlocks or upgrades on purpose pause it
via :meth:`LockWitness.paused` (the ``lock_witness_exempt`` marker).
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Hashable, Optional
from weakref import WeakKeyDictionary

from repro.errors import ClusterDownError
from repro.hopsfs.schema import lock_rank

Node = tuple  # ('row', scope, key) | ('rw', scope)

#: frames from these files are skipped when sampling an acquisition site
_INTERNAL_FILES = ("lockwitness.py", "ndb/locks.py", "rwlock.py",
                   "contextlib.py", "ndb/transaction.py", "ndb/cluster.py",
                   "ndb/session.py")


def _call_site(max_depth: int = 25) -> str:
    frame = sys._getframe(2)
    depth = 0
    while frame is not None and depth < max_depth:
        filename = frame.f_code.co_filename
        if not filename.endswith(_INTERNAL_FILES):
            short = filename.split("/repro/")[-1].split("/repo/")[-1]
            return f"{short}:{frame.f_lineno}"
        frame = frame.f_back
        depth += 1
    return "<unknown>"


@dataclass(frozen=True)
class UpgradeEvent:
    label: str
    held_mode: str
    wanted_mode: str
    site: str

    def render(self) -> str:
        return (f"{self.label}: held {self.held_mode}, requested "
                f"{self.wanted_mode} at {self.site}")


@dataclass(frozen=True)
class RankFault:
    label: str
    #: the lock it ranks below, requested earlier by the same transaction
    after: str
    site: str

    def render(self) -> str:
        return f"{self.label} after {self.after} at {self.site}"


@dataclass
class WitnessReport:
    nodes: int
    edges: int
    cycles: list[list[str]] = field(default_factory=list)
    upgrades: list[UpgradeEvent] = field(default_factory=list)
    rank_faults: list[RankFault] = field(default_factory=list)
    #: raw node members of each reported cycle (same order as ``cycles``),
    #: kept for graph exports that highlight the offending subgraph
    components: list[list[Node]] = field(default_factory=list, repr=False)

    @property
    def ok(self) -> bool:
        return not self.cycles and not self.upgrades and not self.rank_faults

    def render(self) -> str:
        lines = [f"lock witness: {self.nodes} locks, {self.edges} ordered "
                 f"pairs, {len(self.cycles)} cycle(s), "
                 f"{len(self.upgrades)} upgrade(s), "
                 f"{len(self.rank_faults)} rank fault(s)"]
        for cycle in self.cycles:
            lines.append("  CYCLE (potential deadlock):")
            lines.extend(f"    {hop}" for hop in cycle)
        for upgrade in self.upgrades:
            lines.append(f"  UPGRADE: {upgrade.render()}")
        for fault in self.rank_faults:
            lines.append(f"  RANK: {fault.render()}")
        return "\n".join(lines)


class LockWitness:
    """Accumulates the global lock-acquisition-order graph."""

    def __init__(self) -> None:
        self._mutex = threading.RLock()
        self._scope_ids: WeakKeyDictionary[Any, int] = WeakKeyDictionary()
        self._scope_counter = itertools.count(1)
        #: node -> successor node -> sample acquisition-site witness
        self._edges: dict[Node, dict[Node, str]] = {}
        #: node -> successor node -> intersection, over every recording of
        #: the edge, of the exclusive locks held at the time. A cycle all
        #: of whose edges share a common exclusive guard cannot deadlock:
        #: the guard mutually excludes the transactions involved — the
        #: paper's hierarchical-locking argument (§5.2.1, the inode lock
        #: covers the file's block/replica/lease rows).
        self._edge_guards: dict[Node, dict[Node, frozenset]] = {}
        #: node -> intersection, over every (non-reentrant) request for
        #: it, of the exclusive locks held by the requester. Non-empty
        #: means every contender for the node is serialized by a common
        #: outer lock, so no transaction ever *waits* on the node — it
        #: cannot be the waited-on resource of any real deadlock.
        self._node_guards: dict[Node, frozenset] = {}
        self._labels: dict[Node, str] = {}
        #: transaction owner -> {row node: mode}
        self._row_held: dict[Hashable, dict[Node, str]] = {}
        #: thread ident -> {rw node: mode}
        self._rw_held: dict[int, dict[Node, str]] = {}
        #: thread ident -> transaction owner it last acquired rows for
        self._thread_owner: dict[int, Hashable] = {}
        self._upgrades: list[UpgradeEvent] = []
        #: transaction owner -> [its first lock on a tier-1 table, whether
        #: it requested an ``inodes`` lock, {group: (highest rank
        #: requested, its lock)}]
        self._ranks: dict[Hashable, list] = {}
        self._rank_faults: list[RankFault] = []
        self._paused = 0

    # -- pause (deliberate-deadlock tests) -------------------------------------

    @contextmanager
    def paused(self):
        with self._mutex:
            self._paused += 1
        try:
            yield
        finally:
            with self._mutex:
                self._paused -= 1

    # -- hook entry points ------------------------------------------------------

    def row_requested(self, manager: Any, owner: Hashable, key: Any,
                      mode: str) -> None:
        # the rank may read the engine: before any mutex is taken. Only
        # this owner's own earlier requests change its rank state
        rank = None
        if not self._paused:
            state = self._ranks.get(owner)
            rank = _rank_of(owner, key, state is not None and state[1])
        with self._mutex:
            if self._paused:
                return
            node = ("row", self._scope(manager), key)
            self._labels.setdefault(node, f"row {key!r}")
            current = self._row_held.get(owner, {}).get(node)
            if current == "s" and mode == "x":
                self._upgrades.append(UpgradeEvent(
                    self._labels[node], "SHARED", "EXCLUSIVE", _call_site()))
            if current is not None:
                # reentrant re-request of a held lock is granted without
                # blocking; it cannot contribute a wait dependency
                return
            if rank is not None:
                self._check_rank(owner, key, rank)
            held = self._held_by_thread(owner)
            self._add_edges(held, node)

    def row_granted(self, manager: Any, owner: Hashable, key: Any,
                    mode: str) -> None:
        with self._mutex:
            if self._paused:
                return
            node = ("row", self._scope(manager), key)
            held = self._row_held.setdefault(owner, {})
            if held.get(node) != "x":
                held[node] = mode
            self._thread_owner[threading.get_ident()] = owner

    def owner_released(self, manager: Any, owner: Hashable) -> None:
        with self._mutex:
            self._row_held.pop(owner, None)
            self._ranks.pop(owner, None)

    def rw_requested(self, lock: Any, mode: str) -> None:
        with self._mutex:
            if self._paused:
                return
            node = ("rw", self._scope(lock))
            self._labels.setdefault(node, self._rw_label(lock, node))
            tid = threading.get_ident()
            current = self._rw_held.get(tid, {}).get(node)
            if current == "read" and mode == "write":
                self._upgrades.append(UpgradeEvent(
                    self._labels[node], "read", "write", _call_site()))
            if current is not None:
                return  # reentrant re-request; cannot block
            held = self._held_by_thread(owner=self._thread_owner.get(tid))
            self._add_edges(held, node)

    def rw_granted(self, lock: Any, mode: str) -> None:
        with self._mutex:
            if self._paused:
                return
            node = ("rw", self._scope(lock))
            held = self._rw_held.setdefault(threading.get_ident(), {})
            if held.get(node) != "write":
                held[node] = mode

    def rw_released(self, lock: Any, mode: str) -> None:
        with self._mutex:
            node = ("rw", self._scope(lock))
            held = self._rw_held.get(threading.get_ident())
            if held is not None:
                held.pop(node, None)

    # -- rank ---------------------------------------------------------------------

    def _check_rank(self, owner: Hashable, key: Any,
                    rank: tuple[int, Any, Any]) -> None:
        """Record a rank fault if ``key`` ranks below a lock ``owner``
        requested before it (:func:`repro.hopsfs.schema.lock_rank`)."""
        tier, group, value = rank
        state = self._ranks.setdefault(owner, [None, False, {}])
        highest = state[2].get(group)
        after = None
        if tier == 0 and state[0] is not None:
            after = state[0]
        elif highest is not None and value < highest[0]:
            after = highest[1]
        if after is not None:
            self._rank_faults.append(RankFault(
                f"row {key!r}", f"row {after!r}", _call_site()))
            return
        if tier == 0:
            state[1] = True
        elif state[0] is None:
            state[0] = key
        state[2][group] = (value, key)

    # -- graph ------------------------------------------------------------------

    def _scope(self, obj: Any) -> int:
        token = self._scope_ids.get(obj)
        if token is None:
            token = self._scope_ids[obj] = next(self._scope_counter)
        return token

    def _rw_label(self, lock: Any, node: Node) -> str:
        name = getattr(lock, "name", None)
        return name if name else f"rwlock#{node[1]}"

    def _held_by_thread(self, owner: Optional[Hashable]) -> dict[Node, str]:
        held: dict[Node, str] = {}
        held.update(self._rw_held.get(threading.get_ident(), {}))
        if owner is not None:
            held.update(self._row_held.get(owner, {}))
        return held

    def _add_edges(self, held: dict[Node, str], node: Node) -> None:
        guards = frozenset(n for n, mode in held.items()
                           if mode in ("x", "write") and n != node)
        seen_guards = self._node_guards.get(node)
        self._node_guards[node] = (
            guards if seen_guards is None else (seen_guards & guards))
        if not held:
            return
        site = None
        for prior in held:
            if prior == node:
                continue
            successors = self._edges.setdefault(prior, {})
            if node not in successors:
                if site is None:
                    site = _call_site()
                successors[node] = site
            guard_map = self._edge_guards.setdefault(prior, {})
            seen = guard_map.get(node)
            guard_map[node] = guards if seen is None else (seen & guards)

    # -- reporting ---------------------------------------------------------------

    def edge_count(self) -> int:
        with self._mutex:
            return sum(len(succ) for succ in self._edges.values())

    def report(self) -> WitnessReport:
        with self._mutex:
            edges = {src: dict(dst) for src, dst in self._edges.items()}
            guards = {src: dict(dst) for src, dst in self._edge_guards.items()}
            node_guards = dict(self._node_guards)
            labels = dict(self._labels)
            upgrades = list(self._upgrades)
            rank_faults = list(self._rank_faults)
        # prune edges into nodes whose every request carried a common
        # exclusive guard: contenders for such a node are mutually
        # excluded, so nothing ever waits on it (§5.2.1)
        edges = {
            src: {dst: site for dst, site in successors.items()
                  if not node_guards.get(dst)}
            for src, successors in edges.items()
        }
        cycles = []
        components = []
        for component in _cyclic_sccs(edges):
            if self._commonly_guarded(component, edges, guards):
                continue  # mutually excluded by a shared outer lock (§5.2.1)
            components.append(list(component))
            hops = []
            for node in component:
                succ = edges.get(node, {})
                inside = [n for n in succ if n in component]
                sample = succ[inside[0]] if inside else "?"
                hops.append(f"{labels.get(node, node)}  (then -> "
                            f"{labels.get(inside[0], '?') if inside else '?'} "
                            f"at {sample})")
            cycles.append(hops)
        nodes = set(edges)
        for successors in edges.values():
            nodes.update(successors)
        return WitnessReport(
            nodes=len(nodes),
            edges=sum(len(succ) for succ in edges.values()),
            cycles=cycles,
            upgrades=upgrades,
            rank_faults=rank_faults,
            components=components,
        )

    @staticmethod
    def _commonly_guarded(component: list[Node],
                          edges: dict[Node, dict[Node, str]],
                          guards: dict[Node, dict[Node, frozenset]]) -> bool:
        """True when every edge inside the component shares one exclusive
        guard lock held by all the transactions involved — the cycle then
        cannot manifest, because the guard serializes them (hierarchical
        locking: the inode X lock covers the file's sub-rows)."""
        members = set(component)
        common: Optional[frozenset] = None
        for src in component:
            for dst in edges.get(src, ()):
                if dst not in members:
                    continue
                guard = guards.get(src, {}).get(dst, frozenset())
                common = guard if common is None else (common & guard)
                if not common:
                    return False
        return bool(common)

    def publish(self, registry) -> None:
        """Export graph stats through a :class:`MetricsRegistry`."""
        report = self.report()
        registry.set_gauge("lock_witness_nodes", report.nodes)
        registry.set_gauge("lock_witness_edges", report.edges)
        registry.set_gauge("lock_witness_cycles", len(report.cycles))
        registry.set_gauge("lock_witness_upgrades", len(report.upgrades))
        registry.set_gauge("lock_witness_rank_faults", len(report.rank_faults))

    # -- graph export (CI artifact) ----------------------------------------------

    def export_graph(self, report: Optional[WitnessReport] = None) -> dict:
        """The full acquisition-order graph as a JSON-ready dict.

        Nodes and edges carry an ``in_cycle`` flag for the members of any
        reported (unguarded) cycle, so a viewer can highlight the
        offending subgraph; ``cycles`` lists the member node ids per
        cycle in the same order as ``WitnessReport.cycles``.
        """
        if report is None:
            report = self.report()
        with self._mutex:
            edges = {src: dict(dst) for src, dst in self._edges.items()}
            labels = dict(self._labels)
        nodes = set(edges)
        for successors in edges.values():
            nodes.update(successors)
        ids = {node: f"n{i}"
               for i, node in enumerate(sorted(nodes, key=repr))}
        in_cycle = {node for component in report.components
                    for node in component}
        members = [set(component) for component in report.components]
        return {
            "summary": {"nodes": len(nodes),
                        "edges": sum(len(s) for s in edges.values()),
                        "cycles": len(report.cycles),
                        "upgrades": len(report.upgrades),
                        "rank_faults": len(report.rank_faults)},
            "nodes": [{"id": ids[node],
                       "label": labels.get(node, repr(node)),
                       "in_cycle": node in in_cycle}
                      for node in sorted(nodes, key=repr)],
            "edges": [{"src": ids[src], "dst": ids[dst], "site": site,
                       "in_cycle": any(src in m and dst in m
                                       for m in members)}
                      for src, successors in sorted(edges.items(), key=repr)
                      for dst, site in sorted(successors.items(), key=repr)],
            "cycles": [[ids[node] for node in component]
                       for component in report.components],
            "upgrades": [{"label": u.label, "held": u.held_mode,
                          "wanted": u.wanted_mode, "site": u.site}
                         for u in report.upgrades],
            "rank_faults": [{"label": f.label, "after": f.after,
                             "site": f.site} for f in report.rank_faults],
        }

    def export_dot(self, report: Optional[WitnessReport] = None) -> str:
        """Graphviz rendering of :meth:`export_graph`; cycle members and
        the edges between them are drawn red and bold."""
        graph = self.export_graph(report)

        def esc(text: str) -> str:
            return str(text).replace("\\", "\\\\").replace('"', '\\"')

        lines = ["digraph lock_order {",
                 "  rankdir=LR;",
                 '  node [shape=box, fontsize=10, fontname="monospace"];']
        for node in graph["nodes"]:
            style = ', color=red, penwidth=2' if node["in_cycle"] else ""
            lines.append(f'  {node["id"]} [label="{esc(node["label"])}"'
                         f'{style}];')
        for edge in graph["edges"]:
            style = (' [color=red, penwidth=2, label="'
                     + esc(edge["site"]) + '"]') if edge["in_cycle"] else ""
            lines.append(f'  {edge["src"]} -> {edge["dst"]}{style};')
        lines.append("}")
        return "\n".join(lines) + "\n"

    def dump(self, directory: str,
             report: Optional[WitnessReport] = None) -> list[str]:
        """Write ``lock-witness.json`` + ``lock-witness.dot`` artifacts."""
        import json
        import os
        os.makedirs(directory, exist_ok=True)
        if report is None:
            report = self.report()
        json_path = os.path.join(directory, "lock-witness.json")
        with open(json_path, "w", encoding="utf-8") as handle:
            json.dump(self.export_graph(report), handle, indent=2)
            handle.write("\n")
        dot_path = os.path.join(directory, "lock-witness.dot")
        with open(dot_path, "w", encoding="utf-8") as handle:
            handle.write(self.export_dot(report))
        return [json_path, dot_path]


def _lookup(tx: Any, table: str, index: str,
            key: tuple) -> Optional[tuple]:
    """The pk of the row of ``table`` whose ``index`` columns equal
    ``key``, as transaction ``tx`` sees it: its own buffered rows first,
    then the committed ones. None if ``tx`` is no engine transaction or
    the row is nowhere."""
    cluster = getattr(tx, "_cluster", None)
    if cluster is None:
        return None
    columns = cluster.schema(table).indexes[index]
    for pk, write in tx._table_writes.get(table, {}).items():
        row = write.row
        if row is not None and tuple(row[c] for c in columns) == key:
            return pk
    try:
        for pid in range(cluster.config.num_partitions):
            pks = cluster._primary_fragment(table, pid).index_lookup(
                index, key, keys=True)
            if pks:
                return pks[0]
    except ClusterDownError:  # a node group is down: the row is unknown
        pass
    return None


def _rank_of(owner: Hashable, key: Any, holds_inode_locks: bool
             ) -> Optional[tuple[int, Any, Any]]:
    """Where row lock ``key`` stands in the lock order, for ``owner``."""
    if not (isinstance(key, tuple) and len(key) == 2
            and isinstance(key[1], tuple)):
        return None
    table, pk = key
    return lock_rank(table, pk, functools.partial(_lookup, owner),
                     holds_inode_locks)


def _cyclic_sccs(edges: dict[Node, dict[Node, str]]) -> list[list[Node]]:
    """Strongly connected components with >1 node (iterative Tarjan)."""
    index_of: dict[Node, int] = {}
    low: dict[Node, int] = {}
    on_stack: set[Node] = set()
    stack: list[Node] = []
    counter = itertools.count()
    out: list[list[Node]] = []

    nodes = set(edges)
    for successors in edges.values():
        nodes.update(successors)

    for root in nodes:
        if root in index_of:
            continue
        work: list[tuple[Node, Any]] = [(root, iter(edges.get(root, ())))]
        index_of[root] = low[root] = next(counter)
        stack.append(root)
        on_stack.add(root)
        while work:
            node, successors = work[-1]
            advanced = False
            for succ in successors:
                if succ not in index_of:
                    index_of[succ] = low[succ] = next(counter)
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(edges.get(succ, ()))))
                    advanced = True
                    break
                if succ in on_stack:
                    low[node] = min(low[node], index_of[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index_of[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                if len(component) > 1:
                    out.append(component)
    return out


# -- installation ----------------------------------------------------------------

_current: Optional[LockWitness] = None


def current_witness() -> Optional[LockWitness]:
    return _current


def install_witness() -> LockWitness:
    """Create a witness and hook it into the lock implementations."""
    global _current
    from repro.ndb.locks import LockManager
    from repro.util.rwlock import ReadWriteLock
    witness = LockWitness()
    LockManager._witness = witness
    ReadWriteLock._witness = witness
    _current = witness
    return witness


def uninstall_witness() -> None:
    global _current
    from repro.ndb.locks import LockManager
    from repro.util.rwlock import ReadWriteLock
    LockManager._witness = None
    ReadWriteLock._witness = None
    _current = None
