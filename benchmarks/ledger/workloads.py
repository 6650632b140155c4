"""Workload definitions and the model-tracking op-stream generator.

An op is the tuple ``(kind, path, arg, expect)``: what the program is
asked to do and what a correct program returns. Streams are generated
against a live :class:`Namespace` model of the client's own subtree, so
every generated op must succeed; the program only ever sees the ops.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Optional

Op = tuple  # (kind, path, arg, expect)

#: ops whose latency is reported in the read class; the rest are writes
READ_KINDS = frozenset({"stat", "read", "ls", "content_summary"})

# Paper Table 1, without append (0 %) and add_block (a data-path call the
# DFSClient does not expose on its own); the runner normalises the rest.
SPOTIFY_MIX = {
    "read": 68.73, "stat": 17.00, "ls": 9.00, "rename": 1.30,
    "create": 1.20, "delete": 0.75, "set_owner": 0.32,
    "set_replication": 0.14, "set_permission": 0.03, "mkdirs": 0.02,
    "content_summary": 0.01,
}
# Table 1 footnote: share of each op that targets a directory. Directory
# targets of mutating ops are leaf directories (a handful of files), so
# the subtree protocol runs at its everyday size, not at Table-4 size.
SPOTIFY_DIR_SHARE = {
    "stat": 0.233, "ls": 0.945, "delete": 0.035, "set_permission": 0.263,
    "set_owner": 1.0,
}
MUTATE_MIX = {
    "create": 35.0, "delete": 25.0, "rename": 20.0, "set_permission": 8.0,
    "set_replication": 5.0, "mkdirs": 2.0, "stat": 5.0,
}
# 2 % mkdirs against 25 % deletes: 8 % of deletes take a whole leaf
# directory, which keeps the directory count stationary; the file count
# then settles where a deleted directory holds (35 - 23) / 2 = 6 files.
MUTATE_DIR_SHARE = {"delete": 0.08}


@dataclass(frozen=True)
class Workload:
    name: str
    deploy: str                 # "embedded" | "process"
    clients: int
    #: op mix (weights) — empty for the subtree plan
    mix: Mapping[str, float] = field(default_factory=dict)
    dir_share: Mapping[str, float] = field(default_factory=dict)
    #: namespace size summed over clients
    dirs: int = 0
    files_per_leaf: int = 0
    hot_fraction: float = 0.0
    hot_share: float = 0.0
    #: sizes the fixed op count of a run: this many ops per second of
    #: ``--seconds``, a little under what the reference box sustains, so
    #: that a run there measures for about ``--seconds``
    nominal_ops_per_s: float = 1.0
    #: ops that are only meaningful together (one subtree = 5 ops)
    unit: int = 1
    #: inodes one op targets (the divisor of subtree.txs_per_kinode)
    inodes_per_op: int = 1
    #: percentile reported as read_tail_us / write_tail_us: the highest of
    #: p90/p95/p99 that leaves >= 10 samples beyond it in a traced run's
    #: untraced ops (None: not even p90 does), lowered to p90 for spotify
    #: writes, where 6 % are directory chowns (subtree operations) and p95
    #: would sit on the edge between the two
    tails: tuple[Optional[int], Optional[int]] = (99, 99)


# Why each workload exists is in BENCHMARK.json (``why``) and the README.
WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="spotify_embedded", deploy="embedded", clients=1,
        mix=SPOTIFY_MIX, dir_share=SPOTIFY_DIR_SHARE,
        dirs=125, files_per_leaf=20, hot_fraction=0.03, hot_share=0.80,
        nominal_ops_per_s=4000.0, tails=(99, 90)),
    Workload(
        name="spotify_process", deploy="process", clients=2,
        mix=SPOTIFY_MIX, dir_share=SPOTIFY_DIR_SHARE,
        dirs=125, files_per_leaf=20, hot_fraction=0.03, hot_share=0.80,
        nominal_ops_per_s=800.0, tails=(99, 90)),
    Workload(
        name="mutate_embedded", deploy="embedded", clients=1,
        mix=MUTATE_MIX, dir_share=MUTATE_DIR_SHARE,
        dirs=320, files_per_leaf=6,
        nominal_ops_per_s=1600.0, tails=(95, 99)),
    Workload(
        name="subtree_embedded", deploy="embedded", clients=1,
        nominal_ops_per_s=10.0, unit=5, inodes_per_op=1009,
        tails=(None, None)),
)}


# -- the model -----------------------------------------------------------------


def parent_of(path: str) -> str:
    head = path.rsplit("/", 1)[0]
    return head or "/"


class Namespace:
    """A path tree with the attributes set_* ops have changed.

    The generator applies every op it emits to one of these; after the
    run a second one, replayed from the ops that were actually executed,
    is what the file system is compared against.
    """

    def __init__(self) -> None:
        #: directory path -> {child name: is_dir}, insertion ordered
        self.kids: dict[str, dict[str, bool]] = {"/": {}}
        #: path -> attributes changed by set_* ops
        self.attrs: dict[str, dict] = {}

    def _link(self, path: str, is_dir: bool) -> None:
        parent, name = path.rsplit("/", 1)
        self.kids[parent or "/"][name] = is_dir
        if is_dir:
            self.kids[path] = {}

    def _descendants(self, path: str) -> Iterator[tuple[str, bool]]:
        for name, is_dir in self.kids.get(path, {}).items():
            child = f"{path}/{name}"
            yield child, is_dir
            if is_dir:
                yield from self._descendants(child)

    def walk(self, root: str) -> dict[str, bool]:
        """Every path under ``root`` (excluded) -> is_dir."""
        return dict(self._descendants(root))

    def apply(self, op: Op) -> None:
        kind, path, arg, _expect = op
        if kind == "create":
            self._link(path, False)
        elif kind == "mkdirs":
            missing = []
            while path not in self.kids:
                missing.append(path)
                path = parent_of(path)
            for made in reversed(missing):
                self._link(made, True)
        elif kind == "delete":
            for child, is_dir in list(self._descendants(path)):
                self.attrs.pop(child, None)
                if is_dir:
                    del self.kids[child]
            self.attrs.pop(path, None)
            self.kids.pop(path, None)
            del self.kids[parent_of(path)][path.rsplit("/", 1)[1]]
        elif kind == "rename":
            is_dir = self.kids[parent_of(path)].pop(path.rsplit("/", 1)[1])
            moved = [(path, is_dir), *self._descendants(path)] if is_dir \
                else [(path, False)]
            for old, old_is_dir in moved:
                new = arg + old[len(path):]
                if old_is_dir:
                    self.kids[new] = self.kids.pop(old)
                if old in self.attrs:
                    self.attrs[new] = self.attrs.pop(old)
            parent, name = arg.rsplit("/", 1)
            self.kids[parent or "/"][name] = is_dir
        elif kind == "set_permission":
            self.attrs.setdefault(path, {})["perm"] = arg
        elif kind == "set_owner":
            self.attrs.setdefault(path, {}).update(owner=arg[0], group=arg[1])
        elif kind == "set_replication":
            self.attrs.setdefault(path, {})["replication"] = arg


# -- stream workloads ----------------------------------------------------------


def _shape(root: str, n_dirs: int) -> tuple[list[str], list[str]]:
    """A fixed tree of ``n_dirs`` directories under ``root``.

    ``lanes`` chains of four nested internal directories; leaf
    directories hang off the root and off every chain level in turn, so
    files sit at depths 3 to 7 in the same proportions for every seed.
    """
    lanes = max(1, n_dirs // 20)
    internal = [root]
    chains = []
    for lane in range(lanes):
        chain = [root]
        for level in range(4):
            chain.append(f"{chain[-1]}/i{lane}.{level}")
        chains.append(chain)
        internal.extend(chain[1:])
    leaves = []
    for j in range(n_dirs - len(internal)):
        chain = chains[j % lanes]
        leaves.append(f"{chain[(j // lanes) % 5]}/d{j}")
    return internal, leaves


class StreamGenerator:
    """Seeded op stream over one client's subtree, tracking a model."""

    def __init__(self, workload: Workload, root: str, n_dirs: int,
                 seed: str) -> None:
        self.workload = workload
        self.rng = random.Random(seed)
        self.ns = Namespace()
        self.seq = 0
        self.internal, self.leaves = _shape(root, n_dirs)
        self.leaf_pos = {leaf: i for i, leaf in enumerate(self.leaves)}
        self.setup_ops: list[Op] = []
        for path in self.internal + self.leaves:
            self._emit_setup(("mkdirs", path, None, True))
        per_leaf = workload.files_per_leaf
        by_leaf = {leaf: [f"{leaf}/f{k}" for k in range(per_leaf)]
                   for leaf in self.leaves}
        for paths in by_leaf.values():
            for path in paths:
                self._emit_setup(("create", path, None, None))
        # hot files first, one from each of n_hot leaves, so that the hot
        # set spans the depth range the same way for every seed
        total = per_leaf * len(self.leaves)
        self.n_hot = min(len(self.leaves),
                         max(1, int(total * workload.hot_fraction)))
        order = list(self.leaves)
        self.rng.shuffle(order)
        hot = [self.rng.choice(by_leaf[leaf]) for leaf in order[:self.n_hot]]
        hot_set = set(hot)
        self.files = hot + [p for paths in by_leaf.values() for p in paths
                            if p not in hot_set]
        self.file_pos = {path: i for i, path in enumerate(self.files)}
        kinds = sorted(workload.mix)
        self._kinds = kinds
        self._weights = [workload.mix[k] for k in kinds]

    def _emit_setup(self, op: Op) -> None:
        self.ns.apply(op)
        self.setup_ops.append(op)

    # -- sampling --------------------------------------------------------------

    def _hot_file(self) -> str:
        rng, w = self.rng, self.workload
        if w.hot_share and rng.random() < w.hot_share:
            return self.files[rng.randrange(self.n_hot)]
        return self.files[rng.randrange(self.n_hot, len(self.files))]

    def _any_file(self) -> str:
        return self.files[self.rng.randrange(len(self.files))]

    def _any_dir(self) -> str:
        n_int = len(self.internal)
        i = self.rng.randrange(n_int + len(self.leaves))
        return self.internal[i] if i < n_int else self.leaves[i - n_int]

    def _on_dir(self, kind: str) -> bool:
        share = self.workload.dir_share.get(kind, 0.0)
        return bool(share) and self.rng.random() < share

    @staticmethod
    def _swap_remove(items: list[str], positions: dict[str, int],
                     item: str) -> None:
        """O(1) removal: the last item takes the slot (for files that
        keeps the hot set, the first ``n_hot`` slots, at its size)."""
        pos = positions.pop(item)
        last = items.pop()
        if last != item:
            items[pos] = last
            positions[last] = pos

    # -- the stream ------------------------------------------------------------

    def next_op(self) -> Op:
        rng = self.rng
        kind = rng.choices(self._kinds, weights=self._weights)[0]
        self.seq += 1
        seq = self.seq
        if kind == "read":
            op = (kind, self._hot_file(), None, None)
        elif kind == "stat":
            if self._on_dir(kind):
                op = (kind, self._any_dir(), None, True)
            else:
                op = (kind, self._hot_file(), None, False)
        elif kind == "ls":
            if self._on_dir(kind):
                path = self._any_dir()
                op = (kind, path, None, len(self.ns.kids[path]))
            else:
                op = (kind, self._hot_file(), None, 1)
        elif kind == "content_summary":
            leaf = rng.choice(self.leaves)
            op = (kind, leaf, None, len(self.ns.kids[leaf]))
        elif kind == "create":
            path = f"{rng.choice(self.leaves)}/n{seq}"
            op = (kind, path, None, None)
            self.file_pos[path] = len(self.files)
            self.files.append(path)
        elif kind == "mkdirs":
            path = f"{rng.choice(self.internal)}/m{seq}"
            op = (kind, path, None, True)
            self.leaf_pos[path] = len(self.leaves)
            self.leaves.append(path)
        elif kind == "delete":
            if self._on_dir(kind) and len(self.leaves) > 2:
                path = rng.choice(self.leaves)
                for name in self.ns.kids[path]:
                    self._swap_remove(self.files, self.file_pos,
                                      f"{path}/{name}")
                self._swap_remove(self.leaves, self.leaf_pos, path)
            else:
                path = self._any_file()
                self._swap_remove(self.files, self.file_pos, path)
            op = (kind, path, None, True)
        elif kind == "rename":
            src = self._any_file()
            dst = f"{rng.choice(self.leaves)}/r{seq}"
            op = (kind, src, dst, True)
            pos = self.file_pos.pop(src)
            self.files[pos] = dst
            self.file_pos[dst] = pos
        elif kind == "set_permission":
            path = (rng.choice(self.leaves) if self._on_dir(kind)
                    else self._any_file())
            op = (kind, path, (0o640, 0o600, 0o644, 0o660)[seq % 4], None)
        elif kind == "set_owner":
            path = (rng.choice(self.leaves) if self._on_dir(kind)
                    else self._any_file())
            op = (kind, path, (f"u{seq % 7}", f"g{seq % 3}"), None)
        elif kind == "set_replication":
            op = (kind, self._any_file(), 2 + seq % 2, True)
        else:
            raise ValueError(f"no generator for op kind {kind!r}")
        self.ns.apply(op)
        return op

    def take(self, n: int) -> list[Op]:
        return [self.next_op() for _ in range(n)]


# -- the subtree plan ----------------------------------------------------------

TREE_DIRS, TREE_PARENTS, TREE_FILES_PER_DIR = 40, 8, 24
TREE_FILES = TREE_DIRS * TREE_FILES_PER_DIR
TREE_INODES = 1 + TREE_PARENTS + TREE_DIRS + TREE_FILES  # 1009


def tree_setup_ops(root: str, k: int) -> list[Op]:
    """Build tree ``k``: a root, 8 parents, 40 directories of 24 files."""
    ops: list[Op] = []
    for d in range(TREE_DIRS):
        directory = f"{root}/t{k}/p{d % TREE_PARENTS}/d{d}"
        ops.append(("mkdirs", directory, None, True))
        ops.extend(("create", f"{directory}/f{f}", None, None)
                   for f in range(TREE_FILES_PER_DIR))
    return ops


def tree_ops(root: str, k: int, seed: int) -> list[Op]:
    """The five subtree ops tree ``k`` receives, in order."""
    tree, moved = f"{root}/t{k}", f"{root}/u{k}"
    return [
        ("content_summary", tree, None, TREE_FILES),
        ("set_owner", tree, (f"o{seed % 97}", f"g{k}"), "verify"),
        ("set_permission", tree, 0o700 + (seed + k) % 64, "verify"),
        ("rename", tree, moved, True),
        ("delete", moved, None, True),
    ]


def client_root(i: int) -> str:
    return f"/c{i}"


def rep_seed(seed: int, workload: str, rep: int, client: int) -> str:
    return f"ledger/{seed}/{workload}/{rep}/{client}"


def planned_units(workload: Workload, seconds: float) -> int:
    """Units (ops, or whole trees) per client for ``seconds`` of budget."""
    ops = workload.nominal_ops_per_s * seconds
    return max(1, round(ops / workload.unit / workload.clients))


def make_generator(workload: Workload, seed: int, rep: int, client: int,
                   scale: float = 1.0) -> Optional[StreamGenerator]:
    if not workload.mix:
        return None
    n_dirs = max(8, int(workload.dirs * scale) // workload.clients)
    return StreamGenerator(workload, client_root(client), n_dirs,
                           rep_seed(seed, workload.name, rep, client))
