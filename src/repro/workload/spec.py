"""Operation-mix specifications (paper Table 1 and Table 2).

Table 1 gives the relative frequency of HDFS operations at Spotify and,
for some operations, the share executed on directories. The synthetic
write-intensive workloads of Table 2 keep the same shape but scale the
file-create share up at the expense of reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping


#: Table 1: relative frequency of file system operations (fractions).
TABLE1_MIX: dict[str, float] = {
    "append": 0.0000,
    "content_summary": 0.0001,
    "mkdirs": 0.0002,
    "set_permission": 0.0003,
    "set_replication": 0.0014,
    "set_owner": 0.0032,
    "delete": 0.0075,
    "create": 0.0120,
    "rename": 0.0130,
    "add_block": 0.0150,
    "ls": 0.0900,
    "stat": 0.1700,
    "read": 0.6873,
}

#: Table 1 footnote: fraction of each operation that targets directories.
TABLE1_DIR_FRACTION: dict[str, float] = {
    "set_permission": 0.263,
    "set_owner": 1.0,
    "delete": 0.035,
    "rename": 0.0003,
    "ls": 0.945,
    "stat": 0.233,
}

#: operations that mutate the namespace (used to compute the write share)
WRITE_OPS = frozenset({
    "append", "mkdirs", "set_permission", "set_replication", "set_owner",
    "delete", "create", "rename", "add_block",
})

#: "file writes" in the paper's Table 2 sense: file creation traffic
FILE_WRITE_OPS = frozenset({"create", "add_block"})


@dataclass(frozen=True)
class WorkloadSpec:
    """A normalized operation mix plus workload-shape knobs."""

    name: str
    mix: Mapping[str, float]
    dir_fraction: Mapping[str, float] = field(
        default_factory=lambda: dict(TABLE1_DIR_FRACTION))
    #: all operation paths share this ancestor ('' = uniform namespace)
    hotspot_ancestor: str = ""

    def __post_init__(self) -> None:
        total = sum(self.mix.values())
        if total <= 0:
            raise ValueError("operation mix must have positive weight")
        object.__setattr__(
            self, "mix",
            {op: weight / total for op, weight in self.mix.items()})

    @property
    def write_fraction(self) -> float:
        return sum(w for op, w in self.mix.items() if op in WRITE_OPS)

    @property
    def file_write_fraction(self) -> float:
        return sum(w for op, w in self.mix.items() if op in FILE_WRITE_OPS)

    def ops(self) -> list[str]:
        return sorted(op for op, w in self.mix.items() if w > 0)


SPOTIFY_WORKLOAD = WorkloadSpec(name="spotify", mix=dict(TABLE1_MIX))


def write_intensive_workload(file_write_fraction: float) -> WorkloadSpec:
    """Table 2's synthetic variants.

    Derived from the Spotify mix by scaling the file-write operations
    (create + add block, keeping their relative proportions) to the given
    fraction and absorbing the difference in the read share — exactly how
    §7.2 describes the synthetic workloads.
    """
    if not 0.0 < file_write_fraction < 0.9:
        raise ValueError("file_write_fraction out of range")
    mix = dict(TABLE1_MIX)
    base = sum(mix[op] for op in FILE_WRITE_OPS)
    scale = file_write_fraction / base
    delta = 0.0
    for op in FILE_WRITE_OPS:
        new = mix[op] * scale
        delta += new - mix[op]
        mix[op] = new
    mix["read"] = max(0.01, mix["read"] - delta)
    return WorkloadSpec(
        name=f"synthetic-{file_write_fraction:.0%}-writes", mix=mix)


def hotspot_workload(ancestor: str = "/shared-dir") -> WorkloadSpec:
    """§7.2.1: the Spotify mix with every path under a common ancestor."""
    return replace(SPOTIFY_WORKLOAD, name="spotify-hotspot",
                   hotspot_ancestor=ancestor)
