"""Edit log and quorum journal (paper §2.1).

Every namespace mutation is recorded as an :class:`EditLogEntry` with a
monotonically increasing transaction id. The active namenode writes
entries to a quorum of journal nodes; an entry is *durable* once a
majority has acknowledged it. HDFS releases the namesystem lock before
the quorum flush, so entries that were applied in memory but not yet
acknowledged can be lost on failover — the paper calls this out, and the
failover tests exercise it.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Optional


@dataclass(frozen=True)
class EditLogEntry:
    txid: int
    op: str
    args: tuple[Any, ...]


class JournalNode:
    """One journal node: an append-only, acknowledged entry store."""

    def __init__(self, jn_id: int) -> None:
        self.jn_id = jn_id
        self.alive = True
        self._entries: list[EditLogEntry] = []
        self._mutex = threading.Lock()

    def append(self, entry: EditLogEntry) -> bool:
        if not self.alive:
            return False
        with self._mutex:
            self._entries.append(entry)
        return True

    def entries_from(self, txid: int) -> list[EditLogEntry]:
        if not self.alive:
            return []
        with self._mutex:
            return [e for e in self._entries if e.txid >= txid]

    def truncate_before(self, txid: int) -> None:
        """Discard entries below ``txid`` (after a checkpoint)."""
        with self._mutex:
            self._entries = [e for e in self._entries if e.txid >= txid]

    def kill(self) -> None:
        self.alive = False

    def restart(self) -> None:
        self.alive = True


class QuorumJournalManager:
    """Write-side view of the journal node ensemble."""

    def __init__(self, journal_nodes: list[JournalNode]) -> None:
        if not journal_nodes:
            raise ValueError("need at least one journal node")
        self._journals = journal_nodes
        self._txid = 0
        self._mutex = threading.Lock()
        self.entries_logged = 0
        self.entries_lost_acks = 0

    @property
    def quorum(self) -> int:
        return len(self._journals) // 2 + 1

    def has_quorum(self) -> bool:
        return sum(1 for j in self._journals if j.alive) >= self.quorum

    def next_txid(self) -> int:
        with self._mutex:
            self._txid += 1
            return self._txid

    def log(self, op: str, args: tuple[Any, ...]) -> EditLogEntry:
        """Append an entry and wait for quorum acknowledgement.

        Raises ``IOError`` when the quorum is lost — the namenode must
        then shut down (HDFS semantics, §7.6.2).
        """
        entry = EditLogEntry(txid=self.next_txid(), op=op, args=args)
        acks = sum(1 for journal in self._journals if journal.append(entry))
        self.entries_logged += 1
        if acks < self.quorum:
            self.entries_lost_acks += 1
            raise IOError(
                f"journal quorum lost ({acks}/{len(self._journals)} acks, "
                f"need {self.quorum})")
        return entry

    def read_from(self, txid: int) -> list[EditLogEntry]:
        """Read the authoritative entry stream (majority view).

        An entry counts only if a majority of journal nodes stores it —
        entries written to a minority before a crash are discarded during
        recovery, exactly the lost-ack window the paper describes.
        """
        counts: dict[int, tuple[int, Optional[EditLogEntry]]] = {}
        for journal in self._journals:
            for entry in journal.entries_from(txid):
                count, _ = counts.get(entry.txid, (0, None))
                counts[entry.txid] = (count + 1, entry)
        return [
            entry for _txid, (count, entry) in sorted(counts.items())
            if count >= self.quorum and entry is not None
        ]

    def truncate_before(self, txid: int) -> None:
        for journal in self._journals:
            journal.truncate_before(txid)
