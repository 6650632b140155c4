"""Leader election and membership using the database as shared memory.

HopsFS has no ZooKeeper: namenodes coordinate through the
``le_descriptors`` table (paper §3, [56]). Each namenode periodically runs
a small transaction that increments its own counter and reads everyone
else's. A namenode whose counter has not changed for
:data:`MISSED_HEARTBEATS` of *our* rounds — or whose row is gone — is
considered dead. The alive namenode with the smallest id is the leader;
the leader evicts dead namenodes' rows and performs cluster housekeeping
(replication monitor, lease recovery, block-report balancing).

A namenode that restarts registers under a **new** id, so ids identify
incarnations (this is what makes lazy subtree-lock reclamation safe).
"""

from __future__ import annotations

from typing import Optional

from repro.dal.driver import DALSession, DALTransaction
from repro.ndb.locks import LockMode

#: our heartbeat rounds a peer's counter may stay still before it is dead
MISSED_HEARTBEATS = 2


class LeaderElection:
    def __init__(self, session: DALSession, nn_id: int,
                 location: str) -> None:
        self._session = session
        self.nn_id = nn_id
        self.location = location
        self._round = 0
        #: nn_id -> (last counter seen, our round when it last changed)
        self._seen: dict[int, tuple[int, int]] = {}
        self._registered = False

    # -- lifecycle ---------------------------------------------------------------

    def register(self) -> None:
        """Insert our descriptor row (done once at namenode startup)."""

        def fn(tx: DALTransaction) -> None:
            tx.write("le_descriptors", {"nn_id": self.nn_id, "counter": 0,
                                        "location": self.location})

        self._session.run(fn, hint=("le_descriptors", {"nn_id": self.nn_id}))
        self._registered = True

    def deregister(self) -> None:
        """Graceful shutdown: remove our row immediately."""

        def fn(tx: DALTransaction) -> None:
            tx.delete("le_descriptors", (self.nn_id,), must_exist=False)

        self._session.run(fn, hint=("le_descriptors", {"nn_id": self.nn_id}))
        self._registered = False

    # -- heartbeat rounds -----------------------------------------------------------

    def heartbeat(self) -> None:
        """One election round: bump our counter, observe everyone else's.

        The paper defines an alive namenode as one that can write to the
        database in bounded time — which is literally what this write is.
        """

        def fn(tx: DALTransaction) -> list[dict]:
            row = tx.read("le_descriptors", (self.nn_id,),
                          lock=LockMode.EXCLUSIVE)
            if row is None:
                # we were evicted (e.g. long GC pause); re-register
                tx.insert("le_descriptors",
                          {"nn_id": self.nn_id, "counter": 1,
                           "location": self.location})
            else:
                tx.update("le_descriptors", (self.nn_id,),
                          {"counter": row["counter"] + 1})
            return tx.full_scan("le_descriptors")

        rows = self._session.run(fn,
                                 hint=("le_descriptors",
                                       {"nn_id": self.nn_id}))
        self._round += 1
        present = set()
        for row in rows:
            present.add(row["nn_id"])
            counter = row["counter"]
            seen = self._seen.get(row["nn_id"])
            if seen is None or seen[0] != counter:
                self._seen[row["nn_id"]] = (counter, self._round)
        for nn_id in list(self._seen):
            if nn_id not in present:
                del self._seen[nn_id]
        if self.is_leader():
            self._evict_dead()

    # -- queries ----------------------------------------------------------------------

    def alive_ids(self) -> set[int]:
        alive = {self.nn_id}
        for nn_id, (_counter, last_change) in self._seen.items():
            if self._round - last_change < MISSED_HEARTBEATS:
                alive.add(nn_id)
        return alive

    def is_dead(self, nn_id: int) -> bool:
        """Positive evidence of death only (conservative default: alive).

        Used for lazy subtree-lock reclamation (§6.2): a lock may be
        stolen only from a namenode we *know* is gone.
        """
        if nn_id == self.nn_id:
            return False
        if self._round == 0:
            return False  # no observations yet
        if nn_id not in self._seen:
            return True  # row missing: evicted or never registered
        _counter, last_change = self._seen[nn_id]
        return self._round - last_change >= MISSED_HEARTBEATS

    def leader_id(self) -> Optional[int]:
        alive = self.alive_ids()
        return min(alive) if alive else None

    def is_leader(self) -> bool:
        return self.leader_id() == self.nn_id

    # -- housekeeping ---------------------------------------------------------------------

    def _evict_dead(self) -> None:
        dead = [nn_id for nn_id in self._seen if self.is_dead(nn_id)]
        if not dead:
            return

        def fn(tx: DALTransaction) -> None:
            for nn_id in sorted(dead):
                tx.delete("le_descriptors", (nn_id,), must_exist=False)

        self._session.run(fn)
        for nn_id in dead:
            self._seen.pop(nn_id, None)
