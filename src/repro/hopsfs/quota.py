"""Quota accounting (asynchronous, HopsFS style).

Synchronously updating usage counters on every ancestor directory would
X-lock the top of the namespace on every create — exactly the hotspot the
partitioning scheme removes. HopsFS instead applies quota *deltas*
asynchronously: the mutating transaction enforces quotas against the
current (slightly stale) usage and appends delta rows to the
``quota_updates`` table; the leader namenode's quota manager folds deltas
into the ``quotas`` table in the background.

A mutation reads the quota rows of only those ancestors whose inode row
carries the ``SUB_QUOTA`` bit of ``sub_tables`` — the rows its resolve
already read — and nothing at all when none does. That misses no quota:

* ``set_quota`` sets the bit in its phase 3, in the same transaction
  that writes the quota row, under the subtree root's X lock and after
  the phase-2 quiesce;
* a mutation below that root either resolved before phase 1, so the
  quiesce waits for its locks and it commits before any quota exists,
  or it resolves after phase 3 committed, so its batched read returns
  the flagged row;
* the bits come from rows read in the mutation's own transaction,
  never from the hint cache, so every namenode sees a bit set by any
  other;
* a quota row whose inode has no bit is fsck's ``unflagged-sub-row``.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Optional

from repro.errors import QuotaExceededError
from repro.dal.driver import DALSession, DALTransaction
from repro.ndb.locks import LockMode

_update_ids = itertools.count(1)


def set_quota_row(tx: DALTransaction, inode_id: int,
                  ns_quota: Optional[int], ds_quota: Optional[int],
                  ns_used: int, ds_used: int) -> None:
    """Create or replace the quota row of a directory."""
    row = tx.read("quotas", (inode_id,), lock=LockMode.EXCLUSIVE)
    if ns_quota is None and ds_quota is None:
        if row is not None:
            tx.delete("quotas", (inode_id,))
        return
    new = {"inode_id": inode_id, "ns_quota": ns_quota, "ds_quota": ds_quota,
           "ns_used": ns_used, "ds_used": ds_used}
    if row is None:
        tx.insert("quotas", new)
    else:
        tx.update("quotas", (inode_id,), {"ns_quota": ns_quota,
                                          "ds_quota": ds_quota})


def enforce_and_queue(tx: DALTransaction, ancestor_ids: Iterable[int],
                      ns_delta: int, ds_delta: int, nn_id: int) -> None:
    """Check the quotas of the ancestors that can have one and queue
    usage deltas.

    ``ancestor_ids`` are the ancestors whose ``SUB_QUOTA`` bit is set
    (see the module docstring): one batched PK read covers them, and no
    id is no read. Raises :class:`QuotaExceededError` if any quota would
    be exceeded by a positive delta.
    """
    ids = list(ancestor_ids)
    if not ids or (ns_delta == 0 and ds_delta == 0):
        return
    # rt: cost(0, reason=warm path under no quota: the ancestors' sub_tables bits ask for no quotas read)
    rows = tx.read_batch("quotas", [(i,) for i in ids])
    for inode_id, row in zip(ids, rows, strict=True):
        if row is None:
            continue
        if ns_delta > 0 and row["ns_quota"] is not None:
            if row["ns_used"] + ns_delta > row["ns_quota"]:
                raise QuotaExceededError(
                    f"namespace quota of inode {inode_id} exceeded "
                    f"({row['ns_used']}+{ns_delta} > {row['ns_quota']})"
                )
        if ds_delta > 0 and row["ds_quota"] is not None:
            if row["ds_used"] + ds_delta > row["ds_quota"]:
                raise QuotaExceededError(
                    f"diskspace quota of inode {inode_id} exceeded "
                    f"({row['ds_used']}+{ds_delta} > {row['ds_quota']})"
                )
        tx.insert("quota_updates", {
            "update_id": (nn_id << 40) + next(_update_ids),
            "inode_id": inode_id,
            "ns_delta": ns_delta,
            "ds_delta": ds_delta,
        })


class QuotaManager:
    """Leader housekeeping: fold queued deltas into the quota rows."""

    def __init__(self, session: DALSession) -> None:
        self._session = session
        self.updates_applied = 0

    def apply_pending(self, limit: int = 10_000) -> int:
        """Apply up to ``limit`` queued deltas; returns how many."""

        def fn(tx: DALTransaction) -> int:
            # the scan itself takes no locks; aggregate first, then lock
            # quota rows BEFORE the update rows — writers queue updates
            # while holding quota reads, so quotas come first in the
            # global acquisition order (§3.4). Both passes sort by pk.
            updates = sorted(tx.full_scan("quota_updates"),
                             key=lambda u: u["update_id"])[:limit]
            by_inode: dict[int, tuple[int, int]] = {}
            for update in updates:
                ns, ds = by_inode.get(update["inode_id"], (0, 0))
                by_inode[update["inode_id"]] = (ns + update["ns_delta"],
                                                ds + update["ds_delta"])
            for inode_id, (ns_delta, ds_delta) in sorted(by_inode.items()):
                row = tx.read("quotas", (inode_id,), lock=LockMode.EXCLUSIVE)
                if row is None:
                    continue  # quota removed meanwhile; drop the deltas
                tx.update("quotas", (inode_id,),
                          {"ns_used": row["ns_used"] + ns_delta,
                           "ds_used": row["ds_used"] + ds_delta})
            applied = 0
            for update in updates:
                tx.delete("quota_updates", (update["update_id"],))
                applied += 1
            return applied

        applied = self._session.run(fn)
        self.updates_applied += applied
        return applied
