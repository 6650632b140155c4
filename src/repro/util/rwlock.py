"""A readers-writer lock for threads, with writer preference.

Models the HDFS namesystem's global ``FSNamesystem`` lock: any number of
readers, one writer, and queued writers block new readers (otherwise a
read-heavy workload starves writers forever). Used by the HDFS baseline's
in-heap namesystem and by the NDB cluster's structure gate; the DES twin
lives in :class:`repro.sim.RWLock`.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Optional

from repro.util.park import park


class ReadWriteLock:
    #: optionally installed repro.analysis.lockwitness.LockWitness; class
    #: level so the witness sees every instance without monkeypatching
    _witness = None

    def __init__(self, name: Optional[str] = None) -> None:
        self.name = name
        self._cond = threading.Condition()
        self._readers = 0          # guarded_by: _cond
        self._writer = False       # guarded_by: _cond
        self._writers_waiting = 0  # guarded_by: _cond
        # monitoring
        self.read_acquisitions = 0   # guarded_by: _cond
        self.write_acquisitions = 0  # guarded_by: _cond

    def acquire_read(self) -> None:
        witness = ReadWriteLock._witness
        if witness is not None:
            witness.rw_requested(self, "read")
        with self._cond:
            while self._writer or self._writers_waiting:
                park()
                self._cond.wait()
            self._readers += 1
            self.read_acquisitions += 1
        if witness is not None:
            witness.rw_granted(self, "read")

    def release_read(self) -> None:
        with self._cond:
            if self._readers <= 0:
                raise RuntimeError("release_read without holder")
            self._readers -= 1
            if self._readers == 0:
                self._cond.notify_all()
        witness = ReadWriteLock._witness
        if witness is not None:
            witness.rw_released(self, "read")

    def acquire_write(self) -> None:
        witness = ReadWriteLock._witness
        if witness is not None:
            witness.rw_requested(self, "write")
        with self._cond:
            self._writers_waiting += 1
            try:
                while self._writer or self._readers:
                    park()
                    self._cond.wait()
            finally:
                self._writers_waiting -= 1
            self._writer = True
            self.write_acquisitions += 1
        if witness is not None:
            witness.rw_granted(self, "write")

    def release_write(self) -> None:
        with self._cond:
            if not self._writer:
                raise RuntimeError("release_write without holder")
            self._writer = False
            self._cond.notify_all()
        witness = ReadWriteLock._witness
        if witness is not None:
            witness.rw_released(self, "write")

    @contextmanager
    def read_locked(self):
        self.acquire_read()
        try:
            yield
        finally:
            self.release_read()

    @contextmanager
    def write_locked(self):
        self.acquire_write()
        try:
            yield
        finally:
            self.release_write()
