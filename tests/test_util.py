"""Unit tests for shared utilities: clocks, stats, the thread RW lock."""

import threading
import time

import pytest

from repro.util.clock import ManualClock, SystemClock
from repro.util.rwlock import ReadWriteLock
from repro.util.stats import LatencyReservoir, ThroughputWindow, percentile


class TestManualClock:
    def test_starts_at_zero(self):
        assert ManualClock().now() == 0.0

    def test_advance(self):
        clock = ManualClock(start=5.0)
        clock.advance(2.5)
        assert clock.now() == 7.5

    def test_set(self):
        clock = ManualClock()
        clock.set(10.0)
        assert clock.now() == 10.0

    def test_backwards_rejected(self):
        clock = ManualClock(start=5.0)
        with pytest.raises(ValueError):
            clock.advance(-1.0)
        with pytest.raises(ValueError):
            clock.set(1.0)

    def test_sleep_blocks_until_advanced(self):
        clock = ManualClock()
        woke = threading.Event()

        def sleeper():
            clock.sleep(5.0)
            woke.set()

        t = threading.Thread(target=sleeper)
        t.start()
        time.sleep(0.05)
        assert not woke.is_set()
        clock.advance(5.0)
        t.join(timeout=2.0)
        assert woke.is_set()


class TestSystemClock:
    def test_monotonic(self):
        clock = SystemClock()
        a = clock.now()
        b = clock.now()
        assert b >= a


class TestPercentile:
    def test_empty_is_nan(self):
        assert percentile([], 50) != percentile([], 50)  # NaN

    def test_single_value(self):
        assert percentile([7.0], 99) == 7.0

    def test_extremes(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 0) == 1.0
        assert percentile(values, 100) == 4.0

    def test_median_interpolates(self):
        assert percentile([1.0, 2.0], 50) == pytest.approx(1.5)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101)


class TestLatencyReservoir:
    def test_exact_stats_beyond_capacity(self):
        reservoir = LatencyReservoir(capacity=10)
        for i in range(1000):
            reservoir.record(float(i))
        assert reservoir.count == 1000
        assert reservoir.max == 999.0
        assert reservoir.mean == pytest.approx(499.5)

    def test_percentile_from_samples(self):
        reservoir = LatencyReservoir(capacity=1000)
        for i in range(100):
            reservoir.record(float(i))
        assert reservoir.percentile(50) == pytest.approx(49.5)
        assert reservoir.percentiles([50, 99])[99] == pytest.approx(98.01)

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            LatencyReservoir(capacity=0)


class TestThroughputWindow:
    def test_series_buckets(self):
        window = ThroughputWindow(width=1.0)
        window.record(0.5)
        window.record(0.9)
        window.record(2.1, n=3)
        assert window.series() == [(0.0, 2.0), (2.0, 3.0)]

    def test_rate_at(self):
        window = ThroughputWindow(width=2.0)
        window.record(1.0, n=4)
        assert window.rate_at(0.5) == 2.0
        assert window.rate_at(3.0) == 0.0


class TestReadWriteLock:
    def test_multiple_readers(self):
        lock = ReadWriteLock()
        lock.acquire_read()
        lock.acquire_read()
        lock.release_read()
        lock.release_read()
        assert lock.read_acquisitions == 2

    def test_writer_excludes_readers(self):
        lock = ReadWriteLock()
        order = []

        def writer():
            with lock.write_locked():
                order.append("w-in")
                time.sleep(0.05)
                order.append("w-out")

        def reader():
            time.sleep(0.01)  # let the writer in first
            with lock.read_locked():
                order.append("r")

        tw = threading.Thread(target=writer)
        tr = threading.Thread(target=reader)
        tw.start()
        tr.start()
        tw.join(timeout=2)
        tr.join(timeout=2)
        assert order == ["w-in", "w-out", "r"]

    def test_waiting_writer_blocks_new_readers(self):
        lock = ReadWriteLock()
        lock.acquire_read()
        got_write = threading.Event()
        got_read = threading.Event()

        def writer():
            lock.acquire_write()
            got_write.set()
            lock.release_write()

        def late_reader():
            time.sleep(0.05)  # ensure the writer is already queued
            lock.acquire_read()
            got_read.set()
            lock.release_read()

        tw = threading.Thread(target=writer)
        tr = threading.Thread(target=late_reader)
        tw.start()
        tr.start()
        time.sleep(0.15)
        assert not got_write.is_set()
        assert not got_read.is_set()  # writer preference holds it back
        lock.release_read()
        tw.join(timeout=2)
        tr.join(timeout=2)
        assert got_write.is_set() and got_read.is_set()

    def test_release_without_hold_raises(self):
        lock = ReadWriteLock()
        with pytest.raises(RuntimeError):
            lock.release_read()
        with pytest.raises(RuntimeError):
            lock.release_write()


class TestErrorsHierarchy:
    def test_retriable_errors_are_filesystem_errors(self):
        from repro import errors

        assert issubclass(errors.SubtreeLockedError, errors.RetriableError)
        assert issubclass(errors.RetriableError, errors.FileSystemError)
        assert issubclass(errors.FileSystemError, errors.ReproError)

    def test_database_errors_are_repro_errors(self):
        from repro import errors

        for exc in (errors.DeadlockError, errors.LockTimeoutError,
                    errors.TransactionAbortedError):
            assert issubclass(exc, errors.TransactionError)
            assert issubclass(exc, errors.DatabaseError)
            assert issubclass(exc, errors.ReproError)
