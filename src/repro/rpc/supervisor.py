"""Process supervisor: spawn, watch, respawn and stop ndb-server processes.

The supervisor turns the RPC subsystem into a *deployment*: it launches
``python -m repro serve`` subprocesses (real OS processes, each with its
own GIL), waits for the stdout ``READY`` handshake to learn the port the
server bound, keeps draining the child's output so it can never block on
a full pipe, and tears everything down on exit — SIGTERM first (the
server drains in-flight transactions), SIGKILL if the child ignores it.
Context-manager use guarantees no leaked server processes on test
teardown.

Each server gets a CPU of its own when the host has one to spare
(:func:`pick_cpu`) and keeps it across respawns: the child is forked by
a thread bound to that CPU, so it starts there and every thread it
starts inherits it. The supervising process keeps off the CPUs its
servers hold until it stops them. Otherwise a reply's wakeup runs the
client on the server's CPU while the other sits idle, so the two run one
after the other; apart, the server answers the next frame while the
client works. This is NDB's thread-to-CPU locking for a process
deployment. Affinity belongs to the process, so the CPUs held are
counted across every Supervisor in it (:class:`_Placement`).
"""

from __future__ import annotations

import contextlib
import os
import shlex
import signal
import subprocess
import sys
import threading
import time
from collections import deque
from typing import Any, Iterable, Iterator, Optional

import repro
from repro.errors import CrashLoopError
from repro.rpc.server import READY_PREFIX
from repro.util.retry import RetryPolicy


def _src_root() -> str:
    """Directory that must be on PYTHONPATH for ``-m repro`` to import."""
    return os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = _src_root()
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (f"{src}{os.pathsep}{existing}" if existing
                         else src)
    return env


def _flag_name(key: str) -> str:
    return "--" + key.replace("_", "-")


def _serve_args(options: dict[str, Any]) -> list[str]:
    argv = []
    for key, value in sorted(options.items()):
        if value is None:
            continue
        if isinstance(value, bool):
            if value:
                argv.append(_flag_name(key))
        else:
            argv.extend([_flag_name(key), str(value)])
    return argv


def pick_cpu(allowed: Iterable[int], taken: Iterable[int]) -> Optional[int]:
    """The CPU a new server is pinned to: the highest of ``allowed`` that
    no server holds yet. The lowest is never taken, it stays with the
    parent; None when no CPU is to spare."""
    held = set(taken)
    free = [cpu for cpu in sorted(allowed)[1:] if cpu not in held]
    return free[-1] if free else None


def _allowed_cpus() -> frozenset[int]:
    """CPUs this process may run on; none where affinity is unsupported."""
    if not hasattr(os, "sched_setaffinity"):
        return frozenset()
    return frozenset(os.sched_getaffinity(0))


def _process_on(cpus: frozenset[int]) -> None:
    """Allow every thread of this process ``cpus``; a thread started
    later inherits the mask of the thread that starts it."""
    for tid in os.listdir("/proc/self/task"):
        try:
            os.sched_setaffinity(int(tid), cpus)
        except ProcessLookupError:
            pass  # the thread ended since the listing


@contextlib.contextmanager
def _thread_on(cpus: frozenset[int]) -> Iterator[None]:
    """Run the block with the calling thread allowed ``cpus``, so a child
    forked in it starts with them; no change for an empty set."""
    if not cpus:
        yield
        return
    before = os.sched_getaffinity(0)
    os.sched_setaffinity(0, cpus)
    try:
        yield
    finally:
        os.sched_setaffinity(0, before)


class _Placement:
    """The CPUs the servers of every Supervisor in this process hold, and
    the set the process may run on while none is held."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._held: set[int] = set()  # guarded_by: _lock
        self._cpus: frozenset[int] = frozenset()  # guarded_by: _lock

    def take(self) -> tuple[Optional[int], frozenset[int]]:
        """A CPU for a new server (None: none to spare) and the full set,
        which an unpinned server starts with; this process keeps off the
        CPU from now on."""
        with self._lock:
            if not self._held:
                self._cpus = _allowed_cpus()
            cpu = pick_cpu(self._cpus, self._held)
            if cpu is not None:
                self._held.add(cpu)
                _process_on(self._cpus - self._held)
            return cpu, self._cpus

    def release(self, cpus: Iterable[Optional[int]]) -> None:
        """Give back the CPUs of stopped servers (None: held none)."""
        freed = set(cpus) - {None}
        if not freed:
            return
        with self._lock:
            self._held -= freed
            _process_on(self._cpus - self._held)


_PLACEMENT = _Placement()


class ServerHandle:
    """One supervised ndb-server process."""

    #: seconds a spawn may take to report READY
    READY_TIMEOUT = 15.0
    #: lines of the child's output kept for error messages
    OUTPUT_KEEP = 200
    #: a respawned server dying again within this many seconds of its
    #: spawn counts as a *rapid* death (crash-loop evidence)
    CRASH_LOOP_WINDOW = 5.0
    #: rapid deaths tolerated before :class:`CrashLoopError`
    CRASH_LOOP_LIMIT = 5
    #: the shared jittered policy paces respawns: the first respawn
    #: after a healthy run is immediate, repeated rapid deaths back off
    #: exponentially from 0.1 s up to 5 s instead of hot-spinning the
    #: fork loop
    RESPAWN_POLICY = RetryPolicy(base_delay=0.1, max_delay=5.0)

    def __init__(self, name: str, options: dict[str, Any],
                 cpu: Optional[int] = None,
                 start_cpus: frozenset[int] = frozenset()) -> None:
        self.name = name
        self.options = dict(options)
        #: the CPU every spawn of this server is pinned to (None: unpinned)
        self.cpu = cpu
        #: the CPUs the child starts with (empty: the spawning thread's)
        self._start_cpus = start_cpus
        self.host = ""
        self.port = 0
        self.unix_path: Optional[str] = None
        #: HTTP metrics endpoint port (0 unless spawned with metrics_port=)
        self.metrics_port = 0
        self.pid = 0
        self.restarts = 0
        self._rapid_respawns = 0  # guarded_by: GIL
        self._spawned_at = 0.0    # guarded_by: GIL
        self._output: deque[str] = deque(maxlen=self.OUTPUT_KEEP)  # guarded_by: GIL
        self._ready = threading.Event()
        self._process: Optional[subprocess.Popen] = None
        self._drainer: Optional[threading.Thread] = None
        self._spawn()

    # -- lifecycle -------------------------------------------------------------

    def _spawn(self) -> None:
        argv = [sys.executable, "-m", "repro", "serve",
                "--name", self.name, *_serve_args(self.options)]
        self._ready = threading.Event()
        # the child inherits the forking thread's mask, from its first
        # instruction; neither a preexec_fn (unsafe in a threaded parent)
        # nor a sched_setaffinity(pid) after Popen (races its threads)
        with _thread_on(frozenset({self.cpu}) if self.cpu is not None
                        else self._start_cpus):
            self._process = subprocess.Popen(
                argv, env=_child_env(),
                stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                text=True, bufsize=1)
        self.pid = self._process.pid
        self._drainer = threading.Thread(
            target=self._drain_output, args=(self._process,),
            name=f"supervise-{self.name}", daemon=True)
        self._drainer.start()
        self._spawned_at = time.monotonic()
        if not self._ready.wait(timeout=self.READY_TIMEOUT):
            self.kill()
            tail = "\n".join(self.output_tail())
            raise RuntimeError(
                f"server {self.name!r} never reported READY "
                f"(cmd: {shlex.join(argv)})\n{tail}")

    def _drain_output(self, process: subprocess.Popen) -> None:
        # one drainer per child: keeps the pipe empty and parses READY
        for line in process.stdout:
            line = line.rstrip("\n")
            self._output.append(line)
            if line.startswith(READY_PREFIX):
                fields = dict(part.split("=", 1) for part
                              in shlex.split(line[len(READY_PREFIX):]))
                self.host = fields.get("host", "127.0.0.1")
                self.port = int(fields.get("port", 0))
                self.unix_path = fields.get("unix")
                self.metrics_port = int(fields.get("metrics", 0))
                self._ready.set()
        process.stdout.close()

    @property
    def alive(self) -> bool:
        return self._process is not None and self._process.poll() is None

    @property
    def returncode(self) -> Optional[int]:
        return self._process.poll() if self._process is not None else None

    def output_tail(self, n: int = 20) -> list[str]:
        return list(self._output)[-n:]

    def ensure_alive(self) -> bool:
        """Respawn the process if it died. Returns True if a respawn ran.

        The first respawn after a healthy run is immediate; a server
        that keeps dying within :attr:`CRASH_LOOP_WINDOW` seconds of its
        spawn is respawned with exponential jittered backoff, and after
        :attr:`CRASH_LOOP_LIMIT` rapid deaths the supervisor raises
        :class:`~repro.errors.CrashLoopError` instead of spinning.
        """
        if self.alive:
            return False
        uptime = time.monotonic() - self._spawned_at
        if uptime >= self.CRASH_LOOP_WINDOW:
            self._rapid_respawns = 0  # it ran healthy for a while; re-arm
        if self._rapid_respawns >= self.CRASH_LOOP_LIMIT:
            tail = "\n".join(self.output_tail(5))
            raise CrashLoopError(
                f"server {self.name!r} died {self._rapid_respawns} times "
                f"within {self.CRASH_LOOP_WINDOW:.1f}s of spawning "
                f"(exit={self.returncode})\n{tail}")
        delay = self.RESPAWN_POLICY.backoff(self._rapid_respawns)
        if delay > 0:
            time.sleep(delay)
        self._rapid_respawns += 1
        self.restarts += 1
        self._spawn()
        return True

    def reset_crash_loop(self) -> None:
        """Re-arm a handle that tripped the crash-loop cap (operator
        intervention after fixing the underlying cause)."""
        self._rapid_respawns = 0

    def stop(self, timeout: float = 10.0) -> Optional[int]:
        """Graceful stop: SIGTERM, wait, escalate to SIGKILL. Returns the
        exit code (negative signal number if killed)."""
        process = self._process
        if process is None:
            return None
        if process.poll() is None:
            try:
                process.send_signal(signal.SIGTERM)
            except OSError:
                pass
            try:
                process.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait(timeout=5.0)
        if self._drainer is not None:
            self._drainer.join(timeout=2.0)
        return process.returncode

    def kill(self) -> None:
        """Immediate SIGKILL (crash injection / last resort)."""
        process = self._process
        if process is not None and process.poll() is None:
            process.kill()
            process.wait(timeout=5.0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "up" if self.alive else f"exit={self.returncode}"
        return (f"ServerHandle({self.name!r}, {self.host}:{self.port}, "
                f"pid={self.pid}, {state})")


class Supervisor:
    """Spawns and owns a set of server processes; context-managed."""

    def __init__(self) -> None:
        self.servers: dict[str, ServerHandle] = {}  # guarded_by: GIL

    def spawn(self, name: str, **options: Any) -> ServerHandle:
        """Launch ``python -m repro serve`` with kwargs as CLI flags.

        Keyword names map to flags (``network_delay=0.003`` becomes
        ``--network-delay 0.003``); booleans become bare flags. The
        server is pinned to the CPU :func:`pick_cpu` gives it, if any,
        and this process then keeps off that CPU.
        """
        if name in self.servers:
            raise ValueError(f"server {name!r} already supervised")
        cpu, cpus = _PLACEMENT.take()
        try:
            handle = ServerHandle(name, options, cpu=cpu, start_cpus=cpus)
        except BaseException:
            _PLACEMENT.release([cpu])
            raise
        self.servers[name] = handle
        return handle

    def ensure_all_alive(self) -> list[str]:
        """Respawn any dead server; returns the names respawned."""
        return [name for name, handle in self.servers.items()
                if handle.ensure_alive()]

    def stop_all(self, timeout: float = 10.0) -> dict[str, Optional[int]]:
        codes = {}
        for name, handle in self.servers.items():
            codes[name] = handle.stop(timeout=timeout)
        _PLACEMENT.release(h.cpu for h in self.servers.values())
        self.servers.clear()
        return codes

    def __enter__(self) -> "Supervisor":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop_all()
