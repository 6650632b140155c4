"""Process supervisor: spawn, watch, respawn and stop ndb-server processes.

The supervisor turns the RPC subsystem into a *deployment*: it launches
``python -m repro serve`` subprocesses (real OS processes, each with its
own GIL), waits for the stdout ``READY`` handshake to learn the port the
server bound, keeps draining the child's output so it can never block on
a full pipe, and tears everything down on exit — SIGTERM first (the
server drains in-flight transactions), SIGKILL if the child ignores it.
Context-manager use guarantees no leaked server processes on test
teardown.
"""

from __future__ import annotations

import os
import shlex
import signal
import subprocess
import sys
import threading
import time
from collections import deque
from typing import Any, Optional

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


class ServerHandle:
    """One supervised ndb-server process."""

    def __init__(self, name: str, options: dict[str, Any],
                 ready_timeout: float = 15.0,
                 output_keep: int = 200,
                 respawn_backoff: float = 0.1,
                 respawn_backoff_max: float = 5.0,
                 crash_loop_window: float = 5.0,
                 crash_loop_limit: int = 5) -> None:
        self.name = name
        self.options = dict(options)
        self.ready_timeout = ready_timeout
        self.host = ""
        self.port = 0
        self.unix_path: Optional[str] = None
        #: HTTP metrics endpoint port (0 unless spawned with metrics_port=)
        self.metrics_port = 0
        self.pid = 0
        self.restarts = 0
        #: a respawned server dying again within this many seconds of
        #: its spawn counts as a *rapid* death (crash-loop evidence)
        self.crash_loop_window = crash_loop_window
        #: rapid deaths tolerated before :class:`CrashLoopError`
        self.crash_loop_limit = crash_loop_limit
        #: the shared jittered policy paces respawns: the first respawn
        #: after a healthy run is immediate, repeated rapid deaths back
        #: off exponentially instead of hot-spinning the fork loop
        self.respawn_policy = RetryPolicy(
            max_attempts=max(1, crash_loop_limit),
            base_delay=respawn_backoff, max_delay=respawn_backoff_max,
            jitter=True)
        self._rapid_respawns = 0  # guarded_by: GIL
        self._spawned_at = 0.0    # guarded_by: GIL
        self._output: deque[str] = deque(maxlen=output_keep)  # guarded_by: GIL
        self._ready = threading.Event()
        self._process: Optional[subprocess.Popen] = None
        self._drainer: Optional[threading.Thread] = None
        self._spawn()

    # -- lifecycle -------------------------------------------------------------

    def _spawn(self) -> None:
        argv = [sys.executable, "-m", "repro", "serve",
                "--name", self.name, *_serve_args(self.options)]
        self._ready = threading.Event()
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
        if not self._ready.wait(timeout=self.ready_timeout):
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
                fields = dict(part.split("=", 1)
                              for part in line[len(READY_PREFIX):].split())
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
        that keeps dying within :attr:`crash_loop_window` seconds of its
        spawn is respawned with exponential jittered backoff, and after
        :attr:`crash_loop_limit` rapid deaths the supervisor raises
        :class:`~repro.errors.CrashLoopError` instead of spinning.
        """
        if self.alive:
            return False
        uptime = time.monotonic() - self._spawned_at
        if uptime >= self.crash_loop_window:
            self._rapid_respawns = 0  # it ran healthy for a while; re-arm
        if self._rapid_respawns >= self.crash_loop_limit:
            tail = "\n".join(self.output_tail(5))
            raise CrashLoopError(
                f"server {self.name!r} died {self._rapid_respawns} times "
                f"within {self.crash_loop_window:.1f}s of spawning "
                f"(exit={self.returncode})\n{tail}")
        delay = self.respawn_policy.backoff(self._rapid_respawns)
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

    def __init__(self, ready_timeout: float = 15.0) -> None:
        self.ready_timeout = ready_timeout
        self.servers: dict[str, ServerHandle] = {}  # guarded_by: GIL

    def spawn(self, name: str, **options: Any) -> ServerHandle:
        """Launch ``python -m repro serve`` with kwargs as CLI flags.

        Keyword names map to flags (``network_delay=0.003`` becomes
        ``--network-delay 0.003``); booleans become bare flags.
        """
        if name in self.servers:
            raise ValueError(f"server {name!r} already supervised")
        handle = ServerHandle(name, options,
                              ready_timeout=self.ready_timeout)
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
        self.servers.clear()
        return codes

    def __enter__(self) -> "Supervisor":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop_all()


class ServerPool:
    """Convenience: N identically-configured servers (benchmark fan-out)."""

    def __init__(self, n: int, name_prefix: str = "ndb",
                 ready_timeout: float = 15.0, **options: Any) -> None:
        self.supervisor = Supervisor(ready_timeout=ready_timeout)
        self.handles: list[ServerHandle] = []
        try:
            for i in range(n):
                self.handles.append(
                    self.supervisor.spawn(f"{name_prefix}{i}", **options))
        except Exception:
            self.supervisor.stop_all()
            raise

    @property
    def addresses(self) -> list[tuple[str, int]]:
        return [(h.host, h.port) for h in self.handles]

    @property
    def metrics_addresses(self) -> list[tuple[str, int]]:
        """(host, HTTP metrics port) per server (spawn with
        ``metrics_port=0`` to enable the endpoint)."""
        return [(h.host, h.metrics_port) for h in self.handles]

    def stop(self, timeout: float = 10.0) -> None:
        self.supervisor.stop_all(timeout=timeout)

    def __enter__(self) -> "ServerPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    def __iter__(self):
        return iter(self.handles)

    def __len__(self) -> int:
        return len(self.handles)
