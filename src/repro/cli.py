"""An ``hdfs dfs``-style command shell for the reproduction.

Runs an in-process HopsFS cluster and exposes the familiar file system
commands plus reproduction-specific administration (fsck, block reports,
namenode failure injection). Usable interactively::

    python -m repro.cli

or scripted (one command per line on stdin). The shell is also a plain
library class (:class:`HopsShell`) so tests and notebooks can drive it.
"""

from __future__ import annotations

import json
import os
import shlex
import sys
from typing import Callable, Optional

from repro.errors import FileSystemError
from repro.hopsfs import HopsFSCluster
from repro.hopsfs.fsck import Fsck
from repro.ndb import NDBConfig


class CommandError(Exception):
    """Bad usage of a shell command."""


class HopsShell:
    def __init__(self, cluster: Optional[HopsFSCluster] = None) -> None:
        self.cluster = cluster or HopsFSCluster(
            num_namenodes=2, num_datanodes=3,
            ndb_config=NDBConfig(num_datanodes=4, replication=2))
        self.client = self.cluster.client("shell")
        self._commands: dict[str, Callable[[list[str]], str]] = {
            "ls": self._ls,
            "mkdir": self._mkdir,
            "touch": self._touch,
            "put": self._put,
            "cat": self._cat,
            "rm": self._rm,
            "mv": self._mv,
            "stat": self._stat,
            "du": self._du,
            "chmod": self._chmod,
            "chown": self._chown,
            "setrep": self._setrep,
            "quota": self._quota,
            "xattr": self._xattr,
            "fsck": self._fsck,
            "report": self._report,
            "kill-nn": self._kill_nn,
            "decommission": self._decommission,
            "tick": self._tick,
            "faults": self._faults,
            "metrics": self._metrics,
            "trace": self._trace,
            "help": self._help,
        }

    # -- dispatch ------------------------------------------------------------------

    def execute(self, line: str) -> str:
        """Run one command line; returns its output (never raises for
        user errors — they come back as ``error: ...`` text)."""
        parts = shlex.split(line)
        if not parts:
            return ""
        command, args = parts[0], parts[1:]
        handler = self._commands.get(command)
        if handler is None:
            return f"error: unknown command {command!r} (try 'help')"
        try:
            return handler(args)
        except CommandError as exc:
            return f"usage error: {exc}"
        except FileSystemError as exc:
            return f"error: {type(exc).__name__}: {exc}"

    # -- commands -------------------------------------------------------------------

    def _ls(self, args: list[str]) -> str:
        path = args[0] if args else "/"
        listing = self.client.list_status(path)
        lines = []
        for entry in listing.entries:
            kind = "d" if entry.is_dir else "-"
            lines.append(
                f"{kind}{entry.perm:o}  {entry.owner:<8} {entry.group:<8} "
                f"{entry.size:>10}  {entry.path}")
        return "\n".join(lines) if lines else "(empty)"

    def _mkdir(self, args: list[str]) -> str:
        if not args:
            raise CommandError("mkdir <path>")
        self.client.mkdirs(args[0])
        return f"created {args[0]}"

    def _touch(self, args: list[str]) -> str:
        if not args:
            raise CommandError("touch <path>")
        self.client.write_file(args[0], b"")
        return f"created {args[0]}"

    def _put(self, args: list[str]) -> str:
        if len(args) < 2:
            raise CommandError("put <path> <text...>")
        path, text = args[0], " ".join(args[1:])
        self.client.write_file(path, text.encode(), overwrite=True)
        return f"wrote {len(text)} bytes to {path}"

    def _cat(self, args: list[str]) -> str:
        if not args:
            raise CommandError("cat <path>")
        return self.client.read_file(args[0]).decode(errors="replace")

    def _rm(self, args: list[str]) -> str:
        recursive = "-r" in args
        paths = [a for a in args if a != "-r"]
        if not paths:
            raise CommandError("rm [-r] <path>")
        removed = self.client.delete(paths[0], recursive=recursive)
        return f"removed {paths[0]}" if removed else f"no such path {paths[0]}"

    def _mv(self, args: list[str]) -> str:
        if len(args) != 2:
            raise CommandError("mv <src> <dst>")
        self.client.rename(args[0], args[1])
        return f"moved {args[0]} -> {args[1]}"

    def _stat(self, args: list[str]) -> str:
        if not args:
            raise CommandError("stat <path>")
        status = self.client.stat(args[0])
        if status is None:
            return f"no such path {args[0]}"
        kind = "directory" if status.is_dir else "file"
        return (f"{status.path}: {kind} inode={status.inode_id} "
                f"perm={status.perm:o} owner={status.owner} "
                f"size={status.size} replication={status.replication}")

    def _du(self, args: list[str]) -> str:
        path = args[0] if args else "/"
        summary = self.client.content_summary(path)
        return (f"{path}: {summary.file_count} files, "
                f"{summary.directory_count} dirs, {summary.length} bytes"
                + (f", ns quota {summary.ns_quota}"
                   if summary.ns_quota is not None else ""))

    def _chmod(self, args: list[str]) -> str:
        if len(args) != 2:
            raise CommandError("chmod <octal> <path>")
        try:
            perm = int(args[0], 8)
        except ValueError:
            raise CommandError(f"bad mode {args[0]!r}") from None
        self.client.set_permission(args[1], perm)
        return f"mode of {args[1]} set to {perm:o}"

    def _chown(self, args: list[str]) -> str:
        if len(args) != 2 or ":" not in args[0]:
            raise CommandError("chown <owner>:<group> <path>")
        owner, group = args[0].split(":", 1)
        self.client.set_owner(args[1], owner, group)
        return f"owner of {args[1]} set to {owner}:{group}"

    def _setrep(self, args: list[str]) -> str:
        if len(args) != 2:
            raise CommandError("setrep <n> <path>")
        self.client.set_replication(args[1], int(args[0]))
        return f"replication of {args[1]} set to {args[0]}"

    def _quota(self, args: list[str]) -> str:
        if len(args) != 2:
            raise CommandError("quota <ns-limit|none> <path>")
        ns = None if args[0] == "none" else int(args[0])
        self.client.set_quota(args[1], ns, None)
        return f"quota of {args[1]} set to {args[0]}"

    def _xattr(self, args: list[str]) -> str:
        if not args:
            raise CommandError("xattr get <path> | xattr set <path> <k> <v>")
        if args[0] == "get" and len(args) == 2:
            xattrs = self.client.get_xattrs(args[1])
            if not xattrs:
                return "(no xattrs)"
            return "\n".join(f"{k}={v}" for k, v in sorted(xattrs.items()))
        if args[0] == "set" and len(args) == 4:
            self.client.set_xattr(args[1], args[2], args[3])
            return f"set {args[2]} on {args[1]}"
        raise CommandError("xattr get <path> | xattr set <path> <k> <v>")

    def _fsck(self, args: list[str]) -> str:
        repair = "-repair" in args
        report = Fsck(self.cluster.any_namenode()).run(repair=repair)
        if report.healthy:
            return (f"HEALTHY: {report.inodes_checked} inodes, "
                    f"{report.blocks_checked} blocks checked")
        lines = [f"{check}: {count}" for check, count
                 in sorted(report.by_check().items())]
        if repair:
            lines.append(f"repaired: {report.repaired}")
        return "\n".join(lines)

    def _report(self, args: list[str]) -> str:
        live_nns = [nn.nn_id for nn in self.cluster.live_namenodes()]
        leader = self.cluster.leader()
        db = self.cluster.driver
        return "\n".join([
            f"namenodes : {live_nns} (leader: "
            f"{leader.nn_id if leader else '?'})",
            f"datanodes : {[dn.dn_id for dn in self.cluster.datanodes if dn.alive]}",
            f"ndb nodes : {db.live_nodes()} "
            f"({db.config.num_partitions} partitions, R="
            f"{db.config.replication})",
            f"inodes    : {self.cluster.driver.table_size('inodes')}",
            f"blocks    : {self.cluster.driver.table_size('blocks')}",
        ])

    def _kill_nn(self, args: list[str]) -> str:
        live = self.cluster.live_namenodes()
        if len(live) <= 1:
            return "error: refusing to kill the last namenode"
        victim = live[0]
        self.cluster.kill_namenode(victim)
        return f"killed namenode {victim.nn_id}; clients will fail over"

    def _decommission(self, args: list[str]) -> str:
        if not args:
            raise CommandError("decommission <dn-id>")
        try:
            dn_id = int(args[0])
        except ValueError:
            raise CommandError(f"bad datanode id {args[0]!r}") from None
        alive = {dn.dn_id for dn in self.cluster.datanodes if dn.alive}
        if dn_id not in alive:
            raise CommandError(f"no such live datanode {dn_id} "
                               f"(alive: {sorted(alive)})")
        queued = self.cluster.start_decommission(dn_id)
        for _ in range(1000):
            if self.cluster.decommission_complete(dn_id):
                break
            self.cluster.tick()
        else:
            raise CommandError(
                f"decommission of datanode {dn_id} stalled — no capacity "
                "to re-replicate its blocks")
        self.cluster.finish_decommission(dn_id)
        return (f"datanode {dn_id} drained ({queued} blocks re-replicated) "
                "and retired")

    def _tick(self, args: list[str]) -> str:
        commands = self.cluster.tick()
        return f"housekeeping round done ({commands} datanode commands)"

    def _faults(self, args: list[str]) -> str:
        """``faults load <plan.json>`` | ``faults status`` |
        ``faults fired`` | ``faults clear`` (docs/robustness.md)."""
        from repro import faults

        sub = args[0] if args else "status"
        if sub == "load":
            if len(args) != 2:
                raise CommandError("faults load <plan.json>")
            with open(args[1], encoding="utf-8") as fh:
                plan = faults.FaultPlan.from_dict(json.load(fh))
            # a live registry (the cluster view is a fresh merge per call)
            injector = faults.FaultInjector(
                plan, registry=self.cluster.driver.metrics_registry())
            faults.install(injector)
            return (f"installed fault plan {plan.name or '(unnamed)'} "
                    f"(seed={plan.seed}, {len(plan.specs)} specs)")
        if sub == "status":
            injector = faults.active()
            if injector is None:
                return "no fault plan installed"
            plan = injector.plan
            counts = injector.counts()
            lines = [f"plan {plan.name or '(unnamed)'} seed={plan.seed} "
                     f"specs={len(plan.specs)} fired={len(injector.fired)}"]
            lines += [f"  {site}: {n}" for site, n in sorted(counts.items())]
            return "\n".join(lines)
        if sub == "fired":
            injector = faults.active()
            if injector is None:
                return "no fault plan installed"
            return json.dumps([list(k) for k in injector.fired_keys()])
        if sub == "clear":
            previous = faults.uninstall()
            return ("cleared fault plan" if previous is not None
                    else "no fault plan installed")
        raise CommandError("faults [load <plan.json> | status | fired | "
                           "clear]")

    def _metrics(self, args: list[str]) -> str:
        from repro.metrics import export

        mode = args[0] if args else "summary"
        if mode == "summary":
            return export.summary(self.cluster.metrics_registry())
        if mode == "json":
            return json.dumps(self.cluster.metrics_snapshot(), indent=2,
                              sort_keys=True)
        if mode == "prom":
            return self.cluster.metrics_prometheus().rstrip("\n")
        if mode == "slow":
            lines = []
            for nn in self.cluster.namenodes:
                # the kept ring also holds fast failed and retried traces
                for trace in nn.tracer.kept():
                    if trace.duration >= nn.tracer.SLOW_THRESHOLD:
                        lines.append(f"-- namenode {nn.nn_id} --")
                        lines.append(trace.render())
            return "\n".join(lines) if lines else "(no slow operations)"
        if mode == "window":
            seconds = float(args[1]) if len(args) > 1 else 60.0
            view = export.windows(self.cluster.metrics_registry(), seconds)
            return json.dumps(view, indent=2, sort_keys=True)
        raise CommandError("metrics [summary|json|prom|slow|"
                           "window [seconds]]")

    # -- tracing ------------------------------------------------------------------

    def _all_traces(self) -> list[tuple[int, "object"]]:
        """(nn_id, Trace) for every trace in a tracer's recent or kept
        ring across the cluster, each once."""
        found = []
        for nn in self.cluster.namenodes:
            # a trace can be in both rings; its id keys it once
            traces = {trace.trace_id: trace
                      for trace in nn.tracer.recent() + nn.tracer.kept()}
            found += [(nn.nn_id, trace) for trace in traces.values()]
        return found

    def _trace(self, args: list[str]) -> str:
        """``trace top [n]`` | ``trace show <id>`` |
        ``trace export --chrome [path]`` | ``trace flight [path]``."""
        from repro.metrics.flightrecorder import dump_all
        from repro.metrics.traceexport import write_chrome

        sub = args[0] if args else "top"
        if sub == "top":
            n = int(args[1]) if len(args) > 1 else 10
            traces = sorted(self._all_traces(), key=lambda t: t[1].duration,
                            reverse=True)[:n]
            if not traces:
                return "(no traces recorded)"
            lines = [f"{'trace_id':<10} {'nn':>2} {'ms':>9} {'spans':>5} "
                     f"op"]
            for nn_id, trace in traces:
                suffix = f" error={trace.error}" if trace.error else ""
                if trace.parent_id:
                    suffix += f" parent={trace.parent_id}"
                lines.append(
                    f"{trace.trace_id:<10} {nn_id:>2} "
                    f"{trace.duration * 1e3:>9.3f} {len(trace.spans()):>5} "
                    f"{trace.op}{suffix}")
            return "\n".join(lines)
        if sub == "show":
            if len(args) != 2:
                raise CommandError("trace show <trace_id>")
            for nn_id, trace in self._all_traces():
                if trace.trace_id == args[1]:
                    header = f"trace {trace.trace_id} (namenode {nn_id}"
                    if trace.parent_id:
                        header += f", parent {trace.parent_id}"
                    header += ")"
                    return header + "\n" + trace.render()
            return f"no trace {args[1]!r} in any ring/flight recorder"
        if sub == "export":
            rest = [a for a in args[1:] if a != "--chrome"]
            if "--chrome" not in args[1:]:
                raise CommandError(
                    "trace export --chrome [trace_id] [path]")
            traces = self._all_traces()
            wanted = [a for a in rest if not a.endswith(".json")]
            path = next((a for a in rest if a.endswith(".json")),
                        "traces-chrome.json")
            if wanted:
                traces = [(nn, t) for nn, t in traces
                          if t.trace_id in wanted]
                if not traces:
                    return f"no trace {wanted[0]!r} recorded"
            if not traces:
                return "(no traces recorded)"
            write_chrome([t for _nn, t in traces], path,
                         meta={"source": "repro trace export"})
            return (f"wrote {len(traces)} trace(s) to {path} "
                    "(load in chrome://tracing or ui.perfetto.dev)")
        if sub == "flight":
            directory = args[1] if len(args) > 1 else "."
            paths = dump_all(directory, reason="cli")
            if not paths:
                return "(no operations recorded)"
            return "\n".join(f"dumped {p}" for p in paths)
        raise CommandError(
            "trace [top [n] | show <id> | export --chrome [id] [path] | "
            "flight [dir]]")

    def _help(self, args: list[str]) -> str:
        return "commands: " + " ".join(sorted(self._commands))


def main(argv: Optional[list[str]] = None) -> int:
    argv = argv if argv is not None else sys.argv[1:]
    shell = HopsShell()
    try:
        if argv:  # one-shot: repro.cli ls /
            print(shell.execute(" ".join(argv)))
            return 0
        print("HopsFS reproduction shell — 'help' lists commands, ^D exits")
        for line in sys.stdin:
            output = shell.execute(line.strip())
            if output:
                print(output)
        return 0
    except BrokenPipeError:
        # downstream closed early (e.g. ``... metrics prom | head``);
        # point stdout at devnull so the interpreter's exit-time flush
        # doesn't raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
