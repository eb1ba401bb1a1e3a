"""An interactive demo shell over a simulated MGSP mount.

``python -m repro.shell`` gives a tiny REPL for poking the system —
handy for demos and exploratory debugging::

    mgsp> write notes 0 hello-world
    mgsp> read notes 0 11
    hello-world
    mgsp> tree notes
    mgsp> crash 0.5
    simulated power loss; recovered 1 in-flight op, 0 discarded
    mgsp> read notes 0 11
    hello-world

Commands are plain functions on :class:`Shell`, so the test suite drives
them directly.
"""

from __future__ import annotations

import random
import shlex
import sys
from typing import Dict, List, Optional

from repro.core import MgspConfig, MgspFilesystem, recover, verify_file
from repro.errors import ReproError
from repro.inspect import describe_device, describe_volume, dump_metalog, dump_tree
from repro.nvm.device import NvmDevice
from repro.util import parse_size


class Shell:
    def __init__(self, device_size: int = 128 << 20, seed: int = 0) -> None:
        self.fs = MgspFilesystem(device_size=device_size, config=MgspConfig())
        self.handles: Dict[str, object] = {}
        self.rng = random.Random(seed)

    # -- helpers -------------------------------------------------------------

    def _handle(self, name: str):
        handle = self.handles.get(name)
        if handle is None:
            if self.fs.exists(name):
                handle = self.fs.open(name)
            else:
                handle = self.fs.create(name, capacity=4 << 20)
            self.handles[name] = handle
        return handle

    # -- commands (each returns the text to print) -----------------------------

    def cmd_help(self) -> str:
        return (
            "commands:\n"
            "  write FILE OFF TEXT    atomic durable write\n"
            "  read FILE OFF LEN      read latest bytes\n"
            "  fill FILE OFF SIZE CH  write SIZE bytes of CH (e.g. 64k x)\n"
            "  txn FILE OFF1=T1 ...   multi-write transaction\n"
            "  crash [P]              power loss (unfenced words survive w.p. P)\n"
            "  checkpoint FILE        write logs back, reclaim space\n"
            "  tree FILE | metalog | volume | device   inspect state\n"
            "  verify FILE            run the fsck\n"
            "  stats                  device traffic counters\n"
            "  quit"
        )

    def cmd_write(self, name: str, offset: str, text: str) -> str:
        handle = self._handle(name)
        handle.write(parse_size(offset), text.encode())
        return f"wrote {len(text)} bytes at {offset} (atomic, durable)"

    def cmd_fill(self, name: str, offset: str, size: str, char: str = "x") -> str:
        handle = self._handle(name)
        n = parse_size(size)
        handle.write(parse_size(offset), char[:1].encode() * n)
        return f"filled {n} bytes"

    def cmd_read(self, name: str, offset: str, length: str) -> str:
        handle = self._handle(name)
        data = handle.read(parse_size(offset), parse_size(length))
        return data.decode("utf-8", errors="replace")

    def cmd_txn(self, name: str, *assignments: str) -> str:
        handle = self._handle(name)
        with self.fs.begin_transaction(handle) as txn:
            for assignment in assignments:
                off, _, text = assignment.partition("=")
                txn.write(parse_size(off), text.encode())
        return f"committed {len(assignments)} writes atomically"

    def cmd_crash(self, probability: str = "0.5") -> str:
        image = self.fs.device.crash_image(
            rng=self.rng, persist_probability=float(probability)
        )
        device = NvmDevice.from_image(image)
        self.fs, stats = recover(device)
        self.handles.clear()
        return (
            f"simulated power loss; recovered {stats.entries_replayed} in-flight "
            f"op(s), {stats.entries_discarded} discarded, "
            f"{stats.log_bytes_written_back:,} log bytes written back"
        )

    def cmd_checkpoint(self, name: str) -> str:
        copied = self._handle(name).checkpoint()
        return f"checkpointed: {copied:,} bytes written back"

    def cmd_tree(self, name: str) -> str:
        return dump_tree(self._handle(name))

    def cmd_metalog(self) -> str:
        return dump_metalog(self.fs.metalog)

    def cmd_volume(self) -> str:
        return describe_volume(self.fs.volume)

    def cmd_device(self) -> str:
        return describe_device(self.fs.device)

    def cmd_verify(self, name: str) -> str:
        report = verify_file(self._handle(name))
        if report.ok:
            return (
                f"OK: {report.nodes_checked} nodes, {report.valid_logs} live logs, "
                f"{report.fresh_bytes:,} fresh bytes"
            )
        return "FAILED:\n  " + "\n  ".join(report.errors)

    def cmd_stats(self) -> str:
        s = self.fs.device.stats
        return (
            f"stores={s.stores:,} bytes={s.stored_bytes:,} "
            f"flushes={s.flushed_lines:,} fences={s.fences:,}"
        )

    # -- dispatch -----------------------------------------------------------------

    def execute(self, line: str) -> Optional[str]:
        """Run one command line; returns output text, or None on quit."""
        parts = shlex.split(line)
        if not parts:
            return ""
        command, args = parts[0], parts[1:]
        if command in ("quit", "exit"):
            return None
        method = getattr(self, f"cmd_{command}", None)
        if method is None:
            return f"unknown command {command!r} (try 'help')"
        try:
            return method(*args)
        except ReproError as exc:
            return f"error: {exc}"
        except TypeError as exc:
            return f"usage error: {exc}"


def main(argv: Optional[List[str]] = None) -> int:  # pragma: no cover - interactive
    shell = Shell()
    print("MGSP demo shell — 'help' for commands, 'quit' to leave")
    while True:
        try:
            line = input("mgsp> ")
        except (EOFError, KeyboardInterrupt):
            print()
            return 0
        output = shell.execute(line)
        if output is None:
            return 0
        if output:
            print(output)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
