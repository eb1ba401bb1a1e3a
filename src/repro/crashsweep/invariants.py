"""The MGSP crash-consistency invariant checker.

Given a composed post-crash image, mount it through
:func:`repro.core.recovery.recover` and assert everything §III-D
promises. Checks, in order:

1. **Recovery terminates** without raising — any exception is a
   violation (a checksum-valid metalog entry must never brick a mount).
2. **Entry conservation**: every checksum-valid un-retired entry visible
   in the raw image is either replayed or deliberately discarded, and
   the metalog is empty after recovery (no retired-but-lost entries, no
   survivors to re-apply).
3. **Plain files**: every node table is durably cleared and the log
   area is reclaimed — recovery leaves no fresh-log indirection behind.
4. **Content legality**: each oracle file reads back exactly one of its
   legal states (all completed atomic ops, in-flight group
   all-or-nothing).
5. **Idempotence**: recovering the recovered image again is a byte-level
   no-op (recovery itself may crash and be rerun, so it must be a
   fixpoint).

Every violation is returned as a human-readable string; an empty list
means the image passed.
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.config import MgspConfig
from repro.core.metalog import MetadataLog
from repro.core.mgsp import MgspFilesystem
from repro.core.radix import RadixTree
from repro.core.recovery import recover
from repro.fsapi.layout import VolumeLayout
from repro.nvm.device import NvmDevice

from repro.crashsweep.workloads import FileOracle, make_config


def pending_entries(image: bytes, config: MgspConfig) -> int:
    """Checksum-valid, un-retired metalog entries in a raw crash image."""
    device = NvmDevice.from_image(image)
    layout = VolumeLayout.for_device(device.size, log_fraction=MgspFilesystem.log_fraction)
    return len(MetadataLog(device, layout.metalog, config.metalog_entries).scan())


def check_image(
    image: bytes,
    config_name: str,
    oracles: Dict[str, FileOracle],
    idempotence: bool = True,
) -> List[str]:
    """Run every invariant against one post-crash image."""
    violations: List[str] = []
    config = make_config(config_name)
    visible = pending_entries(image, config)

    try:
        fs, stats = recover(NvmDevice.from_image(image), config=config)
    except Exception as exc:
        return [f"recovery raised {type(exc).__name__}: {exc}"]

    if stats.entries_replayed + stats.entries_discarded != visible:
        violations.append(
            f"entry conservation: {visible} entries visible in the image but "
            f"{stats.entries_replayed} replayed + {stats.entries_discarded} discarded"
        )
    leftover = fs.metalog.scan()
    if leftover:
        violations.append(
            f"metalog not empty after recovery: {len(leftover)} live entries"
        )

    for inode in fs.volume.files():
        if not inode.node_table_len:
            continue
        tree = RadixTree(fs.device, inode, config)
        tree.load_from_table()
        if tree.nodes:
            violations.append(
                f"{inode.name}: node table not cleared after recovery "
                f"({len(tree.nodes)} live slots)"
            )
    if fs.logs.in_use:
        violations.append(f"log area not reclaimed: {fs.logs.in_use} bytes live")

    for name, oracle in oracles.items():
        try:
            handle = fs.open(name)
            got = handle.read(0, oracle.capacity).ljust(oracle.capacity, b"\0")
        except Exception as exc:
            violations.append(f"{name}: unreadable after recovery: {exc!r}")
            continue
        if got not in oracle.legal_states():
            violations.append(
                f"{name}: recovered content is not a legal synced state "
                f"(size={handle.size})"
            )

    if idempotence:
        fs.device.drain()
        first = fs.device.buffer.snapshot_durable()
        try:
            fs2, stats2 = recover(NvmDevice.from_image(first), config=make_config(config_name))
        except Exception as exc:
            violations.append(f"second recovery raised {type(exc).__name__}: {exc}")
            return violations
        fs2.device.drain()
        second = fs2.device.buffer.snapshot_durable()
        if second != first:
            diff = sum(a != b for a, b in zip(first, second))
            violations.append(
                f"recovery is not idempotent: second pass changed {diff} bytes "
                f"(replayed {stats2.entries_replayed}, discarded {stats2.entries_discarded})"
            )
    return violations
