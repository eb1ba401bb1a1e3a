"""Persistent namespace + extent allocator shared by every file system.

Files are contiguous extents in the data area, described by fixed 64-byte
inode slots in the superblock. The in-DRAM mirror (`Volume._inodes`) is
rebuilt from the superblock on mount, which is how recovery finds files
after a crash.

Inode slot layout (64 B)::

    0   u32  magic (0x1N0DE5 when live, 0 when free)
    4   u32  id
    8   u64  base            extent start (device offset)
    16  u64  capacity        extent length
    24  u64  size            current logical size (atomic 8-byte updates)
    32  u64  node_table_off  MGSP radix-record table (0 if none)
    40  u64  node_table_len
    48  16s  name (utf-8, NUL padded)
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.errors import AllocationError, FileExists, FileNotFound
from repro.fsapi.layout import VolumeLayout
from repro.nvm.device import NvmDevice
from repro.util import align_up

INODE_MAGIC = 0x1A0DE5
SLOT_SIZE = 64
HEADER_SIZE = 64
_SLOT = struct.Struct("<IIQQQQQ16s")


@dataclass
class Inode:
    id: int
    name: str
    base: int
    capacity: int
    size: int
    node_table_off: int = 0
    node_table_len: int = 0
    slot_offset: int = 0
    #: set by :meth:`Volume.unlink`. An open handle may keep writing
    #: (POSIX unlink-while-open), but its slot is free for reuse by the
    #: next create, so size/slot persists must become no-ops — otherwise
    #: a later checkpoint of the dangling handle would clobber whatever
    #: file now owns the slot.
    unlinked: bool = False

    @property
    def size_field_offset(self) -> int:
        return self.slot_offset + 24


class Volume:
    """Namespace over one device; all file systems share this substrate."""

    def __init__(self, device: NvmDevice, layout: Optional[VolumeLayout] = None) -> None:
        self.device = device
        self.layout = layout or VolumeLayout.for_device(device.size)
        self._inodes: Dict[str, Inode] = {}
        self._next_id = 1
        self._data_cursor = self.layout.data_area.start
        self._ntable_cursor = self.layout.node_tables.start
        self._max_slots = (self.layout.superblock.size - HEADER_SIZE) // SLOT_SIZE

    # -- mount / recovery ----------------------------------------------------

    @classmethod
    def mount(cls, device: NvmDevice, layout: Optional[VolumeLayout] = None) -> "Volume":
        """Rebuild the namespace from the superblock (post-crash path)."""
        volume = cls(device, layout)
        base = volume.layout.superblock.start + HEADER_SIZE
        # One untimed read of the whole slot table (mount path); only
        # slots carrying the live magic are unpacked.
        table = device.buffer.load(base, volume._max_slots * SLOT_SIZE)
        magics = np.frombuffer(table, dtype="<u4")[:: SLOT_SIZE // 4]
        for slot_idx in np.flatnonzero(magics == INODE_MAGIC).tolist():
            _magic, fid, ext_base, cap, size, nt_off, nt_len, name = _SLOT.unpack_from(
                table, slot_idx * SLOT_SIZE
            )
            slot_off = base + slot_idx * SLOT_SIZE
            inode = Inode(
                id=fid,
                name=name.rstrip(b"\0").decode("utf-8"),
                base=ext_base,
                capacity=cap,
                size=size,
                node_table_off=nt_off,
                node_table_len=nt_len,
                slot_offset=slot_off,
            )
            volume._inodes[inode.name] = inode
            volume._next_id = max(volume._next_id, fid + 1)
            if ext_base:  # extentless (log-structured) inodes have base == 0
                volume._data_cursor = max(volume._data_cursor, ext_base + cap)
            if nt_len:
                volume._ntable_cursor = max(volume._ntable_cursor, nt_off + nt_len)
        return volume

    # -- namespace -------------------------------------------------------------

    def exists(self, name: str) -> bool:
        return name in self._inodes

    def lookup(self, name: str) -> Inode:
        inode = self._inodes.get(name)
        if inode is None:
            raise FileNotFound(name)
        return inode

    def files(self):
        return list(self._inodes.values())

    def create(
        self,
        name: str,
        capacity: int,
        node_table_len: int = 0,
        reserve_extent: bool = True,
    ) -> Inode:
        """Create *name*. With ``reserve_extent=False`` the inode carries a
        logical capacity but no contiguous extent (log-structured file
        systems allocate their own pages)."""
        if name in self._inodes:
            raise FileExists(name)
        if len(self._inodes) >= self._max_slots:
            raise AllocationError("superblock inode table full")
        capacity = align_up(max(capacity, 4096), 4096)
        if reserve_extent:
            base = self._data_cursor
            if base + capacity > self.layout.data_area.end:
                raise AllocationError(
                    f"data area exhausted: need {capacity}, "
                    f"{self.layout.data_area.end - base} left"
                )
            self._data_cursor = base + capacity
        else:
            base = 0

        node_table_off = 0
        if node_table_len:
            node_table_len = align_up(node_table_len, 4096)
            node_table_off = self._ntable_cursor
            if node_table_off + node_table_len > self.layout.node_tables.end:
                raise AllocationError("node-table area exhausted")
            self._ntable_cursor = node_table_off + node_table_len

        slot_idx = len(self._inodes)
        # Reuse the first free slot so unlink+create cycles do not leak.
        used = {inode.slot_offset for inode in self._inodes.values()}
        base_slot = self.layout.superblock.start + HEADER_SIZE
        for idx in range(self._max_slots):
            candidate = base_slot + idx * SLOT_SIZE
            if candidate not in used:
                slot_idx = idx
                break
        slot_off = base_slot + slot_idx * SLOT_SIZE

        inode = Inode(
            id=self._next_id,
            name=name,
            base=base,
            capacity=capacity,
            size=0,
            node_table_off=node_table_off,
            node_table_len=node_table_len,
            slot_offset=slot_off,
        )
        self._next_id += 1
        self._persist_slot(inode)
        self._inodes[name] = inode
        return inode

    def unlink(self, name: str) -> None:
        inode = self.lookup(name)
        self.device.atomic_store_u64(inode.slot_offset, 0)  # clear magic+id
        self.device.persist(inode.slot_offset, 8)
        inode.unlinked = True
        del self._inodes[name]

    def by_id(self, fid: int) -> Inode:
        for inode in self._inodes.values():
            if inode.id == fid:
                return inode
        raise FileNotFound(f"inode id {fid}")

    # -- size updates ------------------------------------------------------------

    def set_size(self, inode: Inode, new_size: int) -> None:
        """Atomic persistent size update (8-byte field)."""
        if new_size > inode.capacity:
            raise AllocationError(
                f"{inode.name}: size {new_size} exceeds capacity {inode.capacity}"
            )
        inode.size = new_size
        if inode.unlinked:  # slot is freed (possibly reused); DRAM mirror only
            return
        self.device.atomic_store_u64(inode.size_field_offset, new_size)
        self.device.persist(inode.size_field_offset, 8)

    def set_size_volatile(self, inode: Inode, new_size: int) -> None:
        """Size update whose persistence the caller handles (e.g. via a
        metadata-log replay); only the DRAM mirror changes here."""
        if new_size > inode.capacity:
            raise AllocationError(
                f"{inode.name}: size {new_size} exceeds capacity {inode.capacity}"
            )
        inode.size = new_size

    def persist_size(self, inode: Inode) -> None:
        if inode.unlinked:  # see set_size: never write a freed slot
            return
        self.device.atomic_store_u64(inode.size_field_offset, inode.size)
        self.device.persist(inode.size_field_offset, 8)

    # -- helpers --------------------------------------------------------------------

    def _persist_slot(self, inode: Inode) -> None:
        raw = _SLOT.pack(
            INODE_MAGIC,
            inode.id,
            inode.base,
            inode.capacity,
            inode.size,
            inode.node_table_off,
            inode.node_table_len,
            inode.name.encode("utf-8")[:16].ljust(16, b"\0"),
        )
        self.device.store(inode.slot_offset, raw)
        self.device.persist(inode.slot_offset, SLOT_SIZE)
