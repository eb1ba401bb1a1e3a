"""Shared fixtures."""

from __future__ import annotations

import pytest

from repro.analysis import attach_analyzer
from repro.core import MgspConfig, MgspFilesystem
from repro.fs import Ext4, Ext4Dax, Libnvmmio, Nova, Splitfs
from repro.nvm.device import DeviceObserver, NvmDevice

SMALL_DEVICE = 32 << 20


class RecordingObserver(DeviceObserver):
    """Test double for both device hooks: as a device observer it records
    every published ``(index, kind, offset, length, detail)`` event (and
    drains) in ``events``; as a tracer it records cost segments in
    ``segments``."""

    def __init__(self):
        self.events = []
        self.segments = []

    def on_event(self, index, kind, offset, length, detail):
        self.events.append((index, kind, offset, length, detail))

    def on_drain(self):
        self.events.append(("drain",))

    def io_cached(self, nbytes):
        self.segments.append(("cached", nbytes))

    def io_write(self, nbytes):
        self.segments.append(("write", nbytes))

    def io_read(self, nbytes):
        self.segments.append(("read", nbytes))

    def io_flush(self, nlines):
        self.segments.append(("flush", nlines))

    def io_fence(self):
        self.segments.append(("fence",))


@pytest.fixture
def device():
    return NvmDevice(SMALL_DEVICE)


@pytest.fixture
def mgsp():
    """An MGSP mount with the persistence-order analyzer armed in
    strict mode: any error-severity protocol violation observed while
    the test drove the filesystem fails the test at teardown."""
    fs = MgspFilesystem(device_size=64 << 20, config=MgspConfig(degree=16))
    analyzer = attach_analyzer(fs, perf=False)
    yield fs
    errors = analyzer.errors
    assert not errors, "persistence-protocol violations:\n" + "\n".join(
        f.format() for f in errors
    )


_FACTORIES = {
    "Ext4-DAX": lambda size: Ext4Dax(device_size=size),
    "Ext4-wb": lambda size: Ext4(device_size=size, mode="wb"),
    "Ext4-ordered": lambda size: Ext4(device_size=size, mode="ordered"),
    "Ext4-journal": lambda size: Ext4(device_size=size, mode="journal"),
    "NOVA": lambda size: Nova(device_size=size),
    "Libnvmmio": lambda size: Libnvmmio(device_size=size),
    "SplitFS": lambda size: Splitfs(device_size=size),
    "MGSP": lambda size: MgspFilesystem(device_size=size),
}


def make_filesystem(name, device_size=64 << 20):
    return _FACTORIES[name](device_size)


def make_all_filesystems(device_size=64 << 20):
    """Fresh instances of every file system (for contract tests)."""
    return [factory(device_size) for factory in _FACTORIES.values()]


ALL_FS_NAMES = [
    "Ext4-DAX",
    "Ext4-wb",
    "Ext4-ordered",
    "Ext4-journal",
    "NOVA",
    "Libnvmmio",
    "SplitFS",
    "MGSP",
]
