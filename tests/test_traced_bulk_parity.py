"""End-to-end parity of the bulk device path under the cost recorder.

Every mounted file system attaches its ``TraceRecorder`` as the device
tracer, and the device keeps its bulk ``_v`` paths under it (only an
observer or an armed crash plan forces the per-element loop). This
suite runs the same seeded MGSP write/fsync/read mix twice — once with
nothing but the recorder attached (bulk path), once with a no-op
``DeviceObserver`` as well (per-element loop) — and asserts that the
foreground and background cost traces, the device counters, the
durable image and every byte read back are identical.

The async write-back config is the service's: its flusher swaps
``device.tracer`` to ``bg_recorder`` in mid-run, so background drains
must be priced on the background stream on both paths.
"""

from __future__ import annotations

import random

import pytest

from repro.core import MgspConfig, MgspFilesystem
from repro.nvm.device import DeviceObserver

DEVICE_SIZE = 16 << 20
FILE_SIZE = 2 << 20
BLOCKS = (128, 4096, 256 << 10)
CONFIGS = {
    "sync": MgspConfig(),
    "async": MgspConfig(async_writeback=True, writeback_epoch_bytes=256 << 10),
}


def run_mix(config, observed, seed, ops=60):
    fs = MgspFilesystem(device_size=DEVICE_SIZE, config=config)
    if observed:
        fs.device.observers.append(DeviceObserver())
    handle = fs.create("data", capacity=FILE_SIZE)
    rng = random.Random(seed)
    reads = []
    for _ in range(ops):
        block = rng.choice(BLOCKS)
        offset = rng.randrange(0, FILE_SIZE - block + 1)
        if rng.random() < 0.3:
            reads.append(handle.read(offset, block))
        else:
            handle.write(offset, rng.randbytes(block))
            handle.fsync()
    return fs, reads


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_recorder_bulk_path_matches_per_element(config, seed):
    bulk_fs, bulk_reads = run_mix(CONFIGS[config], observed=False, seed=seed)
    loop_fs, loop_reads = run_mix(CONFIGS[config], observed=True, seed=seed)

    assert bulk_reads == loop_reads
    assert bulk_fs.recorder.take_completed() == loop_fs.recorder.take_completed()
    assert bulk_fs.take_bg_traces() == loop_fs.take_bg_traces()
    assert bulk_fs.recorder.clock_ns == loop_fs.recorder.clock_ns
    assert bulk_fs.bg_recorder.clock_ns == loop_fs.bg_recorder.clock_ns
    assert vars(bulk_fs.device.stats) == vars(loop_fs.device.stats)
    assert bulk_fs.device.event_index == loop_fs.device.event_index
    assert bulk_fs.device.buffer.snapshot_durable() == loop_fs.device.buffer.snapshot_durable()
    if config == "async":
        # the flusher really swapped the tracer in mid-run
        assert bulk_fs.flusher.epochs > 0
        assert bulk_fs.bg_recorder.clock_ns > 0
