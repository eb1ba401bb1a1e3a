"""The systematic crash-point sweep harness (ISSUE 3 tentpole)."""

from __future__ import annotations

import pytest

from repro.core import MgspConfig, MgspFilesystem, recover
from repro.core.metalog import MetadataLog
from repro.crashsweep import (
    CONFIGS,
    WORKLOADS,
    check_image,
    get_workload,
    minimize_failure,
    pending_entries,
    point_seed,
    sample_points,
    sweep_unit,
    take_census,
)
from repro.crashsweep.__main__ import main as sweep_main
from repro.errors import CrashRequested
from repro.fsapi.layout import VolumeLayout
from repro.nvm.crash import CrashPlan, CrashPolicy, compose_image, count_events
from repro.nvm.device import NvmDevice


class TestCensusAndSampling:
    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    @pytest.mark.parametrize("config_name", sorted(CONFIGS))
    def test_event_parity_everywhere(self, name, config_name):
        """Enumerated crash-point count == events an armed plan fires —
        including inside the batched `_v` device entry points every MGSP
        write exercises."""
        census = take_census(get_workload(name), config_name)
        assert census.parity_ok, (census.events, census.derived)
        assert census.events > 0

    def test_census_is_deterministic(self):
        workload = get_workload("fio-randwrite")
        assert take_census(workload, "sync").events == take_census(workload, "sync").events

    def test_async_config_adds_events(self):
        workload = get_workload("fio-randwrite")
        assert take_census(workload, "async").events > take_census(workload, "sync").events

    def test_sample_exhaustive_below_budget(self):
        assert sample_points(17, 100, seed=1) == list(range(17))

    def test_sample_stratified_above_budget(self):
        points = sample_points(10_000, 100, seed=1)
        assert len(points) == 100
        assert points == sorted(set(points))
        # One point per stratum: spread across the whole event range.
        assert points[0] < 100 and points[-1] >= 9_900
        assert sample_points(10_000, 100, seed=1) == points
        assert sample_points(10_000, 100, seed=2) != points


class TestSweep:
    @pytest.mark.parametrize("config_name", sorted(CONFIGS))
    def test_fio_randwrite_clean_sweep(self, config_name):
        report = sweep_unit("fio-randwrite", config_name, budget=12, seed=5)
        assert report.ok, [f.violations for f in report.failures]
        assert report.census.parity_ok
        assert report.images_checked == 3 * len(report.points)

    def test_txn_clean_sweep(self):
        report = sweep_unit("txn-mixed", "sync", budget=10, seed=5)
        assert report.ok, [f.violations for f in report.failures]

    def test_ycsb_clean_sweep(self):
        report = sweep_unit("ycsb-a", "sync", budget=6, seed=5)
        assert report.ok, [f.violations for f in report.failures]

    def test_single_point_replay(self):
        report = sweep_unit("fio-randwrite", "sync", points=[40], seed=5)
        assert report.points == [40]
        assert report.images_checked == 3
        assert report.ok


class TestRandomPolicyDeterminism:
    def crashed_device(self, crash_after=120):
        outcome = get_workload("fio-randwrite").run("sync", CrashPlan(crash_after))
        assert outcome.crashed
        return outcome.fs.device

    def test_same_seed_same_image(self):
        device = self.crashed_device()
        seed = point_seed(9, 120)
        first = compose_image(device, CrashPolicy.RANDOM, seed=seed)
        second = compose_image(device, CrashPolicy.RANDOM, seed=seed)
        assert first == second

    def test_different_seed_usually_differs(self):
        device = self.crashed_device()
        images = {compose_image(device, CrashPolicy.RANDOM, seed=s) for s in range(6)}
        assert len(images) > 1

    def test_policy_extremes(self):
        device = self.crashed_device()
        drop = compose_image(device, CrashPolicy.DROP_ALL, seed=0)
        keep = compose_image(device, CrashPolicy.KEEP_ALL, seed=0)
        assert drop == bytes(device.buffer.snapshot_durable())
        assert keep != drop  # a mid-write crash has unfenced words


class TestLibnvmmioCheck:
    """The fsync-granular byte oracle reports the first byte that reads
    neither its last-synced nor its latest-written value."""

    def crashed(self):
        workload = get_workload("libnvmmio-fio")
        outcome = workload.run("sync", CrashPlan(175))
        assert outcome.crashed
        image = compose_image(outcome.fs.device, CrashPolicy.KEEP_ALL)
        return workload, outcome, image, outcome.fs.volume.lookup("l").base

    @staticmethod
    def illegal(oracle, i):
        return next(v for v in range(256) if v not in (oracle.synced[i], oracle.current[i]))

    def test_crash_image_passes(self):
        workload, outcome, image, _base = self.crashed()
        assert workload.check(image, "sync", outcome.oracles) == []

    def test_mixed_synced_and_latest_bytes_pass(self):
        workload, outcome, image, base = self.crashed()
        oracle = outcome.oracles["l"]
        mixed = bytearray(image)
        differ = [i for i in range(oracle.capacity) if oracle.synced[i] != oracle.current[i]]
        assert len(differ) > 2
        for k, i in enumerate(differ):
            mixed[base + i] = (oracle.synced, oracle.current)[k % 2][i]
        assert workload.check(bytes(mixed), "sync", outcome.oracles) == []

    def test_corrupted_image_reports_first_bad_byte(self):
        workload, outcome, image, base = self.crashed()
        oracle = outcome.oracles["l"]
        corrupt = bytearray(image)
        for i in (70_000, 513, 40_000):
            corrupt[base + i] = self.illegal(oracle, i)
        expected = (
            f"l: byte 513 reads {self.illegal(oracle, 513)}, neither last-synced "
            f"({oracle.synced[513]}) nor latest-written ({oracle.current[513]})"
        )
        assert workload.check(bytes(corrupt), "sync", outcome.oracles) == [expected]


class TestMinimizer:
    def test_shrinks_to_failing_core(self, monkeypatch):
        """With a checker that fails iff one specific word persisted, the
        greedy minimizer must shrink any chosen superset to that word."""
        device = NvmDevice(1 << 20)
        for off in range(0, 80, 8):
            device.store(off, bytes([1 + off % 250]) * 8)
        culprit = 16
        durable = bytes(device.buffer.snapshot_durable())

        def fake_check(image, config_name, oracles, idempotence=True):
            if image[culprit : culprit + 8] != durable[culprit : culprit + 8]:
                return ["culprit word persisted"]
            return []

        import sys

        # `repro.crashsweep.sweep` the attribute is the sweep() function
        # (re-exported by __init__), so go through sys.modules.
        monkeypatch.setattr(
            sys.modules["repro.crashsweep.sweep"], "check_image", fake_check
        )
        chosen = device.unfenced_words()
        assert culprit in chosen and len(chosen) > 1
        assert minimize_failure(device, "sync", {}, chosen) == [culprit]


def make_fs():
    return MgspFilesystem(device_size=8 << 20, config=MgspConfig(degree=16))


def metalog_of(image: bytes, config: MgspConfig) -> MetadataLog:
    device = NvmDevice.from_image(image)
    layout = VolumeLayout.for_device(device.size, log_fraction=MgspFilesystem.log_fraction)
    return MetadataLog(device, layout.metalog, config.metalog_entries)


class TestUnlinkedFileRecovery:
    """Regression for the `_replay_entry` abort: a crash can persist an
    unlink while dropping the (deliberately unfenced) retire word of the
    file's last write — recovery must discard that entry, not fail."""

    def build_image(self):
        fs = make_fs()
        f = fs.create("doomed", capacity=64 << 10)
        fs.device.drain()
        f.write(0, b"x" * 4096)  # completes; its retire word is unfenced
        slot = f.inode.slot_offset
        # The first half of unlink(): clear the inode magic+id word.
        fs.device.atomic_store_u64(slot, 0)
        assert slot in fs.device.unfenced_words()
        # Adversarial image: the unlink word persisted, the retire did not.
        return bytes(fs.device.crash_image(persist_words=[slot])), fs.config

    def test_entry_for_unlinked_file_is_discarded(self):
        image, config = self.build_image()
        entries = metalog_of(image, config).scan()
        assert entries, "scenario must leave a live metalog entry"
        fs2, stats = recover(NvmDevice.from_image(image), config=MgspConfig(degree=16))
        assert stats.entries_discarded >= 1
        assert not fs2.volume.exists("doomed")
        assert not fs2.metalog.scan()  # discarded AND retired

    def test_checker_accepts_the_image(self):
        image, _config = self.build_image()
        assert check_image(image, "sync", {}) == []


class TestRecoveryIdempotence:
    """Recovery may crash and be rerun: crashing it at any sampled event
    and recovering again must land on the byte-identical final image."""

    def crash_images(self, crash_after=140):
        outcome = get_workload("fio-randwrite").run("sync", CrashPlan(crash_after))
        assert outcome.crashed
        return [
            compose_image(outcome.fs.device, policy, seed=11)
            for policy in (CrashPolicy.RANDOM, CrashPolicy.DROP_ALL)
        ]

    def final_image(self, image: bytes) -> bytes:
        fs, _ = recover(NvmDevice.from_image(image), config=MgspConfig(degree=16))
        fs.device.drain()
        return fs.device.buffer.snapshot_durable()

    def test_crashed_recovery_reruns_to_same_image(self):
        for image in self.crash_images():
            reference = self.final_image(image)
            # Census the recovery itself, then crash it at a few points.
            census_device = NvmDevice.from_image(image)
            plan = CrashPlan(1 << 62)
            census_device.crash_plan = plan
            recover(census_device, config=MgspConfig(degree=16))
            events = count_events(census_device)
            assert events == plan.count
            for crash_at in sorted({1, events // 3, events // 2, events - 1}):
                device = NvmDevice.from_image(image)
                device.crash_plan = CrashPlan(crash_at)
                with pytest.raises(CrashRequested):
                    recover(device, config=MgspConfig(degree=16))
                device.crash_plan = None
                for seed in (0, 1):
                    interrupted = compose_image(device, CrashPolicy.RANDOM, seed=seed)
                    assert self.final_image(interrupted) == reference, (
                        f"recovery crashed at event {crash_at}/{events} "
                        f"(seed {seed}) did not replay to the same image"
                    )


class TestPendingEntriesHelper:
    def test_counts_unretired_entries(self):
        fs = make_fs()
        f = fs.create("p", capacity=64 << 10)
        fs.device.drain()
        f.write(0, b"q" * 1024)
        # DROP_ALL image loses the unfenced retire: entry visible.
        image = compose_image(fs.device, CrashPolicy.DROP_ALL, seed=0)
        assert pending_entries(image, fs.config) == 1
        # KEEP_ALL persists the retire: no entry survives.
        image = compose_image(fs.device, CrashPolicy.KEEP_ALL, seed=0)
        assert pending_entries(image, fs.config) == 0


class TestCli:
    def test_list(self, capsys):
        assert sweep_main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "fio-randwrite" in out and "txn-mixed" in out and "ycsb-a" in out

    def test_small_sweep(self, capsys):
        assert (
            sweep_main(
                ["--workload", "fio-randwrite", "--configs", "sync", "--budget", "6"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "parity=ok" in out and "violations=0" in out
        assert "swept 6 crash points, checked 18 images" in out

    def test_at_mode(self, capsys):
        argv = [
            "--workload",
            "txn-mixed",
            "--configs",
            "sync",
            "--policies",
            "random",
            "--at",
            "25",
            "--seed",
            "3",
        ]
        assert sweep_main(argv) == 0
        assert "swept 1 crash points, checked 1 images" in capsys.readouterr().out

    def test_rejects_unknown_workload(self):
        with pytest.raises(SystemExit):
            sweep_main(["--workload", "nope"])
