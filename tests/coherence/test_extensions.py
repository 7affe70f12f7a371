"""Tests for the §VII / future-work extensions: banked directories,
read-only region filtering, conservative VicDirty handling."""

from __future__ import annotations

import pytest

from repro import SystemConfig, build_system, get_workload
from repro.coherence.banking import DirectoryMap, as_directory_map
from repro.coherence.directory import ProtocolError
from repro.coherence.policies import PRESETS
from repro.mem.block import ZERO_LINE
from repro.protocol.types import DirState, MoesiState, MsgType
from repro.workloads.micro import MigratoryCounter, ReadersWriterSweep

from tests.coherence.harness import DirHarness, line_with

ADDR = 0xA000
SHARERS = PRESETS["sharers"]


class TestDirectoryMap:
    def test_single_bank(self):
        dmap = as_directory_map("dir")
        assert dmap.bank_of(0) == "dir"
        assert dmap.bank_of(0x12340) == "dir"
        assert len(dmap) == 1

    def test_interleaving(self):
        dmap = DirectoryMap(["dir0", "dir1"])
        assert dmap.bank_of(0x00) == "dir0"
        assert dmap.bank_of(0x40) == "dir1"
        assert dmap.bank_of(0x80) == "dir0"

    def test_map_passthrough(self):
        dmap = DirectoryMap(["a", "b"])
        assert as_directory_map(dmap) is dmap

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            DirectoryMap([])


@pytest.mark.parametrize("banks", [1, 2, 4])
@pytest.mark.parametrize("policy", ["baseline", "sharers"])
class TestBankedSystem:
    def test_workloads_verify_on_banked_directories(self, banks, policy):
        config = SystemConfig.small(policy=PRESETS[policy].named(dir_banks=banks))
        system = build_system(config)
        assert len(system.directories) == banks
        result = system.run_workload(get_workload("tq"), scale=0.25, verify=True)
        assert result.ok, result.check_errors[:3]

    def test_traffic_spreads_across_banks(self, banks, policy):
        config = SystemConfig.small(policy=PRESETS[policy].named(dir_banks=banks))
        system = build_system(config)
        result = system.run_workload(get_workload("sc"), scale=0.25)
        assert result.ok
        busy_banks = sum(
            1 for d in system.directories if d.stats["requests"] > 0
        )
        assert busy_banks == banks


class TestBankedMicro:
    def test_migratory_counter_on_two_banks(self):
        config = SystemConfig.small(policy=PRESETS["owner"].named(dir_banks=2))
        system = build_system(config)
        result = system.run_workload(MigratoryCounter(10), verify=True)
        assert result.ok

    def test_flush_fans_out_to_every_bank(self):
        config = SystemConfig.small(policy=PRESETS["baseline"].named(dir_banks=4))
        system = build_system(config)
        result = system.run_workload(get_workload("bs"), scale=0.25)
        assert result.ok
        flushes = [int(d.stats["requests.Flush"]) for d in system.directories]
        assert all(f >= 1 for f in flushes)  # release fence reached each bank


class TestReadOnlyRegions:
    def region_policy(self, start: int, end: int):
        return SHARERS.named(readonly_regions=((start, end),))

    def test_reads_untracked_and_shared(self):
        h = DirHarness(policy=self.region_policy(ADDR, ADDR + 0x100))
        h.seed_memory(ADDR, 7)
        h.l2s[0].request(MsgType.RDBLK, ADDR)
        h.run()
        assert h.l2s[0].last_response().state is MoesiState.S  # never E
        assert h.directory.snapshot_entry(ADDR)[0] is DirState.I  # untracked
        assert h.directory.stats["readonly_reads_untracked"] == 1
        assert h.probes_sent == 0

    def test_reads_outside_region_track_normally(self):
        h = DirHarness(policy=self.region_policy(ADDR, ADDR + 0x40))
        h.l2s[0].request(MsgType.RDBLK, ADDR + 0x100)
        h.run()
        assert h.directory.snapshot_entry(ADDR + 0x100)[0] is DirState.O

    def test_write_into_readonly_region_faults(self):
        h = DirHarness(policy=self.region_policy(ADDR, ADDR + 0x100))
        h.l2s[0].request(MsgType.RDBLKM, ADDR)
        with pytest.raises(ProtocolError, match="read-only region"):
            h.run()

    def test_vicclean_of_untracked_readonly_line_dropped_quietly(self):
        h = DirHarness(policy=self.region_policy(ADDR, ADDR + 0x100))
        h.l2s[0].request(MsgType.RDBLK, ADDR)
        h.run()
        h.l2s[0].request(MsgType.VIC_CLEAN, ADDR, data=ZERO_LINE)
        h.run()
        assert h.directory.stats["stale_victims_dropped"] == 1

    def test_directory_capacity_preserved(self):
        """Read-only scans must not thrash the directory (the motivation)."""
        policy = self.region_policy(0x0, 0x10_0000).named(dir_entries=8, dir_assoc=2)
        h = DirHarness(policy=policy)
        for index in range(32):  # far more lines than directory entries
            h.l2s[0].request(MsgType.RDBLK, ADDR + index * 0x40)
        h.run()
        assert h.directory.stats["dir_evictions"] == 0
        assert len(list(h.directory.dir_cache.iter_valid())) == 0

    def test_bad_region_rejected(self):
        with pytest.raises(ValueError, match="bad read-only region"):
            SHARERS.named(readonly_regions=((0x100, 0x100),)).validate()


class TestVicDirtySharerHandling:
    def drive_vicdirty_with_sharers(self, policy):
        h = DirHarness(policy=policy)
        h.l2s[0].request(MsgType.RDBLKM, ADDR)
        h.run()
        h.l2s[0].behave(ADDR, had_copy=True, dirty=True, data=line_with(5))
        h.l2s[1].request(MsgType.RDBLK, ADDR)  # dirty-shared sharer
        h.run()
        assert h.directory.snapshot_entry(ADDR)[0] is DirState.O
        h.l2s[0].request(MsgType.VIC_DIRTY, ADDR, data=line_with(5))
        h.run()
        return h

    def test_default_preserves_dirty_sharers(self):
        h = self.drive_vicdirty_with_sharers(SHARERS)
        assert h.directory.snapshot_entry(ADDR)[0] is DirState.S
        # the sharer was not probed by the victim transaction
        assert len(h.l2s[1].probes_seen(ADDR)) == 0
        assert h.directory.stats["vicdirty_sharer_invalidations"] == 0

    def test_conservative_variant_invalidates_and_frees(self):
        h = self.drive_vicdirty_with_sharers(
            SHARERS.named(vicdirty_invalidates_sharers=True)
        )
        assert h.directory.snapshot_entry(ADDR)[0] is DirState.I
        assert len(h.l2s[1].probes_seen(ADDR)) == 1
        assert h.directory.stats["vicdirty_sharer_invalidations"] == 1

    def test_both_variants_verify_end_to_end(self):
        for conservative in (False, True):
            policy = SHARERS.named(vicdirty_invalidates_sharers=conservative)
            system = build_system(SystemConfig.small(policy=policy))
            result = system.run_workload(
                ReadersWriterSweep(lines=4, rounds=3), verify=True
            )
            assert result.ok, (conservative, result.check_errors[:3])
