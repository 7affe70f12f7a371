"""Tests for system configuration presets and the builder."""

from __future__ import annotations

import pytest

from repro import SystemConfig, build_system
from repro.coherence.directory import DirectoryController
from repro.coherence.policies import PRESETS, DirectoryKind, DirectoryPolicy
from repro.coherence.precise import PreciseDirectory
from repro.system.config import KIB, MIB, CacheGeometry
from repro.verify.litmus import POLICY_VARIANTS, default_schedules
from repro.verify.litmus.harness import litmus_config


class TestRyzenPreset:
    def test_table3_structure(self):
        config = SystemConfig.ryzen_2200g()
        assert config.num_corepairs == 4
        assert config.num_cpu_cores == 8
        assert config.num_cus == 8
        assert config.cpu_freq_ghz == 3.5
        assert config.gpu_freq_ghz == 1.1

    def test_table2_geometry(self):
        config = SystemConfig.ryzen_2200g()
        assert (config.llc.size_bytes, config.llc.assoc) == (16 * MIB, 16)
        assert (config.l2.size_bytes, config.l2.assoc) == (2 * MIB, 8)
        assert (config.l1d.size_bytes, config.l1d.assoc) == (64 * KIB, 2)
        assert (config.l1i.size_bytes, config.l1i.assoc) == (32 * KIB, 2)
        assert (config.tcc.size_bytes, config.tcc.assoc) == (256 * KIB, 16)
        assert (config.tcp.size_bytes, config.tcp.assoc) == (16 * KIB, 16)
        assert (config.sqc.size_bytes, config.sqc.assoc) == (32 * KIB, 8)
        assert config.policy.dir_entries == 262_144
        assert config.policy.dir_assoc == 32

    def test_policy_override(self):
        config = SystemConfig.ryzen_2200g(policy=PRESETS["sharers"])
        assert config.policy.kind is DirectoryKind.SHARERS


class TestScaledPresets:
    def test_benchmark_preserves_structure(self):
        config = SystemConfig.benchmark()
        assert config.num_corepairs == 4
        assert config.num_cus == 8
        # ratios: LLC = 8x L2 = 8x TCC
        assert config.llc.size_bytes == 8 * config.l2.size_bytes
        assert config.l2.size_bytes == config.tcc.size_bytes

    def test_benchmark_respects_custom_dir_geometry(self):
        policy = PRESETS["sharers"].named(dir_entries=64, dir_assoc=4)
        config = SystemConfig.benchmark(policy=policy)
        assert config.policy.dir_entries == 64
        assert config.policy.dir_assoc == 4

    def test_benchmark_scales_default_dir_geometry(self):
        config = SystemConfig.benchmark(policy=PRESETS["sharers"])
        assert config.policy.dir_entries == 1024

    def test_small_is_small(self):
        config = SystemConfig.small()
        assert config.num_corepairs == 2
        assert config.l2.size_bytes <= 8 * KIB

    def test_validation(self):
        with pytest.raises(ValueError):
            SystemConfig(num_corepairs=0).validate()
        with pytest.raises(ValueError):
            SystemConfig(num_cus=0).validate()

    def test_contention_knob_validation(self):
        with pytest.raises(ValueError, match="link_bytes_per_cycle"):
            SystemConfig(link_bytes_per_cycle=-1).validate()
        with pytest.raises(ValueError, match="arb_weight_gpu"):
            SystemConfig(arb_weight_gpu=0).validate()
        with pytest.raises(ValueError, match="memory bank"):
            SystemConfig(mem_banks=0).validate()
        with pytest.raises(ValueError, match="mem_row_bytes"):
            SystemConfig(mem_row_bytes=-64).validate()
        with pytest.raises(ValueError, match="TCC port arbitration"):
            SystemConfig(arbitrate_tcc_ports=True).validate()
        SystemConfig(arbitrate_tcc_ports=True, link_bytes_per_cycle=8).validate()


#: every latency or service time a config carries, in cycles
_CYCLE_FIELDS = (
    "dir_latency_cycles", "dir_service_cycles", "mem_latency_cycles",
    "mem_gap_cycles", "net_latency_cycles", "mem_row_hit_latency_cycles",
    "mem_row_miss_latency_cycles", "cu_issue_cycles", "lds_latency_cycles",
    "kernel_launch_overhead_cycles", "l2_service_cycles", "tcc_service_cycles",
)
_CACHES = ("l1d", "l1i", "l2", "tcp", "sqc", "tcc", "llc")


class TestValidateRejectsBrokenConfigs:
    """A broken knob fails at build time with a message naming the field,
    instead of running to a silently different model or dying deep inside
    the builder."""

    @pytest.mark.parametrize("name", _CYCLE_FIELDS)
    def test_negative_cycles(self, name):
        with pytest.raises(ValueError, match=f"^{name} must be >= 0"):
            build_system(SystemConfig.small(**{name: -1}))

    @pytest.mark.parametrize("cache", _CACHES)
    def test_cache_without_a_way(self, cache):
        config = SystemConfig.small()
        setattr(config, cache, CacheGeometry(8 * KIB, 0, 1.0))
        with pytest.raises(ValueError, match=rf"^{cache}\.assoc must be >= 1"):
            build_system(config)

    @pytest.mark.parametrize("cache", _CACHES)
    @pytest.mark.parametrize("size", [0, 32])
    def test_cache_smaller_than_a_line(self, cache, size):
        config = SystemConfig.small()
        setattr(config, cache, CacheGeometry(size, 2, 1.0))
        with pytest.raises(ValueError, match=rf"^{cache}\.size_bytes must be >= 64"):
            build_system(config)

    @pytest.mark.parametrize("cache", _CACHES)
    def test_cache_negative_latency(self, cache):
        config = SystemConfig.small()
        setattr(config, cache, CacheGeometry(8 * KIB, 2, -1.0))
        with pytest.raises(ValueError, match=rf"^{cache}\.latency_cycles must be >= 0"):
            build_system(config)

    @pytest.mark.parametrize("name", ["dma_max_outstanding", "max_wavefronts_per_cu"])
    def test_count_below_one(self, name):
        with pytest.raises(ValueError, match=f"^{name} must be >= 1"):
            build_system(SystemConfig.small(**{name: 0}))

    def test_zero_latencies_and_one_line_caches_stay_valid(self):
        SystemConfig.small(
            net_latency_cycles=0, mem_latency_cycles=0,
            l2=CacheGeometry(64, 1, 0.0),
        ).validate()

    @pytest.mark.parametrize("preset", [
        SystemConfig, SystemConfig.small, SystemConfig.benchmark,
        SystemConfig.bounded, SystemConfig.contended,
    ], ids=lambda preset: preset.__name__)
    def test_every_preset_validates(self, preset):
        preset().validate()

    @pytest.mark.parametrize("policy", sorted(POLICY_VARIANTS))
    def test_every_litmus_config_validates(self, policy):
        for schedule in default_schedules():
            litmus_config(POLICY_VARIANTS[policy], schedule).validate()


class TestContendedPreset:
    def test_defaults_are_zero_contention(self):
        config = SystemConfig.benchmark()
        assert config.link_bytes_per_cycle == 0
        assert config.mem_banks == 1
        assert config.mem_row_bytes == 0

    def test_contended_layers_the_knob_set(self):
        config = SystemConfig.contended()
        for knob, value in SystemConfig.CONTENDED_KNOBS.items():
            assert getattr(config, knob) == value
        # everything else still matches the benchmark preset
        bench = SystemConfig.benchmark()
        assert config.llc == bench.llc
        assert config.policy == bench.policy

    def test_contended_accepts_policy_and_overrides(self):
        config = SystemConfig.contended(
            policy=PRESETS["sharers"], link_bytes_per_cycle=16
        )
        assert config.policy.kind is DirectoryKind.SHARERS
        assert config.link_bytes_per_cycle == 16
        assert config.mem_banks == SystemConfig.CONTENDED_KNOBS["mem_banks"]

    def test_arb_weights_property(self):
        config = SystemConfig(arb_weight_cpu=5, arb_weight_gpu=3, arb_weight_dma=2)
        assert config.arb_weights == {"cpu": 5, "gpu": 3, "dma": 2}

    def test_contended_round_trips_through_serialization(self):
        from repro.system.serialize import config_from_dict, config_to_dict

        config = SystemConfig.contended(policy=PRESETS["owner"])
        assert config_from_dict(config_to_dict(config)) == config


class TestContendedBuilder:
    def test_builder_wires_contention_knobs(self):
        system = build_system(SystemConfig.small(**SystemConfig.CONTENDED_KNOBS))
        assert system.network.link_bytes_per_cycle == 8
        assert system.network.arb_weights == {"cpu": 4, "gpu": 2, "dma": 1}
        assert system.memory.num_banks == 4
        assert system.memory.row_bytes == 1024
        assert system.memory._banked

    def test_builder_keeps_flat_fabric_by_default(self):
        system = build_system(SystemConfig.small())
        assert system.network.link_bytes_per_cycle == 0
        assert not system.memory._banked

    def test_memory_classifier_follows_endpoint_kinds(self):
        system = build_system(SystemConfig.small(**SystemConfig.CONTENDED_KNOBS))
        classify = system.memory._classifier
        assert classify is not None
        assert classify("l2.0") == "cpu"
        assert classify("tcc0") == "gpu"
        assert classify("dma0") == "dma"
        assert classify("dir") == "cpu"
        assert classify("not-an-endpoint") == "other"


class TestBuilder:
    def test_builds_every_component(self):
        system = build_system(SystemConfig.small())
        assert len(system.corepairs) == 2
        assert len(system.cores) == 4
        assert len(system.cus) == 2
        assert system.tcc is not None
        assert system.dma is not None
        assert isinstance(system.directory, DirectoryController)
        assert not isinstance(system.directory, PreciseDirectory)

    def test_precise_policy_builds_precise_directory(self):
        system = build_system(SystemConfig.small(policy=PRESETS["owner"]))
        assert isinstance(system.directory, PreciseDirectory)

    def test_llc_mode_follows_policy(self):
        system = build_system(SystemConfig.small(policy=PRESETS["llcWB"]))
        assert system.llc.writeback
        system = build_system(SystemConfig.small())
        assert not system.llc.writeback

    def test_network_knows_all_endpoints(self):
        system = build_system(SystemConfig.small())
        assert len(system.network.endpoints_of_kind("l2")) == 2
        assert system.network.endpoints_of_kind("tcc") == ["tcc0"]
        assert system.network.endpoints_of_kind("dir") == ["dir"]
        assert system.network.endpoints_of_kind("dma") == ["dma0"]

    def test_cores_are_wired_to_their_corepairs(self):
        system = build_system(SystemConfig.small())
        assert system.cores[0].corepair is system.corepairs[0]
        assert system.cores[1].corepair is system.corepairs[0]
        assert system.cores[2].corepair is system.corepairs[1]
        assert system.cores[0].slot == 0
        assert system.cores[1].slot == 1

    def test_clock_domains(self):
        system = build_system(SystemConfig.ryzen_2200g())
        assert system.clocks["cpu"].period_ticks == 286
        assert system.clocks["gpu"].period_ticks == 909

    def test_coherent_word_reads_through_hierarchy(self):
        from repro.mem.block import ZERO_LINE
        from repro.protocol.types import MoesiState

        system = build_system(SystemConfig.small())
        addr = 0x4000
        system.memory.poke(addr, ZERO_LINE.with_word(0, 1))
        assert system.coherent_word(addr) == 1
        system.llc.write_victim(addr, ZERO_LINE.with_word(0, 2), dirty=False)
        assert system.coherent_word(addr) == 2
        system.corepairs[0].l2.install(
            addr, state=MoesiState.M, data=ZERO_LINE.with_word(0, 3)
        )
        assert system.coherent_word(addr) == 3

    def test_too_many_cpu_programs_rejected(self):
        from repro.workloads.base import WorkloadBuild

        system = build_system(SystemConfig.small())
        build = WorkloadBuild(cpu_programs=[lambda: iter(())] * 10)
        with pytest.raises(ValueError, match="CPU threads"):
            system.start_build(build)
