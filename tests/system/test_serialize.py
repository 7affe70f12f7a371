"""Tests for configuration (de)serialization."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import SystemConfig, build_system, get_workload
from repro.coherence.policies import PRESETS, DirectoryKind, DirectoryPolicy
from repro.system.config import CacheGeometry
from repro.system.serialize import (
    config_from_dict,
    config_to_dict,
    load_config,
    policy_from_dict,
    policy_to_dict,
    save_config,
)


class TestRoundTrip:
    def test_policy_round_trip(self):
        policy = PRESETS["sharers"].named(
            sharer_pointer_limit=2,
            dir_banks=2,
            readonly_regions=((0x1000, 0x2000),),
        )
        assert policy_from_dict(policy_to_dict(policy)) == policy

    def test_every_preset_round_trips(self):
        for name, policy in PRESETS.items():
            assert policy_from_dict(policy_to_dict(policy)) == policy, name

    def test_config_round_trip(self):
        config = SystemConfig.benchmark(policy=PRESETS["owner"], num_tccs=2)
        restored = config_from_dict(config_to_dict(config))
        assert restored == config

    def test_bounded_preset_round_trips(self):
        config = SystemConfig.bounded(policy=PRESETS["sharers"])
        restored = config_from_dict(config_to_dict(config))
        assert restored == config
        assert restored.input_queue_depth == config.input_queue_depth
        assert restored.mem_scheduler == "frfcfs"
        assert restored.watchdog_window_cycles == config.watchdog_window_cycles

    def test_file_round_trip(self, tmp_path):
        config = SystemConfig.small(policy=PRESETS["llcWB"])
        path = tmp_path / "config.json"
        save_config(config, str(path))
        restored = load_config(str(path))
        assert restored == config

    def test_restored_config_runs_identically(self, tmp_path):
        """Replay fidelity: the restored config reproduces the exact run."""
        config = SystemConfig.small(policy=PRESETS["sharers"])
        path = tmp_path / "config.json"
        save_config(config, str(path))
        first = build_system(config).run_workload(get_workload("sc"), scale=0.25)
        second = build_system(load_config(str(path))).run_workload(
            get_workload("sc"), scale=0.25
        )
        assert (first.cycles, first.dir_probes, first.mem_accesses) == (
            second.cycles, second.dir_probes, second.mem_accesses
        )


class TestErrors:
    def test_unknown_policy_field_rejected(self):
        with pytest.raises(ValueError, match="unknown policy fields"):
            policy_from_dict({"kind": "stateless", "bogus": 1})

    def test_unknown_config_field_rejected(self):
        with pytest.raises(ValueError, match="unknown config fields"):
            config_from_dict({"bogus": 1})

    def test_invalid_values_caught_by_validate(self):
        data = config_to_dict(SystemConfig.small())
        data["num_corepairs"] = 0
        with pytest.raises(ValueError):
            config_from_dict(data)


class TestProperties:
    @given(
        kind=st.sampled_from(list(DirectoryKind)),
        banks=st.integers(min_value=1, max_value=4),
        entries=st.integers(min_value=1, max_value=10_000),
        early=st.booleans(),
        wb=st.booleans(),
    )
    def test_random_policies_round_trip(self, kind, banks, entries, early, wb):
        from repro.coherence.policies import DirectoryPolicy

        policy = DirectoryPolicy(
            kind=kind, dir_banks=banks, dir_entries=entries,
            early_dirty_response=early, llc_writeback=wb,
        )
        assert policy_from_dict(policy_to_dict(policy)) == policy


def _geometry():
    return st.builds(
        CacheGeometry,
        size_bytes=st.sampled_from([512, 1024, 4096, 65536]),
        assoc=st.sampled_from([1, 2, 4, 8]),
        latency_cycles=st.sampled_from([1.0, 2.5, 8.0, 20.0]),
    )


def _policy():
    return st.builds(
        DirectoryPolicy,
        kind=st.sampled_from(list(DirectoryKind)),
        early_dirty_response=st.booleans(),
        clean_victims_to_memory=st.booleans(),
        clean_victims_to_llc=st.booleans(),
        llc_writeback=st.booleans(),
        use_l3_on_wt=st.booleans(),
        dir_entries=st.integers(min_value=1, max_value=100_000),
        dir_assoc=st.integers(min_value=1, max_value=32),
        state_aware_dir_replacement=st.booleans(),
        dma_updates_dir_state=st.booleans(),
        vicdirty_invalidates_sharers=st.booleans(),
        readonly_regions=st.lists(
            st.tuples(st.integers(0, 2**20), st.integers(1, 2**10)).map(
                lambda pair: (pair[0], pair[0] + pair[1])
            ),
            max_size=2,
        ).map(tuple),
        dir_banks=st.integers(min_value=1, max_value=4),
        dir_max_transactions=st.none() | st.integers(min_value=1, max_value=64),
    ).flatmap(
        # sharer_pointer_limit is only legal on SHARERS-kind directories
        lambda policy: st.just(policy)
        if not policy.tracks_sharers
        else st.none().map(lambda _n: policy)
        | st.integers(min_value=1, max_value=8).map(
            lambda limit: policy.named(sharer_pointer_limit=limit)
        )
    )


def _flow_control(config):
    """Layer randomized flow-control knobs onto a base config, constrained
    to the combinations ``validate()`` accepts: bounded input queues and
    TCC port arbitration need the finite-bandwidth links, bounded bank
    queues need the banked controller, and FR-FCFS needs the open-row
    model."""
    import dataclasses

    banked = config.mem_banks > 1 or config.mem_row_bytes > 0
    return st.tuples(
        st.sampled_from([0, 1, 4]) if config.link_bytes_per_cycle
        else st.just(0),
        st.booleans() if config.link_bytes_per_cycle else st.just(False),
        st.sampled_from([0, 2, 8]) if banked else st.just(0),
        st.sampled_from(["fifo", "frfcfs"]) if config.mem_row_bytes
        else st.just("fifo"),
        st.sampled_from([0.0, 50_000.0, 200_000.0]),
    ).map(
        lambda knobs: dataclasses.replace(
            config,
            input_queue_depth=knobs[0],
            arbitrate_tcc_ports=knobs[1],
            mem_queue_depth=knobs[2],
            mem_scheduler=knobs[3],
            watchdog_window_cycles=knobs[4],
        )
    )


def _system_config():
    return st.builds(
        SystemConfig,
        num_corepairs=st.integers(min_value=1, max_value=4),
        num_cus=st.integers(min_value=1, max_value=8),
        num_tccs=st.integers(min_value=1, max_value=2),
        cpu_freq_ghz=st.sampled_from([1.0, 3.5]),
        gpu_freq_ghz=st.sampled_from([1.1, 2.0]),
        l1d=_geometry(),
        l1i=_geometry(),
        l2=_geometry(),
        tcp=_geometry(),
        sqc=_geometry(),
        tcc=_geometry(),
        llc=_geometry(),
        dir_latency_cycles=st.sampled_from([2.0, 20.0]),
        mem_latency_cycles=st.sampled_from([40.0, 160.0]),
        net_latency_cycles=st.sampled_from([1.0, 10.0]),
        link_bytes_per_cycle=st.sampled_from([0, 4, 8, 64]),
        arb_weight_cpu=st.integers(min_value=1, max_value=8),
        arb_weight_gpu=st.integers(min_value=1, max_value=8),
        arb_weight_dma=st.integers(min_value=1, max_value=8),
        mem_banks=st.integers(min_value=1, max_value=8),
        mem_row_bytes=st.sampled_from([0, 512, 1024, 4096]),
        mem_row_hit_latency_cycles=st.sampled_from([50.0, 100.0]),
        mem_row_miss_latency_cycles=st.sampled_from([200.0, 400.0]),
        policy=_policy(),
        gpu_tcp_writeback=st.booleans(),
        gpu_tcc_writeback=st.booleans(),
        max_wavefronts_per_cu=st.integers(min_value=1, max_value=8),
        dma_max_outstanding=st.integers(min_value=1, max_value=8),
    ).flatmap(_flow_control)


class TestConfigProperties:
    """Hypothesis round-trip: any valid SystemConfig survives
    dict + JSON serialization exactly (ISSUE PR-4 satellite)."""

    @given(config=_system_config())
    def test_random_configs_round_trip_through_dict(self, config):
        assert config_from_dict(config_to_dict(config)) == config

    @given(config=_system_config())
    def test_random_configs_round_trip_through_json_text(self, config):
        import json

        data = json.loads(json.dumps(config_to_dict(config)))
        restored = config_from_dict(data)
        assert restored == config
        # the policy dataclass (frozen) round-trips to an equal, hashable value
        assert hash(restored.policy) == hash(config.policy)

    @given(config=_system_config())
    def test_round_tripped_config_revalidates(self, config):
        config_from_dict(config_to_dict(config)).validate()


class TestResultRoundTrip:
    def _result(self):
        from repro.system.serialize import result_from_dict, result_to_dict

        system = build_system(SystemConfig.small())
        result = system.run_workload(get_workload("bs"), scale=0.25)
        return result, result_to_dict, result_from_dict

    def test_round_trip_is_exact(self):
        result, to_dict, from_dict = self._result()
        assert from_dict(to_dict(result)) == result

    def test_round_trip_through_json_is_exact(self):
        import json

        result, to_dict, from_dict = self._result()
        assert from_dict(json.loads(json.dumps(to_dict(result)))) == result

    def test_unknown_field_rejected(self):
        result, to_dict, from_dict = self._result()
        data = to_dict(result)
        data["bogus"] = 1
        with pytest.raises(ValueError, match="unknown result fields"):
            from_dict(data)
