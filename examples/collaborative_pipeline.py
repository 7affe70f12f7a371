#!/usr/bin/env python3
"""Writing your own collaborative workload against the public API.

Implements a small CPU->GPU->CPU pipeline from scratch — the kind of
heterogeneous collaboration the paper's introduction motivates — using the
generator-based program model:

  1. CPU threads produce a batch of records and publish a flag;
  2. a persistent GPU kernel consumes each batch (system-scope atomic
     dequeue + acquire), transforms it, and publishes results;
  3. the CPU validates the results while producing the next batch.

Run:  python examples/collaborative_pipeline.py
"""

from repro import (
    KernelSpec,
    SystemConfig,
    Workload,
    WorkloadBuild,
    build_system,
)
from repro.coherence.policies import PRESETS
from repro.protocol.atomics import AtomicOp
from repro.workloads import (
    AcquireFence,
    AtomicRMW,
    LaunchKernel,
    Load,
    ReleaseFence,
    SpinUntil,
    Store,
    Think,
    VLoad,
    VStore,
    WaitKernel,
)
from repro.workloads.base import AddressSpace, checker, code_region

BATCHES = 6
BATCH_WORDS = 32


class PipelineWorkload(Workload):
    name = "pipeline_example"
    description = "CPU produce -> GPU transform -> CPU consume, batch pipeline"

    def build(self, ctx):
        space = AddressSpace()
        in_buf = [space.array(BATCH_WORDS) for _ in range(BATCHES)]
        out_buf = [space.array(BATCH_WORDS) for _ in range(BATCHES)]
        ready = [space.lines(1) for _ in range(BATCHES)]
        done = [space.lines(1) for _ in range(BATCHES)]
        code = code_region(space)

        def gpu_batch(batch: int):
            def program():
                # wait for the producer's flag with system-scope reads
                while True:
                    value = yield AtomicRMW(ready[batch], AtomicOp.ADD, 0, scope="slc")
                    if value:
                        break
                    yield Think(200)
                yield AcquireFence()
                values = yield VLoad(in_buf[batch])
                yield Think(50)
                yield VStore(out_buf[batch], [v * 3 for v in values])
                yield ReleaseFence()
                yield AtomicRMW(done[batch], AtomicOp.EXCH, 1, scope="slc")

            return program

        kernel = KernelSpec(
            "pipeline_gpu",
            [[gpu_batch(b)] for b in range(BATCHES)],
            code_addrs=code,
        )

        def producer_consumer():
            handle = yield LaunchKernel(kernel)
            for batch in range(BATCHES):
                for index, addr in enumerate(in_buf[batch]):
                    yield Store(addr, batch * 100 + index + 1)
                yield Store(ready[batch], 1)
            for batch in range(BATCHES):
                yield SpinUntil(done[batch], lambda v: v == 1)
                for index, addr in enumerate(out_buf[batch]):
                    value = yield Load(addr)
                    assert value == 3 * (batch * 100 + index + 1), (batch, index, value)
            yield WaitKernel(handle)

        expected = {
            out_buf[b][i]: 3 * (b * 100 + i + 1)
            for b in range(BATCHES)
            for i in range(BATCH_WORDS)
        }
        return WorkloadBuild(
            cpu_programs=[producer_consumer],
            checks=[checker(expected, "pipeline outputs")],
        )


def main() -> None:
    workload = PipelineWorkload()
    print(f"{'policy':<18} {'cycles':>10} {'probes':>8} {'mem':>6}")
    print("-" * 46)
    for policy_name in ("baseline", "llcWB+useL3OnWT", "owner", "sharers"):
        system = build_system(SystemConfig.benchmark(policy=PRESETS[policy_name]))
        result = system.run_workload(workload, verify=True)
        status = "" if result.ok else "  !! CHECK FAILED"
        print(
            f"{policy_name:<18} {result.cycles:>10,.0f} {result.dir_probes:>8} "
            f"{result.mem_accesses:>6}{status}"
        )


if __name__ == "__main__":
    main()
