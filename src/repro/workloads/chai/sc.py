"""sc — Stream Compaction (CHAI).

Collaboration pattern: **dynamic chunk claiming with atomic output
reservation**.  CPU threads and GPU wavefronts claim input chunks from a
shared atomic counter, count their chunk's non-zero elements, reserve a
span of the output array with a second atomic add, and copy the kept
values there.  Both counters are contended across devices; output lines
migrate between writers.
"""

from __future__ import annotations

from repro.mem.address import line_addr
from repro.mem.block import LineData
from repro.protocol.atomics import AtomicOp
from repro.workloads import trace as ops
from repro.workloads.base import (
    AddressSpace,
    KernelSpec,
    Workload,
    WorkloadBuild,
    WorkloadContext,
    code_region,
)
from repro.workloads.chai.common import token

CHUNK = 16  # words per claimed chunk (one line)


class StreamCompaction(Workload):
    name = "sc"
    description = "cross-device chunk claiming + atomic output reservation"

    def build(self, ctx: WorkloadContext) -> WorkloadBuild:
        input_words = ctx.scaled(512, minimum=64)
        input_words -= input_words % CHUNK
        num_chunks = input_words // CHUNK
        rng = ctx.rng()

        space = AddressSpace()
        chunk_counter = space.lines(1)
        out_cursor = space.lines(1)
        inputs = space.array(input_words)
        outputs = space.array(input_words)
        code = code_region(space)

        values = [
            token(0, i) if rng.random() < 0.5 else 0 for i in range(input_words)
        ]
        initial: dict[int, LineData] = {}
        for i, addr in enumerate(inputs):
            if values[i]:
                line = line_addr(addr)
                data = initial.get(line, LineData())
                initial[line] = data.with_word((addr % 64) // 4, values[i])

        kept = sorted(v for v in values if v)

        def cpu_worker():
            def program():
                while True:
                    chunk = yield ops.AtomicRMW(chunk_counter, AtomicOp.ADD, 1)
                    if chunk >= num_chunks:
                        return
                    found = []
                    for i in range(chunk * CHUNK, (chunk + 1) * CHUNK):
                        value = yield ops.Load(inputs[i])
                        if value:
                            found.append(value)
                    if not found:
                        continue
                    base = yield ops.AtomicRMW(out_cursor, AtomicOp.ADD, len(found))
                    for offset, value in enumerate(found):
                        yield ops.Store(outputs[base + offset], value)

            return program

        def gpu_worker():
            def program():
                while True:
                    chunk = yield ops.AtomicRMW(
                        chunk_counter, AtomicOp.ADD, 1, scope="slc"
                    )
                    if chunk >= num_chunks:
                        yield ops.ReleaseFence()
                        return
                    yield ops.AcquireFence()
                    batch = yield ops.VLoad(
                        [inputs[i] for i in range(chunk * CHUNK, (chunk + 1) * CHUNK)]
                    )
                    if not isinstance(batch, tuple):
                        batch = (batch,)
                    found = [v for v in batch if v]
                    if not found:
                        continue
                    base = yield ops.AtomicRMW(
                        out_cursor, AtomicOp.ADD, len(found), scope="slc"
                    )
                    yield ops.VStore(
                        [outputs[base + k] for k in range(len(found))], found
                    )
                    yield ops.ReleaseFence()

            return program

        gpu_waves = max(2, ctx.num_cus)
        kernel = KernelSpec(
            "sc_gpu", [[gpu_worker()] for _ in range(gpu_waves)], code_addrs=code
        )

        def host():
            handle = yield ops.LaunchKernel(kernel)
            yield from cpu_worker()()
            yield ops.WaitKernel(handle)

        programs = [host] + [cpu_worker() for _ in range(ctx.num_cpu_cores - 1)]

        def check_compaction(system) -> list[str]:
            errors = []
            total = system.coherent_word(out_cursor)
            if total != len(kept):
                errors.append(f"sc: out_cursor={total}, expected {len(kept)}")
                return errors
            got = sorted(system.coherent_word(outputs[i]) for i in range(total))
            if got != kept:
                errors.append(
                    f"sc: compacted multiset mismatch "
                    f"({len(got)} values, first diff at "
                    f"{next((i for i, (a, b) in enumerate(zip(got, kept)) if a != b), '?')})"
                )
            return errors

        return WorkloadBuild(
            cpu_programs=programs,
            initial_memory=initial,
            checks=[check_compaction],
        )
