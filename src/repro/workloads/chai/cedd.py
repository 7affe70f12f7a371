"""cedd — Canny Edge Detection (CHAI).

Collaboration pattern: **frame pipeline across devices**.  Each frame flows
through four stages — Gaussian (CPU) → Sobel (GPU) → non-max suppression
(GPU) → hysteresis (CPU) — with a per-frame/per-stage flag publishing each
buffer to the next stage.  Buffers written dirty by one device are consumed
by the other shortly after, so dirty-data forwarding and probe traffic
dominate — the kind of benchmark where early-dirty-response and owner
tracking pay off.
"""

from __future__ import annotations

from repro.protocol.atomics import AtomicOp
from repro.workloads import trace as ops
from repro.workloads.base import (
    AddressSpace,
    KernelSpec,
    Workload,
    WorkloadBuild,
    WorkloadContext,
    checker,
    code_region,
)
from repro.workloads.chai.common import gpu_spin_flag, partition, token


def gauss(v: int) -> int:
    return v * 2 + 1


def sobel(v: int) -> int:
    return v + 7


def suppress(v: int) -> int:
    return v * 3


def hysteresis(v: int) -> int:
    return v + 11


class CannyEdgeDetection(Workload):
    name = "cedd"
    description = "4-stage CPU/GPU frame pipeline with per-stage flag handoffs"

    def build(self, ctx: WorkloadContext) -> WorkloadBuild:
        frames = ctx.scaled(4, minimum=2)
        frame_words = ctx.scaled(96, minimum=32)
        space = AddressSpace()
        # stage buffers: stage s of frame f
        buffers = [[space.array(frame_words) for _s in range(4)] for _f in range(frames)]
        # flags[f][s] set when stage s of frame f is published
        flags = [[space.lines(1) for _s in range(4)] for _f in range(frames)]
        source = [space.array(frame_words) for _f in range(frames)]
        code = code_region(space)

        from repro.mem.address import line_addr
        from repro.mem.block import LineData

        initial: dict[int, LineData] = {}
        for f in range(frames):
            for i, addr in enumerate(source[f]):
                line = line_addr(addr)
                data = initial.get(line, LineData())
                initial[line] = data.with_word((addr % 64) // 4, token(f, i))

        def stage1_cpu(f: int, lo: int, hi: int):
            """Gaussian: source -> buffer0 (CPU threads split each frame)."""
            def program():
                for i in range(lo, hi):
                    value = yield ops.Load(source[f][i])
                    yield ops.Think(4)
                    yield ops.Store(buffers[f][0][i], gauss(value))
                yield ops.AtomicRMW(flags[f][0], AtomicOp.ADD, 1)

            return program

        def gpu_stage(f: int, in_buf, out_buf, in_flag, in_need, out_flag, fn):
            def program():
                yield from gpu_spin_flag(in_flag, want=in_need)
                yield ops.AcquireFence()
                for start in range(0, frame_words, 16):
                    idx = list(range(start, min(start + 16, frame_words)))
                    values = yield ops.VLoad([in_buf[i] for i in idx])
                    if not isinstance(values, tuple):
                        values = (values,)
                    yield ops.Think(12)
                    yield ops.VStore([out_buf[i] for i in idx], [fn(v) for v in values])
                yield ops.ReleaseFence()
                yield ops.AtomicRMW(out_flag, AtomicOp.EXCH, 1, scope="slc")

            return program

        def stage4_cpu(f: int, lo: int, hi: int):
            """Hysteresis: buffer2 -> buffer3 (CPU), after GPU stage 3."""
            def program():
                yield ops.SpinUntil(flags[f][2], lambda v: v >= 1)
                for i in range(lo, hi):
                    value = yield ops.Load(buffers[f][2][i])
                    yield ops.Think(4)
                    yield ops.Store(buffers[f][3][i], hysteresis(value))
                yield ops.AtomicRMW(flags[f][3], AtomicOp.ADD, 1)

            return program

        threads = ctx.num_cpu_cores
        spans = partition(frame_words, threads)

        # GPU kernel: for each frame, one workgroup runs sobel then suppress.
        def gpu_frame_wave(f: int):
            def program():
                yield from gpu_stage(
                    f, buffers[f][0], buffers[f][1],
                    flags[f][0], threads, flags[f][1], sobel,
                )()
                yield from gpu_stage(
                    f, buffers[f][1], buffers[f][2],
                    flags[f][1], 1, flags[f][2], suppress,
                )()

            return program

        kernel = KernelSpec(
            "cedd_gpu",
            [[gpu_frame_wave(f)] for f in range(frames)],
            code_addrs=code,
        )

        def cpu_thread(thread_id: int, lo: int, hi: int, with_host: bool):
            def program():
                handle = None
                if with_host:
                    handle = yield ops.LaunchKernel(kernel)
                for f in range(frames):
                    yield from stage1_cpu(f, lo, hi)()
                for f in range(frames):
                    yield from stage4_cpu(f, lo, hi)()
                if with_host:
                    yield ops.WaitKernel(handle)

            return program

        programs = [
            cpu_thread(t, lo, hi, with_host=(t == 0))
            for t, (lo, hi) in enumerate(spans)
        ]

        expected = {}
        for f in range(frames):
            for i in range(frame_words):
                value = hysteresis(suppress(sobel(gauss(token(f, i)))))
                expected[buffers[f][3][i]] = value
        return WorkloadBuild(
            cpu_programs=programs,
            initial_memory=initial,
            checks=[checker(expected, "cedd final frames")],
        )
