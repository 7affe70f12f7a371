"""The bundled litmus suite: classic heterogeneous-coherence shapes.

Each test is deliberately tiny — a handful of ops per agent — but aimed at
one protocol race: message passing (CPU-CPU, GPU-CPU, both directions),
store buffering, per-location coherence (CoRR/CoWW), IRIW multi-copy
atomicity, dirty-owner handoff chains, VicDirty/VicClean vs RdBlkM eviction
races, DMA against dirty owners and cached readers, and atomic RMW chains
at both GPU scopes.

Design rule: **final memory is deterministic** in every test.  Racy *loads*
are allowed (their registers get membership postconditions), but every
location has a schedule-independent final value — this is what lets the
differential harness demand bit-identical finals across all policy
variants, and the postconditions stay exact rather than probabilistic.

CPU thread placement: threads map to cores in order and the small litmus
system has two CorePairs (cores 0/1 and 2/3), so ``threads[0]`` vs
``threads[2]`` crosses the fabric while ``threads[0]`` vs ``threads[1]``
shares an L2.  An empty op list is a valid placeholder thread.
"""

from __future__ import annotations

from repro.verify.litmus.dsl import (  # noqa: F401 - re-exported geometry
    L2_CONFLICT_STRIDE,
    L2_WAYS,
    DmaSpec,
    LitmusEnv,
    LitmusTest,
)

REGISTRY: dict[str, LitmusTest] = {}


def _register(test: LitmusTest) -> LitmusTest:
    test.validate()
    if test.name in REGISTRY:
        raise ValueError(f"duplicate litmus test {test.name!r}")
    REGISTRY[test.name] = test
    return test


def all_litmus_tests() -> dict[str, LitmusTest]:
    """Every bundled litmus test, keyed by name (insertion order)."""
    return dict(REGISTRY)


def get_litmus(name: str) -> LitmusTest:
    try:
        return REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown litmus test {name!r}; available: {sorted(REGISTRY)}"
        ) from None


# -- message passing -----------------------------------------------------------


def _post_mp(env: LitmusEnv) -> list[str]:
    env.expect_reg("t2:r1", 1)
    env.expect_mem("x", 1)
    env.expect_mem("flag", 1)
    return env.errors


_register(LitmusTest(
    name="mp",
    description="message passing across CorePairs: data then flag; "
                "reader must see the data",
    layout={"x": (0, 0), "flag": (1, 0)},
    threads=[
        [("store", "x", 1), ("store", "flag", 1)],
        [],
        [("spin", "flag", 1), ("load", "x", "r1")],
    ],
    postcondition=_post_mp,
))


_register(LitmusTest(
    name="mp_same_line",
    description="message passing with data and flag falsely shared in one "
                "line (partial-write merge correctness)",
    layout={"x": (0, 0), "flag": (0, 1)},
    threads=[
        [("store", "x", 1), ("store", "flag", 1)],
        [],
        [("spin", "flag", 1), ("load", "x", "r1")],
    ],
    postcondition=_post_mp,
))


def _post_mp_same_pair(env: LitmusEnv) -> list[str]:
    env.expect_reg("t1:r1", 1)
    env.expect_mem("x", 1)
    env.expect_mem("flag", 1)
    return env.errors


_register(LitmusTest(
    name="mp_same_pair",
    description="message passing inside one CorePair (shared L2, no fabric)",
    layout={"x": (0, 0), "flag": (1, 0)},
    threads=[
        [("store", "x", 1), ("store", "flag", 1)],
        [("spin", "flag", 1), ("load", "x", "r1")],
    ],
    postcondition=_post_mp_same_pair,
))


# -- store buffering / independent reads -------------------------------------


def _post_sb(env: LitmusEnv) -> list[str]:
    env.expect_reg_in("t0:r0", {0, 1})
    env.expect_reg_in("t2:r1", {0, 1})
    env.expect_mem("x", 1)
    env.expect_mem("y", 1)
    return env.errors


_register(LitmusTest(
    name="sb",
    description="store buffering: cross stores then cross loads; loads may "
                "race but finals are fixed",
    layout={"x": (0, 0), "y": (1, 0)},
    threads=[
        [("store", "x", 1), ("load", "y", "r0")],
        [],
        [("store", "y", 1), ("load", "x", "r1")],
    ],
    postcondition=_post_sb,
))


def _post_iriw(env: LitmusEnv) -> list[str]:
    a, b = env.reg("t1:a"), env.reg("t1:b")
    c, d = env.reg("t3:c"), env.reg("t3:d")
    for name, value in (("t1:a", a), ("t1:b", b), ("t3:c", c), ("t3:d", d)):
        env.expect_reg_in(name, {0, 1})
    env.expect(
        not (a == 1 and b == 0 and c == 1 and d == 0),
        f"IRIW: readers disagree on store order (a={a} b={b} c={c} d={d})",
    )
    env.expect_mem("x", 1)
    env.expect_mem("y", 1)
    return env.errors


_register(LitmusTest(
    name="iriw",
    description="independent reads of independent writes: both readers "
                "must agree on the store order (multi-copy atomicity)",
    layout={"x": (0, 0), "y": (1, 0)},
    threads=[
        [("store", "x", 1)],
        [("load", "x", "a"), ("load", "y", "b")],
        [("store", "y", 1)],
        [("load", "y", "c"), ("load", "x", "d")],
    ],
    postcondition=_post_iriw,
))


# -- per-location coherence ----------------------------------------------------


def _post_corr(env: LitmusEnv) -> list[str]:
    r1, r2 = env.reg("t2:r1"), env.reg("t2:r2")
    env.expect_reg_in("t2:r1", {0, 1, 2})
    env.expect_reg_in("t2:r2", {0, 1, 2})
    env.expect(
        r1 is None or r2 is None or r2 >= r1,
        f"CoRR: reads went backwards in coherence order (r1={r1}, r2={r2})",
    )
    env.expect_mem("x", 2)
    return env.errors


_register(LitmusTest(
    name="corr",
    description="coherence read-read: two reads of one location may never "
                "observe the write order backwards",
    layout={"x": (0, 0)},
    threads=[
        [("store", "x", 1), ("store", "x", 2)],
        [],
        [("load", "x", "r1"), ("load", "x", "r2")],
    ],
    postcondition=_post_corr,
))


def _post_coww(env: LitmusEnv) -> list[str]:
    env.expect_reg("t0:r", 2)
    env.expect_mem("x", 2)
    return env.errors


_register(LitmusTest(
    name="coww",
    description="coherence write-write: program-order stores to one "
                "location commit in order",
    layout={"x": (0, 0)},
    threads=[
        [("store", "x", 1), ("store", "x", 2), ("load", "x", "r")],
    ],
    postcondition=_post_coww,
))


# -- ownership handoff ---------------------------------------------------------


def _post_dirty_handoff(env: LitmusEnv) -> list[str]:
    env.expect_mem("x", 3)
    return env.errors


_register(LitmusTest(
    name="dirty_handoff",
    description="dirty-owner handoff ping-pong across CorePairs: "
                "M -> (probe) O -> (invalidate) I -> refetch",
    layout={"x": (0, 0)},
    threads=[
        [("store", "x", 1), ("spin", "x", 2), ("store", "x", 3)],
        [],
        [("spin", "x", 1), ("store", "x", 2)],
    ],
    postcondition=_post_dirty_handoff,
))


def _post_ww_chain(env: LitmusEnv) -> list[str]:
    env.expect_mem("tok", 4)
    return env.errors


_register(LitmusTest(
    name="ww_chain",
    description="token ring over all four cores: each store hands dirty "
                "ownership to the next core",
    layout={"tok": (0, 0)},
    threads=[
        [("store", "tok", 1), ("spin", "tok", 4)],
        [("spin", "tok", 1), ("store", "tok", 2)],
        [("spin", "tok", 2), ("store", "tok", 3)],
        [("spin", "tok", 3), ("store", "tok", 4)],
    ],
    postcondition=_post_ww_chain,
))


# -- eviction races ------------------------------------------------------------

_CONFLICTS = {
    f"c{k}": (k * L2_CONFLICT_STRIDE, 0) for k in range(1, L2_WAYS + 1)
}
_CONFLICT_STORES = [("store", loc, k + 1)
                    for k, loc in enumerate(sorted(_CONFLICTS))]


def _post_vicdirty(env: LitmusEnv) -> list[str]:
    env.expect_mem("x", 2)
    for k, loc in enumerate(sorted(_CONFLICTS)):
        env.expect_mem(loc, k + 1)
    return env.errors


_register(LitmusTest(
    name="vicdirty_race",
    description="dirty victim (VicDirty) of a contended line races the "
                "other pair's RdBlkM to the directory",
    layout={"x": (0, 0), **_CONFLICTS},
    threads=[
        [("store", "x", 1)] + list(_CONFLICT_STORES),
        [],
        [("spin", "x", 1), ("store", "x", 2)],
    ],
    postcondition=_post_vicdirty,
))


def _post_vicclean(env: LitmusEnv) -> list[str]:
    env.expect_reg_in("t0:r", {7, 9})
    env.expect_mem("x", 9)
    for k, loc in enumerate(sorted(_CONFLICTS)):
        env.expect_mem(loc, k + 1)
    return env.errors


_register(LitmusTest(
    name="vicclean_race",
    description="clean victim (VicClean) of a read-shared line races the "
                "other pair's store",
    layout={"x": (0, 0), **_CONFLICTS},
    init={"x": 7},
    threads=[
        [("load", "x", "r")] + list(_CONFLICT_STORES),
        [],
        [("store", "x", 9)],
    ],
    postcondition=_post_vicclean,
))


# -- DMA -----------------------------------------------------------------------


def _post_dma_read_dirty(env: LitmusEnv) -> list[str]:
    env.expect_mem("d", 5)
    env.expect_mem("d2", 6)
    return env.errors


_register(LitmusTest(
    name="dma_read_dirty",
    description="DMA read of a line a CPU is actively dirtying: the "
                "directory must probe the dirty owner on DMA's behalf",
    layout={"d": (0, 0), "d2": (0, 1)},
    threads=[
        [("store", "d", 5), ("think", 20), ("store", "d2", 6)],
    ],
    dma=[DmaSpec("read", "d", lines=1)],
    postcondition=_post_dma_read_dirty,
))


def _post_dma_read_clean(env: LitmusEnv) -> list[str]:
    env.expect_reg("t0:r", 7)
    env.expect_mem("d", 9)
    return env.errors


_register(LitmusTest(
    name="dma_read_clean_owner",
    description="DMA read of a clean exclusive (E) CPU line: the probe "
                "downgrades the holder to S, so the precise directory must "
                "demote its owner entry too (Table I fn. f)",
    layout={"d": (0, 0)},
    init={"d": 7},
    threads=[
        [("load", "d", "r"), ("think", 50), ("store", "d", 9)],
    ],
    dma=[DmaSpec("read", "d", lines=1)],
    postcondition=_post_dma_read_clean,
))


def _post_dma_write(env: LitmusEnv) -> list[str]:
    env.expect_reg("t0:r", 42)
    env.expect_mem("d", 42)
    env.expect_mem("d2", 42)
    return env.errors


_register(LitmusTest(
    name="dma_write_invalidate",
    description="DMA write must invalidate a CPU's cached copy: the "
                "polling reader observes the DMA fill",
    layout={"d": (0, 0), "d2": (0, 2)},
    threads=[
        [("spin", "d", 42), ("load", "d2", "r")],
    ],
    dma=[DmaSpec("write", "d", lines=1, value=42)],
    postcondition=_post_dma_write,
))


def _post_dma_vs_gpu(env: LitmusEnv) -> list[str]:
    env.expect_mem("d", 13)
    env.expect_mem("g", 21)
    env.expect_reg_in("g0:r", {0, 13})
    return env.errors


_register(LitmusTest(
    name="dma_vs_gpu_writethrough",
    description="DMA write and GPU write-throughs in flight at once on "
                "disjoint lines; the GPU polls the DMA-filled line",
    layout={"d": (0, 0), "g": (1, 0)},
    gpu_waves=[
        [("store", "g", 21), ("rel",), ("load", "d", "r"), ("spin", "d", 13)],
    ],
    dma=[DmaSpec("write", "d", lines=1, value=13)],
    postcondition=_post_dma_vs_gpu,
))


# -- GPU <-> CPU ---------------------------------------------------------------


def _post_gpu_mp(env: LitmusEnv) -> list[str]:
    env.expect_reg("t0:r", 1)
    env.expect_mem("x", 1)
    env.expect_mem("flag", 1)
    return env.errors


_register(LitmusTest(
    name="gpu_mp",
    description="GPU-to-CPU message passing: wave writes data, releases, "
                "writes flag; CPU reader must see the data",
    layout={"x": (0, 0), "flag": (1, 0)},
    threads=[
        [("spin", "flag", 1), ("load", "x", "r")],
    ],
    gpu_waves=[
        [("store", "x", 1), ("rel",), ("store", "flag", 1)],
    ],
    postcondition=_post_gpu_mp,
))


def _post_gpu_acquire(env: LitmusEnv) -> list[str]:
    env.expect_reg("g0:r", 3)
    env.expect_mem("x", 3)
    return env.errors


_register(LitmusTest(
    name="gpu_acquire",
    description="CPU-to-GPU message passing: wave spins (acquire per poll) "
                "then must load the CPU's data, not a stale TCP copy",
    layout={"x": (0, 0), "flag": (1, 0)},
    threads=[
        [("store", "x", 3), ("store", "flag", 1)],
    ],
    gpu_waves=[
        [("spin", "flag", 1), ("acq",), ("load", "x", "r")],
    ],
    postcondition=_post_gpu_acquire,
))


def _post_gpu_wt_race(env: LitmusEnv) -> list[str]:
    for loc in ("w0", "w1", "w2", "w3"):
        env.expect_mem(loc, 11)
    env.expect_reg_in("t2:r", {0, 11})
    return env.errors


_register(LitmusTest(
    name="gpu_wt_race",
    description="GPU vector write-through races a CPU read of the same "
                "line (word-granular dirty merge path)",
    layout={f"w{i}": (0, i) for i in range(4)},
    threads=[
        [],
        [],
        [("load", "w0", "r")],
    ],
    gpu_waves=[
        [("vstore", ["w0", "w1", "w2", "w3"], 11), ("rel",)],
    ],
    postcondition=_post_gpu_wt_race,
))


# -- back-pressure shapes ------------------------------------------------------
#
# These target the bounded-queue fabric (an ``input_queue_depth`` schedule
# knob / SystemConfig.bounded): bursts sized past the default credit pool
# so the directory in-ports fill and back-pressure stalls the sending
# ports.  On an unbounded fabric they are ordinary (if chatty) tests —
# finals stay deterministic either way, so the differential sweep runs
# them under every schedule shape, bounded included.


def _post_bp_store_store(env: LitmusEnv) -> list[str]:
    for k in range(6):
        env.expect_mem(f"s{k}", k + 1)
        env.expect_mem(f"t{k}", k + 11)
    for k in range(4):
        env.expect_mem(f"g{k}", k + 31)
    return env.errors


_register(LitmusTest(
    name="bp_store_store",
    description="store/store burst from both CorePairs plus pipelined GPU "
                "write-throughs, all to distinct lines: fills a bounded "
                "directory in-port queue from three senders at once, "
                "exhausting credits on each",
    layout={
        **{f"s{k}": (k, 0) for k in range(6)},
        **{f"t{k}": (6 + k, 0) for k in range(6)},
        **{f"g{k}": (12 + k, 0) for k in range(4)},
    },
    threads=[
        [("store", f"s{k}", k + 1) for k in range(6)],
        [],
        [("store", f"t{k}", k + 11) for k in range(6)],
    ],
    gpu_waves=[
        [("store", f"g{k}", k + 31) for k in range(4)] + [("rel",)],
    ],
    postcondition=_post_bp_store_store,
))


def _post_bp_victim(env: LitmusEnv) -> list[str]:
    env.expect_mem("v", 1)
    for k, loc in enumerate(sorted(_CONFLICTS)):
        env.expect_mem(loc, k + 1)
    for k in range(4):
        env.expect_mem(f"f{k}", k + 21)
        env.expect_mem(f"w{k}", k + 41)
    return env.errors


_register(LitmusTest(
    name="bp_victim_vs_full_port",
    description="dirty victim writeback (conflict-set walk evicting a "
                "dirty line) races a store burst from the other pair that "
                "keeps the directory in-port full: the VicDirty must wait "
                "for a credit, not be dropped",
    layout={
        "v": (0, 0),
        **_CONFLICTS,
        **{f"f{k}": (1 + k, 0) for k in range(4)},
        **{f"w{k}": (5 + k, 0) for k in range(4)},
    },
    threads=[
        [("store", "v", 1)] + list(_CONFLICT_STORES),
        [],
        [("store", f"f{k}", k + 21) for k in range(4)],
    ],
    gpu_waves=[
        [("store", f"w{k}", k + 41) for k in range(4)] + [("rel",)],
    ],
    postcondition=_post_bp_victim,
))


def _post_bp_dma_burst(env: LitmusEnv) -> list[str]:
    for k in range(4):
        env.expect_mem(f"d{k}", 33)
    env.expect_mem("g", 21)
    env.expect_reg_in("t0:r", {0, 33})
    return env.errors


_register(LitmusTest(
    name="bp_dma_burst",
    description="4-line DMA write burst saturates a bounded link while a "
                "GPU write-through and a CPU poll share the fabric; the "
                "poller observes the last burst line",
    layout={
        **{f"d{k}": (k, 0) for k in range(4)},
        "g": (4, 0),
    },
    threads=[
        [("spin", "d3", 33), ("load", "d0", "r")],
    ],
    gpu_waves=[
        [("store", "g", 21), ("rel",)],
    ],
    dma=[DmaSpec("write", "d0", lines=4, value=33)],
    postcondition=_post_bp_dma_burst,
))


# -- atomics -------------------------------------------------------------------


def _post_atomic_chain(env: LitmusEnv) -> list[str]:
    env.expect_mem("c", 18)
    return env.errors


_register(LitmusTest(
    name="atomic_chain",
    description="contended RMW chain: four CPU threads and two "
                "system-scope GPU waves each add 3; nothing may be lost",
    layout={"c": (0, 0)},
    threads=[[("atomic", "c", "add", 1, "old")] * 3 for _ in range(4)],
    gpu_waves=[
        [("atomic", "c", "add", 1, "old", "slc")] * 3 for _ in range(2)
    ],
    postcondition=_post_atomic_chain,
))


def _post_glc_chain(env: LitmusEnv) -> list[str]:
    env.expect_mem("c", 8)
    return env.errors


_register(LitmusTest(
    name="atomic_glc_chain",
    description="device-scope (glc) RMW chain at the TCC: two waves add 4 "
                "each; the release makes the total system-visible",
    layout={"c": (0, 0)},
    gpu_waves=[
        [("atomic", "c", "add", 1, "old", "glc")] * 4 + [("rel",)]
        for _ in range(2)
    ],
    postcondition=_post_glc_chain,
))
