"""C code generation: fused loop nests specialized per kernel instance.

Each generator emits one self-contained translation unit holding one
``void`` function.  The loop nests mirror the numpy kernels' iteration
grain exactly — MTTKRP walks the mode-sort plan's output segments,
TTV/TTM walk fiber runs, and the blocked HiCOO MTTKRP replays
Algorithm 3's per-block windows — so a compiled
chunk and a numpy chunk reduce the same elements in the same order.
Accumulation is ``double`` wherever the numpy path accumulates in
float64, and outputs are stored once per owned unit, which is what lets
the parallel executor drive compiled chunks with the same disjoint
ownership declarations as the interpreted kernels.

Specialization axes follow the TACO thesis scaled to this suite's needs:
tensor ``order`` and factor ``rank`` are baked into the source (the
compiler fully unrolls the rank loop), while array extents stay runtime
arguments.  Dtypes are fixed by the formats layer — float32 values,
int32 coordinates, int64 offsets, uint8 element indices — and appear
literally in the signatures.

Every generator returns ``(function_name, c_source)``; the build layer
hashes the source, so two calls asking for the same specialization reuse
one shared object.  The ``*_artifact`` variants additionally return a
:class:`repro.perf.jit.effects.EffectSummary` describing every loop,
local index definition, and load/store the kernel performs.  Summary
and source are built from the *same* snippet helpers (:func:`_loop`,
:func:`_gather_offset`, :func:`_store_offset`, :func:`_blocked_offset`),
so they cannot drift independently — a mutation to a helper changes both
the emitted C and the claims :mod:`repro.analysis.kernelcheck` must
verify, which is exactly how the planted-bug drills work.

In-kernel parallelism: every translation unit also exports a
``<name>_par`` entry that takes the *entire* chunk table from
:mod:`repro.perf.partition` (``num_chunks + 1`` absolute unit bounds),
the thread count, and the schedule kind, and runs the serial loop nest
over those chunks on an in-process pthreads team (``_TEAM_RUNNER``).
Chunks own disjoint output units (the same ownership declarations the
write sanitizer checks), so the team needs no atomics and every thread
interleaving produces bit-identical output.
One ctypes call per kernel invocation replaces one call per chunk.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .effects import (
    CAP_BLOCK,
    CAP_COUNT,
    CAP_I32,
    Access,
    Def,
    EffectSummary,
    KernelArtifact,
    Loop,
    Param,
)

_PRELUDE = """\
#include <stdint.h>

typedef float f32;
typedef double f64;
typedef int32_t i32;
typedef int64_t i64;
typedef uint8_t u8;
"""


def _loop(width: str, var: str, lo, hi) -> str:
    """The canonical loop header every generated nest uses.

    Shared between the C source and nothing else (the effect summary
    records ``lo``/``hi`` separately), so a mutated comparator here is
    source-only drift that kernelcheck must detect by re-parsing the C.
    """
    return f"for ({width} {var} = {lo}; {var} < {hi}; ++{var})"


def _gather_offset(index: str, scale) -> str:
    """Offset of a gathered row: ``(i64)index * scale`` (load side)."""
    return f"(i64){index} * {scale}"


def _store_offset(index: str, scale) -> str:
    """Offset of an owned output row: ``(i64)index * scale`` (store side).

    Used for both the C source and the summary's store access, so a
    mutation here (dropping the cast, adding a stray term) lands in the
    compiled kernel *and* in the claim kernelcheck verifies.
    """
    return f"(i64){index} * {scale}"


def _blocked_offset(base: str, eind: str, scale) -> str:
    """HiCOO row offset: ``(base + (i64)eind) * scale``."""
    return f"({base} + (i64){eind}) * {scale}"


# The pthreads team shared by every ``_par`` entry point: the calling
# thread runs logical tid 0 and spawns one helper per further tid for
# the duration of the call.  Schedule kind 0 is the executor's static
# policy (chunk c runs on thread c mod T, so work shares are a pure
# function of the chunk table and thread count); any other kind is a
# pull queue (dynamic and guided — the decreasing chunk sizes of guided
# are already baked into the bounds).  Chunks own disjoint output
# units, so scheduling only changes timing, never results.
_TEAM_RUNNER = """\

#include <pthread.h>

typedef void (*repro_chunk_fn)(void *ctx, i64 chunk);

typedef struct {
    repro_chunk_fn run;
    void *ctx;
    i64 num_chunks;
    i64 num_threads;
    i32 sched; /* 0 = static round-robin, otherwise pull queue */
    i64 next;
} repro_team;

static void repro_team_member(repro_team *team, i64 tid)
{
    if (team->sched == 0) {
        for (i64 c = tid; c < team->num_chunks; c += team->num_threads)
            team->run(team->ctx, c);
    } else {
        for (;;) {
            i64 c = __atomic_fetch_add(&team->next, 1, __ATOMIC_RELAXED);
            if (c >= team->num_chunks)
                break;
            team->run(team->ctx, c);
        }
    }
}

typedef struct {
    repro_team *team;
    i64 tid;
} repro_team_slot;

static void *repro_team_thread(void *arg)
{
    repro_team_slot *slot = (repro_team_slot *)arg;
    repro_team_member(slot->team, slot->tid);
    return 0;
}

#define REPRO_MAX_HELPERS 255

static void repro_team_run(repro_team *team)
{
    pthread_t threads[REPRO_MAX_HELPERS];
    repro_team_slot slots[REPRO_MAX_HELPERS];
    i64 helpers = 0;
    if (team->num_threads > REPRO_MAX_HELPERS + 1)
        team->num_threads = REPRO_MAX_HELPERS + 1;
    for (i64 tid = 1; tid < team->num_threads; ++tid) {
        slots[helpers].team = team;
        slots[helpers].tid = tid;
        if (pthread_create(&threads[helpers], 0, repro_team_thread,
                           &slots[helpers]) != 0)
            break;
        ++helpers;
    }
    repro_team_member(team, 0);
    /* Cover the shares of helpers that failed to spawn: static shares
       depend only on the logical tid, and the pull queue just drains. */
    for (i64 tid = helpers + 1; tid < team->num_threads; ++tid)
        repro_team_member(team, tid);
    for (i64 h = 0; h < helpers; ++h)
        pthread_join(threads[h], 0);
}
"""


def _parallel_entry(name: str, params: List[Tuple[str, str]]) -> str:
    """Emit the ctx struct, chunk trampoline, and ``<name>_par`` entry.

    ``params`` lists the serial function's tail parameters (everything
    after the ``(u0, u1)`` unit range) as ``(c_type, name)`` pairs.
    """
    fields = "\n".join(
        f"    {ctype.replace('restrict ', '')}{pname};"
        for ctype, pname in params
    )
    call_args = ", ".join(f"a->{pname}" for _, pname in params)
    sig_params = ",\n".join(
        f"                 {ctype}{pname}" for ctype, pname in params
    )
    ctx_init = "\n".join(
        f"    ctx.{pname} = {pname};" for _, pname in params
    )
    return f"""
typedef struct {{
    const i64 *chunk_bounds;
{fields}
}} {name}_ctx;

static void {name}_chunk(void *p, i64 c)
{{
    {name}_ctx *a = ({name}_ctx *)p;
    {name}(a->chunk_bounds[c], a->chunk_bounds[c + 1],
           {call_args});
}}

void {name}_par(i64 num_chunks, const i64 *restrict chunk_bounds,
                 i64 num_threads, i32 sched,
{sig_params})
{{
    {name}_ctx ctx;
    ctx.chunk_bounds = chunk_bounds;
{ctx_init}
    repro_team team;
    team.run = {name}_chunk;
    team.ctx = &ctx;
    team.num_chunks = num_chunks;
    team.num_threads = num_threads < 1 ? 1 : num_threads;
    team.sched = sched;
    team.next = 0;
    repro_team_run(&team);
}}
"""


def _check_order(order: int, minimum: int = 1) -> int:
    order = int(order)
    if order < minimum:
        raise ValueError(f"order must be >= {minimum}, got {order}")
    if order > 16:
        raise ValueError(f"order {order} is beyond any supported tensor")
    return order


def _check_rank(rank: int) -> int:
    rank = int(rank)
    if not 1 <= rank <= 4096:
        raise ValueError(f"rank must be in [1, 4096], got {rank}")
    return rank


def _unit_params(lo: str, hi: str, count: str) -> Tuple[Param, Param]:
    """The ``(u0, u1)`` unit-range scalars bounded by the unit count."""
    return (
        Param(lo, "i64", value_min="0", value_max=count),
        Param(hi, "i64", value_min="0", value_max=count),
    )


def mttkrp_coo_artifact(order: int, rank: int) -> KernelArtifact:
    """Segmented COO MTTKRP over a mode-sort plan, one call per chunk.

    The caller passes the ``order - 1`` non-target index rows and factor
    matrices (ascending mode order; the elementwise product commutes) and
    absolute segment offsets, so parallel chunks invoke the same function
    on their own ``[u0, u1)`` segment range.  Each segment accumulates in
    ``double`` and stores its float32 output row exactly once.
    """
    order = _check_order(order, minimum=2)
    rank = _check_rank(rank)
    k = order - 1
    name = f"repro_mttkrp_coo_o{order}_r{rank}"
    idx_args = ", ".join(f"const i32 *restrict idx{m}" for m in range(k))
    fac_args = ", ".join(f"const f32 *restrict fac{m}" for m in range(k))
    gather = "\n".join(
        f"            const f32 *restrict row{m} = "
        f"fac{m} + {_gather_offset(f'idx{m}[e]', rank)};"
        for m in range(k)
    )
    product = " * ".join(f"(f64)row{m}[r]" for m in range(k))
    source = f"""{_PRELUDE}
void {name}(i64 u0, i64 u1,
            const i64 *restrict seg_offsets,
            const i32 *restrict targets,
            const f32 *restrict vals,
            {idx_args},
            {fac_args},
            f32 *restrict out)
{{
    {_loop("i64", "s", "u0", "u1")} {{
        f64 acc[{rank}] = {{0.0}};
        const i64 lo = seg_offsets[s];
        const i64 hi = seg_offsets[s + 1];
        {_loop("i64", "e", "lo", "hi")} {{
{gather}
            const f64 v = (f64)vals[e];
            {_loop("int", "r", "0", rank)}
                acc[r] += v * {product};
        }}
        f32 *restrict orow = out + {_store_offset("targets[s]", rank)};
        {_loop("int", "r", "0", rank)}
            orow[r] = (f32)acc[r];
    }}
}}
"""
    par_params = [
        ("const i64 *restrict ", "seg_offsets"),
        ("const i32 *restrict ", "targets"),
        ("const f32 *restrict ", "vals"),
        *(("const i32 *restrict ", f"idx{m}") for m in range(k)),
        *(("const f32 *restrict ", f"fac{m}") for m in range(k)),
        ("f32 *restrict ", "out"),
    ]
    source += _TEAM_RUNNER + _parallel_entry(name, par_params)
    symbols = {"num_units": CAP_COUNT, "nnz": CAP_COUNT, "out_rows": CAP_I32}
    symbols.update({f"dim{m}": CAP_I32 for m in range(k)})
    effects = EffectSummary(
        kernel="mttkrp_coo",
        name=name,
        order=order,
        rank=rank,
        unit_var="s",
        symbols=symbols,
        params=(
            *_unit_params("u0", "u1", "num_units"),
            Param("seg_offsets", "const i64 *", extent="num_units + 1",
                  value_min="0", value_max="nnz", props=("nondecreasing",)),
            Param("targets", "const i32 *", extent="num_units",
                  value_min="0", value_max="out_rows - 1",
                  props=("strictly_increasing",)),
            Param("vals", "const f32 *", extent="nnz"),
            *(Param(f"idx{m}", "const i32 *", extent="nnz",
                    value_min="0", value_max=f"dim{m} - 1")
              for m in range(k)),
            *(Param(f"fac{m}", "const f32 *", extent=f"dim{m} * {rank}")
              for m in range(k)),
            Param("out", "f32 *", extent=f"out_rows * {rank}"),
        ),
        loops=(
            Loop("s", "u0", "u1"),
            Loop("e", "lo", "hi"),
            Loop("r", "0", str(rank), "int"),
        ),
        defs=(
            Def("lo", "seg_offsets[s]"),
            Def("hi", "seg_offsets[s + 1]"),
        ),
        accesses=(
            Access("seg_offsets", "s", 1, "load"),
            Access("seg_offsets", "s + 1", 1, "load"),
            Access("targets", "s", 1, "load"),
            Access("vals", "e", 1, "load"),
            *(Access(f"idx{m}", "e", 1, "load") for m in range(k)),
            *(Access(f"fac{m}", _gather_offset(f"idx{m}[e]", rank),
                     rank, "load") for m in range(k)),
            Access("out", _store_offset("targets[s]", rank), rank, "store"),
        ),
        ownership=("rows", "targets"),
        par_name=f"{name}_par",
        par_params=tuple(pname for _, pname in par_params),
    )
    return KernelArtifact(name, source, effects)


def mttkrp_coo_source(order: int, rank: int) -> Tuple[str, str]:
    artifact = mttkrp_coo_artifact(order, rank)
    return artifact.name, artifact.source


mttkrp_coo_source.__doc__ = mttkrp_coo_artifact.__doc__


def _hicoo_symbols(order: int) -> Dict[str, int]:
    symbols = {"nblocks": CAP_COUNT, "nnz": CAP_COUNT, "block_size": CAP_BLOCK}
    symbols.update({f"dim{m}": CAP_I32 for m in range(order)})
    return symbols


def _hicoo_params(order: int, rank: int) -> Tuple[Param, ...]:
    """The shared HiCOO tail: bptr, block_size, vals, pairs, facs, out.

    Pair ``m == order - 1`` is the output mode (the kernels take pairs
    output-mode-last); ``einds`` values are u8 block-local coordinates,
    which is where the ``block_size <= 256`` cap comes from.
    """
    k = order - 1
    return (
        Param("bptr", "const i64 *", extent="nblocks + 1",
              value_min="0", value_max="nnz", props=("nondecreasing",)),
        Param("block_size", "i64", value_min="1", value_max="block_size"),
        Param("vals", "const f32 *", extent="nnz"),
        *(param
          for m in range(order)
          for param in (
              Param(f"binds{m}", "const i32 *", extent="nblocks",
                    value_min="0", value_max=f"dim{m} - 1",
                    props=("window_row",) if m == k else ()),
              Param(f"einds{m}", "const u8 *", extent="nnz",
                    value_min="0", value_max="block_size - 1"),
          )),
        *(Param(f"fac{m}", "const f32 *", extent=f"dim{m} * {rank}")
          for m in range(k)),
        Param("out", "f64 *", extent=f"dim{k} * {rank}"),
    )


def _hicoo_pairs(order: int) -> Tuple[Tuple[str, str, str, str], ...]:
    """The format invariant kernelcheck may assume for blocked indexing.

    ``out`` and the factors are *not* padded to a block-size multiple,
    so ``binds[b] * block_size + einds[e]`` is only in bounds because
    the format never stores a nonzero outside the tensor: the pair sum
    is at most ``dim - 1`` by construction of the HiCOO conversion.
    """
    return tuple(
        (f"binds{m}", "block_size", f"einds{m}", f"dim{m} - 1")
        for m in range(order)
    )


def mttkrp_hicoo_artifact(order: int, rank: int) -> KernelArtifact:
    """Blocked HiCOO MTTKRP (Algorithm 3 shape), serial over blocks.

    Argument convention: ``order`` (binds, einds) pairs with the *output
    mode last*, and ``order - 1`` factors for the non-output modes in the
    same ascending order as the index pairs.  The output array is
    ``double`` — blocks sharing an output window accumulate into it
    directly, which is why this variant stays serial; the parallel form
    is :func:`mttkrp_hicoo_owned_source`, which regroups blocks by
    output window first.
    """
    order = _check_order(order, minimum=2)
    rank = _check_rank(rank)
    k = order - 1
    name = f"repro_mttkrp_hicoo_o{order}_r{rank}"
    bind_args = ", ".join(
        f"const i32 *restrict binds{m}, const u8 *restrict einds{m}"
        for m in range(order)
    )
    fac_args = ", ".join(f"const f32 *restrict fac{m}" for m in range(k))
    bases = "\n".join(
        f"        const i64 base{m} = "
        f"{_gather_offset(f'binds{m}[b]', 'block_size')};"
        for m in range(order)
    )
    gather = "\n".join(
        f"            const f32 *restrict row{m} = "
        f"fac{m} + {_blocked_offset(f'base{m}', f'einds{m}[e]', rank)};"
        for m in range(k)
    )
    product = " * ".join(f"(f64)row{m}[r]" for m in range(k))
    store = _blocked_offset(f"base{k}", f"einds{k}[e]", rank)
    source = f"""{_PRELUDE}
void {name}(i64 b0, i64 b1,
            const i64 *restrict bptr,
            i64 block_size,
            const f32 *restrict vals,
            {bind_args},
            {fac_args},
            f64 *restrict out)
{{
    {_loop("i64", "b", "b0", "b1")} {{
        const i64 lo = bptr[b];
        const i64 hi = bptr[b + 1];
{bases}
        {_loop("i64", "e", "lo", "hi")} {{
{gather}
            const f64 v = (f64)vals[e];
            f64 *restrict orow = out + {store};
            {_loop("int", "r", "0", rank)}
                orow[r] += v * {product};
        }}
    }}
}}
"""
    effects = EffectSummary(
        kernel="mttkrp_hicoo",
        name=name,
        order=order,
        rank=rank,
        unit_var="b",
        symbols=_hicoo_symbols(order),
        params=(
            *_unit_params("b0", "b1", "nblocks"),
            *_hicoo_params(order, rank),
        ),
        loops=(
            Loop("b", "b0", "b1"),
            Loop("e", "lo", "hi"),
            Loop("r", "0", str(rank), "int"),
        ),
        defs=(
            Def("lo", "bptr[b]"),
            Def("hi", "bptr[b + 1]"),
            *(Def(f"base{m}", _gather_offset(f"binds{m}[b]", "block_size"))
              for m in range(order)),
        ),
        accesses=(
            Access("bptr", "b", 1, "load"),
            Access("bptr", "b + 1", 1, "load"),
            Access("vals", "e", 1, "load"),
            *(Access(f"fac{m}",
                     _blocked_offset(f"base{m}", f"einds{m}[e]", rank),
                     rank, "load") for m in range(k)),
            Access("out", store, rank, "store"),
        ),
        ownership=("serial",),
        pairs=_hicoo_pairs(order),
    )
    return KernelArtifact(name, source, effects)


def mttkrp_hicoo_source(order: int, rank: int) -> Tuple[str, str]:
    artifact = mttkrp_hicoo_artifact(order, rank)
    return artifact.name, artifact.source


mttkrp_hicoo_source.__doc__ = mttkrp_hicoo_artifact.__doc__


def mttkrp_hicoo_owned_artifact(order: int, rank: int) -> KernelArtifact:
    """Ownership-partitioned HiCOO MTTKRP: windows of blocks, any thread.

    The ownership plan (:func:`repro.perf.plans.build_hicoo_ownership_plan`)
    groups blocks by their output-mode block coordinate with a *stable*
    sort, so within each output window blocks keep their Morton order and
    the ``double`` accumulation per output row happens in exactly the
    serial kernel's order — parallel results are bit-identical.  The unit
    of work is one window; windows own disjoint ``block_size`` output row
    ranges, which is the atomic-free guarantee the sanitizer's
    ``row_blocks`` ownership kind checks.

    Arguments are the plain HiCOO kernel's plus ``win_ptr`` (window ->
    position range) and ``block_perm`` (position -> block id); the unit
    range ``(w0, w1)`` indexes windows rather than raw blocks.
    """
    order = _check_order(order, minimum=2)
    rank = _check_rank(rank)
    k = order - 1
    name = f"repro_mttkrp_hicoo_own_o{order}_r{rank}"
    bind_args = ", ".join(
        f"const i32 *restrict binds{m}, const u8 *restrict einds{m}"
        for m in range(order)
    )
    fac_args = ", ".join(f"const f32 *restrict fac{m}" for m in range(k))
    bases = "\n".join(
        f"            const i64 base{m} = "
        f"{_gather_offset(f'binds{m}[b]', 'block_size')};"
        for m in range(order)
    )
    gather = "\n".join(
        f"                const f32 *restrict row{m} = "
        f"fac{m} + {_blocked_offset(f'base{m}', f'einds{m}[e]', rank)};"
        for m in range(k)
    )
    product = " * ".join(f"(f64)row{m}[r]" for m in range(k))
    store = _blocked_offset(f"base{k}", f"einds{k}[e]", rank)
    source = f"""{_PRELUDE}
void {name}(i64 w0, i64 w1,
            const i64 *restrict win_ptr,
            const i64 *restrict block_perm,
            const i64 *restrict bptr,
            i64 block_size,
            const f32 *restrict vals,
            {bind_args},
            {fac_args},
            f64 *restrict out)
{{
    {_loop("i64", "w", "w0", "w1")} {{
        {_loop("i64", "p", "win_ptr[w]", "win_ptr[w + 1]")} {{
            const i64 b = block_perm[p];
            const i64 lo = bptr[b];
            const i64 hi = bptr[b + 1];
{bases}
            {_loop("i64", "e", "lo", "hi")} {{
{gather}
                const f64 v = (f64)vals[e];
                f64 *restrict orow =
                    out + {store};
                {_loop("int", "r", "0", rank)}
                    orow[r] += v * {product};
            }}
        }}
    }}
}}
"""
    params = [
        ("const i64 *restrict ", "win_ptr"),
        ("const i64 *restrict ", "block_perm"),
        ("const i64 *restrict ", "bptr"),
        ("i64 ", "block_size"),
        ("const f32 *restrict ", "vals"),
    ]
    for m in range(order):
        params.append(("const i32 *restrict ", f"binds{m}"))
        params.append(("const u8 *restrict ", f"einds{m}"))
    params.extend(("const f32 *restrict ", f"fac{m}") for m in range(k))
    params.append(("f64 *restrict ", "out"))
    source += _TEAM_RUNNER + _parallel_entry(name, params)
    symbols = _hicoo_symbols(order)
    symbols["num_windows"] = CAP_COUNT
    effects = EffectSummary(
        kernel="mttkrp_hicoo_owned",
        name=name,
        order=order,
        rank=rank,
        unit_var="w",
        symbols=symbols,
        params=(
            *_unit_params("w0", "w1", "num_windows"),
            Param("win_ptr", "const i64 *", extent="num_windows + 1",
                  value_min="0", value_max="nblocks",
                  props=("nondecreasing",)),
            Param("block_perm", "const i64 *", extent="nblocks",
                  value_min="0", value_max="nblocks - 1"),
            *_hicoo_params(order, rank),
        ),
        loops=(
            Loop("w", "w0", "w1"),
            Loop("p", "win_ptr[w]", "win_ptr[w + 1]"),
            Loop("e", "lo", "hi"),
            Loop("r", "0", str(rank), "int"),
        ),
        defs=(
            Def("b", "block_perm[p]"),
            Def("lo", "bptr[b]"),
            Def("hi", "bptr[b + 1]"),
            *(Def(f"base{m}", _gather_offset(f"binds{m}[b]", "block_size"))
              for m in range(order)),
        ),
        accesses=(
            Access("win_ptr", "w", 1, "load"),
            Access("win_ptr", "w + 1", 1, "load"),
            Access("block_perm", "p", 1, "load"),
            Access("bptr", "b", 1, "load"),
            Access("bptr", "b + 1", 1, "load"),
            Access("vals", "e", 1, "load"),
            *(Access(f"fac{m}",
                     _blocked_offset(f"base{m}", f"einds{m}[e]", rank),
                     rank, "load") for m in range(k)),
            Access("out", store, rank, "store"),
        ),
        ownership=("row_blocks", f"binds{k}", "block_size"),
        pairs=_hicoo_pairs(order),
        par_name=f"{name}_par",
        par_params=tuple(pname for _, pname in params),
    )
    return KernelArtifact(name, source, effects)


def mttkrp_hicoo_owned_source(order: int, rank: int) -> Tuple[str, str]:
    artifact = mttkrp_hicoo_owned_artifact(order, rank)
    return artifact.name, artifact.source


mttkrp_hicoo_owned_source.__doc__ = mttkrp_hicoo_owned_artifact.__doc__




def ttv_artifact() -> KernelArtifact:
    """Fiber-grain TTV: one double reduction per fiber, any order.

    Order never appears — the fiber plan already isolated the product
    mode's indices — so a single specialization serves every tensor.
    """
    name = "repro_ttv_fiber"
    source = f"""{_PRELUDE}
void {name}(i64 u0, i64 u1,
            const i64 *restrict fptr,
            const f32 *restrict vals,
            const i32 *restrict prod_idx,
            const f32 *restrict vec,
            f64 *restrict sums)
{{
    {_loop("i64", "f", "u0", "u1")} {{
        f64 acc = 0.0;
        const i64 lo = fptr[f];
        const i64 hi = fptr[f + 1];
        {_loop("i64", "e", "lo", "hi")}
            acc += (f64)vals[e] * (f64)vec[prod_idx[e]];
        sums[f] = acc;
    }}
}}
"""
    par_params = [
        ("const i64 *restrict ", "fptr"),
        ("const f32 *restrict ", "vals"),
        ("const i32 *restrict ", "prod_idx"),
        ("const f32 *restrict ", "vec"),
        ("f64 *restrict ", "sums"),
    ]
    source += _TEAM_RUNNER + _parallel_entry(name, par_params)
    effects = EffectSummary(
        kernel="ttv",
        name=name,
        order=0,
        rank=1,
        unit_var="f",
        symbols={"num_fibers": CAP_COUNT, "nnz": CAP_COUNT, "pdim": CAP_I32},
        params=(
            *_unit_params("u0", "u1", "num_fibers"),
            Param("fptr", "const i64 *", extent="num_fibers + 1",
                  value_min="0", value_max="nnz", props=("nondecreasing",)),
            Param("vals", "const f32 *", extent="nnz"),
            Param("prod_idx", "const i32 *", extent="nnz",
                  value_min="0", value_max="pdim - 1"),
            Param("vec", "const f32 *", extent="pdim"),
            Param("sums", "f64 *", extent="num_fibers"),
        ),
        loops=(
            Loop("f", "u0", "u1"),
            Loop("e", "lo", "hi"),
        ),
        defs=(
            Def("lo", "fptr[f]"),
            Def("hi", "fptr[f + 1]"),
        ),
        accesses=(
            Access("fptr", "f", 1, "load"),
            Access("fptr", "f + 1", 1, "load"),
            Access("vals", "e", 1, "load"),
            Access("vec", "prod_idx[e]", 1, "load"),
            Access("sums", "f", 1, "store"),
        ),
        ownership=("unit",),
        par_name=f"{name}_par",
        par_params=tuple(pname for _, pname in par_params),
    )
    return KernelArtifact(name, source, effects)


def ttv_source() -> Tuple[str, str]:
    artifact = ttv_artifact()
    return artifact.name, artifact.source


ttv_source.__doc__ = ttv_artifact.__doc__


def ttm_artifact(rank: int) -> KernelArtifact:
    """Fiber-grain TTM: accumulate ``value * U[i_n, :]`` rows per fiber."""
    rank = _check_rank(rank)
    name = f"repro_ttm_fiber_r{rank}"
    row_offset = f"f * {rank}"
    source = f"""{_PRELUDE}
void {name}(i64 u0, i64 u1,
            const i64 *restrict fptr,
            const f32 *restrict vals,
            const i32 *restrict prod_idx,
            const f32 *restrict mat,
            f64 *restrict rows)
{{
    {_loop("i64", "f", "u0", "u1")} {{
        f64 *restrict orow = rows + {row_offset};
        {_loop("int", "r", "0", rank)}
            orow[r] = 0.0;
        const i64 lo = fptr[f];
        const i64 hi = fptr[f + 1];
        {_loop("i64", "e", "lo", "hi")} {{
            const f64 v = (f64)vals[e];
            const f32 *restrict mrow = mat + {_gather_offset("prod_idx[e]", rank)};
            {_loop("int", "r", "0", rank)}
                orow[r] += v * (f64)mrow[r];
        }}
    }}
}}
"""
    par_params = [
        ("const i64 *restrict ", "fptr"),
        ("const f32 *restrict ", "vals"),
        ("const i32 *restrict ", "prod_idx"),
        ("const f32 *restrict ", "mat"),
        ("f64 *restrict ", "rows"),
    ]
    source += _TEAM_RUNNER + _parallel_entry(name, par_params)
    effects = EffectSummary(
        kernel="ttm",
        name=name,
        order=0,
        rank=rank,
        unit_var="f",
        symbols={"num_fibers": CAP_COUNT, "nnz": CAP_COUNT, "pdim": CAP_I32},
        params=(
            *_unit_params("u0", "u1", "num_fibers"),
            Param("fptr", "const i64 *", extent="num_fibers + 1",
                  value_min="0", value_max="nnz", props=("nondecreasing",)),
            Param("vals", "const f32 *", extent="nnz"),
            Param("prod_idx", "const i32 *", extent="nnz",
                  value_min="0", value_max="pdim - 1"),
            Param("mat", "const f32 *", extent=f"pdim * {rank}"),
            Param("rows", "f64 *", extent=f"num_fibers * {rank}"),
        ),
        loops=(
            Loop("f", "u0", "u1"),
            Loop("e", "lo", "hi"),
            Loop("r", "0", str(rank), "int"),
        ),
        defs=(
            Def("lo", "fptr[f]"),
            Def("hi", "fptr[f + 1]"),
        ),
        accesses=(
            Access("fptr", "f", 1, "load"),
            Access("fptr", "f + 1", 1, "load"),
            Access("vals", "e", 1, "load"),
            Access("mat", _gather_offset("prod_idx[e]", rank), rank, "load"),
            Access("rows", row_offset, rank, "store"),
        ),
        ownership=("unit",),
        par_name=f"{name}_par",
        par_params=tuple(pname for _, pname in par_params),
    )
    return KernelArtifact(name, source, effects)


def ttm_source(rank: int) -> Tuple[str, str]:
    artifact = ttm_artifact(rank)
    return artifact.name, artifact.source


ttm_source.__doc__ = ttm_artifact.__doc__


#: Orders and ranks kernelcheck verifies by default — the order 2..4
#: span the paper's datasets use, at a small, a typical, and a large
#: factor rank.
REGISTERED_ORDERS = (2, 3, 4)
REGISTERED_RANKS = (1, 4, 32)


def registered_artifacts(
    orders: Tuple[int, ...] = REGISTERED_ORDERS,
    ranks: Tuple[int, ...] = REGISTERED_RANKS,
) -> List[KernelArtifact]:
    """Every kernel template instantiated over the verification matrix.

    This is the population ``repro kernelcheck`` proves properties for:
    each MTTKRP variant per (order, rank), TTM per rank, and the
    order-independent TTV kernel once.
    """
    artifacts: List[KernelArtifact] = []
    for order in orders:
        for rank in ranks:
            artifacts.append(mttkrp_coo_artifact(order, rank))
            artifacts.append(mttkrp_hicoo_artifact(order, rank))
            artifacts.append(mttkrp_hicoo_owned_artifact(order, rank))
    for rank in ranks:
        artifacts.append(ttm_artifact(rank))
    artifacts.append(ttv_artifact())
    return artifacts
