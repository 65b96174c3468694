"""Plan cache behavior: hits, misses, invalidation, adoption, scoping."""

from __future__ import annotations

import numpy as np
import pytest

from repro.formats import CooTensor, HicooTensor
from repro.perf import (
    KIND_FIBER,
    KIND_MODE_SORT,
    PlanCache,
    STRUCTURAL_KINDS,
    VALUE_BEARING_KINDS,
    fresh_cache,
    get_plan_cache,
    hicoo_for,
    invalidate,
    mode_sort_plan,
)


def _assert_fiber_partition(tensor, mode, ordered, fptr):
    """``ordered``/``fptr`` group ``tensor``'s nonzeros into its fibers."""
    np.testing.assert_array_equal(
        ordered.to_dense().astype(np.float64),
        tensor.to_dense().astype(np.float64),
    )
    other = np.delete(ordered.indices, mode, axis=0)
    assert fptr[0] == 0 and fptr[-1] == tensor.nnz
    assert len(fptr) - 1 == np.unique(other, axis=1).shape[1]
    for lo, hi in zip(fptr[:-1], fptr[1:]):
        assert hi > lo
        assert (other[:, lo:hi] == other[:, lo:lo + 1]).all()


class TestPlanCacheCore:
    def test_hit_and_miss_counters(self, tensor3):
        cache = PlanCache()
        built = []

        def builder():
            built.append(1)
            return "plan"

        assert cache.get(tensor3, "mode_sort", 0, builder) == "plan"
        assert cache.get(tensor3, "mode_sort", 0, builder) == "plan"
        assert len(built) == 1
        assert cache.hits("mode_sort") == 1
        assert cache.misses("mode_sort") == 1
        # A different key under the same kind is a separate entry.
        cache.get(tensor3, "mode_sort", 1, builder)
        assert len(built) == 2
        assert cache.misses("mode_sort") == 2

    def test_keys_distinguish_kinds(self, tensor3):
        cache = PlanCache()
        cache.get(tensor3, "mode_sort", 0, lambda: "a")
        assert cache.get(tensor3, "fiber_partition", 0, lambda: "b") == "b"
        assert cache.peek(tensor3, "mode_sort", 0) == "a"
        assert cache.peek(tensor3, "fiber_partition", 0) == "b"

    def test_invalidate_drops_all_plans_of_a_tensor(self, tensor3, tensor4):
        cache = PlanCache()
        cache.get(tensor3, "mode_sort", 0, lambda: "a")
        cache.get(tensor3, "mode_sort", 1, lambda: "b")
        cache.get(tensor4, "mode_sort", 0, lambda: "c")
        assert cache.invalidate(tensor3) == 2
        assert cache.peek(tensor3, "mode_sort", 0) is None
        assert cache.peek(tensor4, "mode_sort", 0) == "c"
        assert cache.invalidate(tensor3) == 0

    def test_entries_die_with_the_tensor(self):
        cache = PlanCache()
        t = CooTensor.random((10, 10), 20, seed=0)
        cache.get(t, "mode_sort", 0, lambda: "a")
        assert cache.stats().tensors == 1
        del t
        assert cache.stats().tensors == 0

    def test_adopt_transfers_structural_only(self, tensor3):
        cache = PlanCache()
        child = CooTensor(
            tensor3.shape, tensor3.indices, tensor3.values * 2, validate=False
        )
        for kind in sorted(STRUCTURAL_KINDS):
            cache.get(tensor3, kind, 0, lambda: f"plan-{kind}")
        for kind in sorted(VALUE_BEARING_KINDS):
            cache.get(tensor3, kind, 0, lambda: f"plan-{kind}")
        shared = cache.adopt(child, tensor3)
        assert shared == len(STRUCTURAL_KINDS)
        for kind in STRUCTURAL_KINDS:
            assert cache.peek(child, kind, 0) == f"plan-{kind}"
        for kind in VALUE_BEARING_KINDS:
            assert cache.peek(child, kind, 0) is None

    def test_stats_snapshot(self, tensor3):
        cache = PlanCache()
        cache.get(tensor3, "mode_sort", 0, lambda: "a")
        cache.get(tensor3, "mode_sort", 0, lambda: "a")
        stats = cache.stats()
        assert stats.hits == 1 and stats.misses == 1
        assert stats.hit_rate == pytest.approx(0.5)
        assert stats.by_kind["mode_sort"] == (1, 1)
        cache.reset_stats()
        assert cache.stats().hits == 0
        # Plans survive a counter reset.
        assert cache.peek(tensor3, "mode_sort", 0) == "a"


class _Tokened:
    """Minimal stand-in for a token-bearing tensor (MmapCooTensor)."""

    def __init__(self, token):
        self.plan_cache_token = token


class TestTokenKeyedPlans:
    def test_same_token_shares_plans(self, tmp_path, rng):
        from repro.io import open_bin, write_coo

        tensor = CooTensor.random((12, 9, 7), 80, rng=rng)
        write_coo(tensor, tmp_path / "t.bin", chunk_nnz=31)
        cache = PlanCache()
        built = []
        with open_bin(tmp_path / "t.bin") as a, open_bin(tmp_path / "t.bin") as b:
            cache.get(a, "ooc_chunk", (0, 0, 31), lambda: built.append(1) or "p")
            assert cache.get(b, "ooc_chunk", (0, 0, 31), lambda: "other") == "p"
        assert len(built) == 1
        assert cache.hits("ooc_chunk") == 1

    def test_rewritten_file_misses_cleanly(self, tmp_path, rng):
        from repro.io import open_bin, write_coo

        path = tmp_path / "t.bin"
        write_coo(CooTensor.random((12, 9, 7), 80, rng=rng), path)
        cache = PlanCache()
        with open_bin(path) as a:
            cache.get(a, "ooc_chunk", 0, lambda: "stale")
        write_coo(CooTensor.random((12, 9, 7), 70, rng=rng), path)
        with open_bin(path) as b:
            assert cache.peek(b, "ooc_chunk", 0) is None
            assert cache.get(b, "ooc_chunk", 0, lambda: "fresh") == "fresh"

    def test_evict_drops_a_single_plan(self):
        cache = PlanCache()
        t = _Tokened(("mmap-coo", "/x", 1, 2, 3))
        cache.get(t, "ooc_chunk", "a", lambda: "pa")
        cache.get(t, "ooc_chunk", "b", lambda: "pb")
        assert cache.evict(t, "ooc_chunk", "a") is True
        assert cache.evict(t, "ooc_chunk", "a") is False
        assert cache.peek(t, "ooc_chunk", "a") is None
        assert cache.peek(t, "ooc_chunk", "b") == "pb"

    def test_evict_handle_only_needs_the_token(self):
        # ooc's LRU evicts through a shim object carrying just the token.
        cache = PlanCache()
        cache.get(_Tokened("tok"), "ooc_chunk", 0, lambda: "p")
        assert cache.evict(_Tokened("tok"), "ooc_chunk", 0) is True

    def test_token_lru_capacity_bounds_files(self):
        from repro.perf.plan_cache import TOKEN_LRU_CAPACITY

        cache = PlanCache()
        tensors = [_Tokened(("f", i)) for i in range(TOKEN_LRU_CAPACITY + 2)]
        for i, t in enumerate(tensors):
            cache.get(t, "ooc_chunk", 0, lambda i=i: f"p{i}")
        assert cache.stats().tensors == TOKEN_LRU_CAPACITY
        # The two least recently used files were dropped.
        assert cache.peek(tensors[0], "ooc_chunk", 0) is None
        assert cache.peek(tensors[1], "ooc_chunk", 0) is None
        assert cache.peek(tensors[-1], "ooc_chunk", 0) == f"p{len(tensors) - 1}"

    def test_invalidate_by_token(self):
        cache = PlanCache()
        t = _Tokened("tok")
        cache.get(t, "ooc_chunk", 0, lambda: "a")
        cache.get(t, "mode_sort", 0, lambda: "b")
        assert cache.invalidate(_Tokened("tok")) == 2
        assert cache.peek(t, "ooc_chunk", 0) is None


class TestGlobalCacheScoping:
    def test_fresh_cache_swaps_and_restores(self, tensor3):
        outer = get_plan_cache()
        with fresh_cache() as inner:
            assert get_plan_cache() is inner
            assert inner is not outer
            mode_sort_plan(tensor3, 0)
            assert inner.misses(KIND_MODE_SORT) == 1
        assert get_plan_cache() is outer

    def test_module_level_invalidate(self, tensor3):
        with fresh_cache():
            mode_sort_plan(tensor3, 0)
            assert invalidate(tensor3) == 1
            assert invalidate(tensor3) == 0


class TestCachedPlanReuse:
    def test_fiber_partition_reuses_plan(self, tensor3):
        with fresh_cache() as cache:
            ordered_a, fptr_a = tensor3.fiber_partition(1)
            ordered_b, fptr_b = tensor3.fiber_partition(1)
            assert cache.hits(KIND_FIBER) == 1
            assert cache.misses(KIND_FIBER) == 1
            assert fptr_a is fptr_b
            np.testing.assert_array_equal(ordered_a.indices, ordered_b.indices)

    def test_fiber_plan_matches_uncached_partition(self, tensor3):
        with fresh_cache():
            ordered, fptr = tensor3.fiber_partition(2)
            warm_ordered, warm_fptr = tensor3.fiber_partition(2)
        _assert_fiber_partition(tensor3, 2, ordered, fptr)
        np.testing.assert_array_equal(fptr, warm_fptr)
        np.testing.assert_array_equal(ordered.indices, warm_ordered.indices)
        np.testing.assert_array_equal(ordered.values, warm_ordered.values)

    def test_hicoo_for_returns_same_object(self, tensor3):
        with fresh_cache():
            a = hicoo_for(tensor3, 8)
            b = hicoo_for(tensor3, 8)
            c = hicoo_for(tensor3, 16)
        assert a is b
        assert c is not a and c.block_size == 16
        assert a.to_coo().allclose(tensor3)

    def test_hicoo_conversion_matches_uncached(self, tensor3):
        with fresh_cache():
            cold = HicooTensor.from_coo(tensor3, 8)
            warm = HicooTensor.from_coo(tensor3, 8)
        np.testing.assert_array_equal(
            cold.to_coo().to_dense().astype(np.float64),
            tensor3.to_dense().astype(np.float64),
        )
        np.testing.assert_array_equal(cold.bptr, warm.bptr)
        np.testing.assert_array_equal(cold.binds, warm.binds)
        np.testing.assert_array_equal(cold.einds, warm.einds)
        np.testing.assert_array_equal(cold.values, warm.values)

    def test_ts_output_adopts_structural_plans(self, tensor3):
        from repro.core.ts import ts_mul

        with fresh_cache() as cache:
            tensor3.fiber_partition(0)
            doubled = ts_mul(tensor3, 2.0)
            assert cache.peek(doubled, KIND_FIBER, 0) is not None
            # The adopted plan is correct for the child: same coordinates.
            ordered, fptr = doubled.fiber_partition(0)
            assert cache.hits(KIND_FIBER) == 1
        _assert_fiber_partition(doubled, 0, ordered, fptr)


class TestSortedValues:
    """The values in mode-sort order: cached per mode, value-bearing."""

    def test_invalidate_after_mutation_gives_fresh_values(self, tensor3):
        from repro.perf.plans import build_mode_sort_plan, sorted_values_for

        with fresh_cache() as cache:
            first = sorted_values_for(tensor3, 1)
            assert sorted_values_for(tensor3, 1) is first
            tensor3.values += 1.0
            cache.invalidate(tensor3)
            fresh = sorted_values_for(tensor3, 1)
        perm = build_mode_sort_plan(tensor3, 1).perm
        assert fresh.dtype == np.float32
        np.testing.assert_array_equal(fresh, tensor3.values[perm])

    def test_adopt_does_not_carry_the_copy(self, tensor3):
        from repro.perf.plans import KIND_SORTED_VALUES, sorted_values_for

        with fresh_cache() as cache:
            sorted_values_for(tensor3, 0)
            child = CooTensor(
                tensor3.shape, tensor3.indices, tensor3.values * 2, validate=False
            )
            cache.adopt(child, tensor3)
            assert cache.peek(child, KIND_MODE_SORT, 0) is not None
            assert cache.peek(child, KIND_SORTED_VALUES, 0) is None
            perm = cache.peek(child, KIND_MODE_SORT, 0).perm
            np.testing.assert_array_equal(
                sorted_values_for(child, 0), child.values[perm]
            )


class TestNarrowSortKeys:
    """Mode sorts run on narrowed keys; the plan must not notice."""

    @staticmethod
    def _assert_plan_matches_wide_sort(indices, mode):
        from repro.perf.plans import _build_mode_sort

        plan = _build_mode_sort(indices, mode)
        perm = np.argsort(indices[mode].astype(np.int64), kind="stable")
        # perm is only a gather index: int32 whenever nnz fits.
        assert plan.perm.dtype == np.int32
        np.testing.assert_array_equal(plan.perm, perm)
        np.testing.assert_array_equal(plan.sorted_indices, indices[:, perm])
        targets = indices[mode][perm]
        starts = np.flatnonzero(
            np.concatenate(([True], targets[1:] != targets[:-1]))
        ) if targets.size else np.empty(0, dtype=np.int64)
        np.testing.assert_array_equal(plan.segment_starts, starts)
        np.testing.assert_array_equal(plan.unique_targets, targets[starts])

    @pytest.mark.parametrize("top", [0, 255, 256, 65535, 65536])
    def test_perm_equals_int64_stable_argsort(self, rng, top):
        indices = rng.integers(0, top + 1, size=(3, 3000)).astype(np.int32)
        indices[1, 17] = top
        self._assert_plan_matches_wide_sort(indices, 1)

    def test_all_equal_keys(self):
        indices = np.full((3, 500), 300, dtype=np.int32)
        self._assert_plan_matches_wide_sort(indices, 0)

    def test_empty_keys(self):
        self._assert_plan_matches_wide_sort(np.empty((3, 0), np.int32), 2)
