"""Tests for the two-stage autotuner and the ``variant="auto"`` dispatch.

Covers the tuner's contract end to end: deterministic model-only
selection, probe accounting, what a cold tuning builds, the on-disk
tuning cache (hit skips probes, corrupt/missing file degrades to
tuning), the in-process decision memo, probe sets shared across modes,
exact agreement between ``variant="auto"`` and a direct invocation of
the winning configuration, the ``repro tune`` CLI, and the vectorized
HiCOO conversion fast path against its preserved reference.
"""

from __future__ import annotations

import itertools
import json

import numpy as np
import pytest

from repro.cli import main
from repro.core.mttkrp import mttkrp_coo
from repro.core.ttm import ttm_coo
from repro.core.ttv import ttv_coo
from repro.errors import PastaError
from repro.formats import CooTensor, CsfTensor, HicooTensor
from repro.perf import (
    autotune,
    dispatch,
    fresh_cache,
    get_num_threads,
    parallel_config,
)
from repro.perf.autotune import (
    BLOCK_SIZES,
    DISK_VERSION,
    TuneConfig,
    candidate_configs,
    decide,
    disk_cache_disabled,
    last_tuning_report,
    machine_signature,
    probe_count,
    reload_disk_cache,
    tensor_fingerprint,
    tune,
    tuning_cache_path,
)
from repro.perf.partition import POLICIES
from repro.perf.timing import (
    budgeted_min_seconds,
    median_of_k,
    min_of_k,
    time_once,
    warmup,
)

FAST = {"budget_ms": 1.0, "top_k": 2}  # keep probe stages quick in tests


@pytest.fixture
def tensor():
    rng = np.random.default_rng(77)
    return CooTensor.random((30, 25, 20), 1500, rng=rng)


@pytest.fixture
def factors(tensor):
    rng = np.random.default_rng(3)
    return [
        rng.uniform(0.5, 1.5, size=(s, 8)).astype(np.float32)
        for s in tensor.shape
    ]


@pytest.fixture
def tune_cache(tmp_path, monkeypatch):
    """Redirect the tuning cache to a temp file for the test's duration."""
    path = tmp_path / "tuning.json"
    monkeypatch.setenv(autotune.ENV_CACHE, str(path))
    reload_disk_cache()
    yield path
    reload_disk_cache()


class TestTuneConfig:
    def test_roundtrip(self):
        config = TuneConfig("hicoo", 32, 4, "guided")
        assert TuneConfig.from_dict(config.to_dict()) == config

    def test_labels(self):
        assert TuneConfig("coo", None, 1, "dynamic").label() == "coo serial"
        assert (
            TuneConfig("hicoo", 64, 2, "static").label()
            == "hicoo[B=64] 2T static"
        )


class TestCandidates:
    def test_mttkrp_space(self):
        from repro.perf import jit

        configs = candidate_configs("MTTKRP", max_threads=4)
        variants = {c.variant for c in configs}
        expected = {"coo", "hicoo", "csf"}
        if jit.jit_available():
            expected |= {"coo_jit", "hicoo_jit"}
        assert variants == expected
        assert all(c.num_threads >= 1 for c in configs)
        # One family per format over the thread grid, the compiled ones
        # included; both hicoo families sweep the block size.
        for variant in variants - {"csf"}:
            family = [c for c in configs if c.variant == variant]
            assert {c.num_threads for c in family} == {1, 2, 4}
            if variant.startswith("hicoo"):
                assert {c.block_size for c in family} == set(BLOCK_SIZES)

    def test_jit_variants_absent_when_disabled(self, monkeypatch):
        from repro.perf import jit

        monkeypatch.setenv(jit.ENV_JIT, "0")
        configs = candidate_configs("MTTKRP", max_threads=4)
        assert all("_jit" not in c.variant for c in configs)

    def test_ttm_has_no_csf(self):
        assert all(c.variant != "csf" for c in candidate_configs("TTM"))


class TestFingerprint:
    def test_values_do_not_matter(self, tensor):
        twin = CooTensor(
            tensor.shape, tensor.indices, tensor.values * 2.0
        )
        with fresh_cache():
            a = tensor_fingerprint(tensor)
        with fresh_cache():
            b = tensor_fingerprint(twin)
        assert a == b

    def test_structure_does_matter(self, tensor):
        rng = np.random.default_rng(78)
        other = CooTensor.random((30, 25, 20), 900, rng=rng)
        with fresh_cache():
            assert tensor_fingerprint(tensor) != tensor_fingerprint(other)

    def test_machine_signature_shape(self):
        sig = machine_signature()
        assert "cpu" in sig and "py" in sig and "np" in sig


class TestModelStage:
    def test_model_only_is_deterministic(self, tensor):
        with disk_cache_disabled():
            with fresh_cache():
                first = tune(tensor, "MTTKRP", probe=False)
            with fresh_cache():
                second = tune(tensor, "MTTKRP", probe=False)
        assert first.chosen == second.chosen
        assert first.probes_run == 0 and second.probes_run == 0
        modeled = [c.modeled_seconds for c in first.candidates]
        assert modeled == sorted(modeled)

    def test_no_probe_skips_probes(self, tensor):
        with disk_cache_disabled(), fresh_cache():
            before = probe_count()
            report = tune(tensor, "TTV", probe=False)
        assert probe_count() == before
        assert all(c.measured_seconds is None for c in report.candidates)

    def test_unknown_kernel_rejected(self, tensor):
        with pytest.raises(PastaError):
            tune(tensor, "TEW")

    @pytest.mark.parametrize("kernel", ["MTTKRP", "TTV"])
    def test_model_stage_builds_no_csf_tree(self, tensor, kernel, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the model stage built a CSF tree")

        monkeypatch.setattr(CsfTensor, "from_coo", refuse)
        with disk_cache_disabled(), fresh_cache():
            report = tune(tensor, kernel, probe=False)
        assert any(c.config.variant == "csf" for c in report.candidates)

    def test_cold_tuning_builds_one_hicoo_and_no_fiber_plan(
        self, tensor, monkeypatch
    ):
        # The CSF sort bound prunes here, so no fiber partition is built,
        # and the fingerprint's HiCOO is the plan-cached conversion.
        _stub_probes(monkeypatch, lambda c: 1.0)
        with disk_cache_disabled(), fresh_cache() as cache:
            report = tune(tensor, "MTTKRP")
            assert cache.misses("fiber_partition") == 0
            assert cache.misses("hicoo_build") == 1
        assert "csf_bound" in report.notes
        csf = next(c for c in report.candidates if c.config.variant == "csf")
        assert csf.modeled_seconds == report.notes["csf_bound"]

    def test_tiny_input_models_csf_exactly(self):
        rng = np.random.default_rng(5)
        tiny = CooTensor.random((6, 5, 4), 20, rng=rng)
        rank = 64
        with disk_cache_disabled(), fresh_cache() as cache:
            report = tune(tiny, "MTTKRP", rank=rank, probe=False)
            assert cache.misses("fiber_partition") > 0
            csf = next(c for c in report.candidates if c.config.variant == "csf")
            exact = autotune._modeled_candidate_seconds(
                tiny, autotune._features_for(tiny), "MTTKRP", 0, rank, csf.config
            )
        best_serial = min(
            c.modeled_seconds
            for c in report.candidates
            if c.config.num_threads == 1 and c.config.variant != "csf"
        )
        assert autotune._csf_sort_seconds(tiny) <= best_serial
        assert "csf_bound" not in report.notes
        assert csf.modeled_seconds == exact > autotune._csf_sort_seconds(tiny)

    def test_coo_jit_models_ahead_of_hicoo_jit_on_power_law(self):
        from repro.generators.powerlaw import powerlaw_tensor

        x = powerlaw_tensor((2000, 2000, 2000), 6000, alpha=1.3, seed=1)
        threads = (1, 2, 4)
        with fresh_cache():
            features = autotune._features_for(x)
            for mode in range(x.order):
                schedules = {}

                def best(variant, blocks=(None,)):
                    return {
                        t: min(
                            autotune._modeled_candidate_seconds(
                                x, features, "MTTKRP", mode, 16, c, schedules
                            )
                            for c in autotune._grid(variant, (t,), blocks)
                        )
                        for t in threads
                    }

                coo = best("coo_jit")
                hicoo = best("hicoo_jit", BLOCK_SIZES)
                for t in threads:
                    assert coo[t] < hicoo[t], (mode, t)

    def test_env_knobs(self, tensor, monkeypatch):
        monkeypatch.setenv(autotune.ENV_TOPK, "1")
        monkeypatch.setenv(autotune.ENV_BUDGET_MS, "0.5")
        with disk_cache_disabled(), fresh_cache():
            report = tune(tensor, "MTTKRP")
        assert report.top_k == 1
        assert report.budget_ms == 0.5
        assert report.probes_run == 1


class TestDiskCache:
    def test_probed_decision_persists(self, tensor, tune_cache):
        with fresh_cache():
            first = tune(tensor, "MTTKRP", **FAST)
        assert first.probes_run > 0
        assert first.cache_hit is None
        assert tune_cache.exists()
        data = json.loads(tune_cache.read_text())
        assert data["version"] == DISK_VERSION and len(data["entries"]) == 1

    def test_hit_skips_probes_and_reproduces_choice(self, tensor, tune_cache):
        with fresh_cache():
            first = tune(tensor, "MTTKRP", **FAST)
        before = probe_count()
        with fresh_cache():  # fresh plan cache: only the disk can answer
            second = tune(tensor, "MTTKRP", **FAST)
        assert probe_count() == before
        assert second.cache_hit == "disk"
        assert second.probes_run == 0
        assert second.chosen == first.chosen

    def test_corrupt_cache_degrades_to_tuning(self, tensor, tune_cache):
        tune_cache.write_text("{not json at all")
        reload_disk_cache()
        with fresh_cache():
            report = tune(tensor, "MTTKRP", **FAST)
        assert report.cache_hit is None
        assert report.probes_run > 0

    def test_missing_cache_dir_is_fine(self, tensor, tmp_path, monkeypatch):
        deep = tmp_path / "a" / "b" / "tuning.json"
        monkeypatch.setenv(autotune.ENV_CACHE, str(deep))
        reload_disk_cache()
        with fresh_cache():
            report = tune(tensor, "TTV", **FAST)
        assert report.chosen is not None
        reload_disk_cache()

    def test_disabled_cache_writes_nothing(self, tensor, tune_cache):
        with disk_cache_disabled(), fresh_cache():
            tune(tensor, "MTTKRP", **FAST)
        assert not tune_cache.exists()

    def test_model_only_not_persisted(self, tensor, tune_cache):
        with fresh_cache():
            tune(tensor, "MTTKRP", probe=False)
        assert not tune_cache.exists()

    def test_stale_variant_entries_are_retuned(
        self, tensor, factors, tune_cache, monkeypatch
    ):
        # A variant that no longer exists, and one with no TTV kernel:
        # variant="auto" must treat both as misses, re-tune and overwrite.
        monkeypatch.setenv(autotune.ENV_BUDGET_MS, "1")
        fingerprint = tensor_fingerprint(tensor)
        machine = machine_signature()
        planted = {
            autotune._disk_key(fingerprint, machine, "MTTKRP", 0, 8): TuneConfig(
                "hicoo_jit_mt", 128, 2, "static"
            ),
            autotune._disk_key(fingerprint, machine, "TTV", 0, 16): TuneConfig(
                "hicoo_jit", 128, 1, "dynamic"
            ),
        }
        tune_cache.write_text(
            json.dumps(
                {
                    "version": DISK_VERSION,
                    "entries": {
                        key: {"config": config.to_dict()}
                        for key, config in planted.items()
                    },
                }
            )
        )
        reload_disk_cache()
        v = factors[0][:, 0].copy()
        with fresh_cache():
            out = dispatch.mttkrp(tensor, factors, 0, variant="auto")
            ttv_out = dispatch.ttv(tensor, v, 0, variant="auto")
        np.testing.assert_allclose(
            out, mttkrp_coo(tensor, factors, 0), rtol=1e-4, atol=1e-5
        )
        if isinstance(ttv_out, HicooTensor):
            ttv_out = ttv_out.to_coo()
        np.testing.assert_allclose(
            ttv_out.to_dense(),
            ttv_coo(tensor, v, 0).to_dense(),
            rtol=1e-4,
            atol=1e-5,
        )
        entries = json.loads(tune_cache.read_text())["entries"]
        for key, stale in planted.items():
            assert entries[key]["config"] != stale.to_dict()
            assert "measured_seconds" in entries[key]

    @pytest.mark.parametrize(
        "corrupt",
        [
            {"schedule": "bogus", "num_threads": 3},
            {"num_threads": 0},
            {"block_size": 100},
        ],
        ids=["schedule", "threads", "block_size"],
    )
    def test_unrunnable_entries_are_retuned(
        self, tensor, factors, tune_cache, monkeypatch, corrupt
    ):
        # An entry no run could execute is a miss: variant="auto" must
        # re-tune and overwrite it, not raise half-way through applying
        # it with the planted thread count left behind.
        monkeypatch.setenv(autotune.ENV_BUDGET_MS, "1")
        key = autotune._disk_key(
            tensor_fingerprint(tensor), machine_signature(), "MTTKRP", 0, 8
        )
        planted = {**TuneConfig("hicoo", 64, 1, "dynamic").to_dict(), **corrupt}
        tune_cache.write_text(
            json.dumps(
                {"version": DISK_VERSION, "entries": {key: {"config": planted}}}
            )
        )
        reload_disk_cache()
        threads = get_num_threads()
        with fresh_cache():
            out = dispatch.mttkrp(tensor, factors, 0, variant="auto")
        assert get_num_threads() == threads
        np.testing.assert_allclose(
            out, mttkrp_coo(tensor, factors, 0), rtol=1e-4, atol=1e-5
        )
        entries = json.loads(tune_cache.read_text())["entries"]
        assert entries[key]["config"] != planted

    def test_other_version_entries_are_retuned(self, tensor, tune_cache):
        # A version-1 file predates thread-count probes: its 2T decision
        # is a miss, re-tuned and written back under the current version.
        key = autotune._disk_key(
            tensor_fingerprint(tensor), machine_signature(), "MTTKRP", 0, 16
        )
        stale = TuneConfig("coo", None, 2, "static").to_dict()
        tune_cache.write_text(
            json.dumps({"version": 1, "entries": {key: {"config": stale}}})
        )
        reload_disk_cache()
        with fresh_cache():
            report = tune(tensor, "MTTKRP", **FAST)
        assert report.cache_hit is None
        assert report.probes_run > 0
        data = json.loads(tune_cache.read_text())
        assert data["version"] == DISK_VERSION
        assert data["entries"][key]["config"] == report.chosen.to_dict()
        assert "measured_seconds" in data["entries"][key]

    def test_version_2_file_reads_empty_and_is_rewritten(self, tensor, tune_cache):
        # Version-2 keys hashed fiber counts; the file reads as empty.
        key = autotune._disk_key(
            tensor_fingerprint(tensor), machine_signature(), "MTTKRP", 0, 16
        )
        old = {"config": TuneConfig("coo", None, 1, "dynamic").to_dict()}
        tune_cache.write_text(json.dumps({"version": 2, "entries": {key: old}}))
        reload_disk_cache()
        assert autotune._disk_entries(tune_cache) == {}
        with fresh_cache():
            report = tune(tensor, "MTTKRP", **FAST)
        assert report.cache_hit is None and report.probes_run > 0
        data = json.loads(tune_cache.read_text())
        assert data["version"] == DISK_VERSION == 4
        assert data["entries"][key]["config"] == report.chosen.to_dict()

    def test_cache_path_override(self, tune_cache):
        assert tuning_cache_path() == tune_cache


@pytest.fixture
def no_cutover():
    """Keep multi-thread candidates for the small test tensor."""
    with parallel_config(min_parallel_nnz=0):
        yield


def _stub_probes(monkeypatch, seconds_for):
    """Replace the micro-probe with a fixed time per config; log the calls."""
    probed = []

    def fake(coo, kernel, mode, operands, config, budget_seconds):
        probed.append(config)
        return seconds_for(config), 2

    monkeypatch.setattr(autotune, "_probe_candidate", fake)
    return probed


class TestProbeSet:
    def test_serial_win_probes_one_per_thread_count(
        self, tensor, no_cutover, monkeypatch
    ):
        probed = _stub_probes(
            monkeypatch, lambda c: 1.0 if c.num_threads == 1 else 2.0
        )
        with disk_cache_disabled(), fresh_cache():
            model = tune(tensor, "MTTKRP", probe=False, max_threads=4)
            report = tune(tensor, "MTTKRP", top_k=3, max_threads=4)
        assert report.chosen.num_threads == 1
        assert sorted(c.num_threads for c in probed) == [1, 2, 4]
        assert report.probes_run == len(probed) == 3
        # Each probe is the model's best candidate at its thread count.
        for config in probed:
            best = next(
                c.config
                for c in model.candidates
                if c.config.num_threads == config.num_threads
            )
            assert config == best
        speedup = report.notes["thread_speedup"]
        assert speedup["measured"] == pytest.approx(0.5)
        assert speedup["modeled"] > 0

    def test_top_k_cap_keeps_serial(self, tensor, no_cutover, monkeypatch):
        probed = _stub_probes(
            monkeypatch, lambda c: 1.0 if c.num_threads == 1 else 2.0
        )
        with disk_cache_disabled(), fresh_cache():
            report = tune(tensor, "MTTKRP", top_k=2, max_threads=4)
            assert report.probes_run == 2
            only = tune(tensor, "TTV", top_k=1, max_threads=4)
        assert 1 in {c.num_threads for c in probed[:2]}
        assert len({c.num_threads for c in probed[:2]}) == 2
        assert only.probes_run == 1 and probed[2].num_threads == 1
        assert "thread_speedup" not in only.notes

    def test_team_win_probes_its_schedules(self, tensor, no_cutover, monkeypatch):
        def seconds(config):
            if config.num_threads == 4:
                return 1.0 if config.schedule == POLICIES[-1] else 1.5
            return 2.0

        probed = _stub_probes(monkeypatch, seconds)
        top_k = 3
        with disk_cache_disabled(), fresh_cache():
            report = tune(tensor, "MTTKRP", top_k=top_k, max_threads=4)
        first, schedules = probed[:top_k], probed[top_k:]
        assert sorted(c.num_threads for c in first) == [1, 2, 4]
        team = next(c for c in first if c.num_threads == 4)
        assert {c.schedule for c in [team] + schedules} == set(POLICIES)
        assert all(
            (c.variant, c.block_size, c.num_threads)
            == (team.variant, team.block_size, 4)
            for c in schedules
        )
        assert report.probes_run == len(probed) <= top_k + len(POLICIES) - 1
        assert report.chosen == TuneConfig(
            team.variant, team.block_size, 4, POLICIES[-1]
        )
        assert report.notes["thread_speedup"]["measured"] == pytest.approx(2.0)

    def test_cli_prints_thread_speedup(
        self, capsys, tune_cache, no_cutover, monkeypatch
    ):
        _stub_probes(monkeypatch, lambda c: 1.0 if c.num_threads == 1 else 2.0)
        with parallel_config(num_threads=2):
            code = main(["tune", "r1", "--scale-divisor", "16384", "--no-cache"])
        assert code == 0
        assert "0.50x measured" in capsys.readouterr().out


class TestDecideMemo:
    def test_second_decision_runs_no_probes(self, tensor):
        with disk_cache_disabled(), fresh_cache():
            first = decide(tensor, "MTTKRP", **FAST)
            before = probe_count()
            second = decide(tensor, "MTTKRP", **FAST)
        assert probe_count() == before
        assert second == first

    def test_distinct_modes_get_distinct_decisions(self, tensor):
        with disk_cache_disabled(), fresh_cache():
            decide(tensor, "TTV", mode=0, **FAST)
            decide(tensor, "TTV", mode=1, **FAST)
            assert last_tuning_report().mode == 1  # a new mode is a new tuning
        # Under one cache mode 1 may commit mode 0's probes (TestSharedProbes);
        # a fresh cache has none to share.
        with disk_cache_disabled(), fresh_cache():
            before = probe_count()
            decide(tensor, "TTV", mode=1, **FAST)
        assert probe_count() > before


@pytest.fixture
def symmetric():
    """Every permutation of every coordinate: all modes share one structure,
    so every mode's model ranks the candidates alike."""
    rng = np.random.default_rng(21)
    base = rng.integers(0, 24, size=(3, 400))
    indices = np.unique(
        np.hstack([base[list(p)] for p in itertools.permutations(range(3))]),
        axis=1,
    )
    values = rng.uniform(0.5, 1.5, size=indices.shape[1]).astype(np.float32)
    return CooTensor((24, 24, 24), indices, values)


def _probe_set(tensor, mode, top_k, max_threads=4):
    model = tune(tensor, "MTTKRP", mode=mode, probe=False, max_threads=max_threads)
    return [c.config for c in autotune._thread_probe_set(list(model.candidates), top_k)]


class TestSharedProbes:
    def test_identical_probe_sets_probe_once(self, symmetric, no_cutover, monkeypatch):
        probed = _stub_probes(
            monkeypatch, lambda c: 1.0 if c.num_threads == 4 else 2.0
        )
        with disk_cache_disabled(), fresh_cache():
            picks = [_probe_set(symmetric, mode, 3) for mode in range(3)]
            assert picks[0] == picks[1] == picks[2]
            assert sorted(c.num_threads for c in picks[0]) == [1, 2, 4]
            reports = [
                tune(symmetric, "MTTKRP", mode=mode, top_k=3, max_threads=4)
                for mode in range(3)
            ]
        first, *rest = reports
        assert first.probes_run == len(probed) > 0 and first.cache_hit is None
        for report in rest:
            assert report.probes_run == 0
            assert report.cache_hit == "shared"
            assert report.notes["shared_with_mode"] == 0
            assert report.chosen == first.chosen
            measured = {c.config: c.measured_seconds for c in report.candidates}
            assert all(measured[c.config] == c.measured_seconds
                       for c in first.candidates[: first.probes_run])

    def test_different_probe_sets_each_probe(self, symmetric, no_cutover, monkeypatch):
        probed = _stub_probes(monkeypatch, lambda c: 1.0)
        with disk_cache_disabled(), fresh_cache():
            assert _probe_set(symmetric, 0, 1) != _probe_set(symmetric, 1, 3)
            first = tune(symmetric, "MTTKRP", mode=0, top_k=1, max_threads=4)
            second = tune(symmetric, "MTTKRP", mode=1, top_k=3, max_threads=4)
        assert first.probes_run == 1 and second.probes_run >= 3
        assert len(probed) == first.probes_run + second.probes_run
        assert second.cache_hit is None

    def test_same_mode_retune_probes_again(self, symmetric, no_cutover, monkeypatch):
        probed = _stub_probes(monkeypatch, lambda c: 1.0)
        with disk_cache_disabled(), fresh_cache():
            first = tune(symmetric, "MTTKRP", mode=0, max_threads=4)
            again = tune(symmetric, "MTTKRP", mode=0, max_threads=4)
        assert again.cache_hit is None
        assert again.probes_run == first.probes_run == len(probed) // 2

    def test_each_mode_gets_its_disk_entry(
        self, symmetric, no_cutover, tune_cache, monkeypatch
    ):
        _stub_probes(monkeypatch, lambda c: 1.0)
        with fresh_cache():
            reports = [
                tune(symmetric, "MTTKRP", mode=mode, max_threads=4)
                for mode in range(2)
            ]
        assert reports[1].cache_hit == "shared"
        entries = json.loads(tune_cache.read_text())["entries"]
        fingerprint = reports[0].fingerprint
        for report in reports:
            key = autotune._disk_key(
                fingerprint, report.machine, "MTTKRP", report.mode, report.rank
            )
            assert entries[key]["config"] == report.chosen.to_dict()

    def test_auto_matches_chosen_config_on_every_mode(
        self, symmetric, no_cutover, monkeypatch
    ):
        # Real probes at the ambient thread count: 1/2/4T under
        # REPRO_NUM_THREADS=4; later modes commit what mode 0 measured.
        monkeypatch.setenv(autotune.ENV_BUDGET_MS, "1")
        rng = np.random.default_rng(8)
        factors = [
            rng.uniform(0.5, 1.5, size=(s, 8)).astype(np.float32)
            for s in symmetric.shape
        ]
        with disk_cache_disabled(), fresh_cache():
            for mode in range(symmetric.order):
                auto = dispatch.mttkrp(symmetric, factors, mode, variant="auto")
                report = last_tuning_report()
                assert report.mode == mode
                assert report.cache_hit == (None if mode == 0 else "shared")
                direct = dispatch.mttkrp(
                    symmetric, factors, mode, variant=report.chosen
                )
                assert np.array_equal(auto, direct)


class TestDispatch:
    def test_auto_equals_direct_winner(self, tensor, factors):
        with disk_cache_disabled(), fresh_cache():
            chosen = dispatch.resolve_config(
                tensor, "MTTKRP", variant="auto", rank=8, probe=False
            )
            auto = dispatch.mttkrp(tensor, factors, 0, variant="auto", probe=False)
            direct = dispatch.mttkrp(tensor, factors, 0, variant=chosen)
        assert np.array_equal(auto, direct)

    def test_explicit_coo_matches_core_kernel(self, tensor, factors):
        with disk_cache_disabled(), fresh_cache():
            via_dispatch = dispatch.mttkrp(tensor, factors, 1, variant="coo")
        assert np.array_equal(via_dispatch, mttkrp_coo(tensor, factors, 1))

    def test_variants_agree_mttkrp(self, tensor, factors):
        with disk_cache_disabled(), fresh_cache():
            baseline = mttkrp_coo(tensor, factors, 0)
            for variant in ("hicoo", "csf"):
                out = dispatch.mttkrp(tensor, factors, 0, variant=variant)
                np.testing.assert_allclose(
                    out, baseline, rtol=1e-4, atol=1e-5
                )

    def test_variants_agree_ttv(self, tensor):
        rng = np.random.default_rng(5)
        v = rng.uniform(0.5, 1.5, size=tensor.shape[2]).astype(np.float32)
        with disk_cache_disabled(), fresh_cache():
            baseline = ttv_coo(tensor, v, 2).to_dense()
            for variant in ("coo", "hicoo", "csf"):
                out = dispatch.ttv(tensor, v, 2, variant=variant)
                if isinstance(out, HicooTensor):
                    out = out.to_coo()
                np.testing.assert_allclose(
                    out.to_dense(), baseline, rtol=1e-4, atol=1e-5
                )

    def test_variants_agree_ttm(self, tensor):
        rng = np.random.default_rng(6)
        m = rng.uniform(0.5, 1.5, size=(tensor.shape[1], 6)).astype(np.float32)
        with disk_cache_disabled(), fresh_cache():
            baseline = ttm_coo(tensor, m, 1).to_coo()
            for variant in ("coo", "hicoo"):
                out = dispatch.ttm(tensor, m, 1, variant=variant).to_coo()
                assert np.array_equal(out.indices, baseline.indices)
                np.testing.assert_allclose(
                    out.values, baseline.values, rtol=1e-4, atol=1e-5
                )

    def test_csf_rejected_for_ttm(self, tensor):
        with pytest.raises(PastaError):
            dispatch.resolve_config(tensor, "TTM", variant="csf")

    def test_unknown_variant_rejected(self, tensor):
        with pytest.raises(PastaError):
            dispatch.resolve_config(tensor, "MTTKRP", variant="cxx")

    @pytest.mark.parametrize("variant", ["coo_jit_mt", "hicoo_jit_mt"])
    def test_removed_thread_variants_are_unknown(self, tensor, factors, variant):
        # The thread count is config, not a variant name.
        with pytest.raises(PastaError, match="unknown variant"):
            dispatch.mttkrp(tensor, factors, 0, variant=variant)

    @pytest.mark.parametrize("variant", dispatch.VARIANTS)
    def test_mode_validated_by_every_variant(self, tensor, factors, variant):
        order = tensor.order
        with disk_cache_disabled(), fresh_cache():
            run = lambda mode: dispatch.mttkrp(  # noqa: E731
                tensor, factors, mode, variant=variant, probe=False
            )
            with pytest.raises(PastaError):
                run(order)
            assert np.array_equal(run(-1), run(order - 1))

    def test_hicoo_input_accepted(self, tensor, factors):
        hicoo = HicooTensor.from_coo(tensor, 32)
        with disk_cache_disabled(), fresh_cache():
            out = dispatch.mttkrp(hicoo, factors, 0, variant="coo")
            ref = dispatch.mttkrp(tensor, factors, 0, variant="coo")
        np.testing.assert_allclose(out, ref, rtol=1e-5, atol=1e-6)


class TestCli:
    def test_tune_table(self, capsys, tune_cache):
        code = main(
            [
                "tune", "r1", "--scale-divisor", "16384",
                "--budget-ms", "1", "--top-k", "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "modeled (ms)" in out and "measured (ms)" in out
        assert "chosen" in out

    def test_tune_prints_shared_mode(self, capsys, tune_cache, monkeypatch):
        real = autotune.tune

        def tune_after_mode_0(tensor, kernel, **kwargs):
            real(tensor, kernel, **{**kwargs, "mode": 0})
            return real(tensor, kernel, **kwargs)

        _stub_probes(monkeypatch, lambda c: 1.0)
        monkeypatch.setattr(autotune, "tune", tune_after_mode_0)
        with fresh_cache():
            code = main(
                ["tune", "r1", "--scale-divisor", "16384", "--mode", "1",
                 "--top-k", "1", "--no-cache"]
            )
        assert code == 0
        assert "shared with mode 0" in capsys.readouterr().out

    def test_tune_no_probe_no_cache(self, capsys, tune_cache):
        code = main(
            [
                "tune", "r1", "--scale-divisor", "16384",
                "--kernel", "TTV", "--no-probe", "--no-cache",
            ]
        )
        assert code == 0
        assert "chosen" in capsys.readouterr().out
        assert not tune_cache.exists()


class TestFromCooFastPath:
    @pytest.mark.parametrize("block_size", BLOCK_SIZES)
    def test_matches_reference(self, block_size):
        rng = np.random.default_rng(9)
        tensor = CooTensor.random((50, 33, 17), 2200, rng=rng)
        fast = HicooTensor.from_coo(tensor, block_size)
        ref = HicooTensor._from_coo_reference(tensor, block_size)
        assert np.array_equal(fast.bptr, ref.bptr)
        assert np.array_equal(fast.binds, ref.binds)
        assert np.array_equal(fast.einds, ref.einds)
        assert np.array_equal(fast.values, ref.values)

    def test_empty_tensor(self):
        empty = CooTensor(
            (8, 8, 8),
            np.empty((3, 0), dtype=np.int64),
            np.empty(0, dtype=np.float32),
        )
        h = HicooTensor.from_coo(empty, 16)
        assert h.nnz == 0 and h.num_blocks == 0

    def test_huge_block_grid_has_no_scalar_keys(self):
        from repro.formats.hicoo import _scalar_block_keys

        coords = np.zeros((3, 4), dtype=np.int64)
        keys = _scalar_block_keys(coords, (2**40, 2**40, 2**40), 16)
        assert keys is None


class TestTimingHelpers:
    def test_counters(self):
        calls = []
        warmup(lambda: calls.append(1), 3)
        assert len(calls) == 3
        assert time_once(lambda: calls.append(1)) >= 0.0
        assert min_of_k(lambda: calls.append(1), 2) >= 0.0
        assert median_of_k(lambda: calls.append(1), 3) >= 0.0

    def test_budgeted_respects_max_reps(self):
        best, reps = budgeted_min_seconds(
            lambda: None, 10.0, min_reps=1, max_reps=4
        )
        assert best >= 0.0
        assert 1 <= reps <= 4

    def test_budgeted_runs_min_reps(self):
        calls = []
        best, reps = budgeted_min_seconds(
            lambda: calls.append(1), 0.0, min_reps=2, max_reps=8
        )
        assert reps == 2 and len(calls) == 2
