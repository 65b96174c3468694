"""Tests for the ``repro lint`` static-analysis rules and infrastructure.

Each rule family is exercised with violating code, clean code, and
suppression comments; the baseline ratchet and JSON output schema are
pinned so CI consumers can rely on them.
"""

from __future__ import annotations

import json

import pytest

from repro.analysis import (
    Finding,
    apply_baseline,
    lint_source,
    load_baseline,
    rule_catalog,
    write_baseline,
)
from repro.analysis.baseline import BaselineError
from repro.cli import main as cli_main


def findings_for(source: str, path: str = "src/repro/some/module.py"):
    report = lint_source(source, path=path)
    assert not report.parse_errors
    return report.findings


def rules_of(findings):
    return {f.rule for f in findings}


# ----------------------------------------------------------------------
# dtype discipline
# ----------------------------------------------------------------------


class TestDtypeRule:
    def test_dtype_less_np_zeros_flagged(self):
        findings = findings_for("import numpy as np\nout = np.zeros((4, 4))\n")
        assert any(f.rule == "dtype" and "np.zeros" in f.message for f in findings)

    def test_np_zeros_with_dtype_clean(self):
        findings = findings_for(
            "import numpy as np\nout = np.zeros((4, 4), dtype=np.float64)\n"
        )
        assert "dtype" not in rules_of(findings)

    def test_dtype_less_method_sum_flagged(self):
        findings = findings_for("total = values.sum()\n")
        assert any(f.rule == "dtype" and ".sum()" in f.message for f in findings)

    def test_float_wrapped_sum_clean(self):
        # int()/float() around the reduction already states the intent.
        findings = findings_for("total = float(values.sum())\n")
        assert "dtype" not in rules_of(findings)

    def test_sum_with_dtype_clean(self):
        findings = findings_for(
            "import numpy as np\ntotal = values.sum(dtype=np.float64)\n"
        )
        assert "dtype" not in rules_of(findings)

    def test_astype_in_loop_is_info(self):
        source = "for i in range(10):\n    y = x.astype(np.float64)\n"
        findings = findings_for(source)
        hits = [f for f in findings if f.rule == "dtype" and "loop" in f.message]
        assert hits and all(f.severity == "info" for f in hits)

    def test_astype_outside_loop_clean(self):
        findings = findings_for("y = x.astype(np.float64)\n")
        assert not any("loop" in f.message for f in findings)

    def test_bare_float_into_values_flagged(self):
        findings = findings_for("y = 0.5 * tensor.values\n")
        assert any(
            f.rule == "dtype" and "float" in f.message.lower() for f in findings
        )


# ----------------------------------------------------------------------
# index-width safety
# ----------------------------------------------------------------------


class TestIndexWidthRule:
    def test_narrow_attribute_arithmetic_flagged(self):
        source = (
            "def pack(tensor, radix):\n"
            "    return tensor.indices * radix\n"
        )
        findings = findings_for(source)
        assert "index-width" in rules_of(findings)

    def test_upcast_before_arithmetic_clean(self):
        source = (
            "import numpy as np\n"
            "def pack(tensor, radix):\n"
            "    wide = tensor.indices.astype(np.int64)\n"
            "    return wide * radix\n"
        )
        findings = findings_for(source)
        assert "index-width" not in rules_of(findings)

    def test_narrowing_cast_of_computed_value_flagged(self):
        source = (
            "import numpy as np\n"
            "def rebuild(binds, block_size, einds):\n"
            "    coords = binds * block_size + einds\n"
            "    return coords.astype(np.int32)\n"
        )
        findings = findings_for(source)
        assert any(
            f.rule == "index-width" and "narrowing" in f.message for f in findings
        )

    def test_narrowing_cast_of_plain_name_clean(self):
        source = (
            "import numpy as np\n"
            "def convert(raw):\n"
            "    return raw.astype(np.int32)\n"
        )
        findings = findings_for(source)
        assert "index-width" not in rules_of(findings)


# ----------------------------------------------------------------------
# hidden densification
# ----------------------------------------------------------------------


class TestDensifyRule:
    HOT = "src/repro/core/kernel.py"
    COLD = "src/repro/apps/app.py"

    def test_to_dense_in_hot_path_is_error(self):
        findings = findings_for("dense = x.to_dense()\n", path=self.HOT)
        hits = [f for f in findings if f.rule == "densify"]
        assert hits and hits[0].severity == "error"

    def test_to_dense_outside_hot_path_clean(self):
        findings = findings_for("dense = x.to_dense()\n", path=self.COLD)
        assert "densify" not in rules_of(findings)

    def test_full_shape_allocation_in_hot_path_flagged(self):
        findings = findings_for(
            "import numpy as np\nout = np.zeros(x.shape, dtype=np.float64)\n",
            path=self.HOT,
        )
        assert any(f.rule == "densify" for f in findings)

    def test_nnz_sized_allocation_clean(self):
        findings = findings_for(
            "import numpy as np\nout = np.zeros(x.nnz, dtype=np.float64)\n",
            path=self.HOT,
        )
        assert "densify" not in rules_of(findings)

    def test_np_outer_in_hot_path_warned(self):
        findings = findings_for(
            "import numpy as np\nupdate = np.outer(a, b)\n", path=self.HOT
        )
        assert any(f.rule == "densify" and f.severity == "warning" for f in findings)


# ----------------------------------------------------------------------
# parallel-write safety
# ----------------------------------------------------------------------

_TASK_TEMPLATE = (
    "import numpy as np\n"
    "def kernel(plan, values, out):\n"
    "    def task(chunk, u0, u1, e0, e1):\n"
    "{body}"
    "    run_chunks(plan, task)\n"
)


class TestParallelWriteRule:
    def test_add_at_in_task_is_error(self):
        source = _TASK_TEMPLATE.format(
            body="        np.add.at(out, targets, values)\n"
        )
        findings = findings_for(source)
        hits = [f for f in findings if f.rule == "parallel-write"]
        assert hits and hits[0].severity == "error"
        assert "add.at" in hits[0].message

    def test_owned_slice_write_clean(self):
        source = _TASK_TEMPLATE.format(body="        out[e0:e1] = values[e0:e1]\n")
        findings = findings_for(source)
        assert "parallel-write" not in rules_of(findings)

    def test_indirect_owned_write_clean(self):
        # MTTKRP-style: out[targets[u0:u1]] is still chunk-derived.
        source = _TASK_TEMPLATE.format(
            body="        out[targets[u0:u1]] = values[e0:e1]\n"
        )
        findings = findings_for(source)
        assert "parallel-write" not in rules_of(findings)

    def test_non_chunk_indexed_write_flagged(self):
        source = _TASK_TEMPLATE.format(body="        out[0] = 1.0\n")
        findings = findings_for(source)
        assert any(
            f.rule == "parallel-write" and "chunk" in f.message for f in findings
        )

    def test_local_temporary_write_clean(self):
        source = _TASK_TEMPLATE.format(
            body=(
                "        scratch = np.empty(e1 - e0, dtype=np.float64)\n"
                "        scratch[0] = 1.0\n"
            )
        )
        findings = findings_for(source)
        assert "parallel-write" not in rules_of(findings)

    def test_cache_access_from_task_is_error(self):
        source = _TASK_TEMPLATE.format(
            body="        invalidate(tensor)\n        out[e0:e1] = 0\n"
        )
        findings = findings_for(source)
        assert any(
            f.rule == "parallel-write" and "plan-cache" in f.message
            for f in findings
        )

    def test_function_not_passed_to_run_chunks_ignored(self):
        source = (
            "def helper(out):\n"
            "    out[0] = 1.0\n"
        )
        findings = findings_for(source)
        assert "parallel-write" not in rules_of(findings)


class TestDispatcherResolution:
    """Tasks reached through executor dispatchers, not just run_chunks.

    These resolutions replaced the blanket ``/perf/jit/`` allowance:
    the jit and serving layers hand callables to
    ``loop.run_in_executor`` and ``pool.submit``, and those callables
    are held to the same ownership discipline.
    """

    def test_run_in_executor_local_def_flagged(self):
        source = (
            "import numpy as np\n"
            "def dispatch(loop, pool, out):\n"
            "    def job(u0, u1):\n"
            "        np.add.at(out, targets, values)\n"
            "    loop.run_in_executor(pool, job)\n"
        )
        findings = findings_for(source)
        assert "parallel-write" in rules_of(findings)

    def test_submit_lambda_flagged(self):
        source = (
            "def dispatch(pool, out):\n"
            "    pool.submit(lambda: invalidate(tensor))\n"
        )
        findings = findings_for(source)
        assert any(
            f.rule == "parallel-write" and "plan-cache" in f.message
            for f in findings
        )

    def test_self_method_task_flagged(self):
        source = (
            "import numpy as np\n"
            "class Server:\n"
            "    def _execute(self, groups):\n"
            "        np.add.at(self.out, targets, values)\n"
            "    def dispatch(self, loop):\n"
            "        loop.run_in_executor(self._pool, self._execute, groups)\n"
        )
        findings = findings_for(source)
        assert "parallel-write" in rules_of(findings)

    def test_self_method_owned_write_clean(self):
        source = (
            "class Server:\n"
            "    def _execute(self, u0, u1):\n"
            "        self.out[u0:u1] = 0.0\n"
            "    def dispatch(self, loop):\n"
            "        loop.run_in_executor(self._pool, self._execute, 0, 4)\n"
        )
        findings = findings_for(source)
        assert "parallel-write" not in rules_of(findings)

    def test_submit_without_callable_arg_ignored(self):
        findings = findings_for("def f(pool):\n    pool.submit()\n")
        assert "parallel-write" not in rules_of(findings)

    def test_unresolvable_attribute_task_ignored(self):
        # other.method (not self.*) cannot be resolved statically.
        source = (
            "def dispatch(loop, pool, other):\n"
            "    loop.run_in_executor(pool, other.method, 1)\n"
        )
        findings = findings_for(source)
        assert "parallel-write" not in rules_of(findings)


# ----------------------------------------------------------------------
# cache-invalidation hygiene
# ----------------------------------------------------------------------


class TestCacheInvalidationRule:
    def test_structural_mutation_without_invalidate_flagged(self):
        source = (
            "def rewrite(tensor, perm):\n"
            "    tensor.indices = tensor.indices[:, perm]\n"
        )
        findings = findings_for(source)
        assert any(f.rule == "cache-invalidation" for f in findings)

    def test_structural_mutation_with_invalidate_clean(self):
        source = (
            "def rewrite(tensor, perm):\n"
            "    tensor.indices = tensor.indices[:, perm]\n"
            "    invalidate(tensor)\n"
        )
        findings = findings_for(source)
        assert "cache-invalidation" not in rules_of(findings)

    def test_subscript_mutation_flagged(self):
        source = (
            "def poke(tensor):\n"
            "    tensor.values[0] = 7.0\n"
        )
        findings = findings_for(source)
        assert any(f.rule == "cache-invalidation" for f in findings)

    def test_init_is_exempt(self):
        source = (
            "class T:\n"
            "    def __init__(self, tensor):\n"
            "        tensor.indices = None\n"
        )
        findings = findings_for(source)
        assert "cache-invalidation" not in rules_of(findings)

    def test_non_structural_attribute_clean(self):
        source = (
            "def label(tensor):\n"
            "    tensor.name = 'x'\n"
        )
        findings = findings_for(source)
        assert "cache-invalidation" not in rules_of(findings)


# ----------------------------------------------------------------------
# suppressions
# ----------------------------------------------------------------------


class TestSuppressions:
    def test_same_line_suppression(self):
        findings = findings_for(
            "import numpy as np\n"
            "out = np.zeros((4, 4))  # repro: ignore[dtype]\n"
        )
        assert "dtype" not in rules_of(findings)

    def test_bare_ignore_suppresses_all_rules(self):
        findings = findings_for(
            "import numpy as np\n"
            "out = np.zeros(x.shape)  # repro: ignore\n",
            path="src/repro/core/kernel.py",
        )
        assert not findings

    def test_wrong_rule_name_does_not_suppress(self):
        findings = findings_for(
            "import numpy as np\n"
            "out = np.zeros((4, 4))  # repro: ignore[densify]\n"
        )
        assert "dtype" in rules_of(findings)

    def test_multiline_statement_comment_on_first_line(self):
        # The finding anchors at the call's first line; a comment on that
        # line must cover it even though the call spans several lines.
        findings = findings_for(
            "import numpy as np\n"
            "out = np.zeros(  # repro: ignore[dtype]\n"
            "    (4, 4),\n"
            ")\n"
        )
        assert "dtype" not in rules_of(findings)

    def test_multiline_statement_comment_on_later_line(self):
        # A comment on ANY physical line of the statement covers the whole
        # statement span — the multi-line numpy call case.
        findings = findings_for(
            "import numpy as np\n"
            "out = np.zeros(\n"
            "    (4, 4),  # repro: ignore[dtype]\n"
            ")\n"
        )
        assert "dtype" not in rules_of(findings)

    def test_comment_above_statement(self):
        findings = findings_for(
            "import numpy as np\n"
            "# repro: ignore[dtype]\n"
            "out = np.zeros((4, 4))\n"
        )
        assert "dtype" not in rules_of(findings)

    def test_suppression_counted(self):
        report = lint_source(
            "import numpy as np\n"
            "out = np.zeros((4, 4))  # repro: ignore[dtype]\n",
            path="src/repro/m.py",
        )
        assert report.suppressed == 1

    def test_comma_separated_rules(self):
        findings = findings_for(
            "import numpy as np\n"
            "out = np.zeros(x.shape)  # repro: ignore[dtype, densify]\n",
            path="src/repro/core/kernel.py",
        )
        assert not findings


# ----------------------------------------------------------------------
# baseline ratchet
# ----------------------------------------------------------------------

_VIOLATION = "import numpy as np\nout = np.zeros((4, 4))\n"


class TestBaseline:
    def test_roundtrip(self, tmp_path):
        findings = findings_for(_VIOLATION)
        path = tmp_path / "baseline.json"
        count = write_baseline(str(path), findings)
        assert count == len(findings) > 0
        baseline = load_baseline(str(path))
        fresh, known = apply_baseline(findings, baseline)
        assert fresh == [] and known == len(findings)

    def test_new_finding_not_masked(self, tmp_path):
        path = tmp_path / "baseline.json"
        write_baseline(str(path), findings_for(_VIOLATION))
        grown = _VIOLATION + "extra = np.arange(10)\n"
        fresh, known = apply_baseline(
            findings_for(grown), load_baseline(str(path))
        )
        assert len(fresh) == 1 and "arange" in fresh[0].message

    def test_missing_file_is_empty_baseline(self, tmp_path):
        assert load_baseline(str(tmp_path / "absent.json")) == {}

    def test_malformed_file_raises(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(BaselineError):
            load_baseline(str(path))

    def test_wrong_version_raises(self, tmp_path):
        path = tmp_path / "v9.json"
        path.write_text(
            json.dumps({"version": 9, "findings": {}}), encoding="utf-8"
        )
        with pytest.raises(BaselineError):
            load_baseline(str(path))

    def test_fingerprint_survives_line_shift(self):
        before = findings_for(_VIOLATION)
        shifted = findings_for("import numpy as np\n\n\n\nout = np.zeros((4, 4))\n")
        assert {f.fingerprint for f in before} == {f.fingerprint for f in shifted}
        assert [f.line for f in before] != [f.line for f in shifted]

    def test_fingerprint_changes_with_statement(self):
        a = findings_for(_VIOLATION)[0]
        b = findings_for("import numpy as np\nout = np.zeros((9, 9))\n")[0]
        assert a.fingerprint != b.fingerprint


# ----------------------------------------------------------------------
# JSON schema, catalog, CLI
# ----------------------------------------------------------------------


class TestOutputs:
    def test_finding_json_schema(self):
        finding = findings_for(_VIOLATION)[0]
        payload = finding.to_dict()
        assert set(payload) == {
            "rule",
            "severity",
            "path",
            "line",
            "col",
            "message",
            "scope",
            "snippet",
            "fingerprint",
        }
        assert payload["line"] == 2
        assert payload["scope"] == "<module>"

    def test_rule_catalog_has_all_five_families(self):
        assert set(rule_catalog()) == {
            "dtype",
            "index-width",
            "densify",
            "parallel-write",
            "cache-invalidation",
        }

    def test_parse_error_reported_not_raised(self):
        report = lint_source("def broken(:\n", path="src/repro/bad.py")
        assert report.parse_errors and not report.findings


class TestCli:
    def write_module(self, tmp_path, source=_VIOLATION):
        module = tmp_path / "module.py"
        module.write_text(source, encoding="utf-8")
        return module

    def test_lint_exits_nonzero_on_findings(self, tmp_path, capsys):
        module = self.write_module(tmp_path)
        assert cli_main(["lint", str(module)]) == 1
        assert "dtype" in capsys.readouterr().out

    def test_lint_exits_zero_on_clean_file(self, tmp_path, capsys):
        module = self.write_module(tmp_path, "x = 1\n")
        assert cli_main(["lint", str(module)]) == 0

    def test_json_output_parses(self, tmp_path, capsys):
        module = self.write_module(tmp_path)
        cli_main(["lint", str(module), "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["findings"] and payload["files"] == 1
        assert all("fingerprint" in f for f in payload["findings"])

    def test_update_baseline_then_clean(self, tmp_path, capsys):
        module = self.write_module(tmp_path)
        baseline = tmp_path / "baseline.json"
        assert (
            cli_main(
                ["lint", str(module), "--baseline", str(baseline),
                 "--update-baseline"]
            )
            == 0
        )
        capsys.readouterr()
        assert cli_main(["lint", str(module), "--baseline", str(baseline)]) == 0

    def test_severity_filter(self, tmp_path):
        source = "for i in range(3):\n    y = x.astype(float)\n"  # info only
        module = self.write_module(tmp_path, source)
        assert cli_main(["lint", str(module), "--severity", "warning"]) == 0
        assert cli_main(["lint", str(module), "--severity", "info"]) == 1

    def test_rules_filter(self, tmp_path):
        module = self.write_module(tmp_path)
        assert cli_main(["lint", str(module), "--rules", "densify"]) == 0
        assert cli_main(["lint", str(module), "--rules", "dtype"]) == 1

    def test_unknown_rule_rejected(self, tmp_path):
        module = self.write_module(tmp_path)
        assert cli_main(["lint", str(module), "--rules", "nonsense"]) == 2

    def test_list_rules(self, capsys):
        assert cli_main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "parallel-write" in out and "cache-invalidation" in out

    def test_repo_tree_is_clean_against_committed_baseline(self):
        # The self-hosting gate CI runs: the shipped tree must produce no
        # findings beyond the committed baseline.
        assert (
            cli_main(
                ["lint", "src/repro", "--baseline", ".repro-lint-baseline.json"]
            )
            == 0
        )
