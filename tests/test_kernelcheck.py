"""Tests for the generated-kernel static verifier (``repro kernelcheck``).

The heart of this file is the planted-bug drills: each one monkeypatches
a codegen snippet helper so the *generated C source* (and, where the
helper also feeds the effect summary, the summary) carries a real
defect — an out-of-ownership store, an off-by-one loop bound, a
narrowed index — and asserts the verifier reports it with the right
rule.  A checker that passes the clean matrix but misses these is
vacuous.
"""

from __future__ import annotations

import json

import pytest

from repro.analysis import check_artifact, check_kernels
from repro.analysis.kernelcheck import (
    RULE_BOUNDS,
    RULE_OWNERSHIP,
    RULE_PAR,
    RULE_SUMMARY,
    RULE_WIDTH,
    RULES,
)
from repro.cli import main as cli_main
from repro.perf.jit import codegen
from repro.perf.jit.effects import KernelArtifact


def rules_of(findings):
    return {f.rule for f in findings}


# ----------------------------------------------------------------------
# Clean matrix
# ----------------------------------------------------------------------


def test_full_registered_matrix_is_clean():
    report = check_kernels()
    assert report.kernels == len(report.names)
    assert report.kernels == 31  # 3 MTTKRP variants x 9 + 3 TTM + TTV
    assert report.findings == []


def test_codegen_sources_unchanged_by_artifact_refactor():
    """The *_source wrappers still agree with the artifact sources."""
    art = codegen.mttkrp_coo_artifact(3, 4)
    name, source = codegen.mttkrp_coo_source(3, 4)
    assert name == art.name
    assert source == art.source


def test_report_to_dict_schema():
    report = check_kernels(orders=(2,), ranks=(4,))
    payload = report.to_dict()
    assert set(payload) == {"kernels", "findings"}
    assert payload["findings"] == []
    assert payload["kernels"] == report.kernels


# ----------------------------------------------------------------------
# Planted-bug drills
# ----------------------------------------------------------------------


def test_drill_out_of_ownership_store(monkeypatch):
    """Shifting every store by one row slab breaks disjointness + bounds."""
    monkeypatch.setattr(
        codegen,
        "_store_offset",
        lambda index, scale: f"(i64){index} * {scale} + {scale}",
    )
    findings = check_artifact(codegen.mttkrp_coo_artifact(3, 4))
    assert findings, "out-of-ownership store was not detected"
    assert RULE_OWNERSHIP in rules_of(findings)
    assert RULE_BOUNDS in rules_of(findings)
    offender = [f for f in findings if f.rule == RULE_OWNERSHIP][0]
    assert "mttkrp_coo_o3_r4" in offender.scope
    assert "out" in offender.message


def test_drill_off_by_one_loop_bound(monkeypatch):
    """A ``<=`` element loop reads one past the declared extent."""
    real_loop = codegen._loop

    def leaky_loop(width, var, lo, hi):
        if var == "s":
            return f"for ({width} {var} = {lo}; {var} <= {hi}; ++{var})"
        return real_loop(width, var, lo, hi)

    monkeypatch.setattr(codegen, "_loop", leaky_loop)
    findings = check_artifact(codegen.mttkrp_coo_artifact(3, 4))
    assert findings, "off-by-one loop bound was not detected"
    # The source/summary cross-check flags the drifted bound, and the
    # source-derived effective bound (hi + 1) then fails the extent proof.
    assert RULE_SUMMARY in rules_of(findings)
    assert RULE_BOUNDS in rules_of(findings)


def test_drill_narrowed_index(monkeypatch):
    """Dropping the (i64) cast leaves an i32 product that can overflow."""
    monkeypatch.setattr(
        codegen, "_store_offset", lambda index, scale: f"{index} * {scale}"
    )
    monkeypatch.setattr(
        codegen, "_gather_offset", lambda index, scale: f"{index} * {scale}"
    )
    findings = check_artifact(codegen.mttkrp_coo_artifact(3, 4))
    assert findings, "narrowed index arithmetic was not detected"
    assert RULE_WIDTH in rules_of(findings)


def test_drill_serial_kernel_gains_par_entry():
    """A ``_par`` entry the summary doesn't declare is a contract break."""
    art = codegen.mttkrp_hicoo_artifact(3, 4)
    assert art.effects.ownership == ("serial",)
    source = (
        art.source
        + codegen._TEAM_RUNNER
        + codegen._parallel_entry(art.name, [("f64 *restrict ", "out")])
    )
    bugged = KernelArtifact(name=art.name, source=source, effects=art.effects)
    findings = check_artifact(bugged)
    assert findings
    assert RULE_PAR in rules_of(findings)


# ----------------------------------------------------------------------
# Rule catalog
# ----------------------------------------------------------------------


def test_rule_catalog_names_and_descriptions():
    assert set(RULES) == {
        RULE_SUMMARY,
        RULE_BOUNDS,
        RULE_WIDTH,
        RULE_OWNERSHIP,
        RULE_PAR,
    }
    for description in RULES.values():
        assert description


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


def test_cli_kernelcheck_clean_exit_zero(capsys):
    rc = cli_main(["kernelcheck", "--orders", "2", "--ranks", "4"])
    assert rc == 0
    out = capsys.readouterr()
    assert "0 finding(s)" in out.err


def test_cli_kernelcheck_json(capsys):
    rc = cli_main(["kernelcheck", "--orders", "2", "--ranks", "4", "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"kernels", "findings", "baselined"}
    assert payload["findings"] == []
    assert payload["kernels"] == 5  # 3 MTTKRP + TTM + TTV


def test_cli_kernelcheck_list_kernels(capsys):
    rc = cli_main(["kernelcheck", "--list-kernels", "--orders", "3",
                   "--ranks", "4"])
    assert rc == 0
    names = capsys.readouterr().out.split()
    assert "repro_mttkrp_coo_o3_r4" in names
    assert "repro_ttv_fiber" in names


def test_cli_kernelcheck_bad_orders_exit_two(capsys):
    rc = cli_main(["kernelcheck", "--orders", "two"])
    assert rc == 2


def test_cli_kernelcheck_findings_exit_one(monkeypatch, capsys):
    monkeypatch.setattr(
        codegen,
        "_store_offset",
        lambda index, scale: f"(i64){index} * {scale} + {scale}",
    )
    rc = cli_main(["kernelcheck", "--orders", "3", "--ranks", "4"])
    assert rc == 1
    out = capsys.readouterr()
    assert "kernel-ownership" in out.out


def test_cli_kernelcheck_baseline_roundtrip(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(
        codegen,
        "_store_offset",
        lambda index, scale: f"(i64){index} * {scale} + {scale}",
    )
    baseline = tmp_path / "kernelcheck-baseline.json"
    rc = cli_main([
        "kernelcheck", "--orders", "3", "--ranks", "4",
        "--baseline", str(baseline), "--update-baseline",
    ])
    assert rc == 0
    capsys.readouterr()
    rc = cli_main([
        "kernelcheck", "--orders", "3", "--ranks", "4",
        "--baseline", str(baseline),
    ])
    assert rc == 0
    assert "baselined" in capsys.readouterr().err


def test_cli_kernelcheck_update_baseline_needs_file(capsys):
    rc = cli_main(["kernelcheck", "--update-baseline"])
    assert rc == 2
