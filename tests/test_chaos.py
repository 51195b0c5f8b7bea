"""Chaos-marked tests: the backend matrix under injected fault schedules.

Run explicitly with ``pytest -m chaos`` (or ``make chaos-smoke``); the
full human-facing sweep is ``python -m repro chaos`` / ``make chaos``.
"""

from __future__ import annotations

import re

import pytest

from repro.resilience import run_chaos, standard_schedules
from repro.resilience.chaos import ChaosOutcome

pytestmark = pytest.mark.chaos


def test_standard_schedules_cover_all_kinds():
    schedules = standard_schedules()
    assert set(schedules) == {
        "none", "crash", "hang", "slow", "corrupt", "storm"
    }
    assert schedules["none"].specs == []


def test_outcome_classification():
    ok = ChaosOutcome("scale", "serial", "none", "ok", 0.1, 5.0)
    degraded = ChaosOutcome(
        "scale", "serial", "storm", "degraded:RetryExhaustedError", 0.1, 5.0
    )
    failed = ChaosOutcome(
        "scale", "serial", "storm", "FAILED:untyped:EOFError", 0.1, 5.0
    )
    assert ok.passed and degraded.passed and not failed.passed


@pytest.fixture(scope="module")
def full_sweep():
    """One full sweep over the default backends, shared by the tests."""
    return run_chaos(n=250, deadline=0.25, seed=0)


def test_chaos_matrix_honours_contract(full_sweep):
    """Every cell: bitwise-correct result or typed error, inside budget."""
    report = full_sweep
    assert report.passed, "\n" + report.render()
    # The control schedule must not merely "not fail" — it must succeed.
    controls = [o for o in report.outcomes if o.schedule == "none"]
    assert controls and all(o.status == "ok" for o in controls)


def test_chaos_matrix_reports_injected_faults(full_sweep):
    """Every backend-row cell reports its plan's hits, every schedule but
    the control injects in at least one row, and the exact row reaches
    the backend.  Faults are drawn by (label, chunk, attempt), so one
    row alone can stay inert."""
    hits: dict[str, int] = {}
    exact_hits = 0
    for o in full_sweep.outcomes:
        if o.workload not in ("scale", "match", "exact", "serve"):
            continue
        count = re.match(r"faults=(\d+)\b", o.detail)
        assert count, f"{o.workload}/{o.backend}/{o.schedule}: {o.detail!r}"
        hits[o.schedule] = hits.get(o.schedule, 0) + int(count.group(1))
        if o.workload == "exact":
            exact_hits += int(count.group(1))
    assert set(hits) == set(standard_schedules())
    assert hits.pop("none") == 0
    assert all(hits.values()), hits
    assert exact_hits > 0


def test_chaos_serial_only_quick():
    """A tiny single-backend sweep (the CI smoke cell)."""
    report = run_chaos(n=120, backends=("serial",), deadline=0.2, seed=1)
    assert report.passed, "\n" + report.render()
    rendered = report.render()
    assert "cells honoured the contract" in rendered
    # The durability row rides every full sweep: one cell per crash
    # boundary, all on the journal "backend".
    recovery = [o for o in report.outcomes if o.workload == "recovery"]
    assert {o.schedule for o in recovery} == {
        "pre_fsync", "mid_record", "post_ack", "mid_checkpoint",
        "divergence",
    }
    assert all(o.backend == "journal" for o in recovery)


def test_chaos_serve_row_runs_and_holds_contract():
    """The serve workload: a live MatchingServer soaked under the storm
    schedule must resolve every request typed-or-correct, losing none."""
    report = run_chaos(n=150, backends=("serial",), deadline=0.2, seed=2)
    serve_rows = [o for o in report.outcomes if o.workload == "serve"]
    assert len(serve_rows) == 1
    row = serve_rows[0]
    assert row.schedule == "storm"
    assert row.passed, f"{row.status} [{row.detail}]"


def test_chaos_serve_row_absent_without_storm():
    schedules = {"none": standard_schedules()["none"]}
    report = run_chaos(
        n=100, backends=("serial",), schedules=schedules, deadline=0.2,
        seed=3,
    )
    assert all(o.workload == "scale" for o in report.outcomes)
