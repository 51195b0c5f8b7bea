"""Tests for the Sinkhorn–Knopp degradation ladder and the per-rung
quality guarantees it feeds into the matching heuristics."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro import telemetry
from repro.constants import (
    ONE_SIDED_GUARANTEE,
    TWO_SIDED_GUARANTEE,
    one_sided_guarantee_relaxed,
)
from repro.core.onesided import one_sided_match
from repro.core.twosided import two_sided_match
from repro.errors import ConvergenceWarning
from repro.graph import from_dense, sprand, union_of_permutations
from repro.scaling import scale_sinkhorn_knopp
from repro.scaling.result import ScalingResult


@pytest.fixture(autouse=True)
def clean_telemetry():
    telemetry.reset()
    yield
    telemetry.reset()


def _triangular(n: int = 8):
    """Square, no empty lines, provably without total support."""
    return from_dense(np.triu(np.ones((n, n))))


def _empty_row(n: int = 6):
    a = np.ones((n, n))
    a[2, :] = 0.0
    return from_dense(a)


class TestLadderRungs:
    def test_healthy_matrix_stays_on_full_rung(self):
        g = union_of_permutations(40, 3, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", ConvergenceWarning)
            result = scale_sinkhorn_knopp(g, 40)
        assert result.rung == "full"
        assert not result.degraded
        assert result.iterations == 40

    def test_empty_row_demotes_to_capped(self):
        with pytest.warns(ConvergenceWarning):
            result = scale_sinkhorn_knopp(_empty_row(), 100)
        assert result.rung == "capped"
        assert result.degraded
        assert result.iterations <= 25

    def test_no_total_support_detected_via_dm(self):
        # No empty rows/columns — only the Dulmage–Mendelsohn test can
        # prove the deficiency.
        with pytest.warns(ConvergenceWarning):
            result = scale_sinkhorn_knopp(_triangular(), 200)
        assert result.rung == "capped"

    def test_tolerance_mode_capped_instead_of_burning_budget(self):
        with pytest.warns(ConvergenceWarning):
            result = scale_sinkhorn_knopp(
                _triangular(), tolerance=1e-10, max_iterations=1000
            )
        assert result.rung == "capped"
        assert result.iterations <= 25
        assert not result.converged

    def test_empty_matrix_uses_uniform_rung(self):
        g = from_dense(np.zeros((4, 4)))
        result = scale_sinkhorn_knopp(g, 10)
        assert result.rung == "uniform"
        np.testing.assert_array_equal(result.dr, np.ones(4))
        np.testing.assert_array_equal(result.dc, np.ones(4))

    def test_degradation_off_runs_requested_budget(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", ConvergenceWarning)
            result = scale_sinkhorn_knopp(
                _triangular(), 60, degradation=False
            )
        assert result.rung == "full"
        assert result.iterations == 60

    def test_small_budgets_not_second_guessed(self):
        # The paper's working budgets (<= CAPPED_ITERATIONS) run as asked
        # even on deficient matrices; only the warning-free cap applies.
        result = scale_sinkhorn_knopp(_empty_row(), 5)
        assert result.iterations == 5

    def test_scaling_stays_finite_on_every_rung(self):
        for g, iters in [
            (_empty_row(), 100),
            (_triangular(), 200),
            (from_dense(np.zeros((3, 3))), 10),
            (sprand(60, 1.5, seed=3), 80),
        ]:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ConvergenceWarning)
                result = scale_sinkhorn_knopp(g, iters)
            assert np.isfinite(result.dr).all()
            assert np.isfinite(result.dc).all()
            assert np.isfinite(result.error)

    def test_degraded_telemetry_counter(self):
        reg = telemetry.enable()
        with pytest.warns(ConvergenceWarning):
            scale_sinkhorn_knopp(_empty_row(), 100)
        assert reg.counter("scaling.sk.degraded").value == 1


class TestConvergenceWarningPayload:
    def test_warning_carries_achieved_error_and_rung(self):
        with pytest.warns(ConvergenceWarning) as record:
            result = scale_sinkhorn_knopp(_empty_row(), 100)
        warning = record[0].message
        assert warning.achieved_error == pytest.approx(result.error)
        assert warning.rung == "capped"
        assert "column-sum error" in str(warning)

    def test_warning_attrs_default_none(self):
        w = ConvergenceWarning("plain")
        assert w.achieved_error is None and w.rung is None


class TestRungGuarantees:
    def _result(self, rung, error=0.0, n=4):
        return ScalingResult(
            dr=np.ones(n), dc=np.ones(n), error=error,
            iterations=0, converged=False, rung=rung,
        )

    def test_one_sided_full_floor(self):
        g = union_of_permutations(50, 3, seed=1)
        result = one_sided_match(g, 5, seed=0)
        assert result.scaling.rung == "full"
        assert result.guarantee == pytest.approx(ONE_SIDED_GUARANTEE)

    def test_one_sided_capped_uses_relaxed_bound(self):
        scaling = self._result("capped", error=0.3)
        g = union_of_permutations(4, 2, seed=0)
        result = one_sided_match(g, scaling=scaling, seed=0)
        expected = one_sided_guarantee_relaxed(0.7)
        assert result.guarantee == pytest.approx(expected)
        assert 0.0 < result.guarantee < ONE_SIDED_GUARANTEE

    def test_one_sided_uniform_has_no_floor(self):
        scaling = self._result("uniform")
        g = union_of_permutations(4, 2, seed=0)
        result = one_sided_match(g, scaling=scaling, seed=0)
        assert result.guarantee == 0.0

    def test_two_sided_full_floor(self):
        g = union_of_permutations(50, 3, seed=2)
        result = two_sided_match(g, 5, seed=0)
        assert result.guarantee == pytest.approx(TWO_SIDED_GUARANTEE)

    def test_two_sided_capped_below_conjecture(self):
        scaling = self._result("capped", error=0.5)
        g = union_of_permutations(4, 2, seed=0)
        result = two_sided_match(g, scaling=scaling, seed=0)
        assert 0.0 < result.guarantee < TWO_SIDED_GUARANTEE

    def test_error_above_one_floors_at_zero_alpha(self):
        scaling = self._result("capped", error=3.0)
        g = union_of_permutations(4, 2, seed=0)
        result = one_sided_match(g, scaling=scaling, seed=0)
        assert result.guarantee == pytest.approx(0.0)


class TestEndToEndDegraded:
    def test_matching_still_valid_on_capped_rung(self):
        g = _empty_row(30)
        with pytest.warns(ConvergenceWarning):
            scaling = scale_sinkhorn_knopp(g, 100)
        result = one_sided_match(g, scaling=scaling, seed=0)
        result.matching.validate(g)
        assert result.cardinality > 0
