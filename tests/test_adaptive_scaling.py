"""Tests for quality-driven scaling budgets (repro.scaling.adaptive)."""

import math

import numpy as np
import pytest

from repro.constants import ONE_SIDED_GUARANTEE
from repro.errors import ScalingError
from repro.graph import from_dense, fully_indecomposable, sprand
from repro.core import one_sided_match
from repro.scaling.adaptive import (
    alpha_for_quality,
    scale_for_quality,
)


class TestAlphaForQuality:
    def test_paper_example(self):
        # Section 3.3: alpha = 0.92 certifies ~0.6015.
        assert alpha_for_quality(0.6015) == pytest.approx(0.92, abs=5e-3)

    def test_zero_quality_zero_alpha(self):
        assert alpha_for_quality(0.0) == 0.0

    def test_monotone(self):
        qs = [0.1, 0.3, 0.5, 0.6]
        alphas = [alpha_for_quality(q) for q in qs]
        assert alphas == sorted(alphas)

    def test_ceiling_enforced(self):
        with pytest.raises(ScalingError):
            alpha_for_quality(ONE_SIDED_GUARANTEE)
        with pytest.raises(ScalingError):
            alpha_for_quality(0.99)
        with pytest.raises(ScalingError):
            alpha_for_quality(-0.1)


class TestScaleForQuality:
    def test_divergent_sweeps_stop_at_last_finite_sweep(self):
        # This pattern lacks total support: the sweeps diverge, and the
        # cold run would sum past the float range before 500 iterations.
        g = sprand(600, 2.0, seed=2)
        qs = scale_for_quality(g, 0.5, max_iterations=500)
        assert not qs.target_met
        assert 0 < qs.scaling.iterations < 500
        assert np.isfinite(qs.scaling.dr).all()
        assert np.isfinite(qs.scaling.dc).all()
        assert 0.0 < qs.certified_quality < 0.5

    def test_warm_start_scale_is_immaterial(self):
        """A warm start is centred by a power of two, so a globally
        rescaled pair gives the same sweeps bit for bit."""
        g = sprand(400, 3.0, seed=1)
        start = scale_for_quality(g, 0.3, max_iterations=2).scaling
        dr, dc = start.dr, start.dc
        a = scale_for_quality(g, 0.6, initial=(dr, dc))
        b = scale_for_quality(g, 0.6, initial=(dr * 2.0**300, dc / 2.0**300))
        assert np.array_equal(a.scaling.dr, b.scaling.dr)
        assert np.array_equal(a.scaling.dc, b.scaling.dc)
        assert a.min_column_sum == b.min_column_sum
        assert a.scaling.iterations == b.scaling.iterations > 0

    def test_meets_target_on_total_support(self):
        g = fully_indecomposable(500, 4.0, seed=0)
        qs = scale_for_quality(g, 0.60)
        assert qs.target_met
        assert qs.certified_quality >= 0.60
        assert qs.min_column_sum >= alpha_for_quality(0.60)

    def test_certificate_is_honoured_empirically(self):
        """The heuristic's measured quality meets the certificate."""
        g = fully_indecomposable(2000, 5.0, seed=1)
        qs = scale_for_quality(g, 0.58)
        samples = [
            one_sided_match(g, scaling=qs.scaling, seed=s).cardinality
            / g.nrows
            for s in range(5)
        ]
        assert float(np.mean(samples)) >= qs.certified_quality - 0.03

    def test_higher_target_needs_more_iterations(self):
        g = fully_indecomposable(500, 4.0, seed=2)
        low = scale_for_quality(g, 0.40)
        high = scale_for_quality(g, 0.62)
        assert high.scaling.iterations >= low.scaling.iterations

    def test_budget_expiry_reports_honest_certificate(self):
        # A matrix with an empty column can never certify q > 0: the min
        # nonempty-column rule ignores it, but a column with a single
        # shared row keeps min sums low under a tiny budget.
        a = np.array([[1, 1, 1], [1, 0, 0], [1, 0, 0]])
        g = from_dense(a)
        qs = scale_for_quality(g, 0.62, max_iterations=1)
        assert not qs.target_met or qs.scaling.iterations <= 1
        assert 0.0 <= qs.certified_quality <= ONE_SIDED_GUARANTEE

    def test_zero_target_trivially_met(self):
        g = sprand(100, 3.0, seed=0)
        qs = scale_for_quality(g, 0.0)
        assert qs.target_met
        assert qs.scaling.iterations == 0
