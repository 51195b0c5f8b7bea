"""Doubly stochastic scaling of (0,1) matrices.

The heuristics' edge-selection probabilities come from scaling the
adjacency matrix ``A`` to a doubly stochastic ``S = D_R A D_C``
(Section 2.2 of the paper).  The primary method is the parallel
Sinkhorn–Knopp of Algorithm 1 (:func:`scale_sinkhorn_knopp`); the reviewed
alternatives (Ruiz equilibration, its symmetry-preserving variant) are also
implemented.
"""

from repro.scaling.result import ScalingResult
from repro.scaling.duals import dual_prices
from repro.scaling.sinkhorn_knopp import scale_sinkhorn_knopp
from repro.scaling.ruiz import scale_ruiz
from repro.scaling.diagnostics import estimate_matchable_edges, matchability_report
from repro.scaling.adaptive import alpha_for_quality, scale_for_quality, QualityScaling
from repro.scaling.convergence_rate import convergence_study, observed_rate, theoretical_rate
from repro.scaling.symmetric import scale_symmetric
from repro.scaling.convergence import (
    column_sum_error,
    row_sum_error,
    scaled_column_sums,
    scaled_row_sums,
)

__all__ = [
    "ScalingResult",
    "dual_prices",
    "scale_sinkhorn_knopp",
    "scale_ruiz",
    "estimate_matchable_edges",
    "matchability_report",
    "alpha_for_quality",
    "scale_for_quality",
    "QualityScaling",
    "convergence_study",
    "observed_rate",
    "theoretical_rate",
    "scale_symmetric",
    "column_sum_error",
    "row_sum_error",
    "scaled_column_sums",
    "scaled_row_sums",
]
