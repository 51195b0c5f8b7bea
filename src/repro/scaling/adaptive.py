"""Quality-driven scaling budgets (the Section 3.3 relaxation, inverted).

The paper's first relaxation: if the scaled column sums are all at least
``α``, OneSidedMatch still guarantees ``n(1 − e^{−α})`` in expectation.
Read as a *control knob*: to promise a target quality ``q``, it suffices
to iterate the scaling until every (nonempty) column sum reaches
``α(q) = −ln(1 − q)`` — no convergence needed.

* :func:`alpha_for_quality` — the inverse map ``q ↦ α``;
* :func:`scale_for_quality` — run Sinkhorn–Knopp until the minimum
  column sum clears ``α(q)`` (or a budget runs out), returning the
  scaling plus the guarantee it actually certifies.

This is how a downstream user should pick the iteration count instead of
hard-coding the paper's 5 or 10.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.constants import ONE_SIDED_GUARANTEE, one_sided_guarantee_relaxed
from repro.errors import ScalingError
from repro.graph.csr import BipartiteGraph
from repro.parallel.reduction import segment_sums
from repro.scaling.result import ScalingResult

__all__ = ["alpha_for_quality", "scale_for_quality", "QualityScaling"]

_FMAX = float(np.finfo(np.float64).max)


def _sums_stay_finite(x: np.ndarray, max_degree: int) -> bool:
    """Whether every sum of up to *max_degree* entries of *x*, and its
    reciprocal, is finite: a half-sweep over *x* cannot overflow."""
    return not x.size or (
        float(x.min()) >= 2.0 / _FMAX
        and float(x.max()) * max_degree <= _FMAX / 2.0
    )


def _centre(dr: np.ndarray, dc: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(dr / 2^t, dc * 2^t)`` with ``t`` centring ``dr`` and ``1 / dc``
    in the float range.

    Divergent sweeps (no total support) push ``dr`` up and ``dc`` down;
    centring gives both sides the same headroom.  The scaled entries
    ``dr[i] * dc[j]`` and the row-normalised pick probabilities do not
    change under a global scale, and a power of two scales exactly, so
    every later sweep is the uncentred one's times ``2^±t``, bit for bit.
    """
    if not (dr.size and dc.size):
        return dr, dc
    lo = min(math.log2(dr.min()), -math.log2(dc.max()))
    hi = max(math.log2(dr.max()), -math.log2(dc.min()))
    t = round((lo + hi) / 2.0)
    return np.ldexp(dr, -t), np.ldexp(dc, t)


def alpha_for_quality(quality: float) -> float:
    """Minimum column-sum level α certifying expected quality *quality*.

    Inverse of ``q = 1 − e^{−α}``; only targets below the converged
    guarantee ``1 − 1/e`` are achievable this way.

    >>> round(alpha_for_quality(0.6015), 2)
    0.92
    """
    if not 0.0 <= quality < ONE_SIDED_GUARANTEE:
        raise ScalingError(
            f"target quality must be in [0, {ONE_SIDED_GUARANTEE:.4f}) — "
            f"the Theorem 1 ceiling — got {quality}"
        )
    return -math.log(1.0 - quality)


@dataclass(frozen=True)
class QualityScaling:
    """Result of :func:`scale_for_quality`."""

    scaling: ScalingResult
    #: Minimum scaled column sum achieved (over nonempty columns).
    min_column_sum: float
    #: The expected-quality level this scaling certifies:
    #: ``1 − e^{−min_column_sum}`` (capped at the Theorem 1 constant).
    certified_quality: float
    #: Whether the requested target was met within the budget.
    target_met: bool


def _min_column_sum(graph: BipartiteGraph, dr, dc) -> float:
    """Minimum column sum of the *row-normalised pick probabilities*.

    Theorem 1's relaxed form needs ``Σ_i p_i(j) >= α`` where ``p_i(j)``
    is row i's probability of picking column j — i.e. the column sums of
    the row-stochastic matrix, not of the raw scaled values (those two
    agree only at convergence).
    """
    dr = np.asarray(dr, dtype=np.float64)
    dc = np.asarray(dc, dtype=np.float64)
    row_tot = segment_sums(dc[graph.col_ind], graph.row_ptr)
    # Work in CSC order directly (the mirror arrays are already grouped
    # by column), avoiding a per-call argsort over the edges.
    numer = np.repeat(dc, np.diff(graph.col_ptr))
    denom = row_tot[graph.row_ind]
    probs = np.zeros_like(numer)
    np.divide(numer, denom, out=probs, where=denom > 0)
    sums = segment_sums(probs, graph.col_ptr)
    nonempty = graph.col_degrees() > 0
    if not nonempty.any():
        return 0.0
    return float(sums[nonempty].min())


def scale_for_quality(
    graph: BipartiteGraph,
    target_quality: float,
    *,
    max_iterations: int = 500,
    initial: "tuple | ScalingResult | None" = None,
) -> QualityScaling:
    """Iterate Sinkhorn–Knopp until the target quality is certified.

    The stopping rule watches the **minimum** scaled column sum (not the
    maximum error): the relaxed Theorem 1 needs every column to carry at
    least α of probability mass.  Matrices without support may never get
    there; the budget then expires and ``target_met`` is ``False`` with
    the strongest certificate actually reached.  On such matrices the
    factors also diverge: the loop stops at its last sweep whose sums
    stay inside the float range, with ``target_met`` ``False``.

    *initial* warm-starts the sweep from previous ``(dr, dc)`` factors
    (or a :class:`ScalingResult`); when the factors already certify the
    target — the common case after a small edit batch — the loop exits
    after the initial measurement, with zero sweeps and the factors
    unchanged.  Otherwise they are first rescaled by a power of two so
    both sides have the same headroom (see :func:`_centre`).
    """
    alpha = alpha_for_quality(target_quality)
    # The sweep loop is re-implemented here (rather than calling
    # scale_sinkhorn_knopp repeatedly) because the stopping rule watches
    # the min column sum, which the fixed-budget kernel does not expose,
    # and restarting it each iteration would redo all previous sweeps.
    from repro.scaling.sinkhorn_knopp import (
        _reciprocal_or_one,
        initial_factors,
    )

    dr, dc, warm = initial_factors(graph, initial)
    max_row_degree = int(graph.row_degrees().max(initial=0))
    max_col_degree = int(graph.col_degrees().max(initial=0))
    done = 0
    current = _min_column_sum(graph, dr, dc)
    if warm and current < alpha:
        dr, dc = _centre(dr, dc)
    while current < alpha and done < max_iterations:
        if not _sums_stay_finite(dr, max_col_degree):
            break
        csum = segment_sums(dr[graph.row_ind], graph.col_ptr)
        dc_next = _reciprocal_or_one(csum)
        if not _sums_stay_finite(dc_next, max_row_degree):
            break
        rsum = segment_sums(dc_next[graph.col_ind], graph.row_ptr)
        dc, dr = dc_next, _reciprocal_or_one(rsum)
        done += 1
        current = _min_column_sum(graph, dr, dc)

    from repro.scaling.convergence import column_sum_error

    if warm:
        from repro import telemetry as _tm

        if _tm.enabled():
            _tm.incr("scaling.sk.warm_starts")
            _tm.set_gauge("scaling.warm_iterations", done)

    scaling = ScalingResult(
        dr=dr,
        dc=dc,
        error=column_sum_error(graph, dr, dc),
        iterations=done,
        converged=current >= alpha,
        warm_started=warm,
    )
    certified = min(
        one_sided_guarantee_relaxed(min(current, 1.0)), ONE_SIDED_GUARANTEE
    )
    return QualityScaling(
        scaling=scaling,
        min_column_sum=current,
        certified_quality=certified,
        target_met=current >= alpha,
    )
