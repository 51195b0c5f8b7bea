"""Dual-like column prices derived from doubly-stochastic scaling factors.

Sinkhorn–Knopp scaling of the (0,1) pattern computes factors ``(dr, dc)``
with ``s_ij = dr[i]·dc[j]`` approximately doubly stochastic.  The log
factors are (up to normalisation) the entropic-regularisation duals of
the assignment LP relaxation: a column that many rows compete for ends up
with a *small* ``dc[j]`` (its raw sum was large and had to be squashed),
which corresponds to a *high* dual price.  :func:`dual_prices` turns that
observation into a warm-start price vector for the auction engine —
contested columns start expensive, so early bidding rounds skip the price
discovery the heuristic scaling already performed.

This is a heuristic accelerator only: the auction's exactness argument
(see ``matching/exact/auction.py``) is independent of the initial prices
as long as they are finite and non-negative, which this function
guarantees.  Prices are normalised into ``[0, SPREAD]``, a few bid
increments wide (the auction bids in steps of ``ε = 1``), so the
abandonment cap stays close to its cold value.
"""

from __future__ import annotations

import numpy as np

from repro._typing import FloatArray
from repro.errors import ShapeError
from repro.scaling.result import ScalingResult

__all__ = ["dual_prices"]

#: Width of the initial price range: four of the auction's unit bids.
SPREAD: float = 4.0


def dual_prices(scaling: ScalingResult | FloatArray) -> FloatArray:
    """Column prices in ``[0, SPREAD]`` from scaling factors.

    *scaling* is a :class:`~repro.scaling.result.ScalingResult` (its
    ``dc`` vector is used) or a raw positive column-factor array.  The
    mapping is ``p_j ∝ -log dc[j]`` shifted and scaled into the target
    range — monotone in contestedness, invariant to the factors' overall
    normalisation.  Columns with non-positive factors (empty columns keep
    factor 1 under the library's convention) land wherever ``log`` puts
    them after clipping to a tiny floor; they are never matched anyway.
    """
    dc = scaling.dc if isinstance(scaling, ScalingResult) else np.asarray(
        scaling, dtype=np.float64
    )
    if dc.ndim != 1:
        raise ShapeError(f"column factors must be 1-D, got shape {dc.shape}")
    if dc.shape[0] == 0:
        return np.zeros(0, dtype=np.float64)
    u = -np.log(np.maximum(dc, np.finfo(np.float64).tiny))
    u = u - u.min()
    top = u.max()
    if top > 0:
        u *= SPREAD / top
    return u
