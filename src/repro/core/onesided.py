"""``OneSidedMatch`` — the paper's Algorithm 2.

Scale, then let every row independently pick one column with probability
proportional to the scaled entry; writes into ``cmatch`` race and the last
write survives, which still defines a valid matching.  No synchronisation
or conflict resolution of any kind is required — the property the paper
leads with — and Theorem 1 guarantees an expected matching size of at
least ``n (1 - 1/e)`` on matrices with total support.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import telemetry as _tm
from repro._typing import IndexArray, SeedLike, rng_from
from repro.constants import ONE_SIDED_GUARANTEE, one_sided_guarantee_relaxed
from repro.graph.csr import BipartiteGraph
from repro.matching.matching import NIL, Matching
from repro.parallel.backends import Backend, get_backend
from repro.scaling.result import ScalingResult
from repro.scaling.sinkhorn_knopp import scale_sinkhorn_knopp
from repro.core.choice import scaled_col_choices, scaled_row_choices

__all__ = ["OneSidedResult", "one_sided_match", "cmatch_from_choices"]


@dataclass(frozen=True)
class OneSidedResult:
    """Output of :func:`one_sided_match`."""

    matching: Matching
    scaling: ScalingResult
    #: The column chosen by each row (NIL for empty rows) — the raw
    #: pre-collision choices.
    row_choice: IndexArray

    @property
    def cardinality(self) -> int:
        return self.matching.cardinality

    @property
    def guarantee(self) -> float:
        """Best provable expected-quality floor for the scaling rung used.

        ``"full"`` rung: Theorem 1's ``1 - 1/e`` (assuming total
        support).  ``"capped"`` rung: the Section 3.3 relaxed bound
        ``1 - e^{-α}`` with ``α`` from the achieved column-sum error.
        ``"uniform"`` rung: 0 — the matching is still valid, but nothing
        is guaranteed about its size.
        """
        return _rung_guarantee(self.scaling, ONE_SIDED_GUARANTEE)


def _rung_guarantee(scaling: ScalingResult, full_floor: float) -> float:
    """Quality floor for a scaling result, by degradation-ladder rung."""
    if scaling.rung == "uniform":
        return 0.0
    if scaling.rung == "capped":
        # Section 3.3: column sums >= alpha give a 1 - e^{-alpha} floor.
        alpha = max(0.0, 1.0 - min(1.0, scaling.error))
        return one_sided_guarantee_relaxed(alpha)
    return full_floor


def cmatch_from_choices(row_choice: IndexArray, ncols: int) -> IndexArray:
    """Collapse racing writes ``cmatch[choice[i]] = i`` (last write wins).

    numpy's fancy assignment applies updates in index order, which is one
    legal outcome of the shared-memory race; different thread interleavings
    yield different survivors but always a valid matching of identical
    expected size (no column is counted twice either way).
    """
    row_choice = np.asarray(row_choice, dtype=np.int64)
    cmatch = np.full(ncols, NIL, dtype=np.int64)
    rows = np.flatnonzero(row_choice != NIL)
    cmatch[row_choice[rows]] = rows
    return cmatch


def one_sided_match(
    graph: BipartiteGraph,
    iterations: int = 5,
    *,
    scaling: ScalingResult | None = None,
    seed: SeedLike = None,
    backend: Backend | str | None = None,
    side: str = "row",
    deadline: float | None = None,
) -> OneSidedResult:
    """Run OneSidedMatch on *graph*.

    Parameters
    ----------
    graph:
        The bipartite graph / (0,1) matrix.
    iterations:
        Sinkhorn–Knopp iterations when *scaling* is not supplied.  The
        paper's evaluation uses 0 (uniform choices, no guarantee), 1, 5,
        and 10; 5 reaches the guaranteed quality on almost every instance.
    scaling:
        Reuse a precomputed :class:`~repro.scaling.ScalingResult`.
    seed:
        Randomness for the choices.
    backend:
        Parallel backend for scaling and choice sampling.
    side:
        ``"row"`` (default, the paper's formulation: rows choose columns)
        or ``"column"`` — useful on rectangular matrices where the smaller
        side should do the choosing.
    deadline:
        Total wall-clock budget in seconds for this call.  Installs a
        :func:`~repro.resilience.request_deadline`, which a
        :class:`~repro.resilience.ResilientBackend` *backend* enforces
        on every chunk attempt and retry backoff (typed
        :class:`~repro.errors.DeadlineExceededError` on exhaustion).
        With other backends the budget is advisory.  Nested inside an
        ambient budget the tighter one wins.

    Returns
    -------
    OneSidedResult
        The matching (valid on any input), the scaling used, and the raw
        choices.
    """
    from repro.resilience.deadline import request_deadline

    be = get_backend(backend)
    rng = rng_from(seed)
    with request_deadline(deadline), _tm.span(
        "core.one_sided_match", side=side
    ) as sp:
        if scaling is None:
            scaling = scale_sinkhorn_knopp(graph, iterations, backend=be)
        with _tm.span("choices"):
            if side == "row":
                row_choice = scaled_row_choices(
                    graph, scaling.dr, scaling.dc, rng, backend=be
                )
            elif side == "column":
                row_choice = scaled_col_choices(
                    graph, scaling.dr, scaling.dc, rng, backend=be
                )
            else:
                raise ValueError(
                    f"side must be 'row' or 'column', got {side!r}"
                )
        if side == "row":
            cmatch = cmatch_from_choices(row_choice, graph.ncols)
            matching = Matching.from_col_match(cmatch, graph.nrows)
        else:
            # rmatch[i] is the column whose racing write survived on row
            # i, which is exactly a row_match array.
            rmatch = cmatch_from_choices(row_choice, graph.nrows)
            matching = Matching.from_row_match(rmatch, graph.ncols)
        if _tm.enabled():
            cardinality = matching.cardinality
            chosen = int(np.count_nonzero(row_choice != NIL))
            collisions = chosen - cardinality
            _tm.incr("onesided.runs")
            _tm.incr("onesided.choices", chosen)
            _tm.incr("onesided.collisions", collisions)
            sp.set(
                cardinality=cardinality,
                collisions=collisions,
                rung=scaling.rung,
            )
    return OneSidedResult(
        matching=matching,
        scaling=scaling,
        row_choice=row_choice,
    )
