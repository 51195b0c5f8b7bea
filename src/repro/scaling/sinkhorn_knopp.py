"""Parallel Sinkhorn–Knopp scaling (the paper's Algorithm 1, ``ScaleSK``).

Each iteration balances the columns, then the rows:

.. code-block:: text

    for j in columns (parallel):  dc[j] = 1 / sum_{i in A*j} dr[i]
    for i in rows    (parallel):  dr[i] = 1 / sum_{j in Ai*} dc[j]

(the matrix entries are 1, so the sums need only the opposite scaling
vector).  After a row sweep the scaled row sums are exactly one; the
convergence error is the maximal deviation of the scaled *column* sums
from one, measured at the top of the next iteration.

Each sum runs left to right over the line's neighbours in ascending
order, as in the loop above, on every backend, chunk grid and shard
count (the ``sk_sweep`` kernels fold over the graph's cached line
layouts).  :func:`~repro.scaling.convergence.column_sum_error` sums with
``numpy.add.reduceat`` in a different order, so it agrees with the
reported ``error`` to a few ulps, not bitwise.

Empty rows/columns keep their factor at 1 and are excluded from the error
— see Section 3.3 of the paper for why heavily non-converged scalings are
still useful (with column sums ≥ α the OneSided guarantee degrades
gracefully to ``1 - e^{-α}``).

``iterations=0`` is meaningful and used throughout the paper's tables: it
leaves ``dr = dc = 1``, which makes the heuristics pick neighbours
uniformly at random (the "no guarantee" baseline of Figure 5).

Degradation ladder
------------------

Sinkhorn–Knopp provably converges only on matrices with total support;
anywhere else a tolerance loop just burns its full ``max_iterations``
budget.  The support-aware guard detects structurally hopeless inputs —
empty rows/columns cheaply, lack of total support via the
Dulmage–Mendelsohn machinery behind a size cutoff — and falls down a
declared ladder instead of thrashing:

1. ``"full"`` — the requested computation (default rung).
2. ``"capped"`` — deficiency detected: the iteration budget is capped at
   :data:`CAPPED_ITERATIONS` and a :class:`~repro.errors.ConvergenceWarning`
   carrying the achieved column-sum error is emitted; the Section 3.3
   relaxed guarantee still applies to the heuristics.
3. ``"uniform"`` — degenerate input (no nonzeros) or a non-finite
   scaling: fall back to pattern-uniform ``dr = dc = 1``, which always
   yields a valid (if guarantee-free) choice distribution.

The rung used is recorded in :attr:`ScalingResult.rung`, so
``OneSidedMatch``/``TwoSidedMatch`` can report the best attainable
guarantee instead of failing (see ``docs/resilience.md``).
:func:`resolve_budget` takes the ladder decision and
:func:`maybe_warn_capped` emits the warning, for this loop and for the
sharded one (:mod:`repro.shard.pipeline`) alike.
"""

from __future__ import annotations

import warnings

import numpy as np

from repro import telemetry as _tm
from repro._typing import FloatArray
from repro.errors import ConvergenceWarning, ScalingError
from repro.graph.csr import BipartiteGraph
from repro.parallel.backends import Backend, get_backend
from repro.parallel.kernels import _reciprocal_or_one, run_kernel
from repro.scaling.convergence import column_sum_error
from repro.scaling.result import ScalingResult

__all__ = [
    "scale_sinkhorn_knopp",
    "sinkhorn_knopp_work_profile",
    "initial_factors",
    "resolve_budget",
    "maybe_warn_capped",
    "CAPPED_ITERATIONS",
    "SUPPORT_CHECK_CUTOFF",
]

#: Iteration budget on the ``"capped"`` rung.
CAPPED_ITERATIONS = 25
#: Largest nonzero count at which the full total-support test (a
#: maximum-matching computation) is attempted; above it only the O(n)
#: empty-row/column check runs.
SUPPORT_CHECK_CUTOFF = 10_000


def initial_factors(
    graph: BipartiteGraph,
    initial: "tuple[FloatArray, FloatArray] | ScalingResult | None",
) -> tuple[FloatArray, FloatArray, bool]:
    """Resolve the ``initial=`` warm-start argument into ``(dr, dc, warm)``.

    Accepts a ``(dr, dc)`` pair or a whole :class:`ScalingResult` (its
    vectors are reused); ``None`` yields the cold all-ones start.  The
    returned arrays are fresh copies sized for *graph*, validated to be
    finite and strictly positive — a poisoned warm start would silently
    corrupt every downstream choice probability.
    """
    if initial is None:
        return (
            np.ones(graph.nrows, dtype=np.float64),
            np.ones(graph.ncols, dtype=np.float64),
            False,
        )
    if isinstance(initial, ScalingResult):
        dr0, dc0 = initial.dr, initial.dc
    else:
        try:
            dr0, dc0 = initial
        except (TypeError, ValueError):
            raise ScalingError(
                "initial must be a (dr, dc) pair or a ScalingResult, "
                f"got {type(initial).__name__}"
            ) from None
    dr = np.array(dr0, dtype=np.float64, copy=True).ravel()
    dc = np.array(dc0, dtype=np.float64, copy=True).ravel()
    if dr.shape != (graph.nrows,) or dc.shape != (graph.ncols,):
        raise ScalingError(
            f"initial factors must have shapes ({graph.nrows},) and "
            f"({graph.ncols},), got {dr.shape} and {dc.shape}"
        )
    if not (np.isfinite(dr).all() and np.isfinite(dc).all()):
        raise ScalingError("initial factors must be finite")
    if (dr <= 0).any() or (dc <= 0).any():
        raise ScalingError("initial factors must be strictly positive")
    return dr, dc, True


def _lacks_total_support(
    graph: BipartiteGraph, support_check_cutoff: int
) -> bool:
    """Whether SK provably cannot converge on *graph*'s pattern.

    Empty rows/columns are an O(n) necessary check; the full total-support
    test (every edge on some perfect matching) needs a maximum matching,
    so it only runs on square matrices up to *support_check_cutoff*
    nonzeros.  Returns ``False`` when undecided — the ladder only demotes
    on proof.
    """
    if (np.diff(graph.row_ptr) == 0).any() or (
        np.diff(graph.col_ptr) == 0
    ).any():
        return True
    if graph.nrows != graph.ncols:
        # Rectangular patterns have no total support in the square sense;
        # the paper scales them with the rectangular variant of SK, whose
        # stationary point is r-by-c stochastic, so we do not demote here.
        return False
    if graph.nnz > support_check_cutoff:
        return False
    from repro.graph.dm import dulmage_mendelsohn

    return not dulmage_mendelsohn(graph).total_support


def resolve_budget(
    graph: BipartiteGraph,
    iterations: int | None,
    tolerance: float | None,
    *,
    max_iterations: int = 1000,
    degradation: bool = True,
) -> tuple[int, int, str]:
    """Validate the budget arguments and take the ladder decision.

    Returns ``(limit, requested_limit, rung)``: the sweeps to run, the
    sweeps asked for, and the starting rung (the loop itself may still
    fall to ``"uniform"`` on a non-finite scaling).
    """
    if iterations is not None and tolerance is not None:
        raise ScalingError("pass either iterations or tolerance, not both")
    if iterations is None and tolerance is None:
        iterations = 10  # the paper's default working budget
    if iterations is not None and iterations < 0:
        raise ScalingError(f"iterations must be >= 0, got {iterations}")
    if tolerance is not None and tolerance <= 0:
        raise ScalingError(f"tolerance must be positive, got {tolerance}")
    limit = iterations if iterations is not None else max_iterations
    requested_limit = limit
    rung = "full"
    if degradation:
        if graph.nnz == 0:
            # Nothing to balance: pattern-uniform is the exact answer.
            rung, limit = "uniform", 0
        elif _lacks_total_support(
            graph,
            # The maximum-matching test is only worth its cost when it
            # can actually save sweeps (or a doomed tolerance loop).
            SUPPORT_CHECK_CUTOFF if limit > CAPPED_ITERATIONS else 0,
        ):
            rung = "capped"
            limit = min(limit, CAPPED_ITERATIONS)
    return limit, requested_limit, rung


def maybe_warn_capped(
    rung: str,
    converged: bool,
    done: int,
    error: float,
    limit: int,
    requested_limit: int,
    tolerance: float | None,
) -> None:
    """Emit the ``"capped"`` rung's :class:`ConvergenceWarning` when the
    cap (or a tolerance it kept out of reach) cut the run short.  The
    warning points at the caller of the function that calls this one."""
    if rung == "capped" and not converged and (
        limit < requested_limit or tolerance is not None
    ):
        warnings.warn(
            ConvergenceWarning(
                f"matrix lacks total support; Sinkhorn-Knopp stopped "
                f"on the '{rung}' rung after {done} iteration(s) with "
                f"column-sum error {error:.6g}",
                achieved_error=error,
                rung=rung,
            ),
            stacklevel=3,
        )


def scale_sinkhorn_knopp(
    graph: BipartiteGraph,
    iterations: int | None = None,
    *,
    tolerance: float | None = None,
    max_iterations: int = 1000,
    backend: Backend | str | None = None,
    initial: tuple[FloatArray, FloatArray] | ScalingResult | None = None,
    track_history: bool = False,
    degradation: bool = True,
) -> ScalingResult:
    """Scale *graph*'s adjacency pattern toward doubly stochastic form.

    Parameters
    ----------
    graph:
        The (0,1) matrix as a :class:`~repro.graph.BipartiteGraph`.
    iterations:
        Run exactly this many column+row sweeps.  Mutually exclusive with
        *tolerance*; the paper's experiments use fixed small counts
        (0, 1, 5, 10).
    tolerance:
        Iterate until the column-sum error drops below this value (or
        *max_iterations* is hit).
    backend:
        Execution backend for the segment reductions (see
        :func:`repro.parallel.get_backend`); serial by default.
    initial:
        Warm-start scaling factors: a ``(dr, dc)`` pair or a previous
        :class:`ScalingResult` (its vectors are reused).  Starting from
        a near-fixed-point — e.g. the converged factors of a graph that
        has since received a small edit batch — reaches tolerance in a
        few sweeps instead of a cold run's full budget; the sweeps not
        spent are published as the ``scaling.warm_sweeps_saved``
        counter.  Factors must be finite, strictly positive, and sized
        for *graph* (:class:`~repro.errors.ScalingError` otherwise).
    track_history:
        Record the error after every iteration in the result.
    degradation:
        Enable the support-aware degradation ladder (see the module
        docstring).  With ``False`` the requested budget is always run
        and ``rung`` stays ``"full"``.

    Returns
    -------
    ScalingResult
        Scaling vectors, final error, iteration count, convergence flag,
        and the degradation-ladder rung used.
    """
    limit, requested_limit, rung = resolve_budget(
        graph, iterations, tolerance,
        max_iterations=max_iterations, degradation=degradation,
    )
    be = get_backend(backend)

    dr, dc, warm = initial_factors(graph, initial)
    # Double buffer for the fused sweep: each fused call measures the
    # error of the *current* dc and writes the next column factors here;
    # they are committed (by swap) only if the iteration proceeds.
    dc_next = np.empty_like(dc)
    history: list[float] = []

    cols = graph.col_layout()._asdict()
    rows = graph.row_layout()._asdict()

    def col_sweep_with_error() -> float:
        """One fused column pass: the convergence error of the current
        ``(dr, dc)`` and, as a side effect, the next ``dc`` in
        ``dc_next``.  One gather+fold serves both, which cuts a full
        SK iteration from three O(nnz) passes to two."""
        errs = run_kernel(
            "sk_sweep_err", graph.ncols,
            {**cols, "opp": dr, "mine": dc, "out": dc_next},
            backend=be,
        )
        # np.max propagates NaN (unlike builtin max), which the
        # non-finite fallback below relies on.
        return float(np.max(errs)) if errs else 0.0

    def row_sweep() -> None:
        run_kernel(
            "sk_sweep", graph.nrows, {**rows, "opp": dc, "out": dr},
            backend=be,
        )

    done = 0
    converged = False
    with _tm.span(
        "scaling.sinkhorn_knopp",
        nrows=graph.nrows, ncols=graph.ncols, nnz=graph.nnz,
    ) as sp:
        error = col_sweep_with_error()
        for _ in range(limit):
            if tolerance is not None and error <= tolerance:
                converged = True
                break
            dc, dc_next = dc_next, dc  # commit the fused column sweep
            row_sweep()
            done += 1
            error = col_sweep_with_error()
            if track_history:
                history.append(error)
            if _tm.enabled():
                _tm.incr("scaling.sk.sweeps")
                _tm.event("scaling.sk.sweep", iteration=done, error=error)
        if tolerance is not None and error <= tolerance:
            converged = True
        if not (
            np.isfinite(error)
            and np.isfinite(dr).all()
            and np.isfinite(dc).all()
        ):
            # Last rung of the ladder: a non-finite scaling would poison
            # the choice probabilities, so fall back to pattern-uniform.
            rung = "uniform"
            dr[:] = 1.0
            dc[:] = 1.0
            converged = False
            error = column_sum_error(graph, dr, dc)
        maybe_warn_capped(
            rung, converged, done, error, limit, requested_limit, tolerance
        )
        if rung != "full":
            _tm.incr("scaling.sk.degraded")
            _tm.event("scaling.sk.degraded", rung=rung, error=error)
        if warm and _tm.enabled():
            _tm.incr("scaling.sk.warm_starts")
            _tm.set_gauge("scaling.warm_iterations", done)
            if converged:
                # Sweeps the warm start left unspent from the budget a
                # cold tolerance run was allowed to burn.
                _tm.incr("scaling.warm_sweeps_saved", max(0, limit - done))
        _tm.set_gauge("scaling.sk.error", error)
        sp.set(
            iterations=done, error=error, converged=converged, rung=rung,
            warm=warm,
        )

    return ScalingResult(
        dr=dr,
        dc=dc,
        error=error,
        iterations=done,
        converged=converged,
        history=tuple(history),
        rung=rung,
        warm_started=warm,
    )


def sinkhorn_knopp_work_profile(graph: BipartiteGraph) -> FloatArray:
    """Per-row work units of one ScaleSK iteration, for the machine model.

    A row costs its degree (the gather+reduce over its nonzeros) plus a
    constant for the pointer arithmetic and the reciprocal; the column
    sweep has the mirrored profile, so one iteration's total work profile
    is the sum of both sides mapped onto a common "loop item" axis.  The
    model schedules the row sweep (the longer of the two on skewed
    matrices) — scheduling both sweeps separately changes speedups by <2%.
    """
    return graph.row_degrees().astype(np.float64) + 4.0
