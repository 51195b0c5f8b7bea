"""``TwoSidedMatch`` — the paper's Algorithm 3.

Both sides choose: every row picks a column and every column picks a row
(probabilities from the scaled matrix), giving a ≤ 2n-edge "choice
subgraph" on which Karp–Sipser is exact (Lemmas 1–3); ``KarpSipserMT``
extracts a maximum matching of the subgraph in linear time.  Conjecture 1
puts the matching size at ``2(1 - ρ)n ≈ 0.866 n`` asymptotically on
matrices with total support.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import telemetry as _tm
from repro._typing import IndexArray, SeedLike, rng_from
from repro.constants import TWO_SIDED_GUARANTEE
from repro.core.onesided import _rung_guarantee
from repro.errors import ShapeError
from repro.graph.csr import BipartiteGraph
from repro.matching.matching import NIL, Matching
from repro.parallel.backends import Backend, get_backend
from repro.parallel.simthread import SchedulePolicy
from repro.scaling.result import ScalingResult
from repro.scaling.sinkhorn_knopp import scale_sinkhorn_knopp
from repro.core.choice import scaled_col_choices, scaled_row_choices
from repro.core.karp_sipser_mt import (
    KarpSipserMTStats,
    karp_sipser_mt,
    karp_sipser_mt_parallel,
    karp_sipser_mt_simulated,
    karp_sipser_mt_threaded,
    karp_sipser_mt_vectorized,
)

__all__ = ["TwoSidedResult", "two_sided_match"]


@dataclass(frozen=True)
class TwoSidedResult:
    """Output of :func:`two_sided_match`."""

    matching: Matching
    scaling: ScalingResult
    #: Column chosen by each row (NIL for empty rows).
    row_choice: IndexArray
    #: Row chosen by each column (NIL for empty columns).
    col_choice: IndexArray
    #: Karp–Sipser phase counters (None for engines that do not track them).
    ks_stats: KarpSipserMTStats | None = None
    #: The auction refinement when ``quality="exact"`` was requested
    #: (``matching`` is then the refined, provably maximum matching).
    refined: "object | None" = None

    @property
    def cardinality(self) -> int:
        return self.matching.cardinality

    @property
    def guarantee(self) -> float:
        """Best attainable quality floor for the scaling rung used.

        ``"full"`` rung: Conjecture 1's ``2(1 - ρ)``.  ``"capped"``
        rung: the conservative Section 3.3 one-sided relaxed bound (no
        relaxed form of Conjecture 1 is known, and TwoSided empirically
        dominates OneSided at equal scaling).  ``"uniform"`` rung: 0.
        After an exact refinement the floor is 1 — the matching is
        maximum, full stop.
        """
        if self.refined is not None:
            return 1.0
        return _rung_guarantee(self.scaling, TWO_SIDED_GUARANTEE)


def two_sided_match(
    graph: BipartiteGraph,
    iterations: int = 5,
    *,
    scaling: ScalingResult | None = None,
    seed: SeedLike = None,
    backend: Backend | str | None = None,
    engine: str = "serial",
    n_threads: int = 4,
    sim_policy: SchedulePolicy | str = SchedulePolicy.RANDOM,
    deadline: float | None = None,
    quality: str = "heuristic",
) -> TwoSidedResult:
    """Run TwoSidedMatch on *graph*.

    Parameters
    ----------
    graph:
        The bipartite graph / (0,1) matrix.
    iterations:
        Sinkhorn–Knopp iterations when *scaling* is not supplied.
    scaling:
        Reuse a precomputed scaling.
    seed:
        Randomness for the row and column choices.
    backend:
        Parallel backend for scaling and choice sampling (Karp–Sipser
        always runs in-process).
    engine:
        Karp–Sipser engine for the choice subgraph: ``"serial"``
        (reference), ``"vectorized"`` (round-based numpy — the fast path
        for large instances), ``"parallel"`` (the same engine as
        ``"vectorized"``, bitwise identical, with its telemetry under
        ``ks_mt.parallel``), ``"simulated"`` (*n_threads* simulated
        threads under *sim_policy* interleaving — the concurrency-
        verification path), or ``"threaded"`` (real Python threads with
        locked atomics).
    n_threads:
        Thread count for the non-serial engines.
    sim_policy:
        Interleaving policy for the simulated engine.
    deadline:
        Total wall-clock budget in seconds for this call, enforced per
        chunk attempt and retry backoff when *backend* is a
        :class:`~repro.resilience.ResilientBackend` (typed
        :class:`~repro.errors.DeadlineExceededError` on exhaustion);
        advisory otherwise.  Nested inside an ambient budget the
        tighter one wins.
    quality:
        ``"heuristic"`` (default) returns the choice-subgraph matching
        as-is; ``"exact"`` refines it to a provably maximum matching of
        the *full* graph with the ε-scaling auction (warm-started from
        the heuristic result and its scaling duals).

    Returns
    -------
    TwoSidedResult
        A matching that is maximum *on the choice subgraph* (for every
        engine and schedule) — or maximum on the whole graph under
        ``quality="exact"`` — the scaling, and the raw choices.
    """
    from repro.resilience.deadline import request_deadline

    if quality not in ("heuristic", "exact"):
        raise ValueError(
            f"quality must be 'heuristic' or 'exact', got {quality!r}"
        )
    be = get_backend(backend)
    rng = rng_from(seed)
    with request_deadline(deadline), _tm.span(
        "core.two_sided_match", engine=engine
    ) as sp:
        if scaling is None:
            scaling = scale_sinkhorn_knopp(graph, iterations, backend=be)

        with _tm.span("choices"):
            row_choice = scaled_row_choices(
                graph, scaling.dr, scaling.dc, rng, backend=be
            )
            col_choice = scaled_col_choices(
                graph, scaling.dr, scaling.dc, rng, backend=be
            )

        stats: KarpSipserMTStats | None = None
        if engine == "serial":
            matching, stats = karp_sipser_mt(
                row_choice, col_choice, with_stats=True
            )
        elif engine == "vectorized":
            matching = karp_sipser_mt_vectorized(row_choice, col_choice)
        elif engine == "parallel":
            matching = karp_sipser_mt_parallel(row_choice, col_choice)
        elif engine == "simulated":
            matching, stats = karp_sipser_mt_simulated(
                row_choice,
                col_choice,
                n_threads,
                policy=sim_policy,
                seed=rng,
                with_stats=True,
            )
        elif engine == "threaded":
            matching = karp_sipser_mt_threaded(
                row_choice, col_choice, n_threads
            )
        else:
            raise ShapeError(
                f"engine must be 'serial', 'vectorized', 'parallel', "
                f"'simulated' or 'threaded', got {engine!r}"
            )

        if _tm.enabled():
            # A "mutual pair" row chose a column that chose it back — a
            # 2-clique the Karp–Sipser phase keeps with certainty.
            rows = np.flatnonzero(row_choice != NIL)
            mutual = int(np.count_nonzero(col_choice[row_choice[rows]] == rows))
            _tm.incr("twosided.runs")
            _tm.incr("twosided.mutual_pairs", mutual)
            _tm.incr(
                "twosided.choices",
                int(rows.size + np.count_nonzero(col_choice != NIL)),
            )
            sp.set(
                cardinality=matching.cardinality,
                mutual_pairs=mutual,
                rung=scaling.rung,
            )

        refined = None
        if quality == "exact":
            from repro.matching.exact.auction import auction_match

            refined = auction_match(
                graph, initial=matching, scaling=scaling, backend=be,
                seed=rng,
            )
            matching = refined.matching

    return TwoSidedResult(
        matching=matching,
        scaling=scaling,
        row_choice=row_choice,
        col_choice=col_choice,
        ks_stats=stats,
        refined=refined,
    )
