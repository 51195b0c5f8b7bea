"""``KarpSipserMT`` — the paper's Algorithm 4.

A specialised, parallelisable Karp–Sipser that is an *exact* maximum
matching algorithm on "choice subgraphs": graphs whose edge set is
``{(u, choice[u])}`` for a 1-out choice per vertex (rows choose columns,
columns choose rows).  The paper's Lemmas 1–4 justify the two phases:

* every component has at most one cycle (Lemma 1);
* Phase 1 needs to track only **out-one** vertices — an in-one vertex
  implies an out-one vertex exists (Lemma 2), and consuming an out-one
  vertex creates at most one new out-one vertex, so a thread can follow
  the chain without any worklist (Lemma 4);
* after Phase 1, the column-choice edges of the residual graph form a
  maximum matching of it, so Phase 2 is a plain parallel loop (Lemma 3).

Vertex numbering: the unified id space puts rows at ``0..nrows-1`` and
columns at ``nrows..nrows+ncols-1``.  ``choice[u] = NIL`` is allowed (an
empty row/column has nothing to choose) — such vertices are isolated in
the choice subgraph.

These engines share this logic:

* :func:`karp_sipser_mt` — serial execution (the reference);
* :func:`karp_sipser_mt_vectorized` and :func:`karp_sipser_mt_parallel`
  — one in-process numpy round engine, the fast path for large
  instances: each round consumes every current out-one vertex, and after
  round 1 only Lemma 4's frontier is examined.  ``parallel`` is the name
  ``two_sided_match(engine="parallel")`` calls; its backend drives
  Sinkhorn–Knopp and choice sampling, not these rounds;
* :func:`karp_sipser_mt_simulated` — p simulated threads under a
  :class:`~repro.parallel.simthread.SimScheduler`, using the atomic
  operations exactly where Algorithm 4 places them — this is how the
  concurrency claims are verified;
* :func:`karp_sipser_mt_threaded` — real Python threads with striped-lock
  atomics (correctness demonstration on real threads; CPython's GIL makes
  it a correctness tool, not a speed tool — see DESIGN.md).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import telemetry as _tm
from repro._typing import IndexArray, SeedLike
from repro.errors import MatchingError, ShapeError
from repro.graph.build import from_edges
from repro.graph.csr import BipartiteGraph
from repro.matching.matching import NIL, Matching
from repro.parallel.atomics import AtomicArray
from repro.parallel.partition import guided_chunks
from repro.parallel.simthread import SchedulePolicy, SimScheduler

__all__ = [
    "KarpSipserMTStats",
    "karp_sipser_mt",
    "karp_sipser_mt_vectorized",
    "karp_sipser_mt_parallel",
    "karp_sipser_mt_simulated",
    "karp_sipser_mt_threaded",
    "choice_graph",
    "unify_choices",
    "matching_from_unified",
    "karp_sipser_mt_work_profile",
]


@dataclass(frozen=True)
class KarpSipserMTStats:
    """Counters from one KarpSipserMT run."""

    #: Vertices matched during Phase 1 (out-one chains), counted in pairs.
    phase1_pairs: int
    #: Pairs matched during Phase 2 (residual cycles and 2-cliques).
    phase2_pairs: int
    #: Number of Phase-1 chains initiated (root out-one vertices consumed).
    chains: int
    #: Longest chain followed by a single (possibly simulated) thread.
    longest_chain: int

    @property
    def cardinality(self) -> int:
        return self.phase1_pairs + self.phase2_pairs


def _record_stats(engine: str, stats: KarpSipserMTStats) -> None:
    """Publish one run's phase counters (telemetry known to be enabled).

    Engines call this once per run, after the fact — the instrumentation
    policy keeps the per-vertex loops untouched so the disabled-mode cost
    stays at a single boolean check per engine invocation.
    """
    _tm.incr(f"ks_mt.{engine}.runs")
    _tm.incr(f"ks_mt.{engine}.phase1_pairs", stats.phase1_pairs)
    _tm.incr(f"ks_mt.{engine}.phase2_pairs", stats.phase2_pairs)
    if stats.chains >= 0:
        _tm.incr(f"ks_mt.{engine}.chains", stats.chains)
        _tm.set_gauge(f"ks_mt.{engine}.longest_chain", stats.longest_chain)
        if stats.chains:
            _tm.set_gauge(
                f"ks_mt.{engine}.mean_chain",
                stats.phase1_pairs / stats.chains,
            )


# ----------------------------------------------------------------------
# Helpers shared by the engines
# ----------------------------------------------------------------------
def unify_choices(
    row_choice: IndexArray, col_choice: IndexArray
) -> tuple[IndexArray, int, int]:
    """Concatenate row/column choice arrays into the unified id space.

    ``row_choice[i]`` is a column id (or NIL); ``col_choice[j]`` is a row
    id (or NIL).  Returns ``(choice, nrows, ncols)`` with columns shifted
    by ``nrows``.
    """
    row_choice = np.asarray(row_choice, dtype=np.int64)
    col_choice = np.asarray(col_choice, dtype=np.int64)
    nrows = int(row_choice.shape[0])
    ncols = int(col_choice.shape[0])
    if row_choice.size and row_choice.max() >= ncols:
        raise ShapeError("row_choice references column out of range")
    if col_choice.size and col_choice.max() >= nrows:
        raise ShapeError("col_choice references row out of range")
    choice = np.empty(nrows + ncols, dtype=np.int64)
    shifted = row_choice.copy()
    shifted[shifted != NIL] += nrows
    choice[:nrows] = shifted
    choice[nrows:] = col_choice
    return choice, nrows, ncols


def choice_graph(
    row_choice: IndexArray, col_choice: IndexArray
) -> BipartiteGraph:
    """Materialise the choice subgraph ``G`` of Algorithm 3 (line 8).

    The engines never need this (they work on the ``choice`` array
    directly, the optimisation the paper highlights); it exists for
    verification — e.g. running Hopcroft–Karp on ``G`` to check
    KarpSipserMT's maximality.
    """
    row_choice = np.asarray(row_choice, dtype=np.int64)
    col_choice = np.asarray(col_choice, dtype=np.int64)
    nrows, ncols = row_choice.shape[0], col_choice.shape[0]
    r_valid = np.flatnonzero(row_choice != NIL)
    c_valid = np.flatnonzero(col_choice != NIL)
    rows = np.concatenate([r_valid, col_choice[c_valid]])
    cols = np.concatenate([row_choice[r_valid], c_valid])
    return from_edges(nrows, ncols, rows, cols)


def _init_mark_deg(
    choice: IndexArray,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorised init (lines 1–9 of Algorithm 4): ``mark`` and ``deg``.

    ``mark[u] = 1`` iff no vertex chose ``u``; ``deg[v] = 1 + #{w :
    choice[w] = v, choice[v] != w}`` (mutual pairs do not count).
    """
    n = choice.shape[0]
    mark = np.ones(n, dtype=bool)
    deg = np.ones(n, dtype=np.int64)
    pointers = np.flatnonzero(choice != NIL)
    targets = choice[pointers]
    mark[targets] = False
    not_mutual = choice[targets] != pointers
    np.add.at(deg, targets[not_mutual], 1)
    return mark, deg


def matching_from_unified(
    match: IndexArray, nrows: int, ncols: int
) -> Matching:
    """Convert a unified-id match array into a :class:`Matching`.

    Raises :class:`MatchingError` unless every matched row points at a
    column, every matched column at a row, and every partner points back
    (``match[match[u]] == u``) — a corrupted engine shows up here.
    """
    matched = np.flatnonzero(match != NIL)
    partner = match[matched]
    if partner.size and (
        partner.min() < 0
        or partner.max() >= nrows + ncols
        or np.any((matched < nrows) == (partner < nrows))
        or not np.array_equal(match[partner], matched)
    ):
        raise MatchingError("unified match array is inconsistent")
    matched_rows = matched[: np.searchsorted(matched, nrows)]
    row_match = match[:nrows].copy()
    row_match[matched_rows] -= nrows
    return Matching(row_match, match[nrows:].copy())


# ----------------------------------------------------------------------
# Serial engine
# ----------------------------------------------------------------------
def karp_sipser_mt(
    row_choice: IndexArray,
    col_choice: IndexArray,
    *,
    with_stats: bool = False,
) -> Matching | tuple[Matching, KarpSipserMTStats]:
    """Run Algorithm 4 serially on a choice subgraph.

    Returns a maximum-cardinality matching of the graph
    ``{(i, row_choice[i])} ∪ {(col_choice[j], j)}``.
    """
    choice, nrows, ncols = unify_choices(row_choice, col_choice)
    n = nrows + ncols
    with _tm.span("karp_sipser_mt.serial", n=n) as sp:
        mark, deg = _init_mark_deg(choice)
        match = np.full(n, NIL, dtype=np.int64)

        phase1_pairs = 0
        chains = 0
        longest = 0

        # Phase 1: out-one chains.
        with _tm.span("phase1"):
            for u in range(n):
                if not mark[u] or choice[u] == NIL:
                    continue
                curr = u
                length = 0
                while curr != NIL:
                    nbr = int(choice[curr])
                    if nbr == NIL or match[nbr] != NIL:
                        break
                    match[nbr] = curr
                    match[curr] = nbr
                    phase1_pairs += 1
                    length += 1
                    nxt = int(choice[nbr])
                    curr = NIL
                    if nxt != NIL and match[nxt] == NIL:
                        deg[nxt] -= 1
                        if deg[nxt] == 1:
                            curr = nxt
                if length:
                    chains += 1
                    longest = max(longest, length)

        # Phase 2: residual cycles / 2-cliques via column choices.
        phase2_pairs = 0
        with _tm.span("phase2", loop_size=ncols):
            for j in range(ncols):
                u = nrows + j
                v = int(choice[u])
                if v != NIL and match[u] == NIL and match[v] == NIL:
                    match[u] = v
                    match[v] = u
                    phase2_pairs += 1

        result = matching_from_unified(match, nrows, ncols)
        stats = KarpSipserMTStats(phase1_pairs, phase2_pairs, chains, longest)
        if _tm.enabled():
            _record_stats("serial", stats)
            sp.set(cardinality=stats.cardinality)
    if with_stats:
        return result, stats
    return result


# ----------------------------------------------------------------------
# Round-based engine (vectorized and parallel)
# ----------------------------------------------------------------------
def _out_one_rounds(
    choice: IndexArray, nrows: int, ncols: int
) -> tuple[IndexArray, int, int, int]:
    """Algorithm 4 in data-parallel rounds.

    Returns ``(match, rounds, phase1_pairs, phase2_pairs)``.  A round
    takes every usable out-one vertex — one with a choice, chosen by no
    unmatched vertex, unmatched itself and with an unmatched target — in
    ascending order.  Candidates sharing a target are resolved by a
    scatter: the last writer (the largest id) wins, the data-parallel
    analogue of the CAS, and every candidate of the round leaves the
    candidate pool.  Each matched target ``t`` takes its out-pointer
    with it, so ``choice[t]`` loses an in-pointer.

    Only round 1 scans every vertex.  Being matched and leaving the pool
    are permanent and in-counts only fall, so a vertex can enter a later
    round only when the previous round's decrements drive its in-count
    to 0 — Lemma 4's frontier, at most one new out-one per consumed
    vertex.  Such a vertex had an in-pointer in every earlier round, so
    it never left the pool; the frontier is filtered by the other tests
    (a choice, unmatched, an unmatched target) and sorted, so every
    round sees exactly the candidates a full rescan
    (:class:`repro.shard.reconcile.ReconcileState`) finds.
    """
    n = nrows + ncols
    match = np.full(n, NIL, dtype=np.int64)
    valid = choice != NIL
    # in_count[u]: unmatched vertices whose choice is u.
    in_count = np.bincount(choice[valid], minlength=n)
    # One conflict-scatter buffer for the run.  It needs no reset: every
    # target a scatter writes is matched by it, and later scatters touch
    # only unmatched vertices.
    winner_of = np.full(n, NIL, dtype=np.int64)
    # Round 1: nothing is matched yet, so every target is usable.
    cand = np.flatnonzero(valid & (in_count == 0))
    rounds = phase1 = 0
    while cand.size:
        rounds += 1
        targets = choice[cand]
        winner_of[targets] = cand
        won = winner_of[targets] == cand
        w = cand[won]
        t = targets[won]
        match[w] = t
        match[t] = w
        phase1 += int(w.size)
        nxt = choice[t]
        nxt = nxt[nxt != NIL]
        np.subtract.at(in_count, nxt, 1)
        # The next frontier, de-duplicated by a sort: np.unique's hash
        # path costs more here.
        front = nxt[in_count[nxt] == 0]
        front.sort()
        first = np.ones(front.size, dtype=bool)
        np.not_equal(front[1:], front[:-1], out=first[1:])
        front = front[first]
        target = choice[front]
        keep = (target != NIL) & (match[front] == NIL)
        keep[keep] = match[target[keep]] == NIL
        cand = front[keep]

    # Phase 2: residual cycles and 2-cliques via column choices (Lemma 3:
    # the residual column choices are pairwise distinct; the scatter only
    # keeps arbitrary inputs valid).
    col_choice = choice[nrows:]
    cu = np.flatnonzero((col_choice != NIL) & (match[nrows:] == NIL))
    cv = col_choice[cu]
    free = match[cv] == NIL
    cu = cu[free] + nrows
    cv = cv[free]
    winner_of[cv] = cu
    keep = winner_of[cv] == cu
    cu = cu[keep]
    cv = cv[keep]
    match[cu] = cv
    match[cv] = cu
    return match, rounds, phase1, int(cu.size)


def _round_engine(
    engine: str, row_choice: IndexArray, col_choice: IndexArray
) -> Matching:
    """Run :func:`_out_one_rounds` in-process under *engine*'s telemetry."""
    choice, nrows, ncols = unify_choices(row_choice, col_choice)
    n = nrows + ncols
    with _tm.span(f"karp_sipser_mt.{engine}", n=n) as sp:
        match, rounds, phase1, phase2 = _out_one_rounds(choice, nrows, ncols)
        result = matching_from_unified(match, nrows, ncols)
        if _tm.enabled():
            _record_stats(
                engine,
                KarpSipserMTStats(phase1, phase2, chains=-1, longest_chain=-1),
            )
            _tm.incr(f"ks_mt.{engine}.rounds", rounds)
            sp.set(rounds=rounds, cardinality=phase1 + phase2)
    return result


def karp_sipser_mt_vectorized(
    row_choice: IndexArray,
    col_choice: IndexArray,
) -> Matching:
    """Round-based numpy implementation of Algorithm 4.

    Phase 1 processes *all current out-one vertices per round* instead of
    chasing chains one thread at a time, resolving conflicts by a scatter
    and exposing the next round's out-ones by bulk in-count decrements;
    after round 1 only that frontier is examined, never the whole vertex
    set (see :func:`_out_one_rounds`).  The number of rounds is the
    longest chain length (tiny on 1-out graphs), and each round is pure
    numpy — on large instances this engine is ~an order of magnitude
    faster than the Python-loop serial engine, with identical cardinality
    (it computes a maximum matching of the same choice subgraph; tests
    cross-check both).
    """
    return _round_engine("vectorized", row_choice, col_choice)


def karp_sipser_mt_parallel(
    row_choice: IndexArray,
    col_choice: IndexArray,
) -> Matching:
    """The ``engine="parallel"`` Karp–Sipser: the vectorized rounds.

    Runs the same in-process rounds as :func:`karp_sipser_mt_vectorized`
    and returns a bitwise-identical matching; only its telemetry is
    recorded under ``ks_mt.parallel``.  In ``two_sided_match`` the
    backend drives Sinkhorn–Knopp and choice sampling.  The rounds stay
    off it: a round after the first reads only its frontier, and copying
    the round's writable arrays to a pool costs more than that.
    """
    return _round_engine("parallel", row_choice, col_choice)


# ----------------------------------------------------------------------
# Simulated-parallel engine
# ----------------------------------------------------------------------
def _phase1_program(
    vertices: IndexArray,
    choice: IndexArray,
    mark: np.ndarray,
    match: AtomicArray,
    deg: AtomicArray,
):
    """One simulated thread's Phase-1 body.

    Yields before every shared-memory access so the scheduler can
    interleave threads at exactly the granularity real hardware would.

    Lost CAS races (another thread claimed the neighbour first) are
    aggregated locally and recorded once per program as the
    ``ks_mt.simulated.cas_lost`` counter — the paper's "retry" events.
    """
    cas_lost = 0
    for u in vertices:
        u = int(u)
        if not mark[u] or choice[u] == NIL:
            continue
        curr = u
        while curr != NIL:
            nbr = int(choice[curr])
            if nbr == NIL:
                # A chain can continue into a vertex whose own choice is
                # NIL (possible only without total support); it is a dead
                # end.
                break
            yield ("cas", nbr)
            if match.compare_and_swap(nbr, NIL, curr) == curr:
                yield ("store", curr)
                match.store(curr, nbr)
                nxt = int(choice[nbr])
                curr = NIL
                if nxt != NIL:
                    yield ("load", nxt)
                    if match.load(nxt) == NIL:
                        yield ("addfetch", nxt)
                        if deg.add_and_fetch(nxt, -1) == 1:
                            curr = nxt
            else:
                cas_lost += 1
                curr = NIL
        yield ("next", u)
    if cas_lost:
        _tm.incr("ks_mt.simulated.cas_lost", cas_lost)


def _phase2_program(
    columns: IndexArray,
    choice: IndexArray,
    nrows: int,
    match: AtomicArray,
):
    """One simulated thread's Phase-2 body (plain reads/writes — the
    residual structure makes them conflict-free; see Lemma 3)."""
    for j in columns:
        u = nrows + int(j)
        v = int(choice[u])
        if v == NIL:
            continue
        yield ("load", u)
        if match.load(u) != NIL:
            continue
        yield ("load", v)
        if match.load(v) != NIL:
            continue
        yield ("store", u)
        match.store(u, v)
        yield ("store", v)
        match.store(v, u)


def karp_sipser_mt_simulated(
    row_choice: IndexArray,
    col_choice: IndexArray,
    n_threads: int,
    *,
    policy: SchedulePolicy | str = SchedulePolicy.RANDOM,
    seed: SeedLike = None,
    with_stats: bool = False,
) -> Matching | tuple[Matching, KarpSipserMTStats]:
    """Run Algorithm 4 under *n_threads* simulated threads.

    The vertex range is split into OpenMP-``guided``-style chunks dealt
    round-robin to threads (matching the paper's ``schedule(guided)``),
    and the scheduler interleaves the threads' atomic steps per *policy*.
    The result is a maximum matching for **every** schedule; tests sweep
    policies and seeds to exercise the races.
    """
    if n_threads < 1:
        raise ShapeError(f"n_threads must be >= 1, got {n_threads}")
    choice, nrows, ncols = unify_choices(row_choice, col_choice)
    n = nrows + ncols
    with _tm.span(
        "karp_sipser_mt.simulated", n=n, n_threads=n_threads
    ) as sp:
        mark, deg0 = _init_mark_deg(choice)
        match = AtomicArray(np.full(n, NIL, dtype=np.int64))
        deg = AtomicArray(deg0)

        chunks = guided_chunks(n, n_threads, 16)
        assignment: list[list[int]] = [[] for _ in range(n_threads)]
        for idx, (lo, hi) in enumerate(chunks):
            assignment[idx % n_threads].extend(range(lo, hi))

        programs = [
            _phase1_program(
                np.asarray(vs, dtype=np.int64), choice, mark, match, deg
            )
            for vs in assignment
            if vs
        ]
        with _tm.span("phase1"):
            SimScheduler(programs, policy=policy, seed=seed).run()
        phase1_pairs = int(np.count_nonzero(match.values != NIL)) // 2

        col_chunks = guided_chunks(ncols, n_threads, 16)
        col_assignment: list[list[int]] = [[] for _ in range(n_threads)]
        for idx, (lo, hi) in enumerate(col_chunks):
            col_assignment[idx % n_threads].extend(range(lo, hi))
        programs2 = [
            _phase2_program(
                np.asarray(js, dtype=np.int64), choice, nrows, match
            )
            for js in col_assignment
            if js
        ]
        with _tm.span("phase2", loop_size=ncols):
            SimScheduler(programs2, policy=policy, seed=seed).run()
        total_pairs = int(np.count_nonzero(match.values != NIL)) // 2

        result = matching_from_unified(match.values, nrows, ncols)
        stats = KarpSipserMTStats(
            phase1_pairs, total_pairs - phase1_pairs, chains=-1,
            longest_chain=-1,
        )
        if _tm.enabled():
            _record_stats("simulated", stats)
            sp.set(cardinality=total_pairs)
    if with_stats:
        return result, stats
    return result


# ----------------------------------------------------------------------
# Real-thread engine
# ----------------------------------------------------------------------
def karp_sipser_mt_threaded(
    row_choice: IndexArray,
    col_choice: IndexArray,
    n_threads: int,
) -> Matching:
    """Run Algorithm 4 on real Python threads with locked atomics.

    Demonstrates the protocol on genuine concurrency.  CPython's GIL means
    this is about safety, not speed (the machine model covers speedups).
    """
    import threading

    if n_threads < 1:
        raise ShapeError(f"n_threads must be >= 1, got {n_threads}")
    choice, nrows, ncols = unify_choices(row_choice, col_choice)
    n = nrows + ncols
    mark, deg0 = _init_mark_deg(choice)
    match = AtomicArray(np.full(n, NIL, dtype=np.int64), locking=True)
    deg = AtomicArray(deg0, locking=True)

    def phase1_worker(lo: int, hi: int) -> None:
        for u in range(lo, hi):
            if not mark[u] or choice[u] == NIL:
                continue
            curr = u
            while curr != NIL:
                nbr = int(choice[curr])
                if nbr == NIL:
                    break
                if match.compare_and_swap(nbr, NIL, curr) == curr:
                    match.store(curr, nbr)
                    nxt = int(choice[nbr])
                    curr = NIL
                    if nxt != NIL and match.load(nxt) == NIL:
                        if deg.add_and_fetch(nxt, -1) == 1:
                            curr = nxt
                else:
                    curr = NIL

    def phase2_worker(lo: int, hi: int) -> None:
        for j in range(lo, hi):
            u = nrows + j
            v = int(choice[u])
            if v == NIL:
                continue
            if match.load(u) == NIL and match.load(v) == NIL:
                match.store(u, v)
                match.store(v, u)

    from repro.parallel.partition import static_partition

    with _tm.span(
        "karp_sipser_mt.threaded", n=n, n_threads=n_threads
    ) as sp:
        for name, worker, count in (
            ("phase1", phase1_worker, n), ("phase2", phase2_worker, ncols)
        ):
            threads = [
                threading.Thread(target=worker, args=(lo, hi))
                for lo, hi in static_partition(count, n_threads)
            ]
            with _tm.span(name):
                for t in threads:
                    t.start()
                for t in threads:
                    t.join()

        result = matching_from_unified(match.values, nrows, ncols)
        if _tm.enabled():
            pairs = int(np.count_nonzero(match.values != NIL)) // 2
            _tm.incr("ks_mt.threaded.runs")
            sp.set(cardinality=pairs)
    return result


# ----------------------------------------------------------------------
# Work profile for the machine model
# ----------------------------------------------------------------------
def karp_sipser_mt_work_profile(
    row_choice: IndexArray, col_choice: IndexArray
) -> np.ndarray:
    """Per-vertex Phase-1 work units for the machine cost model.

    Replays the serial engine charging, for each loop item ``u``, a unit
    for the scan plus the length of the chain rooted at ``u`` (each chain
    step is a CAS + a fetch-add + pointer reads ≈ 6 units).  This is the
    measured profile that :class:`repro.parallel.MachineModel` schedules
    with the paper's ``guided`` policy to model Figure 4a.
    """
    choice, nrows, ncols = unify_choices(row_choice, col_choice)
    n = nrows + ncols
    mark, deg = _init_mark_deg(choice)
    match = np.full(n, NIL, dtype=np.int64)
    work = np.ones(n, dtype=np.float64)
    for u in range(n):
        if not mark[u] or choice[u] == NIL:
            continue
        curr = u
        while curr != NIL:
            nbr = int(choice[curr])
            if nbr == NIL or match[nbr] != NIL:
                work[u] += 2.0
                break
            match[nbr] = curr
            match[curr] = nbr
            work[u] += 6.0
            nxt = int(choice[nbr])
            curr = NIL
            if nxt != NIL and match[nxt] == NIL:
                deg[nxt] -= 1
                if deg[nxt] == 1:
                    curr = nxt
    return work
