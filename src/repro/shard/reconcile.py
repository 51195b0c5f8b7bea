"""Boundary reconciliation: Karp–Sipser as synchronous merge rounds.

The round-based KS engine runs rounds of *scan all out-one vertices →
last-writer-wins conflict resolution in ascending vertex order → commit +
degree decrement*, then a one-shot column phase 2.  In this full-scan
form it is a sequence of whole-array passes, so it shards naturally:
each shard scans only its owned unified-id ranges
(its rows, then its columns — boundary edges included, since a choice may
point into a foreign shard), the driver concatenates the per-shard
candidate lists in shard order — which *is* the serial ascending scan
order, because ownership ranges are contiguous and sorted — and every
shard applies the identical merged commit to its replicated O(n) state.

The commit's last-writer-wins scatter in ascending candidate order is the
deterministic tie order of the subsystem: it never consults shard ids, so
the merged matching is independent of the shard count.  :class:`ReconcileState`
is the single implementation of scan/commit used by the serial check and
by every shard session (:mod:`repro.shard.session`), in process or in a
daemon.  It keeps the full scan every round
and is the reference for the single-process engine
(:func:`repro.core.karp_sipser_mt.karp_sipser_mt_vectorized`), which
after round 1 examines only Lemma 4's frontier and must still produce
the same candidates, matching and round count bitwise.
"""

from __future__ import annotations

import numpy as np

from .._typing import NIL, IndexArray
from ..core.karp_sipser_mt import matching_from_unified, unify_choices
from ..matching.matching import Matching

__all__ = ["ReconcileState", "reconcile_serial"]


class ReconcileState:
    """Replicated state of the full-scan KS rounds, driven in BSP rounds.

    ``scan_range`` is the shard-local step (pure read); ``commit`` applies
    one merged round and is deterministic given the merged candidate list.
    Neither depends on where the scan axis is cut, so the final ``match``
    array is bitwise equal to :func:`karp_sipser_mt_vectorized` for any
    partition of the scan axis.
    """

    def __init__(self, choice: IndexArray, nrows: int, ncols: int) -> None:
        self.nrows = nrows
        self.ncols = ncols
        self.n = nrows + ncols
        self.choice = np.asarray(choice, dtype=np.int64)
        self.match = np.full(self.n, NIL, dtype=np.int64)
        valid = self.choice != NIL
        self.in_count = np.zeros(self.n, dtype=np.int64)
        np.add.at(self.in_count, self.choice[valid], 1)
        self.alive = valid.copy()
        self.rounds = 0

    @classmethod
    def from_choices(
        cls, row_choice: IndexArray, col_choice: IndexArray
    ) -> "ReconcileState":
        choice, nrows, ncols = unify_choices(row_choice, col_choice)
        return cls(choice, nrows, ncols)

    def scan_range(self, lo: int, hi: int) -> IndexArray:
        """Out-one candidates among unified ids ``[lo, hi)`` — no
        ``usable`` filter here; that needs the merged global view and is
        applied identically by every shard in :meth:`commit`."""
        sl = slice(lo, hi)
        return lo + np.flatnonzero(
            self.alive[sl] & (self.in_count[sl] == 0) & (self.match[sl] == NIL)
        )

    def commit(self, candidates: IndexArray) -> bool:
        """Apply one merged round; ``False`` means the round was empty
        after the usable filter (phase 1 is done)."""
        candidates = np.asarray(candidates, dtype=np.int64)
        targets = self.choice[candidates]
        if candidates.size:
            usable = self.match[targets] == NIL
            candidates = candidates[usable]
            targets = targets[usable]
        if candidates.size == 0:
            return False
        self.rounds += 1
        winner_of = np.full(self.n, NIL, dtype=np.int64)
        winner_of[targets] = candidates  # last writer wins: the tie order
        winners = winner_of[targets] == candidates
        w = candidates[winners]
        t = targets[winners]
        self.match[w] = t
        self.match[t] = w
        self.alive[candidates] = False
        self.alive[w] = False
        t_next = self.choice[t]
        has_next = t_next != NIL
        np.subtract.at(self.in_count, t_next[has_next], 1)
        return True

    def phase2(self) -> None:
        """The engine's one-shot column pass: unmatched columns claim their
        chosen still-free rows, conflicts resolved by the same scatter."""
        cols = np.arange(self.nrows, self.n, dtype=np.int64)
        v = self.choice[cols]
        ok = (v != NIL) & (self.match[cols] == NIL)
        ok[ok] &= self.match[v[ok]] == NIL
        cu = cols[ok]
        cv = v[ok]
        winner_of = np.full(self.n, NIL, dtype=np.int64)
        winner_of[cv] = cu
        keep = winner_of[cv] == cu
        self.match[cu[keep]] = cv[keep]
        self.match[cv[keep]] = cu[keep]

    def result(self) -> Matching:
        return matching_from_unified(self.match, self.nrows, self.ncols)

    # -- checkpoint plumbing (shard daemons) ------------------------------

    def export_state(self) -> dict:
        return {
            "nrows": self.nrows,
            "ncols": self.ncols,
            "choice": self.choice.tolist(),
            "match": self.match.tolist(),
            "in_count": self.in_count.tolist(),
            "alive": [int(a) for a in self.alive],
            "rounds": self.rounds,
        }

    @classmethod
    def import_state(cls, state: dict) -> "ReconcileState":
        obj = cls.__new__(cls)
        obj.nrows = int(state["nrows"])
        obj.ncols = int(state["ncols"])
        obj.n = obj.nrows + obj.ncols
        obj.choice = np.asarray(state["choice"], dtype=np.int64)
        obj.match = np.asarray(state["match"], dtype=np.int64)
        obj.in_count = np.asarray(state["in_count"], dtype=np.int64)
        obj.alive = np.asarray(state["alive"], dtype=np.int64).astype(bool)
        obj.rounds = int(state["rounds"])
        return obj


def reconcile_serial(
    row_choice: IndexArray, col_choice: IndexArray
) -> tuple[Matching, int]:
    """Single-shard reference: drive :class:`ReconcileState` over the full
    axis.  Returns the matching and the round count that tests pin the
    frontier engines behind :func:`karp_sipser_mt_vectorized` and
    ``karp_sipser_mt_parallel`` to, bitwise."""
    state = ReconcileState.from_choices(row_choice, col_choice)
    ranges = [(0, state.nrows), (state.nrows, state.n)]
    while state.commit(
        np.concatenate([state.scan_range(lo, hi) for lo, hi in ranges])
    ):
        pass
    state.phase2()
    return state.result(), state.rounds
