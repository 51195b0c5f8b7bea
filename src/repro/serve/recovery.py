"""Crash recovery for durable stream sessions.

:func:`recover_registry` rebuilds a daemon's stream registry from a
journal directory: load the newest checkpoint (if any), truncate any
torn journal tail, replay the surviving records through the *same* code
paths that produced them, and recertify every recovered session before
a single request is served.  The contract, proven by the chaos matrix's
``recovery`` row and the committed torn-write corpus:

* every mutation that was **acknowledged** before the crash is present
  in the recovered state, bitwise — same epoch, same matching, same
  certified guarantee;
* anything the recovery cannot restore *and verify* is a typed
  :class:`~repro.errors.RecoveryError` — never a silently weaker or
  emptier state.

Recertification is not a checksum: the §3.3 guarantee of each session
is re-measured from the recovered graph and scaling factors
(:func:`~repro.stream.rescale.measure_state`) and compared exactly
against the stored warm state and the last acknowledged response.  A
checkpoint that loads cleanly but disagrees with its own graph is
refused.

The :class:`~repro.serve.router.Router` is the one supervisor: it
respawns a dead daemon with ``--recover``, which runs this path.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro import telemetry as _tm
from repro.errors import RecoveryError
from repro.serve.daemon import _StreamRegistry
from repro.serve.journal import (
    DurableLog,
    latest_generation,
    scan_journal,
)

__all__ = ["RecoveryReport", "recover_registry"]


@dataclass(frozen=True)
class RecoveryReport:
    """What a :func:`recover_registry` call found and did."""

    #: Generation recovered from (0 = no checkpoint existed yet).
    generation: int
    #: Whether a checkpoint file seeded the registry.
    from_checkpoint: bool
    #: Journal records replayed on top of the checkpoint.
    replayed_records: int
    #: Torn-tail bytes truncated from the journal (0 = clean file).
    truncated_bytes: int
    #: Open sessions after recovery.
    sessions: int

    def render(self) -> str:
        source = (
            f"checkpoint gen {self.generation}"
            if self.from_checkpoint
            else "empty state"
        )
        return (
            f"recovered {self.sessions} session(s) from {source},"
            f" {self.replayed_records} record(s) replayed,"
            f" {self.truncated_bytes} torn byte(s) truncated"
        )


def _recertify(registry: _StreamRegistry) -> None:
    """Re-prove every recovered session's certificate from its graph.

    The stored warm state claims "these factors certify this minimum
    column sum on this graph"; recovery re-measures that claim from
    scratch and compares exactly.  Divergence means the checkpoint,
    journal, and graph do not describe the same state — refuse to serve
    rather than hand out a certificate nobody ever proved.
    """
    from repro.scaling.adaptive import _min_column_sum
    from repro.stream.rescale import measure_state

    for handle, (graph, matcher) in registry._sessions.items():
        quality = matcher._quality
        if quality is None:
            continue  # never rematched; nothing was certified
        snap = graph.snapshot()
        scaling = quality.scaling
        if (
            scaling.dr.shape[0] != snap.nrows
            or scaling.dc.shape[0] != snap.ncols
        ):
            raise RecoveryError(
                f"session {handle!r}: recovered scaling factors have shape"
                f" {scaling.dr.shape[0]}x{scaling.dc.shape[0]} but the graph"
                f" is {snap.nrows}x{snap.ncols}"
            )
        # The certificate describes the graph at the matcher's epoch; a
        # journal may legitimately end with edits applied but not yet
        # rematched (the next rematch recertifies those).  Only when the
        # graph is at the certified epoch can the claim be re-measured.
        if matcher._epoch == graph.epoch:
            measured = _min_column_sum(snap, scaling.dr, scaling.dc)
            if measured != quality.min_column_sum:
                raise RecoveryError(
                    f"session {handle!r}: recertified minimum column sum"
                    f" {measured!r} diverges from the recovered certificate"
                    f" {quality.min_column_sum!r}"
                )
            if matcher._scale_state is not None:
                rowtot, colsum = measure_state(snap, scaling.dc)
                if not (
                    np.array_equal(rowtot, matcher._scale_state[0])
                    and np.array_equal(colsum, matcher._scale_state[1])
                ):
                    raise RecoveryError(
                        f"session {handle!r}: recovered warm scale state"
                        f" does not match a fresh measurement of the graph"
                    )
        ack = registry._last_ack.get(str(handle))
        if ack is not None and "guarantee" in ack:
            recovered = (
                1.0
                if matcher.exact
                else (
                    matcher.target_quality
                    if quality.target_met
                    else quality.certified_quality
                )
            )
            if recovered != ack["guarantee"]:
                raise RecoveryError(
                    f"session {handle!r}: recovered guarantee {recovered!r}"
                    f" diverges from the last acknowledged"
                    f" {ack['guarantee']!r}"
                )
        if matcher._matching is not None and matcher._epoch == graph.epoch:
            matcher._matching.validate(snap)


def recover_registry(
    directory: str | os.PathLike[str],
    *,
    backend: Any = None,
    max_streams: int = 8,
    checkpoint_every: int = 64,
    attach_journal: bool = True,
) -> tuple[_StreamRegistry, RecoveryReport]:
    """Rebuild a stream registry from a journal *directory*.

    Returns the registry (with a live :class:`DurableLog` attached,
    ready to serve, unless *attach_journal* is false) and a
    :class:`RecoveryReport`.  Raises :class:`RecoveryError` when the
    directory's state cannot be restored *and verified* — corrupted
    checkpoint, interleaved journal corruption, or replay/recertification
    divergence.
    """
    directory = os.fspath(directory)
    if not os.path.isdir(directory):
        raise RecoveryError(f"journal directory {directory!r} does not exist")
    started = time.perf_counter()
    generation, ckpt_path, wal_path = latest_generation(directory)
    registry = _StreamRegistry(max_streams, backend)

    from_checkpoint = False
    if ckpt_path is not None:
        from repro.serve.checkpoint import read_snapshot

        registry.restore_state(read_snapshot(ckpt_path))
        from_checkpoint = True

    replayed = 0
    truncated = 0
    if wal_path is not None:
        scan = scan_journal(wal_path)  # raises on interleaved corruption
        if scan.truncated:
            truncated = scan.total_bytes - scan.valid_bytes
            # Drop the torn tail on disk too: appending after garbage
            # would turn the next crash into "valid after invalid".
            with open(wal_path, "r+b") as fh:
                fh.truncate(scan.valid_bytes)
                fh.flush()
                os.fsync(fh.fileno())
        for record in scan.records:
            registry.apply_record(record)
            replayed += 1

    _recertify(registry)

    # Retire any generations left behind by a crash mid-rotation (the
    # new generation was already complete, so these are dead weight).
    for name in os.listdir(directory):
        stale = os.path.join(directory, name)
        if name.endswith(".tmp"):
            os.unlink(stale)
            continue
        for prefix in ("ckpt-", "wal-"):
            if name.startswith(prefix):
                stem = name[len(prefix) :].split(".", 1)[0]
                if stem.isdigit() and int(stem) < generation:
                    os.unlink(stale)

    if attach_journal:
        registry.journal = DurableLog(
            directory, checkpoint_every=checkpoint_every
        )

    report = RecoveryReport(
        generation=generation,
        from_checkpoint=from_checkpoint,
        replayed_records=replayed,
        truncated_bytes=truncated,
        sessions=len(registry._sessions),
    )
    if _tm.enabled():
        _tm.incr("serve.recovery.runs")
        _tm.incr("serve.recovery.replayed_records", replayed)
        _tm.incr("serve.recovery.truncated_bytes", truncated)
        _tm.set_gauge("serve.recovery.sessions", report.sessions)
        _tm.observe(
            "serve.recovery.seconds", time.perf_counter() - started
        )
    return registry, report
