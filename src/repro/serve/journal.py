"""Write-ahead journal for durable stream sessions.

The daemon's stream state (dynamic graphs, warm matcher state, epoch
history) lives in memory; this module is what makes an acknowledged
mutation survive the process.  The discipline is the classic WAL one:

1. apply the operation in memory;
2. append one framed record describing it and ``fsync``;
3. only then acknowledge to the client.

A crash between (1) and (2) loses only unacknowledged work; a crash
mid-append leaves a *torn tail* that the scanner truncates away — again
only unacknowledged work.  There is no state an acknowledged client saw
that a restart cannot reconstruct.

Record framing
--------------

One record per line::

    J1 <len:8 hex> <crc:8 hex> <payload>\\n

``len`` is the byte length of the UTF-8 JSON *payload*; ``crc`` is its
CRC-32.  The fixed 21-byte header makes torn writes cheap to detect:
a record is valid iff the magic, both hex fields, the checksum, and the
trailing newline all check out.  Scanning stops at the first invalid
byte; if a *valid* record exists after that point the file was corrupted
in place (a crash can only tear the tail), and recovery refuses with a
typed :class:`~repro.errors.RecoveryError` naming the byte offset rather
than silently dropping acknowledged records.

Generations
-----------

A journal directory holds at most one checkpoint and one live journal::

    ckpt-000003.npz     # state snapshot (absent at generation 0)
    wal-000003.log      # records since that snapshot

:meth:`DurableLog.rotate` advances the generation atomically: the new
checkpoint is written to a temp file, fsync'd, renamed into place, the
directory fsync'd, an empty next journal created, and only then the old
generation unlinked — a crash at any instant leaves at least one
complete generation on disk.

Fault injection
---------------

The writer consults the active :class:`~repro.resilience.FaultPlan`
under the backend labels ``"journal"`` (appends) and ``"checkpoint"``
(rotations), so chaos tests can tear writes, skip the fsync, or flip
payload bits at exact record boundaries — deterministically.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro import telemetry as _tm
from repro.errors import RecoveryError, WorkerCrashError
from repro.resilience.faults import FaultKind, FaultSpec, active_plan

__all__ = [
    "DurableLog",
    "JournalScan",
    "encode_record",
    "scan_journal",
    "latest_generation",
]

_MAGIC = b"J1 "
#: magic(3) + len(8) + sp(1) + crc(8) + sp(1)
_HEADER = 21


def _json_default(value: Any) -> Any:
    """``json.dumps`` hook: an ndarray is written as its list.

    A graph spec forwarded by the router holds int64 arrays where a
    client sent lists; both encode to the same JSON text.  Any other
    value JSON cannot encode still raises.
    """
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(
        f"Object of type {type(value).__name__} is not JSON serializable"
    )


def encode_record(record: dict[str, Any]) -> bytes:
    """Frame one record: ``J1 <len> <crc> <payload>\\n``."""
    payload = json.dumps(
        record, sort_keys=True, default=_json_default
    ).encode("utf-8")
    return b"%s%08x %08x %s\n" % (
        _MAGIC,
        len(payload),
        zlib.crc32(payload),
        payload,
    )


def _parse_at(buf: bytes, pos: int) -> tuple[dict[str, Any], int] | None:
    """Parse the record starting at *pos*, or None if invalid there."""
    if buf[pos : pos + 3] != _MAGIC:
        return None
    header = buf[pos : pos + _HEADER]
    if len(header) < _HEADER or header[11:12] != b" " or header[20:21] != b" ":
        return None
    try:
        length = int(header[3:11], 16)
        crc = int(header[12:20], 16)
    except ValueError:
        return None
    end = pos + _HEADER + length
    payload = buf[pos + _HEADER : end]
    if len(payload) < length or buf[end : end + 1] != b"\n":
        return None
    if zlib.crc32(payload) != crc:
        return None
    try:
        obj = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        return None
    if not isinstance(obj, dict):
        return None
    return obj, end + 1


@dataclass(frozen=True)
class JournalScan:
    """Result of :func:`scan_journal`."""

    #: Decoded records of the longest valid prefix, in append order.
    records: list[dict[str, Any]] = field(default_factory=list)
    #: Byte length of that prefix.
    valid_bytes: int = 0
    #: Total bytes in the file.
    total_bytes: int = 0

    @property
    def truncated(self) -> bool:
        """True iff a torn/invalid tail was dropped."""
        return self.valid_bytes < self.total_bytes


def scan_journal(path: str | os.PathLike[str]) -> JournalScan:
    """Decode a journal file, recovering the longest valid prefix.

    An invalid *tail* is the signature of a crash mid-append and is
    dropped (those records were never acknowledged).  A valid record
    *after* invalid bytes cannot result from any crash of the
    append-fsync-ack discipline — it means in-place corruption of
    potentially acknowledged state — so that raises
    :class:`~repro.errors.RecoveryError` with the offending byte offset
    instead of silently losing a record.
    """
    with open(path, "rb") as fh:
        buf = fh.read()
    records: list[dict[str, Any]] = []
    pos = 0
    while pos < len(buf):
        parsed = _parse_at(buf, pos)
        if parsed is None:
            break
        obj, pos = parsed
        records.append(obj)
    if pos < len(buf):
        # Anything parseable beyond the first bad byte is interleaved
        # corruption, not a torn tail.
        probe = pos + 1
        while probe < len(buf):
            nxt = buf.find(_MAGIC, probe)
            if nxt < 0:
                break
            if _parse_at(buf, nxt) is not None:
                raise RecoveryError(
                    f"journal {os.fspath(path)!r} has a valid record at"
                    f" byte {nxt} after invalid bytes at offset {pos} —"
                    f" in-place corruption, refusing to truncate"
                    f" acknowledged records",
                    offset=pos,
                )
            probe = nxt + 1
    return JournalScan(
        records=records, valid_bytes=pos, total_bytes=len(buf)
    )


def _ckpt_name(gen: int) -> str:
    return f"ckpt-{gen:06d}.npz"


def _wal_name(gen: int) -> str:
    return f"wal-{gen:06d}.log"


def latest_generation(
    directory: str | os.PathLike[str],
) -> tuple[int, str | None, str | None]:
    """``(generation, checkpoint path or None, journal path or None)``.

    The latest generation is the highest numbered *journal* file; a
    checkpoint without its journal (crash between rename and journal
    creation) still counts, with an implicitly empty journal.
    """
    directory = os.fspath(directory)
    gens: set[int] = set()
    for name in os.listdir(directory):
        for prefix in ("ckpt-", "wal-"):
            if name.startswith(prefix) and not name.endswith(".tmp"):
                stem = name[len(prefix) :].split(".", 1)[0]
                if stem.isdigit():
                    gens.add(int(stem))
    if not gens:
        return 0, None, None
    gen = max(gens)
    ckpt = os.path.join(directory, _ckpt_name(gen))
    wal = os.path.join(directory, _wal_name(gen))
    return (
        gen,
        ckpt if os.path.exists(ckpt) else None,
        wal if os.path.exists(wal) else None,
    )


def _fsync_dir(directory: str) -> None:
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


class DurableLog:
    """The daemon's journal: fault-aware appends plus generation rotation.

    Parameters
    ----------
    directory:
        Journal directory (created if missing).  Appends go to the
        current generation's ``wal-*.log``.
    checkpoint_every:
        Suggest a checkpoint (:attr:`should_checkpoint`) after this many
        appended records.
    fsync:
        Disable only in tests that measure pure framing overhead; the
        durability contract requires it on.
    """

    def __init__(
        self,
        directory: str | os.PathLike[str],
        *,
        checkpoint_every: int = 64,
        fsync: bool = True,
    ) -> None:
        self.directory = os.fspath(directory)
        os.makedirs(self.directory, exist_ok=True)
        self.checkpoint_every = int(checkpoint_every)
        self.fsync = bool(fsync)
        self.generation, _, wal = latest_generation(self.directory)
        self._poisoned: str | None = None
        self._since_checkpoint = 0
        path = os.path.join(self.directory, _wal_name(self.generation))
        if wal is None:
            with open(path, "ab") as fh:
                if self.fsync:
                    os.fsync(fh.fileno())
            _fsync_dir(self.directory)
        self._fh = open(path, "ab")

    # -- appends -------------------------------------------------------

    @property
    def poisoned(self) -> str | None:
        """Reason the log refuses further writes, or None."""
        return self._poisoned

    @property
    def path(self) -> str:
        """Path of the current generation's journal file."""
        return os.path.join(self.directory, _wal_name(self.generation))

    def _fault(self, label: str) -> FaultSpec | None:
        plan = active_plan()
        if plan is None:
            return None
        return plan.match(label, 0, plan.begin_call(label))

    def append(self, record: dict[str, Any]) -> None:
        """Durably append one record (fsync before returning).

        Any failure — injected or real — poisons the log: the in-memory
        state may now be ahead of disk, so continuing to acknowledge
        would break the recovery contract.  The daemon is expected to
        stop and let the supervisor restart it through recovery.
        """
        if self._poisoned is not None:
            raise RecoveryError(
                f"journal is poisoned ({self._poisoned}); restart through"
                f" recovery before accepting new mutations"
            )
        frame = encode_record(record)
        spec = self._fault("journal")
        try:
            if spec is not None:
                self._inject(spec, frame)
            else:
                self._fh.write(frame)
                self._fh.flush()
                if self.fsync:
                    os.fsync(self._fh.fileno())
        except BaseException as exc:
            self._poisoned = repr(exc)
            raise
        self._since_checkpoint += 1
        if _tm.enabled():
            _tm.incr("serve.journal.appends")
            _tm.incr("serve.journal.bytes", len(frame))

    def _inject(self, spec: FaultSpec, frame: bytes) -> None:
        """Apply an IO fault to one append, then die like a crash would."""
        kind = spec.kind
        if kind is FaultKind.SLOW or kind is FaultKind.HANG:
            import time

            time.sleep(spec.seconds or 0.0)
            self._fh.write(frame)
            self._fh.flush()
            if self.fsync:
                os.fsync(self._fh.fileno())
            return
        if kind is FaultKind.TORN:
            # The write is cut partway through the frame, past the
            # header so the tail is unambiguously torn, and the process
            # dies before any fsync.
            cut = max(_HEADER + 1, len(frame) // 2)
            self._fh.write(frame[:cut])
            self._fh.flush()
            raise WorkerCrashError(
                f"injected torn write after {cut} of {len(frame)} bytes"
            )
        if kind is FaultKind.CRASH:
            # Full write, no fsync: the bytes may or may not survive.
            self._fh.write(frame)
            self._fh.flush()
            raise WorkerCrashError("injected crash before journal fsync")
        if kind is FaultKind.CORRUPT:
            flipped = bytearray(frame)
            flipped[_HEADER + (len(frame) - _HEADER) // 2] ^= 0x40
            self._fh.write(bytes(flipped))
            self._fh.flush()
            if self.fsync:
                os.fsync(self._fh.fileno())
            raise WorkerCrashError("injected checksum corruption on append")
        raise WorkerCrashError(  # pragma: no cover - exhaustive above
            f"unsupported journal fault {kind!r}"
        )

    # -- checkpoint rotation -------------------------------------------

    @property
    def records_since_checkpoint(self) -> int:
        return self._since_checkpoint

    @property
    def should_checkpoint(self) -> bool:
        return (
            self.checkpoint_every > 0
            and self._since_checkpoint >= self.checkpoint_every
        )

    def rotate(self, write_snapshot: Callable[[str], None]) -> int:
        """Advance one generation around a durable checkpoint.

        *write_snapshot* is called with a temp path and must write the
        complete state snapshot there; this method then makes it
        durable, swaps in an empty journal, and retires the previous
        generation.  A crash anywhere in the sequence leaves a
        recoverable directory (the old generation survives until the
        new one is fully in place).
        """
        if self._poisoned is not None:
            raise RecoveryError(
                f"journal is poisoned ({self._poisoned}); cannot checkpoint"
            )
        spec = self._fault("checkpoint")
        new_gen = self.generation + 1
        ckpt = os.path.join(self.directory, _ckpt_name(new_gen))
        tmp = ckpt + ".tmp"
        try:
            write_snapshot(tmp)
            if spec is not None and spec.kind is FaultKind.TORN:
                with open(tmp, "r+b") as fh:
                    fh.truncate(max(1, os.path.getsize(tmp) // 2))
                raise WorkerCrashError("injected crash mid-checkpoint")
            if spec is not None and spec.kind is FaultKind.CRASH:
                os.unlink(tmp)
                raise WorkerCrashError("injected crash before checkpoint")
            with open(tmp, "rb") as fh:
                os.fsync(fh.fileno())
            os.rename(tmp, ckpt)
            _fsync_dir(self.directory)
            old_gen = self.generation
            self._fh.close()
            self.generation = new_gen
            self._fh = open(self.path, "ab")
            if self.fsync:
                os.fsync(self._fh.fileno())
            _fsync_dir(self.directory)
            for name in (_ckpt_name(old_gen), _wal_name(old_gen)):
                stale = os.path.join(self.directory, name)
                if os.path.exists(stale):
                    os.unlink(stale)
        except BaseException as exc:
            self._poisoned = repr(exc)
            raise
        self._since_checkpoint = 0
        if _tm.enabled():
            _tm.incr("serve.journal.checkpoints")
        return new_gen

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DurableLog({self.directory!r}, gen={self.generation},"
            f" pending={self._since_checkpoint})"
        )
