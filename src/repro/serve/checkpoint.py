"""Checkpoint snapshots of the daemon's stream registry.

A checkpoint is one ``.npz`` holding every open session's complete
state — the dynamic graph (edge keys + epoch + edit journal) and the
matcher's warm state (matching, scaling factors, auction prices, rng
state) — plus registry bookkeeping and the last acknowledged rematch per
session.  Replay cost after a crash is then bounded by the churn since
the last checkpoint, not by session lifetime.

The on-disk layout (version 2) is a flat, uncompressed zip written by
``np.savez`` straight into the file: numpy arrays under
``<handle>/<part>/<key>`` entries, everything JSON-able — including the
sorted list of those array names — under one ``__meta__`` entry.  The
arrays are stored, not deflated: at n = 50,000 a checkpoint costs tens
of milliseconds instead of about a second, for about twice the bytes
(about 8 B per edge, 32 B per row and 32 B per column, plus the edit
journal).  Writing durably (temp file + fsync + rename) is the
journal's job (:meth:`~repro.serve.journal.DurableLog.rotate`); this
module only serializes.

On load every zip member is read to its end, so its CRC-32 is checked
before any array is used, and the zip's members must be exactly the
listed arrays plus ``__meta__`` — a flipped byte in the zip directory
can otherwise hide members, and their arrays would silently go missing.
Version-1 checkpoints (deflated, without the array list) still load,
with the CRC pass but without the member check.  Any defect —
unreadable zip, CRC mismatch, missing or extra members, meta/array
disagreement — raises a typed :class:`~repro.errors.RecoveryError`; a
checkpoint is either perfect or rejected, and recovery then refuses
rather than start from a weaker state (rotation retires the previous
generation once the new one is durable, so there is none to fall back
to).
"""

from __future__ import annotations

import io
import json
import os
import zipfile
from typing import Any

import numpy as np

from repro.errors import RecoveryError
from repro.serve.journal import _json_default

__all__ = ["write_snapshot", "read_snapshot"]

_META = "__meta__"
_VERSION = 2
#: Versions :func:`read_snapshot` accepts; 1 is the deflated layout
#: without the array list.
_READABLE = (1, 2)


def _split(state: dict[str, Any]) -> tuple[dict[str, Any], dict[str, Any]]:
    """Partition an ``export_state`` dict into (scalars, arrays)."""
    scalars: dict[str, Any] = {}
    arrays: dict[str, Any] = {}
    for key, value in state.items():
        if isinstance(value, np.ndarray):
            arrays[key] = value
        else:
            scalars[key] = value
    return scalars, arrays


def write_snapshot(path: str | os.PathLike[str], registry: dict[str, Any]) -> None:
    """Serialize a registry-state dict (see ``_StreamRegistry.export_state``)
    to *path* as one uncompressed ``.npz``."""
    meta: dict[str, Any] = {
        "version": _VERSION,
        "next": int(registry["next"]),
        "handles": sorted(registry["sessions"]),
        "scalars": {},
        "last_ack": registry.get("last_ack", {}),
        # Shard sessions are JSON-able (spec + reconcile vectors as
        # lists; a routed spec's int64 arrays are written as lists) —
        # they ride the metadata entry.
        "shards": registry.get("shards", {}),
    }
    arrays: dict[str, np.ndarray] = {}
    for handle, parts in registry["sessions"].items():
        meta["scalars"][handle] = {}
        for part in ("graph", "matcher"):
            part_scalars, part_arrays = _split(parts[part])
            meta["scalars"][handle][part] = part_scalars
            for key, value in part_arrays.items():
                arrays[f"{handle}/{part}/{key}"] = value
    meta["arrays"] = sorted(arrays)
    text = json.dumps(meta, sort_keys=True, default=_json_default)
    # Pass an open handle: given a path, np.savez appends ".npz" and the
    # caller's path would never be written.
    with open(path, "wb") as fh:
        np.savez(fh, **{_META: np.frombuffer(
            text.encode("utf-8"), dtype=np.uint8
        )}, **arrays)


def read_snapshot(path: str | os.PathLike[str]) -> dict[str, Any]:
    """Load a checkpoint back into a registry-state dict.

    Raises :class:`RecoveryError` on any structural defect; a partially
    readable checkpoint is never returned.
    """
    where = f"checkpoint {os.fspath(path)!r}"
    try:
        with zipfile.ZipFile(path) as zf:
            members = zf.namelist()
            # ZipFile.read checks each member's CRC-32 once it reaches the
            # member's end; every member is read before any is parsed.
            blobs = {info.filename: zf.read(info) for info in zf.infolist()}

        def array(name: str) -> np.ndarray:
            return np.lib.format.read_array(
                io.BytesIO(blobs[f"{name}.npy"]), allow_pickle=False
            )

        if f"{_META}.npy" not in blobs:
            raise RecoveryError(f"{where} has no metadata entry")
        meta = json.loads(bytes(array(_META)).decode("utf-8"))
        version = meta.get("version")
        if version not in _READABLE:
            raise RecoveryError(
                f"{where} has unsupported version {version!r}"
            )
        if version == 1:
            names = [m[: -len(".npy")] for m in members]
        else:
            names = [_META, *meta["arrays"]]
            if sorted(members) != sorted(f"{n}.npy" for n in names):
                raise RecoveryError(
                    f"{where} holds members {sorted(members)}, its"
                    f" metadata lists {sorted(names)}"
                )
        sessions: dict[str, Any] = {}
        for handle in meta["handles"]:
            parts: dict[str, dict[str, Any]] = {}
            for part in ("graph", "matcher"):
                state = dict(meta["scalars"][handle][part])
                prefix = f"{handle}/{part}/"
                for name in names:
                    if name.startswith(prefix):
                        state[name[len(prefix) :]] = array(name)
                parts[part] = state
            sessions[handle] = parts
        return {
            "next": int(meta["next"]),
            "sessions": sessions,
            "last_ack": meta.get("last_ack", {}),
            "shards": meta.get("shards", {}),
        }
    except RecoveryError:
        raise
    except Exception as exc:
        raise RecoveryError(f"{where} is unreadable: {exc!r}") from exc
