"""Recovery-marked tests: journal, checkpoint/restore, crash recovery.

Run explicitly with ``pytest -m recovery`` (or ``make recovery-smoke``).
The durability contract under test: every mutation a client was
*acknowledged* survives any crash — torn writes, skipped fsyncs, deaths
mid-checkpoint, SIGKILL of the whole daemon — and anything recovery
cannot restore *and verify* is a typed
:class:`~repro.errors.RecoveryError`, never a silently weaker state.
"""

from __future__ import annotations

import json
import os
import signal
import struct
import subprocess
import sys
import zipfile
from pathlib import Path

import numpy as np
import pytest

from repro.errors import RecoveryError, WorkerCrashError
from repro.resilience import FaultPlan, FaultSpec, injected_faults
from repro.resilience.chaos import _cell, _sweep_rows
from repro.serve.checkpoint import read_snapshot, write_snapshot
from repro.serve.daemon import _StreamRegistry
from repro.serve.journal import (
    DurableLog,
    encode_record,
    latest_generation,
    scan_journal,
)
from repro.serve.net import ResilientClient
from repro.serve.recovery import recover_registry

pytestmark = pytest.mark.recovery

CORPUS = Path(__file__).parent / "data" / "journal_corpus"
with open(CORPUS / "manifest.json", encoding="utf-8") as _fh:
    MANIFEST = json.load(_fh)

#: A version-1 checkpoint of ``_churned_registry()``, as written before
#: checkpoints were stored uncompressed with their array list.
V1_CHECKPOINT = Path(__file__).parent / "data" / "checkpoint_v1.npz"

GRAPH_SPEC = {"kind": "union", "n": 60, "k": 3, "seed": 0}


def _churned_registry(journal=None, seed=0):
    """A registry with one session that opened, rematched, and churned."""
    registry = _StreamRegistry(8, None, journal=journal)
    registry.open(
        {"graph": GRAPH_SPEC, "target_quality": 0.55, "seed": seed}
    )
    registry.rematch({"handle": "s1"})
    registry.update(
        {"handle": "s1", "add": {"rows": [0, 1, 2], "cols": [2, 0, 1]}}
    )
    registry.rematch({"handle": "s1"})
    return registry


# -- framing and the committed torn-write corpus -----------------------


def test_encode_record_frames_roundtrip(tmp_path):
    records = [
        {"op": "open", "handle": "s1", "ack": {"epoch": 0}},
        {"op": "update", "handle": "s1", "ack": {"epoch": 1, "added": 2}},
    ]
    path = tmp_path / "wal-000000.log"
    with open(path, "wb") as fh:
        for record in records:
            fh.write(encode_record(record))
    scan = scan_journal(path)
    assert scan.records == records
    assert not scan.truncated
    assert scan.valid_bytes == scan.total_bytes == path.stat().st_size


@pytest.mark.parametrize("name", sorted(n for n in MANIFEST))
def test_corpus_longest_prefix_or_typed_offset(name):
    """Each committed corpus file recovers its longest valid prefix or
    refuses with a typed ``RecoveryError`` naming the byte offset."""
    entry = MANIFEST[name]
    path = CORPUS / name
    assert path.stat().st_size == entry["total_bytes"]
    if entry["error_offset"] is not None:
        with pytest.raises(RecoveryError) as excinfo:
            scan_journal(path)
        assert excinfo.value.offset == entry["error_offset"]
        assert str(entry["error_offset"]) in str(excinfo.value)
    else:
        scan = scan_journal(path)
        assert len(scan.records) == entry["records"]
        assert scan.valid_bytes == entry["valid_bytes"]
        assert scan.total_bytes == entry["total_bytes"]
        assert scan.truncated == (
            entry["valid_bytes"] < entry["total_bytes"]
        )


def test_recover_refuses_interleaved_corruption_with_offset(tmp_path):
    """End to end: a journal directory holding an in-place-corrupted log
    is refused by ``recover_registry`` with the corpus's byte offset."""
    wal = tmp_path / "wal-000000.log"
    wal.write_bytes((CORPUS / "interleaved.wal").read_bytes())
    with pytest.raises(RecoveryError) as excinfo:
        recover_registry(tmp_path, attach_journal=False)
    assert excinfo.value.offset == MANIFEST["interleaved.wal"]["error_offset"]


# -- DurableLog: appends, rotation, poisoning --------------------------


def _rotate_one_generation(directory, write):
    """Append, rotate once with *write* as the snapshot writer, append
    again; return the new generation's checkpoint path."""
    log = DurableLog(directory, checkpoint_every=2)
    log.append({"op": "a"})
    log.append({"op": "b"})
    assert log.should_checkpoint
    log.rotate(write)
    assert log.generation == 1
    log.append({"op": "c"})
    log.close()
    gen, ckpt, wal = latest_generation(directory)
    assert gen == 1 and ckpt is not None and wal is not None
    assert [r["op"] for r in scan_journal(wal).records] == ["c"]
    # The previous generation was retired only after the new one was
    # fully durable, and no temp file was left behind.
    assert sorted(os.listdir(directory)) == [
        "ckpt-000001.npz", "wal-000001.log"
    ]
    return ckpt


def test_durable_log_rotates_generations(tmp_path):
    ckpt = _rotate_one_generation(
        tmp_path, lambda tmp: Path(tmp).write_bytes(b"snapshot")
    )
    assert Path(ckpt).read_bytes() == b"snapshot"


def test_durable_log_rotates_with_checkpoint_writer(tmp_path):
    """The same rotation with the daemon's own writer: it must write the
    temp path it is given (not ``<tmp>.npz``), and the renamed checkpoint
    must restore the state it was taken from."""
    registry = _churned_registry()
    state = registry.export_state()
    ckpt = _rotate_one_generation(
        tmp_path, lambda tmp: write_snapshot(tmp, state)
    )
    restored = _StreamRegistry(8, None)
    restored.restore_state(read_snapshot(ckpt))
    _assert_continues_bitwise(registry, restored)


def test_poisoned_log_refuses_further_writes(tmp_path):
    log = DurableLog(tmp_path, checkpoint_every=100)
    plan = FaultPlan([FaultSpec("crash", backend="journal", call=0)])
    with injected_faults(plan):
        with pytest.raises(WorkerCrashError):
            log.append({"op": "doomed"})
    assert log.poisoned is not None
    with pytest.raises(RecoveryError):
        log.append({"op": "after"})
    with pytest.raises(RecoveryError):
        log.rotate(lambda tmp: None)
    log.close()


def test_torn_append_leaves_recoverable_tail(tmp_path):
    log = DurableLog(tmp_path, checkpoint_every=100)
    log.append({"op": "acked"})
    # Call indices are per installed plan: the clean append above ran
    # with no plan active, so this is the plan's journal call 0.
    plan = FaultPlan([FaultSpec("torn", backend="journal", call=0)])
    with injected_faults(plan):
        with pytest.raises(WorkerCrashError):
            log.append({"op": "torn-away"})
    log.close()
    scan = scan_journal(log.path)
    assert [r["op"] for r in scan.records] == ["acked"]
    assert scan.truncated


# -- checkpoint/restore: bitwise state round-trips ---------------------


def _assert_continues_bitwise(registry, restored):
    """*restored* holds *registry*'s session ``s1`` and continues it
    bitwise-identically."""
    g1, m1 = registry._sessions["s1"]
    g2, m2 = restored._sessions["s1"]
    assert g2.epoch == g1.epoch and g2.nnz == g1.nnz
    s1, s2 = g1.snapshot(), g2.snapshot()
    assert np.array_equal(s1.row_ptr, s2.row_ptr)
    assert np.array_equal(s1.col_ind, s2.col_ind)
    assert m2._epoch == m1._epoch
    assert restored._last_ack == registry._last_ack
    # The restored session continues bitwise-identically: same churn,
    # same rematch acknowledgment (floats and all).
    for reg in (registry, restored):
        reg.update(
            {"handle": "s1", "remove": {"rows": [0], "cols": [2]},
             "strict": False}
        )
    a1 = registry.rematch({"handle": "s1"})
    a2 = restored.rematch({"handle": "s1"})
    assert a1 == a2


def _member_data_start(blob, info):
    """Offset of a zip member's data: past its local header's fixed 30
    bytes, file name and extra field."""
    start = info.header_offset
    name_len, extra_len = struct.unpack("<HH", blob[start + 26 : start + 30])
    return start + 30 + name_len + extra_len


def test_checkpoint_roundtrip_preserves_state_bitwise(tmp_path):
    registry = _churned_registry()
    path = tmp_path / "ckpt-000001.npz"
    write_snapshot(path, registry.export_state())
    restored = _StreamRegistry(8, None)
    restored.restore_state(read_snapshot(path))
    _assert_continues_bitwise(registry, restored)


def test_version1_checkpoint_restores_and_continues_bitwise(tmp_path):
    """Journal directories written before the stored layout hold
    version-1 checkpoints (deflated, no array list).  The committed one
    was written from ``_churned_registry()``; recovering a directory
    holding it must restore (and recertify) the session, which then
    continues bitwise like the live registry.  Its members are still
    CRC-checked."""
    with zipfile.ZipFile(V1_CHECKPOINT) as zf:
        assert {i.compress_type for i in zf.infolist()} == {
            zipfile.ZIP_DEFLATED
        }
        info = zf.getinfo("s1/graph/keys.npy")
    blob = bytearray(V1_CHECKPOINT.read_bytes())
    path = tmp_path / "ckpt-000001.npz"
    path.write_bytes(bytes(blob))
    registry = _churned_registry()
    recovered, report = recover_registry(
        tmp_path, attach_journal=False
    )
    assert report.sessions == 1
    _assert_continues_bitwise(registry, recovered)

    blob[_member_data_start(blob, info) + info.compress_size // 2] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(RecoveryError):
        read_snapshot(path)


def test_checkpoint_roundtrip_restores_unseeded_rng(tmp_path):
    """seed=None sessions checkpoint their concrete generator state, so
    a restored matcher draws the same randomness as the original."""
    registry = _StreamRegistry(8, None)
    registry.open(
        {"graph": GRAPH_SPEC, "target_quality": 0.55, "seed": None}
    )
    registry.rematch({"handle": "s1"})
    path = tmp_path / "ckpt-000001.npz"
    write_snapshot(path, registry.export_state())
    restored = _StreamRegistry(8, None)
    restored.restore_state(read_snapshot(path))
    for reg in (registry, restored):
        reg.update(
            {"handle": "s1", "add": {"rows": [3, 4], "cols": [4, 3]}}
        )
    assert registry.rematch({"handle": "s1"}) == restored.rematch(
        {"handle": "s1"}
    )


def _canonical(state):
    """JSON image of a ``read_snapshot`` result, arrays as dtype, shape
    and hex bytes: equal images mean bitwise-equal states."""

    def array(obj):
        if isinstance(obj, np.ndarray):
            return [obj.dtype.str, list(obj.shape), obj.tobytes().hex()]
        raise TypeError(f"unexpected {type(obj).__name__} in a checkpoint")

    return json.dumps(state, sort_keys=True, default=array)


#: Stride of the sweep through array data; every header byte is flipped.
DATA_STRIDE = 17


def test_read_snapshot_refuses_corrupt_checkpoint(tmp_path):
    """Flip, one at a time, every byte of the zip directory, of each
    member's local header and ``.npy`` header, and a stride of bytes
    through the array data.  Each flip must raise ``RecoveryError`` or
    load a state bitwise equal to the original — never a different
    state (a directory flip can hide members, and with them arrays)."""
    registry = _churned_registry()
    path = tmp_path / "ckpt-000001.npz"
    write_snapshot(path, registry.export_state())
    blob = path.read_bytes()
    original = _canonical(read_snapshot(path))

    headers, data_bytes = set(), set()
    directory = 0
    with zipfile.ZipFile(path) as zf:
        infos = zf.infolist()
    for info in infos:
        data = _member_data_start(blob, info)
        end = data + info.compress_size
        directory = max(directory, end)
        npy_header = 10 + int.from_bytes(blob[data + 8 : data + 10], "little")
        headers.update(range(info.header_offset, data + npy_header))
        data_bytes.update(range(data + npy_header, end, DATA_STRIDE))
    headers.update(range(directory, len(blob)))
    assert len(headers) > len(blob) // 4

    loaded = set()
    for pos in sorted(headers | data_bytes):
        bad = bytearray(blob)
        bad[pos] ^= 0xFF
        path.write_bytes(bytes(bad))
        try:
            state = read_snapshot(path)
        except RecoveryError:
            continue
        assert _canonical(state) == original, (
            f"flipping byte {pos} of {len(blob)} loaded a different state"
        )
        loaded.add(pos)
    # Header flips may land in fields the loader never trusts (times,
    # attributes, the local copies of directory fields); a flip in array
    # data always fails its member's CRC.
    assert not loaded & data_bytes


# -- crash at every record boundary (the chaos ``recovery`` row) -------


def test_recovery_row_crash_at_every_boundary():
    """The chaos matrix's recovery row: each cell crashes a journaled
    daemon at one record boundary, restarts through recovery, and audits
    the acknowledged state.  The four crash schedules must recover
    bitwise; the in-place corruption schedule must refuse typed."""
    expected = {
        "pre_fsync": "ok",
        "mid_record": "ok",
        "post_ack": "ok",
        "mid_checkpoint": "ok",
        "divergence": "degraded:RecoveryError",
    }
    (row,) = [
        row for row in _sweep_rows(120, seed=0, budget=60.0)
        if row.workload == "recovery"
    ]
    assert set(row.schedules) == set(expected)
    for schedule, plan in row.schedules.items():
        outcome = _cell(row, schedule, plan)
        assert outcome.status == expected[schedule], (
            f"{schedule}: {outcome.status} [{outcome.detail}]"
        )


def test_journaled_registry_recovers_acked_rematch(tmp_path):
    """Direct API version: journal a churned session, abandon it (as a
    SIGKILL would), recover, and compare the acknowledgment bitwise."""
    registry = _churned_registry(
        journal=DurableLog(tmp_path, checkpoint_every=3)
    )
    acked = dict(registry._last_ack["s1"])
    registry.journal.close()

    recovered, report = recover_registry(
        tmp_path, attach_journal=False
    )
    assert report.sessions == 1
    assert recovered._last_ack["s1"] == acked
    graph, matcher = recovered._sessions["s1"]
    assert graph.epoch == acked["epoch"] == matcher._epoch
    # A second recovery of the same directory is deterministic.
    again, _ = recover_registry(
        tmp_path, attach_journal=False
    )
    assert again._last_ack["s1"] == acked


def test_every_journaled_op_replays_through_the_op_table(tmp_path):
    """A journal holding every journaled op kind, shard verbs included,
    recovers through the op table, each acknowledgment reproduced."""
    from repro.graph.generators import sprand
    from repro.serve.daemon import OPS
    from repro.shard import shard_match

    registry = _StreamRegistry(
        8, "serial", journal=DurableLog(tmp_path, checkpoint_every=1000)
    )
    acks = {}

    def call(method, msg):
        rid = f"r{len(acks)}"
        acks[rid] = getattr(registry, method)({**msg, "rid": rid})
        return acks[rid]

    handle = call(
        "open", {"graph": GRAPH_SPEC, "target_quality": 0.55, "seed": 4}
    )["handle"]
    call("rematch", {"handle": handle})
    call("update", {"handle": handle, "add": {"rows": [0, 1], "cols": [1, 0]},
                    "remove": {"rows": [2], "cols": [2]}, "strict": False})
    call("rematch", {"handle": handle, "cold": True})
    call("close", {"handle": handle})
    local = shard_match(sprand(90, 4.0, seed=6), 1, 3, seed=8)
    shard = call("shard_open", {
        "graph": {"kind": "sprand", "n": 90, "degree": 4.0, "seed": 6},
        "n_shards": 1, "index": 0, "chunk_rows": local.plan.chunk_rows,
        "chunk_cols": local.plan.chunk_cols,
    })["handle"]
    call("shard_arm", {"handle": shard,
                       "row_choice": local.row_choice.tolist(),
                       "col_choice": local.col_choice.tolist()})
    while True:
        scan = registry.shard_scan({"handle": shard})
        candidates = scan["rows"] + scan["cols"]
        if not call("shard_commit", {"handle": shard,
                                     "candidates": candidates})["committed"]:
            break
    assert call("shard_finish", {"handle": shard})["match"]
    call("shard_close", {"handle": shard})
    registry.journal.close()

    _, _, wal = latest_generation(tmp_path)
    journaled = {op.method for op in OPS.values() if op.journaled}
    assert {r["op"] for r in scan_journal(wal).records} == journaled
    recovered, report = recover_registry(tmp_path, attach_journal=False)
    assert report.replayed_records == len(acks)
    assert recovered.replayed_acks == acks


@pytest.mark.parametrize(
    "op", ["bogus", None, "match", "shard_scan", "export_state"]
)
def test_replay_refuses_an_op_no_journaled_method_has(op):
    # Pure verbs and other registry methods are not journal ops either.
    registry = _StreamRegistry(8, None)
    with pytest.raises(RecoveryError, match="unknown op"):
        registry.apply_record({"op": op, "handle": "s1"})


def test_replay_applies_the_session_budget(tmp_path):
    """Replay admits sessions as the live daemon does: one budget for
    stream and shard sessions, so a journal holding more open sessions
    than the recovering daemon allows fails recovery, typed."""
    registry = _StreamRegistry(2, "serial", journal=DurableLog(tmp_path))
    registry.shard_open({"graph": GRAPH_SPEC, "n_shards": 1, "index": 0})
    registry.open({"graph": GRAPH_SPEC, "target_quality": 0.55, "seed": 0})
    registry.journal.close()
    recovered, _ = recover_registry(
        tmp_path, max_streams=2, attach_journal=False
    )
    assert len(recovered._sessions) == len(recovered._shards) == 1
    with pytest.raises(RecoveryError, match="'open' on 's2'.*stream limit"):
        recover_registry(tmp_path, max_streams=1, attach_journal=False)


def _coo_spec(n, seed):
    rng = np.random.default_rng(seed)
    return {"nrows": n, "ncols": n,
            "rows": rng.integers(0, n, 4 * n).tolist(),
            "cols": rng.integers(0, n, 4 * n).tolist()}


def _masked_payloads(directory, rids):
    """The journal's record payloads with each request id masked."""
    _, _, wal = latest_generation(directory)
    with open(wal, "rb") as fh:
        payloads = [line[21:] for line in fh]
    for rid in rids:
        needle = json.dumps(rid).encode()
        payloads = [p.replace(needle, b'"<rid>"') for p in payloads]
    return payloads


def test_routed_open_journals_the_bytes_of_a_direct_open(tmp_path):
    """The router forwards a COO spec's rows and cols as int64 arrays;
    the daemon must journal the same ``open`` and ``shard_open`` bytes
    as for a client that sent the lists straight to it, and recover to
    the same certificate."""
    from repro.serve.router import Router

    spec = _coo_spec(300, seed=5)
    opening = {"graph": spec, "target_quality": 0.55, "seed": 3}
    sharding = {"graph": spec, "n_shards": 2, "index": 1}
    with Router(
        1, str(tmp_path / "rt"), backend="serial", health_interval=0.0
    ) as router:
        routed = [
            router.request({"op": "stream_open", **opening}),
            router.request({"op": "rematch", "handle": "n0:s1"}),
            router.request({"op": "shard_open", **sharding}),
        ]
    assert spec == _coo_spec(300, seed=5)  # the caller's lists, untouched

    direct = _StreamRegistry(8, "serial", journal=DurableLog(tmp_path / "d"))
    direct.open({**opening, "rid": "d1"})
    direct.rematch({"handle": "s1", "rid": "d2"})
    direct.shard_open({**sharding, "rid": "d3"})
    direct.journal.close()

    routed_records = _masked_payloads(
        # The router's rid doubles as the response id.
        tmp_path / "rt" / "j0", [r["id"] for r in routed]
    )
    direct_records = _masked_payloads(tmp_path / "d", ["d1", "d2", "d3"])
    assert len(routed_records) == 3
    assert [json.loads(r)["op"] for r in routed_records] == [
        "open", "rematch", "shard_open"
    ]
    assert routed_records == direct_records

    recovered = [
        recover_registry(tmp_path / sub, attach_journal=False)[0]
        for sub in ("rt/j0", "d")
    ]
    acked = {k: routed[1][k] for k in direct._last_ack["s1"]}
    assert acked == direct._last_ack["s1"]
    for registry in recovered:
        assert registry._last_ack["s1"] == acked
        assert registry._shards["s2"].export_state() == (
            direct._shards["s2"].export_state()
        )


def test_checkpoint_writes_an_array_spec_as_its_lists(tmp_path):
    """A shard session keeps the spec it was opened with; after a routed
    open that spec holds int64 arrays, and a checkpoint of it must be
    the checkpoint of the list spec."""
    spec = _coo_spec(120, seed=2)
    arrays = {**spec, "rows": np.asarray(spec["rows"]),
              "cols": np.asarray(spec["cols"])}
    registry = _StreamRegistry(
        8, None, journal=DurableLog(tmp_path, checkpoint_every=1)
    )
    registry.shard_open({"graph": arrays, "n_shards": 2, "index": 0})
    registry.journal.close()
    generation, ckpt, _ = latest_generation(tmp_path)
    assert generation == 1 and ckpt is not None
    assert read_snapshot(ckpt)["shards"]["s1"]["graph"] == spec
    recovered, _ = recover_registry(tmp_path, attach_journal=False)
    assert recovered._shards["s1"].export_state()["graph"] == spec


# -- SIGKILL the real daemon mid-epoch ---------------------------------


class _Daemon:
    """A ``python -m repro serve --listen`` subprocess and its client."""

    def __init__(self, sock: str, *args: str):
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--listen",
             f"unix:{sock}", *args],
            stdout=subprocess.PIPE,
            text=True,
            env=env,
        )
        ready = json.loads(self.proc.stdout.readline())
        assert ready["event"] == "serve.listening", ready
        self.client = ResilientClient(ready["address"], retries=4)

    def ask(self, msg: dict) -> dict:
        return self.client.request(msg, deadline=60.0, check=False)

    def sigkill(self):
        self.proc.send_signal(signal.SIGKILL)
        self.proc.wait(timeout=30)
        self.proc.stdout.close()


def test_sigkill_mid_epoch_then_recover(tmp_path):
    """The ``make recovery-smoke`` scenario: open a stream, churn it,
    SIGKILL the daemon mid-epoch (edits acknowledged but not yet
    rematched), restart with ``--recover``, and check the recovered
    session serves the acknowledged epoch with a matching guarantee."""
    journal = str(tmp_path / "journal")
    sock = str(tmp_path / "d.sock")
    first = _Daemon(sock, "--journal", journal, "--checkpoint-every", "3")
    try:
        opened = first.ask(
            {"id": 1, "op": "stream_open", "graph": GRAPH_SPEC,
             "target_quality": 0.55, "seed": 1}
        )
        assert opened["ok"], opened
        handle = opened["handle"]
        baseline = first.ask({"id": 2, "op": "rematch", "handle": handle})
        assert baseline["ok"], baseline
        churn = first.ask(
            {"id": 3, "op": "update", "handle": handle,
             "add": {"rows": [0, 1, 2], "cols": [1, 2, 0]}}
        )
        assert churn["ok"], churn
        rematched = first.ask(
            {"id": 4, "op": "rematch", "handle": handle}
        )
        assert rematched["ok"], rematched
        # Mid-epoch: this edit is acknowledged (journaled + fsync'd)
        # but the session dies before the next rematch.
        mid_epoch = first.ask(
            {"id": 5, "op": "update", "handle": handle,
             "remove": {"rows": [0], "cols": [1]}, "strict": False}
        )
        assert mid_epoch["ok"], mid_epoch
    finally:
        first.sigkill()

    second = _Daemon(
        sock, "--journal", journal, "--recover", "--checkpoint-every", "3"
    )
    try:
        # The recovered graph must be at the acknowledged epoch —
        # expect_epoch makes the daemon refuse if anything was lost.
        after = second.ask(
            {"id": 6, "op": "rematch", "handle": handle,
             "expect_epoch": mid_epoch["epoch"]}
        )
        assert after["ok"], after
        assert after["epoch"] == mid_epoch["epoch"]
        assert 0.0 <= after["guarantee"] <= 1.0

        # An uninterrupted replica of the same request sequence lands on
        # the same acknowledgment, bitwise — the kill changed nothing.
        registry = _StreamRegistry(8, None)
        registry.open(
            {"graph": GRAPH_SPEC, "target_quality": 0.55, "seed": 1}
        )
        registry.rematch({"handle": handle})
        registry.update(
            {"handle": handle, "add": {"rows": [0, 1, 2], "cols": [1, 2, 0]}}
        )
        registry.rematch({"handle": handle})
        registry.update(
            {"handle": handle, "remove": {"rows": [0], "cols": [1]},
             "strict": False}
        )
        replica = registry.rematch({"handle": handle})
        for key in ("epoch", "mode", "cardinality", "guarantee",
                    "min_column_sum"):
            assert after[key] == replica[key], (
                f"{key}: recovered {after[key]!r} != replica"
                f" {replica[key]!r}"
            )
        done = second.ask({"id": 7, "op": "shutdown"})
        assert done["ok"], done
        assert second.proc.wait(timeout=30) == 0
        second.proc.stdout.close()
    finally:
        if second.proc.poll() is None:  # pragma: no cover - cleanup
            second.sigkill()


# -- orphaned shared-memory segments -----------------------------------


@pytest.mark.skipif(
    not os.path.isdir("/dev/shm"), reason="no visible shm directory"
)
def test_reclaim_stale_segments_sweeps_dead_owners():
    from repro.parallel.shm import reclaim_stale_segments

    probe = subprocess.Popen([sys.executable, "-c", "pass"])
    probe.wait(timeout=30)
    dead = f"/dev/shm/rpr{probe.pid:08x}x0000"
    live = f"/dev/shm/rpr{os.getpid():08x}x7fff"
    with open(dead, "wb") as fh:
        fh.write(b"\0" * 8)
    with open(live, "wb") as fh:
        fh.write(b"\0" * 8)
    try:
        assert reclaim_stale_segments() >= 1
        assert not os.path.exists(dead), "orphan survived the sweep"
        assert os.path.exists(live), "live segment was reclaimed"
    finally:
        for path in (dead, live):
            if os.path.exists(path):
                os.unlink(path)
