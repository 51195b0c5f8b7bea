"""Network serving tests: framing, client retries, quotas, failover.

Everything here carries the ``net`` marker (``pytest -m net``, CI's
``net-smoke`` job).  The suite covers the wire contract bottom-up:

* frame encode/decode rejects truncation, bad magic, and checksum
  mismatches with typed :class:`~repro.errors.TransportError`;
* the message codec sends a message without arrays as plain JSON, byte
  for byte, round-trips int64 arrays as raw bytes, and answers a
  malformed tagged payload with a typed in-band ``ServiceError``;
* the router forwards a COO spec's validated arrays under the same
  graph key, leaving the caller's spec untouched;
* :class:`~repro.serve.net.ResilientClient` retries transport faults
  under its idempotency id — a retry after a dropped ack must NOT
  re-apply the mutation, in-process or across journal recovery;
* a retried ``match`` re-executes while a retried ``update`` is answered
  from the acked-response cache, which keeps only journaled ops;
* the router routes every op of the daemon's op table as its fixed op
  sets used to;
* :class:`~repro.serve.quota.TenantQuotas` holds per-tenant caps under
  concurrent submits and stays fair when one tenant floods;
* a 3-daemon :class:`~repro.serve.router.Router` survives a SIGKILL of
  the session-owning daemon with zero acked-request loss, bitwise-equal
  to an uninterrupted replica.
"""

import io
import json
import os
import socket
import threading
import time

import numpy as np
import pytest

from repro.errors import (
    PartitionedError,
    QuotaExceededError,
    ServiceError,
    StreamError,
    TransportError,
)
from repro.resilience.backoff import BackoffPolicy
from repro.resilience.faults import FaultPlan, FaultSpec, injected_faults
from repro.serve.daemon import (
    GRAPH_CACHE_CAP,
    OPS,
    Dispatcher,
    _StreamRegistry,
    _run_script,
    graph_key,
)
from repro.serve.net import (
    ResilientClient,
    SocketServer,
    decode_message,
    encode_frame,
    encode_message,
    parse_address,
    read_frame,
)
from repro.serve.quota import TenantQuotas
from repro.serve.server import MatchingServer

pytestmark = pytest.mark.net

GRAPH = {"kind": "union", "n": 60, "k": 3, "seed": 0}


# ---------------------------------------------------------------------------
# framing


def test_frame_roundtrip():
    payload = json.dumps({"op": "health", "id": 1}).encode()
    frame = encode_frame(payload)
    assert read_frame(io.BytesIO(frame)) == payload


def test_frame_clean_eof_is_none():
    assert read_frame(io.BytesIO(b"")) is None


@pytest.mark.parametrize("cut", [1, 5, 20, 25])
def test_truncated_frames_fail_typed(cut):
    frame = encode_frame(b'{"op": "health"}')
    with pytest.raises(TransportError):
        read_frame(io.BytesIO(frame[:cut]))


def test_bad_magic_fails_typed():
    frame = bytearray(encode_frame(b"{}"))
    frame[0] = ord(b"X")
    with pytest.raises(TransportError, match="magic"):
        read_frame(io.BytesIO(bytes(frame)))


def test_flipped_payload_byte_fails_checksum():
    frame = bytearray(encode_frame(b'{"op": "health"}'))
    frame[21] ^= 0xFF
    with pytest.raises(TransportError, match="checksum"):
        read_frame(io.BytesIO(bytes(frame)))


def test_oversized_length_fails_before_allocation():
    header = b"N1 " + b"ffffffff 00000000 "
    with pytest.raises(TransportError, match="limit"):
        read_frame(io.BytesIO(header))


@pytest.mark.parametrize(
    "bad", ["", "nowhere", "unix:", "tcp:onlyhost", "tcp:h:notaport"]
)
def test_bad_addresses_fail_typed(bad):
    with pytest.raises(ServiceError):
        parse_address(bad)


# ---------------------------------------------------------------------------
# message codec

COO = {"nrows": 3, "ncols": 3, "rows": [0, 1, 2], "cols": [2, 0, 1]}


@pytest.mark.parametrize(
    "msg",
    [
        {"op": "health", "id": 1},
        {"op": "match", "graph": COO, "seed": 7, "rid": "c:1"},
        {"op": "match", "graph": GRAPH, "deadline": 0.5, "note": "\u00e9"},
        [1, "two", None],
    ],
)
def test_message_without_arrays_is_plain_json(msg):
    assert encode_message(msg) == json.dumps(msg).encode("utf-8")
    assert decode_message(encode_message(msg)) == msg


@pytest.mark.parametrize("count", [0, 1, 7, 300_001])
def test_int64_arrays_roundtrip_as_owned_aligned_copies(count):
    rng = np.random.default_rng(count)
    values = rng.integers(-(2**62), 2**62, count)
    msg = {
        "op": "match",
        "graph": {"nrows": count, "rows": values, "cols": values[::-1]},
        "nested": {"deeper": [values[: count // 2], {"x": 1}]},
    }
    out = decode_message(encode_message(msg))
    assert out["op"] == "match" and out["nested"]["deeper"][1] == {"x": 1}
    arrays = [
        (out["graph"]["rows"], values),
        (out["graph"]["cols"], values[::-1]),
        (out["nested"]["deeper"][0], values[: count // 2]),
    ]
    for got, want in arrays:
        assert got.dtype == np.int64 and got.shape == want.shape
        np.testing.assert_array_equal(got, want)
        assert got.flags.owndata and got.flags.aligned and got.flags.writeable


def test_other_arrays_are_not_wire_serializable():
    with pytest.raises(TypeError, match="not wire serializable"):
        encode_message({"dr": np.ones(3)})
    with pytest.raises(TypeError, match="not wire serializable"):
        encode_message({"m": np.zeros((2, 2), dtype=np.int64)})


def _tagged(header, data=b""):
    text = json.dumps(header).encode()
    pad = -(12 + len(text)) % 8
    return b"A1 %08x " % len(text) + text + bytes(pad) + data


_REF = {"offset": 0, "count": 2, "dtype": "<i8"}
MALFORMED = {
    "short header": b"A1 00000100 {}",
    "unparsable header": b"A1 zzzzzzzz {}",
    "header not JSON": b"A1 00000002 {{",
    "past the end": _tagged({"rows": {"$array": _REF}}, bytes(8)),
    "big-endian dtype": _tagged(
        {"rows": {"$array": {**_REF, "dtype": ">i8"}}}, bytes(16)
    ),
    "float dtype": _tagged(
        {"rows": {"$array": {**_REF, "dtype": "<f8"}}}, bytes(16)
    ),
    "negative count": _tagged(
        {"rows": {"$array": {**_REF, "count": -1}}}, bytes(16)
    ),
    "gap before an array": _tagged(
        {"rows": {"$array": {**_REF, "offset": 8}}}, bytes(24)
    ),
    # Two references to the same bytes would decode them twice.
    "overlapping arrays": _tagged(
        {"rows": {"$array": _REF}, "cols": {"$array": _REF}}, bytes(32)
    ),
    # Plain, but too deep for the parser (a RecursionError inside json).
    "nested too deeply": b"[" * 100_000 + b"]" * 100_000,
}


def _raw_exchange(address, payloads):
    """Send each payload as one frame on ONE connection; decode replies."""
    family, sockaddr = parse_address(address)
    with socket.socket(family, socket.SOCK_STREAM) as conn:
        conn.settimeout(10.0)
        conn.connect(sockaddr)
        reader = conn.makefile("rb")
        replies = []
        for payload in payloads:
            conn.sendall(encode_frame(payload))
            replies.append(json.loads(read_frame(reader)))
        reader.close()
    return replies


def test_malformed_payloads_get_typed_errors_and_connection_lives(
    socket_stack,
):
    for payload in MALFORMED.values():
        with pytest.raises(ServiceError):
            decode_message(payload)
    _, front, _ = socket_stack
    health = json.dumps({"op": "health", "id": "h"}).encode()
    payloads = []
    for kind in sorted(MALFORMED):
        payloads += [MALFORMED[kind], health]
    replies = _raw_exchange(front.address, payloads)
    for kind, bad, good in zip(sorted(MALFORMED), replies[::2], replies[1::2]):
        assert bad["ok"] is False and bad["error"] == "ServiceError", kind
        assert good["ok"] and good["id"] == "h", kind


def test_raw_plain_json_frames_are_served(socket_stack):
    _, front, _ = socket_stack
    match = {"op": "match", "graph": COO, "seed": 1, "id": 9}
    replies = _raw_exchange(
        front.address,
        [json.dumps({"op": "health", "id": 8}).encode(),
         json.dumps(match).encode()],
    )
    assert replies[0]["ok"] and replies[0]["id"] == 8
    assert replies[1]["ok"] and replies[1]["id"] == 9
    assert replies[1]["cardinality"] == 3


def test_array_spec_matches_like_its_list_form(socket_stack):
    _, _, client = socket_stack
    rng = np.random.default_rng(3)
    rows, cols = rng.integers(0, 80, 320), rng.integers(0, 80, 320)
    lists = {"nrows": 80, "ncols": 80,
             "rows": rows.tolist(), "cols": cols.tolist()}
    arrays = {**lists, "rows": rows, "cols": cols}
    keep = ("cardinality", "rung", "guarantee", "row_match")
    answers = [
        {k: client.request({"op": "match", "graph": g, "seed": 4})[k]
         for k in keep}
        for g in (lists, arrays)
    ]
    assert answers[0] == answers[1]
    assert graph_key(lists) == graph_key(arrays)


# ---------------------------------------------------------------------------
# socket server + resilient client


@pytest.fixture()
def socket_stack(tmp_path):
    """An in-process dispatcher behind a real unix socket."""
    with MatchingServer("serial") as server:
        streams = _StreamRegistry(4, "serial")
        dispatcher = Dispatcher(server, streams)
        address = f"unix:{tmp_path / 'd.sock'}"
        with SocketServer(dispatcher, address, deadline=10.0) as front:
            client = ResilientClient(
                front.address,
                retries=6,
                seed=0,
                backoff=BackoffPolicy(initial=0.02, maximum=0.2),
                connect_timeout=0.5,
                deadline=10.0,
            )
            yield dispatcher, front, client


def test_match_over_socket(socket_stack):
    _, _, client = socket_stack
    response = client.request(
        {"op": "match", "graph": GRAPH, "iterations": 2, "seed": 1}
    )
    assert response["ok"] and response["cardinality"] > 0
    assert response["rung"] in ("exact", "two_sided", "one_sided", "greedy")


def test_tcp_transport(tmp_path):
    with MatchingServer("serial") as server:
        dispatcher = Dispatcher(server, _StreamRegistry(2, "serial"))
        with SocketServer(
            dispatcher, "tcp:127.0.0.1:0", deadline=5.0
        ) as front:
            assert front.address.startswith("tcp:127.0.0.1:")
            client = ResilientClient(front.address, retries=2)
            assert client.request({"op": "health"})["ok"]


def test_health_is_enriched(socket_stack):
    _, _, client = socket_stack
    health = client.request({"op": "health"})
    assert health["status"] == "ok"
    assert health["breaker"] == "closed"
    assert health["workers"] >= 1
    assert health["sessions"] == 0 and health["max_streams"] == 4
    assert health["journal"] is None
    assert health["graph_cache"] == {"size": 0, "cap": GRAPH_CACHE_CAP}
    client.request({"op": "stream_open", "graph": GRAPH})
    health = client.request({"op": "health"})
    assert health["sessions"] == 1
    assert health["graph_cache"]["size"] == 1


def test_health_reports_journal_state(tmp_path):
    from repro.serve.journal import DurableLog

    with MatchingServer("serial") as server:
        streams = _StreamRegistry(
            2, "serial", journal=DurableLog(tmp_path / "j")
        )
        dispatcher = Dispatcher(server, streams)
        health = dispatcher.health()
        assert health["journal"] == {
            "generation": 0,
            "records_since_checkpoint": 0,
            "poisoned": None,
        }
        streams.journal.close()


def test_in_band_errors_raise_typed(socket_stack):
    _, _, client = socket_stack
    with pytest.raises(StreamError, match="unknown stream handle"):
        client.request({"op": "rematch", "handle": "sX"})
    with pytest.raises(ServiceError, match="unknown op"):
        client.request({"op": "frobnicate"})


def test_unreachable_address_raises_partitioned(tmp_path):
    client = ResilientClient(
        f"unix:{tmp_path / 'nobody.sock'}",
        retries=2,
        backoff=BackoffPolicy(initial=0.01, maximum=0.02),
        connect_timeout=0.2,
    )
    with pytest.raises(PartitionedError):
        client.request({"op": "health"})


@pytest.mark.parametrize("kind", ["drop", "truncate", "garbage", "delay"])
def test_every_wire_fault_is_survived_by_retry(socket_stack, kind):
    _, _, client = socket_stack
    plan = FaultPlan(
        [FaultSpec(kind, backend="net", seconds=0.05, max_hits=2)]
    )
    with injected_faults(plan):
        response = client.request({"op": "health"})
    assert response["ok"]
    if kind != "delay":
        assert plan.specs[0].hits >= 1


def test_partition_heals_and_requests_resume(socket_stack):
    _, _, client = socket_stack
    plan = FaultPlan(
        [FaultSpec("partition", backend="net", seconds=0.3, max_hits=1)]
    )
    with injected_faults(plan):
        opened = client.request({"op": "stream_open", "graph": GRAPH})
        follow = client.request(
            {"op": "update", "handle": opened["handle"],
             "add": {"rows": [0], "cols": [1]}}
        )
    assert plan.specs[0].hits == 1
    assert follow["epoch"] == 1


def test_retry_with_same_rid_never_double_applies(socket_stack):
    _, _, client = socket_stack
    opened = client.request({"op": "stream_open", "graph": GRAPH})
    handle = opened["handle"]
    # Drop every first send: each request's ack is lost once and must
    # be recovered by a same-rid retry, without re-applying.
    plan = FaultPlan(
        [FaultSpec("drop", backend="net", probability=0.5)], seed=3
    )
    epochs = []
    with injected_faults(plan):
        for k in range(8):
            response = client.request(
                {"op": "update", "handle": handle,
                 "add": {"rows": [k % 60], "cols": [(k * 7 + 1) % 60]}}
            )
            epochs.append(response["epoch"])
    assert plan.specs[0].hits >= 1  # the schedule actually dropped acks
    assert epochs == list(range(1, 9))  # one apply per request, in order


def test_hedged_probe_wins_against_a_slow_first_response(socket_stack):
    _, _, client = socket_stack
    # First response delayed well past the hedge threshold; the hedge
    # connection answers clean (max_hits=1) and must win quickly.
    plan = FaultPlan(
        [FaultSpec("delay", backend="net", seconds=1.5, max_hits=1)]
    )
    t0 = time.perf_counter()
    with injected_faults(plan):
        health = client.probe(hedge_delay=0.1, deadline=5.0)
    elapsed = time.perf_counter() - t0
    assert health["status"] == "ok"
    assert elapsed < 1.4  # did not wait out the delayed first probe


# ---------------------------------------------------------------------------
# rid cache across journal recovery


def test_acked_rid_survives_recovery_without_reapplying(tmp_path):
    from repro.serve.journal import DurableLog
    from repro.serve.recovery import recover_registry

    jdir = str(tmp_path / "j")
    with MatchingServer("serial") as server:
        streams = _StreamRegistry(
            2, "serial", journal=DurableLog(jdir, checkpoint_every=100)
        )
        dispatcher = Dispatcher(server, streams)
        opened, _ = dispatcher.handle(
            {"id": 1, "rid": "cli:1", "op": "stream_open", "graph": GRAPH}
        )
        acked, _ = dispatcher.handle(
            {"id": 2, "rid": "cli:2", "op": "update",
             "handle": opened["handle"], "add": {"rows": [0], "cols": [1]}}
        )
        assert acked["ok"] and acked["epoch"] == 1
        streams.journal.close()  # daemon dies after the ack

    recovered, _report = recover_registry(jdir, backend="serial")
    assert recovered.replayed_acks["cli:2"]["epoch"] == 1
    with MatchingServer("serial") as server:
        dispatcher = Dispatcher(server, recovered)
        # The client never saw the ack and retries after failover.
        retry, _ = dispatcher.handle(
            {"id": 3, "rid": "cli:2", "op": "update",
             "handle": opened["handle"], "add": {"rows": [0], "cols": [1]}}
        )
        assert retry["ok"] and retry["epoch"] == 1  # NOT re-applied
        graph, _m = recovered._sessions[opened["handle"]]
        assert graph.epoch == 1
        recovered.journal.close()


def test_match_rid_reexecutes_while_update_rid_replays():
    """Only journaled ops keep their ack for retries: a retried match
    runs again (a seeded match answers the same), a retried update is
    answered from the cache without re-applying."""
    from repro import telemetry

    with MatchingServer("serial") as server, telemetry.session() as reg:
        streams = _StreamRegistry(2, "serial")
        dispatcher = Dispatcher(server, streams)
        match = {"id": 1, "rid": "m", "op": "match", "graph": GRAPH,
                 "iterations": 2, "seed": 3}
        first, _ = dispatcher.handle(match)
        again, _ = dispatcher.handle({**match, "id": 2})
        assert first["ok"] and again["ok"] and again["id"] == 2
        assert again["row_match"] == first["row_match"]
        assert reg.counter("serve.rid_replays").value == 0
        opened, _ = dispatcher.handle(
            {"id": 3, "op": "stream_open", "graph": GRAPH}
        )
        update = {"id": 4, "rid": "u", "op": "update",
                  "handle": opened["handle"],
                  "add": {"rows": [0], "cols": [1]}}
        acked, _ = dispatcher.handle(update)
        retry, _ = dispatcher.handle({**update, "id": 5})
        assert reg.counter("serve.rid_replays").value == 1
        assert retry["id"] == 5 and retry["epoch"] == acked["epoch"] == 1
        assert streams._sessions[opened["handle"]][0].epoch == 1
        assert list(dispatcher._acked) == ["u"]


def test_clean_run_still_exits_zero():
    code, replies = _run_script([{"id": 1, "op": "health"}])
    assert code == 0
    assert replies[0]["ok"]


# ---------------------------------------------------------------------------
# per-tenant quotas


def test_quota_sheds_typed_and_releases():
    quotas = TenantQuotas(limit=2)
    quotas.acquire("a")
    quotas.acquire("a")
    with pytest.raises(QuotaExceededError):
        quotas.acquire("a")
    quotas.release("a")
    quotas.acquire("a")  # slot came back
    assert quotas.inflight("a") == 2
    with pytest.raises(ServiceError):
        quotas.release("b")  # over-release is a bug, not a no-op


def test_quota_overrides_and_snapshot():
    quotas = TenantQuotas(limit=1, overrides={"batch": 3})
    assert quotas.limit_for("batch") == 3
    quotas.acquire("batch")
    with pytest.raises(QuotaExceededError):
        quotas.acquire("web"), quotas.acquire("web")
    snap = quotas.snapshot()
    assert snap["inflight"] == {"batch": 1, "web": 1}
    assert snap["shed"] == {"web": 1}


def test_quota_held_under_concurrent_submits():
    limit = 4
    quotas = TenantQuotas(limit=limit)
    peak = {"a": 0, "b": 0}
    shed = {"a": 0, "b": 0}
    lock = threading.Lock()

    def worker(tenant: str, submits: int) -> None:
        for _ in range(submits):
            try:
                quotas.acquire(tenant)
            except QuotaExceededError:
                with lock:
                    shed[tenant] += 1
                continue
            try:
                with lock:
                    peak[tenant] = max(
                        peak[tenant], quotas.inflight(tenant)
                    )
                time.sleep(0.001)
            finally:
                quotas.release(tenant)

    threads = [
        threading.Thread(target=worker, args=(t, 50))
        for t in ("a", "b")
        for _ in range(8)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    # The cap held at every instant, and both tenants made progress.
    assert peak["a"] <= limit and peak["b"] <= limit
    assert quotas.inflight("a") == 0 and quotas.inflight("b") == 0


def test_one_flooding_tenant_cannot_starve_another():
    quotas = TenantQuotas(limit=2)
    release_flood = threading.Event()
    holding = threading.Barrier(3)

    def flooder() -> None:
        quotas.acquire("flood")
        holding.wait()
        release_flood.wait(timeout=10.0)
        quotas.release("flood")

    floods = [threading.Thread(target=flooder) for _ in range(2)]
    for t in floods:
        t.start()
    holding.wait()  # the flooding tenant now holds its entire quota
    with pytest.raises(QuotaExceededError):
        quotas.acquire("flood")
    # A different tenant is admitted instantly regardless.
    with quotas.admitted("polite"):
        assert quotas.inflight("polite") == 1
    release_flood.set()
    for t in floods:
        t.join()


# ---------------------------------------------------------------------------
# multi-daemon router failover (subprocess e2e)


def test_router_survives_sigkill_with_zero_acked_loss(tmp_path):
    from repro.serve.router import Router

    script = []
    for k in range(4):
        script.append(
            {"op": "update",
             "add": {"rows": [k % 60, (k + 1) % 60],
                     "cols": [(3 * k + 1) % 60, (5 * k + 2) % 60]}}
        )
        script.append({"op": "rematch"})
    strip = ("id", "rid", "ok", "handle")

    acked = []
    with Router(
        3, str(tmp_path / "rt"), backend="serial", health_interval=0.0
    ) as router:
        opened = router.request(
            {"op": "stream_open", "graph": GRAPH,
             "target_quality": 0.55, "seed": 0}
        )
        handle = opened["handle"]
        owner = handle.split(":", 1)[0]
        for i, op in enumerate(script):
            if i == len(script) // 2:
                victim = router._node_by_name(owner)
                assert victim.alive()
                victim.proc.kill()  # SIGKILL, no goodbye
            acked.append(
                {k: v
                 for k, v in router.request(
                     {**op, "handle": handle}
                 ).items()
                 if k not in strip}
            )
        revived = router._node_by_name(owner)
        assert revived.restarts == 1 and revived.healthy
        health = router.health()
        assert all(node["alive"] for node in health["nodes"])

    # Uninterrupted in-process replica: the acked transcript must be
    # bitwise identical — zero acked requests or epochs lost.
    registry = _StreamRegistry(4, "serial")
    replica_open = registry.open(
        {"graph": GRAPH, "target_quality": 0.55, "seed": 0}
    )
    replica = []
    for op in script:
        msg = {**op, "handle": replica_open["handle"]}
        if op["op"] == "update":
            replica.append(dict(registry.update(msg)))
        else:
            replica.append(dict(registry.rematch(msg)))
    assert acked == replica


def test_router_enforces_quota_before_routing(tmp_path):
    # Quota shedding happens before any socket I/O — provable with a
    # router whose daemons were never started.
    from repro.serve.router import Router

    router = Router(
        2,
        str(tmp_path / "rt"),
        quotas=TenantQuotas(limit=1),
        health_interval=0.0,
    )
    router.quotas.acquire("t")  # tenant already at its cap
    with pytest.raises(QuotaExceededError):
        router.request({"op": "health"}, tenant="t")


def test_router_namespaces_and_validates_handles(tmp_path):
    from repro.serve.router import Router

    router = Router(2, str(tmp_path / "rt"), health_interval=0.0)
    with pytest.raises(StreamError, match="look like"):
        router.request({"op": "rematch", "handle": "s1"})
    with pytest.raises(StreamError, match="unknown daemon"):
        router.request({"op": "rematch", "handle": "n9:s1"})


def test_router_routes_graphs_by_graph_key(tmp_path, monkeypatch):
    # Routing only: the daemons are never started, the forward is stubbed.
    from repro.serve.router import Router

    router = Router(2, str(tmp_path / "rt"), health_interval=0.0)
    keys = []
    route = router._route
    monkeypatch.setattr(
        router, "_route", lambda key: keys.append(key) or route(key)
    )
    monkeypatch.setattr(
        router, "_forward", lambda node, msg, deadline: {"ok": True}
    )
    coo = {"nrows": 3, "ncols": 3, "rows": [0, 1, 2], "cols": [2, 0, 1]}
    same = {"cols": [2, 0, 1], "rows": [0, 1, 2], "ncols": 3, "nrows": 3,
            "label": "an unknown field"}
    malformed = {**coo, "rows": [0]}
    router.request({"op": "match", "graph": coo})
    router.request({"op": "stream_open", "graph": same})
    router.request({"op": "shard_open", "graph": coo, "index": 1})
    router.request({"op": "match", "graph": GRAPH})
    router.request({"op": "match", "graph": malformed})
    key = graph_key(coo)
    assert key.startswith("coo:")
    assert keys == [
        key,
        key,
        f"{key}#1",
        json.dumps(GRAPH, sort_keys=True),
        json.dumps(malformed, sort_keys=True),
    ]


#: The router's op sets before the op table, kept as the reference for
#: routing each op where they did.
_SET_HANDLE_OPS = {
    "update", "stream_update", "rematch", "stream_rematch", "stream_close",
    "shard_sweep", "shard_choices", "shard_arm", "shard_scan",
    "shard_commit", "shard_finish", "shard_close",
}
_SET_GRAPH_OPS = {"match", "stream_open", "shard_open"}


def test_router_routes_every_op_where_the_op_sets_did(tmp_path, monkeypatch):
    # Routing only: the daemons are never started, the forward is stubbed.
    from repro.serve.router import Router

    router = Router(3, str(tmp_path / "rt"), health_interval=0.0)
    for node in router.nodes:
        node.healthy = True
    picked = []
    monkeypatch.setattr(
        router,
        "_forward",
        lambda node, msg, deadline: picked.append(node) or {"ok": True},
    )

    def by_sets(msg):
        op = str(msg.get("op", "match"))
        if op in _SET_HANDLE_OPS:
            return router._node_by_name(msg["handle"].partition(":")[0])
        if op in _SET_GRAPH_OPS:
            key = graph_key(msg["graph"])
            if op == "shard_open":
                key = f"{key}#{msg.get('index')}"
            return router._route(key)
        return router._route(msg["rid"])

    assert set(OPS) == _SET_HANDLE_OPS | _SET_GRAPH_OPS | {
        "health", "shutdown"
    }
    coo = {"nrows": 3, "ncols": 3, "rows": [0, 1, 2], "cols": [2, 0, 1]}
    msgs = [{"graph": GRAPH, "rid": "r-default"}, {"op": "nope", "rid": "x"}]
    for name in OPS:
        for i in range(6):
            msgs.append({
                "op": name, "rid": f"{name}-{i}", "index": i % 3,
                "graph": coo if i % 2 else {**GRAPH, "seed": i},
                "handle": f"n{i % 3}:s{i}",
            })
    for msg in msgs:
        router.request(msg, check=False)
    assert picked == [by_sets(msg) for msg in msgs]
    assert len({node.name for node in picked}) == 3


def test_router_forwards_validated_arrays_and_leaves_caller_spec(
    tmp_path, monkeypatch
):
    # Routing only: the daemons are never started, the forward is stubbed.
    import copy

    from repro.serve.router import Router

    router = Router(2, str(tmp_path / "rt"), health_interval=0.0)
    sent = []
    monkeypatch.setattr(
        router,
        "_forward",
        lambda node, msg, deadline: sent.append(msg) or {"ok": True},
    )
    coo = {"nrows": 3, "ncols": 3, "rows": [0, 1, 2], "cols": [2, 0, 1],
           "label": "kept"}
    malformed = {**coo, "rows": [0]}
    msgs = [
        {"op": "match", "graph": coo, "seed": 1},
        {"op": "stream_open", "graph": coo},
        {"op": "shard_open", "graph": coo, "index": 0, "n_shards": 2},
        {"op": "match", "graph": malformed},
        {"op": "match", "graph": GRAPH},
    ]
    before = copy.deepcopy(msgs)
    rows_list = coo["rows"]
    for msg in msgs:
        router.request(msg)
    assert msgs == before and coo["rows"] is rows_list
    assert all(type(m["graph"]["rows"]) is list
               for m in msgs if "rows" in m["graph"])
    for msg in sent[:3]:
        spec = msg["graph"]
        assert spec["label"] == "kept" and spec["nrows"] == 3
        for field in ("rows", "cols"):
            assert isinstance(spec[field], np.ndarray)
            assert spec[field].dtype == np.int64
            assert spec[field].tolist() == coo[field]
        assert graph_key(spec) == graph_key(coo)
    # An invalid or non-COO spec is forwarded as it came.
    assert sent[3]["graph"] is malformed
    assert sent[4]["graph"] is GRAPH


def test_serve_listen_cli_roundtrip(tmp_path):
    import subprocess
    import sys

    sock = str(tmp_path / "cli.sock")
    env = dict(os.environ)
    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--listen", f"unix:{sock}",
         "--backend", "serial"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        text=True,
    )
    try:
        ready = json.loads(proc.stdout.readline())
        assert ready["event"] == "serve.listening"
        client = ResilientClient(ready["address"], retries=4)
        assert client.request({"op": "health"})["ok"]
        client.request({"op": "shutdown"}, check=False)
        assert proc.wait(timeout=20) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)
