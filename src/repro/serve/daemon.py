"""The daemon protocol: its op table, graph specs and dispatcher.

A daemon answers each request object with one response object, tagged
with the request's ``id``.  The socket front
(:func:`~repro.serve.net.serve_listen`, ``python -m repro serve
--listen``) carries both as framed messages, and the
:class:`~repro.serve.router.Router` supervises several daemons behind
one call.  In-process callers wanting concurrency use
:class:`~repro.serve.MatchingServer` directly via ``submit_async``.

Requests (``op`` selects the operation; :data:`OPS` lists every op)::

    {"id": 1, "op": "match", "graph": {...}, "iterations": 5,
     "seed": 7, "method": "auto", "deadline": 2.0}
    {"id": 2, "op": "health"}
    {"id": 3, "op": "shutdown"}

Streaming requests work against a *handle* to a server-side
:class:`~repro.stream.DynamicBipartiteGraph` (see ``docs/streaming.md``)::

    {"id": 4, "op": "stream_open", "graph": {...}, "target_quality": 0.6}
    {"id": 5, "op": "update", "handle": "s1",
     "add": {"rows": [0], "cols": [1]}, "remove": {"rows": [2], "cols": [0]}}
    {"id": 6, "op": "rematch", "handle": "s1", "expect_epoch": 2}
    {"id": 7, "op": "stream_close", "handle": "s1"}

``update``/``rematch`` also answer to ``stream_update``/``stream_rematch``.
``expect_epoch`` (optional) makes ``rematch`` fail with a typed
``StreamError`` when the graph has moved past the epoch the client
thinks it is at, instead of silently answering for a newer state.

Graph specs (``graph``) are cached by :func:`graph_key` (an LRU of
:data:`GRAPH_CACHE_CAP` graphs), so a client can re-submit the same
spec without rebuilding it server-side.  COO specs are keyed by a
SHA-256 digest of their arrays, the others by their canonical JSON:

* ``{"kind": "sprand", "n": 1000, "degree": 4.0, "seed": 0}``
* ``{"kind": "union", "n": 1000, "k": 3, "seed": 0}``
* ``{"path": "matrix.mtx"}`` — Matrix Market or ``.npz`` via
  :mod:`repro.graph.io`
* ``{"nrows": 2, "ncols": 2, "rows": [0, 1], "cols": [1, 0]}`` — COO

Responses are ``{"id", "ok": true, ...}`` on success or
``{"id", "ok": false, "error": "<TypedErrorClass>", "message": ...}``.
Match responses carry the matching's column-for-each-row array plus the
rung / guarantee / degradation provenance.  A ``shutdown`` op drains
the server gracefully.
"""

from __future__ import annotations

import hashlib
import json
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro import telemetry as _tm
from repro.errors import ReproError, ServiceError, ShardError, StreamError
from repro.graph.csr import BipartiteGraph
from repro.parallel.backends import Backend, get_backend
from repro.serve.server import MatchingServer, MatchRequest

__all__ = [
    "OPS",
    "Op",
    "lookup_op",
    "build_graph",
    "graph_key",
    "Dispatcher",
    "GraphCache",
    "JOURNAL_POISONED_EXIT",
]

#: Graphs a daemon keeps in its spec-key LRU cache.
GRAPH_CACHE_CAP = 32

#: Acknowledged responses a daemon keeps for idempotent retries.
ACKED_CAP = 1024


@dataclass(frozen=True)
class Op:
    """One wire op of the daemon protocol (see :data:`OPS`)."""

    #: Where the router sends it: the ring owner of its graph key
    #: (``"graph"``), of that key and its shard ``index`` (``"shard"``) or
    #: of its rid (``"any"``), or its session's daemon (``"handle"``).
    route: str
    #: The :class:`_StreamRegistry` method serving it (``None``: the
    #: dispatcher serves ``match``, ``health`` and ``shutdown`` itself).
    method: str | None = None
    #: Whether *method* journals, under its own name as the record's
    #: ``op``; only these acks are kept for retries by request id.
    journaled: bool = False


#: Every op of the protocol, aliases included.  Dispatch, routing and
#: journal replay all read this one table.  Methods are named, not
#: stored, so they are looked up on the registry at call time.
OPS: dict[str, Op] = {
    "match": Op("graph"),
    "health": Op("any"),
    "shutdown": Op("any"),
    "stream_open": Op("graph", "open", True),
    "update": Op("handle", "update", True),
    "stream_update": Op("handle", "update", True),
    "rematch": Op("handle", "rematch", True),
    "stream_rematch": Op("handle", "rematch", True),
    "stream_close": Op("handle", "close", True),
    "shard_open": Op("shard", "shard_open", True),
    "shard_sweep": Op("handle", "shard_sweep"),
    "shard_choices": Op("handle", "shard_choices"),
    "shard_scan": Op("handle", "shard_scan"),
    "shard_arm": Op("handle", "shard_arm", True),
    "shard_commit": Op("handle", "shard_commit", True),
    "shard_finish": Op("handle", "shard_finish", True),
    "shard_close": Op("handle", "shard_close", True),
}

#: The registry methods a journal record may name.
_JOURNALED = frozenset(op.method for op in OPS.values() if op.journaled)


def lookup_op(msg: dict[str, Any]) -> tuple[Any, Op | None]:
    """The op *msg* names (``match`` when it names none) and its entry
    in :data:`OPS`, ``None`` for an op the protocol does not have."""
    name = msg.get("op", "match")
    return name, OPS.get(name) if isinstance(name, str) else None


class GraphCache:
    """LRU-bounded spec-key → graph cache for the daemon.

    The previous unbounded ``dict`` leaked memory in a long-running
    daemon fed many distinct specs; this keeps at most *cap* graphs,
    evicting the least recently *used* (hits refresh recency).  The
    mapping surface (``in`` / ``[]``) matches what :func:`build_graph`
    needs, so a plain dict still works there too.
    """

    def __init__(self, cap: int = GRAPH_CACHE_CAP) -> None:
        if cap < 1:
            raise ServiceError(f"graph cache cap must be >= 1, got {cap}")
        self.cap = int(cap)
        self.evictions = 0
        self._data: OrderedDict[str, BipartiteGraph] = OrderedDict()

    def __contains__(self, key: str) -> bool:
        return key in self._data

    def __len__(self) -> int:
        return len(self._data)

    def __getitem__(self, key: str) -> BipartiteGraph:
        self._data.move_to_end(key)
        return self._data[key]

    def __setitem__(self, key: str, graph: BipartiteGraph) -> None:
        if key in self._data:
            self._data.move_to_end(key)
        self._data[key] = graph
        while len(self._data) > self.cap:
            self._data.popitem(last=False)
            self.evictions += 1
            if _tm.enabled():
                _tm.incr("serve.graph_cache.evictions")


def _coo_indices(value: Any, field: str) -> np.ndarray:
    """Validate one COO index field into an int64 array (typed errors)."""
    try:
        arr = np.asarray(value)
    except Exception:
        raise ServiceError(
            f"COO field {field!r} is not array-like"
        ) from None
    if arr.ndim != 1:
        raise ServiceError(
            f"COO field {field!r} must be a flat list, got shape"
            f" {arr.shape}"
        )
    if arr.size and not np.issubdtype(arr.dtype, np.integer):
        raise ServiceError(
            f"COO field {field!r} must contain integers only, got"
            f" dtype {arr.dtype}"
        )
    return arr.astype(np.int64, copy=False)


def _coo_dim(spec: dict, field: str) -> int:
    if field not in spec:
        raise ServiceError(f"COO graph spec is missing {field!r}")
    value = spec[field]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ServiceError(
            f"COO field {field!r} must be an integer, got"
            f" {type(value).__name__}"
        )
    return value


def _is_coo(spec: Any) -> bool:
    """True when :func:`build_graph` reads *spec* as inline COO."""
    return (
        isinstance(spec, dict)
        and "path" not in spec
        and spec.get("kind") not in ("sprand", "union")
        and "rows" in spec
        and "cols" in spec
    )


def _coo_arrays(spec: dict) -> tuple[int, int, np.ndarray, np.ndarray]:
    """Validate an inline COO spec into ``(nrows, ncols, rows, cols)``."""
    nrows = _coo_dim(spec, "nrows")
    ncols = _coo_dim(spec, "ncols")
    rows = _coo_indices(spec["rows"], "rows")
    cols = _coo_indices(spec["cols"], "cols")
    if rows.shape[0] != cols.shape[0]:
        raise ServiceError(
            f"COO fields 'rows' and 'cols' differ in length:"
            f" {rows.shape[0]} vs {cols.shape[0]}"
        )
    return nrows, ncols, rows, cols


def _coo_key(
    nrows: int, ncols: int, rows: np.ndarray, cols: np.ndarray
) -> str:
    # The header fixes the shape and where 'rows' ends, so swapping the
    # two fields or resizing the graph changes the digest.
    digest = hashlib.sha256(f"{nrows},{ncols},{rows.shape[0]};".encode())
    digest.update(np.ascontiguousarray(rows))
    digest.update(np.ascontiguousarray(cols))
    return f"coo:{digest.hexdigest()}"


def _json_key(spec: Any) -> str:
    return json.dumps(spec, sort_keys=True, default=str)


def graph_key(spec: Any) -> str:
    """The cache and routing key of a daemon graph *spec*.

    An inline COO spec is keyed by SHA-256 over its shape, its edge
    count and the int64 bytes of ``rows`` and ``cols``, so equal
    content gives one key whatever the dict's key order, extra fields
    or integer types (a list and its int64 array give one key).
    ``path`` and ``kind`` specs keep their canonical JSON.  A spec that
    is not valid COO falls back to canonical JSON without raising:
    :func:`build_graph` reports its typed error.
    """
    return keyed_spec(spec)[0]


def keyed_spec(spec: Any) -> tuple[str, Any]:
    """``(graph_key(spec), spec)``, validating an inline COO spec once.

    A valid COO spec comes back as a new dict whose ``rows`` and
    ``cols`` are the validated int64 arrays, which the socket codec
    (:func:`~repro.serve.net.encode_message`) sends as raw bytes; the
    caller's dict is not changed.  Any other spec, an invalid COO spec
    included, comes back as it came.
    """
    if _is_coo(spec):
        try:
            nrows, ncols, rows, cols = _coo_arrays(spec)
        except ServiceError:
            pass
        else:
            key = _coo_key(nrows, ncols, rows, cols)
            return key, {**spec, "rows": rows, "cols": cols}
    return _json_key(spec), spec


def build_graph(
    spec: Any, cache: "GraphCache | dict[str, BipartiteGraph] | None" = None
) -> BipartiteGraph:
    """Materialise a graph from a daemon *spec* (see module docstring).

    Graphs are cached under :func:`graph_key`.  An inline COO spec is
    validated first, and a miss builds from the same arrays.
    """
    if not isinstance(spec, dict):
        raise ServiceError(
            f"graph spec must be an object, got {type(spec).__name__}"
        )
    coo = _coo_arrays(spec) if _is_coo(spec) else None
    key = _json_key(spec) if coo is None else _coo_key(*coo)
    if cache is not None and key in cache:
        return cache[key]
    if "path" in spec:
        path = str(spec["path"])
        if path.endswith(".npz"):
            from repro.graph.io import load_npz

            graph = load_npz(path)
        else:
            from repro.graph.io import read_matrix_market

            graph = read_matrix_market(path)
    elif spec.get("kind") == "sprand":
        from repro.graph.generators import sprand

        graph = sprand(
            int(spec["n"]),
            float(spec.get("degree", 4.0)),
            seed=spec.get("seed"),
        )
    elif spec.get("kind") == "union":
        from repro.graph.generators import union_of_permutations

        graph = union_of_permutations(
            int(spec["n"]), int(spec.get("k", 3)), seed=spec.get("seed")
        )
    elif coo is not None:
        from repro.graph.build import from_edges

        graph = from_edges(*coo)
    else:
        raise ServiceError(
            "graph spec needs 'path', 'kind' in {'sprand', 'union'}, or "
            "COO 'rows'/'cols'"
        )
    if cache is not None:
        cache[key] = graph
    return cache[key] if cache is not None else graph


def _error_response(request_id: Any, exc: BaseException) -> dict[str, Any]:
    if not isinstance(exc, ReproError):
        # Contract: the daemon never emits untyped failures.
        exc = ServiceError(f"internal daemon error: {exc!r}")
    return {
        "id": request_id,
        "ok": False,
        "error": type(exc).__name__,
        "message": str(exc),
    }


def _floats(msg: dict[str, Any], field: str) -> np.ndarray:
    value = msg.get(field)
    if value is None:
        raise ShardError(f"shard verb is missing the {field!r} vector")
    return np.asarray(value, dtype=np.float64)


class _StreamRegistry:
    """Server-side handles to dynamic graphs and their matchers.

    Each method that serves an op (see :data:`OPS`) takes the request
    as its one argument; graph specs are built through the registry's
    :attr:`cache`, an LRU of :data:`GRAPH_CACHE_CAP` graphs.

    With a :class:`~repro.serve.journal.DurableLog` attached, every
    successful mutating op is journaled (and fsync'd) *before* its
    response is returned — the write-ahead discipline that makes an
    acknowledgment survive a crash.  A journal failure poisons the log;
    the daemon then stops so the router can restart it through
    :func:`~repro.serve.recovery.recover_registry`.
    """

    def __init__(
        self,
        max_streams: int,
        backend: Backend | str | None,
        *,
        journal: Any = None,
    ) -> None:
        self.max_streams = int(max_streams)
        self.backend = backend
        self.journal = journal
        self.cache = GraphCache()
        self._sessions: dict[str, tuple[Any, Any]] = {}
        #: handle → ShardSession; shares the ``s<n>`` handle namespace and
        #: the *max_streams* budget with dynamic-graph sessions.
        self._shards: dict[str, Any] = {}
        self._last_ack: dict[str, dict[str, Any]] = {}
        self._next = 0
        #: rid → acknowledged payload, rebuilt by :meth:`apply_record`
        #: during recovery so a client retry of an already-acked mutation
        #: is answered from the replayed ack instead of re-applied.
        self.replayed_acks: dict[str, dict[str, Any]] = {}

    # -- durability ----------------------------------------------------

    @property
    def poisoned(self) -> bool:
        """True once the journal refused a write (state ahead of disk)."""
        return self.journal is not None and self.journal.poisoned is not None

    def _journal_append(
        self, op: str, handle: Any, msg: dict[str, Any], /, **fields: Any
    ) -> None:
        """Journal *op*'s record: ``op``, ``handle``, the request's
        idempotency id (only if it sent one, so a rid-less client's
        journal matches earlier releases byte for byte), then *fields*
        in order (``ack`` last)."""
        if self.journal is None:
            return
        record = {"op": op, "handle": handle}
        if msg.get("rid") is not None:
            record["rid"] = str(msg["rid"])
        self.journal.append({**record, **fields})
        if self.journal.should_checkpoint:
            from repro.serve.checkpoint import write_snapshot

            state = self.export_state()
            self.journal.rotate(lambda tmp: write_snapshot(tmp, state))

    def export_state(self) -> dict[str, Any]:
        """Checkpointable image of every open session."""
        return {
            "next": self._next,
            "sessions": {
                handle: {
                    "graph": graph.export_state(),
                    "matcher": matcher.export_state(),
                }
                for handle, (graph, matcher) in self._sessions.items()
            },
            "shards": {
                handle: session.export_state()
                for handle, session in self._shards.items()
            },
            "last_ack": dict(self._last_ack),
        }

    def restore_state(self, state: dict[str, Any]) -> None:
        """Adopt a checkpoint image (see :mod:`repro.serve.recovery`)."""
        from repro.stream.dynamic import DynamicBipartiteGraph
        from repro.stream.matcher import StreamMatcher

        self._next = int(state["next"])
        self._sessions = {}
        for handle, parts in state["sessions"].items():
            graph = DynamicBipartiteGraph.from_state(parts["graph"])
            matcher = StreamMatcher.from_state(
                graph, parts["matcher"], backend=self.backend
            )
            self._sessions[handle] = (graph, matcher)
        self._shards = {}
        if state.get("shards"):
            from repro.shard.session import ShardSession

            for handle, sess in state["shards"].items():
                self._shards[handle] = ShardSession.import_state(sess, None)
        self._last_ack = {
            h: dict(a) for h, a in state.get("last_ack", {}).items()
        }

    def apply_record(self, record: dict[str, Any]) -> None:
        """Replay one journal record, verifying it reproduces its ack.

        The record's ``op`` names the journaled method that wrote it,
        which is called with the record's fields (an ``update`` record's
        ``msg`` merged in).  Used by recovery with no journal attached;
        an op no journaled method has, a method that refuses the record
        (say, a session past *max_streams*) or any divergence from the
        recorded acknowledgment is a typed
        :class:`~repro.errors.RecoveryError` — the recovered state would
        not be the one the client saw.
        """
        from repro.errors import RecoveryError

        op = record.get("op")
        if not isinstance(op, str) or op not in _JOURNALED:
            raise RecoveryError(f"journal record has unknown op {op!r}")
        handle = record.get("handle")
        try:
            response = getattr(self, op)({**record, **record.get("msg", {})})
        except RecoveryError:
            raise
        except ReproError as exc:
            raise RecoveryError(
                f"replay of {op!r} on {handle!r} was refused:"
                f" {type(exc).__name__}: {exc}"
            ) from exc
        if response.get("handle", handle) != handle:
            raise RecoveryError(
                f"replayed {op} produced handle {response['handle']!r},"
                f" journal says {handle!r}"
            )
        if op == "open":
            _, matcher = self._sessions[handle]
            matcher._rng.bit_generator.state = record["rng"]
        ack = record.get("ack", {})
        diverged = {
            key: (response.get(key), expected)
            for key, expected in ack.items()
            if response.get(key) != expected
        }
        if diverged:
            raise RecoveryError(
                f"replay of {op!r} on {handle!r} diverged from the"
                f" acknowledged response: {diverged}"
            )
        if record.get("rid") is not None:
            self.replayed_acks[str(record["rid"])] = dict(response)

    # -- ops -----------------------------------------------------------

    def _admit(self) -> None:
        """Refuse a new session once *max_streams* sessions are open.

        Stream and shard sessions share the one budget, and journal
        replay runs the same check.
        """
        if len(self._sessions) + len(self._shards) >= self.max_streams:
            raise StreamError(
                f"stream limit reached ({self.max_streams} open);"
                f" close a handle first"
            )

    def open(self, msg: dict[str, Any]) -> dict[str, Any]:
        from repro.stream.dynamic import DynamicBipartiteGraph
        from repro.stream.matcher import StreamMatcher

        self._admit()
        base = build_graph(msg.get("graph"), self.cache)
        graph = DynamicBipartiteGraph(base)
        matcher = StreamMatcher(
            graph,
            float(msg.get("target_quality", 0.55)),
            seed=msg.get("seed"),
            backend=self.backend,
            topup=bool(msg.get("topup", False)),
            exact=bool(msg.get("exact", False)),
        )
        self._next += 1
        handle = f"s{self._next}"
        self._sessions[handle] = (graph, matcher)
        if _tm.enabled():
            _tm.incr("serve.stream.opens")
            _tm.set_gauge("serve.stream.open_handles", len(self._sessions))
        response = {
            "handle": handle,
            "epoch": graph.epoch,
            "nrows": graph.nrows,
            "ncols": graph.ncols,
            "nnz": graph.nnz,
        }
        self._journal_append(
            "open",
            handle,
            msg,
            graph=msg.get("graph"),
            target_quality=float(msg.get("target_quality", 0.55)),
            seed=msg.get("seed"),
            topup=bool(msg.get("topup", False)),
            exact=bool(msg.get("exact", False)),
            # The concrete generator state (seed may be None): replay
            # restores it so recovered sessions draw identical randomness.
            rng=matcher._rng.bit_generator.state,
            ack=response,
        )
        return response

    def get(self, msg: dict[str, Any]) -> tuple[Any, Any]:
        handle = msg.get("handle")
        if handle not in self._sessions:
            raise StreamError(f"unknown stream handle {handle!r}")
        return self._sessions[handle]

    def update(self, msg: dict[str, Any]) -> dict[str, Any]:
        graph, _ = self.get(msg)
        added = removed = 0
        remove = msg.get("remove")
        if remove is not None:
            removed = graph.remove_edges(
                _coo_indices(remove.get("rows", ()), "remove.rows"),
                _coo_indices(remove.get("cols", ()), "remove.cols"),
                strict=bool(msg.get("strict", True)),
            )
        add = msg.get("add")
        if add is not None:
            added = graph.add_edges(
                _coo_indices(add.get("rows", ()), "add.rows"),
                _coo_indices(add.get("cols", ()), "add.cols"),
            )
        grow = msg.get("grow")
        if grow is not None:
            graph.grow(
                int(grow.get("nrows", graph.nrows)),
                int(grow.get("ncols", graph.ncols)),
            )
        if _tm.enabled():
            _tm.incr("serve.stream.updates")
        response = {
            "epoch": graph.epoch,
            "added": added,
            "removed": removed,
            "nnz": graph.nnz,
        }
        self._journal_append(
            "update",
            msg.get("handle"),
            msg,
            msg={
                key: msg[key]
                for key in ("add", "remove", "grow", "strict")
                if key in msg
            },
            ack=response,
        )
        return response

    def rematch(self, msg: dict[str, Any]) -> dict[str, Any]:
        graph, matcher = self.get(msg)
        expect = msg.get("expect_epoch")
        if expect is not None and int(expect) != graph.epoch:
            raise StreamError(
                f"stale epoch: client expected {int(expect)}, graph is at"
                f" {graph.epoch}"
            )
        result = matcher.rematch(cold=bool(msg.get("cold", False)))
        if _tm.enabled():
            _tm.incr("serve.stream.rematches")
        payload = {
            "epoch": result.epoch,
            "mode": result.mode,
            "cardinality": result.cardinality,
            "certified_quality": result.quality.certified_quality,
            "min_column_sum": result.quality.min_column_sum,
            "guarantee": result.guarantee,
            "resampled_rows": result.resampled_rows,
            "resampled_cols": result.resampled_cols,
            "repaired_rows": result.repaired_rows,
            "repaired_cols": result.repaired_cols,
            "topup_gain": result.topup_gain,
            "exact_gain": result.exact_gain,
        }
        handle = msg.get("handle")
        self._last_ack[str(handle)] = dict(payload)
        self._journal_append(
            "rematch",
            handle,
            msg,
            cold=bool(msg.get("cold", False)),
            ack=dict(payload),
        )
        if msg.get("include_matching"):
            payload["row_match"] = result.matching.row_match.tolist()
        return payload

    def close(self, msg: dict[str, Any]) -> dict[str, Any]:
        self.get(msg)  # a typed error for an unknown handle
        handle = msg["handle"]
        del self._sessions[handle]
        self._last_ack.pop(str(handle), None)
        if _tm.enabled():
            _tm.incr("serve.stream.closes")
            _tm.set_gauge("serve.stream.open_handles", len(self._sessions))
        self._journal_append("close", handle, msg)
        return {"handle": handle, "closed": True}

    # -- shard ops (see docs/sharding.md, "Daemon tier") ----------------

    def get_shard(self, msg: dict[str, Any]) -> Any:
        handle = msg.get("handle")
        if handle not in self._shards:
            raise ShardError(f"unknown shard handle {handle!r}")
        return self._shards[handle]

    def shard_open(self, msg: dict[str, Any]) -> dict[str, Any]:
        from repro.shard.session import ShardSession

        self._admit()
        base = build_graph(msg.get("graph"), self.cache)
        session = ShardSession.build(
            base,
            msg.get("graph"),
            int(msg.get("n_shards", 1)),
            int(msg.get("index", 0)),
            chunk_rows=msg.get("chunk_rows"),
            chunk_cols=msg.get("chunk_cols"),
        )
        self._next += 1
        handle = f"s{self._next}"
        self._shards[handle] = session
        if _tm.enabled():
            _tm.incr("serve.shard.opens")
            _tm.set_gauge("serve.shard.open_handles", len(self._shards))
        response = {"handle": handle, **session.info()}
        self._journal_append(
            "shard_open",
            handle,
            msg,
            graph=msg.get("graph"),
            n_shards=int(msg.get("n_shards", 1)),
            index=int(msg.get("index", 0)),
            chunk_rows=session.shard.chunk_rows,
            chunk_cols=session.shard.chunk_cols,
            ack=response,
        )
        return response

    # The shard verbs decode JSON lists into the session's numpy steps
    # and encode the results back; the client half of this codec is
    # repro.shard.daemon_tier._RemoteShard.

    def shard_sweep(self, msg: dict[str, Any]) -> dict[str, Any]:
        # Pure: a deterministic function of the request vectors and the
        # (immutable) slice — never journaled, safe to re-run on retry.
        session = self.get_shard(msg)
        which = str(msg.get("which", "col"))
        if which == "col":
            dc_next, err = session.col_sweep(
                _floats(msg, "dr"), _floats(msg, "dc")
            )
            return {"dc_next": dc_next.tolist(), "err": err}
        if which == "row":
            return {"dr": session.row_sweep(_floats(msg, "dc")).tolist()}
        if which == "uniform":
            return {"err": session.uniform_error()}
        raise ShardError(
            f"unknown sweep kind {which!r}; expected 'col', 'row', or"
            f" 'uniform'"
        )

    def shard_choices(self, msg: dict[str, Any]) -> dict[str, Any]:
        draws = msg.get("draws")
        choice = self.get_shard(msg).choices(
            str(msg.get("which", "row")),
            _floats(msg, "opp"),
            None if draws is None else np.asarray(draws, dtype=np.float64),
        )
        return {"choice": choice.tolist()}

    def shard_scan(self, msg: dict[str, Any]) -> dict[str, Any]:
        rows, cols = self.get_shard(msg).scan()
        return {"rows": rows.tolist(), "cols": cols.tolist()}

    def shard_arm(self, msg: dict[str, Any]) -> dict[str, Any]:
        session = self.get_shard(msg)
        row_choice = [int(v) for v in msg.get("row_choice", ())]
        col_choice = [int(v) for v in msg.get("col_choice", ())]
        response = session.arm(
            np.asarray(row_choice, dtype=np.int64),
            np.asarray(col_choice, dtype=np.int64),
        )
        self._journal_append(
            "shard_arm",
            msg.get("handle"),
            msg,
            row_choice=row_choice,
            col_choice=col_choice,
            ack=dict(response),
        )
        return response

    def shard_commit(self, msg: dict[str, Any]) -> dict[str, Any]:
        session = self.get_shard(msg)
        candidates = [int(v) for v in msg.get("candidates", ())]
        response = session.commit(np.asarray(candidates, dtype=np.int64))
        self._journal_append(
            "shard_commit",
            msg.get("handle"),
            msg,
            candidates=candidates,
            ack=dict(response),
        )
        return response

    def shard_finish(self, msg: dict[str, Any]) -> dict[str, Any]:
        session = self.get_shard(msg)
        response = session.finish()
        match = response.pop("match")
        self._journal_append(
            "shard_finish", msg.get("handle"), msg, ack=dict(response)
        )
        # The full match array rides the response but stays out of the
        # journal ack: the checksum already pins it bit for bit.
        return {**response, "match": match.tolist()}

    def shard_close(self, msg: dict[str, Any]) -> dict[str, Any]:
        self.get_shard(msg)  # a typed error for an unknown handle
        handle = msg["handle"]
        del self._shards[handle]
        if _tm.enabled():
            _tm.incr("serve.shard.closes")
            _tm.set_gauge("serve.shard.open_handles", len(self._shards))
        self._journal_append("shard_close", handle, msg)
        return {"handle": handle, "closed": True}


#: Exit code of a daemon that stopped because its journal poisoned —
#: nonzero so the router restarts it through recovery.
JOURNAL_POISONED_EXIT = 75


class Dispatcher:
    """Transport-independent request dispatcher for the daemon protocol.

    :meth:`handle` maps one request object to ``(response, stop)``,
    looking its op up in :data:`OPS`: a registry op calls its
    :class:`_StreamRegistry` method under an internal lock, while
    ``match`` submissions run outside it so slow matches do not block
    health probes or other connections.  It never raises for a bad
    request: failures come back as typed ``{"ok": false, "error": ...}``
    responses (``KeyboardInterrupt`` / ``SystemExit`` excepted).

    Idempotency: a request carrying a ``rid`` (client-unique request
    id) to a journaled op has its successful response remembered in an
    LRU of *acked_cap* entries; a retry with the same ``rid`` — e.g.
    after the network dropped the first ack — is answered from that
    cache without re-applying the mutation.  The cache is seeded from
    the journal on recovery (see :meth:`_StreamRegistry.apply_record`),
    so the guarantee holds across daemon failover, not just within one
    process.  Other ops change no state, so a retry re-executes them:
    a retried ``match`` is admitted afresh, and under load the server
    may answer it on a lower rung or shed it.
    """

    def __init__(
        self,
        server: MatchingServer,
        streams: _StreamRegistry,
        *,
        acked_cap: int = ACKED_CAP,
    ) -> None:
        if acked_cap < 1:
            raise ServiceError(
                f"acked cache cap must be >= 1, got {acked_cap}"
            )
        self.server = server
        self.streams = streams
        self.acked_cap = int(acked_cap)
        self.rid_evictions = 0
        self._lock = threading.RLock()
        self._acked: OrderedDict[str, dict[str, Any]] = OrderedDict()
        for rid, payload in streams.replayed_acks.items():
            self._remember(rid, {"ok": True, **payload})

    @property
    def poisoned(self) -> bool:
        """True once the journal refused a write (stop serving)."""
        return self.streams.poisoned

    def _remember(self, rid: str, response: dict[str, Any]) -> None:
        with self._lock:
            self._acked[rid] = response
            self._acked.move_to_end(rid)
            while len(self._acked) > self.acked_cap:
                self._acked.popitem(last=False)
                self.rid_evictions += 1
                if _tm.enabled():
                    _tm.incr("serve.rid_evictions")

    def _replay(self, rid: str) -> dict[str, Any] | None:
        with self._lock:
            cached = self._acked.get(rid)
            if cached is not None:
                self._acked.move_to_end(rid)
                return dict(cached)
        return None

    def health(self) -> dict[str, Any]:
        """The server's health merged with daemon-level state.

        Adds open/maximum stream sessions, graph-cache occupancy, and —
        when a journal is attached — its generation, records since the
        last checkpoint, and poisoned state.
        """
        payload = self.server.health()
        journal = self.streams.journal
        cache = self.streams.cache
        with self._lock:
            payload["sessions"] = len(self.streams._sessions)
            payload["shards"] = len(self.streams._shards)
            payload["rid_evictions"] = self.rid_evictions
        payload["max_streams"] = self.streams.max_streams
        payload["journal"] = (
            None
            if journal is None
            else {
                "generation": journal.generation,
                "records_since_checkpoint": journal.records_since_checkpoint,
                "poisoned": journal.poisoned,
            }
        )
        payload["graph_cache"] = {
            "size": len(cache),
            "cap": getattr(cache, "cap", None),
        }
        return payload

    def _match(self, msg: dict[str, Any]) -> dict[str, Any]:
        with self._lock:
            graph = build_graph(msg.get("graph"), self.streams.cache)
        request = MatchRequest(
            graph,
            iterations=int(msg.get("iterations", 5)),
            seed=msg.get("seed"),
            method=str(msg.get("method", "auto")),
            deadline=msg.get("deadline"),
        )
        response = self.server.submit(request)
        return {
            "ok": True,
            "cardinality": response.cardinality,
            "rung": response.rung,
            "guarantee": response.guarantee,
            "scaling_rung": response.scaling_rung,
            "degraded": response.degraded,
            "elapsed": response.elapsed,
            "queue_wait": response.queue_wait,
            "row_match": response.matching.row_match.tolist(),
        }

    def handle(self, msg: Any) -> tuple[dict[str, Any], bool]:
        """Dispatch one request object → ``(response, stop)``."""
        request_id: Any = None
        try:
            if not isinstance(msg, dict):
                raise ServiceError("request must be a JSON object")
            request_id = msg.get("id")
            rid = msg.get("rid")
            if rid is not None:
                replay = self._replay(str(rid))
                if replay is not None:
                    replay["id"] = request_id
                    if _tm.enabled():
                        _tm.incr("serve.rid_replays")
                    return replay, False
            name, op = lookup_op(msg)
            if op is None:
                raise ServiceError(
                    f"unknown op {name!r}; expected 'match', 'stream_open',"
                    f" 'update', 'rematch', 'stream_close', a 'shard_*'"
                    f" verb, 'health', or 'shutdown'"
                )
            if op.method is not None:
                with self._lock:
                    served = getattr(self.streams, op.method)(msg)
                response = {"ok": True, **served}
            elif name == "match":
                response = self._match(msg)
            elif name == "health":
                response = {"ok": True, **self.health()}
            else:  # shutdown
                return (
                    {"id": request_id, "ok": True, "status": "draining"},
                    True,
                )
        except (KeyboardInterrupt, SystemExit):
            raise
        except BaseException as exc:  # noqa: BLE001 - typed in response
            return _error_response(request_id, exc), False
        response["id"] = request_id
        if rid is not None and op.journaled and response.get("ok"):
            self._remember(str(rid), dict(response))
        return response, False


def _run_daemon(
    backend: Backend | str | None,
    serve: Callable[[Dispatcher], int],
    *,
    max_streams: int = 8,
    journal_dir: str | None = None,
    recover: bool = False,
    checkpoint_every: int = 64,
) -> int:
    """The one daemon set-up; runs the front *serve* and returns the exit code.

    :func:`~repro.serve.net.serve_listen` passes the socket front and
    :func:`_run_script` a scripted one; a poisoned journal overrides
    its exit code with :data:`JOURNAL_POISONED_EXIT`.  Resolves
    *backend* once for the server, the registry and every matcher it or
    recovery builds, and closes it after the server drains unless the
    caller passed an instance.  *journal_dir*, *recover* and
    *checkpoint_every* are the durability knobs of ``docs/serving.md``.
    """
    # A SIGKILLed predecessor never swept its shared-memory segments;
    # reclaim any whose creator is gone before spawning our own.
    from repro.parallel.shm import reclaim_stale_segments

    reclaim_stale_segments()
    shared = get_backend(backend)
    try:
        if recover:
            if journal_dir is None:
                raise ServiceError("--recover requires a journal directory")
            from repro.serve.recovery import recover_registry

            streams, _ = recover_registry(
                journal_dir,
                backend=shared,
                max_streams=max_streams,
                checkpoint_every=checkpoint_every,
            )
        else:
            journal = None
            if journal_dir is not None:
                from repro.serve.journal import DurableLog

                journal = DurableLog(
                    journal_dir, checkpoint_every=checkpoint_every
                )
            streams = _StreamRegistry(max_streams, shared, journal=journal)
        with MatchingServer(shared) as server:
            code = serve(Dispatcher(server, streams))
        if streams.journal is not None:
            streams.journal.close()
    finally:
        if shared is not backend:
            shared.close()
    return JOURNAL_POISONED_EXIT if streams.poisoned else code


def _run_script(
    requests: list[Any], backend: Backend | str | None = None, **kwargs: Any
) -> tuple[int, list[dict[str, Any]]]:
    """Run the daemon set-up over an in-process front fed *requests*.

    The front answers them in order and stops on ``shutdown`` or a
    poisoned journal, as the socket front does; each response passes
    through the wire codec.  *kwargs* go to :func:`_run_daemon`.
    Returns the exit code and the responses in order.
    """
    from repro.serve.net import decode_message, encode_message

    replies: list[dict[str, Any]] = []

    def front(dispatcher: Dispatcher) -> int:
        for request in requests:
            response, stop = dispatcher.handle(request)
            replies.append(decode_message(encode_message(response)))
            if stop or dispatcher.poisoned:
                break
        return 0

    return _run_daemon(backend, front, **kwargs), replies
