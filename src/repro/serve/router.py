"""Multi-daemon router: consistent hashing, supervision, failover.

:class:`Router` runs *N* socket daemons (``python -m repro serve
--listen``), each with its own write-ahead journal directory, and
fronts them behind one :meth:`Router.request` call:

* **Admission** — per-tenant in-flight quotas
  (:class:`~repro.serve.quota.TenantQuotas`) are enforced *before* the
  hash ring: a flooding tenant is shed with a typed
  :class:`~repro.errors.QuotaExceededError` without costing a network
  round-trip or displacing other tenants.
* **Routing** — each op's route comes from the daemon's op table
  (:data:`~repro.serve.daemon.OPS`).  Graph keys and stream sessions
  are placed on a consistent-hash ring (SHA-1, *vnodes* virtual nodes
  per daemon), so the same graph always lands on the same daemon — its
  graph cache stays hot — and adding a daemon moves only ``1/N`` of
  the key space.  The key is the daemon cache's own
  :func:`~repro.serve.daemon.graph_key`: a SHA-256 digest of an inline
  COO spec's arrays, canonical JSON for ``path`` and ``kind`` specs.
  The router validates an inline COO spec once and forwards the int64
  arrays behind its key, which the socket codec sends as raw bytes.
  Stream handles are namespaced ``"<node>:<handle>"`` on the way out
  and resolved back on the way in, pinning a session to the daemon
  holding its state.
* **Failover** — a health loop probes every daemon (hedged probes via
  :meth:`~repro.serve.net.ResilientClient.probe`); a dead or wedged
  daemon is ejected from the ring, SIGKILLed if still running, and
  respawned with ``--recover``: the replacement replays its journal,
  recertifies every session's §3.3 certificate bitwise
  (:func:`~repro.serve.recovery.recover_registry` refuses divergence),
  and only then re-admits.  A request that catches a daemon mid-death
  retries after the revival under the *same* idempotency id, so an
  acked mutation is never re-applied and an acked request is never
  lost — the zero-acked-loss contract the failover chaos row checks.
  The router is the one supervisor: nothing else respawns a daemon.

The router owns its daemons: :meth:`stop` shuts them down (journal
directories survive — they *are* the durable state).  Use as a context
manager.
"""

from __future__ import annotations

import bisect
import contextlib
import hashlib
import os
import subprocess
import sys
import threading
import time
from typing import Any

from repro import telemetry as _tm
from repro.errors import (
    PartitionedError,
    ServiceError,
    StreamError,
    TransportError,
)
from repro.serve.daemon import keyed_spec, lookup_op
from repro.serve.net import ResilientClient
from repro.serve.quota import TenantQuotas

__all__ = ["Router", "RouterNode"]


class RouterNode:
    """One supervised daemon: process, address, journal, health."""

    def __init__(
        self, index: int, address: str, journal_dir: str, client: ResilientClient
    ) -> None:
        self.index = index
        self.name = f"n{index}"
        self.address = address
        self.journal_dir = journal_dir
        self.client = client
        self.proc: subprocess.Popen[bytes] | None = None
        self.healthy = False
        self.restarts = 0
        self.lock = threading.RLock()

    @property
    def pid(self) -> int | None:
        return None if self.proc is None else self.proc.pid

    def alive(self) -> bool:
        return self.proc is not None and self.proc.poll() is None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "healthy" if self.healthy else "ejected"
        return f"RouterNode({self.name}, {self.address}, {state})"


def _ring_hash(key: str) -> int:
    return int.from_bytes(
        hashlib.sha1(key.encode("utf-8")).digest()[:8], "big"
    )


class Router:
    """Front *daemons* supervised socket daemons behind one request API.

    Parameters
    ----------
    daemons:
        Number of daemon processes to run.
    base_dir:
        Directory for sockets, journals (``<base>/j<i>``), and child
        logs.  Journals persist across router restarts — a restarted
        router recovers the daemons from them.
    backend:
        Backend spec forwarded to each daemon (``None`` = daemon
        default).
    quotas:
        Per-tenant admission quotas (default
        ``TenantQuotas(limit=8)``).
    vnodes:
        Virtual nodes per daemon on the hash ring.
    health_interval:
        Seconds between health sweeps (0 disables the background loop;
        failover then happens only on request failures).
    """

    def __init__(
        self,
        daemons: int,
        base_dir: str,
        *,
        backend: str | None = None,
        quotas: TenantQuotas | None = None,
        max_streams: int = 8,
        checkpoint_every: int = 64,
        vnodes: int = 32,
        health_interval: float = 0.5,
        request_retries: int = 5,
        spawn_timeout: float = 60.0,
        seed: int = 0,
    ) -> None:
        if daemons < 1:
            raise ServiceError(f"need at least 1 daemon, got {daemons}")
        if vnodes < 1:
            raise ServiceError(f"vnodes must be >= 1, got {vnodes}")
        self.base_dir = os.path.abspath(base_dir)
        self.backend = backend
        self.quotas = quotas if quotas is not None else TenantQuotas()
        self.max_streams = int(max_streams)
        self.checkpoint_every = int(checkpoint_every)
        self.health_interval = float(health_interval)
        self.spawn_timeout = float(spawn_timeout)
        self.seed = seed
        os.makedirs(self.base_dir, exist_ok=True)
        self.nodes: list[RouterNode] = []
        for i in range(int(daemons)):
            address = f"unix:{os.path.join(self.base_dir, f'n{i}.sock')}"
            journal_dir = os.path.join(self.base_dir, f"j{i}")
            os.makedirs(journal_dir, exist_ok=True)
            client = ResilientClient(
                address,
                retries=request_retries,
                seed=seed + i,
                client_id=f"rt{os.getpid()}-n{i}",
                # The router is exactly the chatty caller keep-alive is
                # for: shard rounds are hundreds of tiny requests per
                # node (probes still hedge over fresh dials).
                keepalive=True,
            )
            self.nodes.append(RouterNode(i, address, journal_dir, client))
        # The ring is fixed at construction: ejection is handled by
        # skipping unhealthy nodes at lookup time, so keys do not
        # migrate (and lose their session/cache affinity) during a
        # transient failure.
        ring: list[tuple[int, int]] = []
        for node in self.nodes:
            for v in range(vnodes):
                ring.append((_ring_hash(f"{node.name}#{v}"), node.index))
        ring.sort()
        self._ring = ring
        self._rid_seq = 0
        self._rid_lock = threading.Lock()
        self._stopping = threading.Event()
        self._health_thread: threading.Thread | None = None

    # -- lifecycle -----------------------------------------------------

    def _env(self) -> dict[str, str]:
        env = dict(os.environ)
        # Make sure children import the same repro tree as this process,
        # wherever the test runner found it.
        import repro

        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        parts = [src] + [
            p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p
        ]
        env["PYTHONPATH"] = os.pathsep.join(dict.fromkeys(parts))
        return env

    def _spawn(self, node: RouterNode, *, recover: bool) -> None:
        argv = [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--listen",
            node.address,
            "--journal",
            node.journal_dir,
            "--max-streams",
            str(self.max_streams),
            "--checkpoint-every",
            str(self.checkpoint_every),
        ]
        if self.backend:
            argv += ["--backend", self.backend]
        if recover:
            argv.append("--recover")
        log_path = os.path.join(self.base_dir, f"{node.name}.log")
        with open(log_path, "ab") as log:
            node.proc = subprocess.Popen(
                argv,
                stdin=subprocess.DEVNULL,
                stdout=log,
                stderr=log,
                env=self._env(),
            )

    def _await_healthy(self, node: RouterNode, timeout: float) -> None:
        budget = time.monotonic() + timeout
        last: BaseException | None = None
        while time.monotonic() < budget:
            if not node.alive():
                code = None if node.proc is None else node.proc.poll()
                raise ServiceError(
                    f"daemon {node.name} exited with code {code} before"
                    f" becoming healthy (log:"
                    f" {os.path.join(self.base_dir, node.name + '.log')})"
                )
            try:
                node.client.probe(deadline=2.0)
                return
            except (TransportError, PartitionedError) as exc:
                last = exc
                time.sleep(0.05)
        raise ServiceError(
            f"daemon {node.name} not healthy after {timeout}s: {last!r}"
        )

    def start(self) -> "Router":
        """Spawn every daemon and wait until all probe healthy."""
        for node in self.nodes:
            # A journal left by a previous run (or a previous life of
            # this router) holds acked state — recover it, do not
            # overwrite it.
            recover = bool(os.listdir(node.journal_dir))
            self._spawn(node, recover=recover)
        for node in self.nodes:
            self._await_healthy(node, self.spawn_timeout)
            node.healthy = True
        if self.health_interval > 0:
            self._health_thread = threading.Thread(
                target=self._health_loop, name="router-health", daemon=True
            )
            self._health_thread.start()
        return self

    def stop(self) -> None:
        """Shut every daemon down (journals survive)."""
        self._stopping.set()
        if self._health_thread is not None:
            self._health_thread.join(timeout=5.0)
            self._health_thread = None
        for node in self.nodes:
            with node.lock:
                if node.alive():
                    with contextlib.suppress(
                        TransportError, PartitionedError, ServiceError
                    ):
                        node.client.request({"op": "shutdown"}, check=False)
                    try:
                        node.proc.wait(timeout=5.0)
                    except subprocess.TimeoutExpired:
                        node.proc.kill()
                        node.proc.wait(timeout=5.0)
                node.healthy = False
                node.client.close()

    def __enter__(self) -> "Router":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    # -- supervision ---------------------------------------------------

    def _health_loop(self) -> None:
        while not self._stopping.wait(timeout=self.health_interval):
            for node in self.nodes:
                if self._stopping.is_set():
                    return
                try:
                    node.client.probe(deadline=2.0)
                    node.healthy = True
                except (TransportError, PartitionedError, ServiceError):
                    if self._stopping.is_set():
                        return
                    node.healthy = False
                    if _tm.enabled():
                        _tm.incr("serve.router.ejections")
                    with contextlib.suppress(ServiceError):
                        self.revive(node)

    def revive(self, node: RouterNode) -> None:
        """Respawn *node* through journal recovery and re-admit it.

        The replacement daemon replays its write-ahead journal and
        recertifies every recovered session before it starts serving
        (``--recover``); a daemon whose recovered state diverges from
        its acked responses refuses to start, and this method raises
        rather than re-admitting it.  Safe to call concurrently — the
        first caller does the work, later callers return once the node
        probes healthy again.
        """
        with node.lock:
            if node.alive():
                try:
                    node.client.probe(deadline=2.0)
                    node.healthy = True
                    return  # someone else already revived it
                except (TransportError, PartitionedError):
                    node.proc.kill()
            if node.proc is not None:
                with contextlib.suppress(subprocess.TimeoutExpired):
                    node.proc.wait(timeout=10.0)
            node.healthy = False
            # The kept connection (if any) points at the dead process.
            node.client.close()
            self._spawn(node, recover=True)
            self._await_healthy(node, self.spawn_timeout)
            node.healthy = True
            node.restarts += 1
            if _tm.enabled():
                _tm.incr("serve.router.revivals")

    # -- routing -------------------------------------------------------

    def _node_by_name(self, name: str) -> RouterNode:
        for node in self.nodes:
            if node.name == name:
                return node
        raise StreamError(
            f"stream handle names unknown daemon {name!r}; expected one"
            f" of {[n.name for n in self.nodes]}"
        )

    def _route(self, key: str) -> RouterNode:
        """The ring node owning *key*, skipping ejected daemons."""
        point = _ring_hash(key)
        start = bisect.bisect_right(self._ring, (point,))
        n = len(self._ring)
        fallback: RouterNode | None = None
        for step in range(n):
            node = self.nodes[self._ring[(start + step) % n][1]]
            if fallback is None:
                fallback = node
            if node.healthy:
                return node
        # Every daemon is ejected: pick the ring owner and let the
        # request path revive it — refusing outright would turn a
        # transient full outage into a permanent one.
        assert fallback is not None
        return fallback

    def _next_rid(self) -> str:
        with self._rid_lock:
            self._rid_seq += 1
            return f"rt{os.getpid()}:{self._rid_seq}"

    def _forward(
        self, node: RouterNode, msg: dict[str, Any], deadline: float | None
    ) -> dict[str, Any]:
        try:
            return node.client.request(msg, deadline=deadline, check=False)
        except (TransportError, PartitionedError):
            # The daemon died (or the wire did) with the request's fate
            # unknown.  Revive through recovery, then retry under the
            # SAME rid: if the mutation was applied-and-acked before
            # the crash, the journal replay rebuilt the rid cache and
            # the retry is answered without re-applying.
            node.healthy = False
            self.revive(node)
            return node.client.request(msg, deadline=deadline, check=False)

    def request(
        self,
        msg: dict[str, Any],
        *,
        tenant: str = "default",
        deadline: float | None = None,
        check: bool = True,
    ) -> dict[str, Any]:
        """Route one daemon-protocol request (see module docstring).

        Raises :class:`~repro.errors.QuotaExceededError` when *tenant*
        is at its in-flight cap.  With ``check=True`` an in-band
        ``"ok": false`` response raises its typed error.
        """
        from repro.serve.net import error_from_response

        msg = dict(msg)
        # An op the daemon does not know goes anywhere, for its typed
        # "unknown op" answer.
        _, op = lookup_op(msg)
        route = "any" if op is None else op.route
        self.quotas.acquire(tenant)
        try:
            msg.setdefault("rid", self._next_rid())
            msg.setdefault("id", msg["rid"])
            if route == "handle":
                name, sep, local = str(msg.get("handle", "")).partition(":")
                if not sep:
                    raise StreamError(
                        f"router stream handles look like 'n0:s1', got"
                        f" {msg.get('handle')!r}"
                    )
                node = self._node_by_name(name)
                msg["handle"] = local
            elif route in ("graph", "shard"):
                # The key's validated int64 arrays ride the wire as raw
                # bytes in place of the caller's lists (msg is a copy).
                key, msg["graph"] = keyed_spec(msg.get("graph"))
                if route == "shard":
                    # Same graph, different shard index → different ring
                    # key, so a K-shard plan spreads across daemons
                    # instead of stacking K sessions on the spec's
                    # cache-affinity node.
                    key = f"{key}#{msg.get('index')}"
                node = self._route(key)
            else:
                node = self._route(msg["rid"])
            response = self._forward(node, msg, deadline)
            if response.get("ok") and "handle" in response:
                response["handle"] = f"{node.name}:{response['handle']}"
            if check and not response.get("ok", False):
                raise error_from_response(response)
            return response
        finally:
            self.quotas.release(tenant)

    def health(self) -> dict[str, Any]:
        """Router-level health: per-node state plus quota accounting."""
        return {
            "nodes": [
                {
                    "name": node.name,
                    "address": node.address,
                    "healthy": node.healthy,
                    "alive": node.alive(),
                    "pid": node.pid,
                    "restarts": node.restarts,
                }
                for node in self.nodes
            ],
            "quotas": self.quotas.snapshot(),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        healthy = sum(node.healthy for node in self.nodes)
        return (
            f"Router({len(self.nodes)} daemons, {healthy} healthy,"
            f" base={self.base_dir!r})"
        )
