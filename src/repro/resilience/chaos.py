"""Chaos harness: the backend matrix under injected fault schedules.

Each cell of the matrix runs a real workload — Sinkhorn–Knopp scaling and
``OneSidedMatch`` — through a :class:`~repro.resilience.ResilientBackend`
while a :class:`~repro.resilience.FaultPlan` injects crashes, hangs,
stragglers, and corrupted payloads.  A cell passes when it either

* returns a **bitwise-correct** result (scaling vectors identical to the
  serial reference; matchings valid with quality above the Theorem 1
  floor), or
* raises a **typed** :class:`~repro.errors.BackendError` subclass,

and in both cases finishes inside its wall-clock budget
(``(deadline + max backoff) × attempts`` per call, plus slack) — never a
bare hang, ``EOFError``, or silent wrong answer.

Entry points: :func:`run_chaos` (used by the ``chaos``-marked tests),
``python -m repro chaos`` and ``make chaos`` (human-facing reports).

The matrix also carries a ``recovery`` row (backend ``journal``): a
durable stream session is crashed at exact write-ahead-journal record
boundaries — before the fsync, mid-record, after the last ack, mid
checkpoint rotation — then restarted through
:func:`~repro.serve.recover_registry`.  A cell passes when the recovered
state is bitwise-equal to everything the client was acknowledged, or the
restart refuses with a typed :class:`~repro.errors.RecoveryError`; a
lost acknowledged epoch fails the matrix.

Two network rows ride full sweeps as well:

* ``net`` (backend ``socket``): a stream session driven through a real
  :class:`~repro.serve.net.SocketServer` +
  :class:`~repro.serve.net.ResilientClient` pair while
  :func:`net_schedules` breaks the wire at the framing layer — drops,
  delays, partitions, truncated frames, garbled payloads.  Every
  request must end in a retry-success or a typed
  :class:`~repro.errors.TransportError` /
  :class:`~repro.errors.PartitionedError`, the acked epoch sequence
  must prove no mutation was ever applied twice (a retried request id
  is answered from the ack cache, not re-executed), and no silent
  corruption may pass the frame checksums.
* ``failover`` (backend ``router``): a 3-daemon
  :class:`~repro.serve.router.Router` soak whose session-owning daemon
  is SIGKILLed mid-sequence.  This row's contract is *stronger* than
  the usual "correct or typed": the router must revive the daemon
  through journal recovery (bitwise recertification included) and
  every scripted request must succeed, with the full acked transcript
  bitwise-equal to an uninterrupted in-process replica — a lost acked
  request or diverging acknowledgment fails the matrix.
* ``shard`` (backend ``router``): a daemon-tier sharded matching
  (:mod:`repro.shard.daemon_tier`) with one shard daemon SIGKILLed in
  the middle of the reconcile rounds.  The merged matching must be
  bitwise-equal to the uninterrupted sim-tier run, or the failure must
  be a typed error — never a silently sub-quality matching.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.constants import ONE_SIDED_GUARANTEE
from repro.errors import BackendError
from repro.resilience.faults import FaultPlan, FaultSpec, injected_faults
from repro.resilience.resilient import ResilientBackend

__all__ = [
    "ChaosOutcome",
    "ChaosReport",
    "net_schedules",
    "recovery_schedules",
    "run_chaos",
    "standard_schedules",
]


@dataclass(frozen=True)
class ChaosOutcome:
    """Result of one (workload, backend, schedule) cell.

    ``status`` is ``"ok"`` (correct result returned), ``"degraded:<E>"``
    (typed error ``E`` raised within budget), or ``"FAILED:<why>"`` (the
    resilience contract was violated).
    """

    workload: str
    backend: str
    schedule: str
    status: str
    elapsed: float
    budget: float
    detail: str = ""

    @property
    def passed(self) -> bool:
        """True iff the cell honoured the resilience contract."""
        return not self.status.startswith("FAILED")


@dataclass(frozen=True)
class ChaosReport:
    """All cell outcomes of one :func:`run_chaos` sweep."""

    outcomes: tuple[ChaosOutcome, ...]

    @property
    def passed(self) -> bool:
        """True iff every cell honoured the resilience contract."""
        return all(o.passed for o in self.outcomes)

    @property
    def failures(self) -> tuple[ChaosOutcome, ...]:
        """The contract-violating cells."""
        return tuple(o for o in self.outcomes if not o.passed)

    def render(self) -> str:
        """Fixed-width table of every cell."""
        header = (
            f"{'workload':<10} {'backend':<12} {'schedule':<10} "
            f"{'elapsed':>8} {'budget':>7}  status"
        )
        lines = [header, "-" * len(header)]
        for o in self.outcomes:
            status = o.status + (f"  [{o.detail}]" if o.detail else "")
            lines.append(
                f"{o.workload:<10} {o.backend:<12} {o.schedule:<10} "
                f"{o.elapsed:>7.2f}s {o.budget:>6.1f}s  {status}"
            )
        passed = sum(o.passed for o in self.outcomes)
        lines.append(
            f"{passed}/{len(self.outcomes)} cells honoured the contract"
        )
        return "\n".join(lines)


def standard_schedules(
    *,
    hang_seconds: float = 0.6,
    slow_seconds: float = 0.05,
    crash_hits: int = 2,
    seed: int = 0,
) -> dict[str, FaultPlan]:
    """The named fault schedules the chaos matrix runs under.

    ``none`` is the injection-free control; ``crash``/``hang``/``corrupt``
    exercise one recovery path each with a bounded hit budget (so retries
    eventually succeed); ``slow`` is pure straggling (no failure, results
    must still be bitwise-correct); ``storm`` mixes everything with an
    unbounded crash rule, so exhaustion — a typed error — is a legal
    outcome.
    """
    return {
        "none": FaultPlan([], seed=seed),
        "crash": FaultPlan(
            [FaultSpec("crash", probability=0.7, max_hits=crash_hits)],
            seed=seed,
        ),
        "hang": FaultPlan(
            [
                FaultSpec(
                    "hang", seconds=hang_seconds, probability=0.5,
                    max_hits=crash_hits,
                )
            ],
            seed=seed,
        ),
        "slow": FaultPlan(
            [FaultSpec("slow", seconds=slow_seconds, probability=0.8)],
            seed=seed,
        ),
        "corrupt": FaultPlan(
            [FaultSpec("corrupt", probability=0.7, max_hits=crash_hits)],
            seed=seed,
        ),
        "storm": FaultPlan(
            [
                FaultSpec("crash", probability=0.25),
                FaultSpec("hang", seconds=hang_seconds, probability=0.15),
                FaultSpec("slow", seconds=slow_seconds, probability=0.3),
                FaultSpec("corrupt", probability=0.2),
            ],
            seed=seed,
        ),
    }


def recovery_schedules(*, seed: int = 0) -> dict[str, FaultPlan]:
    """Fault schedules of the ``recovery`` row, one crash point each.

    The recovery workload makes six journaled stream mutations (journal
    append calls 0–5, with a checkpoint rotation along the way), so each
    schedule pins its fault to an exact record boundary:

    * ``pre_fsync`` — the bytes of append 4 are written but the process
      dies before the fsync (the record was never acknowledged);
    * ``mid_record`` — append 5 is torn partway through the frame;
    * ``post_ack`` — no injected fault: the daemon dies abruptly right
      after its last acknowledgment (EOF without a ``shutdown``);
    * ``mid_checkpoint`` — the first checkpoint rotation dies with a
      half-written snapshot temp file;
    * ``divergence`` — the journal is corrupted *in place* after the
      fact, which no crash of the append-fsync-ack discipline can
      produce; recovery must refuse with a typed error naming the
      offending byte offset instead of dropping acknowledged records.
    """
    return {
        "pre_fsync": FaultPlan(
            [FaultSpec("crash", backend="journal", call=4)], seed=seed
        ),
        "mid_record": FaultPlan(
            [FaultSpec("torn", backend="journal", call=5)], seed=seed
        ),
        "post_ack": FaultPlan([], seed=seed),
        "mid_checkpoint": FaultPlan(
            [FaultSpec("torn", backend="checkpoint", call=0)], seed=seed
        ),
        "divergence": FaultPlan([], seed=seed),
    }


def net_schedules(*, seed: int = 0) -> dict[str, FaultPlan]:
    """Fault schedules of the ``net`` row, one wire-failure mode each.

    All rules address the ``"net"`` backend label — the socket server
    consults the plan once per response it is about to send
    (:mod:`repro.serve.net`), so these break the wire at exact request
    boundaries.  Hit budgets and probabilities are chosen so a client
    with a normal retry budget eventually gets through: the row's
    contract is retry-success *or* typed error, and both outcomes must
    actually occur across the schedule set.
    """
    return {
        "none": FaultPlan([], seed=seed),
        "drop": FaultPlan(
            [FaultSpec("drop", backend="net", probability=0.4)], seed=seed
        ),
        "delay": FaultPlan(
            [
                FaultSpec(
                    "delay", backend="net", seconds=0.05, probability=0.6
                )
            ],
            seed=seed,
        ),
        "partition": FaultPlan(
            [
                FaultSpec(
                    "partition", backend="net", seconds=0.4, max_hits=1
                )
            ],
            seed=seed,
        ),
        "truncate": FaultPlan(
            [FaultSpec("truncate", backend="net", probability=0.4)],
            seed=seed,
        ),
        "garbage": FaultPlan(
            [FaultSpec("garbage", backend="net", probability=0.4)],
            seed=seed,
        ),
    }


def _net_cell(
    schedule: str,
    plan: FaultPlan,
    *,
    n: int,
    seed: int,
    budget: float,
) -> ChaosOutcome:
    """Run one ``net`` cell: a socket round-trip soak under wire faults.

    The duplicate-mutation audit rides the epoch sequence: every acked
    ``update`` must advance the epoch by exactly one step beyond the
    last ack (plus one per *ambiguous* failure in between — a request
    that exhausted retries may or may not have been applied).  A step
    larger than that window means a retry re-applied a mutation the
    server had already acked — the bug idempotent request ids exist to
    prevent.
    """
    import os
    import shutil
    import tempfile

    from repro.errors import PartitionedError, ReproError, TransportError
    from repro.resilience.backoff import BackoffPolicy
    from repro.serve.daemon import Dispatcher, GraphCache, _StreamRegistry
    from repro.serve.net import ResilientClient, SocketServer
    from repro.serve.server import MatchingServer

    graph_spec = {"kind": "union", "n": n, "k": 3, "seed": seed}
    tmpdir = tempfile.mkdtemp(prefix="repro-chaos-net-")
    t0 = time.perf_counter()
    detail = ""
    try:
        with MatchingServer("serial") as server:
            streams = _StreamRegistry(4, "serial")
            dispatcher = Dispatcher(server, GraphCache(8), streams)
            address = f"unix:{os.path.join(tmpdir, 'net.sock')}"
            with injected_faults(plan.reset()):
                with SocketServer(
                    dispatcher, address, deadline=10.0
                ) as front:
                    client = ResilientClient(
                        front.address,
                        retries=8,
                        seed=seed,
                        backoff=BackoffPolicy(
                            initial=0.02, maximum=0.3, jitter=0.5
                        ),
                        connect_timeout=0.5,
                        deadline=10.0,
                    )
                    opened = client.request(
                        {"op": "stream_open", "graph": graph_spec,
                         "seed": seed}
                    )
                    handle = opened["handle"]
                    acked = typed = ambiguous = 0
                    last_epoch = opened["epoch"]
                    for k in range(10):
                        try:
                            response = client.request(
                                {"op": "update", "handle": handle,
                                 "add": {"rows": [k % n],
                                         "cols": [(3 * k + 1) % n]}}
                            )
                        except (TransportError, PartitionedError):
                            typed += 1
                            ambiguous += 1
                            continue
                        step = response["epoch"] - last_epoch
                        if not 1 <= step <= 1 + ambiguous:
                            raise AssertionError(
                                f"epoch stepped {last_epoch} →"
                                f" {response['epoch']} with {ambiguous}"
                                f" ambiguous failures pending — a retry"
                                f" double-applied or an ack was lost"
                            )
                        last_epoch = response["epoch"]
                        ambiguous = 0
                        acked += 1
                    try:
                        rem = client.request(
                            {"op": "rematch", "handle": handle}
                        )
                        if not (
                            last_epoch
                            <= rem["epoch"]
                            <= last_epoch + ambiguous
                        ):
                            raise AssertionError(
                                f"rematch epoch {rem['epoch']} outside"
                                f" acked window [{last_epoch},"
                                f" {last_epoch + ambiguous}]"
                            )
                    except (TransportError, PartitionedError):
                        typed += 1
        status = "ok"
        detail = f"acked={acked} typed={typed}"
    except ReproError as exc:
        status = f"degraded:{type(exc).__name__}"
        detail = str(exc)[:60]
    except Exception as exc:  # noqa: BLE001 - untyped = contract violation
        status = f"FAILED:untyped:{type(exc).__name__}"
        detail = str(exc)[:60]
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    elapsed = time.perf_counter() - t0
    if elapsed > budget and not status.startswith("FAILED"):
        status = "FAILED:budget"
    return ChaosOutcome(
        workload="net",
        backend="socket",
        schedule=schedule,
        status=status,
        elapsed=elapsed,
        budget=budget,
        detail=detail,
    )


def _failover_cell(
    schedule: str,
    *,
    n: int,
    seed: int,
    budget: float,
) -> ChaosOutcome:
    """Run one ``failover`` cell: router soak vs an uninterrupted replica.

    A scripted update/rematch sequence runs through a 3-daemon
    :class:`~repro.serve.router.Router`; the ``sigkill`` schedule kills
    the session-owning daemon halfway.  Unlike the other rows, a typed
    error here is a *failure*: the zero-acked-loss contract says the
    router must carry every request through revival.  The transcript of
    acked payloads must be bitwise-equal to the same sequence applied
    to an in-process registry that never failed.
    """
    import shutil
    import tempfile

    from repro.errors import ReproError
    from repro.serve.daemon import GraphCache, _StreamRegistry
    from repro.serve.router import Router

    graph_spec = {"kind": "union", "n": n, "k": 3, "seed": seed}
    script: list[dict] = []
    for k in range(6):
        script.append(
            {"op": "update",
             "add": {"rows": [k % n, (k + 1) % n],
                     "cols": [(3 * k + 1) % n, (5 * k + 2) % n]}}
        )
        script.append({"op": "rematch"})
    strip = ("id", "rid", "ok", "handle")
    tmpdir = tempfile.mkdtemp(prefix="repro-chaos-failover-")
    t0 = time.perf_counter()
    detail = ""
    try:
        acked: list[dict] = []
        with Router(
            3, tmpdir, backend="serial", health_interval=0.0
        ) as router:
            opened = router.request(
                {"op": "stream_open", "graph": graph_spec,
                 "target_quality": 0.55, "seed": seed}
            )
            handle = opened["handle"]
            kill_at = len(script) // 2 if schedule == "sigkill" else -1
            for i, op in enumerate(script):
                if i == kill_at:
                    victim = router._node_by_name(handle.split(":", 1)[0])
                    victim.proc.kill()
                response = router.request({**op, "handle": handle})
                acked.append(
                    {k: v for k, v in response.items() if k not in strip}
                )
            restarts = sum(node.restarts for node in router.nodes)
        # The uninterrupted replica: same sequence, no network, no
        # failure.  Bitwise equality of the two transcripts is the
        # zero-acked-loss proof.
        registry = _StreamRegistry(4, "serial")
        cache = GraphCache(4)
        replica_open = registry.open(
            {"graph": graph_spec, "target_quality": 0.55, "seed": seed},
            cache,
        )
        replica: list[dict] = []
        for op in script:
            msg = {**op, "handle": replica_open["handle"]}
            if op["op"] == "update":
                replica.append(dict(registry.update(msg)))
            else:
                replica.append(dict(registry.rematch(msg)))
        if len(acked) != len(replica):
            raise AssertionError(
                f"router acked {len(acked)} of {len(replica)} requests"
            )
        for i, (got, want) in enumerate(zip(acked, replica)):
            if got != want:
                raise AssertionError(
                    f"acked transcript diverges from uninterrupted"
                    f" replica at step {i}: {got} != {want}"
                )
        if schedule == "sigkill" and restarts < 1:
            raise AssertionError(
                "SIGKILL did not trigger a journal-recovery revival"
            )
        status = "ok"
        detail = f"acks={len(acked)} restarts={restarts}"
    except ReproError as exc:
        # Zero-acked-loss is this row's contract: typed shedding is NOT
        # a legal outcome here.
        status = f"FAILED:lost:{type(exc).__name__}"
        detail = str(exc)[:60]
    except Exception as exc:  # noqa: BLE001 - untyped = contract violation
        status = f"FAILED:untyped:{type(exc).__name__}"
        detail = str(exc)[:60]
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    elapsed = time.perf_counter() - t0
    if elapsed > budget and not status.startswith("FAILED"):
        status = "FAILED:budget"
    return ChaosOutcome(
        workload="failover",
        backend="router",
        schedule=schedule,
        status=status,
        elapsed=elapsed,
        budget=budget,
        detail=detail,
    )


def _shard_cell(
    schedule: str,
    *,
    n: int,
    seed: int,
    budget: float,
) -> ChaosOutcome:
    """Run one ``shard`` cell: daemon-tier sharded matching under SIGKILL.

    A 3-shard matching runs over a 2-daemon router; the ``sigkill``
    schedule SIGKILLs the daemon owning a shard handle in the middle of
    the reconcile rounds.  The contract: the merged matching must be
    **bitwise-equal** to the uninterrupted in-process (sim-tier) run —
    the revived daemon replays its write-ahead journal back to the exact
    replicated state — or the failure must surface as a typed
    :class:`~repro.errors.ReproError`.  A silently different (and
    therefore possibly sub-quality) matching fails the matrix.
    """
    import shutil
    import tempfile

    from repro.errors import ReproError
    from repro.serve.daemon import build_graph
    from repro.serve.router import Router
    from repro.shard import shard_match
    from repro.shard.daemon_tier import shard_match_daemons

    graph_spec = {"kind": "sprand", "n": n, "degree": 4.0, "seed": seed}
    graph = build_graph(graph_spec, None)
    reference = shard_match(graph, 3, iterations=3, seed=seed)
    tmpdir = tempfile.mkdtemp(prefix="repro-chaos-shard-")
    t0 = time.perf_counter()
    detail = ""
    try:
        with Router(
            2, tmpdir, backend="serial", health_interval=0.0
        ) as router:
            if schedule == "sigkill":
                original = router.request
                state = {"commits": 0, "killed": False}

                def chaotic(msg: Mapping, **kw) -> dict:
                    if msg.get("op") == "shard_commit":
                        state["commits"] += 1
                        if state["commits"] == 2 and not state["killed"]:
                            name = str(msg.get("handle", "")).partition(
                                ":"
                            )[0]
                            victim = router._node_by_name(name)
                            victim.proc.kill()
                            victim.proc.wait()
                            state["killed"] = True
                    return original(msg, **kw)

                router.request = chaotic
            result = shard_match_daemons(
                graph_spec, 3, iterations=3,
                router=router, seed=seed, graph=graph,
            )
            restarts = sum(node.restarts for node in router.nodes)
        if not np.array_equal(
            result.matching.row_match, reference.matching.row_match
        ):
            raise AssertionError(
                "recovered merged matching diverges bitwise from the"
                " uninterrupted sim-tier run"
            )
        if result.guarantee != reference.guarantee:
            raise AssertionError(
                f"guarantee drifted across recovery:"
                f" {result.guarantee} != {reference.guarantee}"
            )
        if schedule == "sigkill" and restarts < 1:
            raise AssertionError(
                "SIGKILL did not trigger a journal-recovery revival"
            )
        status = "ok"
        detail = (
            f"cardinality={result.cardinality} restarts={restarts}"
        )
    except ReproError as exc:
        # Typed surfacing is legal; a silent wrong matching is not.
        status = f"degraded:{type(exc).__name__}"
        detail = str(exc)[:60]
    except Exception as exc:  # noqa: BLE001 - untyped = contract violation
        status = f"FAILED:untyped:{type(exc).__name__}"
        detail = str(exc)[:60]
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    elapsed = time.perf_counter() - t0
    if elapsed > budget and not status.startswith("FAILED"):
        status = "FAILED:budget"
    return ChaosOutcome(
        workload="shard",
        backend="router",
        schedule=schedule,
        status=status,
        elapsed=elapsed,
        budget=budget,
        detail=detail,
    )


def _recovery_cell(
    schedule: str,
    plan: FaultPlan,
    *,
    n: int,
    seed: int,
    budget: float,
) -> ChaosOutcome:
    """Run one ``recovery`` cell: crash a journaled daemon, restart, audit.

    The audit is against what the *client* saw: every response the
    daemon acknowledged before dying must be present, bitwise, in the
    recovered registry (replay itself re-verifies each record's stored
    acknowledgment, and recertification re-proves each session's §3.3
    certificate — this cell additionally checks the client's view).
    """
    import io
    import json
    import shutil
    import tempfile

    from repro.errors import RecoveryError, ReproError
    from repro.serve.daemon import JOURNAL_POISONED_EXIT, serve_forever
    from repro.serve.recovery import recover_registry

    graph_spec = {"kind": "union", "n": n, "k": 3, "seed": seed}
    requests = [
        {"id": 1, "op": "stream_open", "graph": graph_spec,
         "target_quality": 0.55, "seed": seed},
        {"id": 2, "op": "rematch", "handle": "s1"},
        {"id": 3, "op": "update", "handle": "s1",
         "add": {"rows": [0, 1], "cols": [1, 0]}},
        {"id": 4, "op": "rematch", "handle": "s1"},
        {"id": 5, "op": "update", "handle": "s1",
         "remove": {"rows": [0], "cols": [1]}, "strict": False},
        {"id": 6, "op": "rematch", "handle": "s1"},
    ]
    # Small enough that the final journal still holds several records
    # (so mid-file corruption in ``divergence`` is unambiguous), large
    # enough that every other schedule crosses a rotation.
    checkpoint_every = 100 if schedule == "divergence" else 3
    tmpdir = tempfile.mkdtemp(prefix="repro-chaos-recovery-")
    t0 = time.perf_counter()
    detail = ""
    try:
        out = io.StringIO()
        source = io.StringIO(
            "".join(json.dumps(r) + "\n" for r in requests)
        )
        with injected_faults(plan.reset()):
            code = serve_forever(
                stdin=source,
                stdout=out,
                journal_dir=tmpdir,
                checkpoint_every=checkpoint_every,
            )
        acked = [
            msg
            for msg in map(json.loads, out.getvalue().splitlines())
            if msg.get("ok")
        ]
        faulted = any(spec.hits for spec in plan.specs)
        if faulted and code != JOURNAL_POISONED_EXIT:
            raise AssertionError(
                f"faulted daemon exited {code}, expected poisoned exit"
                f" {JOURNAL_POISONED_EXIT}"
            )
        if not faulted and code != 0:
            raise AssertionError(f"fault-free daemon exited {code}")
        if schedule == "divergence":
            from repro.serve.journal import latest_generation

            _, _, wal = latest_generation(tmpdir)
            with open(wal, "r+b") as fh:
                buf = bytearray(fh.read())
                buf[25] ^= 0x01  # inside the first record's payload
                fh.seek(0)
                fh.write(buf)
            try:
                recover_registry(tmpdir, attach_journal=False)
            except RecoveryError as exc:
                if exc.offset is None:
                    raise AssertionError(
                        "RecoveryError did not name a byte offset"
                    ) from exc
                status = f"degraded:{type(exc).__name__}"
                detail = f"offset={exc.offset}"
            else:
                raise AssertionError(
                    "in-place corruption recovered silently — acknowledged"
                    " records were dropped"
                )
        else:
            registry, report = recover_registry(
                tmpdir, attach_journal=False
            )
            if "s1" not in registry._sessions:
                raise AssertionError("recovered registry lost session 's1'")
            graph, _matcher = registry._sessions["s1"]
            epochs = [a["epoch"] for a in acked if "epoch" in a]
            if epochs and graph.epoch < max(epochs):
                raise AssertionError(
                    f"recovered epoch {graph.epoch} behind acknowledged"
                    f" epoch {max(epochs)}"
                )
            rematches = [a for a in acked if "mode" in a]
            if rematches:
                last = {
                    key: value
                    for key, value in rematches[-1].items()
                    if key not in ("id", "ok")
                }
                recovered = registry._last_ack.get("s1")
                if recovered is None or recovered["epoch"] < last["epoch"]:
                    raise AssertionError(
                        "recovered state lost the last acknowledged rematch"
                    )
                # Recovery may legally be *ahead* of the client (a record
                # durable but never acknowledged); at the same epoch the
                # acknowledgment must match bitwise.
                if recovered["epoch"] == last["epoch"] and dict(
                    recovered
                ) != last:
                    raise AssertionError(
                        f"recovered acknowledgment diverges from the one"
                        f" the client saw: {recovered} != {last}"
                    )
            status = "ok"
            detail = (
                f"replayed={report.replayed_records}"
                f" truncated={report.truncated_bytes}B"
            )
    except ReproError as exc:
        status = f"degraded:{type(exc).__name__}"
        detail = str(exc)[:60]
    except Exception as exc:  # noqa: BLE001 - untyped = contract violation
        status = f"FAILED:untyped:{type(exc).__name__}"
        detail = str(exc)[:60]
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    elapsed = time.perf_counter() - t0
    if elapsed > budget and not status.startswith("FAILED"):
        status = "FAILED:budget"
    return ChaosOutcome(
        workload="recovery",
        backend="journal",
        schedule=schedule,
        status=status,
        elapsed=elapsed,
        budget=budget,
        detail=detail,
    )


def _run_cell(
    workload: str,
    backend_spec: str,
    schedule: str,
    plan: FaultPlan,
    fn: Callable[[ResilientBackend], str],
    make_backend: Callable[[], ResilientBackend],
    budget: float,
) -> ChaosOutcome:
    """Execute one cell and classify its outcome."""
    backend = make_backend()
    t0 = time.perf_counter()
    try:
        with injected_faults(plan.reset()):
            detail = fn(backend)
        status = "ok"
    except BackendError as exc:
        status = f"degraded:{type(exc).__name__}"
        detail = str(exc)[:60]
    except Exception as exc:  # noqa: BLE001 - untyped = contract violation
        status = f"FAILED:untyped:{type(exc).__name__}"
        detail = str(exc)[:60]
    finally:
        backend.close()
    elapsed = time.perf_counter() - t0
    if elapsed > budget and not status.startswith("FAILED"):
        status = "FAILED:budget"
    return ChaosOutcome(
        workload=workload,
        backend=backend_spec,
        schedule=schedule,
        status=status,
        elapsed=elapsed,
        budget=budget,
        detail=detail if status != "ok" else "",
    )


def run_chaos(
    n: int = 600,
    *,
    backends: Sequence[str] = ("serial", "threads:2", "shm:2"),
    schedules: Mapping[str, FaultPlan] | None = None,
    deadline: float = 0.3,
    max_retries: int = 3,
    sk_iterations: int = 2,
    quality_eps: float = 0.02,
    seed: int = 0,
) -> ChaosReport:
    """Run the full chaos matrix and return a :class:`ChaosReport`.

    Two workloads per (backend, schedule) pair:

    * ``scale``: Sinkhorn–Knopp on a random sparse square; on success the
      scaling vectors must be bitwise-equal to the serial no-fault
      reference.
    * ``match`` (``storm`` schedule only — the most hostile): a full
      ``OneSidedMatch``; a returned matching must validate against the
      graph and, on the total-support instance used, reach the Theorem 1
      floor minus *quality_eps*.
    * ``exact`` (``storm`` only): the ε-scaling auction over the cell's
      resilient backend; a returned matching must validate and hit the
      no-fault maximum cardinality exactly — under faults the exact tier
      may fail typed, but it may never return a sub-maximum matching.

    With the ``storm`` schedule a further workload runs per backend:

    * ``serve``: a short soak through a live
      :class:`~repro.serve.MatchingServer` over the cell's resilient
      backend — concurrent clients, every request must end in a matching
      that validates and states a guarantee no higher than its rung's
      floor, **or** a typed ``ReproError`` (shedding and breaker
      rejections included); a lost request or untyped failure violates
      the contract.

    And once per sweep (not per backend) the durability and network
    rows run:

    * ``recovery`` (backend ``journal``): a journaled stream daemon is
      crashed at each :func:`recovery_schedules` record boundary and
      restarted through :func:`~repro.serve.recover_registry`; the
      recovered state must contain every acknowledged mutation bitwise,
      or recovery must refuse with a typed
      :class:`~repro.errors.RecoveryError` — never a lost acknowledged
      epoch.
    * ``net`` (backend ``socket``): a socket round-trip soak under each
      :func:`net_schedules` wire fault; every request ends in
      retry-success or a typed transport error, and the acked epoch
      sequence proves no mutation was applied twice.
    * ``failover`` (backend ``router``): a 3-daemon router soak with a
      mid-sequence SIGKILL; every request must succeed across the
      journal-recovery revival and the acked transcript must be
      bitwise-equal to an uninterrupted replica — typed shedding is a
      *failure* for this row.
    """
    from repro.core.onesided import one_sided_match
    from repro.graph.generators import sprand, union_of_permutations
    from repro.scaling.sinkhorn_knopp import scale_sinkhorn_knopp

    if schedules is None:
        schedules = standard_schedules(
            hang_seconds=2.0 * deadline, seed=seed
        )
    graph = sprand(n, 4.0, seed=seed)
    support_graph = union_of_permutations(n, 4, seed=seed)
    reference = scale_sinkhorn_knopp(graph, sk_iterations)
    from repro.matching.exact.hopcroft_karp import hopcroft_karp

    exact_reference = hopcroft_karp(support_graph).cardinality

    # A call's worst legal wall time: every attempt burns the deadline
    # plus the capped backoff; SK makes ~2 map calls per sweep plus the
    # error reductions, and chunk supervisors run concurrently.
    per_call = (deadline + 2.0) * (max_retries + 1)
    sk_calls = 2 * sk_iterations + sk_iterations + 2
    budget = per_call * sk_calls + 5.0

    def scale_cell(backend: ResilientBackend) -> str:
        result = scale_sinkhorn_knopp(
            graph, sk_iterations, backend=backend
        )
        if not (
            np.array_equal(result.dr, reference.dr)
            and np.array_equal(result.dc, reference.dc)
        ):
            raise AssertionError("scaling diverged from serial reference")
        return ""

    def match_cell(backend: ResilientBackend) -> str:
        result = one_sided_match(
            support_graph, sk_iterations, seed=seed, backend=backend
        )
        result.matching.validate(support_graph)
        quality = result.cardinality / n
        floor = ONE_SIDED_GUARANTEE - quality_eps
        if quality < floor:
            raise AssertionError(
                f"quality {quality:.4f} below floor {floor:.4f}"
            )
        return f"quality={quality:.4f}"

    def exact_cell(backend: ResilientBackend) -> str:
        from repro.matching.exact.auction import auction_match

        result = auction_match(
            support_graph, backend=backend, sampling="never"
        )
        result.matching.validate(support_graph)
        if result.cardinality != exact_reference:
            raise AssertionError(
                f"exact cardinality {result.cardinality} != no-fault "
                f"maximum {exact_reference}"
            )
        return f"cardinality={result.cardinality}"

    def serve_cell(backend: ResilientBackend) -> str:
        from repro.errors import ReproError
        from repro.serve import (
            RUNG_GUARANTEES,
            MatchingServer,
            MatchRequest,
            ServerConfig,
        )

        n_requests, n_clients = 16, 4
        config = ServerConfig(
            max_queue=8,
            n_workers=2,
            default_deadline=budget / 2,
            breaker_threshold=3,
            breaker_cooldown=0.1,
        )
        counts = {"ok": 0, "typed": 0}
        problems: list[str] = []
        next_slot = iter(range(n_requests))
        lock = threading.Lock()
        server = MatchingServer(backend, config=config)

        def client() -> None:
            while True:
                with lock:
                    slot = next(next_slot, None)
                if slot is None:
                    return
                request = MatchRequest(
                    support_graph, sk_iterations, seed=seed + slot
                )
                try:
                    response = server.submit(request, timeout=budget)
                except ReproError:
                    with lock:
                        counts["typed"] += 1
                    continue
                except BaseException as exc:  # noqa: BLE001 - audited
                    with lock:
                        problems.append(
                            f"untyped {type(exc).__name__}: {exc}"
                        )
                    continue
                try:
                    response.matching.validate(support_graph)
                    if (
                        response.guarantee
                        > RUNG_GUARANTEES[response.rung] + 1e-9
                    ):
                        raise AssertionError(
                            f"guarantee {response.guarantee:.3f} above "
                            f"rung {response.rung!r} floor"
                        )
                except Exception as exc:  # noqa: BLE001 - audited
                    with lock:
                        problems.append(str(exc))
                    continue
                with lock:
                    counts["ok"] += 1

        try:
            threads = [
                threading.Thread(target=client) for _ in range(n_clients)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            server.drain(timeout=budget)
        total = counts["ok"] + counts["typed"] + len(problems)
        if problems:
            raise AssertionError("; ".join(problems[:3]))
        if total != n_requests:
            raise AssertionError(
                f"lost requests: {n_requests} submitted, {total} outcomes"
            )
        return f"ok={counts['ok']} typed={counts['typed']}"

    outcomes: list[ChaosOutcome] = []
    for backend_spec in backends:
        def make_backend(spec: str = backend_spec) -> ResilientBackend:
            return ResilientBackend(
                spec, deadline=deadline, max_retries=max_retries,
                backoff=0.01, max_backoff=0.1, seed=seed,
            )

        for schedule, plan in schedules.items():
            outcomes.append(
                _run_cell(
                    "scale", backend_spec, schedule, plan,
                    scale_cell, make_backend, budget,
                )
            )
        if "storm" in schedules:
            outcomes.append(
                _run_cell(
                    "match", backend_spec, "storm", schedules["storm"],
                    match_cell, make_backend, budget * 2,
                )
            )
            outcomes.append(
                _run_cell(
                    "exact", backend_spec, "storm", schedules["storm"],
                    exact_cell, make_backend, budget * 2,
                )
            )
            outcomes.append(
                _run_cell(
                    "serve", backend_spec, "storm", schedules["storm"],
                    serve_cell, make_backend, budget * 3,
                )
            )
    if "storm" in schedules:
        recovery_n = min(n, 150)
        for schedule, plan in recovery_schedules(seed=seed).items():
            outcomes.append(
                _recovery_cell(
                    schedule, plan,
                    n=recovery_n, seed=seed, budget=budget * 2,
                )
            )
        # Network rows: socket transport under wire faults, and the
        # multi-daemon failover soak (subprocess daemons — budgeted
        # generously; the cell's own assertions are wall-clock-free).
        net_n = min(n, 150)
        for schedule, plan in net_schedules(seed=seed).items():
            outcomes.append(
                _net_cell(
                    schedule, plan, n=net_n, seed=seed, budget=budget * 2
                )
            )
        for schedule in ("none", "sigkill"):
            outcomes.append(
                _failover_cell(
                    schedule,
                    n=min(n, 120),
                    seed=seed,
                    budget=max(budget * 2, 120.0),
                )
            )
        # Shard row: the daemon-tier sharded matching, uninterrupted and
        # with a shard daemon SIGKILLed mid-reconcile; the recovered
        # merged matching must be bitwise the sim-tier result or fail
        # typed — never silently sub-quality.
        for schedule in ("none", "sigkill"):
            outcomes.append(
                _shard_cell(
                    schedule,
                    n=min(n, 120),
                    seed=seed,
                    budget=max(budget * 2, 120.0),
                )
            )
    report = ChaosReport(outcomes=tuple(outcomes))
    return report
