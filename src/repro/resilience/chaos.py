"""Chaos harness: the library's contracts checked under injected faults.

The matrix is one table of rows, built by :func:`run_chaos`.  A row is a
workload on a backend label, run once per named fault schedule inside a
wall-clock budget.  Its body does the work, installs the schedule's
:class:`~repro.resilience.FaultPlan` where the faults belong, checks the
row's oracle and returns a detail string.  One cell runner classifies
every cell the same way:

* ``ok`` — the body returned (its oracle held);
* ``degraded:<E>`` — the body raised the row's typed error class ``E``;
* ``FAILED:<why>`` — the contract broke: ``untyped:<E>`` for any other
  exception (a failed oracle included), ``lost:<E>`` for a typed error
  on a row that allows none, ``budget`` for a cell that otherwise passed
  but overran its budget (``(deadline + max backoff) × attempts`` per
  call, plus slack) — never a bare hang or a silent wrong answer.

The rows, in table order.  The four *backend rows* run once per backend
spec through a :class:`~repro.resilience.ResilientBackend`, degrade only
with a :class:`~repro.errors.BackendError`, and report ``faults=<n>``,
the plan's total hits, in every detail:

``scale`` (every schedule)
    Sinkhorn–Knopp; the scaling vectors equal the serial no-fault run
    bitwise.
``match`` (``storm``)
    ``OneSidedMatch`` on a total-support instance; the matching
    validates and reaches Theorem 1's ``1 − 1/e`` floor minus
    *quality_eps*.
``exact`` (``storm``)
    The auction, on kernel rounds only (``gs_tail=0``), so every round
    reaches the backend; the matching validates and has the no-fault
    maximum cardinality — the exact tier may fail typed, never return
    less.
``serve`` (``storm``)
    :func:`~repro.serve.run_soak` of a live
    :class:`~repro.serve.MatchingServer` on the cell's backend: 16
    requests from 4 clients, each ending in a matching valid for its
    rung with a guarantee no higher than the rung's floor, or a typed
    ``ReproError``; none lost.

``ResilientBackend`` draws faults by (inner label, chunk, attempt), so a
one-chunk workload draws the same numbers on every call and a schedule
can miss a backend row entirely; ``faults=0`` shows such an inert cell
(``docs/resilience.md`` lists them).

The remaining rows run once per sweep when the schedules include
``storm``, and degrade with any :class:`~repro.errors.ReproError`:

``recovery`` (backend ``journal``, :func:`recovery_schedules`)
    A write-ahead-journaled stream daemon dies at one record boundary
    and restarts through :func:`~repro.serve.recover_registry`.  The
    recovered state holds every acknowledged mutation bitwise, or
    recovery refuses with a :class:`~repro.errors.RecoveryError` naming
    the byte offset.
``net`` (backend ``socket``, :func:`net_schedules`)
    A stream session through a real
    :class:`~repro.serve.net.SocketServer` and
    :class:`~repro.serve.net.ResilientClient` while the wire drops,
    delays, partitions, truncates or garbles frames.  Every request ends
    in retry-success or a typed transport error, and the acked epochs
    prove no retry applied a mutation twice.
``failover`` (backend ``router``, ``none`` / ``sigkill``)
    A 3-daemon :class:`~repro.serve.router.Router` runs a stream script;
    ``sigkill`` kills the session's daemon halfway.  Every request must
    succeed across the journal-recovery revival, and the acked
    transcript must equal an uninterrupted in-process replica's bitwise.
    Zero acked loss is this row's contract, so a typed error is
    ``FAILED:lost:``.
``shard`` (backend ``router``, ``none`` / ``sigkill``)
    Sharded matching over shard daemons (:mod:`repro.shard.daemon_tier`)
    with a shard daemon SIGKILLed mid-reconcile.  The merged matching
    equals the in-process run bitwise, or the failure is typed — never a
    silently different matching.

Entry points: :func:`run_chaos` (used by the ``chaos``-marked tests),
``python -m repro chaos`` and ``make chaos`` (human-facing reports).
"""

from __future__ import annotations

import itertools
import os
import tempfile
import time
from dataclasses import dataclass
from functools import partial
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.constants import ONE_SIDED_GUARANTEE
from repro.errors import (
    BackendError,
    RecoveryError,
    ReproError,
    TransportError,
)
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


@dataclass(frozen=True)
class _Row:
    """One table entry: a workload on a backend label under schedules."""

    workload: str
    backend: str
    schedules: Mapping[str, FaultPlan]
    budget: float
    #: The error class that counts as ``degraded:``; with ``None`` a
    #: typed error is ``FAILED:lost:``.
    degraded: type[ReproError] | None
    #: ``body(schedule, plan)`` → the detail string of a passing cell.
    body: Callable[[str, FaultPlan], str]
    #: Prefix the detail with the plan's total hits (the backend rows).
    faults: bool = False


def _cell(row: _Row, schedule: str, plan: FaultPlan) -> ChaosOutcome:
    """Run *row*'s body under *schedule* and classify the outcome."""
    plan.reset()
    t0 = time.perf_counter()
    try:
        status, detail = "ok", row.body(schedule, plan)
    except Exception as exc:  # noqa: BLE001 - every exception is classified
        name = type(exc).__name__
        if row.degraded is not None and isinstance(exc, row.degraded):
            status = f"degraded:{name}"
        elif row.degraded is None and isinstance(exc, ReproError):
            status = f"FAILED:lost:{name}"
        else:
            status = f"FAILED:untyped:{name}"
        detail = str(exc)[:60]
    elapsed = time.perf_counter() - t0
    if elapsed > row.budget and not status.startswith("FAILED"):
        status = "FAILED:budget"
    if row.faults:
        hits = sum(spec.hits for spec in plan.specs)
        detail = f"faults={hits}" + (f" {detail}" if detail else "")
    return ChaosOutcome(
        row.workload, row.backend, schedule, status, elapsed, row.budget,
        detail,
    )


def _recovery(schedule: str, plan: FaultPlan, *, n: int, seed: int) -> str:
    """``recovery`` body: crash a journaled daemon, recover, audit.

    The audit is against what the *client* saw; replay itself re-checks
    each record's stored acknowledgment, and recertification re-proves
    each session's §3.3 certificate.
    """
    from repro.serve.daemon import JOURNAL_POISONED_EXIT, _run_script
    from repro.serve.journal import latest_generation
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
    with tempfile.TemporaryDirectory(
        prefix="repro-chaos-recovery-", ignore_cleanup_errors=True
    ) as tmpdir:
        with injected_faults(plan):
            code, replies = _run_script(
                requests,
                journal_dir=tmpdir,
                # Small enough that the final journal still holds several
                # records (so mid-file corruption in ``divergence`` is
                # unambiguous), large enough that every other schedule
                # crosses a rotation.
                checkpoint_every=100 if schedule == "divergence" else 3,
            )
        expected = (
            JOURNAL_POISONED_EXIT if any(s.hits for s in plan.specs) else 0
        )
        if code != expected:
            raise AssertionError(f"daemon exited {code}, expected {expected}")
        if schedule == "divergence":
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
                raise RecoveryError(
                    f"offset={exc.offset}", offset=exc.offset
                ) from exc
            raise AssertionError(
                "in-place corruption recovered silently — acknowledged"
                " records were dropped"
            )
        registry, report = recover_registry(tmpdir, attach_journal=False)
    acked = [msg for msg in replies if msg.get("ok")]
    if "s1" not in registry._sessions:
        raise AssertionError("recovered registry lost session 's1'")
    graph, _ = registry._sessions["s1"]
    epochs = [a["epoch"] for a in acked if "epoch" in a]
    if epochs and graph.epoch < max(epochs):
        raise AssertionError(
            f"recovered epoch {graph.epoch} behind acknowledged epoch"
            f" {max(epochs)}"
        )
    rematches = [a for a in acked if "mode" in a]
    if rematches:
        last = {
            k: v for k, v in rematches[-1].items() if k not in ("id", "ok")
        }
        recovered = registry._last_ack.get("s1")
        if recovered is None or recovered["epoch"] < last["epoch"]:
            raise AssertionError(
                "recovered state lost the last acknowledged rematch"
            )
        # Recovery may legally be *ahead* of the client (a record durable
        # but never acknowledged); at the same epoch the acknowledgment
        # must match bitwise.
        if recovered["epoch"] == last["epoch"] and dict(recovered) != last:
            raise AssertionError(
                f"recovered acknowledgment diverges from the one the client"
                f" saw: {recovered} != {last}"
            )
    return (
        f"replayed={report.replayed_records}"
        f" truncated={report.truncated_bytes}B"
    )


def _net(schedule: str, plan: FaultPlan, *, n: int, seed: int) -> str:
    """``net`` body: a socket round-trip soak under wire faults.

    Every acked ``update`` must advance the epoch by one step plus at
    most one per *ambiguous* failure since the last ack (a request that
    exhausted its retries may or may not have been applied).  A larger
    step means a retry re-applied an acked mutation — what idempotent
    request ids exist to prevent.
    """
    from repro.resilience.backoff import BackoffPolicy
    from repro.serve.daemon import Dispatcher, _StreamRegistry
    from repro.serve.net import ResilientClient, SocketServer
    from repro.serve.server import MatchingServer

    acked = typed = ambiguous = 0
    with tempfile.TemporaryDirectory(
        prefix="repro-chaos-net-", ignore_cleanup_errors=True
    ) as tmpdir, MatchingServer("serial") as server:
        dispatcher = Dispatcher(server, _StreamRegistry(4, "serial"))
        address = f"unix:{os.path.join(tmpdir, 'net.sock')}"
        with injected_faults(plan), SocketServer(
            dispatcher, address, deadline=10.0
        ) as front:
            client = ResilientClient(
                front.address,
                retries=8,
                seed=seed,
                backoff=BackoffPolicy(initial=0.02, maximum=0.3, jitter=0.5),
                connect_timeout=0.5,
                deadline=10.0,
            )
            opened = client.request(
                {"op": "stream_open", "seed": seed,
                 "graph": {"kind": "union", "n": n, "k": 3, "seed": seed}}
            )
            handle, last_epoch = opened["handle"], opened["epoch"]
            for k in range(10):
                try:
                    response = client.request(
                        {"op": "update", "handle": handle,
                         "add": {"rows": [k % n], "cols": [(3 * k + 1) % n]}}
                    )
                except TransportError:  # PartitionedError included
                    typed += 1
                    ambiguous += 1
                    continue
                if not 1 <= response["epoch"] - last_epoch <= 1 + ambiguous:
                    raise AssertionError(
                        f"epoch stepped {last_epoch} → {response['epoch']}"
                        f" with {ambiguous} ambiguous failures pending"
                    )
                last_epoch, ambiguous = response["epoch"], 0
                acked += 1
            try:
                rematch = client.request({"op": "rematch", "handle": handle})
            except TransportError:
                typed += 1
            else:
                window = (last_epoch, last_epoch + ambiguous)
                if not window[0] <= rematch["epoch"] <= window[1]:
                    raise AssertionError(
                        f"rematch epoch {rematch['epoch']} outside acked"
                        f" window {list(window)}"
                    )
    return f"acked={acked} typed={typed}"


def _failover(schedule: str, plan: FaultPlan, *, n: int, seed: int) -> str:
    """``failover`` body: a router soak against an uninterrupted replica."""
    from repro.serve.daemon import _StreamRegistry
    from repro.serve.router import Router

    opening = {
        "graph": {"kind": "union", "n": n, "k": 3, "seed": seed},
        "target_quality": 0.55,
        "seed": seed,
    }
    script: list[dict] = []
    for k in range(6):
        script += [
            {"op": "update",
             "add": {"rows": [k % n, (k + 1) % n],
                     "cols": [(3 * k + 1) % n, (5 * k + 2) % n]}},
            {"op": "rematch"},
        ]
    acked: list[dict] = []
    with tempfile.TemporaryDirectory(
        prefix="repro-chaos-failover-", ignore_cleanup_errors=True
    ) as tmpdir, Router(
        3, tmpdir, backend="serial", health_interval=0.0
    ) as router:
        handle = router.request({"op": "stream_open", **opening})["handle"]
        for i, op in enumerate(script):
            if schedule == "sigkill" and i == len(script) // 2:
                router._node_by_name(handle.split(":", 1)[0]).proc.kill()
            response = router.request({**op, "handle": handle})
            acked.append({
                k: v for k, v in response.items()
                if k not in ("id", "rid", "ok", "handle")
            })
        restarts = sum(node.restarts for node in router.nodes)
    # The same script on an in-process registry that never fails:
    # bitwise-equal transcripts are the zero-acked-loss proof.
    registry = _StreamRegistry(4, "serial")
    replica_handle = registry.open(opening)["handle"]
    for step, op in enumerate(script):
        apply = registry.update if op["op"] == "update" else registry.rematch
        want = dict(apply({**op, "handle": replica_handle}))
        if acked[step] != want:
            raise AssertionError(
                f"acked transcript diverges from uninterrupted replica at"
                f" step {step}: {acked[step]} != {want}"
            )
    if schedule == "sigkill" and restarts < 1:
        raise AssertionError(
            "SIGKILL did not trigger a journal-recovery revival"
        )
    return f"acks={len(acked)} restarts={restarts}"


def _shard(schedule: str, plan: FaultPlan, *, n: int, seed: int) -> str:
    """``shard`` body: sharded matching over shard daemons under SIGKILL.

    A 3-shard matching runs over a 2-daemon router; ``sigkill`` kills
    the daemon owning the second committed shard handle, and the revived
    daemon replays its journal back to the replicated state.
    """
    from repro.serve.daemon import build_graph
    from repro.serve.router import Router
    from repro.shard import shard_match
    from repro.shard.daemon_tier import shard_match_daemons

    graph_spec = {"kind": "sprand", "n": n, "degree": 4.0, "seed": seed}
    graph = build_graph(graph_spec, None)
    reference = shard_match(graph, 3, iterations=3, seed=seed)
    with tempfile.TemporaryDirectory(
        prefix="repro-chaos-shard-", ignore_cleanup_errors=True
    ) as tmpdir, Router(
        2, tmpdir, backend="serial", health_interval=0.0
    ) as router:
        if schedule == "sigkill":
            request, commits = router.request, itertools.count(1)

            def chaotic(msg: Mapping, **kw) -> dict:
                if msg.get("op") == "shard_commit" and next(commits) == 2:
                    name = str(msg.get("handle", "")).partition(":")[0]
                    victim = router._node_by_name(name)
                    victim.proc.kill()
                    victim.proc.wait()
                return request(msg, **kw)

            router.request = chaotic
        result = shard_match_daemons(
            graph_spec, 3, iterations=3, router=router, seed=seed,
            graph=graph,
        )
        restarts = sum(node.restarts for node in router.nodes)
    if not np.array_equal(
        result.matching.row_match, reference.matching.row_match
    ):
        raise AssertionError(
            "recovered merged matching diverges bitwise from the"
            " uninterrupted in-process run"
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
    return f"cardinality={result.cardinality} restarts={restarts}"


def _sweep_rows(n: int, seed: int, budget: float) -> list[_Row]:
    """The rows that run once per sweep rather than once per backend."""
    small = min(n, 150)
    kills = {name: FaultPlan([], seed=seed) for name in ("none", "sigkill")}
    # Subprocess daemons: budgeted generously; the bodies' own checks
    # are wall-clock-free.
    daemons = max(2 * budget, 120.0)
    return [
        _Row("recovery", "journal", recovery_schedules(seed=seed),
             2 * budget, ReproError, partial(_recovery, n=small, seed=seed)),
        _Row("net", "socket", net_schedules(seed=seed), 2 * budget,
             ReproError, partial(_net, n=small, seed=seed)),
        _Row("failover", "router", kills, daemons, None,
             partial(_failover, n=min(n, 120), seed=seed)),
        _Row("shard", "router", kills, daemons, ReproError,
             partial(_shard, n=min(n, 120), seed=seed)),
    ]


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
    """Run the chaos matrix and return a :class:`ChaosReport`.

    The rows and their contracts are listed in the module docstring.
    *schedules* defaults to :func:`standard_schedules` with hangs of
    twice the per-attempt *deadline*; *max_retries* is the backend rows'
    retry budget per chunk.  The ``match``, ``exact`` and ``serve`` rows
    and the once-per-sweep rows run only when *schedules* has a
    ``storm`` entry.
    """
    from repro.core.onesided import one_sided_match
    from repro.graph.generators import sprand, union_of_permutations
    from repro.matching.exact.auction import auction_match
    from repro.matching.exact.hopcroft_karp import hopcroft_karp
    from repro.scaling.sinkhorn_knopp import scale_sinkhorn_knopp
    from repro.serve.server import ServerConfig
    from repro.serve.soak import run_soak

    if schedules is None:
        schedules = standard_schedules(
            hang_seconds=2.0 * deadline, seed=seed
        )
    storm = {"storm": schedules["storm"]} if "storm" in schedules else {}
    graph = sprand(n, 4.0, seed=seed)
    support_graph = union_of_permutations(n, 4, seed=seed)
    reference = scale_sinkhorn_knopp(graph, sk_iterations)
    exact_reference = hopcroft_karp(support_graph).cardinality

    # A call's worst legal wall time: every attempt burns the deadline
    # plus the capped backoff; SK makes ~2 map calls per sweep plus the
    # error reductions, and chunk supervisors run concurrently.
    per_call = (deadline + 2.0) * (max_retries + 1)
    sk_calls = 2 * sk_iterations + sk_iterations + 2
    budget = per_call * sk_calls + 5.0

    def resilient(spec: str) -> ResilientBackend:
        return ResilientBackend(
            spec, deadline=deadline, max_retries=max_retries,
            backoff=0.01, max_backoff=0.1, seed=seed,
        )

    def scale(spec: str, schedule: str, plan: FaultPlan) -> str:
        with resilient(spec) as backend, injected_faults(plan):
            result = scale_sinkhorn_knopp(
                graph, sk_iterations, backend=backend
            )
        if not (
            np.array_equal(result.dr, reference.dr)
            and np.array_equal(result.dc, reference.dc)
        ):
            raise AssertionError("scaling diverged from serial reference")
        return ""

    def match(spec: str, schedule: str, plan: FaultPlan) -> str:
        with resilient(spec) as backend, injected_faults(plan):
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
        return ""

    def exact(spec: str, schedule: str, plan: FaultPlan) -> str:
        with resilient(spec) as backend, injected_faults(plan):
            # gs_tail=0 keeps every round on the bid kernel: the default
            # tail drains up to 256 free rows serially in the parent,
            # which at chaos sizes is all of them and never reaches the
            # backend.
            result = auction_match(support_graph, backend=backend, gs_tail=0)
        result.matching.validate(support_graph)
        if result.cardinality != exact_reference:
            raise AssertionError(
                f"exact cardinality {result.cardinality} != no-fault "
                f"maximum {exact_reference}"
            )
        return ""

    def serve(spec: str, schedule: str, plan: FaultPlan) -> str:
        config = ServerConfig(
            max_queue=8,
            n_workers=2,
            default_deadline=budget / 2,
            breaker_threshold=3,
            breaker_cooldown=0.1,
        )
        with resilient(spec) as backend:
            report = run_soak(
                16, backend=backend, n=n, iterations=sk_iterations,
                deadline=budget / 2, overload=2.0, seed=seed,
                config=config, fault_plan=plan,
            )
        if not report.passed:
            raise AssertionError("; ".join(report.violations[:3]))
        return ""

    rows = [
        _Row(workload, spec, plans, factor * budget, BackendError,
             partial(body, spec), faults=True)
        for spec in backends
        for workload, plans, factor, body in (
            ("scale", schedules, 1, scale),
            ("match", storm, 2, match),
            ("exact", storm, 2, exact),
            ("serve", storm, 3, serve),
        )
        if plans
    ]
    if storm:
        rows += _sweep_rows(n, seed, budget)
    return ChaosReport(
        tuple(
            _cell(row, schedule, plan)
            for row in rows
            for schedule, plan in row.schedules.items()
        )
    )
