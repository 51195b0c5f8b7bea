"""Serve-marked tests: the overload-safe matching service.

Run explicitly with ``pytest -m serve``; they also run in the default
sweep (they are fast — the slow overload soaks live in the CI
``serve-smoke`` job and ``python -m repro serve --soak``).
"""

from __future__ import annotations

import io
import json
import threading
import time

import pytest

from repro import telemetry
from repro.errors import (
    CircuitOpenError,
    DeadlineExceededError,
    OverloadedError,
    ServerClosedError,
    ServiceError,
    WorkerCrashError,
)
from repro.graph.generators import union_of_permutations
from repro.serve import (
    RUNG_GUARANTEES,
    RUNGS,
    BreakerState,
    CircuitBreaker,
    MatchingServer,
    MatchRequest,
    MatchResponse,
    ServerConfig,
    SoakReport,
    rung_for_pressure,
    run_soak,
    serve_forever,
)
from repro.serve.admission import AdmissionQueue

pytestmark = pytest.mark.serve

N = 300


@pytest.fixture(scope="module")
def graph():
    return union_of_permutations(N, 3, seed=11)


def _config(**overrides) -> ServerConfig:
    base = dict(
        n_workers=1,
        max_queue=4,
        default_deadline=10.0,
        chunk_deadline=2.0,
        breaker_cooldown=0.05,
    )
    base.update(overrides)
    return ServerConfig(**base)


# -- happy path --------------------------------------------------------


def test_submit_returns_valid_matching_with_guarantee(graph):
    with MatchingServer(config=_config()) as server:
        response = server.submit(MatchRequest(graph, iterations=2, seed=3))
    assert response.rung == "two_sided"
    assert not response.degraded
    response.matching.validate(graph)
    assert 0.0 < response.guarantee <= RUNG_GUARANTEES["two_sided"] + 1e-9
    assert response.scaling_rung == "full"
    assert response.elapsed >= response.queue_wait >= 0.0


@pytest.mark.parametrize("method", RUNGS)
def test_explicit_method_served_on_that_rung(graph, method):
    with MatchingServer(config=_config()) as server:
        response = server.submit(
            MatchRequest(graph, iterations=1, seed=5, method=method)
        )
    assert response.rung == method
    assert not response.degraded
    response.matching.validate(graph)
    if method == "greedy":
        assert response.guarantee == RUNG_GUARANTEES["greedy"]
        assert response.scaling_rung is None


def test_request_validation():
    g = union_of_permutations(8, 2, seed=0)
    with pytest.raises(ServiceError):
        MatchRequest(g, method="fastest")
    with pytest.raises(ServiceError):
        MatchRequest(g, deadline=0.0)
    with pytest.raises(ServiceError):
        ServerConfig(max_queue=0)
    with pytest.raises(ServiceError):
        ServerConfig(pressure_high=0.9, pressure_critical=0.5)


# -- admission control -------------------------------------------------


def test_admission_queue_sheds_typed_when_full():
    q = AdmissionQueue(2)
    q.offer("a")
    q.offer("b")
    with pytest.raises(OverloadedError):
        q.offer("c")
    assert q.take(timeout=0.1) == "a"
    q.offer("c")
    assert q.drain_pending() == ["b", "c"]
    assert q.depth == 0


def test_server_sheds_overload_and_serves_accepted(graph):
    release = threading.Event()
    cfg = _config(max_queue=1, execute_hook=lambda req, rung: release.wait(5.0))
    with MatchingServer(config=cfg) as server:
        first = server.submit_async(MatchRequest(graph, iterations=1, seed=0))
        time.sleep(0.1)  # let the single worker pick `first` up
        queued = server.submit_async(MatchRequest(graph, iterations=1, seed=1))
        with pytest.raises(OverloadedError):
            server.submit(MatchRequest(graph, iterations=1, seed=2))
        release.set()
        assert first.result(10.0).matching is not None
        assert queued.result(10.0).matching is not None


# -- deadline budgets --------------------------------------------------


def test_budget_spent_queueing_is_a_typed_deadline_error(graph):
    release = threading.Event()
    cfg = _config(execute_hook=lambda req, rung: release.wait(5.0))
    with MatchingServer(config=cfg) as server:
        blocker = server.submit_async(MatchRequest(graph, iterations=1))
        time.sleep(0.1)
        doomed = server.submit_async(
            MatchRequest(graph, iterations=1, deadline=0.05)
        )
        time.sleep(0.2)  # its entire budget elapses in the queue
        release.set()
        blocker.result(10.0)
        with pytest.raises(DeadlineExceededError):
            doomed.result(10.0)


def test_budget_bounds_execution_and_ladder_falls_through(graph):
    def stall(req, rung):
        time.sleep(0.3)  # longer than the whole request budget

    cfg = _config(execute_hook=stall)
    with MatchingServer(config=cfg) as server:
        started = time.monotonic()
        with pytest.raises(DeadlineExceededError):
            server.submit(
                MatchRequest(graph, iterations=1, deadline=0.2,
                             method="two_sided")
            )
        # the budget, not the per-rung stall count, bounds the request
        assert time.monotonic() - started < 2.0


def test_rung_runners_are_reused_across_requests(graph, monkeypatch):
    started: list[str] = []
    start = threading.Thread.start

    def counting(thread):
        started.append(thread.name)
        return start(thread)

    cfg = _config(n_workers=2, max_queue=32)
    with MatchingServer(config=cfg) as server:
        monkeypatch.setattr(threading.Thread, "start", counting)
        tickets = [
            server.submit_async(MatchRequest(graph, iterations=1, seed=s))
            for s in range(20)
        ]
        for ticket in tickets:
            ticket.result(30.0).matching.validate(graph)
    rungs = [name for name in started if name.startswith("serve-rung")]
    assert 1 <= len(rungs) <= server.n_workers, started


# -- degradation ladder ------------------------------------------------


def test_rung_for_pressure_steps_down():
    cfg = ServerConfig()
    assert rung_for_pressure(0.0, 0, cfg) == "two_sided"
    assert rung_for_pressure(0.6, 0, cfg) == "one_sided"
    assert rung_for_pressure(0.9, 0, cfg) == "greedy"
    assert rung_for_pressure(0.0, cfg.miss_threshold, cfg) == "one_sided"
    assert rung_for_pressure(0.6, cfg.miss_threshold, cfg) == "greedy"
    # explicit method ignores pressure
    assert rung_for_pressure(1.0, 99, cfg, "two_sided") == "two_sided"


def test_substrate_failure_degrades_to_next_rung(graph):
    def crash_top(req, rung):
        if rung == "two_sided":
            raise WorkerCrashError("injected: two_sided substrate died")

    cfg = _config(execute_hook=crash_top)
    with MatchingServer(config=cfg) as server:
        response = server.submit(MatchRequest(graph, iterations=1, seed=9))
    assert response.rung == "one_sided"
    assert response.degraded
    response.matching.validate(graph)
    assert response.guarantee <= RUNG_GUARANTEES["one_sided"] + 1e-9


def test_all_rungs_failing_raises_last_typed_error(graph):
    def crash_all(req, rung):
        raise WorkerCrashError(f"injected: {rung} died")

    cfg = _config(execute_hook=crash_all)
    with MatchingServer(config=cfg) as server:
        with pytest.raises(WorkerCrashError):
            server.submit(MatchRequest(graph, iterations=1))


# -- circuit breaker ---------------------------------------------------


def test_breaker_unit_transitions_with_fake_clock():
    now = [0.0]
    breaker = CircuitBreaker(
        threshold=2, cooldown=1.0, probes=1, clock=lambda: now[0]
    )
    assert breaker.state is BreakerState.CLOSED
    breaker.record_failure()
    assert breaker.state is BreakerState.CLOSED
    breaker.record_failure()  # trips
    assert breaker.state is BreakerState.OPEN
    with pytest.raises(CircuitOpenError):
        breaker.admit()
    now[0] = 1.5  # cooldown elapsed -> half-open
    assert breaker.state is BreakerState.HALF_OPEN
    assert breaker.admit() is True  # the probe
    with pytest.raises(CircuitOpenError):
        breaker.admit()  # only one probe slot
    breaker.record_failure(probe=True)  # probe failed -> re-open
    assert breaker.state is BreakerState.OPEN
    now[0] = 3.0
    assert breaker.admit() is True
    breaker.record_success(probe=True)  # probe succeeded -> closed
    assert breaker.state is BreakerState.CLOSED
    assert breaker.admit() is False


def test_breaker_opens_on_consecutive_failures_and_recovers(graph):
    failing = [True]

    def maybe_crash(req, rung):
        if failing[0]:
            raise WorkerCrashError("injected substrate failure")

    cfg = _config(
        breaker_threshold=2, breaker_cooldown=0.05, execute_hook=maybe_crash
    )
    with MatchingServer(config=cfg) as server:
        # every rung of each request fails -> breaker counts them
        for _ in range(2):
            with pytest.raises(WorkerCrashError):
                server.submit(MatchRequest(graph, iterations=1))
        with pytest.raises(CircuitOpenError):
            server.submit(MatchRequest(graph, iterations=1))
        assert server.health()["breaker"] == "open"
        assert not server.ready()
        failing[0] = False
        time.sleep(0.1)  # cooldown -> half-open, next submit is the probe
        response = server.submit(MatchRequest(graph, iterations=1))
        response.matching.validate(graph)
        assert server.health()["breaker"] == "closed"
        assert server.ready()


def test_shed_probe_releases_its_slot(graph):
    release = threading.Event()
    cfg = _config(
        max_queue=1, breaker_threshold=1, breaker_cooldown=0.05,
        execute_hook=lambda req, rung: release.wait(5.0),
    )
    server = MatchingServer(config=cfg)
    try:
        blocker = server.submit_async(MatchRequest(graph, iterations=1))
        time.sleep(0.1)
        queued = server.submit_async(MatchRequest(graph, iterations=1))
        server._breaker.record_failure()  # trip (threshold=1)
        time.sleep(0.1)  # half-open
        # probe admitted but shed by the full queue -> slot released
        with pytest.raises(OverloadedError):
            server.submit(MatchRequest(graph, iterations=1))
        assert server._breaker._probes_out == 0
        release.set()
        blocker.result(10.0)
        queued.result(10.0)
    finally:
        release.set()
        server.drain(timeout=10.0)


# -- drain / shutdown --------------------------------------------------


def test_drain_completes_queued_work_then_rejects(graph):
    server = MatchingServer(config=_config())
    tickets = [
        server.submit_async(MatchRequest(graph, iterations=1, seed=i))
        for i in range(3)
    ]
    assert server.drain(timeout=30.0) is True
    for ticket in tickets:
        ticket.result(1.0).matching.validate(graph)
    with pytest.raises(ServerClosedError):
        server.submit(MatchRequest(graph, iterations=1))
    assert server.health()["status"] == "stopped"
    assert server.drain() is True  # idempotent


def test_drain_timeout_sheds_queued_typed(graph):
    release = threading.Event()
    cfg = _config(max_queue=4, execute_hook=lambda req, rung: release.wait(5.0))
    server = MatchingServer(config=cfg)
    try:
        blocker = server.submit_async(MatchRequest(graph, iterations=1))
        time.sleep(0.1)
        queued = [
            server.submit_async(MatchRequest(graph, iterations=1))
            for _ in range(2)
        ]
        drained = threading.Thread(
            target=server.drain, kwargs={"timeout": 0.2}
        )
        drained.start()
        time.sleep(0.3)
        release.set()  # let the in-flight blocker finish
        drained.join(timeout=10.0)
        assert not drained.is_alive()
        blocker.result(10.0)  # in-flight work was completed, not dropped
        for ticket in queued:  # queued work was shed, typed
            with pytest.raises(ServerClosedError):
                ticket.result(1.0)
    finally:
        release.set()
        server.drain(timeout=10.0)


# -- probes + telemetry ------------------------------------------------


def test_health_and_ready_shape(graph):
    with MatchingServer(config=_config()) as server:
        health = server.health()
        assert health["status"] == "ok"
        assert health["ready"] and server.ready()
        assert health["queue_capacity"] == 4
        assert health["breaker"] == "closed"
        assert health["rung_floor"] == "two_sided"
    assert not server.ready()
    assert server.health()["status"] == "stopped"


def test_serve_telemetry_counters(graph):
    with telemetry.session() as registry:
        with MatchingServer(config=_config()) as server:
            server.submit(MatchRequest(graph, iterations=1, seed=2))
        full = AdmissionQueue(1)
        full.offer("x")
        with pytest.raises(OverloadedError):
            full.offer("y")
        snap = registry.snapshot()
    assert snap["serve.submitted"]["value"] == 1
    assert snap["serve.accepted"]["value"] == 1
    assert snap["serve.completed"]["value"] == 1
    assert snap["serve.rung.two_sided"]["value"] == 1
    assert snap["serve.shed.overloaded"]["value"] == 1
    assert "serve.latency.two_sided" in snap


# -- soak harness ------------------------------------------------------


def test_soak_healthy_contract(graph):
    report = run_soak(
        12, n=N, degree=3, iterations=1, deadline=5.0, overload=2.0,
        seed=4,
    )
    assert report.passed, report.render()
    assert report.completed + report.shed == 12
    assert "contract held" in report.render()


def test_soak_report_percentiles():
    report = SoakReport(
        requests=4, clients=2, overload=2.0, deadline=1.0, elapsed=2.0
    )
    report.latencies = [0.1, 0.2, 0.3, 0.4]
    report.outcomes["ok:two_sided"] = 4
    assert report.percentile(0.5) == 0.3
    assert report.percentile(0.99) == 0.4
    assert report.throughput == 2.0
    assert report.passed


# -- daemon ------------------------------------------------------------


def test_daemon_json_lines_round_trip():
    requests = [
        {"id": 1, "op": "health"},
        {
            "id": 2,
            "op": "match",
            "graph": {"kind": "union", "n": 60, "k": 3, "seed": 0},
            "iterations": 2,
            "seed": 5,
        },
        {"id": 3, "op": "match", "graph": {"bogus": True}},
        {"id": 4, "op": "nope"},
        {"id": 5, "op": "shutdown"},
    ]
    stdin = io.StringIO("\n".join(json.dumps(r) for r in requests) + "\n")
    stdout = io.StringIO()
    code = serve_forever(stdin=stdin, stdout=stdout)
    assert code == 0
    replies = [json.loads(line) for line in stdout.getvalue().splitlines()]
    by_id = {reply["id"]: reply for reply in replies}
    assert by_id[1]["ok"] and by_id[1]["status"] == "ok"
    assert by_id[2]["ok"] and by_id[2]["rung"] in RUNGS
    assert by_id[2]["cardinality"] == len(
        [c for c in by_id[2]["row_match"] if c >= 0]
    )
    assert not by_id[3]["ok"] and by_id[3]["error"] == "ServiceError"
    assert not by_id[4]["ok"] and "unknown op" in by_id[4]["message"]
    assert by_id[5]["ok"] and by_id[5]["status"] == "draining"


def test_daemon_rejects_malformed_lines():
    stdin = io.StringIO("this is not json\n")
    stdout = io.StringIO()
    assert serve_forever(stdin=stdin, stdout=stdout) == 0
    reply = json.loads(stdout.getvalue().splitlines()[0])
    assert not reply["ok"]
    assert reply["error"] == "ServiceError"


# -- exact rung --------------------------------------------------------


def test_exact_rung_returns_maximum_with_guarantee_one(graph):
    from repro.matching import hopcroft_karp

    with MatchingServer(config=_config(default_deadline=30.0)) as server:
        response = server.submit(
            MatchRequest(graph, iterations=1, seed=7, method="exact")
        )
    assert response.rung == "exact"
    assert not response.degraded
    assert response.guarantee == 1.0
    response.matching.validate(graph)
    assert response.cardinality == hopcroft_karp(graph).cardinality


def test_exact_sheds_to_two_sided_when_budget_below_floor(graph):
    """An explicit exact request whose remaining budget is under
    ``exact_min_budget`` must be served degraded on two_sided, not risk
    blowing the deadline inside the auction."""
    with telemetry.session() as registry:
        with MatchingServer(config=_config(default_deadline=10.0)) as server:
            response = server.submit(
                MatchRequest(
                    graph, iterations=1, seed=7, method="exact",
                    deadline=2.0,
                )
            )
        snap = registry.snapshot()
    assert response.rung == "two_sided"
    assert response.degraded
    assert response.guarantee == RUNG_GUARANTEES["two_sided"]
    response.matching.validate(graph)
    assert snap["serve.exact.shed"]["value"] == 1


def test_exact_shed_floor_configurable(graph):
    # With the floor at zero the same tiny budget reaches the exact rung.
    with MatchingServer(
        config=_config(default_deadline=10.0, exact_min_budget=0.0)
    ) as server:
        response = server.submit(
            MatchRequest(graph, iterations=1, seed=7, method="exact",
                         deadline=2.0)
        )
    assert response.rung == "exact"
    assert not response.degraded


def test_auto_ladder_never_enters_exact(graph):
    # The exact rung is opt-in: auto tops out at two_sided regardless of
    # how much budget is available.
    assert rung_for_pressure(0.0, 0, _config()) == "two_sided"
    with MatchingServer(config=_config(default_deadline=60.0)) as server:
        response = server.submit(MatchRequest(graph, iterations=1, seed=7))
    assert response.rung == "two_sided"
    assert not response.degraded


def test_daemon_exact_method_end_to_end():
    requests = [
        {
            "id": 1,
            "op": "match",
            "graph": {"kind": "union", "n": 60, "k": 3, "seed": 0},
            "iterations": 1,
            "seed": 5,
            "method": "exact",
            "deadline": 30.0,
        },
        {
            "id": 2,
            "op": "match",
            "graph": {"kind": "union", "n": 60, "k": 3, "seed": 0},
            "iterations": 1,
            "seed": 5,
            "method": "exact",
            "deadline": 1.0,
        },
        {"id": 3, "op": "shutdown"},
    ]
    stdin = io.StringIO("\n".join(json.dumps(r) for r in requests) + "\n")
    stdout = io.StringIO()
    assert serve_forever(stdin=stdin, stdout=stdout) == 0
    replies = [json.loads(line) for line in stdout.getvalue().splitlines()]
    by_id = {reply["id"]: reply for reply in replies}
    assert by_id[1]["ok"]
    assert by_id[1]["rung"] == "exact"
    assert by_id[1]["guarantee"] == 1.0
    assert not by_id[1]["degraded"]
    # n=60, k=3 unions of permutations have a perfect matching.
    assert by_id[1]["cardinality"] == 60
    # Deadline below the exact floor: served degraded on two_sided.
    assert by_id[2]["ok"]
    assert by_id[2]["rung"] == "two_sided"
    assert by_id[2]["degraded"]


def test_daemon_stream_exact_repair_end_to_end():
    requests = [
        {
            "id": 1,
            "op": "stream_open",
            "graph": {"kind": "union", "n": 50, "k": 2, "seed": 3},
            "target_quality": 0.55,
            "seed": 9,
            "exact": True,
        },
        {
            # Add a fresh diagonal band so the epoch advances; removals
            # would need exact edge coordinates, adds don't.
            "id": 2,
            "op": "update",
            "handle": "s1",
            "add": {"rows": list(range(10)), "cols": list(range(10))},
        },
        {
            "id": 3,
            "op": "rematch",
            "handle": "s1",
            "include_matching": True,
        },
        {"id": 4, "op": "stream_close", "handle": "s1"},
        {"id": 5, "op": "shutdown"},
    ]
    stdin = io.StringIO("\n".join(json.dumps(r) for r in requests) + "\n")
    stdout = io.StringIO()
    assert serve_forever(stdin=stdin, stdout=stdout) == 0
    replies = [json.loads(line) for line in stdout.getvalue().splitlines()]
    by_id = {reply["id"]: reply for reply in replies}
    assert by_id[1]["ok"] and by_id[1]["handle"] == "s1"
    assert by_id[2]["ok"]
    rematch = by_id[3]
    assert rematch["ok"]
    # exact=True streams certify guarantee 1.0 and report the auction's
    # top-up over the repaired heuristic matching.
    assert rematch["guarantee"] == 1.0
    assert "exact_gain" in rematch and rematch["exact_gain"] >= 0
    matched = [c for c in rematch["row_match"] if c >= 0]
    assert rematch["cardinality"] == len(matched)
    assert by_id[4]["ok"] and by_id[4]["closed"]
