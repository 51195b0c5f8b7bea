#!/usr/bin/env python
"""Seeded perf-regression harness (``make bench-regress``).

Runs a fixed workload matrix (sizes, seeds, and repetition counts are all
pinned), writes a ``BENCH_<timestamp>.json`` snapshot into the snapshot
directory, and — with ``--check`` — compares the fresh run against the most
recent previous snapshot of the same mode:

* a workload whose best-of-N wall time exceeds the previous snapshot's by
  more than ``--tolerance`` (default 40% — CI wall clocks are noisy) is a
  **timing regression**;
* a quality workload whose mean matching ratio falls below its floor
  (Theorem 1's ``1 - 1/e`` for OneSidedMatch, Conjecture 1's ``2(1 - ρ)``
  for TwoSidedMatch, each minus ``--quality-eps``) is a **quality breach**
  — floors are absolute, they are checked even when no previous snapshot
  exists.

Either failure mode exits non-zero, which is what the CI smoke job and
every future perf PR are judged by.  ``--smoke`` shrinks the matrix to
seconds for CI; smoke snapshots are only ever compared against other smoke
snapshots.  See ``docs/observability.md`` for the snapshot schema.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
if not any(Path(p).resolve() == REPO_ROOT / "src" for p in sys.path if p):
    sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np  # noqa: E402

from repro import __version__  # noqa: E402
from repro.constants import ONE_SIDED_GUARANTEE, TWO_SIDED_GUARANTEE  # noqa: E402
from repro.core import one_sided_match, two_sided_match  # noqa: E402
from repro.core.choice import (  # noqa: E402
    scaled_col_choices,
    scaled_row_choices,
)
from repro.core.karp_sipser_mt import (  # noqa: E402
    karp_sipser_mt,
    karp_sipser_mt_vectorized,
)
from repro.graph import sprand  # noqa: E402
from repro.graph.generators import union_of_permutations  # noqa: E402
from repro.scaling import scale_sinkhorn_knopp  # noqa: E402

SCHEMA_VERSION = 1

#: (workload, full_n, smoke_n) — every size in one place so full and smoke
#: snapshots stay structurally identical.
SIZES = {
    "scale_sk": (20_000, 2_000),
    "onesided": (20_000, 2_000),
    "twosided_serial": (10_000, 1_500),
    "twosided_vectorized": (20_000, 2_000),
    "ks_mt_serial": (10_000, 1_500),
    "ks_mt_vectorized": (10_000, 1_500),
    "onesided_quality": (1_500, 400),
    "twosided_quality": (1_500, 400),
    "resilient_scale_sk": (20_000, 2_000),
    # Backend matrix: the same workloads through the persistent zero-copy
    # pool, at a size where the multi-chunk parallel path actually engages
    # (the smoke size is a single chunk — overhead tracking only).
    "shm_scale_sk": (120_000, 8_000),
    "shm_onesided": (120_000, 8_000),
    "shm_e2e_twosided": (120_000, 8_000),
    # Serving layer: fixed-load soak through a live MatchingServer
    # (wall + p99 of accepted requests) and the shed-rate cell under
    # deliberate overload of a tiny admission queue.
    "serve_soak": (3_000, 800),
    "serve_shed": (1_000, 400),
    # Streaming layer: per-batch update→incremental-rematch cost under
    # 1% edge churn (gated), plus the speedup over a cold rematch of the
    # same epoch (informational — it is a ratio of two measured times,
    # so the gated cell alone pins the regression surface).
    "stream_update": (120_000, 8_000),
    # Durability layer: rebuild a journaled stream session (checkpoint +
    # WAL replay + recertification) vs the live run that produced it.
    # Informational — replay re-executes the same rematches it journaled,
    # so the honest ratio hovers around 1x; the cell keeps recovery wall
    # time visible without gating on it.
    "recovery_replay": (20_000, 2_000),
    # Exact tier: the auction, cold-started and warm-started
    # from a TwoSidedMatch heuristic.  Cold is the gated cell (it is the
    # quality ladder's exact rung); warm-vs-cold is an informational
    # ratio — the drain + deficiency certification dominate wall clock
    # and a warm start cannot skip them, so the honest ratio hovers
    # around 1x (see docs/performance.md).
    "auction_cold": (120_000, 8_000),
    "auction_warm": (120_000, 8_000),
    # Network front: request count for the framed unix-socket roundtrip
    # loop through SocketServer + ResilientClient.  Informational (no
    # "seconds" key): the cell exists to keep per-request wire overhead
    # visible, while the CPU-bound cells above pin the regression surface.
    "net_roundtrip": (200, 50),
    # Sharded matching: wall time and quality at K in {1, 2, 4} shards on
    # the in-process tier.  Informational (no "seconds" key) — the
    # subsystem's contract makes all K bitwise identical (asserted, not
    # reported), so the cell's job is to keep the coordination overhead
    # of higher shard counts visible, not to gate on it.  The smoke size
    # stays above the chunk grid (8192) so K=2 is a real split.
    "shard_scaling": (120_000, 20_000),
}


def _choice_arrays(n: int):
    """Deterministic scaled 1-out choice arrays on an ER d=4 instance."""
    g = sprand(n, 4.0, seed=0)
    sc = scale_sinkhorn_knopp(g, 5)
    rc = scaled_row_choices(g, sc.dr, sc.dc, seed=1)
    cc = scaled_col_choices(g, sc.dr, sc.dc, seed=2)
    return rc, cc


def _best_of(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def run_workloads(smoke: bool, backend_spec: str = "serial") -> dict[str, dict]:
    """Execute the fixed matrix; returns ``{name: result-dict}``.

    *backend_spec* (the ``REPRO_BACKEND`` environment variable) selects
    the backend the generic scaling/matching cells run on; snapshots are
    only ever compared against snapshots of the same backend.
    """
    from repro.parallel import get_backend

    idx = 1 if smoke else 0
    repeats = 2 if smoke else 3
    results: dict[str, dict] = {}

    def record_timing(name: str, n: int, fn) -> None:
        seconds = _best_of(fn, repeats)
        results[name] = {"n": n, "seconds": seconds}
        print(f"  {name:<22} n={n:<7} {seconds * 1e3:9.2f} ms")

    print(f"timing workloads (backend={backend_spec}):")
    env_be = get_backend(backend_spec)

    n = SIZES["scale_sk"][idx]
    g = sprand(n, 4.0, seed=0)
    record_timing(
        "scale_sk", n, lambda: scale_sinkhorn_knopp(g, 5, backend=env_be)
    )

    n = SIZES["onesided"][idx]
    g = sprand(n, 4.0, seed=0)
    sc = scale_sinkhorn_knopp(g, 5)
    record_timing(
        "onesided", n,
        lambda: one_sided_match(g, scaling=sc, seed=1, backend=env_be),
    )

    for name, engine in (
        ("twosided_serial", "serial"),
        ("twosided_vectorized", "vectorized"),
    ):
        n = SIZES[name][idx]
        g = sprand(n, 4.0, seed=0)
        sc = scale_sinkhorn_knopp(g, 5)
        record_timing(
            name, n,
            lambda g=g, sc=sc, engine=engine: two_sided_match(
                g, scaling=sc, seed=1, engine=engine, backend=env_be
            ),
        )
    env_be.close()

    for name, engine_fn in (
        ("ks_mt_serial", karp_sipser_mt),
        ("ks_mt_vectorized", karp_sipser_mt_vectorized),
    ):
        n = SIZES[name][idx]
        rc, cc = _choice_arrays(n)
        record_timing(
            name, n, lambda rc=rc, cc=cc, fn=engine_fn: fn(rc, cc)
        )

    # Resilience-layer overhead: the same scaling workload through the
    # deadline/retry wrapper with injection off.  Tracked against the
    # plain scale_sk cell so the supervisor cost stays visibly bounded.
    from repro.resilience import ResilientBackend

    n = SIZES["resilient_scale_sk"][idx]
    g = sprand(n, 4.0, seed=0)
    be = ResilientBackend("serial", deadline=60.0)
    try:
        record_timing(
            "resilient_scale_sk", n,
            lambda: scale_sinkhorn_knopp(g, 5, backend=be),
        )
    finally:
        be.close()

    # Backend matrix: the same workloads through the persistent zero-copy
    # pool.  shm_scale_sk times Sinkhorn-Knopp alone.  shm_onesided and
    # shm_e2e_twosided pass the precomputed scaling, so they time choice
    # sampling (plus Karp-Sipser for two-sided) and never SK: an e2e cell
    # can read below shm_scale_sk.  shm vs the serial scale_sk/twosided
    # cells bounds the pool's dispatch overhead (see docs/performance.md).
    # Best-of-N absorbs the one-time pool spawn.
    from repro.parallel import SharedMemoryBackend

    n = SIZES["shm_scale_sk"][idx]
    g = sprand(n, 4.0, seed=0)
    sc = scale_sinkhorn_knopp(g, 5)
    shm_be = SharedMemoryBackend()
    try:
        record_timing(
            "shm_scale_sk", n,
            lambda: scale_sinkhorn_knopp(g, 5, backend=shm_be),
        )
        record_timing(
            "shm_onesided", n,
            lambda: one_sided_match(g, scaling=sc, seed=1, backend=shm_be),
        )
        record_timing(
            "shm_e2e_twosided", n,
            lambda: two_sided_match(
                g, scaling=sc, seed=1, backend=shm_be, engine="parallel"
            ),
        )
    finally:
        shm_be.close()

    # Serving layer.  serve_soak/serve_p99 run a fixed, non-shedding load
    # (clients == workers) through a live MatchingServer — the soak's
    # wall clock is the gated timing.  serve_p99 (a single worst-case
    # sample at millisecond scale, dominated by scheduler jitter) and
    # serve_shed (shedding is configuration-dependent by design) are
    # informational — no "seconds" key, so they never gate.
    from repro.serve import ServerConfig, run_soak

    n = SIZES["serve_soak"][idx]
    requests = 40 if smoke else 200
    soak = run_soak(
        requests,
        backend=backend_spec,
        n=n,
        degree=4,
        iterations=2,
        deadline=10.0,
        overload=1.0,
        seed=0,
        config=ServerConfig(max_queue=64, default_deadline=10.0),
    )
    if not soak.passed:
        raise AssertionError(
            "serve soak violated the service contract:\n" + soak.render()
        )
    results["serve_soak"] = {
        "n": n,
        "seconds": soak.elapsed,
        "requests": requests,
        "throughput": soak.throughput,
    }
    results["serve_p99"] = {"n": n, "p99_seconds": soak.percentile(0.99)}
    print(
        f"  {'serve_soak':<22} n={n:<7} {soak.elapsed * 1e3:9.2f} ms "
        f"({soak.throughput:.1f} req/s)"
    )
    print(
        f"  {'serve_p99':<22} n={n:<7} "
        f"{soak.percentile(0.99) * 1e3:9.2f} ms"
    )

    n = SIZES["serve_shed"][idx]
    shed_requests = 40 if smoke else 120
    shed_soak = run_soak(
        shed_requests,
        backend=backend_spec,
        n=n,
        degree=4,
        iterations=1,
        deadline=10.0,
        overload=4.0,  # 4 clients vs 1 worker + 1 queue slot = 2x capacity
        seed=0,
        config=ServerConfig(
            max_queue=1, n_workers=1, default_deadline=10.0
        ),
    )
    if not shed_soak.passed:
        raise AssertionError(
            "serve shed soak violated the service contract:\n"
            + shed_soak.render()
        )
    results["serve_shed"] = {
        "n": n,
        "requests": shed_requests,
        "shed": shed_soak.shed,
        "shed_rate": shed_soak.shed_rate,
    }
    print(
        f"  {'serve_shed':<22} n={n:<7} shed={shed_soak.shed}/"
        f"{shed_requests} ({shed_soak.shed_rate:.0%})"
    )

    # Streaming layer: drive a dynamic graph through churn batches and
    # time the incremental path against cold rematches of the identical
    # epochs.  The guarantee-equality contract is asserted, not merely
    # reported — a run where the incremental certificate diverges from
    # the cold one is a correctness failure, not a perf number.
    from repro.stream import run_churn

    n = SIZES["stream_update"][idx]
    churn = run_churn(
        n,
        churn_fraction=0.01,
        batches=2 if smoke else 3,
        target_quality=0.60,
        seed=0,
        backend=backend_spec,
    )
    if not churn.guarantees_match:
        raise AssertionError(
            "stream churn: incremental guarantee diverged from cold rematch"
        )
    results["stream_update"] = {
        "n": n,
        "seconds": churn.update_seconds + churn.incremental_seconds,
        "churn_fraction": churn.churn_fraction,
        "batches": churn.batches,
    }
    results["stream_speedup"] = {
        "n": n,
        "speedup": churn.speedup,
        "cold_seconds": churn.cold_seconds,
        "guarantee": churn.guarantee,
        "guarantees_match": churn.guarantees_match,
    }
    print(
        f"  {'stream_update':<22} n={n:<7} "
        f"{(churn.update_seconds + churn.incremental_seconds) * 1e3:9.2f} ms"
    )
    print(
        f"  {'stream_speedup':<22} n={n:<7} {churn.speedup:9.2f}x "
        f"(cold {churn.cold_seconds * 1e3:.2f} ms)"
    )

    # Durability layer: a journaled stream session under 1% churn, then
    # a full crash recovery of its directory.  The recovered last
    # acknowledgment must equal the live one bitwise — asserted, not
    # reported.  Neither number gates (no "seconds" key): replay
    # re-executes the same rematches the live run journaled plus
    # recertification, so live/replay is an honest ~1x ratio whose job
    # is to keep recovery wall time visible.
    import shutil
    import tempfile

    from repro.serve.daemon import _StreamRegistry
    from repro.serve.journal import DurableLog
    from repro.serve.recovery import recover_registry

    n = SIZES["recovery_replay"][idx]
    journal_dir = tempfile.mkdtemp(prefix="repro-bench-recovery-")
    try:
        registry = _StreamRegistry(
            8, None, journal=DurableLog(journal_dir, checkpoint_every=64)
        )
        spec = {"kind": "sprand", "n": n, "degree": 4.0, "seed": 0}
        rng = np.random.default_rng(7)
        batch = max(8, n // 100)
        t0 = time.perf_counter()
        registry.open({"graph": spec, "target_quality": 0.55, "seed": 0})
        registry.rematch({"handle": "s1"})
        for _ in range(2 if smoke else 3):
            registry.update(
                {"handle": "s1", "add": {
                    "rows": rng.integers(0, n, size=batch).tolist(),
                    "cols": rng.integers(0, n, size=batch).tolist(),
                }}
            )
            registry.rematch({"handle": "s1"})
        live_seconds = time.perf_counter() - t0
        registry.journal.close()

        t0 = time.perf_counter()
        recovered, recovery_report = recover_registry(
            journal_dir, attach_journal=False
        )
        replay_seconds = time.perf_counter() - t0
        if recovered._last_ack["s1"] != registry._last_ack["s1"]:
            raise AssertionError(
                "recovery replay diverged from the live acknowledgment"
            )
        results["recovery_replay"] = {
            "n": n,
            "live_seconds": live_seconds,
            "replay_seconds": replay_seconds,
            "replayed_records": recovery_report.replayed_records,
            "speedup": live_seconds / replay_seconds
            if replay_seconds
            else 1.0,
        }
        print(
            f"  {'recovery_replay':<22} n={n:<7} "
            f"{replay_seconds * 1e3:9.2f} ms "
            f"(live {live_seconds * 1e3:.2f} ms, "
            f"{recovery_report.replayed_records} records)"
        )
    finally:
        shutil.rmtree(journal_dir, ignore_errors=True)

    # Network front: framed health roundtrips through a live unix-socket
    # SocketServer and the retrying client.  Informational (no "seconds"
    # key) — it reports per-request wire overhead (framing + CRC + a
    # fresh connection per request) without gating on socket latency,
    # which is far noisier on CI boxes than the CPU-bound cells.
    from repro.serve.daemon import Dispatcher
    from repro.serve.net import ResilientClient, SocketServer
    from repro.serve.server import MatchingServer

    requests = SIZES["net_roundtrip"][idx]
    net_dir = tempfile.mkdtemp(prefix="repro-bench-net-")
    try:
        with MatchingServer("serial") as net_server:
            dispatcher = Dispatcher(net_server, _StreamRegistry(2, "serial"))
            with SocketServer(
                dispatcher, f"unix:{net_dir}/bench.sock", deadline=30.0
            ) as front:
                client = ResilientClient(front.address, retries=2)
                t0 = time.perf_counter()
                for _ in range(requests):
                    client.request({"op": "health"})
                net_seconds = time.perf_counter() - t0
        results["net_roundtrip"] = {
            "n": requests,
            "roundtrip_seconds": net_seconds,
            "per_request_ms": net_seconds / requests * 1e3,
        }
        print(
            f"  {'net_roundtrip':<22} n={requests:<7} "
            f"{net_seconds * 1e3:9.2f} ms "
            f"({net_seconds / requests * 1e6:.0f} us/request, "
            f"informational)"
        )
    finally:
        shutil.rmtree(net_dir, ignore_errors=True)

    # Sharded matching: in-process shard sessions at K in {1, 2, 4}.
    # Every K must produce the identical matching (the shard-count-
    # invariance contract — asserted, not reported); the recorded numbers
    # are the per-K wall times (planning included) and the K>1 overhead
    # ratios over K=1.
    from repro.shard import shard_match

    n = SIZES["shard_scaling"][idx]
    g = sprand(n, 4.0, seed=0)
    shard_rows = {}
    base_match = None
    for k in (1, 2, 4):
        t0 = time.perf_counter()
        res = shard_match(g, k, 5, seed=1)
        seconds = time.perf_counter() - t0
        plan = res.plan
        if base_match is None:
            base_match = res.matching.row_match
        elif not np.array_equal(res.matching.row_match, base_match):
            raise AssertionError(
                f"shard_scaling: K={k} matching diverged from K=1 — the"
                f" shard-count-invariance contract is broken"
            )
        shard_rows[str(k)] = {
            "seconds": seconds,
            "boundary_edges": plan.boundary_edges,
            "max_held_nnz": plan.max_held_nnz,
        }
    results["shard_scaling"] = {
        "n": n,
        "shards": shard_rows,
        "cardinality": int(np.sum(base_match >= 0)),
        "overhead_k4": (
            shard_rows["4"]["seconds"] / shard_rows["1"]["seconds"]
            if shard_rows["1"]["seconds"]
            else 1.0
        ),
    }
    print(
        f"  {'shard_scaling':<22} n={n:<7} "
        + " ".join(
            f"K={k}:{shard_rows[k]['seconds'] * 1e3:.2f}ms"
            for k in ("1", "2", "4")
        )
        + " (bitwise-equal, informational)"
    )

    # Exact tier: auction cold vs warm on the same instance.  Both runs
    # must land on the identical (maximum) cardinality — asserted, not
    # reported.  The warm/cold ratio is informational with a 2x
    # aspiration bar; measured honestly it is ~0.7–1.0x because the
    # Gauss–Seidel drain and the deficiency certification dominate and
    # cannot be warm-skipped.
    from repro.matching import auction_match, hopcroft_karp

    n = SIZES["auction_cold"][idx]
    g = sprand(n, 4.0, seed=11)
    exact_card = hopcroft_karp(g).cardinality
    auction_be = get_backend(backend_spec)
    try:
        def _cold():
            res = auction_match(g, backend=auction_be)
            assert res.cardinality == exact_card
            return res

        record_timing("auction_cold", n, _cold)

        heur = two_sided_match(g, 3, seed=0, backend=auction_be,
                               engine="vectorized")

        def _warm():
            res = auction_match(
                g, initial=heur, scaling=heur.scaling, backend=auction_be
            )
            assert res.cardinality == exact_card
            return res

        record_timing("auction_warm", n, _warm)
    finally:
        auction_be.close()
    ratio = (
        results["auction_cold"]["seconds"]
        / results["auction_warm"]["seconds"]
    )
    results["auction_warm_speedup"] = {
        "n": n,
        "speedup": ratio,
        "bar": 2.0,
        "meets_bar": ratio >= 2.0,
        "cardinality": exact_card,
    }
    print(
        f"  {'auction_warm_speedup':<22} n={n:<7} {ratio:9.2f}x "
        f"(informational bar 2.0x)"
    )

    print("quality workloads:")
    trials = 3 if smoke else 5

    n = SIZES["onesided_quality"][idx]
    g = union_of_permutations(n, 4, seed=0)
    ratios = [
        one_sided_match(g, 5, seed=s).cardinality / n for s in range(trials)
    ]
    results["onesided_quality"] = {
        "n": n,
        "quality": float(np.mean(ratios)),
        "floor": ONE_SIDED_GUARANTEE,
        "trials": trials,
    }

    n = SIZES["twosided_quality"][idx]
    g = union_of_permutations(n, 4, seed=0)
    ratios = [
        two_sided_match(g, 5, seed=s, engine="vectorized").cardinality / n
        for s in range(trials)
    ]
    results["twosided_quality"] = {
        "n": n,
        "quality": float(np.mean(ratios)),
        "floor": TWO_SIDED_GUARANTEE,
        "trials": trials,
    }
    for name in ("onesided_quality", "twosided_quality"):
        r = results[name]
        print(
            f"  {name:<22} n={r['n']:<7} quality={r['quality']:.4f} "
            f"(floor {r['floor']:.4f})"
        )

    return results


def make_snapshot(smoke: bool, backend_spec: str = "serial") -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "date": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "smoke": smoke,
        "backend": backend_spec,
        "repro_version": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "results": run_workloads(smoke, backend_spec),
    }


def latest_snapshot(
    out_dir: Path, smoke: bool, backend_spec: str = "serial"
) -> dict | None:
    """The newest parseable snapshot of the same mode/backend, or None."""
    for path in sorted(out_dir.glob("BENCH_*.json"), reverse=True):
        try:
            snap = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            continue
        if (
            snap.get("schema") == SCHEMA_VERSION
            and snap.get("smoke") == smoke
            and snap.get("backend", "serial") == backend_spec
        ):
            snap["_path"] = str(path)
            return snap
    return None


def check(
    current: dict,
    previous: dict | None,
    tolerance: float,
    quality_eps: float,
) -> list[str]:
    """All regression/breach messages for *current* (empty list = pass)."""
    failures = []
    for name, res in current["results"].items():
        floor = res.get("floor")
        if floor is not None:
            effective = floor - quality_eps
            if res["quality"] < effective:
                failures.append(
                    f"quality breach: {name} = {res['quality']:.4f} < "
                    f"{effective:.4f} (floor {floor:.4f} - eps {quality_eps})"
                )
    if previous is None:
        return failures
    for name, res in current["results"].items():
        prev = previous["results"].get(name)
        if not prev or "seconds" not in res or "seconds" not in prev:
            continue
        if prev.get("n") != res.get("n"):
            continue  # size matrix changed; timings not comparable
        ratio = res["seconds"] / prev["seconds"] if prev["seconds"] else 1.0
        if ratio > 1.0 + tolerance:
            failures.append(
                f"timing regression: {name} {prev['seconds'] * 1e3:.2f} ms "
                f"-> {res['seconds'] * 1e3:.2f} ms ({ratio:.2f}x, "
                f"tolerance {1.0 + tolerance:.2f}x)"
            )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="seeded perf-regression harness"
    )
    parser.add_argument(
        "--out-dir", default=str(REPO_ROOT / "benchmarks" / "snapshots"),
        help="snapshot directory (default benchmarks/snapshots)",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny sizes for CI (compared only against smoke snapshots)",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="compare against the previous snapshot and fail on regression",
    )
    parser.add_argument(
        "--tolerance", type=float, default=0.40,
        help="allowed relative slowdown before failing (default 0.40)",
    )
    parser.add_argument(
        "--quality-eps", type=float, default=0.02,
        help="slack below the theoretical quality floors (default 0.02)",
    )
    parser.add_argument(
        "--no-write", action="store_true",
        help="run and check without writing a snapshot",
    )
    args = parser.parse_args(argv)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    backend_spec = os.environ.get("REPRO_BACKEND", "serial")
    previous = (
        latest_snapshot(out_dir, args.smoke, backend_spec)
        if args.check
        else None
    )

    mode = "smoke" if args.smoke else "full"
    print(f"running {mode} workload matrix (REPRO_BACKEND={backend_spec}) ...")
    snapshot = make_snapshot(args.smoke, backend_spec)

    if not args.no_write:
        stamp = snapshot["date"].replace(":", "").replace("-", "")
        path = out_dir / f"BENCH_{stamp}.json"
        path.write_text(json.dumps(snapshot, indent=2) + "\n")
        print(f"wrote {path}")

    failures = check(snapshot, previous, args.tolerance, args.quality_eps)
    if previous is not None:
        print(f"compared against {previous['_path']}")
    elif args.check:
        print("no previous snapshot of this mode — quality floors only")
    if failures:
        print("\nREGRESSIONS DETECTED:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("all workloads within tolerance; quality floors hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
