"""Ablation benches for the design choices DESIGN.md calls out.

* Scaling method: Sinkhorn–Knopp vs Ruiz at equal iteration budgets
  (the paper picks SK; Knight–Ruiz–Uçar show it converges faster on
  unsymmetric matrices).
* Loop schedule: dynamic vs guided vs static on a degree-skewed instance
  (the paper uses dynamic,512 everywhere except guided for KarpSipserMT).
* Baselines: the cheap greedy heuristics and classic Karp–Sipser vs the
  paper's two heuristics on quality.
* Exact matcher choice: Hopcroft–Karp vs MC21 runtimes (both are
  provided; HK has the better worst case).
"""

import numpy as np
import pytest

from repro import (
    hopcroft_karp,
    karp_sipser,
    mc21,
    one_sided_match,
    sprank,
    two_sided_match,
)
from repro.graph import fully_indecomposable, sprand
from repro.matching.heuristics.greedy import (
    greedy_edge_matching,
    greedy_row_matching,
)
from repro.parallel import MachineModel
from repro.parallel.machine import ScheduleSpec
from repro.scaling import scale_ruiz, scale_sinkhorn_knopp


# ----------------------------------------------------------------------
# Scaling-method ablation
# ----------------------------------------------------------------------
def test_bench_sk_vs_ruiz_convergence(benchmark):
    g = fully_indecomposable(5_000, 4.0, seed=0)

    def run():
        sk = scale_sinkhorn_knopp(g, 10).error
        rz = scale_ruiz(g, 10).error
        return sk, rz

    sk_err, ruiz_err = benchmark.pedantic(run, rounds=1, iterations=1)
    assert sk_err <= ruiz_err  # SK converges at least as fast (unsymmetric)


def test_bench_scale_sk_kernel(benchmark):
    g = sprand(20_000, 5.0, seed=0)
    res = benchmark(scale_sinkhorn_knopp, g, 5)
    assert res.iterations == 5


def test_bench_scale_ruiz_kernel(benchmark):
    g = sprand(20_000, 5.0, seed=0)
    res = benchmark(scale_ruiz, g, 5)
    assert res.iterations == 5


# ----------------------------------------------------------------------
# Schedule ablation (machine model on skewed work)
# ----------------------------------------------------------------------
def test_bench_schedule_ablation(benchmark, skewed_instance):
    model = MachineModel()
    work = skewed_instance.row_degrees().astype(float) + 4.0
    chunk = max(8, skewed_instance.nrows // 256)

    def speedups():
        return {
            "static": model.speedup(work, 16, schedule=ScheduleSpec.static()),
            "dynamic": model.speedup(
                work, 16, schedule=ScheduleSpec.dynamic(chunk)
            ),
            "guided": model.speedup(
                work, 16, schedule=ScheduleSpec.guided(max(4, chunk // 8))
            ),
        }

    out = benchmark.pedantic(speedups, rounds=1, iterations=1)
    # On skewed work, dynamic chunking beats one-shot static partitioning.
    assert out["dynamic"] > out["static"]


def test_bench_heavy_row_splitting(benchmark, skewed_instance):
    """The paper's §2.2 remark: splitting skewed rows across threads
    recovers the lost speedup on torso1-like instances."""
    import numpy as np

    model = MachineModel()
    work = skewed_instance.row_degrees().astype(float) + 4.0
    chunk = max(8, skewed_instance.nrows // 256)
    sched = ScheduleSpec.dynamic(chunk)

    def speedups():
        base = model.speedup(work, 16, schedule=sched)
        threshold = float(np.median(work) * chunk)
        split_work = MachineModel.split_heavy_items(work, threshold)
        return base, model.speedup(split_work, 16, schedule=sched)

    base, split = benchmark.pedantic(speedups, rounds=1, iterations=1)
    assert split >= base - 0.2  # splitting never hurts materially


# ----------------------------------------------------------------------
# Baseline quality ablation
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def quality_instance():
    g = sprand(8_000, 4.0, seed=0)
    return g, sprank(g)


def test_bench_greedy_edge_baseline(benchmark, quality_instance):
    g, maximum = quality_instance
    m = benchmark(greedy_edge_matching, g, 0)
    assert 2 * m.cardinality >= maximum  # the 1/2 guarantee


def test_bench_greedy_row_baseline(benchmark, quality_instance):
    g, maximum = quality_instance
    m = benchmark(greedy_row_matching, g, 0)
    assert m.cardinality > 0


def test_bench_classic_karp_sipser(benchmark, quality_instance):
    g, maximum = quality_instance
    m = benchmark(karp_sipser, g, 0)
    assert m.cardinality / maximum > 0.9  # KS is strong on ER graphs


def test_bench_karp_sipser_plus(benchmark, quality_instance):
    """KS + degree-2 contraction: near-exact on sparse random graphs."""
    from repro.matching import karp_sipser_plus

    g, maximum = quality_instance
    m = benchmark.pedantic(
        lambda: karp_sipser_plus(g, seed=0), rounds=1, iterations=1
    )
    assert m.cardinality / maximum > 0.995


def test_bench_quality_ladder(benchmark, quality_instance):
    """greedy <= TwoSided on quality; all valid."""
    g, maximum = quality_instance

    def ladder():
        return {
            "greedy": greedy_edge_matching(g, seed=1).cardinality / maximum,
            "one": one_sided_match(g, 5, seed=1).cardinality / maximum,
            "two": two_sided_match(g, 5, seed=1).cardinality / maximum,
        }

    out = benchmark.pedantic(ladder, rounds=1, iterations=1)
    assert out["two"] > out["one"]
    assert out["two"] > 0.85


# ----------------------------------------------------------------------
# Exact-vs-relaxed parallel Karp-Sipser (the paper's core comparative
# claim: Algorithm 4 keeps exactness under parallelism, the "inflicted
# forms" of prior work do not)
# ----------------------------------------------------------------------
def test_bench_relaxed_parallel_ks(benchmark, quality_instance):
    from repro.matching import karp_sipser_relaxed

    g, maximum = quality_instance
    m = benchmark(karp_sipser_relaxed, g, 8, 0)
    assert 2 * m.cardinality >= maximum


def test_bench_exact_vs_relaxed_parallel_ks(benchmark):
    """On choice subgraphs: KarpSipserMT(any p) = optimum; relaxed <= it."""
    from repro.core import choice_graph, karp_sipser_mt
    from repro.core.oneout import sample_uniform_one_out
    from repro.matching import karp_sipser_relaxed

    def run():
        out = []
        for seed in range(5):
            rc, cc = sample_uniform_one_out(2_000, seed)
            sub = choice_graph(rc, cc)
            exact = karp_sipser_mt(rc, cc).cardinality
            relaxed = karp_sipser_relaxed(sub, n_threads=8, seed=seed)
            out.append((exact, relaxed.cardinality))
        return out

    pairs = benchmark.pedantic(run, rounds=1, iterations=1)
    assert all(relaxed <= exact for exact, relaxed in pairs)


# ----------------------------------------------------------------------
# Distributed vs shared-memory scaling (the cited VECPAR substrate)
# ----------------------------------------------------------------------
def test_bench_distributed_scaling_agrees(benchmark):
    import numpy as np

    from repro.scaling import scale_sinkhorn_knopp
    from repro.shard import shard_scale

    g = sprand(5_000, 4.0, seed=0)
    serial = scale_sinkhorn_knopp(g, 5)
    dist = benchmark(lambda: shard_scale(g, 5, n_shards=4))
    np.testing.assert_array_equal(dist.dr, serial.dr)
    np.testing.assert_array_equal(dist.dc, serial.dc)
    assert dist.error == serial.error


# ----------------------------------------------------------------------
# Exact-matcher ablation
# ----------------------------------------------------------------------
def test_bench_hopcroft_karp(benchmark, quality_instance):
    g, maximum = quality_instance
    m = benchmark(hopcroft_karp, g)
    assert m.cardinality == maximum


def test_bench_mc21(benchmark, quality_instance):
    g, maximum = quality_instance
    m = benchmark(mc21, g)
    assert m.cardinality == maximum


def test_bench_hk_warm_started(benchmark, quality_instance):
    """The paper's motivating use: heuristics as exact-solver warm starts."""
    g, maximum = quality_instance
    init = two_sided_match(g, 5, seed=0).matching
    m = benchmark(lambda: hopcroft_karp(g, initial=init))
    assert m.cardinality == maximum
