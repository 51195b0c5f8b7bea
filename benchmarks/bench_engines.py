"""Engine ablation — the three KarpSipserMT implementations.

Same algorithm, three execution strategies (serial Python loop, round-
based vectorized numpy, simulated threads): all must produce the same
(maximum) cardinality; the vectorized engine is the fast path in CPython.
"""

import pytest

from repro.core.karp_sipser_mt import (
    karp_sipser_mt,
    karp_sipser_mt_simulated,
    karp_sipser_mt_vectorized,
)
from repro.core.oneout import sample_uniform_one_out

N = 100_000


@pytest.fixture(scope="module")
def one_out_choices():
    return sample_uniform_one_out(N, seed=0)


@pytest.fixture(scope="module")
def reference_cardinality(one_out_choices):
    rc, cc = one_out_choices
    return karp_sipser_mt(rc, cc).cardinality


def test_bench_engine_serial(benchmark, one_out_choices, reference_cardinality):
    rc, cc = one_out_choices
    m = benchmark(karp_sipser_mt, rc, cc)
    assert m.cardinality == reference_cardinality


def test_bench_engine_vectorized(
    benchmark, one_out_choices, reference_cardinality
):
    rc, cc = one_out_choices
    m = benchmark(karp_sipser_mt_vectorized, rc, cc)
    assert m.cardinality == reference_cardinality


def test_bench_engine_simulated(benchmark, one_out_choices):
    rc, cc = one_out_choices
    small_rc, small_cc = rc[:3_000] % 3_000, cc[:3_000] % 3_000
    reference = karp_sipser_mt(small_rc, small_cc).cardinality
    m = benchmark(
        lambda: karp_sipser_mt_simulated(
            small_rc, small_cc, 4, policy="random", seed=0
        )
    )
    assert m.cardinality == reference
