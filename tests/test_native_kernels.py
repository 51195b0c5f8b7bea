"""The native kernel tier: bitwise identity, selection, fallback.

The contract under test (see ``repro.parallel.native``): every native
loop implementation is **bitwise identical** to its numpy kernel on any
chunk of any input — the loops mirror numpy's exact reduction orders
(reduceat's first-element + pairwise tail, sequential cumsum, bisect-left,
NaN-propagating max, first-occurrence min ties).  On hosts without numba
the loops run as pure Python through the same wrappers, so the identity
property is checked everywhere the suite runs; with numba installed the
same tests exercise the compiled dispatchers.

Also covers the satellite fixes that rode along: ``run_kernel`` output-
binding validation, chunk-grid memoization, and the selection API
(env/`set_kernel_impl`/context manager, warn-once fallback).
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.parallel.kernels as kernels_mod
from repro import telemetry
from repro.errors import BackendError
from repro.matching.matching import NIL
from repro.parallel import (
    force_native_impls,
    get_kernel_impl,
    kernel_chunk_override,
    kernel_impl,
    kernel_impls,
    native_available,
    run_kernel,
    set_kernel_impl,
    warm_compile,
)
from repro.parallel import native
from repro.parallel.kernels import AUCTION_DROP, KERNELS
from repro.parallel.partition import static_partition

pytestmark = pytest.mark.native


# ----------------------------------------------------------------------
# Adversarial input strategies
# ----------------------------------------------------------------------
@st.composite
def csr_inputs(draw):
    """A small CSR with adversarial segment shapes and magnitudes.

    Covers empty segments, single-edge segments, rectangular shapes, and
    values spanning subnormal (1e-320) to 1e18 — the ranges where a
    wrong summation tree shows up as a last-bit difference.
    """
    n = draw(st.integers(1, 10))
    degs = draw(
        st.lists(st.integers(0, 9), min_size=n, max_size=n)
    )
    ncols = draw(st.integers(1, 12))
    seed = draw(st.integers(0, 10_000))
    rng = np.random.default_rng(seed)
    ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.asarray(degs, dtype=np.int64), out=ptr[1:])
    nnz = int(ptr[-1])
    ind = rng.integers(0, ncols, size=nnz, dtype=np.int64)
    exps = rng.integers(-320, 19, size=ncols)
    opp = rng.random(ncols) * np.power(10.0, exps.astype(np.float64))
    opp[rng.random(ncols) < 0.1] = 0.0
    lo = draw(st.integers(0, n - 1))
    hi = draw(st.integers(lo + 1, n))
    return ptr, ind, opp, rng, lo, hi


def _run_both(name, lo, hi, views):
    """Run numpy and native (loop-body) impls on copies; return both."""
    kern = KERNELS[name]
    v_np = {
        k: (a.copy() if isinstance(a, np.ndarray) else a)
        for k, a in views.items()
    }
    v_nat = {
        k: (a.copy() if isinstance(a, np.ndarray) else a)
        for k, a in views.items()
    }
    ret_np = kern.fn(lo, hi, v_np)
    ret_nat = native._WRAPPERS[name](lo, hi, v_nat)
    return ret_np, v_np, ret_nat, v_nat


def _assert_outputs_equal(name, v_np, v_nat):
    for out in KERNELS[name].outputs:
        a, b = v_np[out], v_nat[out]
        assert a.dtype == b.dtype
        assert np.array_equal(a, b), f"{name} output {out!r} diverges"


class TestBitwiseIdentityProperties:
    @given(data=csr_inputs())
    @settings(max_examples=60, deadline=None)
    def test_sk_sweep(self, data):
        ptr, ind, opp, rng, lo, hi = data
        n = ptr.shape[0] - 1
        views = {"ptr": ptr, "ind": ind, "opp": opp,
                 "out": np.zeros(n, dtype=np.float64)}
        _, v_np, _, v_nat = _run_both("sk_sweep", lo, hi, views)
        _assert_outputs_equal("sk_sweep", v_np, v_nat)

    @given(data=csr_inputs())
    @settings(max_examples=60, deadline=None)
    def test_sk_sweep_err(self, data):
        ptr, ind, opp, rng, lo, hi = data
        n = ptr.shape[0] - 1
        exps = rng.integers(-320, 19, size=n)
        mine = rng.random(n) * np.power(10.0, exps.astype(np.float64))
        views = {"ptr": ptr, "ind": ind, "opp": opp, "mine": mine,
                 "out": np.zeros(n, dtype=np.float64)}
        ret_np, v_np, ret_nat, v_nat = _run_both(
            "sk_sweep_err", lo, hi, views
        )
        _assert_outputs_equal("sk_sweep_err", v_np, v_nat)
        assert np.float64(ret_np).tobytes() == np.float64(ret_nat).tobytes()

    @given(data=csr_inputs())
    @settings(max_examples=60, deadline=None)
    def test_choice_scaled(self, data):
        ptr, ind, opp, rng, lo, hi = data
        n = ptr.shape[0] - 1
        views = {"ptr": ptr, "ind": ind, "opp": np.abs(opp),
                 "draws": 1.0 - rng.random(n),
                 "out": np.zeros(n, dtype=np.int64)}
        _, v_np, _, v_nat = _run_both("choice_scaled", lo, hi, views)
        _assert_outputs_equal("choice_scaled", v_np, v_nat)

    @given(data=csr_inputs())
    @settings(max_examples=60, deadline=None)
    def test_choice_flat(self, data):
        ptr, ind, opp, rng, lo, hi = data
        n = ptr.shape[0] - 1
        nnz = int(ptr[-1])
        exps = rng.integers(-320, 10, size=nnz)
        weights = rng.random(nnz) * np.power(10.0, exps.astype(np.float64))
        views = {"ptr": ptr, "ind": ind, "weights": weights,
                 "draws": 1.0 - rng.random(n),
                 "out": np.zeros(n, dtype=np.int64)}
        _, v_np, _, v_nat = _run_both("choice_flat", lo, hi, views)
        _assert_outputs_equal("choice_flat", v_np, v_nat)

    @given(data=csr_inputs(), eps=st.floats(1e-9, 2.0),
           dead_q=st.floats(0.0, 1.5))
    @settings(max_examples=60, deadline=None)
    def test_auction_bid(self, data, eps, dead_q):
        ptr, ind, opp, rng, lo, hi = data
        n = ptr.shape[0] - 1
        ncols = opp.shape[0]
        prices = np.round(rng.random(ncols) * 2.0, 1)  # ties likely
        views = {
            "ptr": ptr, "ind": ind, "prices": prices,
            "eps": float(eps), "dead": float(dead_q * 2.0),
            "bid_col": np.zeros(n, dtype=np.int64),
            "bid_val": np.zeros(n, dtype=np.float64),
        }
        _, v_np, _, v_nat = _run_both("auction_bid", lo, hi, views)
        _assert_outputs_equal("auction_bid", v_np, v_nat)


class TestPairwiseTreeContract:
    """The summation-order mirror itself, on shapes that pick branches."""

    @pytest.mark.parametrize(
        "n", [0, 1, 2, 7, 8, 9, 16, 127, 128, 129, 300, 1000, 4097]
    )
    def test_gather_seg_sum_matches_reduceat(self, n):
        rng = np.random.default_rng(n)
        exps = rng.integers(-320, 19, size=max(n, 1))
        vals = rng.random(max(n, 1)) * np.power(
            10.0, exps.astype(np.float64)
        )
        ind = rng.permutation(max(n, 1)).astype(np.int64)
        got = native._gather_seg_sum(vals, ind, 0, n)
        if n == 0:
            assert got == 0.0
            return
        want = float(np.add.reduceat(vals[ind[:n]], [0])[0])
        assert np.float64(got).tobytes() == np.float64(want).tobytes()

    def test_single_element_preserves_negative_zero(self):
        vals = np.array([-0.0])
        ind = np.array([0], dtype=np.int64)
        got = native._gather_seg_sum(vals, ind, 0, 1)
        assert np.signbit(got)


class TestDispatchMatrix:
    """The wrappers through run_kernel on every backend, forced native."""

    BACKENDS = ["serial", "threads:2", "processes:2", "shm:2"]

    @pytest.mark.parametrize("spec", BACKENDS)
    def test_sweep_and_choice_through_backends(self, spec):
        rng = np.random.default_rng(11)
        n = 120
        degs = rng.integers(0, 7, size=n)
        degs[::17] = 0
        ptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(degs, out=ptr[1:])
        ind = rng.integers(0, n, size=int(ptr[-1]), dtype=np.int64)
        opp = rng.random(n) * np.power(
            10.0, rng.integers(-300, 18, size=n).astype(np.float64)
        )
        draws = 1.0 - rng.random(n)

        def run(name, extra, impl_forced):
            arrays = {"ptr": ptr, "ind": ind, "opp": opp, **extra}
            with kernel_chunk_override(23):
                if impl_forced:
                    with force_native_impls():
                        rets = run_kernel(
                            name, n, arrays, backend=spec
                        )
                else:
                    rets = run_kernel(name, n, arrays)
            return rets, arrays

        for name, extra in [
            ("sk_sweep", {"out": np.zeros(n)}),
            ("sk_sweep_err",
             {"mine": rng.random(n), "out": np.zeros(n)}),
            ("choice_scaled",
             {"draws": draws, "out": np.zeros(n, dtype=np.int64)}),
        ]:
            want_rets, want = run(name, {
                k: v.copy() for k, v in extra.items()
            }, False)
            got_rets, got = run(name, {
                k: v.copy() for k, v in extra.items()
            }, True)
            assert np.array_equal(got["out"], want["out"]), (name, spec)
            for a, b in zip(got_rets, want_rets):
                if isinstance(b, float):
                    assert np.float64(a).tobytes() == np.float64(b).tobytes()


class TestSelectionApi:
    def test_sentinels_match_canonical(self):
        assert native.NIL == NIL
        assert native.AUCTION_DROP == AUCTION_DROP

    def test_default_mode_is_auto(self, monkeypatch):
        monkeypatch.delenv("REPRO_KERNEL_IMPL", raising=False)
        native._reset_for_tests()
        assert get_kernel_impl() == "auto"

    def test_env_selection(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_IMPL", "numpy")
        native._reset_for_tests()
        assert get_kernel_impl() == "numpy"
        monkeypatch.delenv("REPRO_KERNEL_IMPL")
        native._reset_for_tests()

    def test_invalid_env_warns_and_falls_back_to_auto(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_IMPL", "cython")
        with pytest.warns(RuntimeWarning, match="REPRO_KERNEL_IMPL"):
            native._reset_for_tests()
        assert get_kernel_impl() == "auto"
        monkeypatch.delenv("REPRO_KERNEL_IMPL")
        native._reset_for_tests()

    def test_set_kernel_impl_rejects_unknown(self):
        with pytest.raises(ValueError):
            set_kernel_impl("fortran")

    def test_context_manager_restores(self):
        before = get_kernel_impl()
        with kernel_impl("numpy"):
            assert get_kernel_impl() == "numpy"
            with kernel_impl("native"):
                assert get_kernel_impl() == "native"
            assert get_kernel_impl() == "numpy"
        assert get_kernel_impl() == before

    def test_numpy_mode_resolves_to_registered_fn(self):
        kern = KERNELS["sk_sweep"]
        with kernel_impl("numpy"):
            assert native.active_fn(kern) is kern.fn

    def test_forced_mode_resolves_to_wrapper(self):
        kern = KERNELS["sk_sweep"]
        with force_native_impls():
            assert native.active_fn(kern) is native._WRAPPERS["sk_sweep"]

    def test_unknown_kernel_has_no_native_twin(self):
        from repro.parallel.kernels import Kernel

        stray = Kernel(name="stray", fn=lambda lo, hi, v: None)
        with kernel_impl("native"):
            assert native.active_fn(stray) is stray.fn

    def test_native_without_numba_warns_once_then_silent(self):
        if native_available():
            pytest.skip("numba installed: fallback path not reachable")
        native._reset_for_tests()
        kern = KERNELS["sk_sweep"]
        with kernel_impl("native"):
            with pytest.warns(RuntimeWarning, match="numba is not"):
                fn = native.active_fn(kern)
            assert fn is kern.fn
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert native.active_fn(kern) is kern.fn
                assert native.active_fn(KERNELS["auction_bid"]) is \
                    KERNELS["auction_bid"].fn

    def test_warm_compile_reports_every_kernel(self):
        native._reset_for_tests()
        with kernel_impl("numpy"):
            statuses = warm_compile()
        assert set(statuses) == set(native._WRAPPERS)
        assert all(s == "pending" for s in statuses.values())

    def test_kernel_impls_report_shape(self):
        rows = kernel_impls()
        assert {r["kernel"] for r in rows} == set(KERNELS)
        for row in rows:
            assert row["impl"] in ("numpy", "native")
            assert row["status"] in (
                "pending", "ready", "fallback", "unavailable"
            )

    def test_compiled_identity_when_numba_present(self):
        if not native_available():
            pytest.skip("numba not installed")
        native._reset_for_tests()
        with kernel_impl("native"):
            statuses = warm_compile()
            assert all(s == "ready" for s in statuses.values())
            kern = KERNELS["sk_sweep"]
            assert native.active_fn(kern) is native._WRAPPERS["sk_sweep"]


class TestOutputValidation:
    def test_missing_output_binding_raises_typed_error(self):
        n = 16
        arrays = {
            "ptr": np.zeros(n + 1, dtype=np.int64),
            "ind": np.zeros(0, dtype=np.int64),
            "opp": np.ones(n),
            # "out" deliberately missing
        }
        with pytest.raises(BackendError) as exc:
            run_kernel("sk_sweep", n, arrays)
        assert "sk_sweep" in str(exc.value)
        assert "out" in str(exc.value)

    def test_error_raised_before_any_worker_runs(self, ):
        n = 16
        arrays = {"prices": np.ones(4)}
        with pytest.raises(BackendError) as exc:
            run_kernel(
                "auction_bid", n, arrays,
                scalars={"eps": 0.1, "dead": 1.0},
            )
        msg = str(exc.value)
        assert "auction_bid" in msg and "bid_col" in msg


class TestGridMemoization:
    def test_grid_cache_hit_counter(self):
        kern = KERNELS["sk_sweep"]
        kernels_mod._GRID_CACHE.clear()
        with telemetry.session():
            first = kernels_mod.kernel_grid(100_000, kern)
            second = kernels_mod.kernel_grid(100_000, kern)
            reg = telemetry.get_registry()
            hits = reg.counter("parallel.grid.cache_hits").value
        assert first == second
        assert hits >= 1

    def test_grid_cache_respects_override(self):
        kern = KERNELS["sk_sweep"]
        with kernel_chunk_override(10):
            inside = kernels_mod.kernel_grid(25, kern)
        outside = kernels_mod.kernel_grid(25, kern)
        assert inside == [(0, 10), (10, 20), (20, 25)]
        assert outside == [(0, 25)]

    def test_grid_returns_fresh_list(self):
        kern = KERNELS["sk_sweep"]
        a = kernels_mod.kernel_grid(50_000, kern)
        a.append((-1, -1))
        b = kernels_mod.kernel_grid(50_000, kern)
        assert (-1, -1) not in b

    def test_static_partition_memoized(self):
        from repro.parallel import partition as part_mod

        part_mod._PARTITION_CACHE.clear()
        with telemetry.session():
            first = static_partition(10_000, 4)
            second = static_partition(10_000, 4)
            reg = telemetry.get_registry()
            hits = reg.counter("parallel.grid.cache_hits").value
        assert first == second
        assert hits >= 1

    def test_empty_segment_only_chunk_picks_nil(self):
        # Regression: a chunk of nothing but empty segments used to
        # index ind_slice[-1] on an empty slice in the numpy kernel.
        n = 3
        arrays = {
            "ptr": np.zeros(n + 1, dtype=np.int64),
            "ind": np.zeros(0, dtype=np.int64),
            "weights": np.zeros(0, dtype=np.float64),
            "draws": np.full(n, 0.5),
            "out": np.full(n, 7, dtype=np.int64),
        }
        run_kernel("choice_flat", n, arrays)
        assert np.all(arrays["out"] == NIL)


class TestCacheDir:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_NUMBA_CACHE", "/tmp/some-cache")
        assert native.native_cache_dir() == "/tmp/some-cache"

    def test_xdg_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_NUMBA_CACHE", raising=False)
        monkeypatch.setenv("XDG_CACHE_HOME", "/tmp/xdg")
        assert native.native_cache_dir() == "/tmp/xdg/repro/numba"
