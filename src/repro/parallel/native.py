"""Native (JIT-compiled) implementations of the registered kernels.

Every kernel in :data:`repro.parallel.kernels.KERNELS` has a loop-level
twin here, written so that a ``numba.njit(cache=True, nogil=True)``
compilation of it is **bitwise identical** to the numpy implementation
on every chunk — same summation tree, same tie-breaks, same sentinel
handling.  The native tier slots in *behind* the registry as a per-kernel
implementation choice: the chunk grid, the task protocol, and all five
backends (serial / threads / processes / shm / resilient) are untouched,
so every equivalence guarantee of the registered-kernel layer carries
over verbatim.

Bitwise contract
----------------

numpy's reductions are not naive left-to-right sums; the loops below
mirror the exact evaluation orders so the compiled results match to the
last bit:

* ``np.add.reduceat`` (the segment sums behind the SK sweeps) computes
  ``seg[0] + pairwise_sum(seg[1:])`` per segment, where ``pairwise_sum``
  is numpy's 8-accumulator blocked pairwise tree with a 128-element
  block size (:func:`_pairwise` / :func:`_gather_pairwise` replicate it,
  including the unrolled remainder handling).  A one-element segment is
  returned as ``seg[0]`` with **no** addition performed.
* ``np.cumsum`` (the choice kernels' prefix sums) is a plain sequential
  accumulation.
* ``np.searchsorted(..., side="left")`` on a sorted array is an exact
  binary search — replicated literally, then clipped to the segment like
  the numpy kernel.  (Choice weights are non-negative by construction,
  so the chunk-local prefix array is sorted.)
* ``np.max`` propagates NaN; ``np.minimum.reduceat`` tie-breaks to the
  first occurrence.  Both behaviours are reproduced with explicit
  comparisons (``x > m or x != x``; strict ``<`` for the running min).

Because the mirrored trees could *in principle* diverge on an exotic
SIMD build, activation is gated: compiling a kernel runs a differential
self-check against the numpy implementation on an adversarial probe
input (denormals, huge magnitudes, empty / single-element / >128-edge
segments, price ties).  Any mismatch — like any compile failure, or
numba simply being absent — demotes that kernel to the numpy
implementation with a single warning.  Selection never errors.

Selection
---------

``REPRO_KERNEL_IMPL`` (``native`` / ``numpy`` / ``auto``, default
``auto``) picks the tier at import; :func:`set_kernel_impl` and the
:func:`kernel_impl` context manager change it at runtime.  ``auto``
means *native when numba is importable, numpy otherwise*.  Workers of a
:class:`~repro.parallel.shm.SharedMemoryBackend` inherit the selection
(and any warm-compiled dispatchers) when the pool forks; changing the
selection afterwards only affects the parent — which is unobservable in
results, because the two tiers are bitwise identical.

Compiled machine code is cached on disk under
:func:`native_cache_dir` (``$REPRO_NUMBA_CACHE``, else
``$XDG_CACHE_HOME/repro/numba``), so later processes skip the JIT cost;
:func:`warm_compile` compiles every kernel eagerly — the shm pool calls
it in the parent before forking so workers never compile.
"""

from __future__ import annotations

import contextlib
import importlib.util
import os
import threading
import time
import warnings
import zlib
from typing import Any, Callable, Iterator, Mapping

import numpy as np

from repro import telemetry as _tm

__all__ = [
    "AUCTION_DROP",
    "NIL",
    "active_fn",
    "force_native_impls",
    "get_kernel_impl",
    "kernel_impl",
    "kernel_impls",
    "native_available",
    "native_cache_dir",
    "set_kernel_impl",
    "warm_compile",
]

#: Duplicated sentinels (the loops need them as compile-time constants
#: and this module must stay importable before the registry).  Their
#: equality with the canonical definitions is asserted where they live
#: (``kernels.py`` / ``matching.py``) and in the native test suite.
NIL: int = -1
AUCTION_DROP: int = -2

_VALID_MODES = ("auto", "native", "numpy")

#: numpy's pairwise-summation block size (PW_BLOCKSIZE in
#: ``numpy/_core/src/umath/loops_utils.h.src``).
_PW_BLOCK = 128


# ----------------------------------------------------------------------
# numba detection + on-disk cache directory
# ----------------------------------------------------------------------
def native_cache_dir() -> str:
    """Directory numba caches compiled kernels in (created on demand).

    ``$REPRO_NUMBA_CACHE`` overrides; the default follows XDG:
    ``$XDG_CACHE_HOME/repro/numba`` (``~/.cache/repro/numba``).
    """
    explicit = os.environ.get("REPRO_NUMBA_CACHE")
    if explicit:
        return explicit
    xdg = os.environ.get("XDG_CACHE_HOME")
    if not xdg:
        xdg = os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(xdg, "repro", "numba")


def native_available() -> bool:
    """True when numba is importable (without importing it yet)."""
    global _NUMBA_PRESENT
    if _NUMBA_PRESENT is None:
        try:
            _NUMBA_PRESENT = importlib.util.find_spec("numba") is not None
        except (ImportError, ValueError):  # pragma: no cover - exotic loaders
            _NUMBA_PRESENT = False
    return _NUMBA_PRESENT


_NUMBA_PRESENT: bool | None = None
_NUMBA_VERSION: str | None = None
_JITTED = False


def _ensure_jitted() -> None:
    """Import numba (cache dir exported first) and jit every loop, once."""
    global _JITTED, _NUMBA_VERSION
    if _JITTED:
        return
    cache_dir = native_cache_dir()
    try:
        os.makedirs(cache_dir, exist_ok=True)
        os.environ.setdefault("NUMBA_CACHE_DIR", cache_dir)
    except OSError:  # pragma: no cover - unwritable home; numba picks its own
        pass
    import numba  # deferred: ~1s import, only paid when native is active

    _NUMBA_VERSION = getattr(numba, "__version__", "unknown")
    jit = numba.njit(cache=True, nogil=True)
    # Rebind the module globals so kernel loops (and the self-recursive
    # pairwise trees) resolve to dispatchers at compile time.  Helpers
    # first: they must be dispatchers before any kernel loop compiles.
    g = globals()
    for name in _HELPER_LOOPS + _KERNEL_LOOPS:
        g[name] = jit(g[name])
    _JITTED = True


# ----------------------------------------------------------------------
# Loop implementations (plain Python until :func:`_ensure_jitted` runs)
# ----------------------------------------------------------------------
def _pairwise(a, lo, n):
    """numpy's ``pairwise_sum_DOUBLE`` over ``a[lo:lo+n]``, to the bit."""
    if n < 8:
        s = 0.0
        for i in range(n):
            s += a[lo + i]
        return s
    if n <= _PW_BLOCK:
        r0 = a[lo]
        r1 = a[lo + 1]
        r2 = a[lo + 2]
        r3 = a[lo + 3]
        r4 = a[lo + 4]
        r5 = a[lo + 5]
        r6 = a[lo + 6]
        r7 = a[lo + 7]
        i = 8
        lim = n - (n % 8)
        while i < lim:
            r0 += a[lo + i]
            r1 += a[lo + i + 1]
            r2 += a[lo + i + 2]
            r3 += a[lo + i + 3]
            r4 += a[lo + i + 4]
            r5 += a[lo + i + 5]
            r6 += a[lo + i + 6]
            r7 += a[lo + i + 7]
            i += 8
        s = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
        while i < n:
            s += a[lo + i]
            i += 1
        return s
    n2 = n // 2
    n2 -= n2 % 8
    return _pairwise(a, lo, n2) + _pairwise(a, lo + n2, n - n2)


def _gather_pairwise(opp, ind, lo, n):
    """:func:`_pairwise` over the gather ``opp[ind[lo:lo+n]]``."""
    if n < 8:
        s = 0.0
        for i in range(n):
            s += opp[ind[lo + i]]
        return s
    if n <= _PW_BLOCK:
        r0 = opp[ind[lo]]
        r1 = opp[ind[lo + 1]]
        r2 = opp[ind[lo + 2]]
        r3 = opp[ind[lo + 3]]
        r4 = opp[ind[lo + 4]]
        r5 = opp[ind[lo + 5]]
        r6 = opp[ind[lo + 6]]
        r7 = opp[ind[lo + 7]]
        i = 8
        lim = n - (n % 8)
        while i < lim:
            r0 += opp[ind[lo + i]]
            r1 += opp[ind[lo + i + 1]]
            r2 += opp[ind[lo + i + 2]]
            r3 += opp[ind[lo + i + 3]]
            r4 += opp[ind[lo + i + 4]]
            r5 += opp[ind[lo + i + 5]]
            r6 += opp[ind[lo + i + 6]]
            r7 += opp[ind[lo + i + 7]]
            i += 8
        s = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
        while i < n:
            s += opp[ind[lo + i]]
            i += 1
        return s
    n2 = n // 2
    n2 -= n2 % 8
    return _gather_pairwise(opp, ind, lo, n2) + _gather_pairwise(
        opp, ind, lo + n2, n - n2
    )


def _gather_seg_sum(opp, ind, lo, n):
    """``np.add.reduceat`` semantics for one gathered segment.

    reduceat seeds the reduction with the first element and pairwise-sums
    the rest; a one-element segment is returned *without* any addition
    (so ``-0.0`` survives), and an empty one is 0.0.
    """
    if n <= 0:
        return 0.0
    if n == 1:
        return opp[ind[lo]]
    return opp[ind[lo]] + _gather_pairwise(opp, ind, lo + 1, n - 1)


def _loop_sk_sweep(lo, hi, ptr, ind, opp, out):
    for i in range(lo, hi):
        a = ptr[i]
        b = ptr[i + 1]
        s = _gather_seg_sum(opp, ind, a, b - a)
        if s > 0.0:
            out[i] = 1.0 / s
        else:
            out[i] = 1.0


def _loop_sk_sweep_err(lo, hi, ptr, ind, opp, mine, out):
    err = 0.0
    seen = False
    for i in range(lo, hi):
        a = ptr[i]
        b = ptr[i + 1]
        s = _gather_seg_sum(opp, ind, a, b - a)
        if b > a:
            x = abs(s * mine[i] - 1.0)
            if not seen:
                err = x
                seen = True
            elif x > err or x != x:  # np.max propagates NaN
                err = x
        if s > 0.0:
            out[i] = 1.0 / s
        else:
            out[i] = 1.0
    return err


def _pick_segments(lo, hi, ptr, ind, cum, draws, out):
    """Shared tail of the choice kernels over a chunk-local prefix *cum*.

    *cum* is the sequential prefix sum of the chunk's edge weights
    (``np.cumsum`` order); the binary search replicates
    ``np.searchsorted(cum, target, side="left")`` over the whole chunk,
    then clips into the segment exactly like the numpy kernel.
    """
    s = ptr[lo]
    m = ptr[hi] - s
    for i in range(lo, hi):
        start = ptr[i] - s
        end = ptr[i + 1] - s
        if start == end:
            out[i] = NIL
            continue
        if start > 0:
            base = cum[start - 1]
        else:
            base = 0.0
        total = cum[end - 1] - base
        if total <= 0.0:
            out[i] = NIL
            continue
        t = base + draws[i] * total
        pos = 0
        hi_b = m
        while pos < hi_b:
            mid = (pos + hi_b) >> 1
            if cum[mid] < t:
                pos = mid + 1
            else:
                hi_b = mid
        if pos < start:
            pos = start
        if pos > end - 1:
            pos = end - 1
        out[i] = ind[s + pos]


def _loop_choice_scaled(lo, hi, ptr, ind, opp, draws, out):
    s = ptr[lo]
    m = ptr[hi] - s
    cum = np.empty(m, dtype=np.float64)
    run = 0.0
    for k in range(m):
        run += opp[ind[s + k]]
        cum[k] = run
    _pick_segments(lo, hi, ptr, ind, cum, draws, out)


def _loop_choice_flat(lo, hi, ptr, ind, weights, draws, out):
    s = ptr[lo]
    m = ptr[hi] - s
    cum = np.empty(m, dtype=np.float64)
    run = 0.0
    for k in range(m):
        run += weights[s + k]
        cum[k] = run
    _pick_segments(lo, hi, ptr, ind, cum, draws, out)


def _loop_auction_bid(lo, hi, ptr, ind, prices, eps, dead, bid_col, bid_val):
    for i in range(lo, hi):
        a = ptr[i]
        b = ptr[i + 1]
        best = np.inf
        second = np.inf
        bestpos = -1
        for k in range(a, b):
            p = prices[ind[k]]
            if p >= dead:
                p = np.inf
            if p < best:  # strict <: ties keep the first CSR position
                second = best
                best = p
                bestpos = k
            elif p < second:
                second = p
        if bestpos >= 0 and best < np.inf:
            bid_col[i] = ind[bestpos]
            if second < np.inf:
                bid_val[i] = second + eps
            else:
                bid_val[i] = best + eps
        else:
            bid_col[i] = AUCTION_DROP
            bid_val[i] = 0.0


_HELPER_LOOPS = [
    "_pairwise",
    "_gather_pairwise",
    "_gather_seg_sum",
    "_pick_segments",
]
_KERNEL_LOOPS = [
    "_loop_sk_sweep",
    "_loop_sk_sweep_err",
    "_loop_choice_scaled",
    "_loop_choice_flat",
    "_loop_auction_bid",
]


# ----------------------------------------------------------------------
# views-dict adapters (``fn(lo, hi, views)`` -> positional loop call)
# ----------------------------------------------------------------------
def _ro(a: np.ndarray) -> np.ndarray:
    """A read-only view of *a* (no copy).

    Normalising every non-output argument to read-only keeps the jitted
    loops at exactly one compiled specialisation per kernel, whatever mix
    of frozen graph arrays and writable scratch vectors the caller binds
    — the parent warm-compiles once and forked pool workers reuse it.
    """
    if a.flags.writeable:
        a = a.view()
        a.flags.writeable = False
    return a


def _wrap_sk_sweep(lo: int, hi: int, v: Mapping[str, Any]) -> None:
    globals()["_loop_sk_sweep"](
        lo, hi, _ro(v["ptr"]), _ro(v["ind"]), _ro(v["opp"]), v["out"]
    )


def _wrap_sk_sweep_err(lo: int, hi: int, v: Mapping[str, Any]) -> float:
    return float(
        globals()["_loop_sk_sweep_err"](
            lo, hi, _ro(v["ptr"]), _ro(v["ind"]), _ro(v["opp"]),
            _ro(v["mine"]), v["out"],
        )
    )


def _wrap_choice_scaled(lo: int, hi: int, v: Mapping[str, Any]) -> None:
    globals()["_loop_choice_scaled"](
        lo, hi, _ro(v["ptr"]), _ro(v["ind"]), _ro(v["opp"]),
        _ro(v["draws"]), v["out"],
    )


def _wrap_choice_flat(lo: int, hi: int, v: Mapping[str, Any]) -> None:
    globals()["_loop_choice_flat"](
        lo, hi, _ro(v["ptr"]), _ro(v["ind"]), _ro(v["weights"]),
        _ro(v["draws"]), v["out"],
    )


def _wrap_auction_bid(lo: int, hi: int, v: Mapping[str, Any]) -> None:
    globals()["_loop_auction_bid"](
        lo, hi, _ro(v["ptr"]), _ro(v["ind"]), _ro(v["prices"]),
        float(v["eps"]), float(v["dead"]), v["bid_col"], v["bid_val"],
    )


def _quiet(fn: Callable[..., Any]) -> Callable[..., Any]:
    """Suppress numpy scalar-op RuntimeWarnings in the loop bodies.

    The un-jitted (pure Python) loops run on numpy *scalars*, which warn
    on overflow/underflow where the vectorized kernels stay silent; the
    values are identical either way, and jitted loops never warn.
    """

    def wrapper(lo: int, hi: int, v: Mapping[str, Any]) -> Any:
        with np.errstate(all="ignore"):
            return fn(lo, hi, v)

    wrapper.__name__ = fn.__name__
    return wrapper


_WRAPPERS: dict[str, Callable[[int, int, Mapping[str, Any]], Any]] = {
    "sk_sweep": _quiet(_wrap_sk_sweep),
    "sk_sweep_err": _quiet(_wrap_sk_sweep_err),
    "choice_scaled": _quiet(_wrap_choice_scaled),
    "choice_flat": _quiet(_wrap_choice_flat),
    "auction_bid": _quiet(_wrap_auction_bid),
}


# ----------------------------------------------------------------------
# Differential self-check probes
# ----------------------------------------------------------------------
def _probe_csr() -> tuple[np.ndarray, np.ndarray, int]:
    """A tiny adversarial CSR: every pairwise branch plus empty segments.

    Segment lengths cover ``n < 8``, the unrolled block (8..128 with a
    non-multiple-of-8 remainder), and the recursive split (> 128);
    includes empty and single-edge segments and repeated indices.
    """
    rng = np.random.default_rng(0xC0FFEE)
    degs = [0, 1, 2, 7, 8, 9, 16, 31, 0, 1, 127, 128, 129, 150, 300, 5]
    ncols = 37
    ptr = np.zeros(len(degs) + 1, dtype=np.int64)
    np.cumsum(np.asarray(degs, dtype=np.int64), out=ptr[1:])
    ind = rng.integers(0, ncols, size=int(ptr[-1]), dtype=np.int64)
    return ptr, ind, ncols


def _probe_values(rng: np.random.Generator, n: int) -> np.ndarray:
    """Magnitudes from subnormal to 1e18 with mixed signs of error terms."""
    exps = rng.integers(-320, 19, size=n)
    vals = rng.random(n) * np.power(10.0, exps.astype(np.float64))
    vals[rng.random(n) < 0.05] = 0.0
    return vals


def _probe_chunks(n: int) -> list[tuple[int, int]]:
    # Odd split points: exercises lo > 0 and single-row chunks.
    if n < 5:
        return [(0, n)]
    return [(0, 1), (1, n // 3), (n // 3, n - 1), (n - 1, n)]


def _probe_views(name: str) -> tuple[int, dict[str, Any], tuple[str, ...]]:
    """Deterministic probe ``(n, views, output names)`` for kernel *name*."""
    rng = np.random.default_rng(0xBEEF ^ zlib.crc32(name.encode()))
    ptr, ind, ncols = _probe_csr()
    n = ptr.shape[0] - 1
    if name in ("sk_sweep", "sk_sweep_err"):
        v = {
            "ptr": ptr, "ind": ind,
            "opp": _probe_values(rng, ncols),
            "out": np.zeros(n, dtype=np.float64),
        }
        if name == "sk_sweep_err":
            v["mine"] = _probe_values(rng, n)
        return n, v, ("out",)
    if name == "choice_scaled":
        return n, {
            "ptr": ptr, "ind": ind,
            "opp": _probe_values(rng, ncols),
            "draws": 1.0 - rng.random(n),
            "out": np.zeros(n, dtype=np.int64),
        }, ("out",)
    if name == "choice_flat":
        return n, {
            "ptr": ptr, "ind": ind,
            "weights": _probe_values(rng, int(ptr[-1])),
            "draws": 1.0 - rng.random(n),
            "out": np.zeros(n, dtype=np.int64),
        }, ("out",)
    if name == "auction_bid":
        prices = np.round(rng.random(ncols) * 4.0, 1)  # ties likely
        return n, {
            "ptr": ptr, "ind": ind, "prices": prices,
            "eps": 0.125, "dead": 3.0,
            "bid_col": np.zeros(n, dtype=np.int64),
            "bid_val": np.zeros(n, dtype=np.float64),
        }, ("bid_col", "bid_val")
    raise KeyError(name)


def _differential_check(name: str) -> None:
    """Run numpy and native on the probe; raise on any bitwise mismatch."""
    from repro.parallel.kernels import KERNELS

    kern = KERNELS[name]
    n, views_np, outputs = _probe_views(name)
    _, views_nat, _ = _probe_views(name)
    for lo, hi in _probe_chunks(n):
        ret_np = kern.fn(lo, hi, views_np)
        ret_nat = _WRAPPERS[name](lo, hi, views_nat)
        if not _bitwise_equal_ret(ret_np, ret_nat):
            raise AssertionError(
                f"native {name!r} chunk return diverges on [{lo},{hi}): "
                f"{ret_np!r} != {ret_nat!r}"
            )
    for out in outputs:
        a, b = views_np[out], views_nat[out]
        if a.dtype != b.dtype or not np.array_equal(a, b):
            raise AssertionError(
                f"native {name!r} output {out!r} diverges from numpy "
                f"on the probe input"
            )


def _bitwise_equal_ret(a: Any, b: Any) -> bool:
    if a is None and b is None:
        return True
    if isinstance(a, float) and isinstance(b, float):
        an, bn = np.float64(a), np.float64(b)
        return bool(an.tobytes() == bn.tobytes())
    return bool(a == b)


# ----------------------------------------------------------------------
# Per-kernel state + selection
# ----------------------------------------------------------------------
class _ImplState:
    __slots__ = ("name", "status", "seconds", "detail")

    def __init__(self, name: str) -> None:
        self.name = name
        self.status = "pending"  # pending | ready | fallback
        self.seconds: float | None = None
        self.detail: str = ""


_STATES: dict[str, _ImplState] = {n: _ImplState(n) for n in _WRAPPERS}
#: Reentrant: :func:`_compile_one` runs under it and warns under it too.
_LOCK = threading.RLock()
_FORCED = False
_WARNED: set[str] = set()


def _parse_mode(raw: str | None) -> str:
    if not raw:
        return "auto"
    mode = raw.strip().lower()
    if mode not in _VALID_MODES:
        warnings.warn(
            f"REPRO_KERNEL_IMPL={raw!r} is not one of {_VALID_MODES}; "
            f"using 'auto'",
            RuntimeWarning,
            stacklevel=3,
        )
        return "auto"
    return mode


_MODE: str = _parse_mode(os.environ.get("REPRO_KERNEL_IMPL"))


def set_kernel_impl(mode: str) -> None:
    """Select the kernel implementation tier: ``native``/``numpy``/``auto``.

    ``auto`` resolves to native when numba is importable.  Selecting
    ``native`` without numba is not an error — every kernel falls back to
    numpy with a single warning (the two tiers are bitwise identical, so
    the only observable difference is speed).  Shared-memory pool workers
    inherit the selection active when the pool forks.
    """
    global _MODE
    if mode not in _VALID_MODES:
        raise ValueError(
            f"kernel impl must be one of {_VALID_MODES}, got {mode!r}"
        )
    _MODE = mode
    if _tm.enabled():
        _tm.set_gauge("parallel.native.impl", 1.0 if _native_selected() else 0.0)


def get_kernel_impl() -> str:
    """The currently selected implementation tier (as set, unresolved)."""
    return _MODE


@contextlib.contextmanager
def kernel_impl(mode: str) -> Iterator[None]:
    """Context manager scoping :func:`set_kernel_impl` to a block."""
    previous = _MODE
    set_kernel_impl(mode)
    try:
        yield
    finally:
        set_kernel_impl(previous)


@contextlib.contextmanager
def force_native_impls() -> Iterator[None]:
    """Test hook: run the native loop bodies even without numba.

    Inside the block every registered kernel dispatches to the loop
    implementations regardless of compile state — pure Python when numba
    is absent.  That is orders of magnitude slower than numpy, but it
    lets the impl×backend equivalence matrix exercise the *exact* code
    numba compiles on hosts with no JIT available.  Test-sized inputs
    only.
    """
    global _FORCED
    previous_forced, previous_mode = _FORCED, _MODE
    _FORCED = True
    set_kernel_impl("native")
    try:
        yield
    finally:
        _FORCED = previous_forced
        set_kernel_impl(previous_mode)


def _native_selected() -> bool:
    if _MODE == "numpy":
        return False
    if _MODE == "native":
        return True
    return native_available()


def _warn_once(key: str, message: str) -> None:
    with _LOCK:
        if key in _WARNED:
            return
        _WARNED.add(key)
    warnings.warn(message, RuntimeWarning, stacklevel=4)


def _compile_one(state: _ImplState) -> None:
    """Jit + differentially verify one kernel; demote to numpy on failure."""
    t0 = time.perf_counter()
    try:
        if not native_available():
            raise ImportError("numba is not installed")
        _ensure_jitted()
        _differential_check(state.name)
    except Exception as exc:  # noqa: BLE001 - fallback must never error
        state.status = "fallback"
        state.seconds = time.perf_counter() - t0
        state.detail = f"{type(exc).__name__}: {exc}"
        if isinstance(exc, ImportError):
            _warn_once(
                "no-numba",
                "native kernel implementations requested but numba is not "
                "installed; falling back to the (bitwise-identical) numpy "
                "implementations",
            )
        else:
            _warn_once(
                f"kernel:{state.name}",
                f"native kernel {state.name!r} disabled "
                f"({state.detail}); falling back to numpy",
            )
        if _tm.enabled():
            _tm.incr("parallel.native.fallbacks")
        return
    state.status = "ready"
    state.seconds = time.perf_counter() - t0
    state.detail = f"numba {_NUMBA_VERSION}"
    if _tm.enabled():
        _tm.incr("parallel.native.compiled")
        _tm.observe("parallel.native.compile", state.seconds)


def active_fn(kern: Any) -> Callable[[int, int, Mapping[str, Any]], Any]:
    """The callable :func:`run_kernel` (or a pool worker) should execute.

    Resolves the selected tier for *kern*: the compiled native wrapper
    when native is selected and the kernel compiled + verified, else the
    registered numpy implementation.  Compilation happens lazily on the
    first native resolution and is cached (in-process and on disk).
    """
    if _FORCED:
        return _WRAPPERS.get(kern.name, kern.fn)
    if not _native_selected():
        return kern.fn
    state = _STATES.get(kern.name)
    if state is None:  # user-registered kernel without a native twin
        return kern.fn
    if state.status == "pending":
        with _LOCK:
            if state.status == "pending":
                _compile_one(state)
    return _WRAPPERS[kern.name] if state.status == "ready" else kern.fn


def warm_compile() -> dict[str, str]:
    """Eagerly compile (and verify) every native kernel; returns statuses.

    A no-op resolving straight to ``fallback`` when numba is absent.  The
    shared-memory pool calls this in the parent before forking so workers
    inherit ready dispatchers and never pay JIT cost; the on-disk cache
    (:func:`native_cache_dir`) makes even the parent's compile a cache
    load after the first process.
    """
    if _native_selected() and not _FORCED:
        with _LOCK:
            for state in _STATES.values():
                if state.status == "pending":
                    _compile_one(state)
    return {name: st.status for name, st in _STATES.items()}


def kernel_impls() -> list[dict[str, Any]]:
    """Per-kernel implementation report (for the ``kernels`` CLI and tests).

    One entry per registered kernel: the selected mode, whether the
    kernel would run native right now, its compile status
    (``pending``/``ready``/``fallback``), compile seconds, and detail
    (numba version or the fallback reason).
    """
    from repro.parallel.kernels import KERNELS

    rows: list[dict[str, Any]] = []
    for name, kern in sorted(KERNELS.items()):
        state = _STATES.get(name)
        fn = active_fn(kern)
        rows.append({
            "kernel": name,
            "mode": _MODE,
            "impl": "numpy" if fn is kern.fn else "native",
            "status": state.status if state is not None else "unavailable",
            "compile_seconds": state.seconds if state is not None else None,
            "detail": state.detail if state is not None else "no native twin",
        })
    return rows


def _reset_for_tests() -> None:
    """Reset selection, compile state, and warn-once sets (tests only)."""
    global _MODE, _FORCED
    with _LOCK:
        _WARNED.clear()
    for state in _STATES.values():
        state.status = "pending"
        state.seconds = None
        state.detail = ""
    _FORCED = False
    _MODE = _parse_mode(os.environ.get("REPRO_KERNEL_IMPL"))
