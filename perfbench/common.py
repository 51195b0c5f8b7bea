"""Helpers shared by the workloads: statistics, oracles, host probes.

Nothing here imports the program under test; the oracles use numpy
and scipy only, so a defect in ``repro`` cannot hide a defect in the
check that is supposed to catch it.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np

#: Samples a tail percentile must leave above itself (see ``tail``).
TAIL_BEYOND = 10


class CheckFailed(Exception):
    """An output failed an oracle check: the run is not correct."""


# -- statistics ------------------------------------------------------


def tail(values):
    """The highest order statistic with ``TAIL_BEYOND`` samples above it.

    Returns ``(value, percentile)``.  With N samples this is the
    ``(N - 10)``-th smallest, i.e. the ``100 (N - 10) / N`` percentile:
    p90 at N = 100, p95 at N = 200.  A maximum (or any percentile with
    fewer samples beyond it) is left out on purpose: one stall would
    move it by the stall's full length.
    """
    xs = np.sort(np.asarray(values, dtype=float))
    n = xs.size
    if n <= TAIL_BEYOND:
        raise ValueError(f"need more than {TAIL_BEYOND} samples, got {n}")
    k = n - TAIL_BEYOND - 1
    return float(xs[k]), 100.0 * (k + 1) / n


def op_count(rate, seconds, minimum=2 * TAIL_BEYOND):
    """Fixed op count for a run of *seconds*: ``rate`` ops per second.

    The count depends on ``--seconds`` only, never on how fast the host
    is, so every run of a workload has the same N and its tail is the
    same percentile.
    """
    return max(minimum, int(round(rate * seconds)))


# -- inputs ----------------------------------------------------------


def er_coo(rng, n, degree):
    """Erdős–Rényi-style COO: ``degree * n`` uniform (row, col) draws.

    Duplicates are left in; the program's ``from_edges`` merges them and
    the oracle works on the de-duplicated key set.
    """
    m = int(round(degree * n))
    return rng.integers(0, n, m), rng.integers(0, n, m)


def edge_keys(n_cols, rows, cols):
    """Sorted unique ``row * n_cols + col`` keys of an edge list."""
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    # Sort and drop repeats: several times faster than np.unique here.
    keys = np.sort(rows * n_cols + cols)
    return keys[np.concatenate(([True], keys[1:] != keys[:-1]))]


# -- oracles ---------------------------------------------------------


def sprank(n_rows, n_cols, keys):
    """Structural rank from scipy's maximum bipartite matching."""
    import scipy.sparse as sp
    from scipy.sparse.csgraph import maximum_bipartite_matching

    rows = keys // n_cols
    cols = keys % n_cols
    mat = sp.csr_matrix(
        (np.ones(keys.size, dtype=np.int8), (rows, cols)),
        shape=(n_rows, n_cols),
    )
    match = maximum_bipartite_matching(mat, perm_type="column")
    return int(np.count_nonzero(match >= 0))


def check_matching(row_match, n_rows, n_cols, keys, reported, sprank_value):
    """Validate one matching against its input; return ``|M|``.

    * every matched pair is an edge of the input (``keys``);
    * no column is matched twice (rows are distinct by construction of
      a row -> column array);
    * the cardinality equals the program's reported one;
    * ``|M| <= sprank``.
    Raises :class:`CheckFailed` naming the first violation.
    """
    rm = np.asarray(row_match, dtype=np.int64)
    if rm.shape != (n_rows,):
        raise CheckFailed(f"row_match has shape {rm.shape}, want ({n_rows},)")
    rows = np.flatnonzero(rm >= 0)
    cols = rm[rows]
    if cols.size and cols.max() >= n_cols:
        raise CheckFailed(f"column {int(cols.max())} out of range {n_cols}")
    if cols.size and np.bincount(cols).max() > 1:
        raise CheckFailed("a column is matched to two rows")
    pair = rows * n_cols + cols
    pos = np.searchsorted(keys, pair)
    pos[pos >= keys.size] = 0
    bad = keys[pos] != pair
    if bad.any():
        i = int(rows[np.argmax(bad)])
        raise CheckFailed(f"matched pair ({i}, {int(rm[i])}) is not an edge")
    size = int(rows.size)
    if size != int(reported):
        raise CheckFailed(f"reported cardinality {reported}, counted {size}")
    if size > sprank_value:
        raise CheckFailed(f"|M| = {size} exceeds sprank {sprank_value}")
    return size


# -- process and host measurements ------------------------------------


def vm_hwm_mb(pid):
    """Peak resident set (VmHWM) of *pid* in MB, from /proc."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def child_pids(pid):
    """Direct children of *pid* (scan of /proc/*/stat)."""
    out = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        # Field 4 (ppid) follows the parenthesised command name.
        fields = stat[stat.rindex(")") + 2 :].split()
        if int(fields[1]) == pid:
            out.append(int(entry))
    return out


def host_probe():
    """A fixed pure-Python, JSON and small-numpy loop, in ms each.

    Printed at the start and end of every run and never gated: a host
    slowdown then shows next to the numbers it distorts.
    """
    out = {}
    t = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc += i * i % 7
    out["python_ms"] = 1e3 * (time.perf_counter() - t)
    doc = {"rows": list(range(20_000)), "cols": list(range(20_000, 0, -1))}
    t = time.perf_counter()
    for _ in range(5):
        json.loads(json.dumps(doc))
    out["json_ms"] = 1e3 * (time.perf_counter() - t)
    rng = np.random.default_rng(0)
    data = rng.integers(0, 1 << 30, 200_000)
    t = time.perf_counter()
    for _ in range(5):
        np.sort(data)
        np.cumsum(data)
    out["numpy_ms"] = 1e3 * (time.perf_counter() - t)
    return {k: round(v, 3) for k, v in out.items()}


def cpu_ticks():
    """``(steal, total)`` jiffies of all CPUs so far, from /proc/stat.

    Steal is time the hypervisor ran something else on this guest's
    CPUs; its share over a run is printed next to the host probe.
    """
    with open("/proc/stat") as fh:
        fields = [int(x) for x in fh.readline().split()[1:]]
    # user nice system idle iowait irq softirq steal [guest guest_nice],
    # where guest time is already counted in user.
    return fields[7], sum(fields[:8])
