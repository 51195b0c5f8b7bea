"""Sharded matching: partitioned scale→choice→KS with reconciliation.

The first leg of the "graphs bigger than one machine" north star: a
bipartite graph is partitioned into K deterministic range shards
(:mod:`repro.shard.partition`), each shard holds rebased CSR/CSC slices
of its owned rows and columns (:mod:`repro.shard.session`), and one
driver (:mod:`repro.shard.pipeline`) runs Sinkhorn–Knopp, chunk-aligned
choice sampling and BSP Karp–Sipser reconciliation
(:mod:`repro.shard.reconcile`) over the K shards.  The merged matching is
validated on the global graph and carries the scaling rung's §3.3
guarantee, exactly as the unsharded path reports it.

One driver, two transports:

* ``shard_match`` / ``shard_scale`` — K in-process shard sessions called
  directly with numpy arrays; bitwise equal to the serial vectorized
  pipeline for every shard count.
* ``shard_match_daemons`` — one journaled socket daemon per shard behind
  the :class:`~repro.serve.router.Router`, reached through ``shard_*``
  verbs; shard crashes recover through the write-ahead journal with zero
  acked-request loss.

See ``docs/sharding.md`` for the design and the guarantee argument.
"""

from .partition import (
    ShardPlan,
    ShardSlice,
    plan_for_budget,
    plan_shards,
    shard_slice,
)
from .pipeline import ShardMatchResult, shard_match, shard_scale
from .reconcile import ReconcileState, reconcile_serial

__all__ = [
    "ShardPlan",
    "ShardSlice",
    "plan_shards",
    "shard_slice",
    "plan_for_budget",
    "ShardMatchResult",
    "shard_match",
    "shard_match_daemons",
    "ReconcileState",
    "reconcile_serial",
    "shard_scale",
]


def shard_match_daemons(*args, **kwargs):
    """Lazy alias for :func:`repro.shard.daemon_tier.shard_match_daemons`
    (imports the serving stack only when the daemon transport is used)."""
    from .daemon_tier import shard_match_daemons as _impl

    return _impl(*args, **kwargs)
