"""Exact maximum-cardinality bipartite matching algorithms."""

from repro.matching.exact.auction import AuctionResult, auction_match
from repro.matching.exact.hopcroft_karp import hopcroft_karp
from repro.matching.exact.mc21 import mc21
from repro.matching.exact.push_relabel import push_relabel
from repro.matching.exact.sprank import sprank

__all__ = [
    "AuctionResult",
    "auction_match",
    "hopcroft_karp",
    "mc21",
    "push_relabel",
    "sprank",
]
