"""Matchings: container, exact algorithms, and heuristic baselines."""

from repro.matching.matching import Matching, NIL
from repro.matching.exact.hopcroft_karp import hopcroft_karp
from repro.matching.exact.mc21 import mc21
from repro.matching.exact.auction import AuctionResult, auction_match
from repro.matching.exact.push_relabel import push_relabel
from repro.matching.exact.sprank import sprank
from repro.matching.heuristics.greedy import (
    greedy_edge_matching,
    greedy_row_matching,
    greedy_vertex_matching,
)
from repro.matching.heuristics.karp_sipser import karp_sipser, KarpSipserStats
from repro.matching.heuristics.karp_sipser_relaxed import karp_sipser_relaxed
from repro.matching.heuristics.karp_sipser_plus import karp_sipser_plus, KarpSipserPlusStats

__all__ = [
    "AuctionResult",
    "auction_match",
    "Matching",
    "NIL",
    "hopcroft_karp",
    "mc21",
    "push_relabel",
    "sprank",
    "greedy_edge_matching",
    "greedy_row_matching",
    "greedy_vertex_matching",
    "karp_sipser",
    "karp_sipser_relaxed",
    "karp_sipser_plus",
    "KarpSipserPlusStats",
    "KarpSipserStats",
]
