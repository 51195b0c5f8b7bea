"""Extension: the heuristics on undirected (non-bipartite) graphs.

The paper's conclusion: "We are investigating variants of the proposed
heuristics for finding approximate matchings in undirected graphs.  The
algorithms and results extend naturally."  This module implements that
natural extension:

* the graph is a symmetric pattern over one vertex set (no self-loops
  considered for matching);
* scaling uses the symmetry-preserving algorithm, giving one vector ``d``
  with ``s_ij = d[i] d[j]`` (symmetric doubly stochastic);
* **one-sided**: every vertex picks a scaled-random neighbour; vertex u's
  write ``match[choice[u]] = u`` races exactly as in Algorithm 2, and the
  surviving writes are made mutual in a cleanup pass (in the bipartite
  case the two sides cannot collide, here they can — the cleanup keeps
  each vertex's claim only if it is reciprocated or its target is free);
* **two-sided / 1-out**: the choices form a functional graph whose
  components again carry at most one cycle, so a Karp–Sipser restricted
  to out-one vertices is exact on the choice subgraph, exactly as
  Algorithm 4 (the row/column distinction simply disappears).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._typing import IndexArray, SeedLike, rng_from
from repro.errors import MatchingError, ScalingError, ShapeError
from repro.graph.csr import BipartiteGraph, missing_edges
from repro.matching.matching import NIL
from repro.core.choice import choices_from_weights
from repro.scaling.result import ScalingResult
from repro.scaling.symmetric import is_pattern_symmetric, scale_symmetric

__all__ = [
    "UndirectedMatching",
    "one_sided_match_undirected",
    "one_out_match_undirected",
    "validate_undirected_matching",
]


@dataclass(frozen=True)
class UndirectedMatching:
    """A matching on one vertex set: ``mate[u]`` is u's partner or NIL."""

    mate: IndexArray

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "mate", np.ascontiguousarray(self.mate, dtype=np.int64)
        )

    @property
    def cardinality(self) -> int:
        """Number of matched *edges* (pairs)."""
        return int(np.count_nonzero(self.mate != NIL)) // 2

    def matched_vertices(self) -> IndexArray:
        return np.flatnonzero(self.mate != NIL)


def validate_undirected_matching(
    graph: BipartiteGraph, matching: UndirectedMatching
) -> None:
    """Raise unless *matching* is a valid matching of the symmetric graph.

    Every check runs over all matched vertices at once; the error names
    the lowest vertex that fails one, with its first failed check in the
    order range, self-match, mutuality, edge.
    """
    mate = matching.mate
    n = graph.nrows
    if mate.shape[0] != n:
        raise ShapeError("matching size does not fit the graph")
    u = np.flatnonzero(mate != NIL)
    v = mate[u]
    outside = (v < 0) | (v >= n)
    self_match = v == u
    # An out-of-range partner is looked up at u instead (and masked).
    not_mutual = ~outside & (mate[np.where(outside, u, v)] != u)
    not_edge = missing_edges(graph.row_ptr, graph.col_ind, graph.ncols, u, v)
    bad = np.flatnonzero(outside | self_match | not_mutual | not_edge)
    if bad.size == 0:
        return
    k = bad[0]
    a, b = int(u[k]), int(v[k])
    if outside[k]:
        raise MatchingError(f"vertex {a} matched to {b}, outside [0, {n})")
    if self_match[k]:
        raise MatchingError(f"vertex {a} matched to itself")
    if not_mutual[k]:
        raise MatchingError(f"match of {a} and {b} is not mutual")
    raise MatchingError(f"matched pair ({a}, {b}) is not an edge")


def _require_symmetric(graph: BipartiteGraph) -> None:
    if not is_pattern_symmetric(graph):
        raise ScalingError(
            "undirected heuristics need a symmetric adjacency pattern"
        )


def _scaled_choices(
    graph: BipartiteGraph,
    d: np.ndarray,
    rng: np.random.Generator,
    *,
    avoid_self: bool = True,
) -> IndexArray:
    """One scaled-random neighbour per vertex (self-loops excluded)."""
    weights = d[graph.col_ind].copy()
    if avoid_self:
        weights[graph.col_ind == graph.row_of_edge()] = 0.0
    return choices_from_weights(graph.row_ptr, graph.col_ind, weights, rng)


def one_sided_match_undirected(
    graph: BipartiteGraph,
    iterations: int = 5,
    *,
    scaling: ScalingResult | None = None,
    seed: SeedLike = None,
) -> UndirectedMatching:
    """One-sided heuristic on an undirected graph.

    Every vertex claims one scaled-random neighbour; surviving claims are
    reconciled into a valid matching: mutual claims always stand, and a
    one-directional claim stands when its target made no standing claim.
    """
    _require_symmetric(graph)
    rng = rng_from(seed)
    if scaling is None:
        scaling = scale_symmetric(graph, iterations)
    choice = _scaled_choices(graph, scaling.dr, rng)

    n = graph.nrows
    # claims[v] = last u that claimed v (the racing-writes semantics).
    claims = np.full(n, NIL, dtype=np.int64)
    claimers = np.flatnonzero(choice != NIL)
    claims[choice[claimers]] = claimers

    mate = np.full(n, NIL, dtype=np.int64)
    # Pass 1: mutual claims (u claimed v, v's surviving claimer is u's
    # own claim target — i.e. claims[choice[u]] == u and vice versa is
    # implied) and reciprocal choices.
    for u in range(n):
        if mate[u] != NIL or choice[u] == NIL:
            continue
        v = int(choice[u])
        if mate[v] == NIL and choice[v] == u:
            mate[u] = v
            mate[v] = u
    # Pass 2: one-directional surviving claims onto free targets.
    for v in range(n):
        u = int(claims[v])
        if u == NIL or mate[v] != NIL or mate[u] != NIL:
            continue
        mate[u] = v
        mate[v] = u
    return UndirectedMatching(mate)


def one_out_match_undirected(
    graph: BipartiteGraph,
    iterations: int = 5,
    *,
    scaling: ScalingResult | None = None,
    seed: SeedLike = None,
    with_choice: bool = False,
) -> UndirectedMatching | tuple[UndirectedMatching, IndexArray]:
    """Karp–Sipser-exact heuristic on the undirected 1-out choice graph.

    The undirected analogue of TwoSidedMatch: each vertex picks one
    neighbour, and the out-one-chasing Karp–Sipser of Algorithm 4 runs on
    the functional graph (Phase 2 pairs the remaining cycle edges
    ``(u, choice[u])`` greedily — on a cycle these alternate, matching
    everything except possibly one vertex per odd cycle).
    """
    _require_symmetric(graph)
    rng = rng_from(seed)
    if scaling is None:
        scaling = scale_symmetric(graph, iterations)
    choice = _scaled_choices(graph, scaling.dr, rng)

    n = graph.nrows
    mate = np.full(n, NIL, dtype=np.int64)
    mark = np.ones(n, dtype=bool)
    deg = np.ones(n, dtype=np.int64)
    pointers = np.flatnonzero(choice != NIL)
    targets = choice[pointers]
    mark[targets] = False
    not_mutual = choice[targets] != pointers
    np.add.at(deg, targets[not_mutual], 1)

    # Phase 1: out-one chains (identical logic to the bipartite engine).
    for u in range(n):
        if not mark[u] or choice[u] == NIL:
            continue
        curr = int(u)
        while curr != NIL:
            nbr = int(choice[curr])
            if nbr == NIL or mate[nbr] != NIL:
                break
            mate[nbr] = curr
            mate[curr] = nbr
            nxt = int(choice[nbr])
            curr = NIL
            if nxt != NIL and mate[nxt] == NIL:
                deg[nxt] -= 1
                if deg[nxt] == 1:
                    curr = nxt

    # Phase 2: residual components are 2-cliques and cycles (possibly of
    # odd length — the graph is not bipartite).  Walk each cycle along the
    # choice pointers pairing consecutive edges: even cycles match
    # perfectly, odd cycles leave exactly one vertex, which is the maximum
    # on the choice subgraph.
    for u in range(n):
        curr = int(u)
        while (
            curr != NIL
            and mate[curr] == NIL
            and choice[curr] != NIL
            and mate[int(choice[curr])] == NIL
        ):
            v = int(choice[curr])
            mate[curr] = v
            mate[v] = curr
            curr = int(choice[v])

    matching = UndirectedMatching(mate)
    if with_choice:
        return matching, choice
    return matching
