"""The paper's contributions: OneSidedMatch, TwoSidedMatch, KarpSipserMT.

Quick start::

    from repro.graph import sprand
    from repro.core import one_sided_match, two_sided_match

    g = sprand(10_000, 4.0, seed=0)
    one = one_sided_match(g, iterations=5, seed=1)
    two = two_sided_match(g, iterations=5, seed=1)
    print(one.matching.cardinality, two.matching.cardinality)
"""

from repro.core.choice import scaled_row_choices, scaled_col_choices
from repro.core.onesided import one_sided_match, OneSidedResult
from repro.core.twosided import two_sided_match, TwoSidedResult
from repro.core.karp_sipser_mt import (
    karp_sipser_mt,
    karp_sipser_mt_vectorized,
    karp_sipser_mt_simulated,
    choice_graph,
    KarpSipserMTStats,
)
from repro.core.oneout import (
    sample_uniform_one_out,
    one_out_graph,
    one_out_max_matching_size,
)
from repro.core.quality import (
    matching_quality,
    one_sided_bound,
    two_sided_bound,
)
from repro.core.analysis import (
    expected_one_sided_cardinality,
    one_sided_lower_bound,
    one_sided_miss_probabilities,
)
from repro.core.ensemble import best_of, EnsembleResult
from repro.core.undirected import (
    UndirectedMatching,
    one_out_match_undirected,
    one_sided_match_undirected,
    validate_undirected_matching,
)

__all__ = [
    "scaled_row_choices",
    "scaled_col_choices",
    "one_sided_match",
    "OneSidedResult",
    "two_sided_match",
    "TwoSidedResult",
    "karp_sipser_mt",
    "karp_sipser_mt_vectorized",
    "karp_sipser_mt_simulated",
    "choice_graph",
    "KarpSipserMTStats",
    "sample_uniform_one_out",
    "one_out_graph",
    "one_out_max_matching_size",
    "matching_quality",
    "one_sided_bound",
    "two_sided_bound",
    "expected_one_sided_cardinality",
    "one_sided_lower_bound",
    "one_sided_miss_probabilities",
    "best_of",
    "EnsembleResult",
    "UndirectedMatching",
    "one_sided_match_undirected",
    "one_out_match_undirected",
    "validate_undirected_matching",
]
