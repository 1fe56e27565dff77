"""Built-in instance families with their translations. The metric,
digraph and triples families also have closed-form extremal oracles
(`*_extremal_oracle`), separate from the generic search;
`cli verify` checks the search against them."""

from . import colored, digraphs, metric, mixed, triples

__all__ = ["colored", "digraphs", "metric", "mixed", "triples"]
