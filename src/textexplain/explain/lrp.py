"""Relevance backpropagation explainers.

Both methods distribute the relevance of a neuron to its upstream neurons in
proportion to each input's contribution to the stabilized pre-activation:

    R(i) = sum_j R(j) * a_i w_ij / (a'_j + esign(a'_j))

Sigmoid gates are treated as timestep-specific weights, not as neurons: they
multiply numerators but never receive relevance themselves. The difference
variant starts from s(k, X) - s(k, X0) for an all-zero-embedding baseline X0
and replaces activations by their differences from the baseline forward pass
(gates stay at their actual-input values).

Both are rules of the one reverse sweep (``models.sweep`` with a
``RelevanceRule``), run by the white-box pass of ``explain.gradient``: each
method is one row of the document in the pass's one sweep, beside the
exact-gradient rows of the gradient methods, and the document's all-zero
row is DeepLIFT's baseline. The entry points below are ``catalog.explain``
of one name, so one ``gradient.white_box_pass`` call: one forward over the
document (and, for DeepLIFT, its baseline row) and one sweep.
"""

from __future__ import annotations

from ..models import NetworkParams
from ..numerics import esign  # noqa: F401 -- importable from here too
from ..relevance import RelevanceMap
from .catalog import ExplainOptions, explain
from .gradient import DEFAULT_EPS


def lrp_explain(params: NetworkParams, ids, k: int,
                eps: float = DEFAULT_EPS) -> RelevanceMap:
    """Stabilized proportional relevance backpropagation of s(k, X)."""
    return explain("lrp", params, ids, k, ExplainOptions(eps=eps))


def deeplift_explain(params: NetworkParams, ids, k: int,
                     eps: float = DEFAULT_EPS) -> RelevanceMap:
    """Difference-from-baseline relevance backpropagation of
    s(k, X) - s(k, X0), baseline X0 = all-zero embeddings."""
    return explain("deeplift", params, ids, k, ExplainOptions(eps=eps))
