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
``RelevanceRule``) over the input's forward trace, which the caller may pass
in to share one forward pass between the prediction and several methods;
the baseline forward pass of the difference variant is always run here.
"""

from __future__ import annotations

import numpy as np

from ..models import ForwardTrace, NetworkParams, RelevanceRule, forward, \
    forward_embedded, sweep
from ..numerics import esign
from ..relevance import RelevanceMap

DEFAULT_EPS = 1e-3


def _explain(params: NetworkParams, ids, k: int, eps: float,
             use_baseline: bool, method: str,
             trace: ForwardTrace | None) -> RelevanceMap:
    n_classes = params.n_classes
    if not 0 <= k < n_classes:
        raise ValueError(f"class {k} out of range [0, {n_classes})")
    if eps <= 0:
        raise ValueError("eps must be positive")
    if trace is None:
        trace = forward(params, ids)
    root = trace.scores[k]
    rule = RelevanceRule(eps)
    if use_baseline:
        base = forward_embedded(params, np.zeros_like(trace.embeddings))
        root = root - base.scores[k]
        rule = RelevanceRule(eps, base.batch_dirs)
    dscores = np.zeros((1, n_classes))
    dscores[0, k] = root / (root + esign(root, eps))
    demb, _ = sweep(params, trace.doc_repr[None], trace.batch_dirs, dscores,
                    rule=rule)
    return RelevanceMap(scores=(trace.embeddings * demb[0]).sum(axis=1), k=k,
                        method=method)


def lrp_explain(params: NetworkParams, ids, k: int, eps: float = DEFAULT_EPS,
                trace: ForwardTrace | None = None) -> RelevanceMap:
    """Stabilized proportional relevance backpropagation of s(k, X).

    ``trace`` is ``forward(params, ids)`` if the caller has it."""
    return _explain(params, ids, k, eps, use_baseline=False, method="lrp",
                    trace=trace)


def deeplift_explain(params: NetworkParams, ids, k: int,
                     eps: float = DEFAULT_EPS,
                     trace: ForwardTrace | None = None) -> RelevanceMap:
    """Difference-from-baseline relevance backpropagation of
    s(k, X) - s(k, X0), baseline X0 = all-zero embeddings.

    ``trace`` is ``forward(params, ids)`` if the caller has it; the
    baseline's forward pass is run here."""
    return _explain(params, ids, k, eps, use_baseline=True, method="deeplift",
                    trace=trace)
