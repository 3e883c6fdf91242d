"""Gradient-based explainers: {plain, integrated} x {score, prob} x {L2, dot}.

Gradients are exact: one batched forward and one reverse sweep per call of
``models.embedding_gradients``. Plain gradients run only the sweep over the
document's forward trace, which the caller may pass in to share it with
other methods. Integrated gradients stack their M scaled inputs into one
batch of their own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..models import ForwardTrace, NetworkParams, embed, \
    embedding_gradients, forward
from ..relevance import RelevanceMap


@dataclass
class GradConfig:
    variant: str = "grad1"      # "grad1" | "gradint"
    output: str = "s"           # "s" | "p"
    reduction: str = "dot"      # "l2" | "dot"
    steps: int = 50             # interpolation points for "gradint"

    def validate(self) -> None:
        if self.variant not in ("grad1", "gradint"):
            raise ValueError(f"unknown gradient variant {self.variant!r}")
        if self.output not in ("s", "p"):
            raise ValueError(f"unknown output {self.output!r}")
        if self.reduction not in ("l2", "dot"):
            raise ValueError(f"unknown reduction {self.reduction!r}")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")

    @property
    def name(self) -> str:
        return f"{self.variant}_{self.output}_{self.reduction}"


# Most cells (steps x length x width) one batch of integrated gradients
# holds; longer inputs are split into several batches so that the trace of
# one batch stays a few MB.
IG_BATCH_CELLS = 1 << 18


def integrated_gradients(params: NetworkParams, ids, output: str, k: int,
                         steps: int = 50) -> np.ndarray:
    """Average gradient over the scaled inputs (m/M) * E, m = 1..M.

    The baseline is the all-zero embedding matrix, so the interpolation is a
    pure scaling of the actual embeddings. The M scaled inputs are scored as
    one batch, split only when it would exceed ``IG_BATCH_CELLS``.
    """
    emb = embed(params, ids)
    width = max(params.d_embed, params.d_hidden)
    chunk = max(1, IG_BATCH_CELLS // max(1, emb.shape[0] * width))
    total = np.zeros_like(emb)
    for lo in range(1, steps + 1, chunk):
        alphas = np.arange(lo, min(lo + chunk, steps + 1)) / steps
        total += embedding_gradients(params, output=output, k=k,
                                     emb=emb * alphas[:, None, None]).sum(axis=0)
    return total / steps


def reduce_gradients(grads: np.ndarray, emb: np.ndarray,
                     reduction: str) -> np.ndarray:
    """Per-token reduction of a (T, d_e) gradient matrix to a (T,) vector."""
    if grads.shape != emb.shape:
        raise ValueError("gradient/embedding shape mismatch")
    if reduction == "l2":
        return np.linalg.norm(grads, axis=1)
    if reduction == "dot":
        return np.einsum("td,td->t", emb, grads)
    raise ValueError(f"unknown reduction {reduction!r}")


def explain_gradient(params: NetworkParams, ids, k: int, cfg: GradConfig,
                     trace: ForwardTrace | None = None) -> RelevanceMap:
    """``trace`` is ``forward(params, ids)`` if the caller has it; plain
    gradients compute it otherwise, integrated gradients never read it."""
    cfg.validate()
    if cfg.variant == "grad1":
        if trace is None:
            trace = forward(params, ids)
        emb = trace.embeddings
        grads = embedding_gradients(params, output=cfg.output, k=k,
                                    trace=trace)
    else:
        emb = embed(params, ids)
        grads = integrated_gradients(params, ids, cfg.output, k, cfg.steps)
    return RelevanceMap(scores=reduce_gradients(grads, emb, cfg.reduction),
                        k=k, method=cfg.name)
